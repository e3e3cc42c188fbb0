//! Golden determinism tests: the adversary experiments are fully
//! deterministic (closed-form instances, deterministic tie-breaks), so
//! their exact numbers are pinned here. A change to any of these values
//! means the algorithms' semantics changed — which must be deliberate.

use rrs::analysis::experiments::{
    all_default, e1_lru_adversary, e2_edf_adversary, router_scenario,
};

#[test]
fn e1_exact_costs_are_stable() {
    let (t, _) = e1_lru_adversary(8, 2, 4..=8);
    let col = |row: usize, name: &str| -> u64 { t.cell(row, name).unwrap().parse().unwrap() };
    // ΔLRU: n reconfigurations (nΔ = 16) plus all 2^k long-job drops.
    assert_eq!(col(0, "dlru"), 80); // 16 + 64
    assert_eq!(col(1, "dlru"), 144); // 16 + 128
    assert_eq!(col(2, "dlru"), 272);
    assert_eq!(col(3, "dlru"), 528);
    assert_eq!(col(4, "dlru"), 1040);
    // OFF: Δ + short-job drops = 2 + 2^{k-j} * 4 * 2 = 2 + 32.
    for row in 0..t.len() {
        assert_eq!(col(row, "off"), 34, "row {row}");
        assert_eq!(col(row, "dlru_edf"), 40, "row {row}");
    }
}

#[test]
fn e2_exact_costs_are_stable() {
    let (t, _) = e2_edf_adversary(8, 10, 4, 6..=9);
    let col = |row: usize, name: &str| -> u64 { t.cell(row, name).unwrap().parse().unwrap() };
    // OFF: (n/2 + 1)·Δ = 5 * 10.
    for row in 0..t.len() {
        assert_eq!(col(row, "off"), 50, "row {row}");
        assert_eq!(col(row, "dlru_edf"), 100, "row {row}");
    }
    // EDF thrashing doubles with each k step.
    assert_eq!(col(0, "edf"), 120);
    assert_eq!(col(1, "edf"), 160);
    assert_eq!(col(2, "edf"), 240);
    assert_eq!(col(3, "edf"), 400);
}

/// The complete experiment suite (E1–E15) plus the router scenario,
/// rendered to text and pinned byte-for-byte. Every number in every table
/// is deterministic, so this snapshot guards all Outcome values at once —
/// it is the acceptance gate for behavior-preserving refactors of the
/// simulator hot path. Regenerate deliberately with
/// `BLESS=1 cargo test -q --test golden suite_snapshot`.
#[test]
fn suite_snapshot_is_byte_identical_to_fixture() {
    let mut text = String::new();
    for (table, _) in all_default() {
        text.push_str(&format!("{table}\n"));
    }
    text.push_str(&format!("{}\n", router_scenario(0).0));

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/suite_snapshot.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).expect("write blessed snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("suite snapshot fixture readable");
    assert_eq!(
        text, golden,
        "experiment-suite output changed; if deliberate, re-bless the snapshot"
    );
}

#[test]
fn text_format_snapshot_is_stable() {
    // A tiny instance's serialized form is part of the CLI contract.
    let mut b = rrs::model::InstanceBuilder::new(4);
    let voip = b.color(4);
    let bulk = b.color(32);
    b.arrive(0, bulk, 24).arrive(0, voip, 3).arrive(4, voip, 3);
    let inst = b.build();
    let expected = "\
# rrs instance v1
delta 4
color 0 4
color 1 32
arrive 0 0 3
arrive 0 1 24
arrive 4 0 3
";
    assert_eq!(rrs::model::to_text(&inst), expected);
}
