//! One deliberately-bad mini-tree per rule under `tests/fixtures/`, plus a
//! clean tree, each asserting the *exact* fire locations — and a `--json`
//! round-trip of real findings through the hand-rolled parser, both via the
//! library codec and via the actual binary.
//!
//! The fixture sources are data, not code: the workspace walk skips any
//! directory named `fixtures`, so cargo never compiles them and the real
//! lint run never sees them.

use std::path::{Path, PathBuf};

use rrs_lint::{analyze, json, Config, Finding};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

fn run(name: &str, rules: Option<&[&str]>) -> Vec<Finding> {
    let config = Config { rules: rules.map(|r| r.iter().map(|s| s.to_string()).collect()) };
    analyze(&fixture_root(name), &config).expect("fixture tree analyzes")
}

/// (file, line, rule, item) — the part of a finding a fixture pins down.
fn anchors(findings: &[Finding]) -> Vec<(String, u32, String, Option<String>)> {
    findings.iter().map(|f| (f.file.clone(), f.line, f.rule.clone(), f.item.clone())).collect()
}

fn anchor(
    file: &str,
    line: u32,
    rule: &str,
    item: Option<&str>,
) -> (String, u32, String, Option<String>) {
    (file.to_string(), line, rule.to_string(), item.map(str::to_string))
}

#[test]
fn waiver_ledger_fires_on_unledgered_allow_and_stale_entry() {
    let findings = run("waiver_bad", None);
    assert_eq!(
        anchors(&findings),
        vec![
            anchor("LINT_LEDGER.toml", 2, "waiver-ledger", Some("unsafe_code")),
            anchor("src/lib.rs", 3, "waiver-ledger", Some("clippy::disallowed_methods")),
        ],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("stale"), "{}", findings[0].message);
    assert!(findings[1].message.contains("no LINT_LEDGER.toml entry"), "{}", findings[1].message);
}

#[test]
fn float_ban_fires_on_each_float_token_outside_tests() {
    let findings = run("float_bad", Some(&["float-ban"]));
    assert_eq!(
        anchors(&findings),
        vec![
            anchor("crates/core/src/util.rs", 1, "float-ban", Some("f64")),
            anchor("crates/core/src/util.rs", 2, "float-ban", Some("0.5")),
            anchor("crates/core/src/util.rs", 2, "float-ban", Some("f64")),
        ],
        "{findings:#?}"
    );
}

#[test]
fn trait_matrix_fires_once_naming_every_missing_trait() {
    let findings = run("trait_bad", Some(&["trait-matrix"]));
    assert_eq!(
        anchors(&findings),
        vec![anchor("crates/core/src/lib.rs", 9, "trait-matrix", Some("Bad"))],
        "{findings:#?}"
    );
    let msg = &findings[0].message;
    assert!(msg.contains("`Policy` but not `Snapshot`"), "{msg}");
}

#[test]
fn schema_sync_fires_on_writer_parser_and_doc_drift() {
    let findings = run("schema_bad", Some(&["schema-sync"]));
    assert_eq!(
        anchors(&findings),
        vec![
            anchor("crates/engine/src/obs.rs", 3, "schema-sync", Some("undocumented_counter")),
            anchor("crates/engine/src/sink.rs", 3, "schema-sync", Some("orphan")),
            anchor("crates/engine/src/sink.rs", 9, "schema-sync", Some("ghost")),
        ],
        "{findings:#?}"
    );
    assert!(findings[1].message.contains("no `parse_trace_line` arm"), "{}", findings[1].message);
    assert!(findings[2].message.contains("never emits"), "{}", findings[2].message);
}

#[test]
fn unwrap_discipline_fires_outside_tests_only() {
    let findings = run("unwrap_bad", Some(&["unwrap-discipline"]));
    assert_eq!(
        anchors(&findings),
        vec![anchor("src/lib.rs", 4, "unwrap-discipline", None)],
        "{findings:#?}"
    );
}

#[test]
fn crate_root_hygiene_fires_on_missing_forbid_and_unledgered_deny() {
    let findings = run("hygiene_bad", Some(&["crate-root-hygiene"]));
    assert_eq!(
        anchors(&findings),
        vec![
            anchor("crates/denied/src/lib.rs", 1, "crate-root-hygiene", None),
            anchor("src/lib.rs", 1, "crate-root-hygiene", None),
        ],
        "{findings:#?}"
    );
}

#[test]
fn clean_tree_yields_zero_findings_on_a_full_pass() {
    let findings = run("clean", None);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn json_round_trips_real_findings_through_the_hand_rolled_parser() {
    for tree in ["waiver_bad", "schema_bad", "clean"] {
        let findings = run(tree, None);
        let encoded = json::encode(&findings);
        let decoded = json::decode(&encoded).expect("encoder output decodes");
        assert_eq!(decoded, findings, "round-trip identity for {tree}");
    }
}

#[test]
fn binary_json_output_matches_the_library_and_exit_codes_hold() {
    let bin = env!("CARGO_BIN_EXE_rrs-lint");
    for (tree, expect_findings) in [("schema_bad", true), ("clean", false)] {
        let out = std::process::Command::new(bin)
            .args(["--json", "--root"])
            .arg(fixture_root(tree))
            .output()
            .expect("rrs-lint binary runs");
        let code = out.status.code();
        assert_eq!(code, Some(if expect_findings { 1 } else { 0 }), "exit code for {tree}");
        let stdout = String::from_utf8(out.stdout).expect("JSON output is UTF-8");
        let decoded = json::decode(&stdout).expect("binary JSON decodes");
        let library = run(tree, None);
        assert_eq!(decoded, library, "binary and library agree on {tree}");
    }
}

#[test]
fn rule_filter_rejects_unknown_names() {
    let err =
        analyze(&fixture_root("clean"), &Config { rules: Some(vec!["no-such-rule".to_string()]) })
            .unwrap_err();
    assert!(err.contains("unknown rule"), "{err}");
}
