//! Golden determinism: parallel sweeps must be bit-identical to serial.
//!
//! One test function drives every comparison because the jobs knob is
//! process-global; separate `#[test]`s would race on it under the default
//! multi-threaded test runner.

use rrs::analysis::experiments::{e11_arbitrary_bounds, e15_punctuality, e3_vs_opt, Experiment};
use rrs::engine::set_jobs;

/// An experiment as bytes: its rendered table and its reports' JSON lines.
fn render((table, reports): Experiment) -> (String, Vec<String>) {
    (table.to_string(), reports.iter().map(|r| r.to_json()).collect())
}

#[test]
fn parallel_tables_match_serial_byte_for_byte() {
    let render_all = || {
        (
            render(e3_vs_opt(0..12)),
            render(e11_arbitrary_bounds(0..8)),
            render(e15_punctuality(0..6)),
        )
    };
    set_jobs(1);
    let serial = render_all();
    set_jobs(4);
    let parallel = render_all();
    // Element-for-element comparison so a mismatch names the experiment;
    // each compares the table bytes and the reports' JSON bytes in order.
    assert_eq!(serial.0, parallel.0, "e3_vs_opt diverged");
    assert_eq!(serial.1, parallel.1, "e11_arbitrary_bounds diverged");
    assert_eq!(serial.2, parallel.2, "e15_punctuality diverged");
    // An odd worker count exercises uneven work distribution too.
    set_jobs(3);
    assert_eq!(serial.0, render(e3_vs_opt(0..12)));

    // The reports come back in sweep order whatever order the runs
    // finished in: one per seed, labeled by it, each conserved.
    set_jobs(4);
    let (table, reports) = e3_vs_opt(0..12);
    assert_eq!(serial.0 .0, table.to_string(), "e3 table bytes diverged");
    let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
    let expected: Vec<String> = (0..12).map(|seed| format!("e3 seed={seed}")).collect();
    assert_eq!(labels, expected);
    for r in &reports {
        assert!(r.outcome.conserved(), "{}", r.label);
    }
}
