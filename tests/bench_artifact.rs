//! End-to-end checks on the benchmark subsystem (DESIGN.md §13).
//!
//! Runs the real quick-tier suites in-process (with the shared allocator
//! probe installed, as the CLI does) and asserts the properties the
//! committed `BENCH_*.json` trajectory relies on:
//!
//! 1. deterministic metric blocks are identical across repeated runs;
//! 2. the JSON artifact round-trips byte-identically through the parser;
//! 3. `compare` is clean against an identical artifact and regressed
//!    against an injected deterministic delta.
//!
//! Advisory (wall-clock) metrics are explicitly NOT compared here — they
//! are warn-only by design and vary run to run.

use rrs_bench::suite::{run_suite, SuiteConfig};
use rrs_bench::{alloc_probe, compare_artifacts, BenchArtifact, CompareConfig};

#[global_allocator]
static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;

/// The deterministic blocks of an artifact, flattened for comparison.
fn deterministic_view(a: &BenchArtifact) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for b in &a.benches {
        for (k, v) in &b.deterministic {
            out.push((b.name.clone(), k.clone(), *v));
        }
    }
    out
}

#[test]
fn core_suite_is_deterministic_and_round_trips() {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    let a = run_suite("core", SuiteConfig::new(true)).expect("core suite runs");
    let b = run_suite("core", SuiteConfig::new(true)).expect("core suite reruns");

    assert_eq!(
        deterministic_view(&a),
        deterministic_view(&b),
        "deterministic core metrics drifted between identical runs"
    );
    assert!(!a.benches.is_empty());
    assert!(a.bench("steady_round_loop").is_some());
    assert!(a.bench("opt_guarded").unwrap().det_value("opt_cost").is_some());

    // Artifact JSON must parse back and re-encode byte-identically.
    let text = a.to_json();
    let parsed = BenchArtifact::parse(&text).expect("artifact parses");
    assert_eq!(parsed.to_json(), text, "artifact round-trip is not byte-identical");

    // Identical artifacts compare clean (advisory values are equal too).
    let cmp = compare_artifacts(&a, &a, &CompareConfig::default()).expect("suites match");
    assert!(!cmp.regressed(), "identical artifacts must not regress: {}", cmp.render());
    assert!(cmp.warnings.is_empty(), "identical artifacts must not warn: {}", cmp.render());
}

#[test]
fn allocations_on_other_threads_are_not_counted() {
    // The probe's call count is per thread: a sibling thread allocating
    // inside this thread's measured window must leave its delta at 0.
    use std::sync::{Arc, Barrier};
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    let go = Arc::new(Barrier::new(2));
    let done = Arc::new(Barrier::new(2));
    let (go2, done2) = (Arc::clone(&go), Arc::clone(&done));
    let sibling = std::thread::spawn(move || {
        go2.wait();
        for n in 1..=256usize {
            drop(std::hint::black_box(Vec::<u64>::with_capacity(n)));
        }
        done2.wait();
    });
    let before = alloc_probe::alloc_calls();
    go.wait();
    done.wait();
    let delta = alloc_probe::alloc_calls() - before;
    sibling.join().expect("sibling thread");
    assert_eq!(delta, 0, "another thread's allocations leaked into this thread's count");
}

#[test]
fn sweep_suite_is_deterministic_across_runs() {
    let a = run_suite("sweep", SuiteConfig::new(true)).expect("sweep suite runs");
    let b = run_suite("sweep", SuiteConfig::new(true)).expect("sweep suite reruns");
    assert_eq!(
        deterministic_view(&a),
        deterministic_view(&b),
        "deterministic sweep metrics drifted between identical runs"
    );
    // Every per-worker bench reports the same cost checksum (totals, not
    // per-worker splits, so the values are schedule-independent).
    let sums: Vec<u64> = a.benches.iter().filter_map(|r| r.det_value("cost_checksum")).collect();
    assert!(sums.len() >= 2);
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "cost checksum varies by worker count");
}

#[test]
fn injected_deterministic_regression_is_caught() {
    let base = run_suite("core", SuiteConfig::new(true)).expect("core suite runs");
    let mut worse = base.clone();
    for bench in &mut worse.benches {
        if bench.name == "steady_round_loop" {
            for (k, v) in &mut bench.deterministic {
                if k == "allocs_per_round_steady_max" {
                    *v += 7;
                }
            }
        }
    }
    let cmp = compare_artifacts(&base, &worse, &CompareConfig::default()).expect("suites match");
    assert!(cmp.regressed(), "injected allocs/round regression must hard-fail");
    assert!(
        cmp.failures.iter().any(|f| f.contains("allocs_per_round_steady_max")),
        "failure should name the regressed metric: {:?}",
        cmp.failures
    );
}
