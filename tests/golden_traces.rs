//! Golden trace fixtures: saved schema-v1 JSONL traces must be reproduced
//! byte-for-byte by a fresh run. This pins *both* sides of the contract:
//! the simulator/policy semantics (every drop, arrival, reconfiguration and
//! execution event, in order) and the sink's serialization (field order,
//! escaping, meta header). Any refactor of the hot path must leave these
//! bytes untouched.
//!
//! The fixtures were produced with
//! `rrs-cli run <policy> <FILE> --trace-out <FIXTURE>` (default 8
//! locations). Regenerate deliberately with `BLESS=1 cargo test -q
//! --test golden_traces` after a *semantic* change — never to paper over
//! an accidental one.

use rrs::engine::{parse_trace, JsonlSink, Simulator, TraceMeta};
use rrs::prelude::*;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn load_instance(name: &str) -> Instance {
    let text = std::fs::read_to_string(fixture_path(name)).expect("instance fixture readable");
    rrs::model::from_text(&text).expect("instance fixture parses")
}

/// Run `policy` on the fixture instance exactly as `rrs-cli run --trace-out`
/// does and compare the serialized trace byte-for-byte with the fixture.
fn check_trace_fixture(instance_file: &str, mut policy: Box<dyn Policy>, trace_file: &str) {
    let inst = load_instance(instance_file);
    let n = 8; // the CLI's default --locations
    let meta =
        TraceMeta { policy: policy.name().to_string(), delta: inst.delta, locations: n, speed: 1 };
    let mut sink = JsonlSink::with_meta(Vec::new(), &meta);
    // `simulate` tees in the run's supervisor, which under `--features
    // validate` is the shadow-model invariant watcher; it only observes, so
    // the emitted bytes are identical either way.
    let out = simulate(&Simulator::new(&inst, n), &mut policy, &mut sink);
    let bytes = sink.finish().expect("Vec<u8> sink cannot fail");

    let path = fixture_path(trace_file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &bytes).expect("write blessed fixture");
        return;
    }
    let golden = std::fs::read(&path).expect("trace fixture readable");
    // Sanity first: the fixture itself is a valid schema-v1 trace whose
    // totals satisfy conservation, so a mismatch below is meaningful.
    let parsed = parse_trace(std::str::from_utf8(&golden).expect("fixture is utf-8"))
        .expect("fixture parses as schema v1");
    assert_eq!(parsed.arrived(), out.arrived);
    assert_eq!(parsed.executed() + parsed.dropped(), out.arrived);

    assert_eq!(
        bytes, golden,
        "{trace_file}: regenerated trace differs from the golden fixture \
         (policy semantics or sink serialization changed). If — and only if \
         — the change is an intended semantic change, regenerate with:\n    \
         BLESS=1 cargo test -q --test golden_traces\nthen review the fixture \
         diff before committing."
    );
}

#[test]
fn dlru_edf_trace_is_byte_identical_to_fixture() {
    check_trace_fixture(
        "rate_limited_s7.rrs",
        Box::new(DeltaLruEdf::new()),
        "dlru_edf_rate_limited_s7.trace.jsonl",
    );
}

#[test]
fn full_stack_trace_is_byte_identical_to_fixture() {
    check_trace_fixture(
        "general_s3.rrs",
        Box::new(full_algorithm()),
        "full_general_s3.trace.jsonl",
    );
}
