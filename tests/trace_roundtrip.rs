//! Integration: the JSONL trace pipeline end to end — sink, parser, phase
//! timer, and the determinism boundary (trace bytes carry no timing and
//! are identical at any worker count).
//!
//! The worker-count golden test shares this binary's process-global jobs
//! knob, so everything that touches `set_jobs` lives in one test function.

use rrs::analysis::per_color_from_events;
use rrs::engine::{
    parse_trace, set_jobs, JsonlSink, PhaseTimer, Simulator, TraceMeta, TraceRecorder,
};
use rrs::prelude::*;

fn instance() -> Instance {
    let mut b = InstanceBuilder::new(3);
    let fast = b.color(2);
    let slow = b.color(8);
    for blk in 0..10 {
        b.arrive(blk * 2, fast, 2);
    }
    b.arrive(0, slow, 12).arrive(16, slow, 6);
    b.build()
}

/// Serialize one run through a [`JsonlSink`] while also recording it
/// in memory, returning `(bytes, in-memory trace, outcome)`.
fn traced_run(inst: &Instance, n: usize) -> (Vec<u8>, TraceRecorder, Outcome) {
    let mut policy = DeltaLruEdf::new();
    let meta =
        TraceMeta { policy: policy.name().to_string(), delta: inst.delta, locations: n, speed: 1 };
    let mut trace = TraceRecorder::new();
    let mut sink = JsonlSink::with_meta(Vec::new(), &meta);
    let out = {
        let mut tee = (&mut trace, &mut sink);
        Simulator::new(inst, n).run_traced(&mut policy, &mut tee)
    };
    let bytes = sink.finish().expect("Vec<u8> sink cannot fail");
    (bytes, trace, out)
}

#[test]
fn jsonl_round_trip_matches_in_memory_trace_and_outcome() {
    let inst = instance();
    let (bytes, trace, out) = traced_run(&inst, 4);
    let text = String::from_utf8(bytes).expect("trace is utf-8");
    let parsed = parse_trace(&text).expect("self-produced trace parses");

    // The parsed stream is exactly the in-memory recorder's stream.
    assert_eq!(parsed.events, trace.events);
    let meta = parsed.meta.as_ref().expect("meta header present");
    assert_eq!(meta.policy, "dlru-edf");
    assert_eq!(meta.delta, inst.delta);
    assert_eq!(meta.locations, 4);

    // Acceptance: totals re-derived from the trace equal the outcome.
    assert_eq!(parsed.arrived(), out.arrived);
    assert_eq!(parsed.executed(), out.executed);
    assert_eq!(parsed.dropped(), out.dropped);
    assert_eq!(parsed.reconfigs(), out.cost.reconfigs);
    assert_eq!(parsed.total_cost(), Some(out.total_cost()));
    assert_eq!(parsed.rounds, out.rounds);

    // Per-color attribution from the parsed events sums back to the totals.
    let per = per_color_from_events(&inst, parsed.events.iter());
    assert_eq!(per.iter().map(|c| c.dropped).sum::<u64>(), out.dropped);
    assert_eq!(per.iter().map(|c| c.cost(inst.delta)).sum::<u64>(), out.total_cost());
}

#[test]
fn trace_bytes_are_identical_at_any_worker_count() {
    // A sweep of traced runs, serialized in input order: the bytes must be
    // identical whether the sweep ran serially or work-stealing, because
    // traces carry no timestamps and results scatter back by index.
    let inst = instance();
    let sweep = || -> Vec<u8> {
        let ns: Vec<usize> = vec![4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8];
        par_map_sweep(&ns, |&n| traced_run(&inst, n).0).concat()
    };
    set_jobs(1);
    let serial = sweep();
    assert!(!serial.is_empty());
    set_jobs(3);
    assert_eq!(serial, sweep(), "jobs=3 changed trace bytes");
    set_jobs(4);
    assert_eq!(serial, sweep(), "jobs=4 changed trace bytes");
    set_jobs(1);
}

#[test]
fn phase_timer_covers_every_round_without_touching_results() {
    let inst = instance();
    let mut with_timer = DeltaLruEdf::new();
    let mut timer = PhaseTimer::new();
    let timed = Simulator::new(&inst, 4).run_traced(&mut with_timer, &mut timer);
    let plain = Simulator::new(&inst, 4).run(&mut DeltaLruEdf::new());

    assert_eq!(timed, plain, "a timer must not perturb the simulation");
    assert_eq!(timer.rounds(), timed.rounds);
    assert_eq!(timer.per_mini().len(), 1, "speed-1 run has one mini slot");
    let sum: std::time::Duration = timer.totals().iter().map(|&(_, d)| d).sum();
    assert_eq!(sum, timer.total());
    let rendered = timer.render();
    assert!(rendered.contains("reconfig"), "{rendered}");
}
