//! Integration: checkpoint/resume is invisible. A run suspended at any
//! round and resumed from its snapshot must re-emit the exact trace suffix
//! and finish with the exact `Outcome` of the uninterrupted run — for every
//! policy, both reductions, and the full stack, on adversarial, bursty and
//! random workloads. Under `--features validate` both halves are
//! additionally supervised by the shadow-model watcher, which the resumed
//! half seeds from the snapshot state.

use proptest::prelude::*;
use rrs::prelude::*;

type PolicyMaker = (&'static str, fn() -> Box<dyn Snapshot>);

/// Every checkpointable policy in the suite: the four base algorithms,
/// Distribute alone, both reductions fused over EDF, and the Theorem 3
/// full stack.
fn policy_makers() -> Vec<PolicyMaker> {
    vec![
        ("dlru", || Box::new(DeltaLru::new())),
        ("edf", || Box::new(Edf::new())),
        ("seq-edf", || Box::new(Edf::seq())),
        ("classic-lru", || Box::new(ClassicLru::new())),
        ("dlru-edf", || Box::new(DeltaLruEdf::new())),
        ("distribute", || Box::new(Distribute::new(DeltaLruEdf::new()))),
        ("var-batch", || Box::new(Reduced::<Then<HalfBlocks, SubColors>, _>::new(Edf::new()))),
        ("full", || Box::new(full_algorithm())),
    ]
}

fn full_run(
    inst: &Instance,
    n: usize,
    make: fn() -> Box<dyn Snapshot>,
) -> (Outcome, TraceRecorder) {
    let mut rec = TraceRecorder::new();
    let mut p = make();
    let out = Simulator::new(inst, n).run_traced(&mut p, &mut rec);
    (out, rec)
}

/// Checkpoint at the top of round `k`, resume from the snapshot, and
/// assert the stitched trace and outcome are identical to `full_run`'s.
/// Returns the snapshot for further abuse.
fn assert_resume_equivalent(
    inst: &Instance,
    n: usize,
    name: &str,
    make: fn() -> Box<dyn Snapshot>,
    k: u64,
) -> Vec<u8> {
    let (want_out, want_trace) = full_run(inst, n, make);
    let sim = Simulator::new(inst, n);

    let mut prefix = TraceRecorder::new();
    let mut p = make();
    let snapshot = sim
        .session()
        .stop_before(k)
        .run(&mut p, &mut (&mut prefix, supervisor(inst)))
        .expect("checkpoint")
        .into_snapshot();

    let mut suffix = TraceRecorder::new();
    let mut q = make();
    let out = sim
        .session()
        .resume(&snapshot)
        .run(&mut q, &mut (&mut suffix, supervisor(inst)))
        .expect("resume own snapshot")
        .into_outcome();

    assert_eq!(out, want_out, "{name}: outcome diverged after resume at round {k}");
    let stitched: Vec<TraceEvent> =
        prefix.events.iter().chain(suffix.events.iter()).cloned().collect();
    assert_eq!(
        stitched, want_trace.events,
        "{name}: stitched trace diverged after resume at round {k}"
    );
    snapshot
}

/// A small instance that exercises wraps, drops, evictions and both
/// reductions' buffering: mixed bounds, off-boundary arrivals.
fn mixed_instance() -> Instance {
    let mut b = InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(8);
    let c2 = b.color(5); // non power-of-two: VarBatch rounds down
    for blk in 0..6 {
        b.arrive(blk * 2, c0, 2);
    }
    b.arrive(0, c1, 8).arrive(8, c1, 4);
    b.arrive(1, c2, 3).arrive(7, c2, 2);
    b.build()
}

/// Batched instance with oversize batches (Distribute's home turf).
fn batched_only_instance() -> Instance {
    let mut b = InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(4);
    b.arrive(0, c0, 5).arrive(2, c0, 2).arrive(4, c0, 1);
    b.arrive(0, c1, 9).arrive(4, c1, 3).arrive(8, c1, 4);
    b.build()
}

/// Rate-limited instance (arrivals on block boundaries, at most `D_ℓ` jobs
/// per batch) — the problem class the base book policies run on directly.
fn rate_limited_instance_small() -> Instance {
    let mut b = InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(8);
    let c2 = b.color(4);
    for blk in 0..6 {
        b.arrive(blk * 2, c0, 1 + blk % 2);
    }
    b.arrive(0, c1, 8).arrive(8, c1, 4);
    b.arrive(0, c2, 3).arrive(8, c2, 4).arrive(16, c2, 2);
    b.build()
}

/// Instances a given policy can legally run: the base algorithms need
/// rate-limited input, Distribute alone needs batched input, and only the
/// VarBatch-wrapped stacks take the general instance.
fn instance_for(name: &str) -> Instance {
    match name {
        "var-batch" | "full" => mixed_instance(),
        "distribute" => batched_only_instance(),
        _ => rate_limited_instance_small(),
    }
}

#[test]
fn every_policy_resumes_identically_at_every_round() {
    for (name, make) in policy_makers() {
        let inst = instance_for(name);
        let horizon = inst.horizon();
        for k in 1..=horizon {
            assert_resume_equivalent(&inst, 8, name, make, k);
        }
    }
}

#[test]
fn resume_composes_with_speed() {
    let inst = mixed_instance();
    let (want, _) = {
        let mut p = full_algorithm();
        let mut rec = TraceRecorder::new();
        (Simulator::new(&inst, 8).with_speed(2).run_traced(&mut p, &mut rec), rec)
    };
    let sim = Simulator::new(&inst, 8).with_speed(2);
    let snap = sim.session().stop_before(5).run(&mut full_algorithm(), &mut NullRecorder);
    let snap = snap.unwrap().into_snapshot();
    let out = sim.session().resume(&snap).run(&mut full_algorithm(), &mut NullRecorder);
    assert_eq!(out.unwrap().into_outcome(), want);
}

#[test]
fn checkpoint_every_n_snapshots_all_resume_identically() {
    let inst = mixed_instance();
    let sim = Simulator::new(&inst, 8);
    let (want, _) = full_run(&inst, 8, || Box::new(full_algorithm()));
    let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut sink = |round: u64, bytes: &[u8]| snaps.push((round, bytes.to_vec()));
    let out = sim
        .session()
        .checkpoints(CheckpointPolicy::EveryN(3), &mut sink)
        .run(&mut full_algorithm(), &mut NullRecorder)
        .unwrap()
        .into_outcome();
    assert_eq!(out, want, "checkpoint emission must not perturb the run");
    assert!(!snaps.is_empty());
    for (round, snap) in snaps {
        assert!(round % 3 == 0 && round > 0);
        let resumed = sim
            .session()
            .resume(&snap)
            .run(&mut full_algorithm(), &mut NullRecorder)
            .unwrap_or_else(|e| panic!("resume r{round}: {e}"));
        assert_eq!(resumed.into_outcome(), want, "snapshot at round {round} resumed differently");
    }
}

#[test]
fn streamed_session_matches_materialized_run() {
    // The same instance through the incremental text reader, fresh and
    // resumed mid-stream, must match the materialized simulator exactly.
    let inst = mixed_instance();
    let text = rrs::model::to_text(&inst);
    let (want, want_trace) = full_run(&inst, 8, || Box::new(full_algorithm()));

    let stream = || Session::new(TextStream::new(text.as_bytes()).unwrap(), 8);
    let mut rec = TraceRecorder::new();
    let out = stream().run(&mut full_algorithm(), &mut (&mut rec, supervisor(&inst)));
    assert_eq!(out.unwrap().into_outcome(), want);
    assert_eq!(rec.events, want_trace.events);

    // Suspend the stream at round 6, resume a fresh stream from the
    // snapshot; stitched trace must again be identical.
    let mut prefix = TraceRecorder::new();
    let snap = stream()
        .stop_before(6)
        .run(&mut full_algorithm(), &mut (&mut prefix, supervisor(&inst)))
        .unwrap()
        .into_snapshot();
    let mut suffix = TraceRecorder::new();
    let out = stream()
        .resume(&snap)
        .run(&mut full_algorithm(), &mut (&mut suffix, supervisor(&inst)))
        .unwrap()
        .into_outcome();
    assert_eq!(out, want);
    let stitched: Vec<TraceEvent> =
        prefix.events.iter().chain(suffix.events.iter()).cloned().collect();
    assert_eq!(stitched, want_trace.events);
}

#[test]
fn adversarial_workloads_resume_identically() {
    // The killer instances stress exactly the state the snapshots must
    // capture: timestamp churn (ΔLRU) and idle/nonidle blinking (EDF).
    let lru = lru_killer(LruKillerParams { n: 8, delta: 2, j: 5, k: 7 }).instance;
    let edf = edf_killer(EdfKillerParams { n: 8, delta: 10, j: 4, k: 8 }).instance;
    for (inst, name, make) in [
        (&lru, "dlru", (|| Box::new(DeltaLru::new())) as fn() -> Box<dyn Snapshot>),
        (&edf, "edf", || Box::new(Edf::new())),
        (&lru, "full", || Box::new(full_algorithm())),
        (&edf, "full", || Box::new(full_algorithm())),
    ] {
        let horizon = inst.horizon();
        for k in [1, horizon / 3, horizon / 2, horizon] {
            if k >= 1 {
                assert_resume_equivalent(inst, 8, name, make, k);
            }
        }
    }
}

/// Random general workload strategy: arbitrary rounds and mixed bounds —
/// legal only for the VarBatch-wrapped stacks.
fn random_instance_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=4,
        prop::collection::vec(1u64..=10, 1..=4),
        prop::collection::vec((0u64..=18, 1u64..=5), 1..=30),
    )
        .prop_map(|(delta, bounds, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (round, jobs)) in picks.into_iter().enumerate() {
                b.arrive(round, colors[i % colors.len()], jobs);
            }
            b.build()
        })
}

/// Random rate-limited workload strategy (block-boundary arrivals, batch
/// size at most the bound) — legal for every base policy.
fn random_rate_limited_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=4,
        prop::collection::vec(0u32..=3, 1..=4),
        prop::collection::vec((0u64..=7, 0u64..=8), 1..=24),
    )
        .prop_map(|(delta, exps, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (block, jobs)) in picks.into_iter().enumerate() {
                let idx = i % colors.len();
                let count = jobs.min(bounds[idx]);
                if count > 0 {
                    b.arrive(block * bounds[idx], colors[idx], count);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_general_runs_resume_identically_at_arbitrary_rounds(
        inst in random_instance_strategy(),
        k_frac in 0u64..=100,
        wrap_full in 0u8..=1,
    ) {
        let make: fn() -> Box<dyn Snapshot> = if wrap_full == 1 {
            || Box::new(full_algorithm())
        } else {
            || Box::new(VarBatch::new(Distribute::new(DeltaLruEdf::new())))
        };
        let horizon = inst.horizon();
        let k = 1 + k_frac * horizon / 101; // arbitrary round in 1..=horizon
        assert_resume_equivalent(&inst, 8, "full", make, k);
    }

    #[test]
    fn random_rate_limited_runs_resume_identically(
        inst in random_rate_limited_strategy(),
        k_frac in 0u64..=100,
        policy_idx in 0usize..6,
    ) {
        let makers: Vec<PolicyMaker> = policy_makers()
            .into_iter()
            .filter(|&(n, _)| n != "distribute")
            .collect();
        let (name, make) = makers[policy_idx % makers.len()];
        let horizon = inst.horizon();
        let k = 1 + k_frac * horizon / 101;
        assert_resume_equivalent(&inst, 8, name, make, k);
    }

    #[test]
    fn bursty_generated_runs_resume_identically(seed in 0u64..32, k in 1u64..40) {
        let inst = bursty_instance(&BurstyConfig::default(), seed);
        let k = 1 + k % inst.horizon().max(1);
        assert_resume_equivalent(&inst, 8, "full", || Box::new(full_algorithm()), k);
    }
}
