//! Integration: the Distribute (§4) and VarBatch (§5) reductions, separately
//! and composed, on every input class.

use rrs::prelude::*;

#[test]
fn distribute_is_identity_on_rate_limited_input_with_round0_colors() {
    // When every batch already fits the rate limit and all colors first
    // appear in id order at round 0, the sub-color mapping is a bijection
    // that preserves the consistent order, so Distribute ∘ P behaves
    // exactly like P.
    for seed in 0..10 {
        let cfg = RateLimitedConfig {
            delta: 2,
            bounds: vec![4, 4, 4],
            rounds: 32,
            activity: 1.0, // every block active: all colors appear at round 0
            load: 1.0,
        };
        let inst = rate_limited_instance(&cfg, seed);
        let direct = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new());
        let wrapped = Simulator::new(&inst, 8).run(&mut Distribute::new(DeltaLruEdf::new()));
        assert_eq!(direct.total_cost(), wrapped.total_cost(), "seed {seed}");
        assert_eq!(direct.executed, wrapped.executed, "seed {seed}");
    }
}

#[test]
fn distribute_handles_oversize_batches_end_to_end() {
    for seed in 0..10 {
        let cfg = BatchedConfig {
            delta: 3,
            bounds: vec![2, 4, 8],
            rounds: 48,
            activity: 0.8,
            overload: 4.0,
        };
        let inst = batched_instance(&cfg, seed);
        let out = Simulator::new(&inst, 8).run(&mut Distribute::new(DeltaLruEdf::new()));
        assert!(out.conserved(), "seed {seed}");
        // Sanity: cost never exceeds dropping everything.
        assert!(out.total_cost() <= inst.total_jobs() + out.cost.reconfig_cost());
    }
}

#[test]
fn full_stack_runs_every_input_class() {
    let configs: Vec<Instance> = vec![
        rate_limited_instance(&RateLimitedConfig::default(), 1),
        batched_instance(&BatchedConfig::default(), 2),
        general_instance(&GeneralConfig::default(), 3),
        general_instance(&GeneralConfig { bounds: vec![3, 5, 7, 12], ..Default::default() }, 4),
    ];
    for (i, inst) in configs.iter().enumerate() {
        let out = Simulator::new(inst, 8).run(&mut full_algorithm());
        assert!(out.conserved(), "config {i}");
    }
}

#[test]
fn varbatch_executions_respect_physical_deadlines() {
    // Every execution the engine performs is of a pending (undropped) job,
    // so deadline safety is structural; what we check here is the paper's
    // *punctuality*: with the full stack, a job of bound p arriving in
    // half-block i executes in half-block i+1 (never before its release).
    let mut b = InstanceBuilder::new(1);
    let c = b.color(16); // half-block = 8
    b.arrive(3, c, 4); // half-block 0 -> released at round 8
    b.arrive(11, c, 2); // half-block 1 -> released at round 16
    let inst = b.build();
    let mut rec = TraceRecorder::new();
    Simulator::new(&inst, 4).run_traced(&mut full_algorithm(), &mut rec);
    let mut executed_before_8 = 0u64;
    let mut executed_8_to_16 = 0u64;
    for e in &rec.events {
        if let rrs::engine::TraceEvent::Execute { round, count, .. } = e {
            if *round < 8 {
                executed_before_8 += count;
            } else if *round < 16 {
                executed_8_to_16 += count;
            }
        }
    }
    assert_eq!(executed_before_8, 0, "nothing may run before the first release");
    // The virtual schedule runs the first batch punctually in half-block 1;
    // the physical projection may additionally run later-arrived pending
    // jobs early (a pure bonus), so we check at-least.
    assert!(executed_8_to_16 >= 4, "first batch must run in half-block 1, got {executed_8_to_16}");
}

#[test]
fn full_stack_cost_reasonable_vs_lower_bound_on_general_input() {
    let mut total_ratio = 0.0;
    let runs = 10;
    for seed in 0..runs {
        let cfg = GeneralConfig {
            delta: 4,
            bounds: vec![4, 8, 16],
            rounds: 64,
            arrival_prob: 0.3,
            max_burst: 2,
        };
        let inst = general_instance(&cfg, seed);
        let out = Simulator::new(&inst, 8).run(&mut full_algorithm());
        let lb = combined_lower_bound(&inst, 1);
        let r = ratio(out.total_cost(), lb);
        assert!(r.is_finite(), "seed {seed}: LB zero but cost positive?");
        total_ratio += r;
    }
    let mean = total_ratio / runs as f64;
    assert!(mean < 25.0, "mean ratio vs LB too large: {mean}");
}

#[test]
fn distribute_sub_color_chunks_match_spec() {
    // Batch of 10 jobs, bound 4: chunks 4, 4, 2 across sub-colors 0, 1, 2.
    let mut b = InstanceBuilder::new(1);
    let c = b.color(4);
    b.arrive(0, c, 10);
    let inst = b.build();
    let mut p = Distribute::new(Edf::new());
    Simulator::new(&inst, 8).run(&mut p);
    assert_eq!(p.reduction().sub_colors(c).len(), 3);

    // A later smaller batch reuses sub-color 0 without minting more.
    let mut b = InstanceBuilder::new(1);
    let c = b.color(4);
    b.arrive(0, c, 10).arrive(4, c, 3);
    let inst = b.build();
    let mut p = Distribute::new(Edf::new());
    Simulator::new(&inst, 8).run(&mut p);
    assert_eq!(p.reduction().sub_colors(c).len(), 3, "no new sub-colors for the small batch");
}
