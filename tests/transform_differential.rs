//! Differential tests between the online reduction wrappers and their
//! materialized offline forms — the quantitative content of Lemmas 4.2 and
//! 5.3 measured on real instances — and between the nested and the fused
//! Theorem 3 stacks.

use rrs::core::{distribute_instance, varbatch_instance};
use rrs::engine::{JsonlSink, TraceMeta};
use rrs::prelude::*;

/// The 24 inputs `rrs-cli generate <kind> --seed <seed>` writes for every
/// random generator at seeds 1, 3 and 7.
fn generated_inputs() -> Vec<(String, Instance)> {
    let mut inputs = Vec::new();
    for seed in [1, 3, 7] {
        for (kind, inst) in [
            ("rate-limited", rate_limited_instance(&RateLimitedConfig::default(), seed)),
            ("batched", batched_instance(&BatchedConfig::default(), seed)),
            ("general", general_instance(&GeneralConfig::default(), seed)),
            ("router", multiservice_router(&RouterConfig::default(), seed)),
            ("datacenter", shared_datacenter(&DatacenterConfig::default(), seed)),
            ("background", background_vs_short_term(&BackgroundConfig::default(), seed).0),
            ("bursty", bursty_instance(&BurstyConfig::default(), seed)),
            ("zipf", zipf_popularity(&ZipfConfig::default(), seed)),
        ] {
            inputs.push((format!("{kind} --seed {seed}"), inst));
        }
    }
    inputs
}

/// Run `policy` on 8 locations as `rrs-cli run --trace-out` does: the
/// outcome and the JSONL trace bytes.
fn traced_run<P: Policy>(inst: &Instance, policy: &mut P) -> (Outcome, Vec<u8>) {
    let meta =
        TraceMeta { policy: policy.name().to_string(), delta: inst.delta, locations: 8, speed: 1 };
    let mut sink = JsonlSink::with_meta(Vec::new(), &meta);
    let out = simulate(&Simulator::new(inst, 8), policy, &mut sink);
    (out, sink.finish().expect("a Vec sink cannot fail"))
}

#[test]
fn fused_full_stack_decides_exactly_as_the_nested_one() {
    // The nested stack simulates σ′ in VarBatch's own kernel and σ″ in
    // Distribute's; the fused one simulates σ″ alone. Nothing the engine
    // sees may differ, only the state the stack holds.
    for (name, inst) in generated_inputs() {
        let mut nested = VarBatch::new(Distribute::new(DeltaLruEdf::new()));
        let mut fused = full_algorithm();
        let (want, want_trace) = traced_run(&inst, &mut nested);
        let (got, got_trace) = traced_run(&inst, &mut fused);
        assert_eq!(got, want, "{name}: outcomes differ");
        assert!(got_trace == want_trace, "{name}: JSONL traces differ");
        if name == "zipf --seed 1" {
            let pages = |p: &dyn Policy| p.stats().footprint.colormap_live_pages;
            let (fused_pages, nested_pages) = (pages(&fused), pages(&nested));
            assert!(
                fused_pages < nested_pages,
                "{name}: the fused stack holds {fused_pages} pages, the nested one {nested_pages}"
            );
        }
    }
}

#[test]
fn reductions_release_only_on_batch_boundaries() {
    // What the bare batched-arrival policies inside the full stack rely
    // on: σ′ (HalfBlocks) is batched, and σ″ (then SubColors) is
    // rate-limited with power-of-two bounds and every job kept, on input of
    // every class, so ΔLRU-EDF never sees an off-boundary arrival there.
    let zipf = ZipfConfig { num_colors: 2_000, ..ZipfConfig::default() };
    for seed in 0..4 {
        for (kind, inst) in [
            ("rate-limited", rate_limited_instance(&RateLimitedConfig::default(), seed)),
            ("batched", batched_instance(&BatchedConfig::default(), seed)),
            ("general", general_instance(&GeneralConfig::default(), seed)),
            ("router", multiservice_router(&RouterConfig::default(), seed)),
            ("datacenter", shared_datacenter(&DatacenterConfig::default(), seed)),
            ("background", background_vs_short_term(&BackgroundConfig::default(), seed).0),
            ("bursty", bursty_instance(&BurstyConfig::default(), seed)),
            ("zipf", zipf_popularity(&zipf, seed)),
        ] {
            let name = format!("{kind} --seed {seed}");
            let (sigma1, _) = materialize(&inst, HalfBlocks::default());
            assert_eq!(classify::check_batched(&sigma1), Ok(()), "{name}: σ′");
            let (sigma2, _) = materialize(&inst, Then::<HalfBlocks, SubColors>::default());
            assert_eq!(classify::check_rate_limited(&sigma2), Ok(()), "{name}: σ″");
            assert_eq!(classify::check_power_of_two_bounds(&sigma2), Ok(()), "{name}: σ″");
            assert_eq!(sigma2.total_jobs(), inst.total_jobs(), "{name}: σ″ jobs");
        }
    }
}

#[test]
fn lemma_4_2_wrapper_never_costs_more_than_materialized_run() {
    // S (the projection) vs S' (the sub-color schedule): the projection
    // merges sub-color reconfigurations onto one physical color and may
    // execute extra pending jobs, so its cost is at most S''s.
    for seed in 0..15 {
        let cfg = BatchedConfig {
            delta: 3,
            bounds: vec![2, 4, 8],
            rounds: 48,
            activity: 0.8,
            overload: 3.0,
        };
        let inst = batched_instance(&cfg, seed);
        let (vinst, _) = distribute_instance(&inst);

        let wrapper =
            Simulator::new(&inst, 8).run(&mut Distribute::new(DeltaLruEdf::new())).total_cost();
        let materialized = Simulator::new(&vinst, 8).run(&mut DeltaLruEdf::new()).total_cost();
        assert!(
            wrapper <= materialized,
            "seed {seed}: wrapper {wrapper} > materialized {materialized}"
        );
    }
}

#[test]
fn varbatch_wrapper_matches_materialized_reconfig_cost_exactly() {
    // The VarBatch projection is the identity on colors, so the wrapper's
    // physical reconfigurations are exactly the inner policy's virtual ones
    // — i.e. exactly what the inner policy pays on the materialized σ'.
    for seed in 0..15 {
        let cfg = GeneralConfig {
            delta: 3,
            bounds: vec![2, 4, 8, 16],
            rounds: 48,
            arrival_prob: 0.35,
            max_burst: 3,
        };
        let inst = general_instance(&cfg, seed);
        let vinst = varbatch_instance(&inst);

        let wrapper =
            Simulator::new(&inst, 8).run(&mut VarBatch::new(Distribute::new(DeltaLruEdf::new())));
        let materialized = Simulator::new(&vinst, 8).run(&mut Distribute::new(DeltaLruEdf::new()));
        assert_eq!(
            wrapper.cost.reconfigs, materialized.cost.reconfigs,
            "seed {seed}: reconfiguration counts must match exactly"
        );
        assert!(
            wrapper.dropped <= materialized.dropped,
            "seed {seed}: physical drops {} > virtual drops {}",
            wrapper.dropped,
            materialized.dropped
        );
    }
}

#[test]
fn varbatch_transform_is_idempotent_on_its_own_output_class() {
    // σ' is batched with bounds q; transforming it again halves the bounds
    // again — check it stays batched and conserves jobs (regression guard
    // for boundary arithmetic).
    let cfg = GeneralConfig::default();
    let inst = general_instance(&cfg, 7);
    let v1 = varbatch_instance(&inst);
    let v2 = varbatch_instance(&v1);
    assert!(classify::check_batched(&v1).is_ok());
    assert!(classify::check_batched(&v2).is_ok());
    assert_eq!(v1.total_jobs(), inst.total_jobs());
    assert_eq!(v2.total_jobs(), inst.total_jobs());
}

#[test]
fn lemma_5_3_punctual_opt_is_resource_competitive_with_opt() {
    // Lemma 5.3: for any schedule S (m resources, cost C) there is a
    // *punctual* schedule with O(m) resources and O(C) cost. Punctual
    // schedules for σ correspond exactly to schedules for the materialized
    // σ', so we check OPT(σ', 7m) against OPT(σ, m) on small instances.
    let mut worst = 0.0f64;
    for seed in 0..10 {
        let cfg = GeneralConfig {
            delta: 2,
            bounds: vec![4, 8],
            rounds: 12,
            arrival_prob: 0.4,
            max_burst: 2,
        };
        let inst = general_instance(&cfg, seed);
        let vinst = varbatch_instance(&inst);
        let opt = solve_opt(&inst, 1, OptConfig::default()).expect("small").cost;
        let popt = solve_opt(&vinst, 7, OptConfig::default()).expect("small").cost;
        let r = ratio(popt, opt);
        if r.is_finite() {
            worst = worst.max(r);
        } else {
            assert_eq!(opt, 0);
            // A free original schedule means no color reached Δ jobs per
            // window; the punctual OPT can still pay at most the drops.
            assert!(popt <= inst.total_jobs());
        }
    }
    // The paper's constant is generous; empirically the gap is small.
    assert!(worst < 8.0, "punctual OPT ratio too large: {worst}");
}

#[test]
fn lemma_4_1_distributed_opt_is_resource_competitive_with_opt() {
    // Lemma 4.1: an offline schedule T for I implies a schedule T' for I'
    // with 3x the resources and O(cost(T)). Measured: OPT(I', 3m) stays
    // within a small constant of OPT(I, m) on small oversize-batch
    // instances.
    let mut worst = 0.0f64;
    for seed in 0..8 {
        let cfg = BatchedConfig {
            delta: 2,
            bounds: vec![2, 4],
            rounds: 12,
            activity: 0.7,
            overload: 2.5,
        };
        let inst = batched_instance(&cfg, seed);
        let (vinst, _) = distribute_instance(&inst);
        let opt = solve_opt(&inst, 1, OptConfig::default()).expect("small").cost;
        let dopt = solve_opt(&vinst, 3, OptConfig::default()).expect("small").cost;
        let r = ratio(dopt, opt);
        if r.is_finite() {
            worst = worst.max(r);
        } else {
            assert_eq!(opt, 0);
        }
    }
    assert!(worst < 6.0, "distributed OPT ratio too large: {worst}");
}

#[test]
fn distribute_transform_feeds_the_exact_opt_referee() {
    // End-to-end Theorem 2 check on a small oversize-batch instance: the
    // wrapper on I stays within a constant of OPT on I itself.
    let mut b = InstanceBuilder::new(2);
    let c = b.color(2);
    let d = b.color(4);
    b.arrive(0, c, 6).arrive(0, d, 4).arrive(4, d, 5).arrive(8, c, 3);
    let inst = b.build();
    let opt = solve_opt(&inst, 1, OptConfig::default()).unwrap().cost;
    let online =
        Simulator::new(&inst, 8).run(&mut Distribute::new(DeltaLruEdf::new())).total_cost();
    assert!(online as f64 <= 8.0 * opt as f64, "online {online} vs OPT {opt}");
}
