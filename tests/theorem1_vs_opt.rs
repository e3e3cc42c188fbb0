//! Integration: Theorem 1 measured. ΔLRU-EDF with `n = 8m` locations stays
//! within a small constant factor of the exact offline optimum with `m`
//! resources on rate-limited power-of-two instances — and the optimum never
//! exceeds any online policy's cost at equal resources.

use rrs::prelude::*;

fn small_cfg(delta: u64) -> RateLimitedConfig {
    RateLimitedConfig { delta, bounds: vec![2, 4], rounds: 16, activity: 0.8, load: 0.9 }
}

#[test]
fn dlru_edf_within_constant_of_opt_across_seeds() {
    let mut worst = 1.0f64;
    for seed in 0..30 {
        let inst = rate_limited_instance(&small_cfg(3), seed);
        let opt = solve_opt(&inst, 1, OptConfig::default()).expect("small instance").cost;
        let online = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new()).total_cost();
        let r = ratio(online, opt);
        if r.is_finite() {
            worst = worst.max(r);
        } else {
            assert_eq!(opt, 0);
            assert_eq!(online, 0, "seed {seed}: OPT free but online paid {online}");
        }
    }
    // Theorem 1 promises O(1); empirically the constant is small.
    assert!(worst < 8.0, "worst empirical ratio {worst}");
}

#[test]
fn dlru_edf_ratio_bound_survives_checkpoint_stitching() {
    // Theorem 1's guarantee is about the algorithm's trajectory, which the
    // snapshot engine must reproduce exactly: running via checkpoint-at-k +
    // resume must yield the same cost as the uninterrupted run, so every
    // competitive-ratio assertion above transfers to stitched runs verbatim.
    let mut worst = 1.0f64;
    for seed in 0..12 {
        let inst = rate_limited_instance(&small_cfg(3), seed);
        let opt = solve_opt(&inst, 1, OptConfig::default()).expect("small instance").cost;
        let whole = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new());

        let k = (inst.horizon() / 2).max(1);
        let sim = Simulator::new(&inst, 8);
        let snap = sim.session().stop_before(k).run(&mut DeltaLruEdf::new(), &mut NullRecorder);
        let snap = snap.expect("checkpoint").into_snapshot();
        let stitched = sim
            .session()
            .resume(&snap)
            .run(&mut DeltaLruEdf::new(), &mut NullRecorder)
            .expect("seed-generated snapshot must resume")
            .into_outcome();
        assert_eq!(stitched, whole, "seed {seed}: stitched run diverged at k={k}");

        let r = ratio(stitched.total_cost(), opt);
        if r.is_finite() {
            worst = worst.max(r);
        } else {
            assert_eq!(opt, 0);
            assert_eq!(stitched.total_cost(), 0, "seed {seed}: OPT free but stitched run paid");
        }
    }
    assert!(worst < 8.0, "worst stitched empirical ratio {worst}");
}

#[test]
fn opt_never_exceeds_checkpoint_stitched_runs() {
    // The OPT-dominance direction for stitched runs: cost of a resumed run
    // is still an online cost, so OPT at equal resources never exceeds it.
    for seed in 0..8 {
        let inst = rate_limited_instance(&small_cfg(2), seed);
        let opt4 = solve_opt(&inst, 4, OptConfig::default()).expect("small instance").cost;
        for k in [1, inst.horizon() / 3 + 1, inst.horizon()] {
            let sim = Simulator::new(&inst, 4);
            let snap = sim.session().stop_before(k).run(&mut DeltaLruEdf::new(), &mut NullRecorder);
            let snap = snap.expect("checkpoint").into_snapshot();
            let out = sim.session().resume(&snap).run(&mut DeltaLruEdf::new(), &mut NullRecorder);
            let out = out.expect("resume").into_outcome();
            assert!(
                opt4 <= out.total_cost(),
                "seed {seed} k {k}: OPT(4)={opt4} > stitched online {}",
                out.total_cost()
            );
        }
    }
}

#[test]
fn opt_never_exceeds_any_online_policy_at_equal_resources() {
    for seed in 0..12 {
        let inst = rate_limited_instance(&small_cfg(2), seed);
        let opt = solve_opt(&inst, 2, OptConfig::default()).expect("small instance").cost;
        let dlru_edf = Simulator::new(&inst, 4).run(&mut DeltaLruEdf::new()).total_cost();
        // ΔLRU-EDF with n = 4 uses at most 2 distinct colors at a time but
        // has 4 locations; compare OPT at the full 4 locations instead to
        // be strictly fair.
        let opt4 = solve_opt(&inst, 4, OptConfig::default()).expect("small instance").cost;
        assert!(opt4 <= opt, "OPT monotone in resources");
        assert!(opt4 <= dlru_edf, "seed {seed}: OPT(4)={opt4} > online(4)={dlru_edf}");

        let edf = Simulator::new(&inst, 4).run(&mut Edf::new()).total_cost();
        let dlru = Simulator::new(&inst, 4).run(&mut DeltaLru::new()).total_cost();
        assert!(opt4 <= edf, "seed {seed}");
        assert!(opt4 <= dlru, "seed {seed}");
    }
}

#[test]
fn lower_bounds_never_exceed_opt() {
    for seed in 0..12 {
        let inst = rate_limited_instance(&small_cfg(3), seed);
        for m in 1..=2 {
            let opt = solve_opt(&inst, m, OptConfig::default()).expect("small instance").cost;
            let lb = combined_lower_bound(&inst, m);
            assert!(lb <= opt, "seed {seed} m {m}: LB {lb} > OPT {opt}");
        }
    }
}

#[test]
fn opt_schedule_replay_matches_cost_across_seeds() {
    // The plain DP oracle reconstructs its schedule; replaying it through
    // the engine must cost exactly the optimum, which the memo must match.
    for seed in 0..8 {
        let inst = rate_limited_instance(&small_cfg(3), seed);
        let (opt, sched) = solve_plain_dp(&inst, 1, OptConfig::default()).expect("small instance");
        let out = Simulator::new(&inst, 1).run(&mut ReplayPolicy::new(sched));
        assert_eq!(out.total_cost(), opt.cost, "seed {seed}");
        let memo = solve_opt(&inst, 1, OptConfig::default()).expect("small instance");
        assert_eq!(memo.cost, opt.cost, "seed {seed}");
    }
}

#[test]
fn augmentation_never_hurts_dlru_edf() {
    for seed in 0..8 {
        let inst = rate_limited_instance(&small_cfg(3), seed);
        let c8 = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new()).total_cost();
        let c16 = Simulator::new(&inst, 16).run(&mut DeltaLruEdf::new()).total_cost();
        // Not a theorem (online algorithms are not always monotone), but on
        // these tiny instances doubling capacity should never backfire
        // badly; allow a small slack.
        assert!(c16 <= c8 + inst.delta, "seed {seed}: n=8 cost {c8}, n=16 cost {c16}");
    }
}
