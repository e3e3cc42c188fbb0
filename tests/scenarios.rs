//! Integration: the three §1 motivating scenarios (background vs
//! short-term service, multiservice router, shared datacenter) — the only
//! generator module that previously had no dedicated tests. Covers
//! determinism given a seed, arrival conservation through the simulator,
//! and (under `--features validate`) a clean shadow-model-watched run for
//! each scenario.

use rrs::prelude::*;

/// Every scenario instance, by name, at two seeds each.
fn scenario_instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for seed in [0u64, 7] {
        out.push((
            format!("background/{seed}"),
            background_vs_short_term(&BackgroundConfig::default(), seed).0,
        ));
        out.push((format!("router/{seed}"), multiservice_router(&RouterConfig::default(), seed)));
        out.push((
            format!("datacenter/{seed}"),
            shared_datacenter(&DatacenterConfig::default(), seed),
        ));
    }
    out
}

#[test]
fn scenarios_are_deterministic_given_seed() {
    for seed in [0u64, 1, 42] {
        let (a1, bg1, shorts1) = background_vs_short_term(&BackgroundConfig::default(), seed);
        let (a2, bg2, shorts2) = background_vs_short_term(&BackgroundConfig::default(), seed);
        assert_eq!(a1, a2, "background seed {seed}");
        assert_eq!(bg1, bg2);
        assert_eq!(shorts1, shorts2);

        let r1 = multiservice_router(&RouterConfig::default(), seed);
        let r2 = multiservice_router(&RouterConfig::default(), seed);
        assert_eq!(r1, r2, "router seed {seed}");

        let d1 = shared_datacenter(&DatacenterConfig::default(), seed);
        let d2 = shared_datacenter(&DatacenterConfig::default(), seed);
        assert_eq!(d1, d2, "datacenter seed {seed}");
    }
    // Different seeds must actually vary the traffic.
    assert_ne!(
        multiservice_router(&RouterConfig::default(), 0),
        multiservice_router(&RouterConfig::default(), 1),
    );
}

#[test]
fn scenarios_are_well_formed() {
    for (name, inst) in scenario_instances() {
        assert!(inst.check_colors(), "{name}: color ids out of range");
        assert!(inst.delta >= 1, "{name}: delta must be positive");
        assert!(inst.total_jobs() > 0, "{name}: scenario must carry traffic");
        for (_round, req) in inst.requests.iter() {
            for &(color, count) in req.pairs() {
                assert!(count > 0, "{name}: empty batch for color {color:?}");
            }
        }
    }
}

#[test]
fn scenarios_conserve_arrivals_through_the_simulator() {
    for (name, inst) in scenario_instances() {
        let total = inst.total_jobs();
        for locations in [4usize, 8] {
            let out = Simulator::new(&inst, locations).run(&mut DeltaLruEdf::new());
            assert_eq!(out.arrived, total, "{name}/{locations}: arrivals must match instance");
            assert!(
                out.conserved(),
                "{name}/{locations}: executed {} + dropped {} != arrived {}",
                out.executed,
                out.dropped,
                out.arrived
            );
        }
    }
}

/// Run each scenario through `simulate`, whose supervisor under
/// `--features validate` is the shadow-model invariant watcher: any
/// bookkeeping violation panics. Without the feature this still exercises
/// the plain runs.
#[test]
fn scenarios_run_cleanly_under_the_invariant_watcher() {
    for (name, inst) in scenario_instances() {
        let out = simulate(&Simulator::new(&inst, 8), &mut DeltaLruEdf::new(), &mut NullRecorder);
        assert!(out.conserved(), "{name}");
    }
}
