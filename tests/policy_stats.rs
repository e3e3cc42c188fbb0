//! `Policy::stats` through the CLI's one policy box: every `PolicyKind`'s
//! `make()` box must report exactly what its concrete policy reports, so a
//! wrapper or forwarding impl that drops the call reads as zeros here.

use rrs::prelude::*;

/// Run the concrete policy behind `kind` on `inst`: its stats, and the
/// inherent lemma counters of the three policies that keep a ColorBook.
fn concrete(kind: PolicyKind, inst: &Instance, n: usize) -> (PolicyStats, Option<AlgoMetrics>) {
    fn run<P: Policy>(mut policy: P, inst: &Instance, n: usize) -> P {
        Simulator::new(inst, n).run(&mut policy);
        policy
    }
    match kind {
        PolicyKind::DeltaLru => {
            let p = run(DeltaLru::new(), inst, n);
            (p.stats(), Some(p.metrics()))
        }
        PolicyKind::Edf => {
            let p = run(Edf::new(), inst, n);
            (p.stats(), Some(p.metrics()))
        }
        PolicyKind::DeltaLruEdf => {
            let p = run(DeltaLruEdf::new(), inst, n);
            (p.stats(), Some(p.metrics()))
        }
        PolicyKind::ClassicLru => (run(ClassicLru::new(), inst, n).stats(), None),
        PolicyKind::Distribute => (run(Distribute::new(DeltaLruEdf::new()), inst, n).stats(), None),
        PolicyKind::Full => (run(full_algorithm(), inst, n).stats(), None),
    }
}

#[test]
fn every_policy_box_reports_its_concrete_policys_stats() {
    let inst = rate_limited_instance(&RateLimitedConfig::default(), 7);
    assert!(inst.colors.len() > 1, "a multi-color instance");
    for kind in PolicyKind::ALL {
        let name = kind.name();
        let mut boxed = kind.make();
        Simulator::new(&inst, 8).run(&mut boxed);
        let stats = boxed.stats();
        let (want, inherent) = concrete(kind, &inst, 8);
        assert_eq!(stats, want, "{name}: the box must forward stats()");
        assert_ne!(stats.footprint.colorset_leaf_words, 0, "{name}");
        assert_ne!(stats.footprint.colormap_live_pages, 0, "{name}");
        match inherent {
            Some(metrics) => {
                assert_eq!(stats.metrics, metrics, "{name}");
                assert_ne!(metrics.num_epochs(), 0, "{name}");
            }
            None => assert_eq!(stats.metrics, AlgoMetrics::default(), "{name}"),
        }
    }
}
