//! Integration: the appendix lower-bound constructions at full strength,
//! plus the *discovered* adversaries. The first half runs the paper's two
//! negative results and the positive one end to end: the pure strategies'
//! ratios grow without bound in the swept parameter while ΔLRU-EDF holds a
//! constant. The second half replays the committed regression corpus
//! (genomes found by `rrs-cli adversary-search`, minimized by the
//! shrinker) at their exact recorded costs, and re-runs a small fixed-seed
//! search to prove it still rediscovers an instance family at least as
//! strong as the Appendix A construction for the matching pure policy.

use rrs::prelude::*;

fn off_cost(adv: &Adversary) -> u64 {
    Simulator::new(&adv.instance, adv.off_resources)
        .run(&mut ReplayPolicy::new(adv.off_schedule.clone()))
        .total_cost()
}

#[test]
fn appendix_a_dlru_ratio_grows_linearly_in_2_pow_j() {
    let n = 8;
    let delta = 2;
    let mut ratios = Vec::new();
    for j in 4..=9 {
        let adv = lru_killer(LruKillerParams { n, delta, j, k: j + 2 });
        let dlru = Simulator::new(&adv.instance, n).run(&mut DeltaLru::new()).total_cost();
        let off = off_cost(&adv);
        assert_eq!(off, adv.predicted_off_cost, "j={j}");
        ratios.push(ratio(dlru, off));
    }
    // Each step of j doubles 2^{j+1}/(nΔ); the measured ratio should at
    // least *increase substantially* every step and double overall scale.
    for w in ratios.windows(2) {
        assert!(w[1] > w[0] * 1.5, "ratio failed to grow: {ratios:?}");
    }
    assert!(ratios.last().unwrap() / ratios.first().unwrap() > 8.0, "{ratios:?}");
}

#[test]
fn appendix_a_dlru_edf_ratio_constant() {
    let n = 8;
    let delta = 2;
    let mut ratios = Vec::new();
    for j in 4..=9 {
        let adv = lru_killer(LruKillerParams { n, delta, j, k: j + 2 });
        let cost = Simulator::new(&adv.instance, n).run(&mut DeltaLruEdf::new()).total_cost();
        ratios.push(ratio(cost, off_cost(&adv)));
    }
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(max < 6.0, "\u{394}LRU-EDF must stay bounded on Appendix A: {ratios:?}");
}

#[test]
fn appendix_a_dlru_drops_the_long_backlog() {
    // The qualitative failure mode: ΔLRU caches only the fresh short colors
    // and drops every long job.
    let adv = lru_killer(LruKillerParams { n: 8, delta: 2, j: 5, k: 7 });
    let long = adv.long_colors[0];
    let mut rec = TraceRecorder::new();
    Simulator::new(&adv.instance, 8).run_traced(&mut DeltaLru::new(), &mut rec);
    let long_exec: u64 = rec
        .events
        .iter()
        .filter_map(|e| match e {
            rrs::engine::TraceEvent::Execute { color, count, .. } if *color == long => Some(*count),
            _ => None,
        })
        .sum();
    assert_eq!(long_exec, 0, "\u{394}LRU must starve the long color");
}

#[test]
fn appendix_b_edf_ratio_grows_with_k() {
    let n = 8;
    let delta = 10;
    let j = 4;
    let mut ratios = Vec::new();
    for k in 6..=10 {
        let adv = edf_killer(EdfKillerParams { n, delta, j, k });
        let edf = Simulator::new(&adv.instance, n).run(&mut Edf::new()).total_cost();
        let off = off_cost(&adv);
        assert_eq!(off, adv.predicted_off_cost, "k={k}");
        ratios.push(ratio(edf, off));
    }
    for w in ratios.windows(2) {
        assert!(w[1] > w[0] * 1.2, "EDF ratio failed to grow: {ratios:?}");
    }
    assert!(ratios.last().unwrap() / ratios.first().unwrap() > 3.0, "{ratios:?}");
}

#[test]
fn appendix_b_dlru_edf_ratio_constant() {
    let n = 8;
    let delta = 10;
    let j = 4;
    let mut ratios = Vec::new();
    for k in 6..=10 {
        let adv = edf_killer(EdfKillerParams { n, delta, j, k });
        let cost = Simulator::new(&adv.instance, n).run(&mut DeltaLruEdf::new()).total_cost();
        ratios.push(ratio(cost, off_cost(&adv)));
    }
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(max < 6.0, "\u{394}LRU-EDF must stay bounded on Appendix B: {ratios:?}");
}

#[test]
fn appendix_b_edf_pays_in_reconfigurations_not_drops() {
    // The qualitative failure mode: EDF's cost on the killer is
    // reconfiguration-dominated (thrashing), not drop-dominated.
    let adv = edf_killer(EdfKillerParams { n: 8, delta: 10, j: 4, k: 8 });
    let out = Simulator::new(&adv.instance, 8).run(&mut Edf::new());
    assert!(
        out.cost.reconfig_cost() > out.cost.drop_cost(),
        "reconfig {} vs drop {}",
        out.cost.reconfig_cost(),
        out.cost.drop_cost()
    );
}

// ---------------------------------------------------------------------
// The discovered-adversary corpus (ROADMAP item 4a).

/// Load every committed fixture, sorted by file name for determinism.
fn corpus() -> Vec<(String, CorpusEntry)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/adversaries");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("fixture directory exists")
        .map(|e| e.expect("readable dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".adv"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "regression corpus must not be empty");
    names
        .into_iter()
        .map(|n| {
            let text = std::fs::read_to_string(format!("{dir}/{n}")).expect("readable fixture");
            let entry = parse_corpus_entry(&text).unwrap_or_else(|e| panic!("{n}: {e}"));
            (n, entry)
        })
        .collect()
}

#[test]
fn committed_corpus_replays_at_recorded_ratios() {
    for (name, entry) in corpus() {
        let replayed = entry.replay();
        assert_eq!(replayed.fitness.cost, entry.cost, "{name}: online cost drifted");
        assert_eq!(replayed.fitness.base, entry.base, "{name}: referee baseline drifted");
        assert_eq!(replayed.referee, entry.referee, "{name}: referee kind drifted");
    }
}

#[test]
fn memoized_referee_reprices_the_corpus_byte_for_byte() {
    // The memoized Pareto-pruned solver (DESIGN.md §16) must reproduce
    // every pinned referee baseline exactly — same cost under the exact
    // `CORPUS_OPT` budget the fixtures were recorded with — and a warm
    // cache must answer the same question from its index alone.
    let mut cache = OptCache::new();
    for (name, entry) in corpus() {
        let inst = entry.genome.decode();
        let m = entry.referee_resources;
        let (cold, hit) = cache
            .solve(&inst, m, CORPUS_OPT)
            .unwrap_or_else(|e| panic!("{name}: memoized referee refused the pinned corpus: {e}"));
        assert_eq!(cold.cost, entry.base, "{name}: memoized OPT drifted from the pinned base");
        assert!(!hit, "{name}: cold solve must not hit");
    }
    // Round-trip the cache through its wire format and re-price: every
    // answer must now come from the persisted index, byte-for-byte.
    let warm_cache_bytes = cache.encode();
    let mut warm = OptCache::parse(&warm_cache_bytes).expect("fresh cache bytes parse");
    for (name, entry) in corpus() {
        let inst = entry.genome.decode();
        let m = entry.referee_resources;
        let (warm_r, hit) = warm
            .solve(&inst, m, CORPUS_OPT)
            .unwrap_or_else(|e| panic!("{name}: warm re-solve failed: {e}"));
        assert_eq!(warm_r.cost, entry.base, "{name}: warm cache drifted from the pinned base");
        assert!(hit, "{name}: warm re-solve must be a pure index hit");
    }
    assert_eq!(warm.encode(), warm_cache_bytes, "re-pricing must not perturb the cache bytes");
}

#[test]
fn committed_corpus_genomes_decode_and_round_trip() {
    // decode∘encode identity plus well-formedness, on the committed corpus
    // (the proptest in rrs-workloads covers random genomes).
    for (name, entry) in corpus() {
        let encoded = entry.genome.encode();
        let reparsed = parse_genome(&encoded).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, entry.genome, "{name}: encode/parse identity");
        let inst = entry.genome.decode();
        assert!(inst.check_colors(), "{name}: colors out of range");
        assert!(classify::check_rate_limited(&inst).is_ok(), "{name}: not rate-limited");
        assert!(inst.total_jobs() > 0, "{name}: committed adversary must be non-empty");
        assert_eq!(inst, entry.genome.decode(), "{name}: decode must be deterministic");
    }
}

#[test]
fn committed_journals_parse_and_end_in_the_fixture_genome() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/adversaries");
    for (name, entry) in corpus() {
        let jpath = format!("{dir}/{}", name.replace(".adv", ".journal.jsonl"));
        let text = std::fs::read_to_string(&jpath).expect("journal beside each fixture");
        let lines = parse_journal(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Some(JournalLine::Result { genome, .. }) = lines.last() else {
            panic!("{name}: journal must end in a result line");
        };
        assert_eq!(
            genome,
            &entry.genome.encode(),
            "{name}: journal result and fixture genome diverged"
        );
    }
}

#[test]
fn search_rediscovers_a_dlru_adversary_at_least_as_strong_as_appendix_a() {
    // Measure Appendix A through the same referee the search uses, with
    // matching geometry (8 locations online, 1 referee resource) — an
    // apples-to-apples bar for the rediscovery acceptance criterion.
    let eval = EvalConfig::default();
    let adv = lru_killer(LruKillerParams { n: 8, delta: 2, j: 4, k: 6 });
    let appendix = evaluate_instance(&adv.instance, PolicyKind::DeltaLru, &eval);
    assert!(
        ratio(appendix.fitness.cost, appendix.fitness.base) > 1.0,
        "Appendix A must beat ΔLRU under the shared referee: {appendix:?}"
    );

    let cfg = SearchConfig {
        seed: 42,
        generations: 4,
        population: 16,
        elites: 4,
        policy: PolicyKind::DeltaLru,
        eval,
    };
    let report = run_search(&cfg, |_| {});
    assert!(
        report.best.eval.fitness.cmp_ratio(&appendix.fitness).is_ge(),
        "search best {:?} (ratio {:.3}) must reach Appendix A's {:?} (ratio {:.3})",
        report.best.eval.fitness,
        ratio(report.best.eval.fitness.cost, report.best.eval.fitness.base),
        appendix.fitness,
        ratio(appendix.fitness.cost, appendix.fitness.base),
    );
}

#[test]
fn lemmas_hold_on_both_adversaries() {
    let a = lru_killer(LruKillerParams { n: 8, delta: 2, j: 5, k: 7 });
    let r = check_lemmas(&a.instance, 8);
    assert!(r.all_hold(), "Appendix A: {r:?}");

    let b = edf_killer(EdfKillerParams { n: 8, delta: 10, j: 4, k: 7 });
    let r = check_lemmas(&b.instance, 8);
    assert!(r.all_hold(), "Appendix B: {r:?}");
}
