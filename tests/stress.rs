//! Scale tests: larger instances than the unit tests use, checking that
//! invariants survive volume. The `#[ignore]`d tests are soak-scale; run
//! them with `cargo test --release -- --ignored`.

use rrs::prelude::*;

fn big_rate_limited(seed: u64, colors: usize, rounds: u64) -> Instance {
    let bounds: Vec<u64> = (0..colors).map(|i| 1u64 << (1 + (i % 5))).collect();
    let cfg = RateLimitedConfig { delta: 16, bounds, rounds, activity: 0.75, load: 0.9 };
    rate_limited_instance(&cfg, seed)
}

#[test]
fn medium_scale_run_conserves_and_respects_lemmas() {
    let inst = big_rate_limited(1, 24, 2048);
    assert!(inst.total_jobs() > 10_000, "workload should be substantial");
    let r = check_lemmas(&inst, 16);
    assert!(r.all_hold(), "{r:?}");
    let out = Simulator::new(&inst, 16).run(&mut DeltaLruEdf::new());
    assert!(out.conserved());
}

#[test]
fn medium_scale_full_stack_on_general_traffic() {
    let cfg = GeneralConfig {
        delta: 8,
        bounds: vec![3, 5, 8, 13, 16, 21, 32],
        rounds: 1024,
        arrival_prob: 0.25,
        max_burst: 4,
    };
    let inst = general_instance(&cfg, 2);
    let out = Simulator::new(&inst, 16).run(&mut full_algorithm());
    assert!(out.conserved());
    // Sanity ceiling: never worse than dropping everything.
    assert!(out.dropped <= inst.total_jobs());
}

/// The drop phase's work guard: 10⁵ colors hold far-deadline jobs while
/// one color falls due per round. `drop_probes` counts the deadline-heap
/// entries `drop_due` pops, due or stale; it must stay within the entries
/// the falling-due colors pushed, where a walk over every live color would
/// inspect ~10⁸ queue fronts.
#[test]
fn drop_work_follows_due_entries_not_live_colors() {
    const LIVE: u32 = 100_000;
    const ROUNDS: u64 = 1_000;
    const BOUND: u64 = 8;
    let mut p = rrs::engine::PendingStore::new();
    for c in 0..LIVE {
        p.arrive(ColorId(c), 1 << 40, 1);
    }
    let mut out = Vec::new();
    let mut dropped = 0;
    for round in 0..ROUNDS {
        dropped += p.drop_due(round, &mut out);
        let c = ColorId(LIVE + (round % BOUND) as u32);
        p.arrive(c, round + BOUND, 1);
        if round % 2 == 0 {
            p.execute(c, 1); // leaves a stale heap entry
        }
    }
    // The odd rounds' jobs fall due BOUND rounds later; the even rounds'
    // heap entries are discarded as stale.
    assert_eq!(dropped, (ROUNDS - BOUND) / 2);
    assert_eq!(p.total(), u64::from(LIVE) + BOUND / 2);
    assert!(
        p.drop_probes() <= ROUNDS,
        "drop_due examined {} entries for {dropped} due jobs over {ROUNDS} rounds",
        p.drop_probes()
    );
}

/// The boundary phase's work guard: 10⁵ bound-2 colors sit below Δ while
/// one bound-1 color arrives, wraps, commits and retires every round.
/// `boundary_visits` counts the colors `begin_round` examines at block
/// boundaries; it must follow those changes, where a walk over every
/// touched color of each boundary's bound would visit ~10⁸.
#[test]
fn boundary_work_follows_changed_colors_not_touched_colors() {
    const IDLE: u32 = 100_000;
    const ROUNDS: u64 = 1_000;
    const DELTA: u64 = 2;
    let mut bounds = vec![2; IDLE as usize];
    bounds.push(1);
    let colors = ColorTable::from_bounds(&bounds);
    let busy = ColorId(IDLE);
    let pending = PendingStore::new();
    let observe = |round, arrivals| Observation {
        round,
        mini_round: 0,
        speed: 1,
        delta: DELTA,
        colors: &colors,
        arrivals,
        dropped: &[],
        pending: &pending,
        slots: &[],
    };
    let mut book = rrs::core::ColorBook::new(DELTA);
    let idle: Vec<(ColorId, u64)> = (0..IDLE).map(|c| (ColorId(c), 1)).collect();
    book.begin_round(&observe(0, &idle), |_| false);
    let batch = [(busy, DELTA)];
    for round in 1..=ROUNDS {
        book.begin_round(&observe(round, &batch), |_| false);
    }
    let m = book.metrics;
    assert_eq!(book.touched_len(), IDLE as usize + 1);
    assert_eq!((m.counter_wraps, m.timestamp_updates), (ROUNDS, ROUNDS - 1));
    assert_eq!(m.completed_epochs, ROUNDS - 1, "the busy color retires every round");
    assert_eq!(book.deadline(ColorId(0)), ROUNDS + 2, "idle colors still refresh");
    let changes = ROUNDS + m.counter_wraps + m.timestamp_updates + m.completed_epochs;
    assert!(
        book.boundary_visits() <= changes,
        "begin_round examined {} colors at boundaries for {changes} arrivals, wraps, \
         commits and retirements",
        book.boundary_visits()
    );
}

#[test]
fn medium_scale_adversaries() {
    // Larger appendix instances than the experiment defaults.
    let a = lru_killer(LruKillerParams { n: 16, delta: 4, j: 8, k: 11 });
    let off = Simulator::new(&a.instance, 1)
        .run(&mut ReplayPolicy::new(a.off_schedule.clone()))
        .total_cost();
    assert_eq!(off, a.predicted_off_cost);
    let dlru_edf = Simulator::new(&a.instance, 16).run(&mut DeltaLruEdf::new()).total_cost();
    assert!(ratio(dlru_edf, off) < 6.0);

    let b = edf_killer(EdfKillerParams { n: 16, delta: 20, j: 5, k: 9 });
    let off = Simulator::new(&b.instance, 1)
        .run(&mut ReplayPolicy::new(b.off_schedule.clone()))
        .total_cost();
    assert_eq!(off, b.predicted_off_cost);
    let dlru_edf = Simulator::new(&b.instance, 16).run(&mut DeltaLruEdf::new()).total_cost();
    assert!(ratio(dlru_edf, off) < 6.0);
}

#[test]
#[ignore = "soak-scale; run with --release -- --ignored"]
fn soak_hundred_colors_hundred_thousand_rounds() {
    let inst = big_rate_limited(7, 100, 100_000);
    let out = Simulator::new(&inst, 32).run(&mut DeltaLruEdf::new());
    assert!(out.conserved());
    let r = check_lemmas(&inst, 32);
    assert!(r.all_hold(), "{r:?}");
}

#[test]
#[ignore = "soak-scale; run with --release -- --ignored"]
fn soak_full_stack_long_general_trace() {
    let cfg = GeneralConfig {
        delta: 32,
        bounds: vec![2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
        rounds: 50_000,
        arrival_prob: 0.3,
        max_burst: 4,
    };
    let inst = general_instance(&cfg, 3);
    let out = Simulator::new(&inst, 24).run(&mut full_algorithm());
    assert!(out.conserved());
}
