//! White-box tests for the structural lemmas of §3.4, checked on real
//! ΔLRU-EDF executions via an invariant-watching policy wrapper.

use rrs_core::{DeltaLruEdf, Edf, Instrumented};
use rrs_engine::{Observation, Policy, Simulator, Slot};
use rrs_model::{ColorId, Instance, InstanceBuilder};

/// Wraps ΔLRU-EDF and asserts per-round invariants:
/// * every cached color is eligible (the §3.1 drop-phase rule keeps cached
///   colors eligible, and only eligible colors are ever brought in);
/// * the LRU set is always a subset of the cache;
/// * Lemma 3.14's conclusion: when a color's epoch ends, its committed
///   timestamp is at least the round of the first wrap in that epoch.
struct Watch {
    inner: DeltaLruEdf,
    eligible_before: Vec<ColorId>,
}

impl Watch {
    fn new() -> Self {
        Self { inner: DeltaLruEdf::new(), eligible_before: Vec::new() }
    }
}

impl Policy for Watch {
    fn name(&self) -> &str {
        "watch"
    }
    fn init(&mut self, delta: u64, n: usize) {
        self.inner.init(delta, n);
    }
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        self.inner.reconfigure(obs, out);
        let book = self.inner.book().expect("initialized");
        // Invariant 1: cached => eligible.
        for c in self.inner.cached_colors().iter() {
            assert!(book.is_eligible(c), "round {}: cached {c} is ineligible", obs.round);
        }
        // Invariant 2: LRU set ⊆ cache.
        for c in self.inner.lru_colors().iter() {
            assert!(
                self.inner.cached_colors().contains(c),
                "round {}: LRU color {c} not cached",
                obs.round
            );
        }
        // Invariant 3: the assignment replicates each cached color exactly
        // twice and contains nothing else.
        let mut counts = std::collections::BTreeMap::new();
        for s in out.iter().flatten() {
            *counts.entry(*s).or_insert(0u32) += 1;
        }
        for (&c, &k) in &counts {
            assert!(self.inner.cached_colors().contains(c), "stray color {c}");
            assert_eq!(k, 2, "color {c} cached at {k} locations");
        }
        self.eligible_before = book.eligible_colors().collect();
    }
}

fn busy_instance(seed_shift: u64) -> Instance {
    let mut b = InstanceBuilder::new(3);
    let colors: Vec<_> = (0..6).map(|i| b.color(1 << (1 + (i % 3)))).collect();
    for blk in 0..12u64 {
        for (i, &c) in colors.iter().enumerate() {
            let d = 1 << (1 + (i % 3));
            let r = blk * d;
            if !(r + i as u64 + seed_shift).is_multiple_of(3) {
                b.arrive(r, c, (i as u64 % d) + 1);
            }
        }
    }
    b.build()
}

#[test]
fn dlru_edf_invariants_hold_throughout() {
    for shift in 0..5 {
        let inst = busy_instance(shift);
        Simulator::new(&inst, 8).run(&mut Watch::new());
    }
}

#[test]
fn lemma_3_14_timestamp_advances_within_completed_epochs() {
    // One color forced through two complete epochs; at the end of each its
    // timestamp must have advanced to at least the epoch's wrap round.
    let mut b = InstanceBuilder::new(2);
    // Two hogs occupy both distinct slots (n=4 -> capacity 2): hog0 wins
    // the LRU slot by freshness (color order on ties), hog1 wins the EDF
    // slot by the consistent color order. c wraps (epoch starts) but is
    // never cached, so each of its epochs ends at the next boundary.
    let hog0 = b.color(2);
    let hog1 = b.color(2);
    let c = b.color(2);
    for blk in 0..8 {
        b.arrive(blk * 2, hog0, 2);
        b.arrive(blk * 2, hog1, 2);
    }
    b.arrive(4, c, 2); // wrap at 4, epoch ends at 6
    b.arrive(8, c, 2); // wrap at 8, epoch ends at 10
    let inst = b.build();

    let mut p = DeltaLruEdf::new();
    Simulator::new(&inst, 4).run(&mut p);
    let m = p.stats().metrics;
    assert!(m.completed_epochs >= 2, "need two completed epochs for c, got {m:?}");
    // Each wrap of c committed exactly once: the timestamp updates count
    // them (hog contributes its own).
    assert!(m.timestamp_updates >= 2, "{m:?}");
    let book = p.book().unwrap();
    assert_eq!(book.state(c).ts, Some(8), "c's final committed wrap");
}

#[test]
fn lemma_3_15_super_epoch_ends_after_enough_timestamp_updates() {
    // n = 8 -> the super-epoch threshold is n/4 = 2 distinct updaters.
    // Two colors that wrap every block produce a steady stream of
    // super-epochs; a run long enough must close several.
    let mut b = InstanceBuilder::new(1);
    let c0 = b.color(2);
    let c1 = b.color(2);
    for blk in 0..16 {
        b.arrive(blk * 2, c0, 1);
        b.arrive(blk * 2, c1, 1);
    }
    let inst = b.build();
    let mut p = DeltaLruEdf::new();
    Simulator::new(&inst, 8).run(&mut p);
    let m = p.stats().metrics;
    assert!(m.super_epochs >= 5, "super-epochs should close repeatedly: {m:?}");
    assert!(
        m.timestamp_updates >= 2 * m.super_epochs,
        "each super-epoch needs >= 2 updates: {m:?}"
    );
}

#[test]
fn corollary_3_2_few_epochs_per_color_under_steady_load() {
    // A steadily busy color that stays cached completes no epochs at all;
    // its single epoch spans the run.
    let mut b = InstanceBuilder::new(2);
    let c = b.color(4);
    for blk in 0..16 {
        b.arrive(blk * 4, c, 4);
    }
    let inst = b.build();
    let mut p = DeltaLruEdf::new();
    Simulator::new(&inst, 8).run(&mut p);
    assert_eq!(p.stats().metrics.completed_epochs, 0);
    assert_eq!(p.stats().metrics.num_epochs(), 1);
}

#[test]
fn edf_and_dlru_edf_agree_when_recency_is_irrelevant() {
    // With a single always-busy color there is nothing for the LRU quarter
    // to disagree about: both algorithms configure it once.
    let mut b = InstanceBuilder::new(2);
    let c = b.color(4);
    for blk in 0..8 {
        b.arrive(blk * 4, c, 4);
    }
    let inst = b.build();
    let edf = Simulator::new(&inst, 8).run(&mut Edf::new());
    let both = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new());
    assert_eq!(edf.total_cost(), both.total_cost());
    assert_eq!(edf.dropped, 0);
}
