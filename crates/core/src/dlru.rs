//! ΔLRU (§3.1.1): cache the eligible colors with the most recent
//! counter-wrap timestamps.
//!
//! ΔLRU captures only the *recency* aspect of the request sequence. It is
//! **not** resource competitive: Appendix A's adversary keeps many
//! short-bound colors' timestamps perpetually fresh, so ΔLRU pins them and
//! starves a long-bound color with a deep backlog — even though that backlog
//! could be cleared with a single reconfiguration. The experiment suite
//! regenerates this failure (experiment E1).

use rrs_engine::checkpoint::{get_color_set, put_color_set};
use rrs_engine::{
    stable_assign_into, AlgoMetrics, AssignScratch, Observation, Policy, PolicyStats, Slot,
    Snapshot,
};
use rrs_model::{ColorId, ColorSet, SnapError, SnapReader, SnapWriter};

use crate::book::ColorBook;
use crate::ranking::top_k_by_lru;

/// The ΔLRU policy. Uses the paper's cache discipline: the first half of
/// the locations hold distinct colors, the second half replicate them, so
/// `n` locations cache `n/2` distinct colors (each twice).
#[derive(Debug, Default)]
pub struct DeltaLru {
    book: Option<ColorBook>,
    cached: ColorSet,
    capacity: usize,
    scratch: Vec<ColorId>,
    desired: Vec<(ColorId, u64)>,
    assign: AssignScratch,
}

impl DeltaLru {
    /// A fresh ΔLRU policy (state is created at [`Policy::init`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The lemma counters accumulated so far (empty before `init`).
    pub fn metrics(&self) -> AlgoMetrics {
        self.book.as_ref().map(|b| b.metrics).unwrap_or_default()
    }

    /// The distinct colors currently cached.
    pub fn cached_colors(&self) -> &ColorSet {
        &self.cached
    }

    /// Shared bookkeeping, for white-box tests.
    pub fn book(&self) -> Option<&ColorBook> {
        self.book.as_ref()
    }
}

impl crate::Instrumented for DeltaLru {
    fn book(&self) -> Option<&ColorBook> {
        DeltaLru::book(self)
    }
}

impl Policy for DeltaLru {
    fn name(&self) -> &str {
        "dlru"
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        assert!(
            n_locations >= 2 && n_locations.is_multiple_of(2),
            "\u{394}LRU needs an even number of locations (each cached color \
             occupies two); got {n_locations}"
        );
        self.book = Some(ColorBook::new(delta.max(1)));
        self.cached.clear();
        self.capacity = n_locations / 2;
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let book = self.book.as_mut().expect("init not called");
        if obs.mini_round == 0 {
            let cached = &self.cached;
            book.begin_round(obs, |c| cached.contains(c));
        }

        // Keep the `capacity` eligible colors with the most recent
        // timestamps, ties broken by the consistent order of colors.
        self.scratch.clear();
        self.scratch.extend(book.eligible_colors());
        top_k_by_lru(book, &mut self.scratch, self.capacity);
        self.scratch.truncate(self.capacity);

        self.cached.clear();
        self.cached.extend(self.scratch.iter().copied());
        self.desired.clear();
        self.desired.extend(self.scratch.iter().map(|&c| (c, 2)));
        stable_assign_into(obs.slots, &self.desired, out, &mut self.assign);
    }

    fn stats(&self) -> PolicyStats {
        crate::book::policy_stats(self.book.as_ref(), self.cached.leaf_words())
    }
}

impl Snapshot for DeltaLru {
    fn save_state(&self, w: &mut SnapWriter) {
        self.book.as_ref().expect("init not called").save_state(w);
        put_color_set(w, &self.cached);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let book = self
            .book
            .as_mut()
            .ok_or_else(|| SnapError::Invalid("policy not initialized before restore".into()))?;
        book.load_state(r)?;
        self.cached = get_color_set(r, "cached colors")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn ineligible_colors_are_never_cached() {
        // Δ=4 but only 2 jobs arrive: the color never wraps, never becomes
        // eligible, and ΔLRU never configures it (Lemma 3.1's behaviour).
        let mut b = InstanceBuilder::new(4);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();
        let mut p = DeltaLru::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        assert_eq!(out.cost.reconfigs, 0);
        assert_eq!(out.dropped, 2);
        assert_eq!(p.metrics().ineligible_drops, 2);
        assert_eq!(p.metrics().eligible_drops, 0);
    }

    #[test]
    fn eligible_color_gets_cached_and_replicated() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        for blk in 0..4 {
            b.arrive(blk * 4, c, 4);
        }
        let inst = b.build();
        let mut p = DeltaLru::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // The color wraps at round 0 (4 >= Δ=2), is cached in two locations
        // from round 0 onward, and both replicas execute.
        assert_eq!(out.cost.reconfigs, 2);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.executed, 16);
    }

    #[test]
    fn recency_beats_deadline() {
        // Two colors, cache capacity 1 distinct (n=2). The color with the
        // more recent timestamp wins even if the other has pending jobs.
        let mut b = InstanceBuilder::new(1);
        let fresh = b.color(2);
        let stale = b.color(2);
        // stale wraps at round 0 only; fresh wraps at every block.
        b.arrive(0, stale, 2);
        for blk in 0..6 {
            b.arrive(blk * 2, fresh, 2);
        }
        let inst = b.build();
        let mut p = DeltaLru::new();
        Simulator::new(&inst, 2).run(&mut p);
        // After both have committed timestamps, fresh's is newer; stale was
        // evicted (or never entered) and retired.
        assert!(p.cached_colors().contains(fresh));
        assert!(!p.cached_colors().contains(stale));
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_location_count_rejected() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 1);
        let inst = b.build();
        Simulator::new(&inst, 3).run(&mut DeltaLru::new());
    }

    #[test]
    fn ties_break_by_consistent_color_order() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        let c1 = b.color(2);
        b.arrive(0, c0, 2).arrive(0, c1, 2);
        b.arrive(2, c0, 1).arrive(2, c1, 1);
        let inst = b.build();
        let mut p = DeltaLru::new();
        Simulator::new(&inst, 2).run(&mut p);
        // Capacity 1 distinct; identical timestamps -> lower id wins.
        assert!(p.cached_colors().contains(c0));
        assert!(!p.cached_colors().contains(c1));
    }
}
