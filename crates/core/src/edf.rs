//! EDF (§3.1.2): cache the nonidle eligible colors with the best
//! deadline-first ranks.
//!
//! EDF captures only the *deadline/utilization* aspect. It is **not**
//! resource competitive: Appendix B's adversary makes a short-bound color
//! blink between idle and nonidle, so EDF repeatedly pays Δ to rotate
//! long-bound colors through the freed capacity — thrashing (experiment E2
//! regenerates this).
//!
//! This module also provides the analysis variants of §3.3:
//! [`Edf::seq`] is **Seq-EDF** (all locations hold distinct colors, no
//! replication); running it on a speed-2 [`rrs_engine::Simulator`] yields
//! **DS-Seq-EDF**.

use rrs_engine::checkpoint::{get_color_set, put_color_set};
use rrs_engine::{
    stable_assign_into, AlgoMetrics, AssignScratch, Observation, Policy, PolicyStats, Slot,
    Snapshot,
};
use rrs_model::{ColorId, ColorSet, SnapError, SnapReader, SnapWriter};

use crate::book::ColorBook;
use crate::ranking::{edf_key, top_k_by_edf};

/// The EDF policy, parameterized by replication so it covers both the
/// §3.1.2 algorithm (replication 2) and Seq-EDF (replication 1).
#[derive(Debug)]
pub struct Edf {
    book: Option<ColorBook>,
    cached: ColorSet,
    replication: u64,
    capacity: usize,
    scratch: Vec<ColorId>,
    union: Vec<ColorId>,
    desired: Vec<(ColorId, u64)>,
    assign: AssignScratch,
}

impl Default for Edf {
    fn default() -> Self {
        Self::new()
    }
}

impl Edf {
    /// The paper's EDF algorithm: each cached color occupies two locations,
    /// so `n` locations cache `n/2` distinct colors.
    pub fn new() -> Self {
        Self {
            book: None,
            cached: ColorSet::new(),
            replication: 2,
            capacity: 0,
            scratch: Vec::new(),
            union: Vec::new(),
            desired: Vec::new(),
            assign: AssignScratch::new(),
        }
    }

    /// Seq-EDF (§3.3): all locations hold distinct colors (no replication).
    pub fn seq() -> Self {
        Self { replication: 1, ..Self::new() }
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

impl crate::Instrumented for Edf {
    fn book(&self) -> Option<&ColorBook> {
        Edf::book(self)
    }
}

impl Policy for Edf {
    fn name(&self) -> &str {
        if self.replication == 1 {
            "seq-edf"
        } else {
            "edf"
        }
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        assert!(
            (n_locations as u64).is_multiple_of(self.replication) && n_locations > 0,
            "EDF with replication {} needs a positive multiple of {} locations; got {n_locations}",
            self.replication,
            self.replication
        );
        self.book = Some(ColorBook::new(delta.max(1)));
        self.cached.clear();
        self.capacity = n_locations / self.replication as usize;
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let book = self.book.as_mut().expect("init not called");
        if obs.mini_round == 0 {
            let cached = &self.cached;
            book.begin_round(obs, |c| cached.contains(c));
        }

        // Rank all eligible colors; any nonidle color in the top
        // `capacity` rankings that is not cached gets cached, evicting the
        // lowest-ranked cached colors when full.
        self.scratch.clear();
        self.scratch.extend(book.eligible_colors());
        top_k_by_edf(book, obs.pending, &mut self.scratch, self.capacity);

        let top = &self.scratch[..self.scratch.len().min(self.capacity)];
        self.union.clear();
        self.union.extend(self.cached.iter());
        for &c in top {
            if !obs.pending.is_idle(c) && !self.cached.contains(c) {
                self.union.push(c);
            }
        }
        if self.union.len() > self.capacity {
            self.union.sort_unstable_by_key(|&c| edf_key(book, obs.pending, c));
            self.union.truncate(self.capacity);
        }

        self.cached.clear();
        self.cached.extend(self.union.iter().copied());
        self.desired.clear();
        self.desired.extend(self.union.iter().map(|&c| (c, self.replication)));
        stable_assign_into(obs.slots, &self.desired, out, &mut self.assign);
    }

    fn stats(&self) -> PolicyStats {
        crate::book::policy_stats(self.book.as_ref(), self.cached.leaf_words())
    }
}

impl Snapshot for Edf {
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
    fn earliest_deadline_color_wins_capacity() {
        // Capacity 1 distinct (n=2, replication 2): the color whose block
        // deadline comes first is cached.
        let mut b = InstanceBuilder::new(1);
        let tight = b.color(2);
        let loose = b.color(8);
        b.arrive(0, tight, 2).arrive(0, loose, 8);
        let inst = b.build();
        let mut p = Edf::new();
        Simulator::new(&inst, 2).run(&mut p);
        // At round 0 both are eligible and nonidle; tight has deadline 2 vs
        // loose's 8, so tight is cached first.
        assert!(p.metrics().counter_wraps >= 2);
        // loose eventually gets the cache once tight goes idle/retires.
        // Final cached set contains whichever was live at the end.
        assert!(p.cached_colors().len() <= 1);
    }

    #[test]
    fn idle_colors_are_not_brought_in() {
        // A color that wrapped but has no pending jobs is idle and must not
        // trigger a (re)configuration.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 1);
        // Bound 1: the job must run in round 0 or drop in round 1.
        let inst = b.build();
        let mut p = Edf::new();
        let out = Simulator::new(&inst, 2).run(&mut p);
        assert_eq!(out.executed, 1);
        assert_eq!(out.cost.reconfigs, 2); // one color, two locations, once
    }

    #[test]
    fn seq_variant_uses_all_locations_distinct() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        let c1 = b.color(2);
        b.arrive(0, c0, 2).arrive(0, c1, 2);
        let inst = b.build();
        let mut p = Edf::seq();
        let out = Simulator::new(&inst, 2).run(&mut p);
        // Two locations, two distinct colors, everything executes.
        assert_eq!(out.dropped, 0);
        assert_eq!(out.executed, 4);
    }

    #[test]
    fn ds_seq_edf_executes_twice_per_round() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 4);
        let inst = b.build();
        let out = Simulator::new(&inst, 2).with_speed(2).run(&mut Edf::seq());
        // 1 location-color x 2 minis x 2 rounds... capacity: color cached on
        // one location; 2 executions per round over 2 rounds = 4 jobs.
        assert_eq!(out.dropped, 0);
        assert_eq!(out.executed, 4);
    }

    #[test]
    fn eviction_prefers_keeping_best_ranked() {
        // Three colors, capacity 2 distinct (n=4). The two with earlier
        // deadlines stay; the third waits.
        let mut b = InstanceBuilder::new(1);
        let a = b.color(2);
        let c = b.color(2);
        let z = b.color(16);
        b.arrive(0, a, 2).arrive(0, c, 2).arrive(0, z, 16);
        let inst = b.build();
        let mut p = Edf::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // All jobs fit: a and c execute in their 2-round blocks, z's 16 jobs
        // run once the short colors go idle (its deadline is 16, capacity 2
        // distinct x2 replicas covers it).
        assert_eq!(out.dropped, 0, "EDF keeps utilization high here");
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn replication_mismatch_rejected() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 1);
        let inst = b.build();
        Simulator::new(&inst, 3).run(&mut Edf::new());
    }
}
