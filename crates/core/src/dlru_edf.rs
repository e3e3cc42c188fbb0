//! ΔLRU-EDF (§3.1.3) — the paper's resource-competitive algorithm.
//!
//! The cache holds `n/2` distinct colors (each replicated at two
//! locations). It is governed by two cooperating schemes:
//!
//! * the **LRU quarter** — the `n/4` eligible colors with the most recent
//!   counter-wrap timestamps are always cached, *whether or not they have
//!   pending jobs*. This is what prevents thrashing: a short-bound color
//!   that recently produced Δ jobs stays resident through its idle gaps, so
//!   its next burst costs nothing.
//! * the **EDF quarter** — among the remaining eligible ("non-LRU") colors,
//!   the nonidle ones in the top `n/4` deadline-first ranks are brought in,
//!   evicting the lowest-ranked cached non-LRU colors when space runs out.
//!   This is what prevents underutilization: backlogged colors always get
//!   capacity.
//!
//! Theorem 1: with `n = 8m` locations, ΔLRU-EDF is O(1)-competitive with
//! any offline schedule on `m` resources, on rate-limited
//! `[Δ|1|D_ℓ|D_ℓ]` instances with power-of-two bounds.

use rrs_engine::checkpoint::{get_color_set, put_color_set};
use rrs_engine::{
    stable_assign_into, AlgoMetrics, AssignScratch, Observation, Policy, PolicyStats, Slot,
    Snapshot,
};
use rrs_model::{ColorId, ColorSet, SnapError, SnapReader, SnapWriter};

use crate::book::ColorBook;
use crate::ranking::{edf_key, top_k_by_edf, top_k_by_lru};

/// The ΔLRU-EDF policy.
#[derive(Debug)]
pub struct DeltaLruEdf {
    book: Option<ColorBook>,
    cached: ColorSet,
    lru_set: ColorSet,
    /// Fraction of the distinct capacity governed by the LRU scheme, as an
    /// exact rational `lru_num / lru_den` (the paper uses 1/2: an LRU
    /// quarter and an EDF quarter of `n`). Kept rational rather than `f64`
    /// so the capacity split — and with it every certified cost — stays a
    /// pure integer function of the configuration (DESIGN.md §15).
    lru_num: u64,
    lru_den: u64,
    /// Locations per cached color (the paper replicates each cached color
    /// at two locations; 1 trades replication for distinct capacity).
    replication: u64,
    /// LRU set size (paper: `n/4`).
    lru_slots: usize,
    /// EDF ranking window (paper: `n/4`).
    edf_window: usize,
    /// Total distinct capacity (`n/2`).
    capacity: usize,
    scratch: Vec<ColorId>,
    keep: Vec<ColorId>,
    desired: Vec<(ColorId, u64)>,
    assign: AssignScratch,
}

impl Default for DeltaLruEdf {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaLruEdf {
    /// A fresh ΔLRU-EDF policy with the paper's half/half split of the
    /// distinct capacity between the LRU and EDF schemes (state is created
    /// at [`Policy::init`]).
    pub fn new() -> Self {
        Self {
            book: None,
            cached: ColorSet::new(),
            lru_set: ColorSet::new(),
            lru_num: 1,
            lru_den: 2,
            replication: 2,
            lru_slots: 0,
            edf_window: 0,
            capacity: 0,
            scratch: Vec::new(),
            keep: Vec::new(),
            desired: Vec::new(),
            assign: AssignScratch::new(),
        }
    }

    /// Ablation constructor: give the LRU scheme `num/den` of the distinct
    /// capacity and the EDF scheme the rest. `0/1` degenerates to (almost)
    /// pure EDF, `1/1` to pure ΔLRU; the paper's algorithm is `1/2`. The
    /// E12 ablation experiment shows both extremes fail on one of the
    /// appendix adversaries while `1/2` survives both. The share is an
    /// exact rational: no float ever touches the capacity split.
    pub fn with_lru_share(num: u64, den: u64) -> Self {
        assert!(den > 0, "share denominator must be positive");
        assert!(num <= den, "share must be in [0, 1]");
        Self { lru_num: num, lru_den: den, ..Self::new() }
    }

    /// Ablation constructor: cache each color at `replication` locations
    /// (the paper uses 2). `replication = 1` doubles the distinct capacity
    /// but halves each cached color's throughput — the replication ablation
    /// measures which side of that trade matters on a given workload.
    pub fn with_replication(replication: u64) -> Self {
        assert!(replication >= 1, "replication must be at least 1");
        Self { replication, ..Self::new() }
    }

    /// The lemma counters accumulated so far (empty before `init`).
    pub fn metrics(&self) -> AlgoMetrics {
        self.book.as_ref().map(|b| b.metrics).unwrap_or_default()
    }

    /// The distinct colors currently cached.
    pub fn cached_colors(&self) -> &ColorSet {
        &self.cached
    }

    /// The current LRU quarter (always a subset of the cache).
    pub fn lru_colors(&self) -> &ColorSet {
        &self.lru_set
    }

    /// Shared bookkeeping, for white-box tests and the analysis crate.
    pub fn book(&self) -> Option<&ColorBook> {
        self.book.as_ref()
    }
}

impl crate::Instrumented for DeltaLruEdf {
    fn book(&self) -> Option<&ColorBook> {
        DeltaLruEdf::book(self)
    }
}

impl Policy for DeltaLruEdf {
    fn name(&self) -> &str {
        "dlru-edf"
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        assert!(
            n_locations >= 4 && n_locations.is_multiple_of(4),
            "\u{394}LRU-EDF splits the cache into an LRU quarter and an EDF \
             quarter of replicated colors; it needs a positive multiple of 4 \
             locations, got {n_locations}"
        );
        assert!(
            (n_locations as u64).is_multiple_of(self.replication),
            "n must be a multiple of the replication factor"
        );
        // Distinct capacity: every cached color occupies `replication`
        // locations, so `n / replication` distinct colors fit. The paper's
        // configuration (replication 2) gives n/2, split half/half between
        // the LRU and EDF schemes (n/4 each).
        self.capacity = n_locations / self.replication as usize;
        // Round-half-up of `capacity * num / den` in pure integer math
        // (equal to the former `f64::round` on every nonnegative input).
        let cap = self.capacity as u64;
        self.lru_slots = ((2 * cap * self.lru_num + self.lru_den) / (2 * self.lru_den)) as usize;
        self.lru_slots = self.lru_slots.min(self.capacity);
        self.edf_window = self.capacity - self.lru_slots;
        // §3.4 defines super-epochs over 2m timestamp updates; with the
        // Theorem 1 provisioning n = 8m this is n/4 colors.
        self.book = Some(
            ColorBook::new(delta.max(1))
                .with_super_epoch_threshold((n_locations as u64 / 4).max(1)),
        );
        self.cached.clear();
        self.lru_set.clear();
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let book = self.book.as_mut().expect("init not called");
        if obs.mini_round == 0 {
            let cached = &self.cached;
            book.begin_round(obs, |c| cached.contains(c));
        }

        // Scheme 1 (ΔLRU): the n/4 eligible colors with the most recent
        // timestamps become the LRU set.
        self.scratch.clear();
        self.scratch.extend(book.eligible_colors());
        top_k_by_lru(book, &mut self.scratch, self.lru_slots);
        let lru_len = self.scratch.len().min(self.lru_slots);
        self.lru_set.clear();
        self.lru_set.extend(self.scratch[..lru_len].iter().copied());

        // Scheme 2 (EDF over non-LRU colors): rank the eligible non-LRU
        // colors; X = nonidle colors in the top n/4 ranks not already
        // cached.
        let nonlru = &mut self.scratch[lru_len..];
        top_k_by_edf(book, obs.pending, nonlru, self.edf_window);

        self.keep.clear();
        // Cached non-LRU colors stay unless evicted for space.
        self.keep.extend(self.cached.iter().filter(|&c| !self.lru_set.contains(c)));
        for &c in nonlru.iter().take(self.edf_window) {
            if !obs.pending.is_idle(c) && !self.cached.contains(c) {
                self.keep.push(c);
            }
        }
        let nonlru_capacity = self.capacity - self.lru_set.len();
        if self.keep.len() > nonlru_capacity {
            self.keep.sort_unstable_by_key(|&c| edf_key(book, obs.pending, c));
            self.keep.truncate(nonlru_capacity);
        }

        self.cached.clear();
        self.cached.extend(self.lru_set.iter());
        self.cached.extend(self.keep.iter().copied());
        debug_assert!(self.cached.len() <= self.capacity);
        self.desired.clear();
        self.desired.extend(self.cached.iter().map(|c| (c, self.replication)));
        stable_assign_into(obs.slots, &self.desired, out, &mut self.assign);
    }

    fn stats(&self) -> PolicyStats {
        let leaf_words = self.cached.leaf_words() + self.lru_set.leaf_words();
        crate::book::policy_stats(self.book.as_ref(), leaf_words)
    }
}

impl Snapshot for DeltaLruEdf {
    // Mutable state: the book plus the cached and LRU sets. Capacities,
    // shares and replication are construction/init parameters; the ranking
    // buffers are per-round scratch.
    fn save_state(&self, w: &mut SnapWriter) {
        self.book.as_ref().expect("init not called").save_state(w);
        put_color_set(w, &self.cached);
        put_color_set(w, &self.lru_set);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let book = self
            .book
            .as_mut()
            .ok_or_else(|| SnapError::Invalid("policy not initialized before restore".into()))?;
        book.load_state(r)?;
        self.cached = get_color_set(r, "cached colors")?;
        self.lru_set = get_color_set(r, "lru colors")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn single_busy_color_is_served() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        for blk in 0..8 {
            b.arrive(blk * 4, c, 4);
        }
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // Wraps at round 0 (4 >= 2), cached at two locations from round 0:
        // 8 execution slots per block >= 4 jobs.
        assert_eq!(out.dropped, 0);
        assert_eq!(out.cost.reconfigs, 2);
        assert_eq!(p.metrics().num_epochs(), 1);
    }

    #[test]
    fn lru_quarter_keeps_idle_recent_color_resident() {
        // A bursty short-bound color and a steady long-bound color. The
        // bursty color's timestamp stays fresh, so it remains cached during
        // its idle gaps — the defining behaviour of the LRU quarter.
        let mut b = InstanceBuilder::new(2);
        let bursty = b.color(2);
        let steady = b.color(16);
        for blk in 0..16 {
            b.arrive(blk * 2, bursty, 2);
        }
        b.arrive(0, steady, 16).arrive(16, steady, 16);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, 8).run(&mut p);
        assert_eq!(out.dropped, 0);
        // bursty: cached once and retained by recency (2 reconfigs);
        // steady: cached once by the EDF quarter (2 reconfigs). No
        // thrashing.
        assert_eq!(out.cost.reconfigs, 4);
        assert!(p.cached_colors().contains(bursty));
    }

    #[test]
    fn edf_quarter_serves_backlogged_nonlru_color() {
        // Fill the LRU quarter with fresh short-bound colors; a long-bound
        // color with a deep backlog must still get capacity via the EDF
        // quarter (this is exactly what plain ΔLRU fails to do).
        let n = 8; // quarter = 2, capacity = 4
        let mut b = InstanceBuilder::new(2);
        let shorts: Vec<_> = (0..2).map(|_| b.color(2)).collect();
        let long = b.color(32);
        for blk in 0..16 {
            for &s in &shorts {
                b.arrive(blk * 2, s, 2);
            }
        }
        b.arrive(0, long, 32);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, n).run(&mut p);
        // The long color has 32 jobs, deadline 32, and two replicated
        // locations once cached: 2/round for ~31 rounds is enough, with the
        // shorts fully served by their own replicas.
        assert_eq!(out.dropped, 0, "EDF quarter must clear the backlog");
    }

    #[test]
    fn cache_never_exceeds_half_capacity() {
        let n = 8;
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..10).map(|_| b.color(2)).collect();
        for blk in 0..8 {
            for &c in &colors {
                b.arrive(blk * 2, c, 1);
            }
        }
        let inst = b.build();
        struct Watcher {
            inner: DeltaLruEdf,
            max_seen: usize,
        }
        impl Policy for Watcher {
            fn name(&self) -> &str {
                "watcher"
            }
            fn init(&mut self, delta: u64, n: usize) {
                self.inner.init(delta, n);
            }
            fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
                self.inner.reconfigure(obs, out);
                self.max_seen = self.max_seen.max(self.inner.cached_colors().len());
            }
        }
        let mut w = Watcher { inner: DeltaLruEdf::new(), max_seen: 0 };
        Simulator::new(&inst, n).run(&mut w);
        assert!(w.max_seen <= n / 2, "distinct cache bounded by n/2");
    }

    #[test]
    fn lru_set_is_subset_of_cache() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        let c1 = b.color(4);
        for blk in 0..8 {
            b.arrive(blk * 2, c0, 2);
        }
        b.arrive(0, c1, 4).arrive(4, c1, 4);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        Simulator::new(&inst, 4).run(&mut p);
        assert!(p.lru_colors().iter().all(|c| p.cached_colors().contains(c)));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn non_multiple_of_four_rejected() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 1);
        let inst = b.build();
        Simulator::new(&inst, 6).run(&mut DeltaLruEdf::new());
    }

    #[test]
    fn replication_one_doubles_distinct_capacity() {
        // Six short colors at n=8: the paper's configuration (4 distinct)
        // must evict someone; replication 1 (8 distinct) holds them all.
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..6).map(|_| b.color(4)).collect();
        for blk in 0..6 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        let paper = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new());
        let wide = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::with_replication(1));
        assert_eq!(wide.dropped, 0, "8 distinct slots cover 6 colors");
        assert!(wide.cost.reconfigs <= 6, "one configuration per color");
        // The replicated variant has only 4 distinct slots for 6 colors and
        // must churn or drop.
        assert!(paper.total_cost() > wide.total_cost());
    }

    #[test]
    fn never_eligible_color_never_configured() {
        // Lemma 3.1's behaviour: fewer than Δ jobs -> never cached.
        let mut b = InstanceBuilder::new(10);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 3);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        assert_eq!(out.cost.reconfigs, 0);
        assert_eq!(out.dropped, 6);
        assert_eq!(p.metrics().ineligible_drops, 6);
    }
}
