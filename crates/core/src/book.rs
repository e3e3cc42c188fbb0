//! The per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF (Section 3.1).
//!
//! All three algorithms maintain, for every color `ℓ`:
//!
//! * a **counter** `ℓ.cnt` of jobs received since the last counter wrap —
//!   when it reaches Δ it wraps (`cnt mod Δ`), a *counter wrapping event*;
//! * a **deadline** `ℓ.dd`, refreshed to `k + D_ℓ` at every block boundary
//!   `k` (an integral multiple of `D_ℓ`);
//! * an **eligibility** bit: a color becomes eligible at its first counter
//!   wrap and becomes ineligible again (counter reset to 0) at a block
//!   boundary where it is eligible but not cached;
//! * a **timestamp** (§3.1.1): the latest round, strictly before the most
//!   recent multiple of `D_ℓ`, in which a counter wrap of `ℓ` occurred
//!   (0 if none). Since wraps only happen at block boundaries, the book
//!   maintains the committed value plus the most recent wrap round and
//!   refreshes the committed value at each boundary.
//!
//! The book also accumulates the [`AlgoMetrics`] the paper's lemmas are
//! stated over: epochs, counter wraps, timestamp updates, super-epochs, and
//! the eligible/ineligible split of drop costs.

use rrs_engine::checkpoint::{
    get_bool, get_color_set, get_opt_u64, get_sparse, put_bool, put_color_set, put_opt_u64,
};
use rrs_engine::Observation;
use rrs_model::{ColorId, ColorMap, ColorSet, ColorTable, SnapError, SnapReader, SnapWriter};

use crate::metrics::AlgoMetrics;

/// Per-color algorithm state.
#[derive(Clone, Debug)]
pub struct ColorState {
    /// The color's delay bound `D_ℓ`.
    pub delay_bound: u64,
    /// Job counter since the last wrap (`< Δ` between rounds).
    pub cnt: u64,
    /// Current deadline `ℓ.dd` (refreshed to `k + D_ℓ` at each boundary).
    pub deadline: u64,
    /// Whether the color is eligible.
    pub eligible: bool,
    /// Committed timestamp (§3.1.1): the latest counter-wrap round strictly
    /// before the current block, or `None` if no wrap has committed yet.
    /// Rankings use [`ColorState::ts_value`], which maps `None` to 0 as in
    /// the paper.
    pub ts: Option<u64>,
    /// Most recent counter-wrap round, if any (possibly not yet committed
    /// into `ts`).
    pub last_wrap: Option<u64>,
    /// Whether an epoch is in progress (jobs arrived since the color last
    /// became ineligible).
    pub epoch_active: bool,
}

impl ColorState {
    /// The timestamp as the paper defines it: the committed wrap round, or
    /// 0 when no wrap has committed ("0 if such a round does not exist").
    pub fn ts_value(&self) -> u64 {
        self.ts.unwrap_or(0)
    }

    fn new(delay_bound: u64) -> Self {
        Self {
            delay_bound,
            cnt: 0,
            deadline: 0,
            eligible: false,
            ts: None,
            last_wrap: None,
            epoch_active: false,
        }
    }
}

/// The default state is the never-touched sentinel (`delay_bound` 0 never
/// occurs for a real color) — it backs absent pages of the book's sparse
/// state map and is never entered into a bound bucket.
impl Default for ColorState {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Shared bookkeeping for the Section 3 algorithm family.
///
/// Per-color state is **lazy**: a color's [`ColorState`] materializes on
/// its first arrival, so a book over a million-color universe holds state
/// (and bound-bucket membership) only for the colors that ever received a
/// job. This is sound because every observable read goes through colors
/// that have arrived: eligibility requires a counter wrap, wraps require
/// arrivals, and the EDF/LRU rankings only consult eligible or cached
/// colors (cached ⊆ ever-eligible). A never-arrived color's deadline is
/// simply never refreshed — and never read.
#[derive(Clone, Debug)]
pub struct ColorBook {
    delta: u64,
    /// Paged per-color state; absent pages read as the untouched sentinel.
    states: ColorMap<ColorState>,
    /// Colors whose state has materialized (ever received an arrival).
    touched: ColorSet,
    /// The colors whose `eligible` flag is set: a derived index, updated
    /// where eligibility flips (a wrap, a retirement, a load) and kept out
    /// of snapshots and [`ColorBook::footprint`].
    eligible: ColorSet,
    /// Number of colors known from the color table (the dense id range),
    /// whether or not they ever materialized.
    synced: usize,
    /// Touched colors grouped by delay bound so block boundaries walk only
    /// the relevant buckets (there are at most 64 distinct power-of-two
    /// bounds). Kept sorted ascending by bound; each bucket is a
    /// [`ColorSet`], so membership inserts are O(1) and iteration is
    /// ascending by id — the paper's consistent order. A sorted vec rather
    /// than a `BTreeMap`: the bucket count is tiny, iteration is the hot
    /// operation, and inserts happen only when a brand-new bound appears.
    by_bound: Vec<(u64, ColorSet)>,
    /// Super-epoch machinery (§3.4): once this many distinct colors have
    /// updated their timestamps, the super-epoch ends. `None` disables it.
    super_epoch_threshold: Option<u64>,
    super_epoch_colors: ColorSet,
    /// Colors whose timestamps committed this round, in bound-bucket order;
    /// a member buffer so `begin_round` allocates nothing once warm.
    ts_updates: Vec<u32>,
    /// Accumulated lemma counters.
    pub metrics: AlgoMetrics,
}

impl ColorBook {
    /// A book for reconfiguration cost Δ (must be ≥ 1, as in the paper).
    pub fn new(delta: u64) -> Self {
        assert!(delta >= 1, "the paper's algorithms require \u{394} >= 1");
        Self {
            delta,
            states: ColorMap::new(),
            touched: ColorSet::new(),
            eligible: ColorSet::new(),
            synced: 0,
            by_bound: Vec::new(),
            super_epoch_threshold: None,
            super_epoch_colors: ColorSet::new(),
            ts_updates: Vec::new(),
            metrics: AlgoMetrics::default(),
        }
    }

    /// Enable super-epoch counting: a super-epoch ends the moment
    /// `threshold` distinct colors have updated their timestamps within it
    /// (§3.4 uses `threshold = 2m`).
    pub fn with_super_epoch_threshold(mut self, threshold: u64) -> Self {
        assert!(threshold >= 1);
        self.super_epoch_threshold = Some(threshold);
        self
    }

    /// The reconfiguration cost Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Number of colors known to the book (the synced id range, whether
    /// or not a color's state ever materialized).
    pub fn len(&self) -> usize {
        self.synced
    }

    /// Whether no colors are known.
    pub fn is_empty(&self) -> bool {
        self.synced == 0
    }

    /// Number of colors whose state has materialized — the book's real
    /// footprint in a sparse universe.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Sparse-container footprint of the whole book: leaf words across the
    /// touched set, the per-bound buckets, and the super-epoch set, plus
    /// the state map's live pages.
    pub fn footprint(&self) -> crate::StateFootprint {
        let words = self.touched.leaf_words()
            + self.super_epoch_colors.leaf_words()
            + self.by_bound.iter().map(|(_, b)| b.leaf_words()).sum::<usize>();
        crate::StateFootprint {
            colorset_leaf_words: words as u64,
            colormap_live_pages: self.states.live_pages() as u64,
        }
    }

    /// The state of a known color. Colors that never received an arrival
    /// read as the untouched sentinel (counter 0, ineligible, no wraps) —
    /// indistinguishable, for every ranking, from the eager representation.
    pub fn state(&self, c: ColorId) -> &ColorState {
        &self.states[c]
    }

    /// Whether a color is currently eligible.
    pub fn is_eligible(&self, c: ColorId) -> bool {
        self.states.get(c).is_some_and(|s| s.eligible)
    }

    /// Iterate over all eligible colors in consistent order, at a cost
    /// proportional to the eligible colors, not the touched ones.
    pub fn eligible_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.eligible.iter()
    }

    /// Learn about new colors from a (possibly grown) color table. Only
    /// records the id range — per-color state materializes on first
    /// arrival, so syncing a huge table allocates nothing.
    pub fn sync(&mut self, colors: &ColorTable) {
        if self.synced < colors.len() {
            self.synced = colors.len();
            self.states.grow_to(colors.len());
        }
    }

    /// Materialize state for `c` with delay bound `d` and register it in
    /// its bound bucket. Caller guarantees `c` is fresh (not touched).
    fn materialize(&mut self, c: ColorId, d: u64) {
        *self.states.entry(c) = ColorState::new(d);
        match self.by_bound.binary_search_by_key(&d, |&(b, _)| b) {
            Ok(i) => {
                self.by_bound[i].1.insert(c);
            }
            Err(i) => {
                let mut bucket = ColorSet::new();
                bucket.insert(c);
                self.by_bound.insert(i, (d, bucket));
            }
        }
    }

    /// Run the §3.1 drop-phase and arrival-phase bookkeeping for round
    /// `obs.round`. Call exactly once per round (mini-round 0), passing a
    /// predicate for "is this color in the cache right now" (the cache as
    /// of the end of the previous round).
    pub fn begin_round<F: Fn(ColorId) -> bool>(&mut self, obs: &Observation<'_>, in_cache: F) {
        debug_assert_eq!(obs.mini_round, 0, "begin_round must run on mini-round 0");
        self.sync(obs.colors);
        let k = obs.round;

        // Classify the engine's drops with pre-transition eligibility: a job
        // dropped while its color is eligible is an "eligible" drop
        // (Lemma 3.2), otherwise "ineligible" (Lemma 3.4).
        for &(c, n) in obs.dropped {
            if self.is_eligible(c) {
                self.metrics.eligible_drops += n;
            } else {
                self.metrics.ineligible_drops += n;
            }
        }

        // Drop phase (§3.1): at each block boundary, commit the timestamp
        // and retire eligible-but-uncached colors. Buckets hold touched
        // colors only, so a boundary walks the live working set, not the
        // universe.
        self.ts_updates.clear();
        for &(d, ref bucket) in &self.by_bound {
            if !k.is_multiple_of(d) {
                continue;
            }
            for c in bucket.iter() {
                let s = &mut self.states[c];
                if let Some(w) = s.last_wrap {
                    // Wraps happen only at boundaries, so `w < k` means the
                    // wrap precedes the current block and becomes the
                    // committed timestamp.
                    if w < k && s.ts != Some(w) {
                        s.ts = Some(w);
                        self.ts_updates.push(c.0);
                    }
                }
                if s.eligible && !in_cache(c) {
                    s.eligible = false;
                    self.eligible.remove(c);
                    s.cnt = 0;
                    if s.epoch_active {
                        s.epoch_active = false;
                        self.metrics.active_epochs -= 1;
                        self.metrics.completed_epochs += 1;
                    }
                }
            }
        }
        self.metrics.timestamp_updates += self.ts_updates.len() as u64;
        if let Some(t) = self.super_epoch_threshold {
            for &id in &self.ts_updates {
                self.super_epoch_colors.insert(ColorId(id));
                if self.super_epoch_colors.len() as u64 >= t {
                    self.metrics.super_epochs += 1;
                    self.super_epoch_colors.clear();
                }
            }
        }

        // Arrival phase (§3.1): count arrivals (materializing first-time
        // colors), then refresh deadlines and wrap counters at block
        // boundaries. A color materialized this round enters its bucket
        // before the boundary walk below, so its first deadline refresh
        // and a possible immediate wrap happen in the same round — exactly
        // as the eager book behaved.
        for &(c, n) in obs.arrivals {
            if self.touched.insert(c) {
                self.materialize(c, obs.colors.delay_bound(c));
            }
            let s = &mut self.states[c];
            debug_assert!(
                k.is_multiple_of(s.delay_bound),
                "batched-arrival policy fed an off-boundary arrival (color {c}, round {k})"
            );
            s.cnt += n;
            if n > 0 && !s.epoch_active {
                s.epoch_active = true;
                self.metrics.active_epochs += 1;
            }
        }
        for &(d, ref bucket) in &self.by_bound {
            if !k.is_multiple_of(d) {
                continue;
            }
            for c in bucket.iter() {
                let s = &mut self.states[c];
                s.deadline = k + d;
                if s.cnt >= self.delta {
                    s.cnt %= self.delta;
                    s.last_wrap = Some(k);
                    self.metrics.counter_wraps += 1;
                    if !s.eligible {
                        s.eligible = true;
                        self.eligible.insert(c);
                    }
                }
            }
        }
    }

    /// Serialize the book's mutable state for a checkpoint (DESIGN.md §10).
    ///
    /// Δ and the super-epoch threshold are configuration, not state: they
    /// are written only so [`ColorBook::load_state`] can verify the resumed
    /// book was constructed identically. `by_bound` and `eligible` are
    /// derived from the states and rebuilt on load; the `ts_updates`
    /// scratch buffer is dead between rounds and excluded.
    ///
    /// Layout: synced color count, then a sparse section (`get_sparse`)
    /// listing each touched color in ascending id order with its seven
    /// state fields. Untouched colors cost nothing on the wire.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.delta);
        put_opt_u64(w, self.super_epoch_threshold);
        w.put_u64(self.synced as u64);
        w.put_u64(self.touched.len() as u64);
        for c in self.touched.iter() {
            let s = &self.states[c];
            w.put_u32(c.0);
            w.put_u64(s.delay_bound);
            w.put_u64(s.cnt);
            w.put_u64(s.deadline);
            put_bool(w, s.eligible);
            put_opt_u64(w, s.ts);
            put_opt_u64(w, s.last_wrap);
            put_bool(w, s.epoch_active);
        }
        put_color_set(w, &self.super_epoch_colors);
        let m = &self.metrics;
        w.put_u64(m.counter_wraps);
        w.put_u64(m.timestamp_updates);
        w.put_u64(m.completed_epochs);
        w.put_u64(m.active_epochs);
        w.put_u64(m.eligible_drops);
        w.put_u64(m.ineligible_drops);
        w.put_u64(m.super_epochs);
    }

    /// Restore the book's mutable state from a checkpoint, mirroring
    /// [`ColorBook::save_state`]. The book must have been constructed with
    /// the same Δ and super-epoch threshold as the checkpointing run.
    /// The epoch count must match the colors with an epoch in progress.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let delta = r.get_u64("book delta")?;
        if delta != self.delta {
            return Err(SnapError::Invalid(format!(
                "book was checkpointed with delta {delta}, constructed with {}",
                self.delta
            )));
        }
        let threshold = get_opt_u64(r, "super-epoch threshold")?;
        if threshold != self.super_epoch_threshold {
            return Err(SnapError::Invalid(format!(
                "book was checkpointed with super-epoch threshold {threshold:?}, \
                 constructed with {:?}",
                self.super_epoch_threshold
            )));
        }
        let synced = r.get_u64("book color count")?;
        let n = usize::try_from(synced)
            .map_err(|_| SnapError::Invalid(format!("book color count {synced} too large")))?;
        self.states = ColorMap::new();
        self.states.grow_to(n);
        self.synced = n;
        self.touched = ColorSet::new();
        self.eligible = ColorSet::new();
        self.by_bound.clear();
        let mut epochs_in_progress = 0u64;
        get_sparse(r, synced, "book states", |r, c| {
            let delay_bound = r.get_u64("color delay bound")?;
            if delay_bound == 0 {
                return Err(SnapError::Invalid(format!("color {} has zero delay bound", c.0)));
            }
            let cnt = r.get_u64("color counter")?;
            let deadline = r.get_u64("color deadline")?;
            let eligible = get_bool(r, "color eligibility")?;
            let ts = get_opt_u64(r, "color timestamp")?;
            let last_wrap = get_opt_u64(r, "color last wrap")?;
            let epoch_active = get_bool(r, "color epoch flag")?;
            self.touched.insert(c);
            if eligible {
                self.eligible.insert(c);
            }
            epochs_in_progress += u64::from(epoch_active);
            self.materialize(c, delay_bound);
            *self.states.entry(c) =
                ColorState { delay_bound, cnt, deadline, eligible, ts, last_wrap, epoch_active };
            Ok(())
        })?;
        self.super_epoch_colors = get_color_set(r, "super-epoch colors")?;
        self.metrics = AlgoMetrics {
            counter_wraps: r.get_u64("counter wraps")?,
            timestamp_updates: r.get_u64("timestamp updates")?,
            completed_epochs: r.get_u64("completed epochs")?,
            active_epochs: r.get_u64("active epochs")?,
            eligible_drops: r.get_u64("eligible drops")?,
            ineligible_drops: r.get_u64("ineligible drops")?,
            super_epochs: r.get_u64("super epochs")?,
        };
        if self.metrics.active_epochs != epochs_in_progress {
            return Err(SnapError::Invalid(format!(
                "book counts {} active epochs but {epochs_in_progress} colors have one in progress",
                self.metrics.active_epochs
            )));
        }
        self.ts_updates.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_engine::PendingStore;

    const A: ColorId = ColorId(0);

    /// Drive a book through a round by hand-building an observation.
    fn step(
        book: &mut ColorBook,
        colors: &ColorTable,
        round: u64,
        arrivals: &[(ColorId, u64)],
        dropped: &[(ColorId, u64)],
        cached: &[ColorId],
    ) {
        let pending = PendingStore::new();
        let obs = Observation {
            round,
            mini_round: 0,
            speed: 1,
            delta: book.delta(),
            colors,
            arrivals,
            dropped,
            pending: &pending,
            slots: &[],
        };
        let cached: Vec<ColorId> = cached.to_vec();
        book.begin_round(&obs, |c| cached.contains(&c));
    }

    #[test]
    fn color_becomes_eligible_at_first_wrap() {
        let colors = ColorTable::from_bounds(&[4]);
        let mut book = ColorBook::new(3);
        step(&mut book, &colors, 0, &[(A, 2)], &[], &[]);
        assert!(!book.is_eligible(A));
        assert_eq!(book.state(A).cnt, 2);
        step(&mut book, &colors, 4, &[(A, 2)], &[], &[]);
        // cnt reached 4 >= Δ=3 -> wraps to 1, color eligible.
        assert!(book.is_eligible(A));
        assert_eq!(book.state(A).cnt, 1);
        assert_eq!(book.metrics.counter_wraps, 1);
        assert_eq!(book.state(A).last_wrap, Some(4));
    }

    #[test]
    fn deadline_refreshes_every_boundary() {
        let colors = ColorTable::from_bounds(&[4]);
        let mut book = ColorBook::new(2);
        // The first arrival materializes the state; its block boundary
        // refreshes the deadline in the same round.
        step(&mut book, &colors, 0, &[(A, 1)], &[], &[]);
        assert_eq!(book.state(A).deadline, 4);
        step(&mut book, &colors, 1, &[], &[], &[]);
        assert_eq!(book.state(A).deadline, 4); // not a boundary
        step(&mut book, &colors, 4, &[], &[], &[]);
        assert_eq!(book.state(A).deadline, 8);
    }

    #[test]
    fn never_arrived_colors_hold_no_state() {
        let colors = ColorTable::from_bounds(&[4, 4]);
        let mut book = ColorBook::new(1);
        step(&mut book, &colors, 0, &[(A, 1)], &[], &[]);
        assert_eq!(book.len(), 2, "both colors synced");
        assert_eq!(book.touched_len(), 1, "only the arrived color materialized");
        // The untouched color reads as the inert sentinel ...
        let b = ColorId(1);
        assert!(!book.is_eligible(b));
        assert_eq!(book.state(b).cnt, 0);
        assert_eq!(book.state(b).deadline, 0, "never refreshed, never read");
        // ... and never shows up in eligible iteration.
        assert!(book.eligible_colors().all(|c| c == A));
    }

    #[test]
    fn uncached_eligible_color_retires_at_boundary() {
        let colors = ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(2);
        step(&mut book, &colors, 0, &[(A, 2)], &[], &[]); // wrap, eligible
        assert!(book.is_eligible(A));
        assert_eq!(book.metrics.active_epochs, 1);
        // Boundary at round 2, not cached -> ineligible, counter reset.
        step(&mut book, &colors, 2, &[], &[], &[]);
        assert!(!book.is_eligible(A));
        assert_eq!(book.state(A).cnt, 0);
        assert_eq!(book.metrics.completed_epochs, 1);
        assert_eq!(book.metrics.active_epochs, 0);
    }

    #[test]
    fn cached_eligible_color_survives_boundary() {
        let colors = ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(2);
        step(&mut book, &colors, 0, &[(A, 2)], &[], &[]);
        step(&mut book, &colors, 2, &[], &[], &[A]);
        assert!(book.is_eligible(A));
        assert_eq!(book.metrics.completed_epochs, 0);
    }

    #[test]
    fn timestamp_commits_one_block_late() {
        let colors = ColorTable::from_bounds(&[4]);
        let mut book = ColorBook::new(2);
        // Wrap at round 4.
        step(&mut book, &colors, 0, &[(A, 1)], &[], &[]);
        step(&mut book, &colors, 4, &[(A, 1)], &[], &[A]);
        assert_eq!(book.state(A).last_wrap, Some(4));
        assert_eq!(book.state(A).ts, None, "wrap at 4 not yet before a boundary");
        assert_eq!(book.state(A).ts_value(), 0);
        // At the next boundary the wrap commits.
        step(&mut book, &colors, 8, &[], &[], &[A]);
        assert_eq!(book.state(A).ts, Some(4));
        assert_eq!(book.state(A).ts_value(), 4);
        assert_eq!(book.metrics.timestamp_updates, 1);
    }

    #[test]
    fn drop_classification_uses_pre_transition_eligibility() {
        let colors = ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(2);
        // Round 0: two jobs arrive, wrap -> eligible.
        step(&mut book, &colors, 0, &[(A, 2)], &[], &[]);
        // Round 2: the engine dropped 1 leftover job; color still eligible
        // when the drop happened, then retires (not cached).
        step(&mut book, &colors, 2, &[], &[(A, 1)], &[]);
        assert_eq!(book.metrics.eligible_drops, 1);
        assert_eq!(book.metrics.ineligible_drops, 0);
        assert!(!book.is_eligible(A));
        // Round 4: jobs dropped while ineligible.
        step(&mut book, &colors, 4, &[], &[(A, 3)], &[]);
        assert_eq!(book.metrics.ineligible_drops, 3);
    }

    #[test]
    fn counter_accumulates_across_blocks_without_wrap() {
        let colors = ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(10);
        for block in 0..4 {
            step(&mut book, &colors, block * 2, &[(A, 2)], &[], &[]);
        }
        assert_eq!(book.state(A).cnt, 8);
        assert!(!book.is_eligible(A));
        assert_eq!(book.metrics.counter_wraps, 0);
        step(&mut book, &colors, 8, &[(A, 2)], &[], &[]);
        assert!(book.is_eligible(A)); // 10 >= Δ=10
        assert_eq!(book.state(A).cnt, 0);
    }

    #[test]
    fn super_epochs_count_distinct_updaters() {
        let colors = ColorTable::from_bounds(&[2, 2]);
        let b_id = ColorId(1);
        let mut book = ColorBook::new(1).with_super_epoch_threshold(2);
        // Wraps for both colors at round 0 (Δ=1 so any arrival wraps).
        step(&mut book, &colors, 0, &[(A, 1), (b_id, 1)], &[], &[]);
        assert_eq!(book.metrics.super_epochs, 0);
        // Round 2: both commit -> 2 distinct updaters -> one super-epoch.
        step(&mut book, &colors, 2, &[], &[], &[A, b_id]);
        assert_eq!(book.metrics.super_epochs, 1);
        assert_eq!(book.metrics.timestamp_updates, 2);
    }

    #[test]
    fn sync_learns_new_colors() {
        let mut colors = ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(1);
        book.sync(&colors);
        assert_eq!(book.len(), 1);
        let new_color = colors.push(8);
        book.sync(&colors);
        assert_eq!(book.len(), 2);
        assert_eq!(book.touched_len(), 0, "sync records the range, not state");
        // The delay bound lands in the state on first arrival.
        step(&mut book, &colors, 0, &[(new_color, 1)], &[], &[]);
        assert_eq!(book.state(new_color).delay_bound, 8);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_delta_rejected() {
        ColorBook::new(0);
    }

    #[test]
    fn load_rebuilds_the_eligible_index_from_the_flags() {
        let colors = ColorTable::from_bounds(&[2, 2, 4, 2]);
        let c = ColorId;
        let mut book = ColorBook::new(2);
        // Colors 0, 2 and 3 wrap; 1 stays below Δ. At round 2 the uncached
        // color 3 retires, and color 2 (bound 4) is not at a boundary.
        step(&mut book, &colors, 0, &[(c(0), 2), (c(1), 1), (c(2), 3), (c(3), 2)], &[], &[]);
        step(&mut book, &colors, 2, &[], &[], &[c(0)]);
        let mut w = SnapWriter::new();
        book.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = ColorBook::new(2);
        restored.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        let flagged: Vec<ColorId> = (0..4).map(c).filter(|&x| restored.state(x).eligible).collect();
        assert_eq!(flagged, vec![c(0), c(2)]);
        assert_eq!(restored.eligible_colors().collect::<Vec<_>>(), flagged);
        assert!(restored.eligible_colors().eq(book.eligible_colors()));
    }

    /// A hand-built book section for Δ = 1: one eligible bound-2 color with
    /// the given epoch flag, and `active_epochs` in the metrics.
    fn one_color_section(epoch_active: bool, active_epochs: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(1); // delta
        put_opt_u64(&mut w, None); // super-epoch threshold
        w.put_u64(1); // synced colors
        w.put_u64(1); // touched colors
        w.put_u32(0);
        w.put_u64(2); // delay bound
        w.put_u64(0); // counter
        w.put_u64(2); // deadline
        put_bool(&mut w, true); // eligible
        put_opt_u64(&mut w, None); // timestamp
        put_opt_u64(&mut w, Some(0)); // last wrap
        put_bool(&mut w, epoch_active);
        put_color_set(&mut w, &ColorSet::new()); // super-epoch colors

        // Metrics: wraps, timestamp updates, completed and active epochs,
        // eligible and ineligible drops, super-epochs.
        for v in [1, 0, 0, active_epochs, 0, 0, 0] {
            w.put_u64(v);
        }
        w.finish()
    }

    #[test]
    fn load_rejects_an_epoch_count_that_contradicts_the_colors() {
        let load = |bytes: Vec<u8>| ColorBook::new(1).load_state(&mut SnapReader::new(&bytes)?);
        assert!(load(one_color_section(true, 1)).is_ok());
        assert!(load(one_color_section(false, 0)).is_ok());
        // Zero epochs while the color has one in progress: its next
        // retirement would subtract below zero.
        for (flag, count) in [(true, 0), (false, 1), (true, 2)] {
            match load(one_color_section(flag, count)) {
                Err(SnapError::Invalid(msg)) => assert!(msg.contains("active epochs"), "{msg}"),
                other => panic!("epoch flag {flag} with count {count} loaded: {other:?}"),
            }
        }
    }

    #[test]
    fn eligible_colors_iterates_in_consistent_order() {
        let colors = ColorTable::from_bounds(&[1, 1, 1]);
        let mut book = ColorBook::new(1);
        step(&mut book, &colors, 0, &[(ColorId(2), 1), (ColorId(0), 1)], &[], &[]);
        let v: Vec<_> = book.eligible_colors().collect();
        assert_eq!(v, vec![ColorId(0), ColorId(2)]);
    }
}

#[cfg(test)]
mod bound_one_tests {
    use super::*;
    use crate::dlru_edf::DeltaLruEdf;
    use rrs_engine::{Policy, Simulator};
    use rrs_model::InstanceBuilder;

    /// Bound-1 colors hit a block boundary every round: deadline refresh,
    /// retirement and wraps all happen at round granularity.
    #[test]
    fn bound_one_color_full_lifecycle() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(1);
        // Two jobs in one round wrap the counter immediately (2 >= Δ).
        b.arrive(0, c, 2).arrive(3, c, 2);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // Each burst wraps the counter and executes within its single
        // round (two replicated locations, two jobs). Crucially the LRU
        // quarter then *keeps* the color cached through its idle rounds --
        // every round is a block boundary for a bound-1 color, and an
        // uncached eligible color would retire immediately. One epoch,
        // never completed.
        assert!(out.conserved());
        assert_eq!(out.dropped, 0);
        assert_eq!(p.metrics().counter_wraps, 2);
        assert_eq!(p.metrics().completed_epochs, 0);
        assert_eq!(p.metrics().num_epochs(), 1);
        assert!(p.cached_colors().contains(c));
    }

    #[test]
    fn delta_one_wraps_on_every_nonempty_batch() {
        let colors = rrs_model::ColorTable::from_bounds(&[2]);
        let mut book = ColorBook::new(1);
        let pending = rrs_engine::PendingStore::new();
        for blk in 0..4u64 {
            let obs = rrs_engine::Observation {
                round: blk * 2,
                mini_round: 0,
                speed: 1,
                delta: 1,
                colors: &colors,
                arrivals: &[(ColorId(0), 1)],
                dropped: &[],
                pending: &pending,
                slots: &[],
            };
            book.begin_round(&obs, |_| true); // always "cached"
        }
        assert_eq!(book.metrics.counter_wraps, 4);
        assert!(book.is_eligible(ColorId(0)));
        // Wraps at 0,2,4,6; commits lag one block: ts = 4 after round 6.
        assert_eq!(book.state(ColorId(0)).ts, Some(4));
    }

    /// A policy must keep working when the same color table reference grows
    /// between rounds (the reduction wrappers do this constantly).
    #[test]
    fn growing_color_table_mid_run() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        b.arrive(0, c0, 2);
        // c1 is declared up front but only used later — from the policy's
        // perspective it appears when the table already contains it.
        let c1 = b.color(4);
        b.arrive(4, c1, 4);
        let inst = b.build();
        let mut p = DeltaLruEdf::new();
        let out = Simulator::new(&inst, 4).run(&mut p);
        assert!(out.conserved());
        assert_eq!(p.name(), "dlru-edf");
    }
}
