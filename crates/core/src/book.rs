//! The per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF (Section 3.1).
//!
//! All three algorithms maintain, for every color `ℓ`:
//!
//! * a **counter** `ℓ.cnt` of jobs received since the last counter wrap —
//!   when it reaches Δ it wraps (`cnt mod Δ`), a *counter wrapping event*;
//! * a **deadline** `ℓ.dd`, refreshed to `k + D_ℓ` at every block boundary
//!   `k` (an integral multiple of `D_ℓ`). Every refreshed color of one
//!   bound shares it, so the book keeps it once per bound
//!   ([`ColorBook::deadline`]);
//! * an **eligibility** bit: a color becomes eligible at its first counter
//!   wrap and becomes ineligible again (counter reset to 0) at a block
//!   boundary where it is eligible but not cached;
//! * a **timestamp** (§3.1.1): the latest round, strictly before the most
//!   recent multiple of `D_ℓ`, in which a counter wrap of `ℓ` occurred
//!   (0 if none). Since wraps only happen at block boundaries, the book
//!   maintains the committed value plus the most recent wrap round and
//!   commits the latter at the next boundary.
//!
//! A block boundary changes a color only when a wrap commits, an uncached
//! eligible color retires, or a counter that reached Δ wraps, so each bound
//! keeps work lists of exactly those colors and a boundary costs the colors
//! that change at it, not every color of the bound.
//!
//! The book also accumulates the [`AlgoMetrics`] the paper's lemmas are
//! stated over: epochs, counter wraps, timestamp updates, super-epochs, and
//! the eligible/ineligible split of drop costs.

use rrs_engine::checkpoint::{
    get_bool, get_color_set, get_opt_u64, get_sparse, put_bool, put_color_set, put_opt_u64,
};
use rrs_engine::{AlgoMetrics, Observation, PolicyStats, StateFootprint};
use rrs_model::{ColorId, ColorMap, ColorSet, ColorTable, SnapError, SnapReader, SnapWriter};

/// Per-color algorithm state. The deadline is not a field: read it with
/// [`ColorBook::deadline`].
#[derive(Clone, Debug)]
pub struct ColorState {
    /// The color's delay bound `D_ℓ`.
    pub delay_bound: u64,
    /// Job counter since the last wrap (`< Δ` at a block boundary; an
    /// off-boundary arrival can leave it higher until the next one).
    pub cnt: u64,
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
    /// Index of the color's bucket in `ColorBook::buckets` (derived).
    bucket: u32,
    /// Whether a block boundary has refreshed the color's deadline; false
    /// only for a color first seen off a boundary, until the next one.
    refreshed: bool,
}

impl ColorState {
    /// The timestamp as the paper defines it: the committed wrap round, or
    /// 0 when no wrap has committed ("0 if such a round does not exist").
    pub fn ts_value(&self) -> u64 {
        self.ts.unwrap_or(0)
    }

    fn new(delay_bound: u64, bucket: u32, refreshed: bool) -> Self {
        Self {
            delay_bound,
            cnt: 0,
            eligible: false,
            ts: None,
            last_wrap: None,
            epoch_active: false,
            bucket,
            refreshed,
        }
    }
}

/// The default state is the never-touched sentinel (`delay_bound` 0 never
/// occurs for a real color) — it backs absent pages of the book's sparse
/// state map, is never entered into a bound bucket, and reads deadline 0.
impl Default for ColorState {
    fn default() -> Self {
        Self::new(0, 0, false)
    }
}

/// The touched colors of one delay bound, and the colors its next block
/// boundary must change. Everything but `members` is derived state:
/// rebuilt by [`ColorBook::load_state`] and kept out of snapshots and
/// [`ColorBook::footprint`].
#[derive(Clone, Debug)]
struct Bucket {
    bound: u64,
    /// Every touched color of this bound.
    members: ColorSet,
    /// The eligible members: the only colors a boundary can retire.
    eligible: ColorSet,
    /// The deadline of every refreshed member: the last boundary this
    /// bucket processed plus `bound`, or 0 before its first boundary.
    deadline: u64,
    /// Members whose latest wrap has not committed into `ts`.
    uncommitted: Vec<u32>,
    /// Members whose counter reached Δ since the last boundary. A
    /// retirement can reset such a counter first; the boundary skips it.
    full: Vec<u32>,
    /// Members first seen off a boundary, awaiting their first refresh.
    unrefreshed: Vec<u32>,
}

impl Bucket {
    fn new(bound: u64) -> Self {
        Self {
            bound,
            members: ColorSet::new(),
            eligible: ColorSet::new(),
            deadline: 0,
            uncommitted: Vec::new(),
            full: Vec::new(),
            unrefreshed: Vec::new(),
        }
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
/// colors (cached ⊆ ever-eligible). A never-arrived color's deadline reads
/// 0 and is never read by a ranking.
///
/// Deadlines are kept per bound, not per color: [`ColorBook::deadline`] is
/// an accessor, and snapshots record its value for each color.
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
    /// Touched colors grouped by delay bound, in creation order so a
    /// color's bucket index never moves. A new bound is rare (there are at
    /// most 64 distinct power-of-two bounds); a boundary round is not.
    buckets: Vec<Bucket>,
    /// Bucket indexes in ascending bound order: boundaries commit
    /// timestamps in this order, then ascending id within a bucket — the
    /// consistent order super-epochs count in.
    by_bound: Vec<u32>,
    /// Super-epoch machinery (§3.4): once this many distinct colors have
    /// updated their timestamps, the super-epoch ends. `None` disables it.
    super_epoch_threshold: Option<u64>,
    super_epoch_colors: ColorSet,
    /// Colors whose timestamps committed this round, in `by_bound` order;
    /// a member buffer so `begin_round` allocates nothing once warm.
    ts_updates: Vec<u32>,
    /// Eligible colors retiring at the current boundary (member buffer).
    retiring: Vec<u32>,
    /// Backs [`ColorBook::boundary_visits`]; telemetry only.
    boundary_visits: u64,
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
            buckets: Vec::new(),
            by_bound: Vec::new(),
            super_epoch_threshold: None,
            super_epoch_colors: ColorSet::new(),
            ts_updates: Vec::new(),
            retiring: Vec::new(),
            boundary_visits: 0,
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
    /// touched set, the per-bound member sets, and the super-epoch set,
    /// plus the state map's live pages. The buckets' work lists and
    /// eligible sets are derived and not counted.
    pub fn footprint(&self) -> StateFootprint {
        let words = self.touched.leaf_words()
            + self.super_epoch_colors.leaf_words()
            + self.buckets.iter().map(|b| b.members.leaf_words()).sum::<usize>();
        StateFootprint {
            colorset_leaf_words: words as u64,
            colormap_live_pages: self.states.live_pages() as u64,
        }
    }

    /// Colors `begin_round` has examined at block boundaries since the
    /// book was created or loaded: entries of the per-bound work lists
    /// plus the eligible colors checked for retirement. A deterministic
    /// work counter, kept out of snapshots and [`ColorBook::footprint`].
    pub fn boundary_visits(&self) -> u64 {
        self.boundary_visits
    }

    /// The state of a known color. Colors that never received an arrival
    /// read as the untouched sentinel (counter 0, ineligible, no wraps) —
    /// indistinguishable, for every ranking, from the eager representation.
    pub fn state(&self, c: ColorId) -> &ColorState {
        &self.states[c]
    }

    /// The color's deadline `ℓ.dd`: its bound's last block boundary plus
    /// the bound, or 0 before the color's first boundary (and for a color
    /// that never arrived).
    pub fn deadline(&self, c: ColorId) -> u64 {
        self.deadline_of(&self.states[c])
    }

    fn deadline_of(&self, s: &ColorState) -> u64 {
        if s.refreshed {
            self.buckets[s.bucket as usize].deadline
        } else {
            0
        }
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
    /// its bound bucket, on that bucket's list of colors awaiting their
    /// first refresh unless `refreshed`. Caller guarantees `c` is fresh
    /// (not touched). Returns the bucket index.
    fn materialize(&mut self, c: ColorId, d: u64, refreshed: bool) -> usize {
        let buckets = &self.buckets;
        let bi = match self.by_bound.binary_search_by_key(&d, |&i| buckets[i as usize].bound) {
            Ok(pos) => self.by_bound[pos] as usize,
            Err(pos) => {
                self.by_bound.insert(pos, self.buckets.len() as u32);
                self.buckets.push(Bucket::new(d));
                self.buckets.len() - 1
            }
        };
        let bucket = &mut self.buckets[bi];
        bucket.members.insert(c);
        if !refreshed {
            bucket.unrefreshed.push(c.0);
        }
        *self.states.entry(c) = ColorState::new(d, bi as u32, refreshed);
        bi
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

        // Drop phase (§3.1): at each block boundary, commit the wraps of
        // the previous blocks into the timestamps and retire
        // eligible-but-uncached colors. Wraps happen only at boundaries, so
        // every uncommitted wrap precedes the current block.
        self.ts_updates.clear();
        for &bi in &self.by_bound {
            let bucket = &mut self.buckets[bi as usize];
            if !k.is_multiple_of(bucket.bound) {
                continue;
            }
            self.boundary_visits += (bucket.uncommitted.len() + bucket.eligible.len()) as u64;
            bucket.uncommitted.sort_unstable();
            for &id in &bucket.uncommitted {
                let s = &mut self.states[ColorId(id)];
                s.ts = s.last_wrap;
            }
            self.ts_updates.extend_from_slice(&bucket.uncommitted);
            bucket.uncommitted.clear();
            self.retiring.clear();
            self.retiring.extend(bucket.eligible.iter().filter(|&c| !in_cache(c)).map(|c| c.0));
            for &id in &self.retiring {
                let c = ColorId(id);
                bucket.eligible.remove(c);
                self.eligible.remove(c);
                let s = &mut self.states[c];
                s.eligible = false;
                s.cnt = 0;
                if s.epoch_active {
                    s.epoch_active = false;
                    self.metrics.active_epochs -= 1;
                    self.metrics.completed_epochs += 1;
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
        // boundaries. A color materialized at its boundary is refreshed by
        // that boundary below, and may wrap in the same round — exactly as
        // the eager book behaved. One first seen off a boundary (a bare
        // policy on unbatched input) waits for its next one.
        for &(c, n) in obs.arrivals {
            if self.touched.insert(c) {
                let d = obs.colors.delay_bound(c);
                self.materialize(c, d, k.is_multiple_of(d));
            }
            let s = &mut self.states[c];
            debug_assert!(
                k.is_multiple_of(s.delay_bound),
                "batched-arrival policy fed an off-boundary arrival (color {c}, round {k})"
            );
            if s.cnt < self.delta && s.cnt + n >= self.delta {
                self.buckets[s.bucket as usize].full.push(c.0);
            }
            s.cnt += n;
            if n > 0 && !s.epoch_active {
                s.epoch_active = true;
                self.metrics.active_epochs += 1;
            }
        }
        for bucket in &mut self.buckets {
            if !k.is_multiple_of(bucket.bound) {
                continue;
            }
            bucket.deadline = k + bucket.bound;
            self.boundary_visits += (bucket.unrefreshed.len() + bucket.full.len()) as u64;
            for &id in &bucket.unrefreshed {
                self.states[ColorId(id)].refreshed = true;
            }
            bucket.unrefreshed.clear();
            for &id in &bucket.full {
                let c = ColorId(id);
                let s = &mut self.states[c];
                if s.cnt < self.delta {
                    continue;
                }
                s.cnt %= self.delta;
                s.last_wrap = Some(k);
                bucket.uncommitted.push(id);
                self.metrics.counter_wraps += 1;
                if !s.eligible {
                    s.eligible = true;
                    bucket.eligible.insert(c);
                    self.eligible.insert(c);
                }
            }
            bucket.full.clear();
        }
    }

    /// Serialize the book's mutable state for a checkpoint (DESIGN.md §10).
    ///
    /// Δ and the super-epoch threshold are configuration, not state: they
    /// are written only so [`ColorBook::load_state`] can verify the resumed
    /// book was constructed identically. The buckets' deadlines, work lists
    /// and eligible sets and the `eligible` index are derived from the
    /// states and rebuilt on load; the scratch buffers are dead between
    /// rounds and excluded.
    ///
    /// Layout: synced color count, then a sparse section (`get_sparse`)
    /// listing each touched color in ascending id order with its seven
    /// state fields (the deadline read through [`ColorBook::deadline`]).
    /// Untouched colors cost nothing on the wire.
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
            w.put_u64(self.deadline_of(s));
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
    ///
    /// Only states some run can reach load, because the derived bucket
    /// state represents no others: a nonzero deadline is a multiple of its
    /// bound and shared by every refreshed color of that bound; `ts` and
    /// `last_wrap` are boundaries, `ts` never later than `last_wrap`, and
    /// `last_wrap` no later than the color's last refresh; an eligible
    /// color has wrapped; and the epoch count matches the colors with an
    /// epoch in progress.
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
        self.buckets.clear();
        self.by_bound.clear();
        self.boundary_visits = 0;
        let mut epochs_in_progress = 0u64;
        get_sparse(r, synced, "book states", |r, c| {
            let invalid = |what: String| SnapError::Invalid(format!("color {} {what}", c.0));
            let d = r.get_u64("color delay bound")?;
            if d == 0 {
                return Err(invalid("has zero delay bound".into()));
            }
            let cnt = r.get_u64("color counter")?;
            let deadline = r.get_u64("color deadline")?;
            let eligible = get_bool(r, "color eligibility")?;
            let ts = get_opt_u64(r, "color timestamp")?;
            let last_wrap = get_opt_u64(r, "color last wrap")?;
            let epoch_active = get_bool(r, "color epoch flag")?;
            if !deadline.is_multiple_of(d) {
                return Err(invalid(format!("deadline {deadline} is not a multiple of bound {d}")));
            }
            if let Some(v) = ts.into_iter().chain(last_wrap).find(|v| !v.is_multiple_of(d)) {
                return Err(invalid(format!("wrap round {v} is not a multiple of bound {d}")));
            }
            match (ts, last_wrap) {
                (Some(t), None) => {
                    return Err(invalid(format!("has timestamp {t} but never wrapped")));
                }
                (Some(t), Some(w)) if t > w => {
                    return Err(invalid(format!("timestamp {t} is later than its last wrap {w}")));
                }
                _ => {}
            }
            if eligible && last_wrap.is_none() {
                return Err(invalid("is eligible but never wrapped".into()));
            }
            // A wrap at boundary w refreshes the deadline to w + d.
            match last_wrap {
                Some(w) if deadline == 0 => {
                    return Err(invalid(format!("wrapped at {w} but was never refreshed")));
                }
                Some(w) if w > deadline - d => {
                    let last = deadline - d;
                    return Err(invalid(format!(
                        "wrapped at {w}, after its last refresh at {last}"
                    )));
                }
                _ => {}
            }
            self.touched.insert(c);
            let bi = self.materialize(c, d, deadline != 0);
            let bucket = &mut self.buckets[bi];
            if deadline != 0 {
                if bucket.deadline == 0 {
                    bucket.deadline = deadline;
                } else if bucket.deadline != deadline {
                    return Err(invalid(format!(
                        "deadline {deadline} differs from {} of another color of bound {d}",
                        bucket.deadline
                    )));
                }
            }
            if eligible {
                bucket.eligible.insert(c);
                self.eligible.insert(c);
            }
            if cnt >= self.delta {
                bucket.full.push(c.0);
            }
            if last_wrap.is_some() && ts != last_wrap {
                bucket.uncommitted.push(c.0);
            }
            epochs_in_progress += u64::from(epoch_active);
            let s = &mut self.states[c];
            s.cnt = cnt;
            s.eligible = eligible;
            s.ts = ts;
            s.last_wrap = last_wrap;
            s.epoch_active = epoch_active;
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

/// The [`PolicyStats`] of a cache policy that keeps `book` (`None` before
/// `init`) and `leaf_words` `ColorSet` leaf words of its own: the book's
/// footprint plus those words, and the book's lemma counters.
pub(crate) fn policy_stats(book: Option<&ColorBook>, leaf_words: usize) -> PolicyStats {
    let own = StateFootprint { colorset_leaf_words: leaf_words as u64, colormap_live_pages: 0 };
    match book {
        Some(book) => PolicyStats { footprint: book.footprint().plus(own), metrics: book.metrics },
        None => PolicyStats { footprint: own, metrics: AlgoMetrics::default() },
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
        assert_eq!(book.deadline(A), 4);
        step(&mut book, &colors, 1, &[], &[], &[]);
        assert_eq!(book.deadline(A), 4); // not a boundary
        step(&mut book, &colors, 4, &[], &[], &[]);
        assert_eq!(book.deadline(A), 8);
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
        assert_eq!(book.deadline(b), 0, "never refreshed, never read");
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

    /// One color's seven snapshot fields, in `save_state` order.
    #[derive(Clone, Copy, Debug)]
    struct Fields {
        bound: u64,
        cnt: u64,
        deadline: u64,
        eligible: bool,
        ts: Option<u64>,
        last_wrap: Option<u64>,
        epoch_active: bool,
    }

    /// An eligible bound-2 color that wrapped at round 0, the boundary that
    /// set its deadline to 2, with no epoch in progress.
    const WRAPPED: Fields = Fields {
        bound: 2,
        cnt: 0,
        deadline: 2,
        eligible: true,
        ts: None,
        last_wrap: Some(0),
        epoch_active: false,
    };

    /// A hand-built book section for Δ = 1 holding `colors` as ids 0, 1, …,
    /// with `active_epochs` in the metrics.
    fn section(colors: &[Fields], active_epochs: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(1); // delta
        put_opt_u64(&mut w, None); // super-epoch threshold
        w.put_u64(colors.len() as u64); // synced colors
        w.put_u64(colors.len() as u64); // touched colors
        for (id, f) in colors.iter().enumerate() {
            w.put_u32(id as u32);
            w.put_u64(f.bound);
            w.put_u64(f.cnt);
            w.put_u64(f.deadline);
            put_bool(&mut w, f.eligible);
            put_opt_u64(&mut w, f.ts);
            put_opt_u64(&mut w, f.last_wrap);
            put_bool(&mut w, f.epoch_active);
        }
        put_color_set(&mut w, &ColorSet::new()); // super-epoch colors

        // Metrics: wraps, timestamp updates, completed and active epochs,
        // eligible and ineligible drops, super-epochs.
        for v in [1, 0, 0, active_epochs, 0, 0, 0] {
            w.put_u64(v);
        }
        w.finish()
    }

    fn load(bytes: &[u8]) -> Result<ColorBook, SnapError> {
        let mut book = ColorBook::new(1);
        book.load_state(&mut SnapReader::new(bytes)?)?;
        Ok(book)
    }

    /// Loading `colors` fails with a message that names color `id` and
    /// contains `what`.
    fn assert_rejected(colors: &[Fields], id: u32, what: &str) {
        let epochs = colors.iter().filter(|f| f.epoch_active).count() as u64;
        match load(&section(colors, epochs)) {
            Err(SnapError::Invalid(msg)) => {
                assert!(msg.starts_with(&format!("color {id} ")) && msg.contains(what), "{msg}");
            }
            other => panic!("{colors:?} loaded: {other:?}"),
        }
    }

    #[test]
    fn load_rejects_an_epoch_count_that_contradicts_the_colors() {
        let one_color = |epoch_active, count| section(&[Fields { epoch_active, ..WRAPPED }], count);
        assert!(load(&one_color(true, 1)).is_ok());
        assert!(load(&one_color(false, 0)).is_ok());
        // Zero epochs while the color has one in progress: its next
        // retirement would subtract below zero.
        for (flag, count) in [(true, 0), (false, 1), (true, 2)] {
            match load(&one_color(flag, count)) {
                Err(SnapError::Invalid(msg)) => assert!(msg.contains("active epochs"), "{msg}"),
                other => panic!("epoch flag {flag} with count {count} loaded: {other:?}"),
            }
        }
    }

    #[test]
    fn load_rejects_a_deadline_off_its_bound() {
        assert_rejected(&[Fields { deadline: 3, ..WRAPPED }], 0, "deadline 3 is not a multiple");
    }

    #[test]
    fn load_rejects_two_deadlines_for_one_bound() {
        assert_rejected(&[WRAPPED, Fields { deadline: 4, ..WRAPPED }], 1, "differs from 2");
    }

    #[test]
    fn load_rejects_a_wrap_round_off_its_bound() {
        let ts_off = Fields { deadline: 4, ts: Some(1), last_wrap: Some(2), ..WRAPPED };
        assert_rejected(&[ts_off], 0, "wrap round 1 is not a multiple");
        assert_rejected(&[Fields { last_wrap: Some(1), ..WRAPPED }], 0, "wrap round 1");
    }

    #[test]
    fn load_rejects_a_timestamp_without_or_after_its_wrap() {
        let unwrapped = Fields { eligible: false, ts: Some(0), last_wrap: None, ..WRAPPED };
        assert_rejected(&[unwrapped], 0, "timestamp 0 but never wrapped");
        let early = Fields { deadline: 4, ts: Some(2), last_wrap: Some(0), ..WRAPPED };
        assert_rejected(&[early], 0, "timestamp 2 is later than its last wrap 0");
    }

    #[test]
    fn load_rejects_an_eligible_color_that_never_wrapped() {
        assert_rejected(&[Fields { last_wrap: None, ..WRAPPED }], 0, "eligible but never wrapped");
    }

    #[test]
    fn load_rejects_a_wrap_after_the_last_refresh() {
        // A wrap at boundary w refreshes the deadline to w + D.
        assert_rejected(&[Fields { deadline: 2, last_wrap: Some(2), ..WRAPPED }], 0, "at 0");
        assert_rejected(&[Fields { deadline: 0, ..WRAPPED }], 0, "never refreshed");
    }

    #[test]
    fn load_accepts_what_an_off_boundary_arrival_leaves() {
        // A color first seen off a boundary: deadline 0 beside a refreshed
        // color of its bound, and a counter at Δ that has not wrapped yet.
        let late = Fields {
            cnt: 3,
            deadline: 0,
            eligible: false,
            last_wrap: None,
            epoch_active: true,
            ..WRAPPED
        };
        let bytes = section(&[WRAPPED, late], 1);
        let mut book = load(&bytes).unwrap();
        let (a, b) = (ColorId(0), ColorId(1));
        assert_eq!((book.deadline(a), book.deadline(b)), (2, 0));
        let mut w = SnapWriter::new();
        book.save_state(&mut w);
        assert_eq!(w.finish(), bytes, "a loaded book saves the bytes it read");
        // Its next boundary refreshes it and wraps its counter.
        let colors = ColorTable::from_bounds(&[2, 2]);
        step(&mut book, &colors, 2, &[], &[], &[a]);
        assert_eq!((book.deadline(a), book.deadline(b)), (4, 4));
        assert_eq!(book.state(b).last_wrap, Some(2));
        assert_eq!(book.state(b).cnt, 0);
        assert!(book.is_eligible(b));
        assert_eq!(book.state(a).ts, Some(0), "color 0's round-0 wrap commits");
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
