//! The pending-job store: per-color deadline queues.
//!
//! All jobs are unit jobs, so pending jobs of one color are fully described
//! by a queue of `(deadline, count)` entries in ascending deadline order.
//! Arrivals for a fixed color carry strictly increasing deadlines
//! (`round + D_ℓ` with `round` increasing), so the queue stays sorted with
//! `push_back` plus tail merging.

use std::collections::VecDeque;

use rrs_model::{ColorId, ColorMap, SnapError, SnapReader, SnapWriter};

use crate::checkpoint::get_sparse;

/// Pending unit jobs, bucketed by color and deadline.
///
/// Both per-color tables are dense [`ColorMap`]s, so lookups are flat
/// indexing and the store allocates only when the color universe (or a
/// queue's high-water mark) grows — never in a steady-state round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingStore {
    queues: ColorMap<VecDeque<(u64, u64)>>, // per color: (deadline, count), ascending
    counts: ColorMap<u64>,                  // per color total
    total: u64,
    min_due: u64, // lower bound on the earliest pending deadline
}

impl Default for PendingStore {
    fn default() -> Self {
        PendingStore {
            queues: ColorMap::new(),
            counts: ColorMap::new(),
            total: 0,
            min_due: u64::MAX,
        }
    }
}

impl PendingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the store to know about colors `0..n`.
    pub fn ensure_colors(&mut self, n: usize) {
        self.queues.grow_to(n);
        self.counts.grow_to(n);
    }

    /// Number of colors the store knows about.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.queues.len()
    }

    /// Live pages across the store's paged per-color containers —
    /// sparse-state telemetry (DESIGN.md §14).
    pub fn live_pages(&self) -> usize {
        self.queues.live_pages() + self.counts.live_pages()
    }

    /// Add `count` pending jobs of `color` with the given deadline.
    ///
    /// # Panics
    /// Panics (debug) if the deadline is below the color's current latest
    /// deadline — arrivals must be fed in round order.
    pub fn arrive(&mut self, color: ColorId, deadline: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.ensure_colors(color.index() + 1);
        let q = &mut self.queues[color];
        match q.back_mut() {
            Some((d, n)) if *d == deadline => *n += count,
            Some((d, _)) => {
                debug_assert!(*d < deadline, "arrivals must have nondecreasing deadlines");
                q.push_back((deadline, count));
            }
            None => q.push_back((deadline, count)),
        }
        self.counts[color] += count;
        self.total += count;
        self.min_due = self.min_due.min(deadline);
    }

    /// Drop every job with deadline `<= round` (the drop phase of `round`
    /// only ever sees deadlines `== round` when fed in order, but `<=` makes
    /// the store robust to sparse use). Appends `(color, dropped)` pairs to
    /// `out` in consistent color order and returns the total dropped.
    pub fn drop_due(&mut self, round: u64, out: &mut Vec<(ColorId, u64)>) -> u64 {
        // `min_due` is a lower bound on every pending deadline, so most
        // rounds skip the per-color scan entirely (executions can only
        // raise the true minimum, which keeps the bound valid).
        if round < self.min_due {
            return 0;
        }
        let mut total = 0;
        let mut next_due = u64::MAX;
        for (c, q) in self.queues.iter_mut() {
            let mut dropped = 0;
            while let Some(&(d, n)) = q.front() {
                if d > round {
                    break;
                }
                dropped += n;
                q.pop_front();
            }
            if let Some(&(d, _)) = q.front() {
                next_due = next_due.min(d);
            }
            if dropped > 0 {
                self.counts[c] -= dropped;
                total += dropped;
                out.push((c, dropped));
            }
        }
        self.total -= total;
        self.min_due = next_due;
        total
    }

    /// Execute up to `slots` earliest-deadline pending jobs of `color`;
    /// returns how many were executed.
    pub fn execute(&mut self, color: ColorId, slots: u64) -> u64 {
        let Some(q) = self.queues.get_mut(color) else {
            return 0;
        };
        let mut remaining = slots;
        while remaining > 0 {
            let Some((_, n)) = q.front_mut() else { break };
            let take = (*n).min(remaining);
            *n -= take;
            remaining -= take;
            if *n == 0 {
                q.pop_front();
            }
        }
        let executed = slots - remaining;
        if executed > 0 {
            self.counts[color] -= executed;
            self.total -= executed;
        }
        executed
    }

    /// Number of pending jobs of `color`.
    #[inline]
    pub fn count(&self, color: ColorId) -> u64 {
        self.counts.value(color)
    }

    /// Whether `color` has no pending jobs (the paper's *idle*).
    #[inline]
    pub fn is_idle(&self, color: ColorId) -> bool {
        self.count(color) == 0
    }

    /// Earliest deadline among pending jobs of `color`.
    #[inline]
    pub fn earliest_deadline(&self, color: ColorId) -> Option<u64> {
        self.queues.get(color).and_then(|q| q.front().map(|&(d, _)| d))
    }

    /// Total pending jobs over all colors.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Colors with at least one pending job, in consistent order.
    pub fn nonidle_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.counts.iter().filter(|&(_, &n)| n > 0).map(|(c, _)| c)
    }

    /// The deadline profile of a color (ascending `(deadline, count)`),
    /// used by the exact offline solver to canonicalize states.
    pub fn profile(&self, color: ColorId) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.queues.get(color).into_iter().flat_map(|q| q.iter().copied())
    }

    /// Serialize the store into a snapshot writer (DESIGN.md §10).
    ///
    /// Layout: coverage (color-universe size), then a sparse section
    /// (`get_sparse`) listing each color with a nonempty queue in
    /// ascending id order with its queue length and `(deadline, count)`
    /// pairs, then the `min_due` bound. Idle colors cost nothing on the
    /// wire — a sparse store over a huge universe snapshots in O(pending
    /// colors). `counts` and `total` are derived on load, so they cannot
    /// drift from the queues.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.queues.len() as u64);
        let nonempty = self.queues.iter().filter(|(_, q)| !q.is_empty()).count();
        w.put_u64(nonempty as u64);
        for (c, q) in self.queues.iter() {
            if q.is_empty() {
                continue;
            }
            w.put_u32(c.0);
            w.put_u64(q.len() as u64);
            for &(deadline, count) in q {
                w.put_u64(deadline);
                w.put_u64(count);
            }
        }
        w.put_u64(self.min_due);
    }

    /// Decode a store previously written by [`PendingStore::save_state`].
    ///
    /// Validates structural invariants (strictly ascending deadlines per
    /// color, nonzero counts, job counts that fit a `u64`, a `min_due`
    /// that really bounds every pending deadline) so a
    /// corrupted-but-CRC-valid snapshot cannot smuggle in an impossible
    /// state.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let coverage = r.get_u64("pending color count")?;
        let n_colors = usize::try_from(coverage)
            .map_err(|_| SnapError::Invalid(format!("pending color count {coverage} too large")))?;
        let mut store = PendingStore::new();
        store.ensure_colors(n_colors);
        let mut true_min = u64::MAX;
        get_sparse(r, coverage, "pending queues", |r, color| {
            let q_len = r.get_u64("pending queue length")?;
            if q_len == 0 {
                return Err(SnapError::Invalid(format!(
                    "pending color {} listed with an empty queue",
                    color.0
                )));
            }
            let overflow =
                || SnapError::Invalid(format!("pending jobs of color {} overflow u64", color.0));
            let mut count_for_color = 0u64;
            let mut last_deadline: Option<u64> = None;
            for _ in 0..q_len {
                let deadline = r.get_u64("pending deadline")?;
                let count = r.get_u64("pending count")?;
                if count == 0 {
                    return Err(SnapError::Invalid(format!(
                        "pending queue for color {} has a zero-count entry",
                        color.0
                    )));
                }
                match last_deadline {
                    Some(prev) if deadline <= prev => {
                        return Err(SnapError::Invalid(format!(
                            "pending queue for color {} has non-ascending deadlines \
                             ({prev} then {deadline})",
                            color.0
                        )));
                    }
                    Some(_) => {}
                    None => true_min = true_min.min(deadline),
                }
                last_deadline = Some(deadline);
                store.queues.entry(color).push_back((deadline, count));
                count_for_color = count_for_color.checked_add(count).ok_or_else(overflow)?;
            }
            *store.counts.entry(color) = count_for_color;
            store.total = store.total.checked_add(count_for_color).ok_or_else(overflow)?;
            Ok(())
        })?;
        store.min_due = r.get_u64("pending min_due")?;
        if store.min_due > true_min {
            return Err(SnapError::Invalid(format!(
                "pending min_due {} is above an actual pending deadline {}",
                store.min_due, true_min
            )));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ColorId = ColorId(0);
    const B: ColorId = ColorId(1);

    #[test]
    fn arrive_merges_same_deadline() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 4, 3);
        assert_eq!(p.count(A), 5);
        assert_eq!(p.profile(A).collect::<Vec<_>>(), vec![(4, 5)]);
    }

    #[test]
    fn execute_takes_earliest_deadlines_first() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 8, 2);
        assert_eq!(p.execute(A, 3), 3);
        assert_eq!(p.profile(A).collect::<Vec<_>>(), vec![(8, 1)]);
        assert_eq!(p.count(A), 1);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn execute_caps_at_pending() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 1);
        assert_eq!(p.execute(A, 10), 1);
        assert_eq!(p.execute(A, 10), 0);
        assert!(p.is_idle(A));
    }

    #[test]
    fn execute_unknown_color_is_zero() {
        let mut p = PendingStore::new();
        assert_eq!(p.execute(ColorId(9), 3), 0);
    }

    #[test]
    fn drop_due_removes_expired_only() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 6, 1);
        p.arrive(B, 4, 5);
        let mut out = Vec::new();
        let dropped = p.drop_due(4, &mut out);
        assert_eq!(dropped, 7);
        assert_eq!(out, vec![(A, 2), (B, 5)]);
        assert_eq!(p.count(A), 1);
        assert_eq!(p.count(B), 0);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn drop_due_before_deadline_is_noop() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        let mut out = Vec::new();
        assert_eq!(p.drop_due(3, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn earliest_deadline_tracks_front() {
        let mut p = PendingStore::new();
        assert_eq!(p.earliest_deadline(A), None);
        p.arrive(A, 4, 1);
        p.arrive(A, 8, 1);
        assert_eq!(p.earliest_deadline(A), Some(4));
        p.execute(A, 1);
        assert_eq!(p.earliest_deadline(A), Some(8));
    }

    #[test]
    fn nonidle_iteration_in_color_order() {
        let mut p = PendingStore::new();
        p.arrive(B, 4, 1);
        p.arrive(ColorId(3), 4, 1);
        let v: Vec<_> = p.nonidle_colors().collect();
        assert_eq!(v, vec![B, ColorId(3)]);
    }

    #[test]
    fn zero_count_arrival_ignored() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 0);
        assert_eq!(p.total(), 0);
        assert_eq!(p.num_colors(), 0);
    }

    fn round_trip(p: &PendingStore) -> PendingStore {
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let restored = PendingStore::load_state(&mut r).unwrap();
        r.expect_end("pending").unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut p = PendingStore::new();
        p.ensure_colors(4);
        p.arrive(A, 4, 2);
        p.arrive(A, 9, 1);
        p.arrive(ColorId(3), 5, 7);
        let q = round_trip(&p);
        assert_eq!(q.total(), p.total());
        for c in [A, B, ColorId(2), ColorId(3)] {
            assert_eq!(q.count(c), p.count(c));
            assert_eq!(q.profile(c).collect::<Vec<_>>(), p.profile(c).collect::<Vec<_>>());
            assert_eq!(q.earliest_deadline(c), p.earliest_deadline(c));
        }
        assert_eq!(q.num_colors(), p.num_colors());
        // The restored min_due bound must behave identically: dropping at a
        // round below every deadline is still a fast-path no-op.
        let mut out = Vec::new();
        let mut q2 = q.clone();
        assert_eq!(q2.drop_due(3, &mut out), 0);
        assert_eq!(q2.drop_due(4, &mut out), 2);
    }

    #[test]
    fn snapshot_round_trip_after_partial_execution() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 3);
        p.arrive(A, 7, 2);
        p.arrive(B, 6, 1);
        p.execute(A, 3); // clears the deadline-4 bucket; min_due stays a lower bound
        let q = round_trip(&p);
        assert_eq!(q.profile(A).collect::<Vec<_>>(), vec![(7, 2)]);
        assert_eq!(q.total(), 3);
    }

    #[test]
    fn snapshot_rejects_non_ascending_deadlines() {
        let mut w = SnapWriter::new();
        w.put_u64(1); // coverage: one color
        w.put_u64(1); // one nonempty queue
        w.put_u32(0); // ... for color 0
        w.put_u64(2); // two queue entries
        w.put_u64(9);
        w.put_u64(1);
        w.put_u64(4); // deadline goes backwards
        w.put_u64(1);
        w.put_u64(4); // min_due
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_zero_count_entry() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u64(1);
        w.put_u64(5);
        w.put_u64(0); // zero jobs in a bucket is impossible
        w.put_u64(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_min_due_above_a_deadline() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u64(1);
        w.put_u64(5);
        w.put_u64(2);
        w.put_u64(9); // claims nothing is due before round 9, but a job dies at 5
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_out_of_range_or_unsorted_color_ids() {
        // Color id beyond the declared coverage.
        let mut w = SnapWriter::new();
        w.put_u64(1); // coverage 1
        w.put_u64(1);
        w.put_u32(5); // but color 5 listed
        w.put_u64(1);
        w.put_u64(4);
        w.put_u64(1);
        w.put_u64(4);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));

        // Descending color ids.
        let mut w = SnapWriter::new();
        w.put_u64(4);
        w.put_u64(2);
        for c in [3u32, 1] {
            w.put_u32(c);
            w.put_u64(1);
            w.put_u64(4);
            w.put_u64(1);
        }
        w.put_u64(4);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }
}
