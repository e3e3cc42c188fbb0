//! Requests (per-round job arrivals) and request sequences.

use crate::color::ColorId;

/// The jobs arriving in one round: a multiset of unit jobs encoded as
/// `(color, count)` pairs.
///
/// Invariants maintained by the constructors:
/// * colors appear at most once, in ascending (consistent) order;
/// * counts are strictly positive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Request {
    arrivals: Vec<(ColorId, u64)>,
}

impl Request {
    /// The empty request.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add `count` jobs of `color` (no-op for zero).
    pub fn add(&mut self, color: ColorId, count: u64) {
        if count == 0 {
            return;
        }
        match self.arrivals.binary_search_by_key(&color, |&(c, _)| c) {
            Ok(i) => self.arrivals[i].1 += count,
            Err(i) => self.arrivals.insert(i, (color, count)),
        }
    }

    /// The `(color, count)` pairs, ascending by color.
    #[inline]
    pub fn pairs(&self) -> &[(ColorId, u64)] {
        &self.arrivals
    }

    /// Number of jobs of the given color in this request.
    pub fn count_of(&self, color: ColorId) -> u64 {
        self.arrivals
            .binary_search_by_key(&color, |&(c, _)| c)
            .map(|i| self.arrivals[i].1)
            .unwrap_or(0)
    }

    /// Total number of jobs in the request.
    pub fn total_jobs(&self) -> u64 {
        self.arrivals.iter().map(|&(_, n)| n).sum()
    }

    /// Whether the request carries no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// A request sequence: `seq[i]` is the request received in the arrival phase
/// of round `i`. Rounds beyond the stored length receive empty requests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestSeq {
    rounds: Vec<Request>,
}

impl RequestSeq {
    /// An empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure the sequence covers rounds `0..=round` and add jobs to the
    /// request of `round`.
    pub fn add(&mut self, round: u64, color: ColorId, count: u64) {
        if count == 0 {
            return;
        }
        let idx = usize::try_from(round).expect("round fits in usize");
        if self.rounds.len() <= idx {
            self.rounds.resize_with(idx + 1, Request::empty);
        }
        self.rounds[idx].add(color, count);
    }

    /// The request of a round (empty for rounds past the stored horizon).
    pub fn at(&self, round: u64) -> &Request {
        static EMPTY: Request = Request { arrivals: Vec::new() };
        usize::try_from(round).ok().and_then(|i| self.rounds.get(i)).unwrap_or(&EMPTY)
    }

    /// Number of stored rounds (the horizon of the last arrival + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Iterate `(round, request)` over the stored horizon.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Request)> + '_ {
        self.rounds.iter().enumerate().map(|(i, r)| (i as u64, r))
    }

    /// Total jobs across all rounds.
    pub fn total_jobs(&self) -> u64 {
        self.rounds.iter().map(Request::total_jobs).sum()
    }

    /// Total jobs of one color across all rounds.
    pub fn total_jobs_of(&self, color: ColorId) -> u64 {
        self.rounds.iter().map(|r| r.count_of(color)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_and_sorts() {
        let mut r = Request::empty();
        for (c, n) in [(ColorId(2), 1), (ColorId(0), 3), (ColorId(2), 2), (ColorId(1), 0)] {
            r.add(c, n);
        }
        assert_eq!(r.pairs(), &[(ColorId(0), 3), (ColorId(2), 3)]);
        assert_eq!(r.total_jobs(), 6);
        assert_eq!(r.count_of(ColorId(2)), 3);
        assert_eq!(r.count_of(ColorId(1)), 0);
    }

    #[test]
    fn add_keeps_sorted_invariant() {
        let mut r = Request::empty();
        r.add(ColorId(5), 2);
        r.add(ColorId(1), 1);
        r.add(ColorId(5), 1);
        r.add(ColorId(3), 0);
        assert_eq!(r.pairs(), &[(ColorId(1), 1), (ColorId(5), 3)]);
    }

    #[test]
    fn empty_request() {
        let r = Request::empty();
        assert!(r.is_empty());
        assert_eq!(r.total_jobs(), 0);
    }

    #[test]
    fn seq_grows_on_demand_and_reads_past_horizon() {
        let mut s = RequestSeq::new();
        s.add(3, ColorId(0), 2);
        assert_eq!(s.len(), 4);
        assert!(s.at(0).is_empty());
        assert_eq!(s.at(3).count_of(ColorId(0)), 2);
        assert!(s.at(100).is_empty());
    }

    #[test]
    fn seq_totals() {
        let mut s = RequestSeq::new();
        s.add(0, ColorId(0), 2);
        s.add(0, ColorId(1), 1);
        s.add(4, ColorId(0), 5);
        assert_eq!(s.total_jobs(), 8);
        assert_eq!(s.total_jobs_of(ColorId(0)), 7);
        assert_eq!(s.total_jobs_of(ColorId(1)), 1);
        assert_eq!(s.iter().count(), 5);
    }

    #[test]
    fn seq_add_zero_is_noop() {
        let mut s = RequestSeq::new();
        s.add(9, ColorId(0), 0);
        assert!(s.is_empty());
    }
}
