//! Ranking orders shared by the Section 3 algorithms.
//!
//! * The **EDF rank** (§3.1.2, reused by §3.1.3 and §3.3): nonidle colors
//!   first, then ascending deadline, breaking ties by increasing delay
//!   bound, then by the consistent order of colors. Smaller keys rank
//!   *better*.
//! * The **LRU rank** (§3.1.1): most recent timestamp first, ties broken by
//!   the consistent order of colors.
//!
//! Both keys end in the color id, so they are total orders. The policies
//! read only the best-`k` *set* of a ranking, which a linear-time
//! selection finds without sorting the rest.

use rrs_engine::PendingStore;
use rrs_model::ColorId;

use crate::book::ColorBook;

/// Total order implementing the EDF ranking; smaller is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdfKey {
    /// `false` (nonidle) sorts before `true` (idle).
    pub idle: bool,
    /// The color's current deadline `ℓ.dd`, ascending.
    pub deadline: u64,
    /// The delay bound `D_ℓ`, ascending.
    pub delay_bound: u64,
    /// Consistent order of colors.
    pub color: ColorId,
}

/// The EDF ranking key of an (eligible) color.
pub fn edf_key(book: &ColorBook, pending: &PendingStore, c: ColorId) -> EdfKey {
    let delay_bound = book.state(c).delay_bound;
    EdfKey { idle: pending.is_idle(c), deadline: book.deadline(c), delay_bound, color: c }
}

/// A committed ΔLRU recency timestamp (§3.1.1): the latest counter-wrap
/// round strictly before the current block, with the paper's "0 if no such
/// round exists" convention for colors that never committed a wrap.
///
/// The newtype pins the *comparison contract* the recency scheme depends
/// on: recency order is exactly the numeric order of committed wrap
/// rounds, with "never wrapped" below every real wrap (a real wrap round
/// can be 0 only when no wrap committed — wraps commit one block late, so
/// the earliest committed round is ≥ 1). Comparing raw `Option<u64>`s at
/// call sites would invite `None`-ordering drift; comparing anything but
/// committed rounds (e.g. raw counters, which wrap at Δ) would not be an
/// order at all. See `tests/wrap_timestamps.rs` for the oracle check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Recency(u64);

impl Recency {
    /// The recency of a committed timestamp (`None` = never wrapped = 0).
    pub fn from_ts(ts: Option<u64>) -> Self {
        Recency(ts.unwrap_or(0))
    }

    /// The paper's numeric timestamp value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Total order implementing the ΔLRU ranking; smaller is better (most
/// recent timestamp first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LruKey {
    /// Negated-by-reversal recency: more recent wraps rank better.
    pub ts_rev: std::cmp::Reverse<Recency>,
    /// Consistent order of colors.
    pub color: ColorId,
}

/// The ΔLRU ranking key of an (eligible) color.
pub fn lru_key(book: &ColorBook, c: ColorId) -> LruKey {
    LruKey { ts_rev: std::cmp::Reverse(Recency::from_ts(book.state(c).ts)), color: c }
}

/// Move the `k` colors with the smallest keys to the front of `colors`, in
/// unspecified order. For a total order `key` this front is, as a set, the
/// first `k` colors of a full sort.
fn select_top_k<K: Ord>(colors: &mut [ColorId], k: usize, key: impl FnMut(&ColorId) -> K) {
    if k > 0 && k < colors.len() {
        colors.select_nth_unstable_by_key(k - 1, key);
    }
}

/// Move the `k` best EDF-ranked colors to the front of `colors`, in
/// unspecified order.
pub fn top_k_by_edf(book: &ColorBook, pending: &PendingStore, colors: &mut [ColorId], k: usize) {
    select_top_k(colors, k, |&c| edf_key(book, pending, c));
}

/// Move the `k` best LRU-ranked colors (most recent timestamps) to the
/// front of `colors`, in unspecified order.
pub fn top_k_by_lru(book: &ColorBook, colors: &mut [ColorId], k: usize) {
    select_top_k(colors, k, |&c| lru_key(book, c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Keys with many ties in their first component, broken by id as
        /// the ranking keys are: for every `k`, the selected front equals
        /// the sorted prefix as a set.
        #[test]
        fn selected_front_is_the_sorted_prefix_as_a_set(
            ranks in prop::collection::vec(0u64..6, 0..40),
        ) {
            let key = |c: &ColorId| (ranks[c.index()], *c);
            let mut sorted: Vec<ColorId> = (0..ranks.len() as u32).map(ColorId).collect();
            sorted.sort_by_key(key);
            for k in 0..=ranks.len() {
                let mut items: Vec<ColorId> = (0..ranks.len() as u32).rev().map(ColorId).collect();
                select_top_k(&mut items, k, key);
                let mut front = items[..k].to_vec();
                front.sort_by_key(key);
                prop_assert_eq!(&front[..], &sorted[..k], "k = {}", k);
            }
        }
    }

    #[test]
    fn edf_key_orders_nonidle_first() {
        let a = EdfKey { idle: false, deadline: 10, delay_bound: 4, color: ColorId(5) };
        let b = EdfKey { idle: true, deadline: 2, delay_bound: 1, color: ColorId(0) };
        assert!(a < b, "nonidle outranks idle regardless of deadline");
    }

    #[test]
    fn edf_key_breaks_ties_by_deadline_then_bound_then_color() {
        let base = EdfKey { idle: false, deadline: 8, delay_bound: 4, color: ColorId(1) };
        let later = EdfKey { deadline: 9, ..base };
        let bigger = EdfKey { delay_bound: 8, ..base };
        let higher = EdfKey { color: ColorId(2), ..base };
        assert!(base < later);
        assert!(base < bigger);
        assert!(base < higher);
    }

    #[test]
    fn lru_key_prefers_recent_timestamps() {
        let recent =
            LruKey { ts_rev: std::cmp::Reverse(Recency::from_ts(Some(100))), color: ColorId(9) };
        let stale =
            LruKey { ts_rev: std::cmp::Reverse(Recency::from_ts(Some(3))), color: ColorId(0) };
        assert!(recent < stale);
    }

    #[test]
    fn lru_key_ties_break_by_color() {
        let ts = std::cmp::Reverse(Recency::from_ts(Some(5)));
        let a = LruKey { ts_rev: ts, color: ColorId(0) };
        let b = LruKey { ts_rev: ts, color: ColorId(1) };
        assert!(a < b);
    }

    #[test]
    fn never_wrapped_ranks_below_every_committed_wrap() {
        let never = Recency::from_ts(None);
        assert_eq!(never.value(), 0);
        assert_eq!(never, Recency::from_ts(Some(0)));
        assert!(never < Recency::from_ts(Some(1)));
    }
}
