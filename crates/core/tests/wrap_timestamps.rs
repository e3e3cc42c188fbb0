//! Counter-wrap timestamp order vs an unbounded-counter oracle.
//!
//! The ΔLRU recency scheme (§3.1.1) keeps per-color counters that wrap at
//! Δ; a wrap at a block boundary becomes the color's timestamp one block
//! later, and rankings compare those committed wrap rounds. The oracle
//! below never wraps anything: it tracks the unbounded cumulative arrival
//! total per color and derives wraps arithmetically. These tests drive a
//! [`ColorBook`] and the oracle through the same rounds — unit cases across
//! the wrap boundary plus randomized schedules — and assert the book's
//! counters, timestamps, eligible set and the full ΔLRU recency *order*
//! agree with the oracle everywhere.

use proptest::prelude::*;
use rrs_core::ranking::{lru_key, Recency};
use rrs_core::ColorBook;
use rrs_engine::{Observation, PendingStore};
use rrs_model::{ColorId, ColorTable};

/// Unbounded-counter shadow of one color's §3.1 bookkeeping.
#[derive(Clone, Debug, Default)]
struct OracleColor {
    /// Cumulative arrivals, never reset and never wrapped.
    total: u64,
    /// Arrivals consumed by wraps or discarded by retirement.
    consumed: u64,
    eligible: bool,
    last_wrap: Option<u64>,
    ts: Option<u64>,
}

/// The oracle: replays the drop/arrival-phase bookkeeping with unbounded
/// arithmetic instead of a wrapping counter.
struct Oracle {
    delta: u64,
    bounds: Vec<u64>,
    colors: Vec<OracleColor>,
}

impl Oracle {
    fn new(delta: u64, bounds: &[u64]) -> Self {
        Self { delta, bounds: bounds.to_vec(), colors: vec![OracleColor::default(); bounds.len()] }
    }

    /// The live counter value the book must agree with.
    fn counter(&self, c: usize) -> u64 {
        self.colors[c].total - self.colors[c].consumed
    }

    fn begin_round(&mut self, round: u64, arrivals: &[(ColorId, u64)], cached: &[bool]) {
        // Drop phase: commit timestamps, retire uncached eligible colors.
        for (i, s) in self.colors.iter_mut().enumerate() {
            if !round.is_multiple_of(self.bounds[i]) {
                continue;
            }
            if let Some(w) = s.last_wrap {
                if w < round {
                    s.ts = Some(w);
                }
            }
            if s.eligible && !cached[i] {
                s.eligible = false;
                // Retirement discards the partial count entirely.
                s.consumed = s.total;
            }
        }
        // Arrival phase: accumulate, then wrap at boundaries.
        for &(c, n) in arrivals {
            self.colors[c.index()].total += n;
        }
        for (i, s) in self.colors.iter_mut().enumerate() {
            if !round.is_multiple_of(self.bounds[i]) {
                continue;
            }
            let avail = s.total - s.consumed;
            if avail >= self.delta {
                s.consumed += (avail / self.delta) * self.delta;
                s.last_wrap = Some(round);
                s.eligible = true;
            }
        }
    }

    /// Colors sorted by the oracle's recency order: latest committed wrap
    /// first (never-wrapped = 0), ties by ascending color id.
    fn recency_order(&self) -> Vec<ColorId> {
        let mut ids: Vec<ColorId> = (0..self.colors.len() as u32).map(ColorId).collect();
        ids.sort_by_key(|c| (std::cmp::Reverse(self.colors[c.index()].ts.unwrap_or(0)), c.index()));
        ids
    }
}

/// Drive one round of both the book and the oracle and cross-check
/// counters, wrap rounds, committed timestamps, the eligible index and the
/// recency order.
fn step_both(
    book: &mut ColorBook,
    oracle: &mut Oracle,
    table: &ColorTable,
    round: u64,
    arrivals: &[(ColorId, u64)],
    cached: &[bool],
) {
    let pending = PendingStore::new();
    let obs = Observation {
        round,
        mini_round: 0,
        speed: 1,
        delta: oracle.delta,
        colors: table,
        arrivals,
        dropped: &[],
        pending: &pending,
        slots: &[],
    };
    book.begin_round(&obs, |c| cached[c.index()]);
    oracle.begin_round(round, arrivals, cached);

    for i in 0..oracle.colors.len() {
        let c = ColorId(i as u32);
        let s = book.state(c);
        let o = &oracle.colors[i];
        assert_eq!(s.cnt, oracle.counter(i), "round {round}, color {c}: counter diverged");
        assert_eq!(s.last_wrap, o.last_wrap, "round {round}, color {c}: wrap round diverged");
        assert_eq!(s.ts, o.ts, "round {round}, color {c}: committed timestamp diverged");
        assert_eq!(s.eligible, o.eligible, "round {round}, color {c}: eligibility diverged");
        assert_eq!(
            Recency::from_ts(s.ts).value(),
            o.ts.unwrap_or(0),
            "round {round}, color {c}: recency value diverged"
        );
    }
    let eligible: Vec<ColorId> = (0..oracle.colors.len() as u32)
        .map(ColorId)
        .filter(|c| oracle.colors[c.index()].eligible)
        .collect();
    assert_eq!(
        book.eligible_colors().collect::<Vec<_>>(),
        eligible,
        "round {round}: eligible index diverged"
    );
    let mut ids: Vec<ColorId> = (0..oracle.colors.len() as u32).map(ColorId).collect();
    ids.sort_by_key(|&c| lru_key(book, c));
    assert_eq!(ids, oracle.recency_order(), "round {round}: \u{0394}LRU order diverged");
}

#[test]
fn order_flips_exactly_when_a_later_wrap_commits() {
    let table = ColorTable::from_bounds(&[4, 4]);
    let (a, b) = (ColorId(0), ColorId(1));
    let delta = 3;
    let mut book = ColorBook::new(delta);
    let mut oracle = Oracle::new(delta, &[4, 4]);
    let cached = [true, true];

    // Round 0: color a wraps (3 >= Δ); b stays below the wrap bound.
    step_both(&mut book, &mut oracle, &table, 0, &[(a, 3), (b, 2)], &cached);
    // Nothing committed yet: both at recency 0, order is (a, b) by id.
    assert!(lru_key(&book, a) < lru_key(&book, b));

    // Round 4: a's wrap commits (ts=0... which equals "never" numerically);
    // b now wraps (2+1 = 3 >= Δ).
    step_both(&mut book, &mut oracle, &table, 4, &[(b, 1)], &cached);
    assert_eq!(book.state(a).ts, Some(0));
    assert_eq!(book.state(b).ts, None);
    // Paper convention: a committed wrap at round 0 has the same numeric
    // recency as never-wrapped, so the id tiebreak still puts a first.
    assert!(lru_key(&book, a) < lru_key(&book, b));

    // Round 8: b's round-4 wrap commits and b becomes the more recent one.
    step_both(&mut book, &mut oracle, &table, 8, &[], &cached);
    assert_eq!(book.state(b).ts, Some(4));
    assert!(lru_key(&book, b) < lru_key(&book, a), "later wrap must outrank earlier");

    // Round 8 arrivals wrapped a again (checked inside step_both); by
    // round 12 a's newer wrap commits and the order flips back.
    step_both(&mut book, &mut oracle, &table, 12, &[(a, 3)], &cached);
}

#[test]
fn retirement_discards_partial_counts_in_both_models() {
    let table = ColorTable::from_bounds(&[2]);
    let a = ColorId(0);
    let delta = 4;
    let mut book = ColorBook::new(delta);
    let mut oracle = Oracle::new(delta, &[2]);

    // Wrap at round 0 (4 >= Δ) with 2 left over; cached through round 2.
    step_both(&mut book, &mut oracle, &table, 0, &[(a, 6)], &[true]);
    assert_eq!(book.state(a).cnt, 2);
    // Round 2, not cached: retires, partial count discarded.
    step_both(&mut book, &mut oracle, &table, 2, &[], &[false]);
    assert_eq!(book.state(a).cnt, 0);
    assert!(!book.state(a).eligible);
    // The color must now re-accumulate a full Δ from zero to wrap again.
    step_both(&mut book, &mut oracle, &table, 4, &[(a, 3)], &[true]);
    assert!(!book.state(a).eligible);
    step_both(&mut book, &mut oracle, &table, 6, &[(a, 1)], &[true]);
    assert!(book.state(a).eligible);
}

#[test]
fn multi_delta_batch_consumes_every_full_multiple() {
    let table = ColorTable::from_bounds(&[1]);
    let a = ColorId(0);
    let delta = 3;
    let mut book = ColorBook::new(delta);
    let mut oracle = Oracle::new(delta, &[1]);
    // 11 jobs at once: one wrap event consumes 9 = 3·Δ, leaving 2.
    step_both(&mut book, &mut oracle, &table, 0, &[(a, 11)], &[true]);
    assert_eq!(book.state(a).cnt, 2);
    assert_eq!(book.state(a).last_wrap, Some(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random batched schedules over three colors with mixed bounds: the
    /// wrapping-counter book and the unbounded oracle must agree on every
    /// counter, timestamp and the full recency order, every round.
    #[test]
    fn random_schedules_agree_with_unbounded_oracle(
        delta in 1u64..5,
        arrivals in prop::collection::vec(0u64..5, 3 * 33),
        cache_bits in prop::collection::vec(0u8..2, 3 * 33),
    ) {
        let bounds = [1u64, 2, 4];
        let table = ColorTable::from_bounds(&bounds);
        let mut book = ColorBook::new(delta);
        let mut oracle = Oracle::new(delta, &bounds);
        for round in 0..33u64 {
            let mut batch: Vec<(ColorId, u64)> = Vec::new();
            for (i, &d) in bounds.iter().enumerate() {
                // Arrivals only at the color's block boundaries.
                let n = arrivals[round as usize * 3 + i];
                if round % d == 0 && n > 0 {
                    batch.push((ColorId(i as u32), n));
                }
            }
            let cached: Vec<bool> =
                (0..3).map(|i| cache_bits[round as usize * 3 + i] == 1).collect();
            step_both(&mut book, &mut oracle, &table, round, &batch, &cached);
        }
    }
}
