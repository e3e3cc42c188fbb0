//! Counter-wrap timestamp order vs an unbounded-counter oracle.
//!
//! The ΔLRU recency scheme (§3.1.1) keeps per-color counters that wrap at
//! Δ; a wrap at a block boundary becomes the color's timestamp one block
//! later, and rankings compare those committed wrap rounds. The oracle
//! below never wraps anything: it tracks the unbounded cumulative arrival
//! total per color and derives wraps arithmetically, walks every color at
//! every boundary, and keeps a deadline per color. These tests drive a
//! [`ColorBook`] and the oracle through the same rounds — unit cases across
//! the wrap boundary plus randomized schedules, some with a checkpoint
//! reload partway — and assert the book's counters, timestamps, deadlines,
//! eligible set, lemma counters and the full ΔLRU recency *order* agree
//! with the oracle everywhere.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rrs_core::ranking::{lru_key, Recency};
use rrs_core::{AlgoMetrics, ColorBook};
use rrs_engine::{Observation, PendingStore};
use rrs_model::{ColorId, ColorTable, SnapReader, SnapWriter};

/// Unbounded-counter shadow of one color's §3.1 bookkeeping.
#[derive(Clone, Debug, Default)]
struct OracleColor {
    /// Whether the color has ever appeared in an arrival batch.
    touched: bool,
    /// Cumulative arrivals, never reset and never wrapped.
    total: u64,
    /// Arrivals consumed by wraps or discarded by retirement.
    consumed: u64,
    /// `k + D` for the color's latest boundary `k` since it was touched.
    deadline: u64,
    eligible: bool,
    last_wrap: Option<u64>,
    ts: Option<u64>,
    epoch_active: bool,
}

/// The oracle: replays the drop/arrival-phase bookkeeping with unbounded
/// arithmetic instead of a wrapping counter, and counts the lemma metrics.
struct Oracle {
    delta: u64,
    bounds: Vec<u64>,
    colors: Vec<OracleColor>,
    metrics: AlgoMetrics,
    super_epoch_threshold: Option<u64>,
    super_epoch_colors: BTreeSet<usize>,
}

impl Oracle {
    fn new(delta: u64, bounds: &[u64]) -> Self {
        Self {
            delta,
            bounds: bounds.to_vec(),
            colors: vec![OracleColor::default(); bounds.len()],
            metrics: AlgoMetrics::default(),
            super_epoch_threshold: None,
            super_epoch_colors: BTreeSet::new(),
        }
    }

    /// The live counter value the book must agree with.
    fn counter(&self, c: usize) -> u64 {
        self.colors[c].total - self.colors[c].consumed
    }

    fn begin_round(&mut self, round: u64, arrivals: &[(ColorId, u64)], cached: &[bool]) {
        // Drop phase: commit timestamps, retire uncached eligible colors.
        // Commits count toward super-epochs in ascending bound, then
        // ascending id.
        let mut order: Vec<usize> = (0..self.colors.len()).collect();
        order.sort_by_key(|&i| (self.bounds[i], i));
        for i in order {
            let s = &mut self.colors[i];
            if !round.is_multiple_of(self.bounds[i]) {
                continue;
            }
            if let Some(w) = s.last_wrap {
                if w < round && s.ts != Some(w) {
                    s.ts = Some(w);
                    self.metrics.timestamp_updates += 1;
                    if let Some(t) = self.super_epoch_threshold {
                        self.super_epoch_colors.insert(i);
                        if self.super_epoch_colors.len() as u64 >= t {
                            self.metrics.super_epochs += 1;
                            self.super_epoch_colors.clear();
                        }
                    }
                }
            }
            if s.eligible && !cached[i] {
                s.eligible = false;
                // Retirement discards the partial count entirely.
                s.consumed = s.total;
                if s.epoch_active {
                    s.epoch_active = false;
                    self.metrics.active_epochs -= 1;
                    self.metrics.completed_epochs += 1;
                }
            }
        }
        // Arrival phase: accumulate, then refresh and wrap at boundaries.
        for &(c, n) in arrivals {
            let s = &mut self.colors[c.index()];
            s.touched = true;
            s.total += n;
            if n > 0 && !s.epoch_active {
                s.epoch_active = true;
                self.metrics.active_epochs += 1;
            }
        }
        for (i, s) in self.colors.iter_mut().enumerate() {
            if !s.touched || !round.is_multiple_of(self.bounds[i]) {
                continue;
            }
            s.deadline = round + self.bounds[i];
            let avail = s.total - s.consumed;
            if avail >= self.delta {
                s.consumed += (avail / self.delta) * self.delta;
                s.last_wrap = Some(round);
                s.eligible = true;
                self.metrics.counter_wraps += 1;
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

fn save(book: &ColorBook) -> Vec<u8> {
    let mut w = SnapWriter::new();
    book.save_state(&mut w);
    w.finish()
}

/// Cross-check one book against the oracle: counters, wrap rounds,
/// committed timestamps, deadlines, epochs, the lemma counters, the
/// eligible index and the recency order.
fn check(book: &ColorBook, oracle: &Oracle, round: u64) {
    for i in 0..oracle.colors.len() {
        let c = ColorId(i as u32);
        let s = book.state(c);
        let o = &oracle.colors[i];
        assert_eq!(s.cnt, oracle.counter(i), "round {round}, color {c}: counter diverged");
        assert_eq!(s.last_wrap, o.last_wrap, "round {round}, color {c}: wrap round diverged");
        assert_eq!(s.ts, o.ts, "round {round}, color {c}: committed timestamp diverged");
        assert_eq!(s.eligible, o.eligible, "round {round}, color {c}: eligibility diverged");
        assert_eq!(book.deadline(c), o.deadline, "round {round}, color {c}: deadline diverged");
        assert_eq!(s.epoch_active, o.epoch_active, "round {round}, color {c}: epoch diverged");
        assert_eq!(
            Recency::from_ts(s.ts).value(),
            o.ts.unwrap_or(0),
            "round {round}, color {c}: recency value diverged"
        );
    }
    assert_eq!(book.metrics, oracle.metrics, "round {round}: lemma counters diverged");
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

/// Drive one round of every book and the oracle, check each book against
/// the oracle, and require every book to save the first one's bytes.
fn step_all(
    books: &mut [ColorBook],
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
    for book in books.iter_mut() {
        book.begin_round(&obs, |c| cached[c.index()]);
    }
    oracle.begin_round(round, arrivals, cached);
    for book in books.iter() {
        check(book, oracle, round);
    }
    if let Some((first, rest)) = books.split_first() {
        let bytes = save(first);
        for book in rest {
            assert!(save(book) == bytes, "round {round}: a reloaded book saves other bytes");
        }
    }
}

/// Drive one round of a single book and the oracle, and cross-check them.
fn step_both(
    book: &mut ColorBook,
    oracle: &mut Oracle,
    table: &ColorTable,
    round: u64,
    arrivals: &[(ColorId, u64)],
    cached: &[bool],
) {
    step_all(std::slice::from_mut(book), oracle, table, round, arrivals, cached);
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

/// Two colors per bound, the longest bound at the lowest id: a round-0
/// batch in id order creates the bound-4 bucket before the bound-1 one, so
/// bucket creation order differs from the bound order commits run in.
const BOUNDS: [u64; 6] = [4, 2, 1, 4, 2, 1];
const ROUNDS: u64 = 33;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random schedules over two colors of each of three bounds, with
    /// arrivals in any round: batched input is every paper policy's
    /// contract, but the book's off-boundary rule (a bare Section 3 policy
    /// on unbatched input) holds in every build, and off-boundary arrivals
    /// exercise its first-refresh and pending-wrap paths. The
    /// wrapping-counter book and the unbounded oracle must agree on every
    /// counter, timestamp, deadline, lemma counter (super-epochs under a
    /// random threshold, which pins the commit order) and the full recency
    /// order, every round. Partway through, a second book loads the first
    /// one's snapshot; from then on both run every round, must save
    /// identical bytes, and must each agree with the oracle.
    #[test]
    fn random_schedules_agree_with_unbounded_oracle(
        delta in 1u64..5,
        threshold in 1u64..4,
        reload_at in 0u64..ROUNDS,
        arrivals in prop::collection::vec(0u64..5, BOUNDS.len() * ROUNDS as usize),
        cache_bits in prop::collection::vec(0u8..2, BOUNDS.len() * ROUNDS as usize),
    ) {
        let n = BOUNDS.len();
        let table = ColorTable::from_bounds(&BOUNDS);
        let mut books = vec![ColorBook::new(delta).with_super_epoch_threshold(threshold)];
        let mut oracle = Oracle::new(delta, &BOUNDS);
        oracle.super_epoch_threshold = Some(threshold);
        for round in 0..ROUNDS {
            if round == reload_at {
                let bytes = save(&books[0]);
                let mut reloaded = ColorBook::new(delta).with_super_epoch_threshold(threshold);
                reloaded.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
                prop_assert!(save(&reloaded) == bytes, "round {round}: reload changed the bytes");
                books.push(reloaded);
            }
            let mut batch: Vec<(ColorId, u64)> = Vec::new();
            for i in 0..n {
                let mut jobs = arrivals[round as usize * n + i];
                if round == 0 && i == 0 {
                    jobs = jobs.max(1); // materialize the bound-4 bucket first
                }
                if jobs > 0 {
                    batch.push((ColorId(i as u32), jobs));
                }
            }
            let cached: Vec<bool> =
                (0..n).map(|i| cache_bits[round as usize * n + i] == 1).collect();
            step_all(&mut books, &mut oracle, &table, round, &batch, &cached);
        }
    }
}
