//! Memoized, canonicalized, Pareto-pruned exact OPT solver (DESIGN.md §16).
//!
//! Same problem as [`crate::opt`] — exact offline OPT for `m` resources —
//! rebuilt around four ideas that together push exact certification an
//! order of magnitude past the plain DP under the same state budget:
//!
//! 1. **Canonical reduced state keys.** A state is still
//!    `(cache multiset, pending profile)`, but before it is memoized it is
//!    canonicalized: a cached color with no pending jobs and no future
//!    arrivals is clamped to the black sentinel (keeping it is
//!    behaviorally identical to parking the slot, because removal is free
//!    and the color can never be requested again), and colors that are
//!    *interchangeable* — identical delay bound and identical arrival
//!    train over the whole horizon — have their per-color loads relabeled
//!    into a sorted canonical order, quotienting out the permutation
//!    symmetry the genome mutator's "duplicate a gene" step produces in
//!    almost every adversary corpus entry. The canonical state is packed
//!    into a fixed-width big-endian byte key (widths derived from the
//!    instance: colors, max bound, total jobs), so byte-lexicographic
//!    order equals field-lexicographic order and the memo table is a
//!    plain `BTreeMap<Vec<u8>, _>` — deterministic iteration, no hashing.
//! 2. **Pareto-front dominance pruning.** Within a layer, two states with
//!    the same cache key are comparable: if state A's pending profile is
//!    prefix-dominated (for every color and every deadline, A has at most
//!    as many jobs due) and A's accumulated `(cost, reconfigs, drops)`
//!    triple is lexicographically no worse, then any completion of B is
//!    matched or beaten by the same completion of A (run B's schedule
//!    from A: reconfigurations are identical, drops never larger). B is
//!    pruned before it is ever expanded.
//! 3. **Guarded exactness.** The cooperative interrupt flag and the exact
//!    cumulative `state_budget` accounting of the plain DP carry over
//!    unchanged: `Ok ⇒ exact` with the lexicographically minimal
//!    `(cost, reconfigs, drops)` breakdown. On interruption or budget
//!    trip, the live frontier is checkpointed into the [`OptCache`] (when
//!    one is supplied), and the next call **resumes from that exact
//!    round** — the differential battery proves resumed solves equal
//!    uninterrupted ones. A checkpoint read back from a file resumes only
//!    if it fits the instance ([`SolveCtx::resumable`]).
//! 4. **One serial layer loop.** Each layer expands in one pass over the
//!    ordered frontier, and successors merge in that same order, so the
//!    memo table — and therefore every output byte — is a pure function
//!    of the instance. The solver runs on the calling thread; callers that
//!    price many instances fan out across them instead.
//!
//! The solver never reconstructs schedules: [`OptConfig::reconstruct`] is
//! ignored and [`MemoResult::schedule`]-equivalent data is not produced.
//! Callers that need a replayable [`rrs_engine::FixedSchedule`] use
//! [`crate::opt::solve_opt`]; the battery in `tests/opt_memo_diff.rs`
//! cross-certifies the two (and `brute.rs`) against each other.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use rrs_model::{ColorId, Instance};

use crate::cache::{instance_digest, OptCache, PartialSolve, SolvedEntry};
use crate::opt::{
    apply_arrivals, apply_drops, apply_execution, multisets, reconfig_count, OptConfig, OptError,
    BLACK,
};

/// Accumulated `(cost, reconfigs, drops)`; tuple `Ord` is the
/// lexicographic order the Bellman merge minimizes.
type Tri = (u64, u64, u64);

/// Skip pairwise dominance checks in same-cache groups larger than this:
/// keeps pruning O(cap²) per group worst-case. Deterministic (a pure
/// function of the layer), so skipping never breaks reproducibility.
const DOMINANCE_GROUP_CAP: usize = 256;

/// Deterministic counters from one memoized solve. All pure functions of
/// `(instance, m, config, cache-state)` — they feed the `opt` bench
/// suite's hard-gated deterministic block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// States kept in the memo table across all layers (== final
    /// `states_explored`).
    pub solved_states: u64,
    /// States discarded by Pareto dominance pruning before expansion.
    pub pruned_states: u64,
    /// Whole-solve answers served from the persisted cache index.
    pub cache_hits: u64,
    /// Persisted-cache consultations (one per solve given a cache).
    pub cache_lookups: u64,
    /// Solves that resumed from a checkpointed partial frontier.
    pub partial_resumes: u64,
    /// High-water mark of memo-table bytes held across layers (packed
    /// keys + triples; the table's footprint telemetry).
    pub peak_memo_bytes: u64,
}

/// The result of a memoized solve: the exact optimum plus its stats.
#[derive(Clone, Debug)]
pub struct MemoResult {
    /// Optimal total cost `Δ·reconfigs + drops`.
    pub cost: u64,
    /// Reconfigurations in the lexicographically minimal optimum.
    pub reconfigs: u64,
    /// Drops in the lexicographically minimal optimum.
    pub drops: u64,
    /// Total states explored (kept states, summed over layers).
    pub states_explored: usize,
    /// Deterministic solve counters.
    pub stats: MemoStats,
}

/// Minimal bytes that hold `v` (at least 1).
fn bytes_for(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(8).max(1)
}

/// Append `v` big-endian in exactly `w` bytes.
fn put_be(buf: &mut Vec<u8>, v: u64, w: usize) {
    debug_assert!(w == 8 || v < 1u64 << (8 * w), "value {v} overflows {w}-byte field");
    for i in (0..w).rev() {
        buf.push((v >> (8 * i)) as u8);
    }
}

/// Read a `w`-byte big-endian value at `pos`.
fn get_be(buf: &[u8], pos: usize, w: usize) -> u64 {
    let mut v = 0u64;
    for &b in &buf[pos..pos + w] {
        v = (v << 8) | u64::from(b);
    }
    v
}

/// Per-solve precomputed context: instance-derived key widths, per-color
/// liveness horizon, and interchangeable-color classes.
struct SolveCtx {
    m: usize,
    delta: u64,
    horizon: u64,
    total_jobs: u64,
    /// Last round with arrivals of each color; `None` = never requested.
    last_arrival: Vec<Option<u64>>,
    /// Interchangeable-color classes (same bound, identical arrival
    /// train) with at least two members, member ids ascending.
    classes: Vec<Vec<u32>>,
    /// Key field widths: color id (all-ones = black), relative deadline,
    /// pending count.
    color_w: usize,
    rel_w: usize,
    cnt_w: usize,
}

impl SolveCtx {
    fn new(inst: &Instance, m: usize) -> Self {
        let max_id = inst.colors.iter().map(|(c, _)| c.0).max().map_or(0, |v| v as u64 + 1);
        let mut last_arrival: Vec<Option<u64>> = vec![None; max_id as usize];
        let mut trains: Vec<Vec<(u64, u64)>> = vec![Vec::new(); max_id as usize];
        for (round, req) in inst.requests.iter() {
            for &(c, n) in req.pairs() {
                if n == 0 || (c.0 as u64) >= max_id {
                    continue;
                }
                trains[c.0 as usize].push((round, n));
                last_arrival[c.0 as usize] = Some(round);
            }
        }
        // Interchangeable classes: group ids by (bound, arrival train).
        type Shape = (u64, Vec<(u64, u64)>);
        let mut by_shape: BTreeMap<Shape, Vec<u32>> = BTreeMap::new();
        for (c, bound) in inst.colors.iter() {
            let train = trains.get(c.0 as usize).cloned().unwrap_or_default();
            by_shape.entry((bound, train)).or_default().push(c.0);
        }
        let mut classes: Vec<Vec<u32>> = by_shape
            .into_values()
            .filter(|members| members.len() >= 2)
            .map(|mut members| {
                members.sort_unstable();
                members
            })
            .collect();
        classes.sort_unstable();

        let max_bound = inst.colors.iter().map(|(_, d)| d).max().unwrap_or(1);
        Self {
            m,
            delta: inst.delta,
            horizon: inst.horizon(),
            total_jobs: inst.total_jobs(),
            last_arrival,
            classes,
            color_w: bytes_for(max_id),
            rel_w: bytes_for(max_bound),
            cnt_w: bytes_for(inst.total_jobs()),
        }
    }

    /// The all-ones black sentinel for the chosen color width.
    fn black_code(&self) -> u64 {
        if self.color_w == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * self.color_w)) - 1
        }
    }

    /// Pack a canonical state into its byte key. `base` is the round the
    /// resulting layer feeds: deadlines are stored relative to it
    /// (`rel = deadline - base`), which both narrows the field and acts
    /// as the past-deadline clamp — anything at or below the base would
    /// already have been dropped, so `rel` is always in range.
    fn pack(&self, cache: &[u32], pending: &[(u32, u64, u64)], base: u64) -> Vec<u8> {
        let mut key = Vec::with_capacity(
            self.m * self.color_w + pending.len() * (self.color_w + self.rel_w + self.cnt_w),
        );
        for &c in cache {
            let code = if c == BLACK { self.black_code() } else { u64::from(c) };
            put_be(&mut key, code, self.color_w);
        }
        for &(c, d, n) in pending {
            debug_assert!(d >= base, "pending deadline {d} below layer base {base}");
            put_be(&mut key, u64::from(c), self.color_w);
            put_be(&mut key, d - base, self.rel_w);
            put_be(&mut key, n, self.cnt_w);
        }
        key
    }

    /// Invert [`SolveCtx::pack`].
    fn unpack(&self, key: &[u8], base: u64) -> (Vec<u32>, Vec<(u32, u64, u64)>) {
        let mut cache = Vec::with_capacity(self.m);
        let mut pos = 0;
        for _ in 0..self.m {
            let code = get_be(key, pos, self.color_w);
            pos += self.color_w;
            cache.push(if code == self.black_code() { BLACK } else { code as u32 });
        }
        let entry_w = self.color_w + self.rel_w + self.cnt_w;
        let mut pending = Vec::with_capacity((key.len() - pos) / entry_w);
        while pos < key.len() {
            let c = get_be(key, pos, self.color_w) as u32;
            let rel = get_be(key, pos + self.color_w, self.rel_w);
            let n = get_be(key, pos + self.color_w + self.rel_w, self.cnt_w);
            pending.push((c, base + rel, n));
            pos += entry_w;
        }
        (cache, pending)
    }

    /// Whether `key` is exactly a key [`SolveCtx::pack`] could write for
    /// `inst`: `m` cache codes, each black or a declared color, then whole
    /// pending entries, each of a declared color, with a relative deadline
    /// below that color's bound and a count from 1 to the instance's total
    /// jobs.
    fn key_fits(&self, inst: &Instance, key: &[u8]) -> bool {
        let cache_w = self.m * self.color_w;
        let entry_w = self.color_w + self.rel_w + self.cnt_w;
        let bound = |code: u64| {
            u32::try_from(code).ok().and_then(|c| inst.colors.try_delay_bound(ColorId(c)))
        };
        let Some(entries) = key.len().checked_sub(cache_w) else { return false };
        entries % entry_w == 0
            && key[..cache_w].chunks(self.color_w).all(|code| {
                let code = get_be(code, 0, self.color_w);
                code == self.black_code() || bound(code).is_some()
            })
            && key[cache_w..].chunks(entry_w).all(|entry| {
                let rel = get_be(entry, self.color_w, self.rel_w);
                let n = get_be(entry, self.color_w + self.rel_w, self.cnt_w);
                bound(get_be(entry, 0, self.color_w)).is_some_and(|b| rel < b)
                    && (1..=self.total_jobs).contains(&n)
            })
    }

    /// Whether a checkpointed frontier holds only values a solve of `inst`
    /// could have written (DESIGN.md §16): a round at most `horizon + 1`
    /// (a budget trip on the last layer checkpoints that round), a
    /// nonempty layer of keys that [fit](SolveCtx::key_fits), triples with
    /// `drops ≤ total jobs`, `reconfigs ≤ m·round` and
    /// `cost = Δ·reconfigs + drops`, and a state count no smaller than the
    /// layer. A frontier that passes stays trusted, like an index entry.
    fn resumable(&self, inst: &Instance, partial: &PartialSolve) -> bool {
        let max_reconfigs = (self.m as u64).checked_mul(partial.round);
        partial.round <= self.horizon.saturating_add(1)
            && !partial.layer.is_empty()
            && partial.states_explored >= partial.layer.len() as u64
            && partial.layer.iter().all(|(key, &(cost, reconfigs, drops))| {
                self.key_fits(inst, key)
                    && drops <= self.total_jobs
                    && max_reconfigs.is_some_and(|max| reconfigs <= max)
                    && self.delta.checked_mul(reconfigs).and_then(|r| r.checked_add(drops))
                        == Some(cost)
            })
    }

    /// Canonicalize a successor state in place. `base` is the round the
    /// state's layer feeds (arrivals for rounds `< base` are merged).
    fn canonicalize(&self, cache: &mut Vec<u32>, pending: &mut Vec<(u32, u64, u64)>, base: u64) {
        // Dead-color clamp: a cached color with nothing pending and no
        // arrival at any round >= base behaves exactly like black.
        for slot in cache.iter_mut() {
            let c = *slot;
            if c == BLACK {
                continue;
            }
            let has_pending = pending.iter().any(|&(pc, _, _)| pc == c);
            let future = self
                .last_arrival
                .get(c as usize)
                .copied()
                .flatten()
                .is_some_and(|last| last >= base);
            if !has_pending && !future {
                *slot = BLACK;
            }
        }
        cache.sort_unstable();

        // Interchangeable-color relabel: within each class, sort the
        // member loads (cached copies, pending profile) and reassign them
        // to member ids in ascending order. Sound because class members
        // have identical bounds and identical arrival trains over the
        // whole horizon, so any permutation of them maps schedules to
        // schedules of equal cost.
        for class in &self.classes {
            let mut sigs: Vec<(u64, Vec<(u64, u64)>)> = class
                .iter()
                .map(|&c| {
                    let copies = cache.iter().filter(|&&x| x == c).count() as u64;
                    let load: Vec<(u64, u64)> = pending
                        .iter()
                        .filter(|&&(pc, _, _)| pc == c)
                        .map(|&(_, d, n)| (d, n))
                        .collect();
                    (copies, load)
                })
                .collect();
            if sigs.is_sorted() {
                continue;
            }
            sigs.sort();
            cache.retain(|x| !class.contains(x));
            pending.retain(|&(pc, _, _)| !class.contains(&pc));
            for (&c, (copies, load)) in class.iter().zip(sigs) {
                for _ in 0..copies {
                    cache.push(c);
                }
                for (d, n) in load {
                    pending.push((c, d, n));
                }
            }
            cache.sort_unstable();
            pending.sort_unstable();
        }
    }
}

/// Does pending profile `a` prefix-dominate `b`? For every color and
/// every deadline `d`, `a` must have at most as many jobs due by `d` as
/// `b`. Both profiles are sorted by `(color, deadline)`.
fn prefix_dominates(a: &[(u32, u64, u64)], b: &[(u32, u64, u64)]) -> bool {
    let mut i = 0;
    let mut j = 0;
    loop {
        let ca = a.get(i).map(|&(c, _, _)| c);
        let cb = b.get(j).map(|&(c, _, _)| c);
        let color = match (ca, cb) {
            (None, None) => return true,
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (Some(x), Some(y)) => x.min(y),
        };
        let mut cum_a = 0u64;
        let mut cum_b = 0u64;
        loop {
            let da = (i < a.len() && a[i].0 == color).then(|| a[i].1);
            let db = (j < b.len() && b[j].0 == color).then(|| b[j].1);
            let d = match (da, db) {
                (None, None) => break,
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (Some(x), Some(y)) => x.min(y),
            };
            if da == Some(d) {
                cum_a += a[i].2;
                i += 1;
            }
            if db == Some(d) {
                cum_b += b[j].2;
                j += 1;
            }
            if cum_a > cum_b {
                return false;
            }
        }
    }
}

/// Prune layer states whose same-cache siblings dominate them. Returns
/// the number pruned. Deterministic: groups are contiguous key ranges of
/// the ordered map, candidates are visited in `(triple, key)` order, and
/// oversized groups are skipped wholesale.
fn prune_dominated(layer: &mut BTreeMap<Vec<u8>, Tri>, base: u64, ctx: &SolveCtx) -> u64 {
    let cache_prefix = ctx.m * ctx.color_w;
    let mut pruned: Vec<Vec<u8>> = Vec::new();
    let mut group: Vec<(&Vec<u8>, Tri)> = Vec::new();

    let flush = |group: &mut Vec<(&Vec<u8>, Tri)>, pruned: &mut Vec<Vec<u8>>| {
        if group.len() < 2 || group.len() > DOMINANCE_GROUP_CAP {
            group.clear();
            return;
        }
        // Visit in (triple, key) order: an earlier state's triple is
        // lexicographically <= a later one's, so dominance only needs the
        // pending-prefix check.
        group.sort_by(|x, y| (x.1, x.0).cmp(&(y.1, y.0)));
        let mut survivors: Vec<Vec<(u32, u64, u64)>> = Vec::with_capacity(group.len());
        for &(key, _) in group.iter() {
            let (_, pending) = ctx.unpack(key, base);
            if survivors.iter().any(|s| prefix_dominates(s, &pending)) {
                pruned.push(key.clone());
            } else {
                survivors.push(pending);
            }
        }
        group.clear();
    };

    for (key, &tri) in layer.iter() {
        if group.last().is_some_and(|(k, _)| k[..cache_prefix] != key[..cache_prefix]) {
            flush(&mut group, &mut pruned);
        }
        group.push((key, tri));
    }
    flush(&mut group, &mut pruned);

    let count = pruned.len() as u64;
    for key in pruned {
        layer.remove(&key);
    }
    count
}

/// Expand one memoized state for `round`, merging its canonical
/// successors into `next` in deterministic enumeration order. The merge
/// is the lexicographic Bellman rule: each key keeps its smallest triple.
fn expand_state(
    ctx: &SolveCtx,
    key: &[u8],
    tri: Tri,
    round: u64,
    arrivals: &[(u32, u64, u64)],
    next: &mut BTreeMap<Vec<u8>, Tri>,
) {
    let (cache, mut pending) = ctx.unpack(key, round);
    let dropped = apply_drops(&mut pending, round);
    apply_arrivals(&mut pending, arrivals);

    let mut candidates: Vec<u32> = pending.iter().map(|&(c, _, _)| c).collect();
    candidates.extend(cache.iter().copied().filter(|&c| c != BLACK));
    candidates.push(BLACK);
    candidates.sort_unstable();
    candidates.dedup();

    for mut newcache in multisets(&candidates, ctx.m) {
        let rc = reconfig_count(&cache, &newcache);
        let mut p = pending.clone();
        // Greedy execution: each cached color runs as many
        // earliest-deadline jobs as it has copies.
        let mut i = 0;
        while i < newcache.len() {
            let c = newcache[i];
            let mut q = 1;
            while i + 1 < newcache.len() && newcache[i + 1] == c {
                q += 1;
                i += 1;
            }
            if c != BLACK {
                apply_execution(&mut p, c, q);
            }
            i += 1;
        }
        ctx.canonicalize(&mut newcache, &mut p, round + 1);
        let succ = ctx.pack(&newcache, &p, round + 1);
        let cand = (tri.0 + dropped + ctx.delta * rc, tri.1 + rc, tri.2 + dropped);
        let best = next.entry(succ).or_insert(cand);
        *best = (*best).min(cand);
    }
}

/// Checkpoint the live frontier into the cache so the next call resumes
/// where this one stopped.
fn checkpoint(
    cache: &mut Option<&mut OptCache>,
    digest: u64,
    m: usize,
    round: u64,
    layer: &BTreeMap<Vec<u8>, Tri>,
    states_explored: usize,
) {
    if let Some(c) = cache.as_deref_mut() {
        c.set_partial(PartialSolve {
            digest,
            m: m as u32,
            round,
            states_explored: states_explored as u64,
            layer: layer.clone(),
        });
    }
}

/// Solve the instance exactly for `m` resources with the memoized,
/// dominance-pruned solver.
///
/// Semantics shared with [`crate::opt::solve_opt_guarded`]: `Ok ⇒ exact`,
/// the interrupt flag is polled once per round layer, `max_states` caps
/// any single layer (after pruning), and `state_budget` caps cumulative
/// kept states. Additions:
///
/// * `cache` — consulted for a whole-solve hit before any work, updated
///   with the finished answer on success, and used to checkpoint/resume
///   the frontier across [`OptError::Interrupted`] /
///   [`OptError::BudgetExhausted`] boundaries. A checkpoint for this
///   `(instance, m)` that does not fit the instance is ignored, like one
///   for another instance: the solve starts at round 0.
/// * The returned breakdown is the **lexicographically minimal**
///   `(cost, reconfigs, drops)` triple over all optimal schedules — the
///   same rule the plain DP applies, so the two agree exactly.
/// * [`OptConfig::reconstruct`] is ignored: this solver never builds
///   schedules (use [`crate::opt::solve_opt`] for replayable schedules).
pub fn solve_opt_memoized(
    inst: &Instance,
    m: usize,
    config: OptConfig,
    interrupt: Option<&AtomicBool>,
    mut cache: Option<&mut OptCache>,
) -> Result<MemoResult, OptError> {
    assert!(m >= 1, "OPT needs at least one resource");
    let ctx = SolveCtx::new(inst, m);
    let mut stats = MemoStats::default();

    let digest = if cache.is_some() { instance_digest(inst) } else { 0 };
    if let Some(c) = cache.as_deref_mut() {
        stats.cache_lookups += 1;
        if let Some(e) = c.lookup(digest, m as u32) {
            stats.cache_hits += 1;
            stats.solved_states = e.states_explored;
            return Ok(MemoResult {
                cost: e.cost,
                reconfigs: e.reconfigs,
                drops: e.drops,
                states_explored: e.states_explored as usize,
                stats,
            });
        }
    }

    // Start fresh, or resume from a checkpointed frontier for this exact
    // (instance, m).
    let mut start_round = 0u64;
    let init = ctx.pack(&vec![BLACK; m], &[], 0);
    let mut layer: BTreeMap<Vec<u8>, Tri> = BTreeMap::new();
    layer.insert(init, (0, 0, 0));
    let mut states_explored = 1usize;
    if let Some(c) = cache.as_deref() {
        if let Some(p) = c.partial() {
            if p.digest == digest && p.m == m as u32 && ctx.resumable(inst, p) {
                start_round = p.round;
                layer = p.layer.clone();
                states_explored = usize::try_from(p.states_explored).unwrap_or(usize::MAX);
                stats.partial_resumes += 1;
            }
        }
    }

    let mut arrivals_buf: Vec<(u32, u64, u64)> = Vec::new();
    for round in start_round..=ctx.horizon {
        if interrupt.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            checkpoint(&mut cache, digest, m, round, &layer, states_explored);
            return Err(OptError::Interrupted { round });
        }
        arrivals_buf.clear();
        for &(c, n) in inst.requests.at(round).pairs() {
            arrivals_buf.push((c.0, round + inst.colors.delay_bound(c), n));
        }

        let mut next: BTreeMap<Vec<u8>, Tri> = BTreeMap::new();
        for (key, &tri) in &layer {
            expand_state(&ctx, key, tri, round, &arrivals_buf, &mut next);
        }

        stats.pruned_states += prune_dominated(&mut next, round + 1, &ctx);

        if next.len() > config.max_states {
            return Err(OptError::StateSpaceExceeded { round, states: next.len() });
        }
        // Saturating: a resumed count near the top trips the budget below
        // instead of wrapping past it.
        states_explored = states_explored.saturating_add(next.len());
        let layer_bytes: u64 = next.keys().map(|k| k.len() as u64 + 3 * 8).sum();
        stats.peak_memo_bytes = stats.peak_memo_bytes.max(layer_bytes);
        if config.state_budget.is_some_and(|budget| states_explored > budget) {
            checkpoint(&mut cache, digest, m, round + 1, &next, states_explored);
            return Err(OptError::BudgetExhausted { round, states: states_explored });
        }
        layer = next;
    }

    let &(cost, reconfigs, drops) = layer.values().min().expect("at least one terminal state");
    debug_assert_eq!(cost, ctx.delta * reconfigs + drops);
    stats.solved_states = states_explored as u64;

    if let Some(c) = cache {
        c.record(
            digest,
            m as u32,
            SolvedEntry { cost, reconfigs, drops, states_explored: states_explored as u64 },
        );
    }

    Ok(MemoResult { cost, reconfigs, drops, states_explored, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::solve_opt;
    use rrs_model::InstanceBuilder;

    fn memo(inst: &Instance, m: usize) -> MemoResult {
        solve_opt_memoized(inst, m, OptConfig::default(), None, None).expect("solves")
    }

    #[test]
    fn agrees_with_the_plain_dp_on_the_pinned_miniatures() {
        // The four pinned instances from opt.rs, full-triple equality.
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3);
        let inst = b.build();
        let r = memo(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (2, 1, 0));

        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 6);
        let inst = b.build();
        let r = memo(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (5, 1, 4));

        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(4);
        let c1 = b.color(4);
        b.arrive(0, c0, 4).arrive(4, c1, 4);
        let inst = b.build();
        let r = memo(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (2, 2, 0));

        let mut b = InstanceBuilder::new(4);
        let short = b.color(2);
        let long = b.color(8);
        for blk in 0..4 {
            b.arrive(blk * 2, short, 1);
        }
        b.arrive(0, long, 8);
        let inst = b.build();
        let r = memo(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (8, 1, 4));
    }

    #[test]
    fn canonicalization_collapses_interchangeable_colors() {
        // Two identical colors: the relabeled DP explores strictly fewer
        // states than the plain DP while agreeing on the triple.
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        let c1 = b.color(4);
        b.arrive(0, c0, 4).arrive(0, c1, 4).arrive(4, c0, 4).arrive(4, c1, 4);
        let inst = b.build();
        let plain = solve_opt(&inst, 2, OptConfig::default()).expect("plain solves");
        let m = memo(&inst, 2);
        assert_eq!((m.cost, m.reconfigs, m.drops), (plain.cost, plain.reconfigs, plain.drops));
        assert!(
            m.states_explored < plain.states_explored,
            "memo {} vs plain {}",
            m.states_explored,
            plain.states_explored
        );
    }

    #[test]
    fn dominance_pruning_fires_and_preserves_exactness() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        let c1 = b.color(2);
        for blk in 0..4 {
            b.arrive(blk * 2, c0, 2);
            b.arrive(blk * 2, c1, 1);
        }
        let inst = b.build();
        let plain = solve_opt(&inst, 1, OptConfig::default()).expect("plain solves");
        let m = memo(&inst, 1);
        assert_eq!((m.cost, m.reconfigs, m.drops), (plain.cost, plain.reconfigs, plain.drops));
        assert!(m.stats.pruned_states > 0, "expected dominance prunes on a contended instance");
    }

    #[test]
    fn empty_instance_costs_zero() {
        let inst = InstanceBuilder::new(3).build();
        let r = memo(&inst, 2);
        assert_eq!((r.cost, r.reconfigs, r.drops), (0, 0, 0));
    }

    #[test]
    fn whole_solve_cache_hits_replay_the_answer() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 2);
        let inst = b.build();
        let mut cache = OptCache::new();
        let cold = solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache))
            .expect("cold solve");
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cache.len(), 1);
        let warm = solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache))
            .expect("warm solve");
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.cache_lookups, 1);
        assert_eq!(
            (warm.cost, warm.reconfigs, warm.drops),
            (cold.cost, cold.reconfigs, cold.drops)
        );
        assert_eq!(warm.states_explored, cold.states_explored);
        // A different m is a different cache line.
        let other = solve_opt_memoized(&inst, 2, OptConfig::default(), None, Some(&mut cache))
            .expect("m=2 solve");
        assert_eq!(other.stats.cache_hits, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn interrupt_checkpoints_and_resume_matches_fresh_solve() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        let c1 = b.color(4);
        b.arrive(0, c0, 4).arrive(0, c1, 3).arrive(4, c0, 2).arrive(4, c1, 4);
        let inst = b.build();
        let fresh = memo(&inst, 1);

        let mut cache = OptCache::new();
        let flag = AtomicBool::new(true);
        let err = solve_opt_memoized(&inst, 1, OptConfig::default(), Some(&flag), Some(&mut cache));
        assert!(matches!(err, Err(OptError::Interrupted { .. })), "{err:?}");
        assert!(cache.partial().is_some(), "interrupt must checkpoint the frontier");

        flag.store(false, Ordering::Relaxed);
        let resumed =
            solve_opt_memoized(&inst, 1, OptConfig::default(), Some(&flag), Some(&mut cache))
                .expect("resumed solve");
        assert_eq!(resumed.stats.partial_resumes, 1);
        assert_eq!(
            (resumed.cost, resumed.reconfigs, resumed.drops),
            (fresh.cost, fresh.reconfigs, fresh.drops)
        );
        assert_eq!(resumed.states_explored, fresh.states_explored);
        assert!(cache.partial().is_none(), "finishing clears the checkpoint");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn budget_trip_checkpoints_and_a_bigger_budget_resumes() {
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..4).map(|_| b.color(4)).collect();
        for blk in 0..8 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        let fresh = memo(&inst, 2);

        let mut cache = OptCache::new();
        let tight =
            OptConfig { state_budget: Some(fresh.states_explored / 2), ..Default::default() };
        let err = solve_opt_memoized(&inst, 2, tight, None, Some(&mut cache));
        assert!(matches!(err, Err(OptError::BudgetExhausted { .. })), "{err:?}");
        let tripped_round = cache.partial().map(|p| p.round).expect("budget trip must checkpoint");
        assert!(tripped_round > 0);

        let resumed = solve_opt_memoized(&inst, 2, OptConfig::default(), None, Some(&mut cache))
            .expect("resume with open budget");
        assert_eq!(resumed.stats.partial_resumes, 1);
        assert_eq!(
            (resumed.cost, resumed.reconfigs, resumed.drops),
            (fresh.cost, fresh.reconfigs, fresh.drops)
        );
        assert_eq!(resumed.states_explored, fresh.states_explored, "budget accounting is exact");
    }

    #[test]
    fn guard_rails_still_trip() {
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..6).map(|_| b.color(4)).collect();
        for blk in 0..4 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        let err = solve_opt_memoized(
            &inst,
            3,
            OptConfig { max_states: 10, ..Default::default() },
            None,
            None,
        );
        assert!(matches!(err, Err(OptError::StateSpaceExceeded { .. })));
        let flag = AtomicBool::new(true);
        let err = solve_opt_memoized(&inst, 1, OptConfig::default(), Some(&flag), None);
        assert!(matches!(err, Err(OptError::Interrupted { round: 0 })));
    }

    #[test]
    fn prefix_dominance_semantics() {
        // Equal profiles dominate each other.
        let p = vec![(0u32, 4u64, 2u64), (1, 3, 1)];
        assert!(prefix_dominates(&p, &p));
        // Fewer jobs at an early deadline dominates.
        let lighter = vec![(0u32, 4u64, 1u64), (1, 3, 1)];
        assert!(prefix_dominates(&lighter, &p));
        assert!(!prefix_dominates(&p, &lighter));
        // Later deadline for the same count dominates (prefix at the
        // early point is smaller).
        let later = vec![(0u32, 5u64, 2u64), (1, 3, 1)];
        assert!(prefix_dominates(&later, &p));
        assert!(!prefix_dominates(&p, &later));
        // A color the other side lacks breaks dominance one way.
        let extra = vec![(0u32, 4u64, 2u64), (1, 3, 1), (2, 9, 1)];
        assert!(prefix_dominates(&p, &extra));
        assert!(!prefix_dominates(&extra, &p));
        // Empty dominates everything.
        assert!(prefix_dominates(&[], &p));
        assert!(!prefix_dominates(&p, &[]));
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        let c1 = b.color(8);
        b.arrive(0, c0, 3).arrive(2, c1, 5);
        let inst = b.build();
        let ctx = SolveCtx::new(&inst, 2);
        let cache = vec![c0.0, BLACK];
        let pending = vec![(c0.0, 4u64, 2u64), (c1.0, 10, 5)];
        let key = ctx.pack(&cache, &pending, 2);
        let (uc, up) = ctx.unpack(&key, 2);
        assert_eq!(uc, cache);
        assert_eq!(up, pending);
        // Byte-lex order respects field order: a heavier first pending
        // count sorts after a lighter one with equal prefix.
        let heavier = ctx.pack(&cache, &[(c0.0, 4, 3), (c1.0, 10, 5)], 2);
        assert!(key < heavier);
    }
}
