//! Memoized, canonicalized, Pareto-pruned exact OPT solver (DESIGN.md §16).
//!
//! The one production solver behind [`crate::solve_opt`]: exact offline
//! OPT for `m` resources over the model of [`crate::opt`], built around
//! ideas that together push exact certification an order of magnitude
//! past the plain DP of [`crate::plain_dp`] under the same state budget,
//! at a per-state cost with no allocation:
//!
//! 1. **Canonical reduced state keys.** A state is still
//!    `(cache multiset, pending profile)`, but before it is memoized it is
//!    canonicalized: a cached color with no pending jobs and no future
//!    arrivals is clamped to the black sentinel (keeping it is
//!    behaviorally identical to parking the slot, because removal is free
//!    and the color can never be requested again), and colors that are
//!    *interchangeable* — identical delay bound and identical nonempty
//!    arrival train over the whole horizon — have their per-color loads
//!    relabeled into a sorted canonical order, quotienting out the
//!    permutation symmetry the genome mutator's "duplicate a gene" step
//!    produces in almost every adversary corpus entry. The canonical state
//!    is packed into a fixed-width big-endian byte key (widths derived
//!    from the instance: colors, max bound, total jobs), so
//!    byte-lexicographic order equals field-lexicographic order.
//! 2. **Pareto-front dominance pruning.** Within a layer, two states with
//!    the same cache key are comparable: if state A's pending profile is
//!    prefix-dominated (for every color and every deadline, A has at most
//!    as many jobs due) and A's accumulated `(cost, reconfigs, drops)`
//!    triple is lexicographically no worse, then any completion of B is
//!    matched or beaten by the same completion of A (run B's schedule
//!    from A: reconfigurations are identical, drops never larger). B is
//!    pruned before it is ever expanded.
//! 3. **Guarded exactness.** Exact cumulative `state_budget` accounting
//!    and a per-layer `max_states` cap: `Ok ⇒ exact` with the
//!    lexicographically minimal `(cost, reconfigs, drops)` breakdown, and
//!    a solve that trips either guard returns `Err`.
//! 4. **Layers of inline keys.** A layer is a vector of entries, sorted
//!    for pruning by cache part, triple and key. Each entry holds the
//!    first 16 key bytes inline as a big-endian `u128`, zero-padded, and
//!    the rest in the layer's byte arena.
//!    Successors merge into the next layer as they are enumerated, through
//!    an open-addressed index, so a layer holds only its unique states;
//!    one state's expansion, canonicalization and packing reuse the same
//!    buffers, and the cache multisets come from an odometer.
//! 5. **One serial layer loop.** Each layer expands in one pass over the
//!    ordered frontier, so the memo table — and therefore every output
//!    byte — is a pure function of the instance. The solver runs on the
//!    calling thread; callers that price many instances fan out across
//!    them instead.
//! 6. **Early refusal.** While a layer grows, the solver keeps a lower
//!    bound on its size after pruning and refuses the instance as soon as
//!    the bound passes `max_states`, at the round where pruning the whole
//!    layer would have refused it.
//!
//! The solver never reconstructs schedules: callers that need a replayable
//! [`rrs_engine::FixedSchedule`] use the oracle
//! [`crate::plain_dp::solve_plain_dp`]; the battery in
//! `tests/opt_memo_diff.rs` cross-certifies the memo against it and
//! `brute.rs`.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;

use rrs_model::Instance;

use crate::opt::{
    apply_arrivals, apply_drops, execute_cache, reconfig_count, OptConfig, OptError, OptResult,
    BLACK,
};

/// Accumulated `(cost, reconfigs, drops)`; tuple `Ord` is the
/// lexicographic order the Bellman merge minimizes.
type Tri = (u64, u64, u64);

/// Skip pairwise dominance checks in same-cache groups larger than this:
/// keeps pruning O(cap²) per group worst-case. Deterministic (a pure
/// function of the layer), so skipping never breaks reproducibility.
const DOMINANCE_GROUP_CAP: usize = 256;

/// Key bytes a layer entry holds inline.
const INLINE: usize = 16;

/// [`SolveCtx::class_of`] for a color in no interchangeable class.
const NO_CLASS: u32 = u32::MAX;

/// Deterministic counters from one memoized solve. Both are pure
/// functions of `(instance, m, config)` — they feed the `opt` bench
/// suite's hard-gated deterministic block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// States kept in the memo table across all layers (== final
    /// `states_explored`).
    pub solved_states: u64,
    /// States discarded by Pareto dominance pruning before expansion.
    pub pruned_states: u64,
}

/// Minimal bytes that hold `v` (at least 1).
fn bytes_for(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(8).max(1)
}

/// A packed key: its first [`INLINE`] bytes as a big-endian integer,
/// zero-padded, and the rest as bytes. Padding keeps both the key and its
/// byte order: two keys of one solve differ in length by whole pending
/// entries, and no packed pending entry is all zero bytes (its count is
/// ≥ 1), so `(head, len, tail)` identifies the key and ordering by `head`
/// and then by `tail` is ordering by key bytes.
///
/// Comparisons look at the tails only when a key has one: a slice
/// comparison is a `memcmp` call even when empty, and an empty `Vec`'s
/// dangling pointer can make that call far slower than the rest of an
/// insert.
#[derive(Clone, Copy)]
struct KeyRef<'a> {
    head: u128,
    len: usize,
    tail: &'a [u8],
}

impl<'a> KeyRef<'a> {
    /// The key with these packed bytes.
    fn of_bytes(bytes: &'a [u8]) -> Self {
        let mut head = [0u8; INLINE];
        let n = bytes.len().min(INLINE);
        head[..n].copy_from_slice(&bytes[..n]);
        Self { head: u128::from_be_bytes(head), len: bytes.len(), tail: &bytes[n..] }
    }

    /// The `w`-byte big-endian field at byte `pos`.
    fn get(&self, pos: usize, w: usize) -> u64 {
        if pos + w <= INLINE {
            let v = (self.head >> (8 * (INLINE - pos - w))) as u64;
            if w == 8 {
                v
            } else {
                v & ((1 << (8 * w)) - 1)
            }
        } else {
            let byte = |i: usize| {
                if i < INLINE {
                    (self.head >> (8 * (INLINE - 1 - i))) as u8
                } else {
                    self.tail[i - INLINE]
                }
            };
            (pos..pos + w).fold(0, |v, i| (v << 8) | u64::from(byte(i)))
        }
    }

    /// Append the packed bytes to `out`.
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head.to_be_bytes()[..self.len.min(INLINE)]);
        if self.len > INLINE {
            out.extend_from_slice(self.tail);
        }
    }

    /// Byte order of the first `prefix` bytes, a key's cache part.
    fn cmp_prefix(&self, other: &Self, prefix: usize) -> CmpOrdering {
        if prefix <= INLINE {
            let shift = 8 * (INLINE - prefix);
            (self.head >> shift).cmp(&(other.head >> shift))
        } else {
            let n = prefix - INLINE;
            self.head.cmp(&other.head).then_with(|| self.tail[..n].cmp(&other.tail[..n]))
        }
    }

    /// Byte order of the packed keys.
    fn cmp_bytes(&self, other: &Self) -> CmpOrdering {
        match self.head.cmp(&other.head) {
            CmpOrdering::Equal if self.len > INLINE || other.len > INLINE => {
                self.tail.cmp(other.tail)
            }
            order => order,
        }
    }

    /// A deterministic 32-bit hash: word-wise multiply-rotate, then the
    /// `fmix64` finalizer, so every input bit reaches the low bits.
    fn hash(&self) -> u32 {
        let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        let mut h = mix(mix(self.len as u64, (self.head >> 64) as u64), self.head as u64);
        for chunk in self.tail.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h, u64::from_le_bytes(word));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        (h ^ (h >> 33)) as u32
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head
            && self.len == other.len
            && (self.len <= INLINE || self.tail == other.tail)
    }
}

/// A key being packed: a [`KeyRef`]'s parts, owned and reused.
#[derive(Default)]
struct KeyBuf {
    head: u128,
    len: usize,
    tail: Vec<u8>,
}

impl KeyBuf {
    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.tail.clear();
    }

    /// Append `v` big-endian in exactly `w` bytes.
    fn put(&mut self, v: u64, w: usize) {
        debug_assert!(w == 8 || v < 1u64 << (8 * w), "value {v} overflows {w}-byte field");
        if self.len + w <= INLINE {
            self.head |= u128::from(v) << (8 * (INLINE - self.len - w));
        } else {
            for (at, &b) in (self.len..).zip(&v.to_be_bytes()[8 - w..]) {
                if at < INLINE {
                    self.head |= u128::from(b) << (8 * (INLINE - 1 - at));
                } else {
                    self.tail.push(b);
                }
            }
        }
        self.len += w;
    }

    fn as_key(&self) -> KeyRef<'_> {
        KeyRef { head: self.head, len: self.len, tail: &self.tail }
    }
}

/// Per-solve precomputed context: instance-derived key widths, per-color
/// liveness horizon, and interchangeable-color classes.
struct SolveCtx {
    m: usize,
    delta: u64,
    horizon: u64,
    /// Last round with arrivals of each color; `None` = never requested.
    last_arrival: Vec<Option<u64>>,
    /// Interchangeable-color classes (same bound, identical nonempty
    /// arrival train) with at least two members, member ids ascending.
    classes: Vec<Vec<u32>>,
    /// Each color's index in `classes`, or [`NO_CLASS`].
    class_of: Vec<u32>,
    /// Key field widths: color id (all-ones = black), relative deadline,
    /// pending count.
    color_w: usize,
    rel_w: usize,
    cnt_w: usize,
}

/// A color of an interchangeable class present in a state (cached or
/// pending): where its cached copies and its pending entries sit.
#[derive(Clone, Copy)]
struct Member {
    class: u32,
    color: u32,
    /// Span of its copies in the sorted cache.
    copies: (usize, usize),
    /// Span of its entries in the sorted pending profile.
    load: (usize, usize),
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
        // Interchangeable classes: group requested ids by (bound, arrival
        // train). A never-requested color is never pending or cached, so
        // relabeling its class would always be the identity.
        type Shape = (u64, Vec<(u64, u64)>);
        let mut by_shape: BTreeMap<Shape, Vec<u32>> = BTreeMap::new();
        for (c, bound) in inst.colors.iter() {
            match trains.get_mut(c.0 as usize) {
                Some(train) if !train.is_empty() => {
                    by_shape.entry((bound, std::mem::take(train))).or_default().push(c.0);
                }
                _ => {}
            }
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
        let mut class_of = vec![NO_CLASS; if classes.is_empty() { 0 } else { max_id as usize }];
        for (k, class) in classes.iter().enumerate() {
            for &c in class {
                class_of[c as usize] = k as u32;
            }
        }

        let max_bound = inst.colors.iter().map(|(_, d)| d).max().unwrap_or(1);
        Self {
            m,
            delta: inst.delta,
            horizon: inst.horizon(),
            last_arrival,
            classes,
            class_of,
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

    /// Bytes of a key's cache part: the prefix a same-cache group shares.
    fn cache_bytes(&self) -> usize {
        self.m * self.color_w
    }

    /// Pack a canonical state into `key`, replacing its contents. `base` is
    /// the round the resulting layer feeds: deadlines are stored relative
    /// to it (`rel = deadline - base`), which both narrows the field and
    /// acts as the past-deadline clamp — anything at or below the base
    /// would already have been dropped, so `rel` is always in range.
    fn pack_into(&self, cache: &[u32], pending: &[(u32, u64, u64)], base: u64, key: &mut KeyBuf) {
        key.clear();
        for &c in cache {
            let code = if c == BLACK { self.black_code() } else { u64::from(c) };
            key.put(code, self.color_w);
        }
        let (rel_w, cnt_w) = (self.rel_w, self.cnt_w);
        let entry_w = self.color_w + rel_w + cnt_w;
        for &(c, d, n) in pending {
            debug_assert!(d >= base, "pending deadline {d} below layer base {base}");
            if entry_w <= 8 {
                // The whole entry as one field.
                let v = (u64::from(c) << (8 * (rel_w + cnt_w))) | ((d - base) << (8 * cnt_w)) | n;
                key.put(v, entry_w);
            } else {
                key.put(u64::from(c), self.color_w);
                key.put(d - base, rel_w);
                key.put(n, cnt_w);
            }
        }
    }

    /// Invert [`SolveCtx::pack_into`], appending to `cache` and `pending`.
    fn unpack_into(
        &self,
        key: KeyRef<'_>,
        base: u64,
        cache: &mut Vec<u32>,
        pending: &mut Vec<(u32, u64, u64)>,
    ) {
        for slot in 0..self.m {
            let code = key.get(slot * self.color_w, self.color_w);
            cache.push(if code == self.black_code() { BLACK } else { code as u32 });
        }
        self.unpack_pending_into(key, base, pending);
    }

    /// [`SolveCtx::unpack_into`] for the pending profile alone.
    fn unpack_pending_into(&self, key: KeyRef<'_>, base: u64, pending: &mut Vec<(u32, u64, u64)>) {
        let mut pos = self.cache_bytes();
        let (rel_w, cnt_w) = (self.rel_w, self.cnt_w);
        let entry_w = self.color_w + rel_w + cnt_w;
        let low = |v: u64, w: usize| v & ((1 << (8 * w)) - 1);
        while pos < key.len {
            let (c, rel, n) = if entry_w <= 8 {
                let v = key.get(pos, entry_w);
                ((v >> (8 * (rel_w + cnt_w))) as u32, low(v >> (8 * cnt_w), rel_w), low(v, cnt_w))
            } else {
                let c = key.get(pos, self.color_w) as u32;
                (c, key.get(pos + self.color_w, rel_w), key.get(pos + entry_w - cnt_w, cnt_w))
            };
            pos += entry_w;
            pending.push((c, base + rel, n));
        }
    }

    /// Canonicalize a successor state in place; `cache` and `pending` come
    /// in sorted and leave sorted. `base` is the round the state's layer
    /// feeds (arrivals for rounds `< base` are merged). `members` is a
    /// reused buffer.
    fn canonicalize(
        &self,
        cache: &mut [u32],
        pending: &mut [(u32, u64, u64)],
        base: u64,
        members: &mut Vec<Member>,
    ) {
        // Dead-color clamp: a cached color with nothing pending and no
        // arrival at any round >= base behaves exactly like black.
        for slot in cache.iter_mut() {
            let c = *slot;
            if c == BLACK {
                continue;
            }
            let has_pending = pending.binary_search_by(|&(pc, _, _)| pc.cmp(&c)).is_ok();
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
        if self.classes.is_empty() {
            return;
        }

        // Interchangeable-color relabel: within each class, sort the
        // member loads (cached copies, pending profile) and reassign them
        // to member ids in ascending order. Sound because class members
        // have identical bounds and identical arrival trains over the
        // whole horizon, so any permutation of them maps schedules to
        // schedules of equal cost. A member absent from the state carries
        // the smallest load there is, so with `j` members present the
        // sorted loads of those `j` go to the class's `j` highest ids, and
        // only classes with a member present are visited.
        members.clear();
        let class_of = |c: u32| self.class_of.get(c as usize).copied().unwrap_or(NO_CLASS);
        let load_of = |c: u32| {
            let lo = pending.partition_point(|&(pc, _, _)| pc < c);
            (lo, lo + pending[lo..].partition_point(|&(pc, _, _)| pc == c))
        };
        let mut lo = 0;
        for run in cache.chunk_by(|a, b| a == b) {
            let c = run[0];
            let class = class_of(c);
            if class != NO_CLASS {
                let copies = (lo, lo + run.len());
                members.push(Member { class, color: c, copies, load: load_of(c) });
            }
            lo += run.len();
        }
        let mut lo = 0;
        for run in pending.chunk_by(|a, b| a.0 == b.0) {
            let c = run[0].0;
            let class = class_of(c);
            if class != NO_CLASS && cache.binary_search(&c).is_err() {
                members.push(Member {
                    class,
                    color: c,
                    copies: (0, 0),
                    load: (lo, lo + run.len()),
                });
            }
            lo += run.len();
        }
        if members.is_empty() {
            return;
        }
        let sig = |x: &Member| {
            let load = pending[x.load.0..x.load.1].iter().map(|&(_, d, n)| (d, n));
            (x.copies.1 - x.copies.0, load)
        };
        members.sort_unstable_by(|a, b| {
            let ((ca, la), (cb, lb)) = (sig(a), sig(b));
            a.class.cmp(&b.class).then(ca.cmp(&cb)).then_with(|| la.cmp(lb))
        });
        let mut moved = false;
        for group in members.chunk_by(|a, b| a.class == b.class) {
            let class = &self.classes[group[0].class as usize];
            for (x, &id) in group.iter().zip(&class[class.len() - group.len()..]) {
                if x.color != id {
                    moved = true;
                    cache[x.copies.0..x.copies.1].fill(id);
                    for entry in &mut pending[x.load.0..x.load.1] {
                        entry.0 = id;
                    }
                }
            }
        }
        if moved {
            cache.sort_unstable();
            pending.sort_unstable();
        }
    }
}

/// Does pending profile `a` prefix-dominate `b`? For every color and
/// every deadline `d`, `a` must have at most as many jobs due by `d` as
/// `b`. Both profiles are sorted by `(color, deadline)`.
fn prefix_dominates(a: &[(u32, u64, u64)], b: &[(u32, u64, u64)]) -> bool {
    // Checking at `a`'s own deadlines suffices: between them `a`'s count
    // stays flat while `b`'s can only grow.
    let (mut j, mut color, mut cum_a, mut cum_b) = (0, None, 0u64, 0u64);
    for &(c, d, n) in a {
        if color != Some(c) {
            (color, cum_a, cum_b) = (Some(c), 0, 0);
            while j < b.len() && b[j].0 < c {
                j += 1;
            }
        }
        cum_a += n;
        while j < b.len() && b[j].0 == c && b[j].1 <= d {
            cum_b += b[j].2;
            j += 1;
        }
        if cum_a > cum_b {
            return false;
        }
    }
    true
}

/// One memoized state: its key's [`KeyRef::head`] inline and the rest of
/// the key in the layer's arena at `tail`.
#[derive(Clone, Copy)]
struct Entry {
    head: u128,
    tail: u32,
    len: u32,
    tri: Tri,
}

/// The key of `e`, whose tail bytes sit in `tails`.
fn key_of<'a>(tails: &'a [u8], e: &Entry) -> KeyRef<'a> {
    let len = e.len as usize;
    let tail = &tails[e.tail as usize..][..len.saturating_sub(INLINE)];
    KeyRef { head: e.head, len, tail }
}

/// One round's frontier: unique states, in pruning order once
/// [sorted](Layer::sort).
#[derive(Default)]
struct Layer {
    entries: Vec<Entry>,
    tails: Vec<u8>,
}

impl Layer {
    fn clear(&mut self) {
        self.entries.clear();
        self.tails.clear();
    }

    fn key(&self, e: &Entry) -> KeyRef<'_> {
        key_of(&self.tails, e)
    }

    /// Append a state; `None` if its key overflows the 32-bit offsets.
    fn push(&mut self, key: KeyRef<'_>, tri: Tri) -> Option<()> {
        let tail = u32::try_from(self.tails.len()).ok()?;
        let len = u32::try_from(key.len).ok()?;
        if key.len > INLINE {
            self.tails.extend_from_slice(key.tail);
        }
        self.entries.push(Entry { head: key.head, tail, len, tri });
        Some(())
    }

    /// Order the layer for pruning: by cache part (the first `prefix` key
    /// bytes), so same-cache groups are contiguous, then by triple, then
    /// by key.
    fn sort(&mut self, prefix: usize) {
        let tails = &self.tails;
        self.entries.sort_unstable_by(|a, b| {
            let (ka, kb) = (key_of(tails, a), key_of(tails, b));
            ka.cmp_prefix(&kb, prefix).then(a.tri.cmp(&b.tri)).then_with(|| ka.cmp_bytes(&kb))
        });
    }
}

/// An open-addressed hash index from keys stored elsewhere to their
/// positions there: linear probing, at most half full. It only answers
/// lookups — the solver sorts the storage before it iterates — so no
/// output depends on the hash.
#[derive(Default)]
struct Index {
    /// `(hash, id + 1)` per slot; id 0 marks an empty slot.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Index {
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((0, 0));
            self.len = 0;
        }
    }

    /// The id of the stored key with hash `hash` that `eq` accepts, or
    /// `None` after recording `fresh` under `hash`.
    fn find_or_insert(
        &mut self,
        hash: u32,
        fresh: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, 0) => {
                    self.slots[i] = (hash, fresh + 1);
                    self.len += 1;
                    return None;
                }
                (h, id) if h == hash && eq(id - 1) => return Some(id - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        for (hash, id) in old.into_iter().filter(|&(_, id)| id != 0) {
            let mut i = hash as usize & (cap - 1);
            while self.slots[i].1 != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = (hash, id);
        }
    }
}

/// The same-cache group sizes of a layer under construction, and the
/// lower bound they give on the layer's size after pruning: one state for
/// each group that pruning visits (2 to [`DOMINANCE_GROUP_CAP`] states
/// keep at least one), every state of any other group. The bound never
/// decreases while the layer grows.
#[derive(Default)]
struct Groups {
    index: Index,
    /// Each group's cache bytes, back to back.
    caches: Vec<u8>,
    sizes: Vec<u32>,
    /// Layer entries counted so far.
    counted: usize,
    floor: usize,
}

impl Groups {
    fn clear(&mut self) {
        self.index.clear();
        self.caches.clear();
        self.sizes.clear();
        self.counted = 0;
        self.floor = 0;
    }

    /// Count one more state, whose key's cache part is `cache`.
    fn add(&mut self, cache: &[u8]) {
        let (p, fresh) = (cache.len(), self.sizes.len() as u32);
        let caches = &self.caches;
        let found = self.index.find_or_insert(KeyRef::of_bytes(cache).hash(), fresh, |id| {
            &caches[id as usize * p..][..p] == cache
        });
        match found {
            None => {
                self.caches.extend_from_slice(cache);
                self.sizes.push(1);
                self.floor += 1;
            }
            Some(g) => {
                let size = &mut self.sizes[g as usize];
                *size += 1;
                match (*size as usize).cmp(&(DOMINANCE_GROUP_CAP + 1)) {
                    CmpOrdering::Less => {}
                    CmpOrdering::Equal => self.floor += DOMINANCE_GROUP_CAP,
                    CmpOrdering::Greater => self.floor += 1,
                }
            }
        }
        self.counted += 1;
    }
}

/// The layer under construction: successors merged on insert. The index
/// holds entry positions, which sorting the layer makes stale, so the
/// solver inserts nothing between a layer's sort and the next `clear`.
#[derive(Default)]
struct Frontier {
    layer: Layer,
    index: Index,
    groups: Groups,
    cache_buf: Vec<u8>,
}

impl Frontier {
    fn clear(&mut self) {
        self.layer.clear();
        self.index.clear();
        self.groups.clear();
    }

    /// Merge a successor under the lexicographic Bellman rule: a key seen
    /// before keeps its smaller triple. Returns whether the key is new, or
    /// `None` if the layer outgrows its 32-bit offsets.
    fn insert(&mut self, key: KeyRef<'_>, tri: Tri) -> Option<bool> {
        let layer = &mut self.layer;
        let fresh = u32::try_from(layer.entries.len()).ok().filter(|&id| id < u32::MAX)?;
        let found = self
            .index
            .find_or_insert(key.hash(), fresh, |id| layer.key(&layer.entries[id as usize]) == key);
        match found {
            Some(id) => {
                let e = &mut layer.entries[id as usize];
                e.tri = e.tri.min(tri);
                Some(false)
            }
            None => layer.push(key, tri).map(|()| true),
        }
    }

    /// The [`Groups`] lower bound on the layer's size after pruning, for
    /// keys whose cache part is `prefix` bytes. It never exceeds the
    /// layer's size, so the solver asks for it (and counts groups) only
    /// once the layer holds more states than the cap.
    fn floor(&mut self, prefix: usize) -> usize {
        for e in &self.layer.entries[self.groups.counted..] {
            self.cache_buf.clear();
            self.layer.key(e).write_to(&mut self.cache_buf);
            self.groups.add(&self.cache_buf[..prefix]);
        }
        self.groups.floor
    }
}

/// Reused buffers: one state's expansion and one group's pruning.
#[derive(Default)]
struct Buffers {
    key: KeyBuf,
    cache: Vec<u32>,
    pending: Vec<(u32, u64, u64)>,
    candidates: Vec<u32>,
    picks: Vec<usize>,
    next_cache: Vec<u32>,
    next_pending: Vec<(u32, u64, u64)>,
    members: Vec<Member>,
    /// Decoded pending profiles of a group's survivors, back to back.
    profiles: Vec<(u32, u64, u64)>,
    /// `(start, end, total pending jobs)` of each survivor's profile.
    survivors: Vec<(usize, usize, u64)>,
    dead: Vec<bool>,
}

/// Prune layer states whose same-cache siblings dominate them. Returns
/// the number pruned. Deterministic: the layer comes [sorted](Layer::sort),
/// so groups are contiguous and their states are visited in
/// `(triple, key)` order, and oversized groups are skipped wholesale.
fn prune_dominated(layer: &mut Layer, base: u64, ctx: &SolveCtx, s: &mut Buffers) -> u64 {
    let prefix = ctx.cache_bytes();
    let n = layer.entries.len();
    s.dead.clear();
    s.dead.resize(n, false);
    let mut start = 0;
    while start < n {
        let first = layer.key(&layer.entries[start]);
        let end = (start + 1..n)
            .find(|&i| layer.key(&layer.entries[i]).cmp_prefix(&first, prefix).is_ne())
            .unwrap_or(n);
        if (2..=DOMINANCE_GROUP_CAP).contains(&(end - start)) {
            // An earlier state's triple is lexicographically <= a later
            // one's, so dominance only needs the pending-prefix check.
            // Prefix dominance implies a total no larger, so a heavier
            // survivor is skipped unwalked.
            s.profiles.clear();
            s.survivors.clear();
            for i in start..end {
                let from = s.profiles.len();
                ctx.unpack_pending_into(layer.key(&layer.entries[i]), base, &mut s.profiles);
                let member = &s.profiles[from..];
                let total: u64 = member.iter().map(|&(_, _, n)| n).sum();
                let dominated = s
                    .survivors
                    .iter()
                    .any(|&(a, b, t)| t <= total && prefix_dominates(&s.profiles[a..b], member));
                if dominated {
                    s.dead[i] = true;
                    s.profiles.truncate(from);
                } else {
                    s.survivors.push((from, s.profiles.len(), total));
                }
            }
        }
        start = end;
    }
    let mut i = 0;
    layer.entries.retain(|_| {
        i += 1;
        !s.dead[i - 1]
    });
    (n - layer.entries.len()) as u64
}

/// Expand one memoized state for `round`, merging its canonical
/// successors into `next` in deterministic enumeration order. Trips
/// [`OptError::StateSpaceExceeded`] once `next`'s post-prune
/// [floor](Frontier::floor) passes `max_states`.
#[allow(clippy::too_many_arguments)] // one layer's loop state, threaded through
fn expand_state(
    ctx: &SolveCtx,
    layer: &Layer,
    e: &Entry,
    round: u64,
    arrivals: &[(u32, u64, u64)],
    next: &mut Frontier,
    s: &mut Buffers,
    max_states: usize,
) -> Result<(), OptError> {
    s.cache.clear();
    s.pending.clear();
    ctx.unpack_into(layer.key(e), round, &mut s.cache, &mut s.pending);
    let dropped = apply_drops(&mut s.pending, round);
    apply_arrivals(&mut s.pending, arrivals);

    s.candidates.clear();
    s.candidates.extend(s.pending.iter().map(|&(c, _, _)| c));
    s.candidates.extend(s.cache.iter().copied().filter(|&c| c != BLACK));
    s.candidates.push(BLACK);
    s.candidates.sort_unstable();
    s.candidates.dedup();

    // An odometer over the sorted multisets of size m, as nondecreasing
    // index sequences in lexicographic order.
    s.picks.clear();
    s.picks.resize(ctx.m, 0);
    loop {
        s.next_cache.clear();
        s.next_cache.extend(s.picks.iter().map(|&i| s.candidates[i]));
        let rc = reconfig_count(&s.cache, &s.next_cache);
        s.next_pending.clone_from(&s.pending);
        execute_cache(&mut s.next_pending, &s.next_cache);
        ctx.canonicalize(&mut s.next_cache, &mut s.next_pending, round + 1, &mut s.members);
        ctx.pack_into(&s.next_cache, &s.next_pending, round + 1, &mut s.key);
        let (cost, reconfigs, drops) = e.tri;
        let cand = (cost + dropped + ctx.delta * rc, reconfigs + rc, drops + dropped);
        match next.insert(s.key.as_key(), cand) {
            None => {
                return Err(OptError::StateSpaceExceeded {
                    round,
                    states: next.layer.entries.len(),
                })
            }
            Some(true) if next.layer.entries.len() > max_states => {
                let floor = next.floor(ctx.cache_bytes());
                if floor > max_states {
                    return Err(OptError::StateSpaceExceeded { round, states: floor });
                }
            }
            Some(_) => {}
        }
        let n = s.candidates.len();
        let Some(j) = s.picks.iter().rposition(|&i| i + 1 < n) else { break };
        let v = s.picks[j] + 1;
        s.picks[j..].fill(v);
    }
    Ok(())
}

/// Solve the instance exactly for `m` resources with the memoized,
/// dominance-pruned solver: the one production solver.
///
/// `Ok ⇒ exact`: `max_states` caps any single layer (after pruning), and
/// `state_budget` caps cumulative kept states. Besides:
///
/// * The returned breakdown is the **lexicographically minimal**
///   `(cost, reconfigs, drops)` triple over all optimal schedules — the
///   same rule the plain DP oracle applies, so the two agree exactly.
/// * A layer whose size after pruning must exceed `max_states` is refused
///   while it grows, at the same round; the reported `states` is then the
///   bound that tripped. A layer whose key bytes outgrow 32-bit offsets
///   is refused the same way.
pub fn solve_opt(inst: &Instance, m: usize, config: OptConfig) -> Result<OptResult, OptError> {
    assert!(m >= 1, "OPT needs at least one resource");
    let ctx = SolveCtx::new(inst, m);
    let mut stats = MemoStats::default();

    let mut s = Buffers::default();
    let mut layer = Layer::default();
    ctx.pack_into(&vec![BLACK; m], &[], 0, &mut s.key);
    layer.push(s.key.as_key(), (0, 0, 0)).expect("the initial key fits");
    let mut states_explored = 1;

    let mut next = Frontier::default();
    let mut arrivals_buf: Vec<(u32, u64, u64)> = Vec::new();
    for round in 0..=ctx.horizon {
        arrivals_buf.clear();
        for &(c, n) in inst.requests.at(round).pairs() {
            arrivals_buf.push((c.0, round + inst.colors.delay_bound(c), n));
        }

        next.clear();
        for e in &layer.entries {
            expand_state(
                &ctx,
                &layer,
                e,
                round,
                &arrivals_buf,
                &mut next,
                &mut s,
                config.max_states,
            )?;
        }
        next.layer.sort(ctx.cache_bytes());
        stats.pruned_states += prune_dominated(&mut next.layer, round + 1, &ctx, &mut s);

        let len = next.layer.entries.len();
        if len > config.max_states {
            return Err(OptError::StateSpaceExceeded { round, states: len });
        }
        states_explored += len;
        if config.state_budget.is_some_and(|budget| states_explored > budget) {
            return Err(OptError::BudgetExhausted { round, states: states_explored });
        }
        std::mem::swap(&mut layer, &mut next.layer);
    }

    let (cost, reconfigs, drops) =
        layer.entries.iter().map(|e| e.tri).min().expect("at least one terminal state");
    debug_assert_eq!(cost, ctx.delta * reconfigs + drops);
    stats.solved_states = states_explored as u64;
    Ok(OptResult { cost, reconfigs, drops, states_explored, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain_dp::solve_plain_dp;
    use proptest::prelude::*;
    use rrs_model::{ColorId, InstanceBuilder};

    fn memo(inst: &Instance, m: usize) -> OptResult {
        solve_opt(inst, m, OptConfig::default()).expect("solves")
    }

    fn plain(inst: &Instance, m: usize) -> OptResult {
        solve_plain_dp(inst, m, OptConfig::default()).expect("plain solves").0
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
        let plain = plain(&inst, 2);
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
    fn relabel_moves_loads_onto_the_highest_class_ids() {
        // Three interchangeable colors plus an unrequested one: a load on
        // the lowest id moves to the highest, the absent members keep the
        // low ids, and the unrequested color joins no class.
        let mut b = InstanceBuilder::new(1);
        let ids: Vec<u32> = (0..3).map(|_| b.color(4).0).collect();
        let idle = b.color(4).0;
        for &c in &ids {
            b.arrive(0, ColorId(c), 2);
        }
        let inst = b.build();
        let ctx = SolveCtx::new(&inst, 2);
        assert_eq!(ctx.classes, vec![ids.clone()]);
        assert_eq!(ctx.class_of.get(idle as usize), Some(&NO_CLASS));
        let mut members = Vec::new();
        let mut cache = vec![ids[0], BLACK];
        let mut pending = vec![(ids[0], 3, 1), (ids[1], 4, 2)];
        ctx.canonicalize(&mut cache, &mut pending, 1, &mut members);
        // Loads: ids[0] has (1 copy, [(3,1)]), ids[1] has (0, [(4,2)]);
        // sorted: (0, [(4,2)]) < (1, [(3,1)]) onto ids[1], ids[2].
        assert_eq!(cache, vec![ids[2], BLACK]);
        assert_eq!(pending, vec![(ids[1], 4, 2), (ids[2], 3, 1)]);
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
        let plain = plain(&inst, 1);
        let m = memo(&inst, 1);
        assert_eq!((m.cost, m.reconfigs, m.drops), (plain.cost, plain.reconfigs, plain.drops));
        assert!(m.stats.pruned_states > 0, "expected dominance prunes on a contended instance");
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
        let err = solve_opt(&inst, 3, OptConfig { max_states: 10, ..Default::default() });
        assert!(matches!(err, Err(OptError::StateSpaceExceeded { .. })));
    }

    #[test]
    fn early_refusal_trips_at_the_round_pruning_would() {
        // Under every cap, the early trip names the same round as pruning
        // the whole layer and then counting it: the round whose post-prune
        // layer (as an uncapped solve records it) first exceeds the cap.
        let mut b = InstanceBuilder::new(2);
        let colors: Vec<_> = (0..5).map(|i| b.color(2 << (i % 3))).collect();
        for r in 0..24u64 {
            for (i, &c) in colors.iter().enumerate() {
                if (r + i as u64).is_multiple_of(3) {
                    b.arrive(r, c, 1 + (r + i as u64) % 3);
                }
            }
        }
        let inst = b.build();
        // Each round's post-prune layer size, from budget trips.
        let total = memo(&inst, 2).states_explored;
        let mut sizes = Vec::new();
        let mut seen = 1;
        while seen < total {
            let cfg = OptConfig { state_budget: Some(seen), ..Default::default() };
            match solve_opt(&inst, 2, cfg) {
                Err(OptError::BudgetExhausted { states, .. }) => {
                    sizes.push(states - seen);
                    seen = states;
                }
                other => panic!("budget {seen} did not trip: {other:?}"),
            }
        }
        let widest = *sizes.iter().max().expect("at least one layer");
        for cap in [1, widest / 4, widest / 2, widest - 1] {
            let expect = sizes.iter().position(|&n| n > cap).expect("some layer exceeds the cap");
            let cfg = OptConfig { max_states: cap, ..Default::default() };
            match solve_opt(&inst, 2, cfg) {
                Err(OptError::StateSpaceExceeded { round, states }) => {
                    assert_eq!(round, expect as u64, "cap {cap}");
                    assert!(states > cap, "cap {cap}: reported {states}");
                }
                other => panic!("cap {cap}: {other:?}"),
            }
        }
        assert!(solve_opt(&inst, 2, OptConfig { max_states: widest, ..Default::default() }).is_ok());
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

    /// The packed bytes of a state, written field by field: the reference
    /// [`KeyBuf`]'s head and tail must split losslessly.
    fn packed_bytes(ctx: &SolveCtx, cache: &[u32], pending: &[(u32, u64, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64, w: usize| out.extend_from_slice(&v.to_be_bytes()[8 - w..]);
        for &c in cache {
            put(if c == BLACK { ctx.black_code() } else { u64::from(c) }, ctx.color_w);
        }
        for &(c, d, n) in pending {
            put(u64::from(c), ctx.color_w);
            put(d, ctx.rel_w);
            put(n, ctx.cnt_w);
        }
        out
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
        let mut key = KeyBuf::default();
        ctx.pack_into(&cache, &pending, 2, &mut key);
        let (mut uc, mut up) = (Vec::new(), Vec::new());
        ctx.unpack_into(key.as_key(), 2, &mut uc, &mut up);
        assert_eq!(uc, cache);
        assert_eq!(up, pending);
        // Key order respects field order: a heavier first pending count
        // sorts after a lighter one with equal prefix.
        let mut heavier = KeyBuf::default();
        ctx.pack_into(&cache, &[(c0.0, 4, 3), (c1.0, 10, 5)], 2, &mut heavier);
        assert_eq!(key.as_key().cmp_bytes(&heavier.as_key()), CmpOrdering::Less);
    }

    /// Six colors of bound 8 (so `color_w = rel_w = 1`) and 300 jobs (so
    /// `cnt_w = 2`): at m = 3 a key is 3 cache bytes plus 4 per pending
    /// entry, past [`INLINE`] from four entries on.
    fn key_ctx() -> SolveCtx {
        let mut b = InstanceBuilder::new(1);
        for _ in 0..6 {
            b.color(8);
        }
        b.arrive(0, ColorId(0), 300);
        SolveCtx::new(&b.build(), 3)
    }

    /// A random canonical state: a sorted cache multiset over black and
    /// colors 0–5, and up to 7 pending entries with distinct
    /// `(color, relative deadline)`, counts from 1 to 300 with 256 (low
    /// byte 0) drawn often.
    fn state_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u64, u64)>)> {
        let slot = prop_oneof![Just(BLACK), 0u32..6];
        let count = prop_oneof![Just(256u64), Just(1u64), 1u64..=300];
        (
            prop::collection::vec(slot, 3..=3),
            prop::collection::vec((0u32..6, 0u64..8, count), 0..=7),
        )
            .prop_map(|(mut cache, mut pending)| {
                cache.sort_unstable();
                pending.sort_unstable_by_key(|&(c, d, _)| (c, d));
                pending.dedup_by_key(|&mut (c, d, _)| (c, d));
                (cache, pending)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn inline_keys_order_and_identify_states(
            a in state_strategy(),
            b in state_strategy(),
        ) {
            let ctx = key_ctx();
            let (mut ka, mut kb) = (KeyBuf::default(), KeyBuf::default());
            ctx.pack_into(&a.0, &a.1, 0, &mut ka);
            ctx.pack_into(&b.0, &b.1, 0, &mut kb);
            let (ba, bb) = (packed_bytes(&ctx, &a.0, &a.1), packed_bytes(&ctx, &b.0, &b.1));
            // The inline head and the tail split the packed bytes losslessly.
            let mut out = Vec::new();
            ka.as_key().write_to(&mut out);
            prop_assert_eq!(&out, &ba);
            prop_assert!(KeyRef::of_bytes(&ba) == ka.as_key());
            let (mut cache, mut pending) = (Vec::new(), Vec::new());
            ctx.unpack_into(ka.as_key(), 0, &mut cache, &mut pending);
            prop_assert_eq!((cache, pending), a.clone());
            // Inline order equals the packed bytes' order, and so does the
            // cache part's.
            let p = ctx.cache_bytes();
            prop_assert_eq!(ka.as_key().cmp_bytes(&kb.as_key()), ba.cmp(&bb));
            prop_assert_eq!(ka.as_key().cmp_prefix(&kb.as_key(), p), ba[..p].cmp(&bb[..p]));
            // Distinct states never collide; equal ones merge on insert,
            // keeping the smaller triple.
            prop_assert_eq!(ka.as_key() == kb.as_key(), a == b);
            let mut frontier = Frontier::default();
            prop_assert_eq!(frontier.insert(ka.as_key(), (5, 0, 0)), Some(true));
            prop_assert_eq!(frontier.insert(kb.as_key(), (5, 0, 0)), Some(a != b));
            prop_assert_eq!(frontier.insert(kb.as_key(), (3, 0, 0)), Some(false));
            let layer = &frontier.layer;
            let merged = layer.entries.iter().find(|e| layer.key(e) == kb.as_key());
            prop_assert_eq!(merged.map(|e| e.tri), Some((3, 0, 0)));
            // Under equal triples the pruning order is the key order.
            let mut layer = Layer::default();
            layer.push(ka.as_key(), (0, 0, 0)).unwrap();
            layer.push(kb.as_key(), (0, 0, 0)).unwrap();
            layer.sort(p);
            let first = layer.key(&layer.entries[0]);
            prop_assert!(first == if ba <= bb { ka.as_key() } else { kb.as_key() });
        }
    }

    #[test]
    fn inline_keys_cover_long_keys_and_zero_bytes() {
        // The boundary cases the property must reach: a key past the
        // inline bytes, color 0, relative deadline 0, and a count of 256
        // whose low byte is 0 — against the same state one entry shorter,
        // whose zero-padded head equals the longer key's first 16 bytes.
        let ctx = key_ctx();
        let long: Vec<(u32, u64, u64)> = vec![(0, 0, 256), (0, 1, 1), (0, 2, 256), (0, 5, 7)];
        let (mut k1, mut k2) = (KeyBuf::default(), KeyBuf::default());
        ctx.pack_into(&[0, 0, BLACK], &long, 0, &mut k1);
        ctx.pack_into(&[0, 0, BLACK], &long[..3], 0, &mut k2);
        assert_eq!((k1.len, k2.len), (19, 15));
        assert_eq!(k2.head & 0xFF00, 0, "a count of 256 ends in a zero byte");
        assert_eq!(k1.head, k2.head, "only the tail tells them apart");
        let mut frontier = Frontier::default();
        assert_eq!(frontier.insert(k1.as_key(), (0, 0, 0)), Some(true));
        assert_eq!(frontier.insert(k2.as_key(), (0, 0, 0)), Some(true));
        frontier.layer.sort(ctx.cache_bytes());
        let layer = &frontier.layer;
        assert!(layer.key(&layer.entries[0]) == k2.as_key(), "a key sorts before its extensions");
        assert!(layer.key(&layer.entries[1]) == k1.as_key());
    }
}
