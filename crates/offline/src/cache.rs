//! Persisted OPT solve cache: the `RRSOPTC1` file format (DESIGN.md §16).
//!
//! [`OptCache`] is a whole-solve memo around [`solve_opt`]: an **index**
//! of finished solves keyed by `(instance digest, m)`. [`OptCache::solve`]
//! answers from the index when it holds the instance and otherwise solves
//! and records the answer, so re-pricing a cached instance is a single
//! `BTreeMap` lookup — which is what lets experiment sweeps and the
//! adversary-search fitness loop re-run over a corpus without paying for
//! the dynamic program again ("pre-solve once, query instantly").
//!
//! Only *exact* results enter the index — `Ok ⇒ exact` survives
//! persistence. The file reuses the snapshot wire conventions
//! (little-endian integers, length-prefixed byte strings and named
//! sections, trailing CRC-32) via [`SnapWriter::with_frame`], under its
//! own magic so a cache can never be mistaken for a simulator checkpoint.
//! Decoding validates strict key ascent, mirroring the snapshot format's
//! color-set discipline: any reordering, duplication, or bit damage is a
//! clean [`CacheError`], never a wrong answer. An entry that passes the
//! CRC is still checked against the instance it is served for
//! ([`OptCache::lookup`]): one no solve of that instance could have
//! written is a miss, never an answer.
//!
//! Instances are identified by an FNV-1a 64 digest of their canonical
//! text serialization ([`rrs_model::textio::to_text`]), so the identity
//! is a pure function of instance *content* — two routes to the same
//! instance (genome decode, text file, builder) share cache lines.

use std::collections::BTreeMap;
use std::fmt;

use rrs_model::snap::{SnapError, SnapReader, SnapWriter};
use rrs_model::{textio, Instance};

use crate::memo::{solve_opt, MemoStats};
use crate::opt::{OptConfig, OptError, OptResult};

/// Magic prefix identifying an OPT solve-cache file.
pub const OPT_CACHE_MAGIC: &[u8; 8] = b"RRSOPTC1";

/// Current cache format version; readers reject anything else.
pub const OPT_CACHE_VERSION: u32 = 2;

/// FNV-1a 64 over `bytes` (the offset-basis/prime pair from the FNV spec).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content digest identifying an instance in the cache: FNV-1a 64 of the
/// canonical text serialization. Deterministic across processes and
/// machines (no per-process hash seeding), cheap, and independent of how
/// the instance was constructed.
pub fn instance_digest(inst: &Instance) -> u64 {
    fnv1a64(textio::to_text(inst).as_bytes())
}

/// One finished, exact solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolvedEntry {
    /// Optimal total cost `Δ·reconfigs + drops`.
    pub cost: u64,
    /// Reconfigurations in the lexicographically minimal optimum.
    pub reconfigs: u64,
    /// Drops in the lexicographically minimal optimum.
    pub drops: u64,
    /// States the original solve explored (diagnostic; replayed into
    /// `states_explored` on a cache hit).
    pub states_explored: u64,
}

impl From<&OptResult> for SolvedEntry {
    fn from(r: &OptResult) -> Self {
        Self {
            cost: r.cost,
            reconfigs: r.reconfigs,
            drops: r.drops,
            states_explored: r.states_explored as u64,
        }
    }
}

impl SolvedEntry {
    /// Whether a solve of `inst` could have written this entry:
    /// `cost = Δ·reconfigs + drops` in checked arithmetic, and `cost` (so
    /// `drops` too) at most the instance's total jobs — dropping every job
    /// is always feasible, so OPT never costs more.
    fn fits(&self, inst: &Instance) -> bool {
        inst.delta.checked_mul(self.reconfigs).and_then(|r| r.checked_add(self.drops))
            == Some(self.cost)
            && self.cost <= inst.total_jobs()
    }
}

/// A cache decode/identity failure. Mirrors [`SnapError`] variant for
/// variant so corruption tests can pin the failure class, but renders
/// cache-specific messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// The file does not start with [`OPT_CACHE_MAGIC`].
    BadMagic,
    /// The format version is not [`OPT_CACHE_VERSION`].
    BadVersion(u32),
    /// The trailing CRC does not match the content.
    BadChecksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// The input ended before a field could be read.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A field decoded to a value the reader rejects (non-ascending keys,
    /// trailing bytes, ...).
    Invalid(String),
    /// The cache does not cover the requested `(instance, m)` — e.g. a
    /// load keyed by the wrong genome.
    UnknownInstance {
        /// Digest that was looked up.
        digest: u64,
        /// Resource count that was looked up.
        m: u32,
    },
    /// The cache's entry for `(instance, m)` is one no solve of that
    /// instance could have written (see [`OptCache::lookup`]).
    ImpossibleEntry {
        /// Digest that was looked up.
        digest: u64,
        /// Resource count that was looked up.
        m: u32,
    },
    /// The resource count is above `u32::MAX`, which the index keys by, so
    /// no entry can hold it.
    ResourcesOutOfRange(usize),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::BadMagic => write!(f, "not an opt-cache file (bad magic)"),
            CacheError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported opt-cache version {v} (this build reads v{OPT_CACHE_VERSION})"
                )
            }
            CacheError::BadChecksum { stored, computed } => write!(
                f,
                "opt cache corrupted: checksum mismatch (stored {stored:#010x}, \
                 computed {computed:#010x})"
            ),
            CacheError::Truncated { what } => {
                write!(f, "opt cache truncated while reading {what}")
            }
            CacheError::Invalid(msg) => write!(f, "invalid opt cache: {msg}"),
            CacheError::UnknownInstance { digest, m } => write!(
                f,
                "opt cache has no entry for instance digest {digest:#018x} with m={m} \
                 (wrong genome or never solved)"
            ),
            CacheError::ImpossibleEntry { digest, m } => write!(
                f,
                "opt cache entry for instance digest {digest:#018x} with m={m} is impossible \
                 for that instance (its cost must be Δ·reconfigs + drops and at most the \
                 instance's total jobs)"
            ),
            CacheError::ResourcesOutOfRange(m) => {
                write!(f, "opt cache keys resource counts as u32, and m={m} is beyond it")
            }
        }
    }
}

impl std::error::Error for CacheError {}

impl From<SnapError> for CacheError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::BadMagic => CacheError::BadMagic,
            SnapError::BadVersion(v) => CacheError::BadVersion(v),
            SnapError::BadChecksum { stored, computed } => {
                CacheError::BadChecksum { stored, computed }
            }
            SnapError::Truncated { what } => CacheError::Truncated { what },
            SnapError::Invalid(msg) => CacheError::Invalid(msg),
        }
    }
}

/// The in-memory solve cache: the finished-solve index. It is a
/// `BTreeMap`, so iteration — and hence the encoded byte stream — is a
/// pure function of content.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptCache {
    index: BTreeMap<(u64, u32), SolvedEntry>,
}

impl OptCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finished solves in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The finished solve of `inst` at `m` resources. An entry no solve of
    /// `inst` could have written — `cost ≠ Δ·reconfigs + drops`, or a cost
    /// above the instance's total jobs — is [`CacheError::ImpossibleEntry`];
    /// a consistent but wrong entry is served as it stands.
    pub fn lookup(&self, inst: &Instance, m: usize) -> Result<&SolvedEntry, CacheError> {
        let m = u32::try_from(m).map_err(|_| CacheError::ResourcesOutOfRange(m))?;
        self.checked(instance_digest(inst), inst, m)
    }

    /// [`OptCache::lookup`] under a digest already computed for `inst`.
    fn checked(&self, digest: u64, inst: &Instance, m: u32) -> Result<&SolvedEntry, CacheError> {
        let entry =
            self.index.get(&(digest, m)).ok_or(CacheError::UnknownInstance { digest, m })?;
        if entry.fits(inst) {
            Ok(entry)
        } else {
            Err(CacheError::ImpossibleEntry { digest, m })
        }
    }

    /// Record a finished solve, replacing any entry for `(digest, m)`.
    pub fn record(&mut self, digest: u64, m: u32, entry: SolvedEntry) {
        self.index.insert((digest, m), entry);
    }

    /// Solve `inst` exactly for `m` resources through the index: the
    /// [looked-up](OptCache::lookup) entry when there is one, and
    /// otherwise [`solve_opt`], whose answer is recorded (replacing an
    /// impossible entry). Returns the answer and whether the index served
    /// it; a hit reports the entry's `states_explored` as solved states
    /// and prunes nothing. A solve that fails records nothing, and neither
    /// does one at an `m` the index cannot key (above `u32::MAX`).
    pub fn solve(
        &mut self,
        inst: &Instance,
        m: usize,
        config: OptConfig,
    ) -> Result<(OptResult, bool), OptError> {
        let digest = instance_digest(inst);
        let Ok(key) = u32::try_from(m) else {
            return solve_opt(inst, m, config).map(|r| (r, false));
        };
        if let Ok(e) = self.checked(digest, inst, key) {
            let hit = OptResult {
                cost: e.cost,
                reconfigs: e.reconfigs,
                drops: e.drops,
                states_explored: usize::try_from(e.states_explored).unwrap_or(usize::MAX),
                stats: MemoStats { solved_states: e.states_explored, pruned_states: 0 },
            };
            return Ok((hit, true));
        }
        let r = solve_opt(inst, m, config)?;
        self.record(digest, key, SolvedEntry::from(&r));
        Ok((r, false))
    }

    /// All finished solves in `(digest, m)` order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32, &SolvedEntry)> {
        self.index.iter().map(|(&(d, m), e)| (d, m, e))
    }

    /// Deterministic byte accounting of the in-memory index — the cache's
    /// footprint telemetry.
    pub fn approx_bytes(&self) -> u64 {
        self.index.len() as u64 * (8 + 4 + 4 * 8)
    }

    /// Serialize to the `RRSOPTC1` byte format. `parse ∘ encode` is the
    /// identity, and `encode ∘ parse` reproduces input bytes exactly —
    /// the corruption battery relies on both.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_frame(OPT_CACHE_MAGIC, OPT_CACHE_VERSION);
        w.section("index", |s| {
            s.put_u64(self.index.len() as u64);
            for (&(digest, m), e) in &self.index {
                s.put_u64(digest);
                s.put_u32(m);
                s.put_u64(e.cost);
                s.put_u64(e.reconfigs);
                s.put_u64(e.drops);
                s.put_u64(e.states_explored);
            }
        });
        w.finish()
    }

    /// Parse an `RRSOPTC1` byte string, validating frame, CRC, and strict
    /// key ascent.
    pub fn parse(bytes: &[u8]) -> Result<Self, CacheError> {
        let mut r = SnapReader::with_frame(bytes, OPT_CACHE_MAGIC, OPT_CACHE_VERSION)?;

        let mut index: BTreeMap<(u64, u32), SolvedEntry> = BTreeMap::new();
        let mut s = r.section("index")?;
        let count = s.get_u64("index count")?;
        let mut prev: Option<(u64, u32)> = None;
        for _ in 0..count {
            let digest = s.get_u64("index digest")?;
            let m = s.get_u32("index m")?;
            if prev.is_some_and(|p| p >= (digest, m)) {
                return Err(CacheError::Invalid(format!(
                    "index keys not strictly ascending at digest {digest:#018x} m={m}"
                )));
            }
            prev = Some((digest, m));
            let entry = SolvedEntry {
                cost: s.get_u64("index cost")?,
                reconfigs: s.get_u64("index reconfigs")?,
                drops: s.get_u64("index drops")?,
                states_explored: s.get_u64("index states")?,
            };
            index.insert((digest, m), entry);
        }
        s.expect_end("index section")?;
        r.expect_end("opt cache payload")?;

        Ok(Self { index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::InstanceBuilder;

    fn sample() -> OptCache {
        let mut c = OptCache::new();
        c.record(3, 1, SolvedEntry { cost: 7, reconfigs: 2, drops: 3, states_explored: 41 });
        c.record(1, 2, SolvedEntry { cost: 0, reconfigs: 0, drops: 0, states_explored: 5 });
        c
    }

    /// Δ = 2, one color of bound 4: 3 jobs at round 0 and 2 at round 4.
    fn small() -> Instance {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 2);
        b.build()
    }

    fn triple(r: &OptResult) -> (u64, u64, u64) {
        (r.cost, r.reconfigs, r.drops)
    }

    #[test]
    fn a_resource_count_beyond_u32_misses_instead_of_wrapping() {
        let inst = small();
        let mut c = OptCache::new();
        let entry = SolvedEntry { cost: 5, reconfigs: 0, drops: 5, states_explored: 1 };
        c.record(instance_digest(&inst), 1, entry);
        assert_eq!(c.lookup(&inst, 1), Ok(&entry));
        let wide = (1usize << 32) + 1;
        assert_eq!(c.lookup(&inst, wide), Err(CacheError::ResourcesOutOfRange(wide)));
    }

    #[test]
    fn encode_parse_round_trips() {
        let c = sample();
        let bytes = c.encode();
        let parsed = OptCache::parse(&bytes).expect("round trip parses");
        assert_eq!(parsed, c);
        assert_eq!(parsed.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn empty_cache_round_trips() {
        let c = OptCache::new();
        let parsed = OptCache::parse(&c.encode()).expect("empty cache parses");
        assert_eq!(parsed, c);
        assert!(parsed.is_empty());
    }

    #[test]
    fn digest_is_content_identity() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        b.arrive(0, c0, 3);
        let a = b.build();
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        b.arrive(0, c0, 3);
        let same = b.build();
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        b.arrive(0, c0, 4);
        let different = b.build();
        assert_eq!(instance_digest(&a), instance_digest(&same));
        assert_ne!(instance_digest(&a), instance_digest(&different));
    }

    #[test]
    fn non_ascending_keys_are_rejected() {
        // Hand-build an index section with descending keys and a valid CRC:
        // the strict-ascent validator must fire, not the checksum.
        let mut w = SnapWriter::with_frame(OPT_CACHE_MAGIC, OPT_CACHE_VERSION);
        w.section("index", |s| {
            s.put_u64(2);
            for digest in [5u64, 4u64] {
                s.put_u64(digest);
                s.put_u32(1);
                s.put_u64(0);
                s.put_u64(0);
                s.put_u64(0);
                s.put_u64(0);
            }
        });
        let err = OptCache::parse(&w.finish()).expect_err("descending keys must be rejected");
        assert!(matches!(err, CacheError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn foreign_frames_are_rejected() {
        // A genuine snapshot is not an opt cache.
        let snapshot = SnapWriter::new().finish();
        assert_eq!(OptCache::parse(&snapshot), Err(CacheError::BadMagic));
        // A future cache version is a clean version error.
        let future = SnapWriter::with_frame(OPT_CACHE_MAGIC, OPT_CACHE_VERSION + 1).finish();
        assert_eq!(OptCache::parse(&future), Err(CacheError::BadVersion(OPT_CACHE_VERSION + 1)));
    }

    #[test]
    fn approx_bytes_tracks_content() {
        let empty = OptCache::new();
        let full = sample();
        assert_eq!(empty.approx_bytes(), 0);
        assert!(full.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    fn whole_solve_cache_hits_replay_the_answer() {
        // A miss is `solve_opt`'s answer, recorded as one entry.
        let inst = small();
        let fresh = solve_opt(&inst, 1, OptConfig::default()).expect("fresh solve");
        let mut cache = OptCache::new();
        let (cold, hit) = cache.solve(&inst, 1, OptConfig::default()).expect("cold solve");
        assert!(!hit);
        assert_eq!(triple(&cold), triple(&fresh));
        assert_eq!(cold.states_explored, fresh.states_explored);
        assert_eq!(cold.stats, fresh.stats);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&inst, 1), Ok(&SolvedEntry::from(&fresh)));
        // A hit replays it.
        let (warm, hit) = cache.solve(&inst, 1, OptConfig::default()).expect("warm solve");
        assert!(hit);
        assert_eq!(triple(&warm), triple(&fresh));
        assert_eq!(warm.states_explored, fresh.states_explored);
        assert_eq!(
            warm.stats,
            MemoStats { solved_states: fresh.stats.solved_states, pruned_states: 0 }
        );
        // A different m is a different cache line.
        let (_, hit) = cache.solve(&inst, 2, OptConfig::default()).expect("m=2 solve");
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_hit_serves_the_recorded_entry_without_solving() {
        // A consistent entry that no solve wrote (OPT here is 2: configure
        // once and run every job) comes back as it stands: the index, not
        // the solver, answered.
        let inst = small();
        let mut cache = OptCache::new();
        let forged = SolvedEntry { cost: 5, reconfigs: 0, drops: 5, states_explored: 9 };
        cache.record(instance_digest(&inst), 1, forged);
        let (r, hit) = cache.solve(&inst, 1, OptConfig::default()).expect("hit");
        assert!(hit);
        assert_eq!(SolvedEntry::from(&r), forged);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_tripped_solve_records_nothing() {
        let inst = small();
        let mut cache = OptCache::new();
        let tight = OptConfig { state_budget: Some(1), ..Default::default() };
        let err = cache.solve(&inst, 1, tight);
        assert!(matches!(err, Err(OptError::BudgetExhausted { .. })), "{err:?}");
        assert!(cache.is_empty());
    }
}
