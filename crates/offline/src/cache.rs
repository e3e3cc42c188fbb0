//! Persisted OPT solve cache: the `RRSOPTC1` file format (DESIGN.md §16).
//!
//! The memoized solver ([`crate::memo`]) prices an instance once; this
//! module makes that work durable. A cache holds two things:
//!
//! * an **index** of finished solves, keyed by `(instance digest, m)` —
//!   a whole-solve memo. Re-pricing a cached instance is a single
//!   `BTreeMap` lookup, which is what lets experiment sweeps and the
//!   adversary-search fitness loop re-run over a corpus without paying
//!   for the dynamic program again ("pre-solve once, query instantly").
//! * at most one **partial frontier**: the layer of a solve that was
//!   interrupted or ran out of budget, checkpointed so the next attempt
//!   resumes from the exact round it stopped at instead of starting over.
//!
//! Only *exact* results enter the index — `Ok ⇒ exact` survives
//! persistence. The file reuses the snapshot wire conventions
//! (little-endian integers, length-prefixed byte strings and named
//! sections, trailing CRC-32) via [`SnapWriter::with_frame`], under its
//! own magic so a cache can never be mistaken for a simulator checkpoint.
//! Decoding validates strict key ascent in both sections, mirroring the
//! snapshot v2 color-set discipline: any reordering, duplication, or
//! bit damage is a clean [`CacheError`], never a wrong answer.
//!
//! Instances are identified by an FNV-1a 64 digest of their canonical
//! text serialization ([`rrs_model::textio::to_text`]), so the identity
//! is a pure function of instance *content* — two routes to the same
//! instance (genome decode, text file, builder) share cache lines.

use std::collections::BTreeMap;
use std::fmt;

use rrs_model::snap::{SnapError, SnapReader, SnapWriter};
use rrs_model::{textio, Instance};

/// Magic prefix identifying an OPT solve-cache file.
pub const OPT_CACHE_MAGIC: &[u8; 8] = b"RRSOPTC1";

/// Current cache format version; readers reject anything else.
pub const OPT_CACHE_VERSION: u32 = 1;

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

/// A checkpointed solve frontier: the memo layer of an interrupted or
/// budget-tripped solve, exactly as the solver would hold it entering
/// `round`. Keys are the solver's canonical packed state keys (whose
/// widths are a pure function of the instance, so they re-derive on
/// resume); values are accumulated `(cost, reconfigs, drops)` triples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialSolve {
    /// Digest of the instance being solved.
    pub digest: u64,
    /// Resource count of the interrupted solve.
    pub m: u32,
    /// Next round the frontier feeds (rounds `< round` are fully priced).
    pub round: u64,
    /// Cumulative states explored when the solve stopped.
    pub states_explored: u64,
    /// The frontier itself: packed state key → accumulated triple.
    pub layer: BTreeMap<Vec<u8>, (u64, u64, u64)>,
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
    /// a bad flag byte, trailing bytes, ...).
    Invalid(String),
    /// The cache does not cover the requested `(instance, m)` — e.g. a
    /// load keyed by the wrong genome.
    UnknownInstance {
        /// Digest that was looked up.
        digest: u64,
        /// Resource count that was looked up.
        m: u32,
    },
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

/// The in-memory solve cache: finished-solve index plus at most one
/// partial frontier. Both maps are `BTreeMap`s, so iteration — and hence
/// the encoded byte stream — is a pure function of content.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptCache {
    index: BTreeMap<(u64, u32), SolvedEntry>,
    partial: Option<PartialSolve>,
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

    /// True when the index is empty (a partial may still be present).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up a finished solve.
    pub fn lookup(&self, digest: u64, m: u32) -> Option<&SolvedEntry> {
        self.index.get(&(digest, m))
    }

    /// Record a finished solve; clears a matching partial frontier (the
    /// checkpoint is obsolete once the full answer is known).
    pub fn record(&mut self, digest: u64, m: u32, entry: SolvedEntry) {
        self.index.insert((digest, m), entry);
        if self.partial.as_ref().is_some_and(|p| p.digest == digest && p.m == m) {
            self.partial = None;
        }
    }

    /// The checkpointed partial frontier, if any.
    pub fn partial(&self) -> Option<&PartialSolve> {
        self.partial.as_ref()
    }

    /// Store a partial frontier, replacing any previous one (the cache
    /// deliberately keeps only the most recent interrupted solve).
    pub fn set_partial(&mut self, partial: PartialSolve) {
        self.partial = Some(partial);
    }

    /// All finished solves in `(digest, m)` order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32, &SolvedEntry)> {
        self.index.iter().map(|(&(d, m), e)| (d, m, e))
    }

    /// Deterministic byte accounting of the in-memory table (index entries
    /// plus partial-frontier keys and triples) — the cache's footprint
    /// telemetry, recorded as a deterministic bench metric.
    pub fn approx_bytes(&self) -> u64 {
        let index = self.index.len() as u64 * (8 + 4 + 4 * 8);
        let partial = self.partial.as_ref().map_or(0, |p| {
            8 + 4 + 8 + 8 + p.layer.keys().map(|k| k.len() as u64 + 3 * 8).sum::<u64>()
        });
        index + partial
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
        w.section("partial", |s| match &self.partial {
            None => s.put_u8(0),
            Some(p) => {
                s.put_u8(1);
                s.put_u64(p.digest);
                s.put_u32(p.m);
                s.put_u64(p.round);
                s.put_u64(p.states_explored);
                s.put_u64(p.layer.len() as u64);
                for (key, &(cost, reconfigs, drops)) in &p.layer {
                    s.put_bytes(key);
                    s.put_u64(cost);
                    s.put_u64(reconfigs);
                    s.put_u64(drops);
                }
            }
        });
        w.finish()
    }

    /// Parse an `RRSOPTC1` byte string, validating frame, CRC, and strict
    /// key ascent in both sections.
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

        let mut s = r.section("partial")?;
        let partial = match s.get_u8("partial flag")? {
            0 => None,
            1 => {
                let digest = s.get_u64("partial digest")?;
                let m = s.get_u32("partial m")?;
                let round = s.get_u64("partial round")?;
                let states_explored = s.get_u64("partial states")?;
                let count = s.get_u64("partial layer count")?;
                let mut layer: BTreeMap<Vec<u8>, (u64, u64, u64)> = BTreeMap::new();
                let mut prev: Option<Vec<u8>> = None;
                for _ in 0..count {
                    let key = s.get_bytes("partial layer key")?.to_vec();
                    if prev.as_ref().is_some_and(|p| p >= &key) {
                        return Err(CacheError::Invalid(
                            "partial layer keys not strictly ascending".into(),
                        ));
                    }
                    let triple = (
                        s.get_u64("partial layer cost")?,
                        s.get_u64("partial layer reconfigs")?,
                        s.get_u64("partial layer drops")?,
                    );
                    prev = Some(key.clone());
                    layer.insert(key, triple);
                }
                s.expect_end("partial section")?;
                Some(PartialSolve { digest, m, round, states_explored, layer })
            }
            other => {
                return Err(CacheError::Invalid(format!("bad partial flag {other}")));
            }
        };
        if partial.is_none() {
            s.expect_end("partial section")?;
        }
        r.expect_end("opt cache payload")?;

        Ok(Self { index, partial })
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
        let mut layer = BTreeMap::new();
        layer.insert(vec![0xFF, 0xFF], (4, 1, 2));
        layer.insert(vec![0xFF, 0xFF, 0x00, 0x02, 0x01], (2, 1, 0));
        c.set_partial(PartialSolve { digest: 9, m: 1, round: 6, states_explored: 17, layer });
        c
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
        assert!(parsed.partial().is_none());
    }

    #[test]
    fn record_clears_matching_partial() {
        let mut c = sample();
        assert!(c.partial().is_some());
        // Non-matching (digest, m): partial survives.
        c.record(9, 2, SolvedEntry { cost: 1, reconfigs: 0, drops: 1, states_explored: 2 });
        assert!(c.partial().is_some());
        // Matching: the checkpoint is obsolete.
        c.record(9, 1, SolvedEntry { cost: 4, reconfigs: 1, drops: 0, states_explored: 30 });
        assert!(c.partial().is_none());
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
        w.section("partial", |s| s.put_u8(0));
        let err = OptCache::parse(&w.finish()).expect_err("descending keys must be rejected");
        assert!(matches!(err, CacheError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn bad_partial_flag_is_rejected() {
        let mut w = SnapWriter::with_frame(OPT_CACHE_MAGIC, OPT_CACHE_VERSION);
        w.section("index", |s| s.put_u64(0));
        w.section("partial", |s| s.put_u8(7));
        let err = OptCache::parse(&w.finish()).expect_err("bad flag must be rejected");
        assert!(err.to_string().contains("partial flag"), "{err}");
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
}
