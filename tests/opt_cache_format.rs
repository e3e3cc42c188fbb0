//! Integration: the persisted OPT solve-cache wire format (`RRSOPTC1`,
//! DESIGN.md §16). Mirrors `tests/snapshot_format.rs` check for check:
//! a committed golden fixture pins the v2 encoding byte-for-byte,
//! parse→reencode is the identity, every truncation and every single-bit
//! flip is rejected as a structured error, a stale version dies on the
//! version field (not the checksum), and a lookup keyed by the wrong
//! genome misses with a clear error instead of a wrong answer. A
//! CRC-valid index entry that no solve of its instance could have written
//! is a miss: the solve runs and overwrites it instead of serving it.

use rrs::offline::{OPT_CACHE_MAGIC, OPT_CACHE_VERSION};
use rrs::prelude::*;

/// The deterministic cache behind `tests/fixtures/opt_cache_v2.optc`:
/// the three corpus genomes solved to completion. Changing the solver's
/// answers or the pinned workloads invalidates the fixture — regenerate
/// via the `regenerate` test below and bump `OPT_CACHE_VERSION` if the
/// wire layout itself changed.
fn golden_cache() -> OptCache {
    let mut cache = OptCache::new();
    for text in &OPT_BENCH_GENOMES[..3] {
        let inst = parse_genome(text).expect("pinned genome parses").decode();
        cache.solve(&inst, 1, OptConfig::default()).expect("corpus genome solves");
    }
    cache
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/opt_cache_v2.optc")
}

#[test]
fn header_magic_and_version_are_pinned() {
    let bytes = golden_cache().encode();
    assert_eq!(&bytes[..8], OPT_CACHE_MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), OPT_CACHE_VERSION);
    assert_eq!(OPT_CACHE_VERSION, 2, "format bumps must update the golden fixture");
}

#[test]
fn golden_cache_fixture_is_stable() {
    // Byte-for-byte pin of format v2. To regenerate after a *deliberate*
    // format bump (which must also bump OPT_CACHE_VERSION):
    //   cargo test --test opt_cache_format -- --ignored regenerate
    let bytes = golden_cache().encode();
    let want = std::fs::read(fixture_path())
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture_path().display()));
    assert_eq!(
        bytes, want,
        "opt-cache encoding drifted from the committed v2 fixture; if intentional, bump \
         OPT_CACHE_VERSION and regenerate the fixture"
    );
}

#[test]
#[ignore = "writes the golden fixture; run once after a deliberate format bump"]
fn regenerate() {
    std::fs::write(fixture_path(), golden_cache().encode()).unwrap();
}

#[test]
fn reencoding_a_parsed_cache_is_identity() {
    // parse → encode again: byte-identical. The index is a BTreeMap, so
    // the byte stream is a pure function of content — nothing in the file
    // is redundant or nondeterministically ordered.
    let bytes = std::fs::read(fixture_path()).unwrap();
    let cache = OptCache::parse(&bytes).expect("committed fixture must stay loadable");
    assert_eq!(cache.encode(), bytes);
    assert_eq!(cache, golden_cache(), "fixture must decode to the golden cache");
}

#[test]
fn golden_fixture_answers_a_warm_resolve() {
    // The committed bytes are not just parseable — they *work*: re-solving
    // a corpus genome against the parsed cache is a pure index hit that
    // reproduces the fresh answer.
    let mut cache = OptCache::parse(&std::fs::read(fixture_path()).unwrap()).unwrap();
    let inst = parse_genome(OPT_BENCH_GENOMES[0]).unwrap().decode();
    let fresh = solve_opt(&inst, 1, OptConfig::default()).unwrap();
    let (warm, hit) = cache.solve(&inst, 1, OptConfig::default()).unwrap();
    assert!(hit, "warm re-solve must be a pure index hit");
    assert_eq!((warm.cost, warm.reconfigs, warm.drops), (fresh.cost, fresh.reconfigs, fresh.drops));
    assert_eq!(warm.states_explored, fresh.states_explored);
}

#[test]
fn truncation_at_every_length_is_rejected_cleanly() {
    let bytes = std::fs::read(fixture_path()).unwrap();
    for len in 0..bytes.len() {
        let err = OptCache::parse(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes parsed successfully"));
        // Must be a structured error with a nonempty rendering, not a panic.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // CRC-32 detects all 1-bit errors; header corruptions die on magic or
    // version before the checksum is even computed.
    let bytes = std::fs::read(fixture_path()).unwrap();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            assert!(OptCache::parse(&evil).is_err(), "flip of byte {byte} bit {bit} was accepted");
        }
    }
}

#[test]
fn stale_version_is_rejected_on_the_version_field() {
    // A future-format file must die with BadVersion — the actionable
    // "your build is too old" error — not whatever the checksum or body
    // parse happens to produce downstream.
    let mut bytes = std::fs::read(fixture_path()).unwrap();
    bytes[8] = (OPT_CACHE_VERSION + 1) as u8;
    assert_eq!(OptCache::parse(&bytes), Err(CacheError::BadVersion(OPT_CACHE_VERSION + 1)));
}

#[test]
fn wrong_genome_lookup_misses_with_a_clear_error() {
    // The digest key makes a cache non-transferable between instances: a
    // lookup keyed by a genome the cache never solved must miss — never
    // alias onto another instance's answer — and the rendered error names
    // the digest so the operator can tell *which* identity failed.
    let cache = OptCache::parse(&std::fs::read(fixture_path()).unwrap()).unwrap();
    let stranger = parse_genome(OPT_BENCH_GENOMES[3]).unwrap().decode();
    let digest = instance_digest(&stranger);
    let err = cache.lookup(&stranger, 1).expect_err("a stranger must miss");
    assert_eq!(err, CacheError::UnknownInstance { digest, m: 1 });
    assert!(err.to_string().contains(&format!("{digest:#018x}")), "unhelpful error: {err}");
    // The solved corpus entries, by contrast, are all present under their
    // own digests.
    for text in &OPT_BENCH_GENOMES[..3] {
        let inst = parse_genome(text).unwrap().decode();
        assert!(cache.lookup(&inst, 1).is_ok(), "{text} missing");
    }
}

#[test]
fn a_v1_frame_is_rejected_on_its_version() {
    // A v1 cache (an index section and a partial-frontier section) dies on
    // the version field, with a message that names the version this build
    // reads.
    let mut w = SnapWriter::with_frame(OPT_CACHE_MAGIC, 1);
    w.section("index", |s| s.put_u64(0));
    w.section("partial", |s| s.put_u8(0));
    let err = OptCache::parse(&w.finish()).expect_err("a v1 frame must be rejected");
    assert_eq!(err, CacheError::BadVersion(1));
    assert!(err.to_string().contains("v2"), "{err}");
}

/// `generate rate-limited --seed 3`: Δ = 4, four colors, 92 jobs, and an
/// exact OPT of 55 (1 reconfiguration, 51 drops) at m = 1.
fn probe_instance() -> Instance {
    rate_limited_instance(&RateLimitedConfig::default(), 3)
}

/// A cache holding only `entry` for [`probe_instance`] at m = 1, encoded
/// and parsed back: the CRC is valid, as a forged file's would be.
fn resealed(entry: SolvedEntry) -> OptCache {
    let mut cache = OptCache::new();
    cache.record(instance_digest(&probe_instance()), 1, entry);
    OptCache::parse(&cache.encode()).expect("a re-sealed entry parses")
}

#[test]
fn an_impossible_index_entry_is_a_miss_not_an_answer() {
    let inst = probe_instance();
    let digest = instance_digest(&inst);
    let fresh = solve_opt(&inst, 1, OptConfig::default()).unwrap();
    assert_eq!((fresh.cost, fresh.reconfigs, fresh.drops), (55, 1, 51));
    assert_eq!(inst.total_jobs(), 92);
    let impossible = [
        // The cost is not Δ·reconfigs + drops.
        (1, 0, 0),
        // More drops than jobs, consistently priced (drops ≤ cost ≤ jobs).
        (93, 0, 93),
        // Consistently priced, but dearer than dropping every job.
        (100, 25, 0),
        // Δ·reconfigs overflows.
        (u64::MAX, u64::MAX, 0),
        // Δ·reconfigs + drops overflows.
        (0, 1, u64::MAX - 2),
    ];
    for (cost, reconfigs, drops) in impossible {
        let forged = SolvedEntry { cost, reconfigs, drops, states_explored: 1 };
        let mut cache = resealed(forged);
        let err = cache.lookup(&inst, 1).expect_err("an impossible entry must not be served");
        assert_eq!(err, CacheError::ImpossibleEntry { digest, m: 1 }, "{forged:?}");
        assert!(err.to_string().contains(&format!("{digest:#018x}")), "unhelpful error: {err}");
        let (r, hit) = cache.solve(&inst, 1, OptConfig::default()).unwrap();
        assert!(!hit, "{forged:?} was served");
        assert_eq!((r.cost, r.reconfigs, r.drops), (55, 1, 51), "{forged:?}");
        assert_eq!(r.states_explored, fresh.states_explored);
        assert_eq!(cache.lookup(&inst, 1), Ok(&SolvedEntry::from(&fresh)), "not overwritten");
    }
    // A consistent entry is trusted, even a wrong one: the check stops
    // impossible answers, not a forger who writes a possible one.
    let wrong = SolvedEntry { cost: 60, reconfigs: 2, drops: 52, states_explored: 1 };
    let (r, hit) = resealed(wrong).solve(&inst, 1, OptConfig::default()).unwrap();
    assert!(hit);
    assert_eq!(SolvedEntry::from(&r), wrong);
}
