//! Integration: the persisted OPT solve-cache wire format (`RRSOPTC1`,
//! DESIGN.md §16). Mirrors `tests/snapshot_format.rs` check for check:
//! a committed golden fixture pins the v1 encoding byte-for-byte,
//! parse→reencode is the identity, every truncation and every single-bit
//! flip is rejected as a structured error, a stale version dies on the
//! version field (not the checksum), and a lookup keyed by the wrong
//! genome misses with a clear error instead of a wrong answer. A
//! CRC-valid partial frontier that does not fit its instance is ignored:
//! the solve starts fresh instead of panicking or recording a wrong cost.

use rrs::offline::{PartialSolve, OPT_CACHE_MAGIC, OPT_CACHE_VERSION};
use rrs::prelude::*;

/// The deterministic cache behind `tests/fixtures/opt_cache_v1.optc`:
/// the three corpus genomes solved to completion, plus a budget-tripped
/// partial frontier so the fixture exercises *both* sections of the
/// format. Changing the solver's state encoding or the pinned workloads
/// invalidates the fixture — regenerate via the `regenerate` test below
/// and bump `OPT_CACHE_VERSION` if the wire layout itself changed.
fn golden_cache() -> OptCache {
    let mut cache = OptCache::new();
    for text in &OPT_BENCH_GENOMES[..3] {
        let inst = parse_genome(text).expect("pinned genome parses").decode();
        solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache))
            .expect("corpus genome solves");
    }
    let scale = opt_scale_instance(4);
    let tight = OptConfig { state_budget: Some(40), ..Default::default() };
    let err = solve_opt_memoized(&scale, 1, tight, None, Some(&mut cache));
    assert!(
        matches!(err, Err(OptError::BudgetExhausted { .. })),
        "the fixture's partial section must come from a real budget trip: {err:?}"
    );
    assert!(cache.partial().is_some());
    cache
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/opt_cache_v1.optc")
}

#[test]
fn header_magic_and_version_are_pinned() {
    let bytes = golden_cache().encode();
    assert_eq!(&bytes[..8], OPT_CACHE_MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), OPT_CACHE_VERSION);
    assert_eq!(OPT_CACHE_VERSION, 1, "format bumps must update the golden fixture");
}

#[test]
fn golden_cache_fixture_is_stable() {
    // Byte-for-byte pin of format v1. To regenerate after a *deliberate*
    // format bump (which must also bump OPT_CACHE_VERSION):
    //   cargo test --test opt_cache_format -- --ignored regenerate
    let bytes = golden_cache().encode();
    let want = std::fs::read(fixture_path())
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture_path().display()));
    assert_eq!(
        bytes, want,
        "opt-cache encoding drifted from the committed v1 fixture; if intentional, bump \
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
    // parse → encode again: byte-identical. Both maps are BTreeMaps, so
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
    // reproduces the fresh answer, and the partial section resumes the
    // tripped solve to the same triple as an unconstrained fresh solve.
    let mut cache = OptCache::parse(&std::fs::read(fixture_path()).unwrap()).unwrap();
    let inst = parse_genome(OPT_BENCH_GENOMES[0]).unwrap().decode();
    let fresh = solve_opt_memoized(&inst, 1, OptConfig::default(), None, None).unwrap();
    let warm = solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache)).unwrap();
    assert_eq!(warm.stats.cache_hits, 1, "warm re-solve must be a pure index hit");
    assert_eq!((warm.cost, warm.reconfigs, warm.drops), (fresh.cost, fresh.reconfigs, fresh.drops));

    let scale = opt_scale_instance(4);
    let fresh = solve_opt_memoized(&scale, 1, OptConfig::default(), None, None).unwrap();
    let resumed =
        solve_opt_memoized(&scale, 1, OptConfig::default(), None, Some(&mut cache)).unwrap();
    assert_eq!(resumed.stats.partial_resumes, 1, "the fixture's partial must resume");
    assert_eq!(
        (resumed.cost, resumed.reconfigs, resumed.drops),
        (fresh.cost, fresh.reconfigs, fresh.drops)
    );
    assert_eq!(resumed.states_explored, fresh.states_explored);
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
    assert!(cache.lookup(digest, 1).is_none());
    let err = CacheError::UnknownInstance { digest, m: 1 }.to_string();
    assert!(err.contains(&format!("{digest:#018x}")), "unhelpful error: {err}");
    // The solved corpus entries, by contrast, are all present under their
    // own digests.
    for text in &OPT_BENCH_GENOMES[..3] {
        let inst = parse_genome(text).unwrap().decode();
        assert!(cache.lookup(instance_digest(&inst), 1).is_some(), "{text} missing");
    }
}

/// The forgery target: one resource, four colors (bounds 2, 4, 8, 8),
/// horizon 64, exact OPT 55. Its packed keys use one byte per field, so
/// the all-black cache with nothing pending is the key `[0xff]`.
fn forgery_target() -> Instance {
    rate_limited_instance(&RateLimitedConfig::default(), 3)
}

/// A partial-frontier entry: packed key and `(cost, reconfigs, drops)`.
type LayerEntry<'a> = (&'a [u8], (u64, u64, u64));

/// A cache holding only a partial for [`forgery_target`] at m = 1,
/// encoded and parsed back: the CRC is valid, as a forged file's would be.
fn forged(round: u64, states_explored: u64, layer: &[LayerEntry]) -> OptCache {
    let mut cache = OptCache::new();
    cache.set_partial(PartialSolve {
        digest: instance_digest(&forgery_target()),
        m: 1,
        round,
        states_explored,
        layer: layer.iter().map(|&(key, tri)| (key.to_vec(), tri)).collect(),
    });
    OptCache::parse(&cache.encode()).expect("a re-sealed forgery parses")
}

/// Solve [`forgery_target`] against a cache holding a forged partial: the
/// partial must be ignored, and the solve must return the fresh solve's
/// exact answer and record it.
fn assert_forgery_ignored(mut cache: OptCache) {
    let inst = forgery_target();
    let fresh = solve_opt_memoized(&inst, 1, OptConfig::default(), None, None).unwrap();
    assert_eq!(fresh.cost, 55);
    let r = solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache))
        .expect("a forged partial must not fail the solve");
    assert_eq!(r.stats.partial_resumes, 0, "the forged partial was resumed");
    assert_eq!((r.cost, r.reconfigs, r.drops), (fresh.cost, fresh.reconfigs, fresh.drops));
    assert_eq!(r.states_explored, fresh.states_explored);
    let entry = cache.lookup(instance_digest(&inst), 1).expect("the answer is recorded");
    assert_eq!(entry.cost, fresh.cost);
    assert!(cache.partial().is_none(), "the finished solve clears the forgery");
}

#[test]
fn a_partial_past_the_horizon_is_ignored() {
    assert_forgery_ignored(forged(69, 1, &[(&[0xff], (0, 0, 0))]));
}

#[test]
fn a_partial_with_an_empty_key_is_ignored() {
    assert_forgery_ignored(forged(0, 1, &[(&[], (0, 0, 0))]));
}

#[test]
fn a_partial_pending_an_undeclared_color_is_ignored() {
    assert_forgery_ignored(forged(0, 1, &[(&[0xff, 200, 1, 1], (0, 0, 0))]));
}

#[test]
fn a_partial_with_an_impossible_triple_is_ignored() {
    assert_forgery_ignored(forged(1, 1, &[(&[0xff], (u64::MAX - 1, 0, u64::MAX - 1))]));
}

#[test]
fn an_empty_partial_layer_is_ignored() {
    assert_forgery_ignored(forged(3, 1, &[]));
}

#[test]
fn a_forged_state_count_trips_the_budget_instead_of_wrapping() {
    // Every key and triple is plausible, so the partial is trusted; its
    // count saturates and trips the budget on the first layer rather than
    // wrapping back under it. A resume without a budget then finishes on
    // the fresh solve's exact triple.
    let inst = forgery_target();
    let mut cache = forged(0, u64::MAX, &[(&[0xff], (0, 0, 0))]);
    let budget = OptConfig { state_budget: Some(1_000_000), ..Default::default() };
    let err = solve_opt_memoized(&inst, 1, budget, None, Some(&mut cache));
    assert_eq!(err.err(), Some(OptError::BudgetExhausted { round: 0, states: usize::MAX }));
    assert!(cache.is_empty(), "a tripped solve records nothing");
    let fresh = solve_opt_memoized(&inst, 1, OptConfig::default(), None, None).unwrap();
    let r = solve_opt_memoized(&inst, 1, OptConfig::default(), None, Some(&mut cache)).unwrap();
    assert_eq!(r.stats.partial_resumes, 1);
    assert_eq!((r.cost, r.reconfigs, r.drops), (fresh.cost, fresh.reconfigs, fresh.drops));
}
