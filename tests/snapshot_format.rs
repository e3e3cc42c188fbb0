//! Integration: the snapshot wire format. Encode→decode identity on real
//! checkpoints, hard rejection of truncated and bit-flipped files and of
//! any version but the current one, and the committed golden fixture
//! `checkpoint_v2.snap`, which pins the current (v2, sparse) encoding
//! byte-for-byte — if encoding changes, the golden test fails and
//! `SNAP_VERSION` must be bumped with it.

use proptest::prelude::*;
use rrs::prelude::*;

/// A deterministic instance used for the golden snapshot fixtures. Changing
/// it invalidates `tests/fixtures/checkpoint_v2.snap` — regenerate via the
/// instructions in the `golden_snapshot_fixture_is_stable` test.
fn golden_instance() -> Instance {
    let mut b = InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(8);
    let c2 = b.color(5);
    for blk in 0..6 {
        b.arrive(blk * 2, c0, 2);
    }
    b.arrive(0, c1, 8).arrive(8, c1, 4);
    b.arrive(1, c2, 3).arrive(7, c2, 2);
    b.build()
}

fn golden_snapshot() -> Vec<u8> {
    checkpoint(&golden_instance(), 8)
}

/// The full stack's snapshot of `inst` at the top of round `k`.
fn checkpoint(inst: &Instance, k: u64) -> Vec<u8> {
    let session = Simulator::new(inst, 8).session().stop_before(k);
    session.run(&mut full_algorithm(), &mut NullRecorder).unwrap().into_snapshot()
}

#[test]
fn header_magic_and_version_are_pinned() {
    let snap = golden_snapshot();
    assert_eq!(&snap[..8], rrs::model::SNAP_MAGIC);
    assert_eq!(u32::from_le_bytes(snap[8..12].try_into().unwrap()), rrs::model::SNAP_VERSION);
    assert_eq!(rrs::model::SNAP_VERSION, 2, "format bumps must update the golden fixture");
}

#[test]
fn golden_snapshot_fixture_is_stable() {
    // Byte-for-byte pin of format v2. To regenerate after a *deliberate*
    // format bump (which must also bump SNAP_VERSION):
    //   cargo test --test snapshot_format -- --ignored regenerate
    let snap = golden_snapshot();
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    let want = std::fs::read(&fixture)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
    assert_eq!(
        snap, want,
        "snapshot encoding drifted from the committed v2 fixture; if intentional, bump \
         SNAP_VERSION and regenerate the fixture"
    );
}

#[test]
#[ignore = "writes the golden fixture; run once after a deliberate format bump"]
fn regenerate() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    std::fs::write(&fixture, golden_snapshot()).unwrap();
}

#[test]
fn golden_fixture_resumes_the_golden_run() {
    let inst = golden_instance();
    let want = Simulator::new(&inst, 8).run(&mut full_algorithm());
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    let snap = std::fs::read(fixture).unwrap();
    let out = Simulator::new(&inst, 8)
        .session()
        .resume(&snap)
        .run(&mut full_algorithm(), &mut NullRecorder)
        .expect("committed fixture must stay loadable");
    assert_eq!(out.into_outcome(), want);
}

#[test]
fn v1_snapshot_is_rejected_with_a_version_error() {
    // The v1 reader is retired: a file stamped v1 must fail on its version
    // alone, before any payload decoder runs. Re-stamp the golden snapshot
    // and re-seal its CRC so only the version check can fire.
    let mut snap = golden_snapshot();
    snap[8..12].copy_from_slice(&1u32.to_le_bytes());
    let len = snap.len();
    let crc = rrs::model::crc32(&snap[..len - 4]);
    snap[len - 4..].copy_from_slice(&crc.to_le_bytes());
    let err = SnapshotFile::parse(&snap).unwrap_err();
    assert_eq!(err, SnapError::BadVersion(1));
    assert!(err.to_string().contains("reads v2 only"), "{err}");
}

#[test]
fn reencoding_a_parsed_snapshot_is_identity() {
    // parse → reconstruct policy → encode again: byte-identical. This is
    // the strongest statement that nothing in the file is redundant or
    // nondeterministically ordered.
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, file.state.n_locations);
    file.load_policy(&mut policy).unwrap();
    let reencoded = encode_snapshot(&file.state, &policy);
    assert_eq!(snap, reencoded);
}

#[test]
fn truncation_at_every_length_is_rejected_cleanly() {
    let snap = golden_snapshot();
    for len in 0..snap.len() {
        let err = SnapshotFile::parse(&snap[..len])
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
    let snap = golden_snapshot();
    for byte in 0..snap.len() {
        for bit in 0..8 {
            let mut evil = snap.clone();
            evil[byte] ^= 1 << bit;
            assert!(
                SnapshotFile::parse(&evil).is_err(),
                "flip of byte {byte} bit {bit} was accepted"
            );
        }
    }
}

#[test]
fn wrong_policy_rejected_with_clear_error() {
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut other = DeltaLru::new();
    other.init(file.state.ledger.delta, file.state.n_locations);
    let err = file.load_policy(&mut other).unwrap_err().to_string();
    assert!(err.contains("var-batch") && err.contains("dlru"), "unhelpful error: {err}");
}

#[test]
fn wrapper_rejects_a_virtual_assignment_of_another_width() {
    // The engine section is not consulted here: the wrappers' own check on
    // the virtual slot vector must catch the mismatch.
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, 4);
    let err = file.load_policy(&mut policy).unwrap_err().to_string();
    assert!(err.contains("virtual slot count 8 does not match 4 locations"), "{err}");
}

#[test]
fn wrapper_rejects_a_different_inner_policy() {
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut policy = VarBatch::new(Distribute::new(Edf::new()));
    policy.init(file.state.ledger.delta, file.state.n_locations);
    let err = file.load_policy(&mut policy).unwrap_err().to_string();
    assert!(err.contains("\"dlru-edf\"") && err.contains("\"edf\""), "{err}");
}

/// The messages a resume of `snapshot` fails with through a materialized
/// session over `sim` and through a streamed one over the same instance's
/// text, locations and speed.
fn resume_errors(sim: &Simulator<'_>, snapshot: &[u8]) -> [String; 2] {
    let text = rrs::model::to_text(sim.instance());
    let stream = TextStream::new(text.as_bytes()).unwrap();
    let streamed = Session::new(stream, sim.n_locations()).speed(sim.speed());
    let err = |run: Result<SessionResult, SessionError>| run.unwrap_err().to_string();
    [
        err(sim.session().resume(snapshot).run(&mut full_algorithm(), &mut NullRecorder)),
        err(streamed.resume(snapshot).run(&mut full_algorithm(), &mut NullRecorder)),
    ]
}

#[test]
fn resume_on_wrong_configuration_is_rejected() {
    let inst = golden_instance();
    let snap = golden_snapshot();
    let other_delta = Instance { delta: 3, ..golden_instance() };
    for (sim, want) in [
        (Simulator::new(&inst, 4), "snapshot has 8 locations, this run has 4"),
        (Simulator::new(&inst, 8).with_speed(2), "taken at speed 1, this run has speed 2"),
        (Simulator::new(&other_delta, 8), "snapshot has delta 2, this run has delta 3"),
    ] {
        for msg in resume_errors(&sim, &snap) {
            assert!(msg.contains(want), "{msg}");
        }
    }
    // A materialized horizon is final, so it must be the snapshot's; a
    // stream's grows as it reads, and the snapshot's is only its floor.
    let longer = Simulator::new(&inst, 8).with_horizon(inst.horizon() + 5);
    let msg = longer.session().resume(&snap).run(&mut full_algorithm(), &mut NullRecorder);
    let msg = msg.unwrap_err().to_string();
    assert!(msg.contains("taken with horizon 16, simulator has horizon 21"), "{msg}");
}

#[test]
fn a_snapshot_resuming_past_its_horizon_is_rejected() {
    // A CRC-valid forgery of a snapshot at round 3 (horizon 16) that
    // claims to resume at round 1000. Loading it used to drive the run
    // past its horizon with jobs still pending.
    let mut b = InstanceBuilder::new(2);
    let (c0, c1) = (b.color(4), b.color(16));
    b.arrive(0, c0, 4).arrive(0, c1, 8);
    let inst = b.build();
    let file_bytes = checkpoint(&inst, 3);
    let file = SnapshotFile::parse(&file_bytes).unwrap();
    assert_eq!((file.state.horizon_hint, file.state.pending.total() > 0), (16, true));
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, file.state.n_locations);
    file.load_policy(&mut policy).unwrap();
    let forged = encode_snapshot(&EngineState { next_round: 1000, ..file.state }, &policy);
    for msg in resume_errors(&Simulator::new(&inst, 8), &forged) {
        assert!(msg.contains("next round 1000 is past the horizon hint 16"), "{msg}");
    }
}

/// Strategy: a small general instance plus a checkpoint round.
fn instance_and_round() -> impl Strategy<Value = (Instance, u64)> {
    (
        1u64..=4,
        prop::collection::vec(1u64..=10, 1..=4),
        prop::collection::vec((0u64..=15, 1u64..=5), 1..=24),
        1u64..=100,
    )
        .prop_map(|(delta, bounds, picks, k)| {
            let mut b = InstanceBuilder::new(delta);
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (round, jobs)) in picks.into_iter().enumerate() {
                b.arrive(round, colors[i % colors.len()], jobs);
            }
            let inst = b.build();
            let k = 1 + k % inst.horizon().max(1);
            (inst, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_reencode_identity_on_random_checkpoints(pair in instance_and_round()) {
        let (inst, k) = pair;
        let snap = checkpoint(&inst, k);
        let file = SnapshotFile::parse(&snap).unwrap();
        prop_assert_eq!(file.state.next_round, k);
        let mut policy = full_algorithm();
        policy.init(file.state.ledger.delta, file.state.n_locations);
        file.load_policy(&mut policy).unwrap();
        let reencoded = encode_snapshot(&file.state, &policy);
        prop_assert_eq!(snap, reencoded);
    }

    #[test]
    fn random_truncations_and_flips_never_panic(
        pair in instance_and_round(),
        cut in 0usize..=4096,
        flip in 0usize..=4096,
    ) {
        let (inst, k) = pair;
        let snap = checkpoint(&inst, k);
        let cut = cut % snap.len();
        prop_assert!(SnapshotFile::parse(&snap[..cut]).is_err());
        let mut evil = snap.clone();
        let at = flip % evil.len();
        evil[at] ^= 0x40;
        prop_assert!(SnapshotFile::parse(&evil).is_err());
    }
}
