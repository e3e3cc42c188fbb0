//! Long-horizon streaming soak (DESIGN.md §11).
//!
//! Feeds the simulator ≥10⁶ rounds through the incremental text reader —
//! the request sequence is synthesized lazily and never materialized — with
//! periodic checkpointing enabled, and proves live heap stays bounded: the
//! shared tracking allocator (`rrs_bench::alloc_probe`, also used by
//! `tests/alloc_discipline.rs` and the `rrs bench` harness) measures the
//! peak live-byte high-water mark during the run, which must stay far
//! below what the materialized instance (~1.75M requests) would cost.
//! Live and peak bytes are whole-process counters, which a concurrently
//! running sibling test would inflate, so this binary runs one test per
//! mode: the smoke by default, the soak under `--ignored`.
//!
//! The full-scale soak is `#[ignore]`d for regular CI (it is the nightly
//! stress job); a 10⁴-round smoke keeps the same path exercised everywhere.

use std::io::{BufReader, Read, Write};

use rrs::prelude::*;
use rrs_bench::alloc_probe;

#[global_allocator]
static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;

/// Lazily synthesizes the text format for a long general workload: a
/// steady tight-bound drip, a periodic big batch, and off-boundary
/// arrivals only the VarBatch stack can take. One round of lines is
/// buffered at a time, so memory is O(1) in the horizon.
struct SoakText {
    rounds: u64,
    next_round: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl SoakText {
    fn new(rounds: u64) -> Self {
        let mut buf = Vec::with_capacity(128);
        write!(buf, "delta 2\ncolor 0 2\ncolor 1 8\ncolor 2 4\n").unwrap();
        Self { rounds, next_round: 0, buf, pos: 0 }
    }

    /// Jobs arriving over the whole workload, for the conservation check.
    fn total_jobs(rounds: u64) -> u64 {
        (0..rounds)
            .map(|r| {
                (r % 2 == 0) as u64
                    + if r.is_multiple_of(8) { 6 } else { 0 }
                    + if r % 4 == 1 { 2 } else { 0 }
            })
            .sum()
    }
}

impl Read for SoakText {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            while self.buf.is_empty() && self.next_round < self.rounds {
                let r = self.next_round;
                self.next_round += 1;
                if r.is_multiple_of(2) {
                    writeln!(self.buf, "arrive {r} 0 1").unwrap();
                }
                if r.is_multiple_of(8) {
                    writeln!(self.buf, "arrive {r} 1 6").unwrap();
                }
                if r % 4 == 1 {
                    writeln!(self.buf, "arrive {r} 2 2").unwrap();
                }
            }
            if self.buf.is_empty() {
                return Ok(0);
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Streams `rounds` rounds through the full reduction stack with periodic
/// checkpoints, asserting conservation and the live-heap bound.
fn soak(rounds: u64, every: u64, max_live_bytes: u64) {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    let mut source =
        TextStream::new(BufReader::new(SoakText::new(rounds))).expect("synthesized header parses");
    let mut policy = full_algorithm();
    let mut scratch = Scratch::new();

    let mut snapshots = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut sink = |_round: u64, bytes: &[u8]| {
        snapshots += 1;
        snapshot_bytes += bytes.len() as u64;
    };

    let baseline = alloc_probe::reset_peak();

    let out = run_stream_session(
        &mut source,
        &mut policy,
        &mut NullRecorder,
        &mut scratch,
        &mut NullRecorder,
        StreamOptions {
            n_locations: 8,
            speed: 1,
            plan: CheckpointPolicy::EveryN(every),
            ..Default::default()
        },
        Some(&mut sink),
    )
    .expect("soak run completes")
    .into_outcome();

    let peak = alloc_probe::peak_bytes().saturating_sub(baseline);

    assert!(out.rounds > rounds, "simulated {} rounds, wanted > {rounds}", out.rounds);
    assert_eq!(out.arrived, SoakText::total_jobs(rounds));
    assert_eq!(out.arrived, out.executed + out.dropped, "conservation across the soak");
    assert!(snapshots >= rounds / every, "only {snapshots} checkpoints emitted");
    assert!(
        snapshot_bytes / snapshots.max(1) < 64 * 1024,
        "snapshots ballooned: {snapshot_bytes} bytes over {snapshots}"
    );
    assert!(
        peak < max_live_bytes,
        "streamed run grew live heap by {peak} bytes (cap {max_live_bytes}); \
         ingestion is no longer O(1) in the horizon"
    );

    // Certify the soak's cost against the offline referee: the streamed
    // online cost can never beat OPT at equal resources, and OPT is
    // bounded below by the certified combined bound. The instance is
    // materialized only *after* the live-heap peak has been captured, so
    // this check does not perturb the O(1)-ingestion measurement.
    let mut text = String::new();
    SoakText::new(rounds).read_to_string(&mut text).expect("soak text synthesizes");
    let inst = rrs_model::from_text(&text).expect("soak text parses");
    let lb = combined_lower_bound(&inst, 8);
    assert!(lb > 0, "a {rounds}-round soak must have a nonzero certified bound");
    assert!(
        out.cost.total() >= lb,
        "online soak cost {} beat the certified m=8 lower bound {lb}; \
         either the bound or the cost ledger is broken",
        out.cost.total()
    );
}

// The smoke and soak tiers each live in ONE test function (long-horizon
// then Zipf-universe, sequentially): the peak-tracking allocator is
// process-global, so concurrently running soaks would reset each other's
// high-water marks mid-measurement.

#[test]
fn streamed_smoke_is_bounded() {
    soak(10_000, 2_500, 8 * 1024 * 1024);
    zipf_soak(100_000, 256, 24 * 1024 * 1024);
}

#[test]
#[ignore = "soak-scale (≥10⁶ rounds / 10⁶ colors); nightly CI runs this with --ignored"]
fn million_scale_streamed_soaks_are_bounded() {
    soak(1_000_000, 250_000, 16 * 1024 * 1024);
    // ~65k draws touch ~30k distinct colors; the heavy tail scatters most
    // of them onto their own 64-slot page (a few KB each across the
    // stack's maps), so the cap is a live-color budget, not a universe
    // one: the same run over 10⁵ colors peaks well under 24 MiB.
    zipf_soak(1_000_000, 2_048, 128 * 1024 * 1024);
}

/// Streams a Zipf-popular universe of `num_colors` colors through the full
/// stack under the invariant watcher, asserting the live-heap growth bound
/// (called after [`soak`] from the single test function of each tier).
///
/// Unlike [`soak`], the universe — not the horizon — is the hostile axis:
/// only a heavy-tailed sliver of the colors ever arrives, so the paged
/// per-color state must keep policy + watcher memory proportional to the
/// live colors plus the unavoidable dense-but-thin per-universe tables
/// (delay bounds, bitset leaf words, page indices — all ≤ a few bytes per
/// declared color, vs hundreds for the old dense per-color state).
fn zipf_soak(num_colors: usize, rounds: u64, max_live_bytes: u64) {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    let cfg =
        rrs_workloads::ZipfConfig { num_colors, rounds, ..rrs_workloads::ZipfConfig::default() };
    let inst = rrs_workloads::zipf_popularity(&cfg, 11);
    let text = rrs_model::textio::to_text(&inst);
    let mut source =
        TextStream::new(BufReader::new(text.as_bytes())).expect("generated text parses");
    let mut policy = full_algorithm();
    let mut scratch = Scratch::new();
    // Under `--features validate` the soak is supervised by the invariant
    // watcher (its paged shadow is part of the measured heap); otherwise
    // the supervisor is a no-op and the run is bare, like the long-horizon
    // soak.
    let mut watcher = supervisor(&inst);

    let mut snapshots = 0u64;
    let mut sink = |_round: u64, _bytes: &[u8]| snapshots += 1;

    let baseline = alloc_probe::reset_peak();
    let out = run_stream_session(
        &mut source,
        &mut policy,
        &mut NullRecorder,
        &mut scratch,
        &mut watcher,
        StreamOptions {
            n_locations: 8,
            speed: 1,
            plan: CheckpointPolicy::EveryN(rounds / 4),
            ..Default::default()
        },
        Some(&mut sink),
    )
    .expect("zipf soak completes watcher-clean")
    .into_outcome();
    let peak = alloc_probe::peak_bytes().saturating_sub(baseline);

    assert_eq!(out.arrived, inst.total_jobs());
    assert_eq!(out.arrived, out.executed + out.dropped, "conservation across the zipf soak");
    assert!(snapshots >= 3, "only {snapshots} checkpoints emitted");
    eprintln!("zipf soak: {num_colors} colors, {rounds} rounds, live-heap peak {peak} bytes");
    assert!(
        peak < max_live_bytes,
        "zipf soak over {num_colors} colors grew live heap by {peak} bytes \
         (cap {max_live_bytes}); per-color state is no longer sparse"
    );
    // Same certification as [`soak`]: online cost ≥ OPT(8) ≥ certified
    // bound, computed outside the measured window.
    let lb = combined_lower_bound(&inst, 8);
    assert!(lb > 0, "the zipf universe must have a nonzero certified bound");
    assert!(
        out.cost.total() >= lb,
        "zipf soak cost {} beat the certified m=8 lower bound {lb}",
        out.cost.total()
    );
}
