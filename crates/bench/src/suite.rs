//! The fixed suites behind `rrs bench`: each suite produces one
//! [`BenchArtifact`] whose deterministic metrics are pure functions of the
//! pinned workloads and whose advisory metrics are wall-clock percentiles
//! over repeated timed runs.
//!
//! Suites:
//!
//! * **core** — single-threaded engine trajectory: the steady round loop
//!   (with allocs/round from [`crate::alloc_probe`]), the streamed soak
//!   with periodic checkpoints, the snapshot encode/decode codec, and
//!   exact OPT on a pinned adversary-corpus genome.
//! * **sweep** — `par_map_sweep` at 1/2/4/8 workers over a seeded bursty
//!   instance set, with throughput, speedup and scaling efficiency against
//!   the 1-worker sweep as advisory metrics. The deterministic side is
//!   *totals* (result count, worker slots, summed cost checksum), which
//!   are byte-identical at any worker count; which worker ran which item
//!   is timing-dependent and is not recorded.
//! * **zipf** — the sparse-state trajectory: the full stack and its
//!   no-`Distribute` ablation `VarBatch<ΔLRU-EDF>` on a Zipf-popular
//!   universe of 10⁴ (quick) / 10⁵ (full) colors, with
//!   each policy's per-color-state footprint (`colorset_leaf_words`,
//!   `colormap_live_pages`) recorded as *deterministic* metrics — so
//!   `bench compare` flags any footprint growth as a regression — plus a
//!   worker-ladder checksum proving the sweep stays byte-identical.
//! * **opt** — the memoized OPT solver (DESIGN.md §16): a cold pricing
//!   pass over the pinned genome set, a warm re-pricing pass hard-gated
//!   at ≥ 90% cache hits plus the persisted codec's round-trip identity,
//!   and the ≥ 10× scale-certification block on the interchangeable-color
//!   family the plain DP cannot touch.
//!
//! No wall-clock API is touched directly here — all timing goes through
//! [`Stopwatch`], the engine's audited advisory timer.

use std::io::{BufReader, Read, Write as _};
use std::time::Duration;

use rrs_engine::obs::names;
use rrs_engine::{
    encode_snapshot, jobs, par_map_sweep, set_jobs, CheckpointPolicy, CounterRecorder,
    CounterRegistry, NullRecorder, Policy, Session, SessionResult, Simulator, SnapshotFile,
    Stopwatch,
};
use rrs_model::{Instance, TextStream};
use rrs_offline::{solve_opt, solve_plain_dp, OptCache, OptConfig};
use rrs_workloads::bursty::{bursty_instance, BurstyConfig};
use rrs_workloads::genome::parse_genome;
use rrs_workloads::pinned::{
    opt_scale_cost, opt_scale_instance, opt_scale_jobs, OPT_BENCH_GENOMES,
};
use rrs_workloads::{zipf_popularity, ZipfConfig};

use crate::alloc_fixtures::{batched_instance, RoundAllocs};
use crate::alloc_probe;
use crate::artifact::{BenchArtifact, BenchRecord};

/// Suite names accepted by `rrs bench`.
pub const SUITES: &[&str] = &["core", "sweep", "zipf", "opt"];

/// The pinned OPT fixture: the seed adversary from
/// `tests/fixtures/adversaries/dlru-seed42.adv` (Δ=16, one color; the
/// exact referee scores OPT at 16 against ΔLRU's 47). Pinning the genome
/// text — not the decoded instance — keeps the bench tied to the same
/// corpus wire format the adversary search replays.
pub const PINNED_OPT_GENOME: &str = "d16|3:5:1:0:4";

/// Workload sizing + timing repetitions for one suite run.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// `true` shrinks workloads to the CI tier committed as `BENCH_*.json`.
    pub quick: bool,
    /// Timed repetitions behind the advisory percentiles.
    pub repetitions: u32,
}

impl SuiteConfig {
    /// The standard configuration for a tier.
    pub fn new(quick: bool) -> Self {
        Self { quick, repetitions: if quick { 3 } else { 7 } }
    }

    /// The artifact tier label.
    pub fn tier(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    fn pick(&self, quick: u64, full: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Run one suite by name.
pub fn run_suite(suite: &str, cfg: SuiteConfig) -> Result<BenchArtifact, String> {
    match suite {
        "core" => core_suite(cfg),
        "sweep" => sweep_suite(cfg),
        "zipf" => zipf_suite(cfg),
        "opt" => opt_suite(cfg),
        other => Err(format!("unknown suite '{other}' (available: {})", SUITES.join(", "))),
    }
}

// ---------------------------------------------------------------------------
// core suite
// ---------------------------------------------------------------------------

fn core_suite(cfg: SuiteConfig) -> Result<BenchArtifact, String> {
    if !alloc_probe::probe_active() {
        return Err("alloc probe is not the global allocator; the core suite's allocs/round \
                    metrics would read a fake zero (install with #[global_allocator] — the \
                    rrs CLI does)"
            .into());
    }
    let mut artifact = BenchArtifact::new("core", cfg.tier(), cfg.repetitions);
    artifact.benches.push(steady_round_loop(cfg)?);
    artifact.benches.push(stream_soak(cfg)?);
    artifact.benches.push(checkpoint_codec(cfg)?);
    artifact.benches.push(opt_guarded(cfg));
    Ok(artifact)
}

fn steady_round_loop(cfg: SuiteConfig) -> Result<BenchRecord, String> {
    let blocks = cfg.pick(128, 512);
    let inst = batched_instance(blocks);
    let warmup = inst.horizon() / 2;
    let sim = Simulator::new(&inst, 8);

    // Alloc pass: the per-round probe alone — a teed `CounterRecorder`
    // would itself allocate (BTreeMap key strings) inside the measured
    // window and pollute the zero-alloc contract.
    let mut allocs = RoundAllocs::with_capacity(inst.horizon() as usize + 1);
    let mut policy = rrs_core::DeltaLruEdf::new();
    sim.run_traced(&mut policy, &mut allocs);

    // Counting pass: deterministic event counters, fresh policy state.
    let mut reg = CounterRegistry::new();
    let mut policy = rrs_core::DeltaLruEdf::new();
    let out = sim.run_traced(&mut policy, &mut CounterRecorder::new(&mut reg));
    if out.arrived != out.executed + out.dropped {
        return Err(format!(
            "steady_round_loop conservation violated: {} arrived vs {} executed + {} dropped",
            out.arrived, out.executed, out.dropped
        ));
    }
    let (steady_max, steady_total) = allocs.steady(warmup);

    let mut record = BenchRecord::new("steady_round_loop");
    record
        .det(names::ROUNDS, reg.get(names::ROUNDS))
        .det(names::ARRIVED, reg.get(names::ARRIVED))
        .det(names::EXECUTED, reg.get(names::EXECUTED))
        .det(names::DROPPED, reg.get(names::DROPPED))
        .det(names::RECONFIGS, reg.get(names::RECONFIGS))
        .det("allocs_per_round_steady_max", steady_max)
        .det("allocs_steady_total", steady_total);

    // Timed passes: fresh policy and scratch each repetition, no recorder.
    let mut samples = Vec::new();
    for _ in 0..cfg.repetitions {
        let mut policy = rrs_core::DeltaLruEdf::new();
        let sw = Stopwatch::start();
        let out = sim.run(&mut policy);
        samples.push(per_sec(out.rounds, sw.elapsed()));
    }
    push_rate_percentiles(&mut record, "rounds_per_sec", &mut samples);
    Ok(record)
}

/// Lazily synthesized text workload for the streamed soak (the
/// `tests/stream_stress.rs` shape): a steady drip, a periodic big batch,
/// and off-boundary arrivals — one round of lines buffered at a time.
struct SoakText {
    rounds: u64,
    next_round: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl SoakText {
    fn new(rounds: u64) -> Self {
        let mut buf = Vec::with_capacity(128);
        write!(buf, "delta 2\ncolor 0 2\ncolor 1 8\ncolor 2 4\n").expect("vec write");
        Self { rounds, next_round: 0, buf, pos: 0 }
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
                    writeln!(self.buf, "arrive {r} 0 1").expect("vec write");
                }
                if r.is_multiple_of(8) {
                    writeln!(self.buf, "arrive {r} 1 6").expect("vec write");
                }
                if r % 4 == 1 {
                    writeln!(self.buf, "arrive {r} 2 2").expect("vec write");
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

fn stream_soak(cfg: SuiteConfig) -> Result<BenchRecord, String> {
    let rounds = cfg.pick(10_000, 1_000_000);
    let every = rounds / 4;

    let mut record = BenchRecord::new("stream_soak");
    let mut samples = Vec::new();
    let mut peak_heap = 0u64;
    for rep in 0..cfg.repetitions {
        let source = TextStream::new(BufReader::new(SoakText::new(rounds)))
            .map_err(|e| format!("soak header: {e}"))?;
        let mut policy = rrs_core::full_algorithm();
        let mut reg = CounterRegistry::new();
        let mut snapshots = 0u64;
        let mut snapshot_bytes = 0u64;
        let mut sink = |_round: u64, bytes: &[u8]| {
            snapshots += 1;
            snapshot_bytes += bytes.len() as u64;
        };
        alloc_probe::reset_peak();
        let sw = Stopwatch::start();
        let out = Session::new(source, 8)
            .checkpoints(CheckpointPolicy::EveryN(every), &mut sink)
            .run(&mut policy, &mut CounterRecorder::new(&mut reg))
            .map_err(|e| format!("soak run failed: {e:?}"))?
            .into_outcome();
        samples.push(per_sec(out.rounds, sw.elapsed()));
        peak_heap = peak_heap.max(alloc_probe::peak_growth());
        if out.arrived != out.executed + out.dropped {
            return Err("stream_soak conservation violated".into());
        }
        if rep == 0 {
            record
                .det(names::ROUNDS, reg.get(names::ROUNDS))
                .det(names::ARRIVED, reg.get(names::ARRIVED))
                .det(names::EXECUTED, reg.get(names::EXECUTED))
                .det(names::DROPPED, reg.get(names::DROPPED))
                .det(names::SNAPSHOTS, snapshots)
                .det(names::SNAPSHOT_BYTES, snapshot_bytes);
        } else if record.det_value(names::SNAPSHOT_BYTES) != Some(snapshot_bytes)
            || record.det_value(names::DROPPED) != Some(reg.get(names::DROPPED))
        {
            return Err("stream_soak deterministic metrics differ across repetitions".into());
        }
    }
    push_rate_percentiles(&mut record, "rounds_per_sec", &mut samples);
    record.adv("peak_heap_bytes", peak_heap as f64);
    Ok(record)
}

fn checkpoint_codec(cfg: SuiteConfig) -> Result<BenchRecord, String> {
    let inst = batched_instance(64);
    let sim = Simulator::new(&inst, 8);
    let at_round = inst.horizon() / 2;
    let mut policy = rrs_core::full_algorithm();
    let session = sim.session().stop_before(at_round);
    let snapshot = match session.run(&mut policy, &mut NullRecorder).map_err(|e| e.to_string())? {
        SessionResult::Suspended { snapshot, .. } => snapshot,
        SessionResult::Completed(_) => {
            return Err(format!("checkpoint at round {at_round} unexpectedly completed"));
        }
    };

    // Decode once for the identity check: parse + load, then re-encode.
    let file = SnapshotFile::parse(&snapshot).map_err(|e| format!("snapshot parse: {e}"))?;
    let mut restored = rrs_core::full_algorithm();
    restored.init(inst.delta, 8);
    file.load_policy(&mut restored).map_err(|e| format!("snapshot load: {e}"))?;
    let reencoded = encode_snapshot(&file.state, &restored);
    if reencoded != snapshot {
        return Err("snapshot re-encode is not byte-identical to the original".into());
    }

    let mut record = BenchRecord::new("checkpoint_codec");
    record.det(names::SNAPSHOT_BYTES, snapshot.len() as u64).det("reencode_identical", 1);

    let iters = cfg.pick(200, 2_000) as u32;
    let mut encode_samples = Vec::new();
    let mut decode_samples = Vec::new();
    for _ in 0..cfg.repetitions {
        let sw = Stopwatch::start();
        for _ in 0..iters {
            std::hint::black_box(encode_snapshot(&file.state, &restored));
        }
        encode_samples.push(per_sec(u64::from(iters), sw.elapsed()));
        let sw = Stopwatch::start();
        for _ in 0..iters {
            let f = SnapshotFile::parse(&snapshot).expect("validated above");
            let mut p = rrs_core::full_algorithm();
            p.init(inst.delta, 8);
            f.load_policy(&mut p).expect("validated above");
            std::hint::black_box(&p);
        }
        decode_samples.push(per_sec(u64::from(iters), sw.elapsed()));
    }
    push_rate_percentiles(&mut record, "encodes_per_sec", &mut encode_samples);
    push_rate_percentiles(&mut record, "decodes_per_sec", &mut decode_samples);
    Ok(record)
}

fn opt_guarded(cfg: SuiteConfig) -> BenchRecord {
    let inst = parse_genome(PINNED_OPT_GENOME).expect("pinned genome parses").decode();
    let mut record = BenchRecord::new("opt_guarded");
    let mut samples = Vec::new();
    let solves = cfg.pick(5, 20) as u32;
    for rep in 0..cfg.repetitions {
        let sw = Stopwatch::start();
        let mut last = None;
        for _ in 0..solves {
            last = Some(
                solve_opt(&inst, 1, OptConfig::default())
                    .expect("pinned corpus instance solves exactly"),
            );
        }
        samples.push(per_sec(u64::from(solves), sw.elapsed()));
        let opt = last.expect("at least one solve per repetition");
        if rep == 0 {
            record
                .det("opt_cost", opt.cost)
                .det("opt_reconfigs", opt.reconfigs)
                .det("opt_drops", opt.drops)
                .det("opt_states_explored", opt.states_explored as u64);
        }
    }
    push_rate_percentiles(&mut record, "solves_per_sec", &mut samples);
    record
}

// ---------------------------------------------------------------------------
// sweep suite
// ---------------------------------------------------------------------------

/// Worker counts the sweep suite pins (ROADMAP item 5's 1/2/4/8 ladder).
pub const SWEEP_WORKERS: &[usize] = &[1, 2, 4, 8];

fn sweep_suite(cfg: SuiteConfig) -> Result<BenchArtifact, String> {
    let n_items = cfg.pick(32, 128);
    let items: Vec<Instance> =
        (0..n_items).map(|seed| bursty_instance(&BurstyConfig::default(), seed)).collect();

    let mut artifact = BenchArtifact::new("sweep", cfg.tier(), cfg.repetitions);
    let jobs_before = jobs();
    let mut median_w1 = None;
    let mut checksum_w1 = None;
    for &workers in SWEEP_WORKERS {
        set_jobs(workers);
        let mut record = BenchRecord::new(&format!("sweep_w{workers}"));
        let mut samples = Vec::new();
        for rep in 0..cfg.repetitions {
            let sw = Stopwatch::start();
            let costs = par_map_sweep(&items, |inst| {
                let mut policy = rrs_core::full_algorithm();
                Simulator::new(inst, 8).run(&mut policy).total_cost()
            });
            let elapsed = sw.elapsed();
            samples.push(per_sec(costs.len() as u64, elapsed));
            let checksum: u64 = costs.iter().sum();
            if rep == 0 {
                record
                    .det(names::SWEEP_ITEMS, costs.len() as u64)
                    .det("cost_checksum", checksum)
                    .det("worker_slots", workers.min(items.len()) as u64);
            } else if record.det_value("cost_checksum") != Some(checksum) {
                set_jobs(jobs_before);
                return Err(format!(
                    "sweep_w{workers} deterministic metrics differ across repetitions"
                ));
            }
        }
        let (median, p10, p90) = percentiles(&mut samples);
        record.adv("items_per_sec_median", median);
        record.adv("items_per_sec_p10", p10);
        record.adv("items_per_sec_p90", p90);
        match (median_w1, checksum_w1) {
            (None, None) => {
                median_w1 = Some(median);
                checksum_w1 = record.det_value("cost_checksum");
            }
            (Some(base), Some(expect)) => {
                if record.det_value("cost_checksum") != Some(expect) {
                    set_jobs(jobs_before);
                    return Err(format!(
                        "sweep_w{workers} cost checksum differs from the 1-worker sweep; \
                         parallel results are no longer byte-identical"
                    ));
                }
                if base > 0.0 {
                    let speedup = median / base;
                    record.adv("speedup_vs_w1", speedup);
                    record.adv("efficiency", speedup / workers as f64);
                }
            }
            _ => unreachable!("median and checksum are set together"),
        }
        artifact.benches.push(record);
    }
    set_jobs(jobs_before);
    Ok(artifact)
}

// ---------------------------------------------------------------------------
// zipf suite
// ---------------------------------------------------------------------------

fn zipf_suite(cfg: SuiteConfig) -> Result<BenchArtifact, String> {
    let zcfg =
        ZipfConfig { num_colors: cfg.pick(10_000, 100_000) as usize, ..ZipfConfig::default() };
    let inst = zipf_popularity(&zcfg, 16);

    let mut artifact = BenchArtifact::new("zipf", cfg.tier(), cfg.repetitions);
    artifact.benches.push(zipf_policy_run(
        "zipf_full_stack",
        &inst,
        cfg,
        rrs_core::full_algorithm,
    )?);
    artifact.benches.push(zipf_policy_run(
        "zipf_varbatch_dlru_edf",
        &inst,
        cfg,
        varbatch_dlru_edf,
    )?);
    artifact.benches.push(zipf_sweep_determinism(&zcfg, cfg)?);
    Ok(artifact)
}

/// The no-`Distribute` ablation: `VarBatch` aligns the Zipf traffic's
/// off-boundary arrivals to block boundaries (bare ΔLRU-EDF requires
/// batched arrivals), but oversized batches are not split.
fn varbatch_dlru_edf() -> rrs_core::VarBatch<rrs_core::DeltaLruEdf> {
    rrs_core::VarBatch::new(rrs_core::DeltaLruEdf::new())
}

/// One policy's run over the pinned Zipf instance. The deterministic side
/// records outcome totals *and* the policy's post-run per-color-state
/// footprint — occupied `ColorSet` leaf words and materialized `ColorMap`
/// pages — so `bench compare` treats any footprint growth on the same
/// workload as a regression (larger-is-worse is the comparator's default
/// for deterministic metrics).
fn zipf_policy_run<P: Policy>(
    name: &str,
    inst: &Instance,
    cfg: SuiteConfig,
    mk: fn() -> P,
) -> Result<BenchRecord, String> {
    let sim = Simulator::new(inst, 8);
    let mut policy = mk();
    let out = sim.run(&mut policy);
    if out.arrived != out.executed + out.dropped {
        return Err(format!("{name} conservation violated"));
    }
    let fp = policy.stats().footprint;

    let mut record = BenchRecord::new(name);
    record
        .det(names::ROUNDS, out.rounds)
        .det(names::ARRIVED, out.arrived)
        .det(names::EXECUTED, out.executed)
        .det(names::DROPPED, out.dropped)
        .det("total_cost", out.total_cost())
        .det(names::COLORSET_LEAF_WORDS, fp.colorset_leaf_words)
        .det(names::COLORMAP_LIVE_PAGES, fp.colormap_live_pages);

    let mut samples = Vec::new();
    for _ in 0..cfg.repetitions {
        let mut policy = mk();
        let sw = Stopwatch::start();
        let rerun = sim.run(&mut policy);
        samples.push(per_sec(rerun.rounds, sw.elapsed()));
        if rerun != out {
            return Err(format!("{name} outcome differs across repetitions"));
        }
    }
    push_rate_percentiles(&mut record, "rounds_per_sec", &mut samples);
    Ok(record)
}

/// The worker-ladder determinism check on Zipf traffic: a seeded sweep of
/// smaller universes run at every [`SWEEP_WORKERS`] count must produce the
/// same summed cost checksum at any parallelism (and across repetitions).
fn zipf_sweep_determinism(zcfg: &ZipfConfig, cfg: SuiteConfig) -> Result<BenchRecord, String> {
    let n_items = cfg.pick(8, 16);
    let small = ZipfConfig { num_colors: zcfg.num_colors / 10, ..zcfg.clone() };
    let items: Vec<Instance> = (0..n_items).map(|seed| zipf_popularity(&small, seed)).collect();

    let mut record = BenchRecord::new("zipf_sweep");
    let jobs_before = jobs();
    let mut expected = None;
    for &workers in SWEEP_WORKERS {
        set_jobs(workers);
        for _ in 0..cfg.repetitions {
            let costs = par_map_sweep(&items, |inst| {
                let mut policy = rrs_core::full_algorithm();
                Simulator::new(inst, 8).run(&mut policy).total_cost()
            });
            let checksum: u64 = costs.iter().sum();
            match expected {
                None => {
                    expected = Some(checksum);
                    record
                        .det(names::SWEEP_ITEMS, costs.len() as u64)
                        .det("cost_checksum", checksum)
                        .det("worker_counts_checked", SWEEP_WORKERS.len() as u64);
                }
                Some(want) if want != checksum => {
                    set_jobs(jobs_before);
                    return Err(format!(
                        "zipf sweep checksum differs at {workers} workers: {checksum} vs {want}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    set_jobs(jobs_before);
    Ok(record)
}

// ---------------------------------------------------------------------------
// opt suite
// ---------------------------------------------------------------------------

/// The pinned referee for the opt suite — the same guard the adversary
/// corpus replays under (`rrs_search::CORPUS_OPT`), restated because the
/// bench crate does not depend on the search crate. Never retune without
/// re-recording `BENCH_opt.json`.
pub const OPT_BENCH_CONFIG: OptConfig =
    OptConfig { max_states: 20_000, state_budget: Some(200_000) };

/// Scale-family size for the ≥ 10× certification block: under
/// [`OPT_BENCH_CONFIG`] the plain DP handles `opt_scale_instance(12)`
/// (384 jobs) and overflows `max_states` before k = 20, while the
/// memoized solver certifies k = 120 (3840 jobs, 10× the jobs) in a
/// constant-size canonical state space.
pub const OPT_SCALE_K: usize = 120;

fn opt_suite(cfg: SuiteConfig) -> Result<BenchArtifact, String> {
    let mut instances = Vec::with_capacity(OPT_BENCH_GENOMES.len());
    for text in OPT_BENCH_GENOMES {
        instances.push(parse_genome(text).map_err(|e| format!("pinned genome: {e}"))?.decode());
    }
    let mut artifact = BenchArtifact::new("opt", cfg.tier(), cfg.repetitions);
    let (cold, cache) = opt_memo_cold(cfg, &instances)?;
    let cold_checksum = cold.det_value("cost_checksum");
    artifact.benches.push(cold);
    artifact.benches.push(opt_memo_warm(cfg, &instances, cache, cold_checksum)?);
    artifact.benches.push(opt_scale_10x(cfg)?);
    Ok(artifact)
}

/// Price every pinned genome from an empty cache. The deterministic side
/// is the summed optimum and the solver's obs counters; the advisory side
/// is cold solves/sec. Returns the warm cache for [`opt_memo_warm`].
fn opt_memo_cold(
    cfg: SuiteConfig,
    instances: &[Instance],
) -> Result<(BenchRecord, OptCache), String> {
    let mut record = BenchRecord::new("opt_memo_cold");
    let mut samples = Vec::new();
    let mut warm = OptCache::new();
    for rep in 0..cfg.repetitions {
        let mut cache = OptCache::new();
        let mut reg = CounterRegistry::new();
        let mut cost_sum = 0u64;
        let sw = Stopwatch::start();
        for inst in instances {
            let (r, hit) = cache
                .solve(inst, 1, OPT_BENCH_CONFIG)
                .map_err(|e| format!("cold memoized solve failed: {e:?}"))?;
            reg.add(names::OPT_SOLVED_STATES, r.stats.solved_states);
            reg.add(names::OPT_PRUNED_STATES, r.stats.pruned_states);
            reg.add(names::OPT_CACHE_HITS, u64::from(hit));
            reg.add(names::OPT_CACHE_LOOKUPS, 1);
            cost_sum += r.cost;
        }
        samples.push(per_sec(instances.len() as u64, sw.elapsed()));
        if rep == 0 {
            record
                .det("cost_checksum", cost_sum)
                .det(names::OPT_SOLVED_STATES, reg.get(names::OPT_SOLVED_STATES))
                .det(names::OPT_PRUNED_STATES, reg.get(names::OPT_PRUNED_STATES))
                .det(names::OPT_CACHE_HITS, reg.get(names::OPT_CACHE_HITS))
                .det(names::OPT_CACHE_LOOKUPS, reg.get(names::OPT_CACHE_LOOKUPS));
        } else if record.det_value("cost_checksum") != Some(cost_sum)
            || record.det_value(names::OPT_SOLVED_STATES) != Some(reg.get(names::OPT_SOLVED_STATES))
            || record.det_value(names::OPT_PRUNED_STATES) != Some(reg.get(names::OPT_PRUNED_STATES))
        {
            return Err("opt_memo_cold deterministic metrics differ across repetitions".into());
        }
        warm = cache;
    }
    push_rate_percentiles(&mut record, "solves_per_sec", &mut samples);
    Ok((record, warm))
}

/// Re-price every pinned genome from the warm cache: the acceptance gate
/// requires ≥ 90% cache hits, and the persisted codec must round-trip the
/// cache byte-identically.
fn opt_memo_warm(
    cfg: SuiteConfig,
    instances: &[Instance],
    mut cache: OptCache,
    cold_checksum: Option<u64>,
) -> Result<BenchRecord, String> {
    let mut record = BenchRecord::new("opt_memo_warm");
    let mut samples = Vec::new();
    for rep in 0..cfg.repetitions {
        let mut reg = CounterRegistry::new();
        let mut cost_sum = 0u64;
        let sw = Stopwatch::start();
        for inst in instances {
            let (r, hit) = cache
                .solve(inst, 1, OPT_BENCH_CONFIG)
                .map_err(|e| format!("warm memoized solve failed: {e:?}"))?;
            reg.add(names::OPT_CACHE_HITS, u64::from(hit));
            reg.add(names::OPT_CACHE_LOOKUPS, 1);
            cost_sum += r.cost;
        }
        samples.push(per_sec(instances.len() as u64, sw.elapsed()));
        let hits = reg.get(names::OPT_CACHE_HITS);
        let lookups = reg.get(names::OPT_CACHE_LOOKUPS);
        let hit_pct = (hits * 100).checked_div(lookups).unwrap_or(0);
        if hit_pct < 90 {
            return Err(format!(
                "warm-cache re-solve hit only {hits}/{lookups} lookups ({hit_pct}%); the \
                 acceptance gate requires ≥ 90%"
            ));
        }
        if cold_checksum != Some(cost_sum) {
            return Err(format!(
                "warm re-solve cost checksum {cost_sum} differs from cold {cold_checksum:?}"
            ));
        }
        if rep == 0 {
            record
                .det("cost_checksum", cost_sum)
                .det(names::OPT_CACHE_HITS, hits)
                .det(names::OPT_CACHE_LOOKUPS, lookups)
                .det("cache_hit_pct", hit_pct);
        } else if record.det_value(names::OPT_CACHE_HITS) != Some(hits) {
            return Err("opt_memo_warm deterministic metrics differ across repetitions".into());
        }
    }
    // Persisted-codec identity: encode → parse → re-encode must be
    // byte-identical (the wire format's committed contract).
    let bytes = cache.encode();
    let reparsed = OptCache::parse(&bytes).map_err(|e| format!("warm cache re-parse: {e}"))?;
    if reparsed.encode() != bytes {
        return Err("opt cache re-encode is not byte-identical".into());
    }
    record.det("opt_cache_bytes", bytes.len() as u64).det("reencode_identical", 1);
    push_rate_percentiles(&mut record, "solves_per_sec", &mut samples);
    Ok(record)
}

/// The ≥ 10× certification block: the memoized solver certifies the
/// `k = `[`OPT_SCALE_K`] scale instance — 10× the jobs of the largest
/// family member the plain DP handles under the *same* budget — and the
/// plain DP's refusal on it is re-checked every run.
fn opt_scale_10x(cfg: SuiteConfig) -> Result<BenchRecord, String> {
    let inst = opt_scale_instance(OPT_SCALE_K);
    let plain_refuses = match solve_plain_dp(&inst, 1, OPT_BENCH_CONFIG) {
        Ok(_) => 0u64,
        Err(_) => 1u64,
    };
    if plain_refuses == 0 {
        return Err(format!(
            "the plain DP unexpectedly certified opt_scale_instance({OPT_SCALE_K}); the 10× \
             headroom pin needs re-calibration"
        ));
    }

    let mut record = BenchRecord::new("opt_scale_10x");
    let mut samples = Vec::new();
    for rep in 0..cfg.repetitions {
        let sw = Stopwatch::start();
        let r = solve_opt(&inst, 1, OPT_BENCH_CONFIG)
            .map_err(|e| format!("scale-family memoized solve failed: {e:?}"))?;
        samples.push(per_sec(1, sw.elapsed()));
        if r.cost != opt_scale_cost(OPT_SCALE_K) {
            return Err(format!(
                "scale-family optimum {} disagrees with the pinned closed form {}",
                r.cost,
                opt_scale_cost(OPT_SCALE_K)
            ));
        }
        if rep == 0 {
            record
                .det("scale_k", OPT_SCALE_K as u64)
                .det("scale_jobs", opt_scale_jobs(OPT_SCALE_K))
                .det("opt_cost", r.cost)
                .det(names::OPT_SOLVED_STATES, r.stats.solved_states)
                .det(names::OPT_PRUNED_STATES, r.stats.pruned_states)
                .det("plain_dp_refuses", plain_refuses);
        } else if record.det_value(names::OPT_SOLVED_STATES) != Some(r.stats.solved_states) {
            return Err("opt_scale_10x deterministic metrics differ across repetitions".into());
        }
    }
    push_rate_percentiles(&mut record, "solves_per_sec", &mut samples);
    Ok(record)
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

fn per_sec(count: u64, dt: Duration) -> f64 {
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// Nearest-rank (median, p10, p90) of a sample set; sorts in place.
pub fn percentiles(samples: &mut [f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "percentiles need at least one sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let rank = |p: f64| {
        let idx = (p * (samples.len() - 1) as f64).round() as usize;
        samples[idx.min(samples.len() - 1)]
    };
    (rank(0.5), rank(0.1), rank(0.9))
}

fn push_rate_percentiles(record: &mut BenchRecord, base: &str, samples: &mut [f64]) {
    let (median, p10, p90) = percentiles(samples);
    record.adv(&format!("{base}_median"), median);
    record.adv(&format!("{base}_p10"), p10);
    record.adv(&format!("{base}_p90"), p90);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let (median, p10, p90) = percentiles(&mut s);
        assert_eq!((median, p10, p90), (3.0, 1.0, 5.0));
        let mut one = vec![7.0];
        assert_eq!(percentiles(&mut one), (7.0, 7.0, 7.0));
    }

    #[test]
    fn unknown_suite_is_an_error() {
        let err = run_suite("nope", SuiteConfig::new(true)).unwrap_err();
        assert!(err.contains("unknown suite"), "{err}");
        assert!(err.contains("core"), "{err}");
    }

    #[test]
    fn core_suite_requires_the_probe() {
        // This (library) test binary does not install the probe, so the
        // core suite must refuse rather than record fake zero allocs. The
        // probe-installed path runs in `tests/bench_artifact.rs`.
        let err = run_suite("core", SuiteConfig::new(true)).unwrap_err();
        assert!(err.contains("alloc probe"), "{err}");
    }

    #[test]
    fn sweep_suite_is_deterministic_without_the_probe() {
        let a = run_suite("sweep", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        let b = run_suite("sweep", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        assert_eq!(a.benches.len(), SWEEP_WORKERS.len());
        for (x, y) in a.benches.iter().zip(&b.benches) {
            assert_eq!(x.deterministic, y.deterministic, "{}", x.name);
        }
        // All worker counts agree on the deterministic checksum.
        let checksum = a.benches[0].det_value("cost_checksum").unwrap();
        for bench in &a.benches {
            assert_eq!(bench.det_value("cost_checksum"), Some(checksum), "{}", bench.name);
        }
    }

    #[test]
    fn zipf_suite_is_deterministic_and_sparse() {
        let a = run_suite("zipf", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        let b = run_suite("zipf", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        assert_eq!(a.benches.len(), 3);
        for (x, y) in a.benches.iter().zip(&b.benches) {
            assert_eq!(x.deterministic, y.deterministic, "{}", x.name);
        }
        // Both policies report a footprint, and it stays far below the
        // dense occupancy of the 10^4-color quick universe (≥157 words
        // per set / pages per map if per-color state were dense).
        for name in ["zipf_full_stack", "zipf_varbatch_dlru_edf"] {
            let bench = a.benches.iter().find(|r| r.name == name).expect(name);
            let words = bench.det_value(names::COLORSET_LEAF_WORDS).expect("words recorded");
            let pages = bench.det_value(names::COLORMAP_LIVE_PAGES).expect("pages recorded");
            let arrived = bench.det_value(names::ARRIVED).expect("arrivals recorded");
            assert!(words > 0 && pages > 0, "{name}: empty footprint");
            assert!(
                words < arrived && pages < arrived,
                "{name}: footprint ({words} words, {pages} pages) not sparse vs {arrived} jobs"
            );
        }
    }

    #[test]
    fn opt_suite_is_deterministic_and_hits_the_warm_cache() {
        let a = run_suite("opt", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        let b = run_suite("opt", SuiteConfig { quick: true, repetitions: 1 }).expect("runs");
        assert_eq!(a.benches.len(), 3);
        for (x, y) in a.benches.iter().zip(&b.benches) {
            assert_eq!(x.deterministic, y.deterministic, "{}", x.name);
        }
        let warm = a.benches.iter().find(|r| r.name == "opt_memo_warm").expect("warm block");
        assert_eq!(warm.det_value("cache_hit_pct"), Some(100));
        assert_eq!(warm.det_value("reencode_identical"), Some(1));
        let scale = a.benches.iter().find(|r| r.name == "opt_scale_10x").expect("scale block");
        assert_eq!(scale.det_value("plain_dp_refuses"), Some(1));
        assert_eq!(scale.det_value("opt_cost"), Some(32 * OPT_SCALE_K as u64 - 28));
    }

    #[test]
    fn pinned_genome_still_solves_to_the_corpus_cost() {
        let inst = parse_genome(PINNED_OPT_GENOME).expect("parses").decode();
        let opt = solve_opt(&inst, 1, OptConfig::default()).expect("solves");
        assert_eq!(opt.cost, 16, "the dlru-seed42 corpus fixture pins base (OPT) cost 16");
    }
}
