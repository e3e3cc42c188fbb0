//! The traced run: timing wrappers at every layer boundary, spans kept in
//! memory and reported at the end, plus isolated rows that cross-check the
//! split by subtraction. It yields the per-layer metrics only; no
//! end-to-end metric comes from a traced process.
//!
//! The full stack is nested as
//! `Timed<VarBatch<Timed<Distribute<Timed<DeltaLruEdf>>>>>`, the instance
//! source as [`TimedSource`] and the JSONL sink as [`TimedRecorder`]. A
//! layer's self time is its span minus the spans of the layers it calls;
//! the engine's is the whole run minus the outer policy, source and sink
//! spans. A layer a workload never calls reports 0.

use std::time::Duration;

use rrs_core::{
    distribute_instance, varbatch_instance, DeltaLruEdf, Distribute, Footprint, StateFootprint,
    VarBatch,
};
use rrs_engine::policy::DoNothing;
use rrs_engine::{
    encode_snapshot, run_stream_session, CheckpointPolicy, NoWatcher, NullRecorder, Observation,
    Outcome, Phase, Policy, Recorder, Scratch, Simulator, Slot, Snapshot, SnapshotFile,
    SnapshotSink, Stopwatch, StreamOptions,
};
use rrs_model::{
    ColorId, ColorTable, Instance, InstanceSource, MaterializedSource, Request, SnapError,
    SnapReader, SnapWriter, StreamError,
};
use rrs_offline::{solve_opt, OptConfig};

use crate::measure::{self, Rep};
use crate::report::Report;
use crate::stats::{self, ms, ns_per_job, self_time};
use crate::workload::{Input, Workload, CHECKPOINT_EVERY, N_LOCATIONS};

/// Snapshot encodes and decodes timed for the checkpoint layer's medians.
const CODEC_REPEATS: usize = 101;

/// Work counted at one policy boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    /// Time inside the wrapped policy's `reconfigure`.
    pub busy: Duration,
    /// `(color, count)` arrival pairs handed in.
    pub arrival_pairs: u64,
    /// Jobs reported dropped.
    pub drops_seen: u64,
    /// Locations the wrapped policy recolored to a non-black color.
    pub recolors: u64,
}

/// A policy wrapper that times every `reconfigure` of the policy it wraps
/// and counts what crosses the boundary. It forwards the name and the
/// snapshot state, so snapshots are byte-identical to the bare stack's.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    stats: LayerStats,
    before: Vec<Slot>,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Self { inner, stats: LayerStats::default(), before: Vec::new() }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn stats(&self) -> LayerStats {
        self.stats
    }
}

impl<P: Policy> Policy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        self.inner.init(delta, n_locations);
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        self.stats.arrival_pairs += obs.arrivals.len() as u64;
        self.stats.drops_seen += obs.dropped.iter().map(|&(_, n)| n).sum::<u64>();
        self.before.clone_from(out);
        let sw = Stopwatch::start();
        self.inner.reconfigure(obs, out);
        self.stats.busy += sw.elapsed();
        self.stats.recolors +=
            self.before.iter().zip(out.iter()).filter(|(b, a)| b != a && a.is_some()).count()
                as u64;
    }
}

impl<P: Snapshot> Snapshot for Timed<P> {
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// An instance source that times `advance`, where a stream reads and
/// parses its next round.
pub struct TimedSource<S> {
    inner: S,
    busy: Duration,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, busy: Duration::ZERO }
    }
}

impl<S: InstanceSource> InstanceSource for TimedSource<S> {
    fn delta(&self) -> u64 {
        self.inner.delta()
    }
    fn colors(&self) -> &ColorTable {
        self.inner.colors()
    }
    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        let sw = Stopwatch::start();
        let r = self.inner.advance(round);
        self.busy += sw.elapsed();
        r
    }
    fn current(&self) -> &Request {
        self.inner.current()
    }
    fn horizon(&self) -> u64 {
        self.inner.horizon()
    }
}

/// A materialized instance as a session source, with its horizon computed
/// once, as `Simulator` does. `MaterializedSource::horizon` rescans every
/// arrival, and a streamed session asks for the horizon every round, which
/// would make the traced run quadratic in the input.
pub struct Materialized<'a> {
    inner: MaterializedSource<'a>,
    horizon: u64,
}

impl<'a> Materialized<'a> {
    pub fn new(inst: &'a Instance) -> Self {
        Self { inner: MaterializedSource::new(inst), horizon: inst.horizon() }
    }
}

impl InstanceSource for Materialized<'_> {
    fn delta(&self) -> u64 {
        self.inner.delta()
    }
    fn colors(&self) -> &ColorTable {
        self.inner.colors()
    }
    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        self.inner.advance(round)
    }
    fn current(&self) -> &Request {
        self.inner.current()
    }
    fn horizon(&self) -> u64 {
        self.horizon
    }
}

/// A recorder wrapper that times every hook of the recorder it wraps.
pub struct TimedRecorder<R> {
    inner: R,
    busy: Duration,
}

impl<R: Recorder> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        Self { inner, busy: Duration::ZERO }
    }

    fn timed(&mut self, hook: impl FnOnce(&mut R)) {
        let sw = Stopwatch::start();
        hook(&mut self.inner);
        self.busy += sw.elapsed();
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn on_round_start(&mut self, round: u64) {
        self.timed(|r| r.on_round_start(round));
    }
    fn on_phase_start(&mut self, round: u64, mini: u32, phase: Phase) {
        self.timed(|r| r.on_phase_start(round, mini, phase));
    }
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        self.timed(|r| r.on_drop(round, color, count));
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        self.timed(|r| r.on_arrive(round, color, count));
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        self.timed(|r| r.on_reconfig(round, mini, location, from, to));
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        self.timed(|r| r.on_execute(round, mini, color, count));
    }
    fn on_round_end(&mut self, round: u64) {
        self.timed(|r| r.on_round_end(round));
    }
}

/// The Theorem 3 stack with a timer at each of its three boundaries.
type TracedStack = Timed<VarBatch<Timed<Distribute<Timed<DeltaLruEdf>>>>>;

fn traced_stack() -> TracedStack {
    Timed::new(VarBatch::new(Timed::new(Distribute::new(Timed::new(DeltaLruEdf::new())))))
}

/// The spans and counts of one traced run.
#[derive(Clone, Copy, Debug, Default)]
struct Split {
    run: Duration,
    source: Duration,
    sink: Duration,
    var_batch: LayerStats,
    distribute: LayerStats,
    dlru_edf: LayerStats,
    sub_colors: u64,
}

impl Split {
    /// The split of a full-stack run.
    fn of_stack(stack: &TracedStack, run: Duration, source: Duration, sink: Duration) -> Self {
        let distribute = stack.inner().inner();
        let dlru_edf = distribute.inner().inner();
        Split {
            run,
            source,
            sink,
            var_batch: stack.stats(),
            distribute: distribute.stats(),
            dlru_edf: dlru_edf.stats(),
            sub_colors: distribute.inner().virtual_colors() as u64,
        }
    }

    /// The outermost policy span.
    fn policy(&self) -> Duration {
        [self.var_batch.busy, self.distribute.busy, self.dlru_edf.busy]
            .into_iter()
            .find(|d| !d.is_zero())
            .unwrap_or_default()
    }

    fn engine_self(&self) -> Duration {
        self_time(self.run, &[self.policy(), self.source, self.sink])
    }
}

/// Run `policy` over `source` through `run_stream_session`, timing the
/// whole call.
fn session<P: Snapshot, S: InstanceSource, R: Recorder>(
    policy: &mut P,
    source: &mut TimedSource<S>,
    recorder: &mut R,
    plan: CheckpointPolicy,
    on_snapshot: Option<SnapshotSink<'_>>,
    workload: &str,
) -> (Outcome, Duration) {
    let opts = StreamOptions {
        n_locations: N_LOCATIONS,
        speed: 1,
        resume_from: None,
        plan,
        stop_before: None,
    };
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let result = run_stream_session(
        source,
        policy,
        recorder,
        &mut scratch,
        &mut NoWatcher,
        opts,
        on_snapshot,
    );
    let run = sw.elapsed();
    (measure::completed(result, workload), run)
}

/// An isolated row: a fresh `make()` policy run bare over each instance.
/// Returns the total time and the policies, for their footprints.
fn row<P: Policy>(insts: &[Instance], make: impl Fn() -> P) -> (Duration, Vec<P>) {
    let mut total = Duration::ZERO;
    let mut policies = Vec::with_capacity(insts.len());
    for inst in insts {
        let mut p = make();
        let sim = Simulator::new(inst, N_LOCATIONS);
        let sw = Stopwatch::start();
        std::hint::black_box(sim.run(&mut p));
        total += sw.elapsed();
        policies.push(p);
    }
    (total, policies)
}

/// The largest footprint among `policies`, field by field.
fn peak_footprint<P: Footprint>(policies: &[P]) -> StateFootprint {
    policies.iter().map(Footprint::footprint).fold(StateFootprint::default(), |a, f| {
        StateFootprint {
            colorset_leaf_words: a.colorset_leaf_words.max(f.colorset_leaf_words),
            colormap_live_pages: a.colormap_live_pages.max(f.colormap_live_pages),
        }
    })
}

/// What a workload's traced process accumulates before it reports.
#[derive(Default)]
struct Traced {
    untraced_jps: Vec<f64>,
    traced_jps: Vec<f64>,
    rounds_ns: Vec<u64>,
    splits: Vec<Split>,
}

impl Traced {
    fn untraced(&mut self, rep: &Rep, jobs: u64) {
        self.untraced_jps.push(jobs as f64 / rep.run.as_secs_f64());
        self.rounds_ns.extend_from_slice(&rep.rounds_ns);
    }

    fn traced(&mut self, split: Split, jobs: u64, total: Duration) {
        self.traced_jps.push(jobs as f64 / total.as_secs_f64());
        self.splits.push(split);
    }

    /// Report the split's self times (one value per traced rep), its last
    /// rep's counts, the round-latency tail and the tracing overhead.
    fn report(mut self, report: &mut Report) {
        report.push("reps", self.splits.len() as f64);
        for s in &self.splits {
            report.push("engine.sim.self_ms", ms(s.engine_self()));
            report.push("model.stream.advance_ms", ms(s.source));
            report.push("engine.sink.write_ms", ms(s.sink));
            report.push(
                "core.var_batch.self_ms",
                ms(self_time(s.var_batch.busy, &[s.distribute.busy])),
            );
            report.push(
                "core.distribute.self_ms",
                ms(self_time(s.distribute.busy, &[s.dlru_edf.busy])),
            );
            report.push("core.dlru_edf.self_ms", ms(s.dlru_edf.busy));
        }
        let last = self.splits.last().copied().unwrap_or_default();
        for (layer, stats) in [
            ("core.var_batch", last.var_batch),
            ("core.distribute", last.distribute),
            ("core.dlru_edf", last.dlru_edf),
        ] {
            report.push(&format!("{layer}.arrival_pairs"), stats.arrival_pairs as f64);
            report.push(&format!("{layer}.drops_seen"), stats.drops_seen as f64);
            report.push(&format!("{layer}.recolors"), stats.recolors as f64);
        }
        report.push("core.distribute.sub_colors", last.sub_colors as f64);
        let yield_pct = if last.dlru_edf.recolors == 0 || last.distribute.busy.is_zero() {
            0.0
        } else {
            last.distribute.recolors as f64 * 100.0 / last.dlru_edf.recolors as f64
        };
        report.push("core.distribute.recolor_yield_pct", yield_pct);

        self.rounds_ns.sort_unstable();
        if let Some(p99) = stats::percentile(&self.rounds_ns, 99) {
            report.push("engine.sim.round_p99_us", stats::us(p99));
        }
        report.push("samples.engine.sim.round_p99_us", self.rounds_ns.len() as f64);
        if let (Some(u), Some(t)) =
            (stats::median(&self.untraced_jps), stats::median(&self.traced_jps))
        {
            report.push("trace.overhead_pct", (u / t - 1.0) * 100.0);
        }
    }
}

/// Report the isolated rows and the overheads derived from them by
/// subtraction: VarBatch = full − Distribute⟨ΔLRU-EDF⟩ on
/// `varbatch_instance(σ)`, Distribute = that − bare ΔLRU-EDF on
/// `distribute_instance(varbatch_instance(σ))`.
fn report_stack_rows(report: &mut Report, sigma: &Instance, full_ns_per_job: f64) {
    let jobs = sigma.total_jobs();
    let vinst = varbatch_instance(sigma);
    let (dinst, _) = distribute_instance(&vinst);
    let floor_ns = ns_per_job(row(std::slice::from_ref(sigma), || DoNothing).0, jobs);
    let (dist, _) = row(std::slice::from_ref(&vinst), || Distribute::new(DeltaLruEdf::new()));
    let (bare, _) = row(std::slice::from_ref(&dinst), DeltaLruEdf::new);
    let (dist_ns, bare_ns) = (ns_per_job(dist, jobs), ns_per_job(bare, jobs));
    report.push("engine.sim.floor_ns_per_job", floor_ns);
    report.push("core.var_batch.overhead_ns_per_job", (full_ns_per_job - dist_ns).max(0.0));
    report.push("core.distribute.overhead_ns_per_job", (dist_ns - bare_ns).max(0.0));
    report.push("core.dlru_edf.isolated_ns_per_job", bare_ns);
}

fn report_outcomes<'o>(report: &mut Report, outs: impl IntoIterator<Item = &'o Outcome>) {
    let (mut rounds, mut reconfigs, mut drops) = (0, 0, 0);
    for out in outs {
        rounds += out.rounds;
        reconfigs += out.cost.reconfigs;
        drops += out.dropped;
    }
    report.push("engine.sim.rounds", rounds as f64);
    report.push("engine.sim.reconfigs", reconfigs as f64);
    report.push("engine.sim.drops", drops as f64);
}

fn report_footprint(report: &mut Report, f: StateFootprint) {
    report.push("core.footprint.colorset_leaf_words", f.colorset_leaf_words as f64);
    report.push("core.footprint.colormap_live_pages", f.colormap_live_pages as f64);
}

fn check_same(report: &mut Report, workload: &str, traced: &Outcome, untraced: &Outcome) {
    report.check(traced == untraced, || {
        format!(
            "{workload}: traced outcome {} differs from untraced {}",
            measure::outcome_key(traced),
            measure::outcome_key(untraced)
        )
    });
}

/// Run `w`'s traced process: pairs of an untraced and a traced rep for
/// about `budget` (at least `min_pairs`), then the isolated rows. Every
/// per-layer metric is reported, 0 for a layer the workload never calls.
pub fn run(w: Workload, input: &Input, budget: Duration, min_pairs: u32) -> Report {
    let mut report = Report::default();
    report.note("input", input.identity());
    let sw = Stopwatch::start();
    let sigma: Vec<Instance> = input.texts.iter().map(|t| measure::parse(t, w.name())).collect();
    report.push("model.textio.parse_ms", ms(sw.elapsed()));
    report.push("model.textio.bytes", input.bytes() as f64);
    match w {
        Workload::ZipfWide | Workload::BurstyNarrow => {
            materialized(w.name(), input, &sigma[0], budget, min_pairs, &mut report)
        }
        Workload::StreamCheckpoint => streamed(input, &sigma[0], budget, min_pairs, &mut report),
        Workload::OptReferee => referee(input, &sigma, budget, min_pairs, &mut report),
    }
    for (name, _) in crate::PER_LAYER {
        if !report.values.contains_key(name) {
            report.push(name, 0.0);
        }
    }
    report
}

fn materialized(
    workload: &str,
    input: &Input,
    sigma: &Instance,
    budget: Duration,
    min_pairs: u32,
    report: &mut Report,
) {
    let mut traced = Traced::default();
    let mut full_ns = Vec::new();
    let mut last = None;
    let clock = Stopwatch::start();
    let mut pairs = 0;
    while measure::another_rep(&clock, pairs, min_pairs, budget) {
        pairs += 1;
        let (rep, out, policy) = measure::materialized_rep(&input.texts[0], workload);
        traced.untraced(&rep, input.jobs);
        full_ns.push(ns_per_job(rep.run, input.jobs));

        let mut stack = traced_stack();
        let mut source = TimedSource::new(Materialized::new(sigma));
        let (t_out, run) = session(
            &mut stack,
            &mut source,
            &mut NullRecorder,
            CheckpointPolicy::Never,
            None,
            workload,
        );
        check_same(report, workload, &t_out, &out);
        traced.traced(Split::of_stack(&stack, run, source.busy, Duration::ZERO), input.jobs, run);
        last = Some((out, policy.footprint()));
    }
    let (out, footprint) = last.expect("at least one pair");
    traced.report(report);
    report_outcomes(report, [&out]);
    report_footprint(report, footprint);
    report_stack_rows(report, sigma, stats::median(&full_ns).unwrap_or_default());
}

fn streamed(
    input: &Input,
    sigma: &Instance,
    budget: Duration,
    min_pairs: u32,
    report: &mut Report,
) {
    let workload = "stream_checkpoint";
    let text = &input.texts[0];
    let mut traced = Traced::default();
    let mut last = None;
    let clock = Stopwatch::start();
    let mut pairs = 0;
    while measure::another_rep(&clock, pairs, min_pairs, budget) {
        pairs += 1;
        let u = measure::stream_rep(text, input.rounds);
        traced.untraced(&u.rep, input.jobs);

        // The untraced session's stream and sink; the stack is the timed
        // one, which reports the same name, so the trace is the same too.
        let (stream, _, sink) = measure::open_session(text);
        let mut stack = traced_stack();
        let mut source = TimedSource::new(stream);
        let mut sink = TimedRecorder::new(sink);
        let mut on_snapshot = |_: u64, bytes: &[u8]| {
            std::hint::black_box(bytes);
        };
        let (t_out, run) = session(
            &mut stack,
            &mut source,
            &mut sink,
            CheckpointPolicy::EveryN(CHECKPOINT_EVERY),
            Some(&mut on_snapshot),
            workload,
        );
        check_same(report, workload, &t_out, &u.outcome);
        traced.traced(Split::of_stack(&stack, run, source.busy, sink.busy), input.jobs, run);
        last = Some(u);
    }
    let u = last.expect("at least one pair");
    traced.report(report);
    report_outcomes(report, [&u.outcome]);
    report.push("model.stream.bytes", text.len() as f64);
    report.push("engine.sink.lines", u.trace_lines as f64);
    report.push("engine.sink.bytes", u.trace_bytes.clone().unwrap_or_default() as f64);
    report.push("engine.checkpoint.snapshots", u.snapshots as f64);
    report.push("engine.checkpoint.snapshot_bytes", u.snapshot_bytes as f64);

    // The stack rows run on the materialized stream, so the full-stack row
    // is a materialized run too.
    let (full, policies) = row(std::slice::from_ref(sigma), rrs_core::full_algorithm);
    report_footprint(report, peak_footprint(&policies));
    report_stack_rows(report, sigma, ns_per_job(full, input.jobs));

    match &u.midpoint {
        Some(snapshot) => checkpoint_codec(report, text, snapshot, &u.outcome),
        None => {
            report.check(false, || format!("{workload}: no snapshot at the midpoint round"));
        }
    }
}

/// Time the snapshot codec on the midpoint snapshot (medians of repeated
/// encodes and decodes) and a resume from it to the end of the stream.
fn checkpoint_codec(report: &mut Report, text: &str, snapshot: &[u8], full: &Outcome) {
    let file = SnapshotFile::parse(snapshot).expect("checked by the untraced run");
    let delta = file.state.ledger.delta;
    let mut restored = rrs_core::full_algorithm();
    restored.init(delta, N_LOCATIONS);
    file.load_policy(&mut restored).expect("checked by the untraced run");
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..CODEC_REPEATS {
        let sw = Stopwatch::start();
        std::hint::black_box(encode_snapshot(&file.state, &restored));
        encode.push(sw.elapsed().as_secs_f64() * 1e6);
        let sw = Stopwatch::start();
        let parsed = SnapshotFile::parse(snapshot).expect("parsed above");
        let mut p = rrs_core::full_algorithm();
        p.init(delta, N_LOCATIONS);
        parsed.load_policy(&mut p).expect("loaded above");
        std::hint::black_box(&p);
        decode.push(sw.elapsed().as_secs_f64() * 1e6);
    }
    report.push("engine.checkpoint.encode_us", stats::median(&encode).unwrap_or_default());
    report.push("engine.checkpoint.decode_us", stats::median(&decode).unwrap_or_default());
    let sw = Stopwatch::start();
    let resumed = measure::resume(text, snapshot);
    report.push("engine.checkpoint.resume_s", sw.elapsed().as_secs_f64());
    report.check(resumed.as_ref() == Ok(full), || {
        "stream_checkpoint: traced resume differs from the uninterrupted run".to_string()
    });
}

fn referee(
    input: &Input,
    sigma: &[Instance],
    budget: Duration,
    min_pairs: u32,
    report: &mut Report,
) {
    let workload = "opt_referee";
    let mut traced = Traced::default();
    let mut solve_ns = Vec::new();
    let mut last = None;
    let clock = Stopwatch::start();
    let mut pairs = 0;
    while measure::another_rep(&clock, pairs, min_pairs, budget) {
        pairs += 1;
        let (rep, priced, solves) = measure::referee_rep(&input.texts);
        traced.untraced(&rep, input.jobs);
        solve_ns.extend_from_slice(&solves);

        // The referee path's layers: the solver, then the engine driving
        // a timed ΔLRU-EDF over a timed source, instance by instance.
        let mut split = Split::default();
        let sw = Stopwatch::start();
        for (inst, p) in sigma.iter().zip(&priced) {
            let solve = Stopwatch::start();
            std::hint::black_box(solve_opt(inst, 1, OptConfig::default()).ok());
            solve_ns.push(u64::try_from(solve.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let mut policy = Timed::new(DeltaLruEdf::new());
            let mut source = TimedSource::new(Materialized::new(inst));
            let (t_out, run) = session(
                &mut policy,
                &mut source,
                &mut NullRecorder,
                CheckpointPolicy::Never,
                None,
                workload,
            );
            check_same(report, workload, &t_out, &p.online);
            let s = policy.stats();
            split.run += run;
            split.source += source.busy;
            split.dlru_edf.busy += s.busy;
            split.dlru_edf.arrival_pairs += s.arrival_pairs;
            split.dlru_edf.drops_seen += s.drops_seen;
            split.dlru_edf.recolors += s.recolors;
        }
        traced.traced(split, input.jobs, sw.elapsed());
        last = Some(priced);
    }
    let priced = last.expect("at least one pair");
    traced.report(report);
    report_outcomes(report, priced.iter().map(|p| &p.online));
    let states: u64 = priced.iter().filter_map(|p| p.opt.as_ref().ok()).map(|(_, s)| s).sum();
    report.push("offline.opt.states_explored", states as f64);
    solve_ns.sort_unstable();
    for (pct, name) in [(50, "offline.opt.solve_p50_us"), (99, "offline.opt.solve_p99_us")] {
        if let Some(v) = stats::percentile(&solve_ns, pct) {
            report.push(name, stats::us(v));
        }
    }
    report.push("samples.offline.opt.solve_us", solve_ns.len() as f64);

    // The referee prices the instances as they are, so its only online
    // layer's isolated row is bare ΔLRU-EDF on σ itself.
    let floor_ns = ns_per_job(row(sigma, || DoNothing).0, input.jobs);
    let (bare, policies) = row(sigma, DeltaLruEdf::new);
    report.push("engine.sim.floor_ns_per_job", floor_ns);
    report.push("core.dlru_edf.isolated_ns_per_job", ns_per_job(bare, input.jobs));
    report_footprint(report, peak_footprint(&policies));
}
