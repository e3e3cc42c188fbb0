//! The untraced measurement. Each rep hands the program the workload's
//! `.rrs` text, builds a fresh policy and runs the whole input as fast as it
//! can (one caller, closed loop); the only instrument inside the timed call
//! is a round-boundary [`RoundTimer`]. After the reps come the output
//! checks, each counted as one operation.

use std::io;
use std::time::Duration;

use rrs_core::{full_algorithm, varbatch_instance, DeltaLruEdf, Distribute, FullAlgorithm};
use rrs_engine::{
    encode_snapshot, run_stream_session, CheckpointPolicy, JsonlSink, NoWatcher, NullRecorder,
    Outcome, Policy, Recorder, Scratch, SessionError, SessionResult, Simulator, SnapshotFile,
    Stopwatch, StreamOptions, TraceMeta,
};
use rrs_model::{from_text, Instance, InstanceSource, TextStream};
use rrs_offline::{combined_lower_bound, solve_opt, OptConfig};

use crate::report::Report;
use crate::stats;
use crate::workload::{Input, Workload, CHECKPOINT_EVERY, N_LOCATIONS};

/// Set-ups timed per streamed rep. Opening a stream costs microseconds, so
/// one sample per rep would measure the clock and the cold cache; the rep
/// reports the median of these.
const STREAM_SETUP_REPEATS: usize = 33;

/// Records each round's wall time between the round-start and round-end
/// hooks. Storage is reserved up front so the timed run does not allocate
/// for it.
pub struct RoundTimer {
    open: Option<Stopwatch>,
    ns: Vec<u64>,
}

impl RoundTimer {
    /// A timer with room for `rounds` samples.
    pub fn with_capacity(rounds: u64) -> Self {
        Self { open: None, ns: Vec::with_capacity(rounds as usize) }
    }

    /// The samples, ascending.
    pub fn into_sorted(mut self) -> Vec<u64> {
        self.ns.sort_unstable();
        self.ns
    }
}

impl Recorder for RoundTimer {
    fn on_round_start(&mut self, _round: u64) {
        self.open = Some(Stopwatch::start());
    }
    fn on_round_end(&mut self, _round: u64) {
        if let Some(sw) = self.open.take() {
            self.ns.push(u64::try_from(sw.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A write sink that keeps only the byte count.
#[derive(Debug, Default)]
pub struct ByteCounter(pub u64);

impl io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The timings of one rep.
pub struct Rep {
    /// Parse the input and build the simulator and policy.
    pub setup: Duration,
    /// The timed call that processes the whole input.
    pub run: Duration,
    /// Per-round wall times, ascending.
    pub rounds_ns: Vec<u64>,
}

/// Parse a generated text. The benchmark wrote it, so a failure is a bug in
/// the text codec and nothing after it can be measured.
pub fn parse(text: &str, workload: &str) -> Instance {
    from_text(text).unwrap_or_else(|e| panic!("{workload}: generated input does not parse: {e}"))
}

/// One rep of a materialized workload: `from_text`, then the full stack
/// through `Simulator::run_traced`. Returns the policy for its footprint.
pub fn materialized_rep(text: &str, workload: &str) -> (Rep, Outcome, FullAlgorithm) {
    let sw = Stopwatch::start();
    let inst = parse(text, workload);
    let sim = Simulator::new(&inst, N_LOCATIONS);
    let mut policy = full_algorithm();
    let setup = sw.elapsed();
    let mut timer = RoundTimer::with_capacity(inst.horizon() + 1);
    let sw = Stopwatch::start();
    let out = sim.run_traced(&mut policy, &mut timer);
    let run = sw.elapsed();
    (Rep { setup, run, rounds_ns: timer.into_sorted() }, out, policy)
}

/// A streamed session ready to run: the stream with its prologue read, the
/// full stack, and a JSONL sink into a byte counter.
pub type Session<'t> = (TextStream<&'t [u8]>, FullAlgorithm, JsonlSink<ByteCounter>);

/// Open a streamed session over `text`.
pub fn open_session(text: &str) -> Session<'_> {
    let source = TextStream::new(text.as_bytes())
        .unwrap_or_else(|e| panic!("stream_checkpoint: generated stream does not open: {e}"));
    let policy = full_algorithm();
    let meta = TraceMeta {
        policy: policy.name().to_string(),
        delta: source.delta(),
        locations: N_LOCATIONS,
        speed: 1,
    };
    let sink = JsonlSink::with_meta(ByteCounter::default(), &meta);
    (source, policy, sink)
}

/// The streamed session's options: snapshots every [`CHECKPOINT_EVERY`]
/// rounds.
pub fn stream_options() -> StreamOptions<'static> {
    StreamOptions {
        n_locations: N_LOCATIONS,
        speed: 1,
        resume_from: None,
        plan: CheckpointPolicy::EveryN(CHECKPOINT_EVERY),
        stop_before: None,
    }
}

/// The snapshot round nearest the middle of `rounds` arrival rounds.
pub fn midpoint_round(rounds: u64) -> u64 {
    ((rounds / 2 + CHECKPOINT_EVERY / 2) / CHECKPOINT_EVERY).max(1) * CHECKPOINT_EVERY
}

/// The outcome of a session that must have run to completion.
pub fn completed(result: Result<SessionResult, SessionError>, workload: &str) -> Outcome {
    match result {
        Ok(SessionResult::Completed(out)) => out,
        Ok(SessionResult::Suspended { round, .. }) => {
            panic!("{workload}: session suspended at round {round} without a stop round")
        }
        Err(e) => panic!("{workload}: session failed: {e}"),
    }
}

/// One streamed rep and what it wrote besides its outcome.
pub struct StreamRep {
    pub rep: Rep,
    pub outcome: Outcome,
    pub trace_lines: u64,
    /// Trace bytes, or the error `JsonlSink::finish` returned.
    pub trace_bytes: Result<u64, String>,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    /// The snapshot taken at [`midpoint_round`].
    pub midpoint: Option<Vec<u8>>,
}

/// One rep of stream_checkpoint: the text streamed through
/// `run_stream_session` with a JSONL trace and periodic snapshots.
pub fn stream_rep(text: &str, rounds: u64) -> StreamRep {
    let mut setups = Vec::with_capacity(STREAM_SETUP_REPEATS);
    let mut session = None;
    for _ in 0..STREAM_SETUP_REPEATS {
        let sw = Stopwatch::start();
        let opened = open_session(text);
        setups.push(sw.elapsed());
        session = Some(opened);
    }
    setups.sort_unstable();
    let setup = setups[setups.len() / 2];
    let (mut source, mut policy, mut sink) = session.expect("at least one set-up");

    let mid = midpoint_round(rounds);
    let (mut snapshots, mut snapshot_bytes, mut midpoint) = (0, 0, None);
    let mut on_snapshot = |round: u64, bytes: &[u8]| {
        snapshots += 1;
        snapshot_bytes += bytes.len() as u64;
        if round == mid {
            midpoint = Some(bytes.to_vec());
        }
    };
    let mut timer = RoundTimer::with_capacity(rounds + 64);
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let result = run_stream_session(
        &mut source,
        &mut policy,
        &mut (&mut timer, &mut sink),
        &mut scratch,
        &mut NoWatcher,
        stream_options(),
        Some(&mut on_snapshot),
    );
    let run = sw.elapsed();
    let outcome = completed(result, "stream_checkpoint");
    let trace_lines = sink.lines_written();
    let trace_bytes = sink.finish().map(|c| c.0).map_err(|e| e.to_string());
    StreamRep {
        rep: Rep { setup, run, rounds_ns: timer.into_sorted() },
        outcome,
        trace_lines,
        trace_bytes,
        snapshots,
        snapshot_bytes,
        midpoint,
    }
}

/// Resume `text`'s streamed session from `snapshot` and run it to the end.
pub fn resume(text: &str, snapshot: &[u8]) -> Result<Outcome, String> {
    let (mut source, mut policy, _) = open_session(text);
    let opts = StreamOptions {
        resume_from: Some(snapshot),
        plan: CheckpointPolicy::Never,
        ..stream_options()
    };
    match run_stream_session(
        &mut source,
        &mut policy,
        &mut NullRecorder,
        &mut Scratch::new(),
        &mut NoWatcher,
        opts,
        None,
    ) {
        Ok(SessionResult::Completed(out)) => Ok(out),
        Ok(SessionResult::Suspended { round, .. }) => Err(format!("suspended at round {round}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Parse `snapshot`, restore a fresh full stack from it, and encode it
/// again.
pub fn reencode(snapshot: &[u8]) -> Result<Vec<u8>, String> {
    let file = SnapshotFile::parse(snapshot).map_err(|e| e.to_string())?;
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, N_LOCATIONS);
    file.load_policy(&mut policy).map_err(|e| e.to_string())?;
    Ok(encode_snapshot(&file.state, &policy))
}

/// One instance priced by the referee.
pub struct Priced {
    /// OPT's cost and states explored, or the solver's error.
    pub opt: Result<(u64, u64), String>,
    /// ΔLRU-EDF's run on the instance.
    pub online: Outcome,
}

/// One rep of opt_referee: parse every instance, then price each with
/// `solve_opt` and a ΔLRU-EDF run, as experiment E3 does.
pub fn referee_rep(texts: &[String]) -> (Rep, Vec<Priced>, Vec<u64>) {
    let sw = Stopwatch::start();
    let insts: Vec<Instance> = texts.iter().map(|t| parse(t, "opt_referee")).collect();
    let setup = sw.elapsed();
    let rounds: u64 = insts.iter().map(|i| i.horizon() + 1).sum();
    let mut timer = RoundTimer::with_capacity(rounds);
    let mut priced = Vec::with_capacity(insts.len());
    let mut solve_ns = Vec::with_capacity(insts.len());
    let sw = Stopwatch::start();
    for inst in &insts {
        let solve = Stopwatch::start();
        let opt = solve_opt(inst, 1, OptConfig::default())
            .map(|r| (r.cost, r.states_explored as u64))
            .map_err(|e| e.to_string());
        solve_ns.push(u64::try_from(solve.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let online =
            Simulator::new(inst, N_LOCATIONS).run_traced(&mut DeltaLruEdf::new(), &mut timer);
        priced.push(Priced { opt, online });
    }
    let run = sw.elapsed();
    solve_ns.sort_unstable();
    (Rep { setup, run, rounds_ns: timer.into_sorted() }, priced, solve_ns)
}

/// Whether another rep fits: always until `min_reps`, then only while the
/// mean rep so far still fits in what is left of `budget`.
pub fn another_rep(clock: &Stopwatch, reps: u32, min_reps: u32, budget: Duration) -> bool {
    if reps < min_reps.max(1) {
        return true;
    }
    let spent = clock.elapsed();
    spent + spent / reps <= budget
}

/// An outcome's identity for cross-process comparison.
pub fn outcome_key(out: &Outcome) -> String {
    format!(
        "cost={} reconfigs={} drops={} arrived={} executed={} rounds={}",
        out.total_cost(),
        out.cost.reconfigs,
        out.dropped,
        out.arrived,
        out.executed,
        out.rounds
    )
}

/// Run `w`'s untraced reps for about `budget` (at least `min_reps`), then
/// its output checks. `first` marks the run's first process, which also
/// makes the checks that need one extra run.
pub fn run(w: Workload, input: &Input, budget: Duration, min_reps: u32, first: bool) -> Report {
    let mut report = Report::default();
    report.note("input", input.identity());
    match w {
        Workload::ZipfWide | Workload::BurstyNarrow => {
            materialized(w.name(), input, budget, min_reps, first, &mut report)
        }
        Workload::StreamCheckpoint => streamed(input, budget, min_reps, first, &mut report),
        Workload::OptReferee => referee(input, budget, min_reps, &mut report),
    }
    report
}

/// Record a rep's end-to-end samples.
fn record(report: &mut Report, rep: &Rep, jobs: u64) {
    report.push("setup_s", rep.setup.as_secs_f64());
    report.push("jobs_per_s", jobs as f64 / rep.run.as_secs_f64());
    if let Some(p50) = stats::percentile(&rep.rounds_ns, 50) {
        report.push("round_p50_us", stats::us(p50));
    }
    report.push("samples.round_p50_us", rep.rounds_ns.len() as f64);
}

/// Check a run's conservation and that it repeats the first rep's outcome.
fn check_run(report: &mut Report, workload: &str, out: &Outcome, first: &mut Option<Outcome>) {
    report.check(out.conserved(), || {
        format!(
            "{workload}: jobs not conserved: arrived {} != executed {} + dropped {}",
            out.arrived, out.executed, out.dropped
        )
    });
    match first {
        None => *first = Some(out.clone()),
        Some(f) => {
            report.check(f == out, || {
                format!(
                    "{workload}: outcome differs across reps: {} vs {}",
                    outcome_key(f),
                    outcome_key(out)
                )
            });
        }
    }
}

/// The peak resident set, read before any check that needs extra memory.
fn record_peak_rss(report: &mut Report, workload: &str) {
    let peak = stats::peak_rss_mib();
    if report.check(peak.is_some(), || format!("{workload}: no VmHWM in /proc/self/status")) {
        report.push("peak_rss_mib", peak.unwrap_or_default());
    }
}

/// VarBatch fidelity: the full stack on σ pays exactly the reconfigurations
/// Distribute⟨ΔLRU-EDF⟩ pays on `varbatch_instance(σ)`, and drops no more.
fn check_fidelity(report: &mut Report, workload: &str, inst: &Instance, full: &Outcome) {
    let vinst = varbatch_instance(inst);
    let inner = Simulator::new(&vinst, N_LOCATIONS).run(&mut Distribute::new(DeltaLruEdf::new()));
    report.check(
        full.cost.reconfigs == inner.cost.reconfigs && full.dropped <= inner.dropped,
        || {
            format!(
                "{workload}: VarBatch fidelity: full stack reconfigs {} drops {} vs \
                 Distribute<DLRU-EDF> on varbatch_instance reconfigs {} drops {}",
                full.cost.reconfigs, full.dropped, inner.cost.reconfigs, inner.dropped
            )
        },
    );
}

fn materialized(
    workload: &str,
    input: &Input,
    budget: Duration,
    min_reps: u32,
    first: bool,
    report: &mut Report,
) {
    let text = &input.texts[0];
    let mut reference = None;
    let clock = Stopwatch::start();
    let mut reps = 0;
    while another_rep(&clock, reps, min_reps, budget) {
        reps += 1;
        let (rep, out, _) = materialized_rep(text, workload);
        record(report, &rep, input.jobs);
        check_run(report, workload, &out, &mut reference);
    }
    report.push("reps", f64::from(reps));
    record_peak_rss(report, workload);
    let out = reference.expect("at least one rep");
    report.push("total_cost", out.total_cost() as f64);
    report.note("outcome", outcome_key(&out));
    if first {
        check_fidelity(report, workload, &parse(text, workload), &out);
    }
}

fn streamed(input: &Input, budget: Duration, min_reps: u32, first: bool, report: &mut Report) {
    let workload = "stream_checkpoint";
    let text = &input.texts[0];
    let mut reference: Option<StreamRep> = None;
    let mut first_outcome = None;
    let clock = Stopwatch::start();
    let mut reps = 0;
    while another_rep(&clock, reps, min_reps, budget) {
        reps += 1;
        let run = stream_rep(text, input.rounds);
        record(report, &run.rep, input.jobs);
        check_run(report, workload, &run.outcome, &mut first_outcome);
        report.check(run.trace_bytes.is_ok(), || {
            format!("{workload}: JsonlSink::finish failed: {:?}", run.trace_bytes)
        });
        match &reference {
            None => reference = Some(run),
            Some(r) => {
                let same = |s: &StreamRep| {
                    (s.trace_lines, s.trace_bytes.clone(), s.snapshots, s.snapshot_bytes)
                };
                report.check(same(r) == same(&run), || {
                    format!(
                        "{workload}: trace/snapshot output differs across reps: {:?} vs {:?}",
                        same(r),
                        same(&run)
                    )
                });
            }
        }
    }
    report.push("reps", f64::from(reps));
    record_peak_rss(report, workload);
    let r = reference.expect("at least one rep");
    report.push("total_cost", r.outcome.total_cost() as f64);
    report.note("outcome", outcome_key(&r.outcome));
    if !first {
        return;
    }
    let Some(snapshot) = &r.midpoint else {
        report.check(false, || {
            format!("{workload}: no snapshot at round {}", midpoint_round(input.rounds))
        });
        return;
    };
    let reencoded = reencode(snapshot);
    report.check(reencoded.as_deref() == Ok(snapshot.as_slice()), || {
        format!("{workload}: snapshot parse -> encode_snapshot is not byte-identical")
    });
    let resumed = resume(text, snapshot);
    report.check(resumed.as_ref() == Ok(&r.outcome), || {
        format!(
            "{workload}: resumed outcome {:?} differs from the uninterrupted {}",
            resumed.as_ref().map(outcome_key),
            outcome_key(&r.outcome)
        )
    });
    check_fidelity(report, workload, &parse(text, workload), &r.outcome);
}

fn referee(input: &Input, budget: Duration, min_reps: u32, report: &mut Report) {
    let workload = "opt_referee";
    let bounds: Vec<u64> =
        input.texts.iter().map(|t| combined_lower_bound(&parse(t, workload), 1)).collect();
    let mut reference: Option<Vec<Priced>> = None;
    let clock = Stopwatch::start();
    let mut reps = 0;
    while another_rep(&clock, reps, min_reps, budget) {
        reps += 1;
        let (rep, priced, _) = referee_rep(&input.texts);
        record(report, &rep, input.jobs);
        for (i, p) in priced.iter().enumerate() {
            match &p.opt {
                Ok((cost, _)) => report.check(*cost >= bounds[i], || {
                    format!(
                        "{workload}: instance {i}: OPT {cost} below its lower bound {}",
                        bounds[i]
                    )
                }),
                Err(e) => report.check(false, || format!("{workload}: instance {i}: {e}")),
            };
            report.check(p.online.conserved(), || {
                format!("{workload}: instance {i}: ΔLRU-EDF run does not conserve jobs")
            });
        }
        match &reference {
            None => reference = Some(priced),
            Some(r) => {
                let same =
                    r.iter().zip(&priced).all(|(a, b)| a.opt == b.opt && a.online == b.online);
                report.check(same && r.len() == priced.len(), || {
                    format!("{workload}: prices differ across reps")
                });
            }
        }
    }
    report.push("reps", f64::from(reps));
    record_peak_rss(report, workload);
    let r = reference.expect("at least one rep");
    let opt_total: u64 = r.iter().filter_map(|p| p.opt.as_ref().ok()).map(|(c, _)| c).sum();
    let online_total: u64 = r.iter().map(|p| p.online.total_cost()).sum();
    report.push("total_cost", opt_total as f64);
    report.note("outcome", format!("opt={opt_total} dlru_edf={online_total}"));
}
