//! `rrs-cli` — run the scheduler suite from the command line.
//!
//! ```text
//! rrs-cli generate <kind> [--seed N] [--out FILE]     create an instance
//! rrs-cli classify <FILE>                             report its problem class
//! rrs-cli run <policy> <FILE> [--locations N]
//!         [--trace-out T.jsonl] [--metrics-out M.json] run an online policy
//!         [--stream] [--checkpoint-every N [--checkpoint-out PREFIX]]
//!         [--counters]                                append counters to the trace
//! rrs-cli checkpoint <policy> <FILE> --at-round K [--locations N] [--out SNAP]
//! rrs-cli resume <policy> <FILE> --from SNAP [--locations N] [--stream]
//!         [--trace-out T.jsonl]
//! rrs-cli attribute <policy> <FILE> [--locations N]   per-color cost table
//! rrs-cli opt <FILE> [--resources M]                  exact offline optimum
//!         [--opt-cache CACHE]                         answered from or recorded in a cache
//! rrs-cli opt-cache save <FILE>... --out CACHE        solve through a persisted cache
//! rrs-cli opt-cache load <CACHE> <FILE>               answer from the cache alone
//! rrs-cli opt-cache stat <CACHE>                      print the solved index
//! rrs-cli lemmas <FILE> [--locations N]               check Lemmas 3.2/3.3/3.4
//! rrs-cli evaluate [--only NAME] [--metrics-out F]    print experiment tables
//! rrs-cli report <TRACE.jsonl> [--instance FILE]      cost report from a trace
//! rrs-cli report --run <policy> <FILE> [--locations N] live run + phase timing
//! rrs-cli adversary-search [--seed N] [--budget GENS] [--policy P]
//!         [--population N] [--elites N] [--locations N] [--referee-m M]
//!         [--min-ratio R] [--no-shrink] [--shrink-evals N]
//!         [--journal-out J.jsonl] [--fixture-out F.adv] [--opt-cache CACHE]
//!                                                     evolve a worst-case instance
//! rrs-cli bench [<suite>|all] [--quick] [--out-dir D] run the fixed benchmark
//!                                                     suites, writing BENCH_<suite>.json
//! rrs-cli bench compare <BASE.json> <CAND.json> [--warn-pct P]
//!                                                     regression gate: hard-fail on
//!                                                     deterministic regressions, warn
//!                                                     on wall-clock drift
//! ```
//!
//! The global `--jobs N` flag (any subcommand; default: all cores) sets the
//! worker count for parallel sweeps. Tables are bit-identical at any
//! setting; `--jobs 1` is fully serial.
//!
//! `--stream` feeds the run through the incremental text-format reader
//! instead of materializing the instance, so memory stays bounded by the
//! live pending state; `--checkpoint-every N` writes a versioned snapshot
//! `PREFIX-r<round>.snap` at the top of every Nth round, and `checkpoint` /
//! `resume` suspend a run at an exact round and continue it later — the
//! resumed trace suffix is byte-identical to the uninterrupted run
//! (DESIGN.md §11).
//!
//! Every run is supervised by `rrs::analysis::supervisor`: under
//! `--features validate` that is the shadow-model invariant watcher
//! (DESIGN.md §9), which seeds itself from a resumed run's snapshot state.
//!
//! `--trace-out` streams the run as self-describing JSONL (one event per
//! line, meta header first; schema in `DESIGN.md`); `report` re-derives the
//! run's totals and cost attribution from such a file and — given the
//! instance — cross-checks the trace by replaying its reconfiguration
//! schedule through the simulator. Trace files carry no timestamps: all
//! wall-clock timing is advisory and appears only in `report --run`.
//!
//! Kinds: `rate-limited`, `batched`, `general`, `router`, `datacenter`,
//! `background`, `bursty`, `lru-killer`, `edf-killer`.
//! Policies: `dlru`, `edf`, `classic-lru`, `dlru-edf`, `distribute`, `full`.

use std::io::BufWriter;
use std::process::ExitCode;

use rrs::analysis::experiments;
use rrs::prelude::*;

// The bench suites' alloc-discipline metrics (allocs/round, peak heap)
// read counters that only move when the probe is the global allocator.
// Every counter is per thread, so an allocation writes only its own
// thread's cells and parallel sweeps share no cache line through it.
#[global_allocator]
static GLOBAL: rrs::bench::AllocProbe = rrs::bench::AllocProbe;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rrs-cli generate <kind> [--seed N] [--out FILE]\n  \
         rrs-cli classify <FILE>\n  \
         rrs-cli run <policy> <FILE> [--locations N] [--trace-out T.jsonl] [--metrics-out M.json]\n          \
         [--stream] [--checkpoint-every N [--checkpoint-out PREFIX]] [--counters]\n  \
         rrs-cli checkpoint <policy> <FILE> --at-round K [--locations N] [--out SNAP]\n  \
         rrs-cli resume <policy> <FILE> --from SNAP [--locations N] [--stream] [--trace-out T.jsonl]\n  \
         rrs-cli attribute <policy> <FILE> [--locations N]\n  \
         rrs-cli opt <FILE> [--resources M] [--opt-cache CACHE]\n  \
         rrs-cli opt-cache save <FILE>... --out CACHE [--resources M]\n  \
         rrs-cli opt-cache load <CACHE> <FILE> [--resources M]\n  \
         rrs-cli opt-cache stat <CACHE>\n  \
         rrs-cli lemmas <FILE> [--locations N]\n  \
         rrs-cli evaluate [--only NAME] [--metrics-out REPORTS.jsonl]\n  \
         rrs-cli report <TRACE.jsonl> [--instance FILE]\n  \
         rrs-cli report --run <policy> <FILE> [--locations N]\n  \
         rrs-cli adversary-search [--seed N] [--budget GENS] [--policy P] [--population N]\n          \
         [--elites N] [--locations N] [--referee-m M] [--min-ratio R] [--no-shrink]\n          \
         [--shrink-evals N] [--journal-out J.jsonl] [--fixture-out F.adv] [--opt-cache CACHE]\n  \
         rrs-cli bench [<suite>|all] [--quick] [--out-dir D]\n  \
         rrs-cli bench compare <BASE.json> <CAND.json> [--warn-pct P]\n\
         global flags: --jobs N (parallel sweep workers; default: all cores)\n\
         kinds: rate-limited batched general router datacenter background bursty zipf lru-killer edf-killer\n\
         policies: dlru edf classic-lru dlru-edf distribute full\n\
         bench suites: core sweep zipf opt"
    );
    ExitCode::from(2)
}

/// Pull `--flag value` out of the argument list; returns the remaining
/// positional arguments.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pull a value-less `--flag` out of the argument list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_u64(s: Option<String>, default: u64, what: &str) -> Result<u64, String> {
    match s {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {what}: {e}")),
    }
}

/// Parse the exact solver's resource count `M`, default 1: the solver needs
/// at least one resource, and the solve cache keys `M` as a u32.
fn parse_resources(s: Option<String>, what: &str) -> Result<usize, String> {
    let m = parse_u64(s, 1, what)?;
    if !(1..=u64::from(u32::MAX)).contains(&m) {
        return Err(format!("{what} must be between 1 and {}, got {m}", u32::MAX));
    }
    Ok(m as usize)
}

fn load(path: &str) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    rrs::model::from_text(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_generate(mut args: Vec<String>) -> Result<(), String> {
    let seed = parse_u64(take_flag(&mut args, "--seed"), 0, "--seed")?;
    let out = take_flag(&mut args, "--out");
    let kind = args.first().ok_or("missing <kind>")?.as_str();
    let inst = match kind {
        "rate-limited" => rate_limited_instance(&RateLimitedConfig::default(), seed),
        "batched" => batched_instance(&BatchedConfig::default(), seed),
        "general" => general_instance(&GeneralConfig::default(), seed),
        "router" => multiservice_router(&RouterConfig::default(), seed),
        "datacenter" => shared_datacenter(&DatacenterConfig::default(), seed),
        "background" => background_vs_short_term(&BackgroundConfig::default(), seed).0,
        "bursty" => bursty_instance(&BurstyConfig::default(), seed),
        "zipf" => rrs_workloads::zipf_popularity(&rrs_workloads::ZipfConfig::default(), seed),
        "lru-killer" => lru_killer(LruKillerParams { n: 8, delta: 2, j: 7, k: 9 }).instance,
        "edf-killer" => edf_killer(EdfKillerParams { n: 8, delta: 10, j: 4, k: 8 }).instance,
        other => return Err(format!("unknown kind '{other}'")),
    };
    let text = rrs::model::to_text(&inst);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} colors, {} jobs, horizon {}",
                inst.colors.len(),
                inst.total_jobs(),
                inst.horizon()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// A fresh policy by CLI name: every command runs its policy through this
/// box, whose `stats()` reaches the concrete policy's.
fn make_policy(name: &str) -> Result<Box<dyn Snapshot>, String> {
    Ok(rrs::search::PolicyKind::parse(name)?.make())
}

/// Parse `--locations` (default 8) and hold it to the location rule of the
/// policy named `policy`, which the policy's `init` would otherwise assert.
fn parse_locations(s: Option<String>, policy: &str) -> Result<usize, String> {
    let n = parse_u64(s, 8, "--locations")?;
    let n = usize::try_from(n).map_err(|_| format!("bad --locations: {n} is too large"))?;
    let kind = rrs::search::PolicyKind::parse(policy)?;
    kind.check_locations(n).map_err(|e| format!("bad --locations: {e}"))?;
    Ok(n)
}

/// Print a run's summary. A streamed run never materialized the instance,
/// so it reports its rounds in place of the lower bound, which needs the
/// whole request sequence.
fn print_run(name: &str, n: usize, inst: Option<&Instance>, out: &Outcome) {
    println!("policy:      {name}");
    println!("locations:   {n}");
    if inst.is_none() {
        println!("rounds:      {}", out.rounds);
    }
    println!("arrived:     {}", out.arrived);
    println!("executed:    {}", out.executed);
    println!("dropped:     {}", out.dropped);
    println!("reconfigs:   {} (cost {})", out.cost.reconfigs, out.cost.reconfig_cost());
    println!("total cost:  {}", out.total_cost());
    if let Some(inst) = inst {
        let bound = combined_lower_bound(inst, (n / 8).max(1));
        println!("lower bound: {bound} (m = max(1, n/8))");
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<(), String> {
    let locations = take_flag(&mut args, "--locations");
    let trace_out = take_flag(&mut args, "--trace-out");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let stream = take_switch(&mut args, "--stream");
    let counters = take_switch(&mut args, "--counters");
    let ckpt_every = take_flag(&mut args, "--checkpoint-every")
        .map(|v| v.parse::<u64>().map_err(|e| format!("bad --checkpoint-every: {e}")))
        .transpose()?;
    let ckpt_out = take_flag(&mut args, "--checkpoint-out");
    let policy_name = args.first().ok_or("missing <policy>")?.clone();
    let path = args.get(1).ok_or("missing <FILE>")?.clone();
    let n = parse_locations(locations, &policy_name)?;

    if stream || ckpt_every.is_some() {
        if metrics_out.is_some() {
            return Err("--metrics-out is not supported with --stream/--checkpoint-every".into());
        }
        if counters {
            return Err("--counters is not supported with --stream/--checkpoint-every".into());
        }
    } else if ckpt_out.is_some() {
        return Err("--checkpoint-out requires --checkpoint-every".into());
    }
    let plan = match ckpt_every {
        Some(0) => return Err("--checkpoint-every must be at least 1".into()),
        Some(k) => CheckpointPolicy::EveryN(k),
        None => CheckpointPolicy::Never,
    };
    let prefix = ckpt_out.unwrap_or_else(|| format!("{path}.ckpt"));
    let mut sink_err: Option<String> = None;
    let mut emit = |round: u64, bytes: &[u8]| {
        let p = format!("{prefix}-r{round}.snap");
        match std::fs::write(&p, bytes) {
            Ok(()) => eprintln!("wrote checkpoint {p} ({} bytes)", bytes.len()),
            Err(e) => {
                if sink_err.is_none() {
                    sink_err = Some(format!("write {p}: {e}"));
                }
            }
        }
    };
    let mut reg = CounterRegistry::new();
    let mut fold = metrics_out.as_ref().map(|_| CostFold::new());
    let attribute: &mut dyn Recorder = match &mut fold {
        Some(fold) => fold,
        None => &mut NullRecorder,
    };
    let ran = session_command(
        &policy_name,
        &path,
        n,
        stream,
        trace_out.as_deref(),
        counters.then_some(&mut reg),
        attribute,
        |s| s.checkpoints(plan, &mut emit),
    )?;
    if let Some(e) = sink_err {
        return Err(e);
    }
    let Ran { policy, inst, stats, result } = ran;
    let out = result.into_outcome();
    if let (Some(mpath), Some(fold), Some(inst)) = (metrics_out, fold, &inst) {
        let report = rrs::analysis::RunReport {
            label: format!("run {path}"),
            policy: policy.clone(),
            locations: n,
            outcome: out.clone(),
            metrics: stats.metrics,
            per_color: fold.finish(inst),
        };
        std::fs::write(&mpath, report.to_json() + "\n")
            .map_err(|e| format!("write {mpath}: {e}"))?;
        eprintln!("wrote metrics to {mpath}");
    }
    print_run(&policy, n, inst.as_ref(), &out);
    if counters {
        print!("{}", reg.render());
    }
    Ok(())
}

/// A session over the CLI's input, streamed or materialized.
type CliSession<'s, 'x> = Session<'s, &'x mut dyn InstanceSource>;

/// How a session command's run ended.
struct Ran {
    /// The policy's reported name.
    policy: String,
    /// The instance, unless the input was streamed.
    inst: Option<Instance>,
    /// The policy's stats at the end of the run.
    stats: PolicyStats,
    result: SessionResult,
}

impl Ran {
    /// Print a completed run's summary.
    fn print_summary(self, n: usize) {
        print_run(&self.policy, n, self.inst.as_ref(), &self.result.into_outcome());
    }
}

/// The one runner behind `run`, `checkpoint`, `resume` and `report --run`:
/// open the input at `path` (a [`TextStream`] under `--stream`, so memory
/// stays bounded by the live state, else the materialized instance), the
/// optional JSONL trace and the run's supervisor, then run the session
/// `configure` sets up with `observer` teed in. With `counters`, the run's
/// event counters and the policy's final footprint go into that registry,
/// and into the trace as its counter records. A supervised build
/// (`--features validate`) loads the instance under `--stream` too, for the
/// supervisor only: it checks every round's arrivals against it.
#[allow(clippy::too_many_arguments)] // every command's run options, in one runner
fn session_command<'s>(
    policy_name: &str,
    path: &str,
    n: usize,
    stream: bool,
    trace_out: Option<&str>,
    mut counters: Option<&mut CounterRegistry>,
    observer: &mut dyn Recorder,
    configure: impl for<'x> FnOnce(CliSession<'s, 'x>) -> CliSession<'s, 'x>,
) -> Result<Ran, String> {
    let mut policy = make_policy(policy_name)?;
    let name = policy.name().to_string();
    let inst = if stream && !rrs::analysis::SUPERVISED { None } else { Some(load(path)?) };
    let mut source: Box<dyn InstanceSource + '_> = match &inst {
        Some(inst) if !stream => Box::new(MaterializedSource::new(inst)),
        _ => {
            let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            let reader = std::io::BufReader::new(file);
            Box::new(TextStream::new(reader).map_err(|e| format!("parse {path}: {e}"))?)
        }
    };
    let mut trace = match trace_out {
        Some(tpath) => {
            let file = std::fs::File::create(tpath).map_err(|e| format!("create {tpath}: {e}"))?;
            let meta =
                TraceMeta { policy: name.clone(), delta: source.delta(), locations: n, speed: 1 };
            Some(JsonlSink::with_meta(BufWriter::new(file), &meta))
        }
        None => None,
    };
    let mut supervisor: Box<dyn Recorder + '_> = match &inst {
        Some(inst) => Box::new(supervisor(inst)),
        None => Box::new(NullRecorder),
    };
    let sink: &mut dyn Recorder = match &mut trace {
        Some(sink) => sink,
        None => &mut NullRecorder,
    };
    let mut counting = counters.as_deref_mut().map(CounterRecorder::new);
    let counting: &mut dyn Recorder = match &mut counting {
        Some(counting) => counting,
        None => &mut NullRecorder,
    };
    let result = configure(Session::new(&mut *source, n))
        .run(policy.as_mut(), &mut ((counting, observer), (sink, &mut *supervisor)))
        .map_err(|e| match e {
            SessionError::Snapshot(e) if !stream => format!("snapshot: {e}"),
            e => e.to_string(),
        })?;
    let stats = policy.stats();
    if let Some(reg) = counters {
        use rrs::engine::obs::names;
        reg.add(names::COLORSET_LEAF_WORDS, stats.footprint.colorset_leaf_words);
        reg.add(names::COLORMAP_LIVE_PAGES, stats.footprint.colormap_live_pages);
        if let Some(sink) = &mut trace {
            // Counters records are opt-in: appending them to every trace
            // would break byte-pinned golden fixtures.
            sink.write_counters(reg);
        }
    }
    if let (Some(sink), Some(tpath)) = (trace, trace_out) {
        sink.finish().map_err(|e| format!("write {tpath}: {e}"))?;
        eprintln!("wrote trace to {tpath}");
    }
    drop((source, supervisor));
    Ok(Ran { policy: name, inst: inst.filter(|_| !stream), stats, result })
}

/// `checkpoint <policy> <FILE> --at-round K`: run rounds `0..K` and write
/// the suspension snapshot (format in DESIGN.md §11).
fn cmd_checkpoint(mut args: Vec<String>) -> Result<(), String> {
    let locations = take_flag(&mut args, "--locations");
    let at = take_flag(&mut args, "--at-round")
        .ok_or("missing --at-round K")?
        .parse::<u64>()
        .map_err(|e| format!("bad --at-round: {e}"))?;
    let out_path = take_flag(&mut args, "--out");
    let policy_name = args.first().ok_or("missing <policy>")?.clone();
    let path = args.get(1).ok_or("missing <FILE>")?.clone();
    let n = parse_locations(locations, &policy_name)?;
    let ran = session_command(&policy_name, &path, n, false, None, None, &mut NullRecorder, |s| {
        s.stop_before(at)
    })?;
    match ran.result {
        SessionResult::Suspended { round, snapshot } => {
            let out_path = out_path.unwrap_or_else(|| format!("{path}.r{round}.snap"));
            std::fs::write(&out_path, &snapshot).map_err(|e| format!("write {out_path}: {e}"))?;
            println!("checkpoint:  {out_path}");
            println!("policy:      {}", ran.policy);
            println!("round:       {round}");
            println!("bytes:       {}", snapshot.len());
            Ok(())
        }
        // A completed run simulated rounds `0..=horizon`.
        SessionResult::Completed(out) => Err(format!(
            "--at-round {at} is past the run's horizon ({}); nothing left to checkpoint",
            out.rounds - 1
        )),
    }
}

/// `resume <policy> <FILE> --from SNAP [--stream]`: continue a checkpointed
/// run; the recorder sees exactly the rounds from the snapshot onward. A
/// materialized run demands the snapshot's exact horizon; under `--stream`
/// the horizon is re-discovered from the text, floored by the snapshot's,
/// so snapshots written by `run --stream --checkpoint-every` resume there.
fn cmd_resume(mut args: Vec<String>) -> Result<(), String> {
    let locations = take_flag(&mut args, "--locations");
    let from = take_flag(&mut args, "--from").ok_or("missing --from SNAP")?;
    let trace_out = take_flag(&mut args, "--trace-out");
    let stream = take_switch(&mut args, "--stream");
    let policy_name = args.first().ok_or("missing <policy>")?.clone();
    let path = args.get(1).ok_or("missing <FILE>")?.clone();
    let n = parse_locations(locations, &policy_name)?;
    let snapshot = std::fs::read(&from).map_err(|e| format!("read {from}: {e}"))?;
    let trace_out = trace_out.as_deref();
    session_command(&policy_name, &path, n, stream, trace_out, None, &mut NullRecorder, |s| {
        s.resume(&snapshot)
    })?
    .print_summary(n);
    Ok(())
}

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "0.0%".into()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / total as f64)
    }
}

fn print_cost_attribution(delta: u64, reconfigs: u64, dropped: u64) -> Result<(), String> {
    let total = delta.checked_mul(reconfigs).and_then(|rc| rc.checked_add(dropped));
    let Some(total) = total else {
        return Err(format!(
            "cost \u{394}\u{b7}reconfigs + drops = {delta}\u{b7}{reconfigs} + {dropped} overflows u64"
        ));
    };
    let rc = total - dropped;
    println!("cost attribution (\u{394} = {delta}):");
    println!("  reconfigurations: {reconfigs} \u{d7} {delta} = {rc} ({})", pct(rc, total));
    println!("  drops:            {dropped} ({})", pct(dropped, total));
    println!("  total:            {total}");
    Ok(())
}

/// The per-color cost table of a `policy` run on `n` locations, as
/// `attribute`, `report` and `report --run` print it.
fn per_color_table(policy: &str, n: usize, delta: u64, per: Vec<ColorCosts>) -> Table {
    attribution_table(&format!("per-color costs ({policy} @ {n} locations)"), delta, per)
}

fn cmd_report(mut args: Vec<String>) -> Result<(), String> {
    match take_flag(&mut args, "--run") {
        Some(policy_name) => report_live(&policy_name, args),
        None => report_saved(args),
    }
}

/// `report <TRACE.jsonl> [--instance FILE]`: re-derive a run's totals and
/// cost attribution from a saved trace; with the instance, additionally
/// break costs down per color and replay the traced reconfiguration
/// schedule through the simulator to cross-check the totals.
fn report_saved(mut args: Vec<String>) -> Result<(), String> {
    let inst_path = take_flag(&mut args, "--instance");
    let path = args.first().ok_or("missing <TRACE.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let meta = parsed
        .meta
        .clone()
        .ok_or_else(|| format!("{path}: no meta header; cannot attribute costs without \u{394}"))?;
    if parsed.rounds == 0 && parsed.events.is_empty() {
        return Err(format!(
            "{path}: trace contains no rounds (header-only file — was the run interrupted \
             before its first round?)"
        ));
    }
    println!("trace:       {path}");
    println!("policy:      {}", meta.policy);
    println!("locations:   {}", meta.locations);
    println!("speed:       {}", meta.speed);
    println!("rounds:      {}", parsed.rounds);
    println!("events:      {}", parsed.events.len());
    let (arrived, executed, dropped) = (parsed.arrived(), parsed.executed(), parsed.dropped());
    let reconfigs = parsed.reconfigs();
    println!("arrived:     {arrived}");
    println!("executed:    {executed}");
    println!("dropped:     {dropped}");
    println!("reconfigs:   {reconfigs}");
    let conserved = executed.checked_add(dropped) == Some(arrived);
    println!("conservation: {}", if conserved { "ok" } else { "VIOLATED" });
    if !conserved {
        return Err("trace violates conservation (arrived != executed + dropped)".into());
    }
    print_cost_attribution(meta.delta, reconfigs, dropped)?;
    if !parsed.counters.is_empty() {
        println!("counters (from trace, deterministic):");
        for (cname, v) in &parsed.counters {
            println!("  {cname:<18} {v}");
        }
    }
    if let Some(ipath) = inst_path {
        let inst = load(&ipath)?;
        if inst.delta != meta.delta {
            return Err(format!(
                "instance \u{394} = {} but trace \u{394} = {}",
                inst.delta, meta.delta
            ));
        }
        let per = per_color_from_events(&inst, parsed.events.iter());
        println!();
        println!("{}", per_color_table(&meta.policy, meta.locations, meta.delta, per));
        if meta.speed == 1 {
            let mut sched = FixedSchedule::new(meta.locations);
            for e in &parsed.events {
                if let TraceEvent::Reconfig { round, location, to, .. } = *e {
                    sched.set_location(round, location, to);
                }
            }
            let replayed = simulate(
                &Simulator::new(&inst, meta.locations),
                &mut ReplayPolicy::new(sched),
                &mut NullRecorder,
            );
            let ok = replayed.arrived == arrived
                && replayed.executed == executed
                && replayed.dropped == dropped
                && replayed.cost.reconfigs == reconfigs;
            println!(
                "replay check: {}",
                if ok { "ok (schedule reproduces the trace totals)" } else { "MISMATCH" }
            );
            if !ok {
                return Err(format!(
                    "replay mismatch: replayed arrived/executed/dropped/reconfigs = \
                     {}/{}/{}/{} but trace says {arrived}/{executed}/{dropped}/{reconfigs}",
                    replayed.arrived, replayed.executed, replayed.dropped, replayed.cost.reconfigs
                ));
            }
        }
    }
    Ok(())
}

/// `report --run <policy> <FILE>`: run live with a phase timer attached and
/// print the same report plus lemma bounds and advisory wall-clock timings.
fn report_live(policy_name: &str, mut args: Vec<String>) -> Result<(), String> {
    let n = parse_locations(take_flag(&mut args, "--locations"), policy_name)?;
    let path = args.first().ok_or("missing <FILE>")?;
    let mut timer = PhaseTimer::new();
    let mut fold = CostFold::new();
    let ran = session_command(
        policy_name,
        path,
        n,
        false,
        None,
        None,
        &mut (&mut timer, &mut fold),
        |s| s,
    )?;
    let (name, metrics, out) = (ran.policy, ran.stats.metrics, ran.result.into_outcome());
    let inst = ran.inst.expect("a materialized session keeps its instance");
    println!("policy:      {name}");
    println!("locations:   {n}");
    println!("rounds:      {}", out.rounds);
    println!("arrived:     {}", out.arrived);
    println!("executed:    {}", out.executed);
    println!("dropped:     {}", out.dropped);
    println!("conservation: {}", if out.conserved() { "ok" } else { "VIOLATED" });
    print_cost_attribution(inst.delta, out.cost.reconfigs, out.dropped)?;
    println!();
    println!("{}", per_color_table(&name, n, inst.delta, fold.finish(&inst)));
    if metrics != AlgoMetrics::default() {
        let e = metrics.num_epochs();
        let r33 = out.cost.reconfig_cost() <= 4 * e * inst.delta;
        let r34 = metrics.ineligible_drops <= e * inst.delta;
        println!("lemma bounds (numEpochs = {e}):");
        println!(
            "  3.3: reconfig cost {} <= {}  [{}]",
            out.cost.reconfig_cost(),
            4 * e * inst.delta,
            if r33 { "ok" } else { "VIOLATED" }
        );
        println!(
            "  3.4: ineligible drops {} <= {}  [{}]",
            metrics.ineligible_drops,
            e * inst.delta,
            if r34 { "ok" } else { "VIOLATED" }
        );
        println!();
    }
    // Wall-clock timings are advisory: they never appear in traces or
    // tables, only here.
    print!("{}", timer.render());
    Ok(())
}

/// `opt`: price an instance with the exact solver. With `--opt-cache
/// CACHE` the answer comes from that persisted solve cache when it holds
/// the instance, and is recorded into it otherwise (the file is created
/// if absent); an entry impossible for the instance counts as a miss and
/// is overwritten.
fn cmd_opt(mut args: Vec<String>) -> Result<(), String> {
    let m = parse_resources(take_flag(&mut args, "--resources"), "--resources")?;
    let cache_path = take_flag(&mut args, "--opt-cache");
    let path = args.first().ok_or("missing <FILE>")?;
    let inst = load(path)?;
    println!("resources:  {m}");
    let mut cache = match cache_path.as_deref().filter(|p| std::path::Path::new(p).exists()) {
        Some(p) => Some(load_opt_cache(p)?),
        None => cache_path.as_ref().map(|_| OptCache::new()),
    };
    let (r, hit) = match cache.as_mut() {
        Some(c) => c.solve(&inst, m, OptConfig::default()),
        None => solve_opt(&inst, m, OptConfig::default()).map(|r| (r, false)),
    }
    .map_err(|e| e.to_string())?;
    println!("opt cost:   {} ({} reconfigs, {} drops)", r.cost, r.reconfigs, r.drops);
    println!("states:     {} solved, {} pruned", r.stats.solved_states, r.stats.pruned_states);
    if let (Some(p), Some(cache)) = (cache_path, cache) {
        println!("cache:      {}/1 hits", u8::from(hit));
        store_opt_cache(&p, &cache)?;
    }
    Ok(())
}

fn load_opt_cache(path: &str) -> Result<OptCache, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    OptCache::parse(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn store_opt_cache(path: &str, cache: &OptCache) -> Result<(), String> {
    std::fs::write(path, cache.encode()).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!(
        "wrote {path}: {} solved entries, ~{} bytes in memory",
        cache.len(),
        cache.approx_bytes()
    );
    Ok(())
}

/// `opt-cache {save,load,stat}`: manage the persisted exact-OPT solve
/// cache (`RRSOPTC1`, DESIGN.md §16). `save` solves each instance through
/// the cache — warm-starting from `--out` if it already exists — and
/// writes the updated cache; `load` answers one instance from a cache
/// *without* solving (a miss or an entry impossible for the instance is
/// an error, e.g. the wrong genome); `stat` prints the index.
fn cmd_opt_cache(mut args: Vec<String>) -> Result<(), String> {
    if args.is_empty() {
        return Err("missing opt-cache action (save|load|stat)".into());
    }
    let action = args.remove(0);
    match action.as_str() {
        "save" => {
            let m = parse_resources(take_flag(&mut args, "--resources"), "--resources")?;
            let out = take_flag(&mut args, "--out").ok_or("missing --out CACHE")?;
            if args.is_empty() {
                return Err("missing <FILE> (at least one instance to solve)".into());
            }
            let mut cache = if std::path::Path::new(&out).exists() {
                load_opt_cache(&out)?
            } else {
                OptCache::new()
            };
            for path in &args {
                let inst = load(path)?;
                let (r, hit) = cache
                    .solve(&inst, m, OptConfig::default())
                    .map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "{path}: digest {:#018x}  cost {} ({} reconfigs, {} drops)  {}",
                    instance_digest(&inst),
                    r.cost,
                    r.reconfigs,
                    r.drops,
                    if hit { "cache hit" } else { "solved" }
                );
            }
            store_opt_cache(&out, &cache)
        }
        "load" => {
            let m = parse_resources(take_flag(&mut args, "--resources"), "--resources")?;
            let cache_path = args.first().ok_or("missing <CACHE>")?;
            let inst_path = args.get(1).ok_or("missing <FILE>")?;
            let cache = load_opt_cache(cache_path)?;
            let inst = load(inst_path)?;
            let entry = cache.lookup(&inst, m).map_err(|e| e.to_string())?;
            println!("digest:     {:#018x}", instance_digest(&inst));
            println!("resources:  {m}");
            println!(
                "opt cost:   {} ({} reconfigs, {} drops)",
                entry.cost, entry.reconfigs, entry.drops
            );
            println!("states:     {} (at solve time)", entry.states_explored);
            Ok(())
        }
        "stat" => {
            let cache_path = args.first().ok_or("missing <CACHE>")?;
            let cache = load_opt_cache(cache_path)?;
            println!("entries:    {}", cache.len());
            println!("approx mem: {} bytes", cache.approx_bytes());
            for (digest, m, entry) in cache.entries() {
                println!(
                    "  {digest:#018x} m={m}: cost {} ({} reconfigs, {} drops), {} states",
                    entry.cost, entry.reconfigs, entry.drops, entry.states_explored
                );
            }
            Ok(())
        }
        other => Err(format!("unknown opt-cache action '{other}' (save|load|stat)")),
    }
}

/// `lemmas <FILE>`: check Lemmas 3.2–3.4 on a ΔLRU-EDF run. They cover
/// rate-limited input only, so other input is checked on σ″, the
/// rate-limited instance the full stack's ΔLRU-EDF runs on.
fn cmd_lemmas(mut args: Vec<String>) -> Result<(), String> {
    let n = parse_locations(take_flag(&mut args, "--locations"), "dlru-edf")?;
    let path = args.first().ok_or("missing <FILE>")?;
    let mut inst = load(path)?;
    if classify::check_rate_limited(&inst).is_err() {
        inst = materialize(&inst, Then::<HalfBlocks, SubColors>::default()).0;
        println!(
            "input is not rate-limited: checking \u{3c3}\u{2033} = Distribute(VarBatch(\u{3c3})), \
             {} virtual colors",
            inst.colors.len()
        );
    }
    let r = check_lemmas(&inst, n);
    println!("epochs:            {}", r.num_epochs);
    println!(
        "lemma 3.3: reconfig {} <= {}  [{}]",
        r.reconfig_cost,
        r.reconfig_bound(),
        if r.lemma_3_3_holds() { "ok" } else { "VIOLATED" }
    );
    println!(
        "lemma 3.4: inelig drops {} <= {}  [{}]",
        r.ineligible_drops,
        r.ineligible_bound(),
        if r.lemma_3_4_holds() { "ok" } else { "VIOLATED" }
    );
    println!(
        "lemma 3.2: eligible drops {} <= par-edf {}  [{}]",
        r.eligible_drops,
        r.par_edf_drops,
        if r.lemma_3_2_holds() { "ok" } else { "VIOLATED" }
    );
    if !r.all_hold() {
        return Err("a lemma inequality was violated — this is a bug".into());
    }
    Ok(())
}

/// `attribute <policy> <FILE>`: the per-color cost table `report --run`
/// prints, from the same session runner and [`CostFold`].
fn cmd_attribute(mut args: Vec<String>) -> Result<(), String> {
    let locations = take_flag(&mut args, "--locations");
    let policy_name = args.first().ok_or("missing <policy>")?.clone();
    let path = args.get(1).ok_or("missing <FILE>")?;
    let n = parse_locations(locations, &policy_name)?;
    let mut fold = CostFold::new();
    let ran = session_command(&policy_name, path, n, false, None, None, &mut fold, |s| s)?;
    let inst = ran.inst.expect("a materialized session keeps its instance");
    println!("{}", per_color_table(&ran.policy, n, inst.delta, fold.finish(&inst)));
    Ok(())
}

fn cmd_classify(args: Vec<String>) -> Result<(), String> {
    let path = args.first().ok_or("missing <FILE>")?;
    let inst = load(path)?;
    println!("class:   {:?}", classify::classify(&inst));
    println!("pow2:    {}", classify::check_power_of_two_bounds(&inst).is_ok());
    println!("colors:  {}", inst.colors.len());
    println!("jobs:    {}", inst.total_jobs());
    println!("horizon: {}", inst.horizon());
    Ok(())
}

/// `evaluate [--only NAME] [--metrics-out F]`: print experiment tables and
/// write the reports of the runs they labeled, sorted by `(label, policy)`.
fn cmd_evaluate(mut args: Vec<String>) -> Result<(), String> {
    let only = take_flag(&mut args, "--only");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let ran = match only {
        Some(name) => {
            let suite = experiments::default_suite();
            let build =
                suite.iter().find(|&&(n, _)| n == name).map(|&(_, build)| build).ok_or_else(
                    || {
                        let names: Vec<&str> = suite.iter().map(|&(n, _)| n).collect();
                        format!("unknown experiment '{name}' (have: {})", names.join(" "))
                    },
                )?;
            vec![build()]
        }
        None => experiments::all_default(),
    };
    let mut reports = Vec::new();
    for (table, runs) in ran {
        println!("{table}");
        reports.extend(runs);
    }
    if let Some(mpath) = metrics_out {
        reports.sort_by(|a, b| a.label.cmp(&b.label).then_with(|| a.policy.cmp(&b.policy)));
        let mut text = String::new();
        for r in &reports {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        std::fs::write(&mpath, text).map_err(|e| format!("write {mpath}: {e}"))?;
        eprintln!("wrote {} run reports to {mpath}", reports.len());
    }
    Ok(())
}

/// Parse a decimal ratio threshold (`"1.5"`) into the exact rational the
/// shrinker compares against — floats never enter the fitness order.
fn parse_ratio_threshold(s: &str) -> Result<rrs::search::Fitness, String> {
    let bad = |e: &dyn std::fmt::Display| format!("bad --min-ratio '{s}': {e}");
    let (int_part, frac_part) = s.split_once('.').unwrap_or((s, ""));
    if frac_part.len() > 6 {
        return Err(bad(&"at most 6 decimal places"));
    }
    let int: u64 = int_part.parse().map_err(|e| bad(&e))?;
    let frac: u64 =
        if frac_part.is_empty() { 0 } else { frac_part.parse().map_err(|e| bad(&e))? };
    let den = 10u64.pow(frac_part.len() as u32);
    Ok(rrs::search::Fitness { cost: int * den + frac, base: den })
}

fn cmd_adversary_search(mut args: Vec<String>) -> Result<(), String> {
    use rrs::search::{self, journal};

    let seed = parse_u64(take_flag(&mut args, "--seed"), 0, "--seed")?;
    let budget = parse_u64(take_flag(&mut args, "--budget"), 20, "--budget")? as u32;
    let population = parse_u64(take_flag(&mut args, "--population"), 24, "--population")? as usize;
    let elites = parse_u64(take_flag(&mut args, "--elites"), 4, "--elites")? as usize;
    let locations = take_flag(&mut args, "--locations");
    let referee_m = parse_resources(take_flag(&mut args, "--referee-m"), "--referee-m")?;
    let policy_name = take_flag(&mut args, "--policy").unwrap_or_else(|| "dlru".into());
    let policy = search::PolicyKind::parse(&policy_name)?;
    let locations = parse_locations(locations, &policy_name)?;
    let min_ratio =
        take_flag(&mut args, "--min-ratio").map(|s| parse_ratio_threshold(&s)).transpose()?;
    let shrink_evals = parse_u64(take_flag(&mut args, "--shrink-evals"), 2_000, "--shrink-evals")?;
    let no_shrink = take_switch(&mut args, "--no-shrink");
    let journal_out = take_flag(&mut args, "--journal-out");
    let fixture_out = take_flag(&mut args, "--fixture-out");
    let opt_cache_path = take_flag(&mut args, "--opt-cache");

    // Warm-start the fitness referee from a persisted solve cache when
    // one is named; the file is (re)written after the search, so repeated
    // campaigns re-price known genomes from the index instead of
    // re-running the DP.
    let mut opt_cache = match opt_cache_path.as_deref().filter(|p| std::path::Path::new(p).exists())
    {
        Some(p) => load_opt_cache(p)?,
        None => OptCache::new(),
    };

    let cfg = search::SearchConfig {
        seed,
        generations: budget,
        population,
        elites,
        policy,
        eval: search::EvalConfig { locations, referee_resources: referee_m, ..Default::default() },
    };

    let mut journal_text = String::new();
    journal_text.push_str(&journal::meta_line(&cfg));
    journal_text.push('\n');
    let cache_view = if opt_cache_path.is_some() { Some(&mut opt_cache) } else { None };
    let report = search::run_search_cached(&cfg, cache_view, |summary| {
        journal_text.push_str(&journal::gen_line(summary));
        journal_text.push('\n');
        eprintln!(
            "gen {:>3}  best {}  ratio {}",
            summary.gen,
            summary.best.genome.encode(),
            rrs::analysis::table::fmt_ratio(rrs::analysis::ratio(
                summary.best.eval.fitness.cost,
                summary.best.eval.fitness.base,
            ))
        );
    });
    let mut evals = report.evals;

    // Shrink while the ratio stays at the discovered level — or above the
    // explicit `--min-ratio` floor when one is given.
    let threshold = min_ratio.unwrap_or(report.best.eval.fitness);
    let minimized = if no_shrink {
        report.best.clone()
    } else {
        let shrunk =
            search::shrink(&report.best, policy, &cfg.eval, threshold, shrink_evals, |step| {
                journal_text.push_str(&journal::shrink_line(step));
                journal_text.push('\n');
            });
        evals += shrunk.evals;
        shrunk.minimized
    };
    journal_text.push_str(&journal::result_line(
        &minimized.genome.encode(),
        &minimized.eval,
        minimized.genome.size(),
        evals,
    ));
    journal_text.push('\n');

    let mut table = rrs::analysis::Table::new(
        format!("adversary-search: policy {} seed {seed} budget {budget}", policy.name()),
        &["stage", "genome", "cost", "base", "ratio", "referee"],
    );
    for (stage, cand) in [("best", &report.best), ("shrunk", &minimized)] {
        table.row(vec![
            stage.into(),
            cand.genome.encode(),
            cand.eval.fitness.cost.to_string(),
            cand.eval.fitness.base.to_string(),
            rrs::analysis::table::fmt_ratio(rrs::analysis::ratio(
                cand.eval.fitness.cost,
                cand.eval.fitness.base,
            )),
            cand.eval.referee.name().into(),
        ]);
    }
    table.note(format!("{evals} fitness evaluations"));
    println!("{table}");

    if let Some(path) = journal_out {
        std::fs::write(&path, &journal_text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote search journal to {path}");
    }
    if let Some(path) = fixture_out {
        // Fixtures record the *corpus-pinned* referee's numbers, which may
        // differ from the search's own (budget-tuned) evaluation.
        let mut entry = search::CorpusEntry {
            policy,
            genome: minimized.genome.clone(),
            locations,
            referee_resources: referee_m,
            cost: 0,
            base: 0,
            referee: search::Referee::Exact,
        };
        let replayed = entry.replay();
        entry.cost = replayed.fitness.cost;
        entry.base = replayed.fitness.base;
        entry.referee = replayed.referee;
        let cmdline = format!(
            "discovered by: rrs-cli adversary-search --seed {seed} --budget {budget} --population {population} --elites {elites} --policy {} --locations {locations} --referee-m {referee_m}",
            policy.name()
        );
        let text =
            entry.to_text(&[&cmdline, "replayed under the pinned corpus referee (CORPUS_OPT)"]);
        std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote corpus fixture to {path}");
    }
    if let Some(path) = opt_cache_path {
        store_opt_cache(&path, &opt_cache)?;
    }
    Ok(())
}

/// `bench [<suite>|all] [--quick] [--out-dir D]`: run the fixed benchmark
/// suites and write `BENCH_<suite>.json` artifacts, or `bench compare`
/// to diff two artifacts (hard-failing on deterministic regressions).
fn cmd_bench(mut args: Vec<String>) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("compare") {
        args.remove(0);
        return cmd_bench_compare(args);
    }
    let quick = take_switch(&mut args, "--quick");
    let out_dir = take_flag(&mut args, "--out-dir").unwrap_or_else(|| ".".into());
    let suite_arg = args.first().cloned().unwrap_or_else(|| "all".into());
    let suites: Vec<String> = if suite_arg == "all" {
        rrs::bench::suite::SUITES.iter().map(|s| s.to_string()).collect()
    } else {
        vec![suite_arg]
    };
    let cfg = rrs::bench::suite::SuiteConfig::new(quick);
    for suite in &suites {
        let sw = Stopwatch::start();
        let artifact = rrs::bench::suite::run_suite(suite, cfg)?;
        let path = format!("{out_dir}/{}", rrs::bench::artifact_filename(suite));
        std::fs::write(&path, artifact.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {path}: {} benches, tier {}, {} reps ({:.2?})",
            artifact.benches.len(),
            artifact.tier,
            artifact.repetitions,
            sw.elapsed()
        );
    }
    Ok(())
}

/// `bench compare <BASE.json> <CAND.json> [--warn-pct P]`: exit nonzero iff
/// a *deterministic* metric regressed; wall-clock drift only warns.
fn cmd_bench_compare(mut args: Vec<String>) -> Result<(), String> {
    let warn_pct = match take_flag(&mut args, "--warn-pct") {
        None => rrs::bench::CompareConfig::default().warn_pct,
        Some(v) => v.parse::<f64>().map_err(|e| format!("bad --warn-pct: {e}"))?,
    };
    let base_path = args.first().ok_or("missing <BASE.json>")?;
    let cand_path = args.get(1).ok_or("missing <CAND.json>")?;
    let read = |p: &str| -> Result<rrs::bench::BenchArtifact, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        rrs::bench::BenchArtifact::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let baseline = read(base_path)?;
    let candidate = read(cand_path)?;
    let cmp = rrs::bench::compare_artifacts(
        &baseline,
        &candidate,
        &rrs::bench::CompareConfig { warn_pct },
    )?;
    println!("baseline:  {base_path} (suite {}, tier {})", baseline.suite, baseline.tier);
    println!("candidate: {cand_path}");
    print!("{}", cmp.render());
    if cmp.regressed() {
        return Err(format!(
            "{} deterministic regression(s) against {base_path}",
            cmp.failures.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Global flag, usable with any subcommand.
    match take_flag(&mut argv, "--jobs").map(|v| v.parse::<usize>()) {
        // take_flag leaves a trailing value-less flag in place.
        None if argv.iter().any(|a| a == "--jobs") => {
            eprintln!("error: --jobs requires a value");
            return ExitCode::from(2);
        }
        None => {}
        Some(Ok(n)) if n >= 1 => rrs::engine::set_jobs(n),
        Some(_) => {
            eprintln!("error: --jobs must be a positive integer");
            return ExitCode::from(2);
        }
    }
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(argv),
        "classify" => cmd_classify(argv),
        "run" => cmd_run(argv),
        "checkpoint" => cmd_checkpoint(argv),
        "resume" => cmd_resume(argv),
        "attribute" => cmd_attribute(argv),
        "opt" => cmd_opt(argv),
        "opt-cache" => cmd_opt_cache(argv),
        "lemmas" => cmd_lemmas(argv),
        "evaluate" => cmd_evaluate(argv),
        "report" => cmd_report(argv),
        "adversary-search" => cmd_adversary_search(argv),
        "bench" => cmd_bench(argv),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
