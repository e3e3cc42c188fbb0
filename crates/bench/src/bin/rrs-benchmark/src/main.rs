//! `rrs-benchmark`: the benchmark of the Theorem 3 stack
//! (`VarBatch∘Distribute∘ΔLRU-EDF`) and the offline referee, end to end and
//! layer by layer. `README.md` beside `Cargo.toml` describes the workloads
//! and metrics.
//!
//! The parent process only orchestrates. For each workload it re-executes
//! this binary as child processes, one at a time, each single-threaded:
//!
//! * `--trace 0`: [`PROCESSES`] untraced children, each making reps for its
//!   share of `--seconds`. Every end-to-end metric is a median over all
//!   reps of all children. Throughput moves between processes (memory
//!   layout) and over seconds (a shared host), so the run spreads its time
//!   over several fresh processes; each child's `VmHWM` is then the
//!   workload's own peak memory.
//! * `--trace 1`: one child with timing wrappers at every layer boundary,
//!   reporting the per-layer metrics.
//!
//! A child generates its input from `--seed` and prints a [`Report`] in the
//! line protocol of `report.rs`. The parent checks that the children agree
//! (input, outcome, the pinned input digest) and prints, as its last two
//! lines, the host and sample context and then the result object.

mod layers;
mod measure;
mod report;
mod stats;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use crate::report::Report;
use crate::workload::{Workload, DEFAULT_SEED};

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "jobs/s"),
    ("round_p50_us", "us"),
    ("setup_s", "s"),
    ("total_cost", "cost"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("engine.sim.self_ms", "ms"),
    ("engine.sim.floor_ns_per_job", "ns/job"),
    ("engine.sim.round_p99_us", "us"),
    ("engine.sim.rounds", "count"),
    ("engine.sim.reconfigs", "count"),
    ("engine.sim.drops", "count"),
    ("core.var_batch.self_ms", "ms"),
    ("core.var_batch.arrival_pairs", "count"),
    ("core.var_batch.drops_seen", "count"),
    ("core.var_batch.recolors", "count"),
    ("core.var_batch.overhead_ns_per_job", "ns/job"),
    ("core.distribute.self_ms", "ms"),
    ("core.distribute.arrival_pairs", "count"),
    ("core.distribute.drops_seen", "count"),
    ("core.distribute.recolors", "count"),
    ("core.distribute.sub_colors", "count"),
    ("core.distribute.recolor_yield_pct", "%"),
    ("core.distribute.overhead_ns_per_job", "ns/job"),
    ("core.dlru_edf.self_ms", "ms"),
    ("core.dlru_edf.arrival_pairs", "count"),
    ("core.dlru_edf.drops_seen", "count"),
    ("core.dlru_edf.recolors", "count"),
    ("core.dlru_edf.isolated_ns_per_job", "ns/job"),
    ("core.footprint.colorset_leaf_words", "count"),
    ("core.footprint.colormap_live_pages", "count"),
    ("model.textio.parse_ms", "ms"),
    ("model.textio.bytes", "bytes"),
    ("model.stream.advance_ms", "ms"),
    ("model.stream.bytes", "bytes"),
    ("engine.sink.write_ms", "ms"),
    ("engine.sink.lines", "count"),
    ("engine.sink.bytes", "bytes"),
    ("engine.checkpoint.snapshots", "count"),
    ("engine.checkpoint.snapshot_bytes", "bytes"),
    ("engine.checkpoint.encode_us", "us"),
    ("engine.checkpoint.decode_us", "us"),
    ("engine.checkpoint.resume_s", "s"),
    ("offline.opt.solve_p50_us", "us"),
    ("offline.opt.solve_p99_us", "us"),
    ("offline.opt.states_explored", "count"),
    ("trace.overhead_pct", "%"),
];

/// Untraced child processes per workload run.
const PROCESSES: u32 = 6;

/// Reps every untraced child makes at least, so the cross-rep outcome
/// check always runs.
const MIN_REPS: u32 = 1;

const USAGE: &str = "usage: rrs-benchmark --workload \
    <zipf_wide|bursty_narrow|stream_checkpoint|opt_referee|all> \
    [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

#[derive(Clone, Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Every workload at 1/64 size, one process, one rep.
    smoke: bool,
    /// In a child process: what to run (`run` or `trace`), the child's
    /// index, and its time budget in milliseconds.
    child: Option<(String, u32, u64)>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
        smoke: false,
        child: None,
    };
    let (mut kind, mut index, mut budget_ms) = (None, 0, 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.to_string(),
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => o.seconds = number(flag, value()?)?,
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--child" => kind = Some(value()?.to_string()),
            "--proc" => index = number(flag, value()?)?,
            "--budget-ms" => budget_ms = number(flag, value()?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workload != "all" && Workload::parse(&o.workload).is_none() {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    o.child = kind.map(|k| (k, index, budget_ms));
    Ok(o)
}

/// Run one child's work in this process.
fn run_child(
    kind: &str,
    w: Workload,
    opts: &Options,
    index: u32,
    budget: Duration,
) -> Result<Report, String> {
    let input = workload::generate(w, opts.seed, opts.smoke);
    match kind {
        "run" => {
            let min_reps = if opts.smoke { 1 } else { MIN_REPS };
            Ok(measure::run(w, &input, budget, min_reps, index == 0))
        }
        // Rep pairs get two thirds of the budget; the isolated rows after
        // them take the rest.
        "trace" => Ok(layers::run(w, &input, budget * 2 / 3, 1)),
        other => Err(format!("unknown child kind {other}")),
    }
}

/// Re-execute this binary as a child and wait for its report.
fn spawn_child(
    exe: &Path,
    kind: &str,
    w: Workload,
    opts: &Options,
    index: u32,
    budget: Duration,
) -> Result<Report, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &opts.seed.to_string(), "--child", kind]).args([
        "--proc",
        &index.to_string(),
        "--budget-ms",
        &budget.as_millis().to_string(),
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} child {index} failed: {}", out.status));
    }
    Report::decode(&String::from_utf8_lossy(&out.stdout))
}

/// Run one workload's children through `child` and check what they must
/// agree on: the input (and, at the default seed, its pin) and the outcome.
fn bench_workload(
    w: Workload,
    opts: &Options,
    mut child: impl FnMut(&str, u32, Duration) -> Result<Report, String>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let seconds = Duration::from_secs(opts.seconds);
    if opts.trace {
        report.absorb(child("trace", 0, seconds)?);
    } else {
        let processes = if opts.smoke { 1 } else { PROCESSES };
        for index in 0..processes {
            report.absorb(child("run", index, seconds / processes)?);
        }
        report.check_agreement("outcome", w.name());
    }
    report.check_agreement("input", w.name());
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        let pinned = workload::pin(w).identity();
        let got = report.notes.get("input").and_then(|n| n.first()).cloned().unwrap_or_default();
        report.check(got == pinned, || {
            format!(
                "{}: input {got} does not match its pin {pinned}: a workload generator or \
                 the text encoding changed, which redefines the benchmark",
                w.name()
            )
        });
    }
    Ok(report)
}

/// The reported metrics: medians over every rep of every process. A metric
/// that was not measured fails an operation and reads 0.
fn finish(report: &mut Report, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = report.median(name).filter(|v| v.is_finite());
        report.check(value.is_some(), || format!("metric {name} was not measured"));
        metrics.push((name, unit, value.unwrap_or(0.0)));
    }
    metrics
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host, run shape and sample counts behind one workload's numbers.
fn context_json(w: Workload, opts: &Options, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let reps: Vec<String> =
        report.values.get("reps").into_iter().flatten().map(|r| r.to_string()).collect();
    let samples: Vec<String> = report
        .values
        .iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("samples.")?;
            Some(format!("{}: {}", json_str(name), v.iter().sum::<f64>()))
        })
        .collect();
    let input = report.notes.get("input").and_then(|n| n.first()).cloned().unwrap_or_default();
    format!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"processes\": {}, \"reps_per_process\": [{}], \
         \"input_fnv1a_bytes_jobs\": {}, \"samples\": {{{}}}}}}}",
        json_str(w.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        json_str(&stats::cpu_model()),
        reps.len(),
        reps.join(", "),
        json_str(&input),
        samples.join(", ")
    )
}

fn result_json(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rrs-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((kind, index, budget_ms)) = &opts.child {
        let w = Workload::parse(&opts.workload).expect("a child runs one named workload");
        return match run_child(kind, w, &opts, *index, Duration::from_millis(*budget_ms)) {
            Ok(report) => {
                print!("{}", report.encode());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rrs-benchmark child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rrs-benchmark: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = match Workload::parse(&opts.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let (mut attempted, mut failed, mut all) = (0, 0, Vec::new());
    for &w in &workloads {
        let spawn = |kind: &str, index, budget| spawn_child(&exe, kind, w, &opts, index, budget);
        let mut report = match bench_workload(w, &opts, spawn) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("rrs-benchmark: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let metrics = finish(&mut report, opts.trace);
        println!("{}", context_json(w, &opts, &report));
        attempted += report.attempted;
        failed += report.failed;
        let prefix = if workloads.len() > 1 { format!("{}.", w.name()) } else { String::new() };
        let named: Vec<_> =
            metrics.into_iter().map(|(n, u, v)| (format!("{prefix}{n}"), u, v)).collect();
        if workloads.len() > 1 {
            println!("{}", result_json(report.attempted, report.failed, &named));
        }
        all.extend(named);
    }
    println!("{}", result_json(attempted, failed, &all));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let json = include_str!("../../../../../../BENCHMARK.json");
        let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn smoke_run_checks_clean_and_emits_the_declared_metrics() {
        for trace in [false, true] {
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let names: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names, declared(if trace { "per_layer" } else { "end_to_end" }));
            for w in Workload::ALL {
                let opts = Options {
                    workload: w.name().to_string(),
                    seed: 3,
                    seconds: 0,
                    trace,
                    smoke: true,
                    child: None,
                };
                let mut report = bench_workload(w, &opts, |kind, i, budget| {
                    run_child(kind, w, &opts, i, budget)
                })
                .expect("smoke run");
                let metrics = finish(&mut report, trace);
                assert_eq!(report.failed, 0, "{} trace={trace}: failed checks", w.name());
                assert!(report.attempted > 0);
                assert_eq!(metrics.len(), names.len());
                for name in report.values.keys() {
                    assert!(
                        names.contains(name) || name.starts_with("samples.") || name == "reps",
                        "{} trace={trace}: undeclared value {name}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let o = parse_args(&args("--workload zipf_wide --seed 5 --seconds 7 --trace 1"))
            .expect("valid");
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (5, 7, true, false));
        assert!(parse_args(&args("--workload all")).is_ok());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload zipf_wide --trace 2")).is_err());
        assert!(parse_args(&args("--workload zipf_wide --seed")).is_err());
        assert!(parse_args(&args("--workload zipf_wide --bogus 1")).is_err());
    }
}
