//! One-call run helpers and the machine-readable [`RunReport`].
//!
//! A [`RunReport`] bundles everything one simulated run produced: the
//! engine [`Outcome`] (costs plus conservation counters), the lemma
//! counters of the instrumented algorithms, and a per-color cost
//! attribution. [`RunReport::to_json`] serializes it as a single JSON
//! object with a stable key order, so sweeps can stream reports to a JSONL
//! file.
//!
//! **Report collection.** Experiments opt in with
//! [`enable_report_collection`]; while enabled, [`observed_run`] and
//! [`run_dlru_edf_labeled`] additionally push a labeled report into a
//! process-wide collector drained by [`take_reports`]. Reports are sorted
//! by label on drain, so the collected output is deterministic even when
//! the runs themselves completed on a work-stealing sweep in arbitrary
//! order. When collection is disabled (the default) `observed_run` is a
//! plain run with zero observability overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use rrs_core::{AlgoMetrics, DeltaLruEdf};
use rrs_engine::{NullRecorder, Outcome, Policy, Recorder, Simulator, Slot};
use rrs_model::json::Quoted;
use rrs_model::{ColorId, Instance};

use crate::attribution::ColorCosts;

/// The result of running a policy: engine costs, lemma counters (zeroed
/// for uninstrumented policies), and the per-color attribution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Caller-chosen label (e.g. `"e3 seed=4"`); empty for ad-hoc runs.
    pub label: String,
    /// Policy name.
    pub policy: String,
    /// Locations the policy was given.
    pub locations: usize,
    /// Engine outcome (costs, conservation counters).
    pub outcome: Outcome,
    /// Lemma counters (zeroed for uninstrumented policies).
    pub metrics: AlgoMetrics,
    /// Per-color cost attribution, indexed by dense color id.
    pub per_color: Vec<ColorCosts>,
}

impl RunReport {
    /// Total cost.
    pub fn cost(&self) -> u64 {
        self.outcome.total_cost()
    }

    /// One JSON object with a stable key order (hand-rolled, strings
    /// escaped by [`rrs_model::json::Quoted`]). Suitable as a JSONL line:
    /// contains no raw newlines.
    pub fn to_json(&self) -> String {
        let c = &self.outcome.cost;
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"label\":{},\"policy\":{},\"locations\":{},\"delta\":{},\"rounds\":{},\
             \"arrived\":{},\"executed\":{},\"dropped\":{},\"reconfigs\":{},\
             \"reconfig_cost\":{},\"drop_cost\":{},\"total_cost\":{},\"conserved\":{},\
             \"metrics\":{},\"per_color\":[",
            Quoted(&self.label),
            Quoted(&self.policy),
            self.locations,
            c.delta,
            self.outcome.rounds,
            self.outcome.arrived,
            self.outcome.executed,
            self.outcome.dropped,
            c.reconfigs,
            c.reconfig_cost(),
            c.drop_cost(),
            c.total(),
            self.outcome.conserved(),
            self.metrics.to_json(),
        ));
        for (i, pc) in self.per_color.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"color\":{},\"arrived\":{},\"executed\":{},\"dropped\":{},\
                 \"reconfigs_to\":{},\"cost\":{}}}",
                pc.color.index(),
                pc.arrived,
                pc.executed,
                pc.dropped,
                pc.reconfigs_to,
                pc.cost(c.delta)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Streaming per-color attribution: folds trace callbacks directly into
/// [`ColorCosts`] without retaining the event stream, so observed runs stay
/// O(colors) in memory regardless of horizon.
struct ColorFold {
    per: Vec<ColorCosts>,
}

impl ColorFold {
    fn new(inst: &Instance) -> Self {
        let per = inst
            .colors
            .ids()
            .map(|color| ColorCosts { color, arrived: 0, executed: 0, dropped: 0, reconfigs_to: 0 })
            .collect();
        Self { per }
    }
}

impl Recorder for ColorFold {
    fn on_drop(&mut self, _round: u64, color: ColorId, count: u64) {
        self.per[color.index()].dropped += count;
    }
    fn on_arrive(&mut self, _round: u64, color: ColorId, count: u64) {
        self.per[color.index()].arrived += count;
    }
    fn on_reconfig(&mut self, _round: u64, _mini: u32, _location: usize, _from: Slot, to: Slot) {
        if let Some(color) = to {
            self.per[color.index()].reconfigs_to += 1;
        }
    }
    fn on_execute(&mut self, _round: u64, _mini: u32, color: ColorId, count: u64) {
        self.per[color.index()].executed += count;
    }
}

/// Whether observed runs should record reports into the collector.
static COLLECTING: AtomicBool = AtomicBool::new(false);

/// The process-wide report collector.
static REPORTS: Mutex<Vec<RunReport>> = Mutex::new(Vec::new());

/// Turn report collection on: subsequent [`observed_run`] /
/// [`run_dlru_edf_labeled`] calls push a labeled [`RunReport`] into the
/// process-wide collector.
pub fn enable_report_collection() {
    COLLECTING.store(true, Ordering::Relaxed);
}

/// Is report collection currently enabled?
pub fn collecting() -> bool {
    COLLECTING.load(Ordering::Relaxed)
}

/// Push a report into the collector (no-op *check* is the caller's job;
/// this always records).
pub fn record_report(report: RunReport) {
    REPORTS.lock().expect("report collector lock poisoned").push(report);
}

/// Drain the collector, turn collection off, and return the reports sorted
/// by `(label, policy)` — a deterministic order even when the runs finished
/// on a work-stealing sweep.
pub fn take_reports() -> Vec<RunReport> {
    COLLECTING.store(false, Ordering::Relaxed);
    let mut reports = std::mem::take(&mut *REPORTS.lock().expect("report collector lock poisoned"));
    reports.sort_by(|a, b| a.label.cmp(&b.label).then_with(|| a.policy.cmp(&b.policy)));
    reports
}

/// The recorder that supervises a run over `inst`: under `--features
/// validate`, the shadow-model `InvariantWatcher` from `rrs-check`, which
/// panics on any phase-law violation (DESIGN.md §9); otherwise a
/// [`NullRecorder`] that compiles to nothing. This is the one validate
/// gate for the engine: every choke point — [`simulate`], the CLI, the
/// golden-fixture and checkpoint tests — tees it after its own recorder.
/// The watcher seeds itself from the state a run starts from, so the same
/// supervisor checks fresh, checkpointed, resumed and streamed runs.
pub fn supervisor(inst: &Instance) -> impl Recorder + '_ {
    #[cfg(feature = "validate")]
    {
        rrs_check::InvariantWatcher::new(inst)
    }
    #[cfg(not(feature = "validate"))]
    {
        let _ = inst;
        NullRecorder
    }
}

/// Run a configured simulator through this crate's single simulation choke
/// point. Every harness run — the one-call helpers below, the lemma
/// checkers, the E1–E16 experiments, punctuality audits and timelines —
/// goes through here, so building with `--features validate` supervises
/// all of them (see [`supervisor`]). Without the feature this is exactly
/// `sim.run_traced(policy, recorder)`.
pub fn simulate<P: Policy, R: Recorder + ?Sized>(
    sim: &Simulator<'_>,
    policy: &mut P,
    recorder: &mut R,
) -> Outcome {
    sim.run_traced(policy, &mut (recorder, supervisor(sim.instance())))
}

/// [`simulate`] without a recorder.
pub fn simulate_plain<P: Policy>(sim: &Simulator<'_>, policy: &mut P) -> Outcome {
    simulate(sim, policy, &mut NullRecorder)
}

/// Run any policy on `n` locations and return the outcome.
pub fn run_policy<P: Policy>(inst: &Instance, n: usize, policy: &mut P) -> Outcome {
    simulate_plain(&Simulator::new(inst, n), policy)
}

/// Run any policy and, when report collection is enabled, record a labeled
/// [`RunReport`] (with zeroed lemma counters — use
/// [`run_dlru_edf_labeled`] for the instrumented headline algorithm).
/// When collection is disabled this is exactly [`run_policy`].
pub fn observed_run<P: Policy>(label: &str, inst: &Instance, n: usize, policy: &mut P) -> Outcome {
    if !collecting() {
        return simulate_plain(&Simulator::new(inst, n), policy);
    }
    let mut fold = ColorFold::new(inst);
    let outcome = simulate(&Simulator::new(inst, n), policy, &mut fold);
    record_report(RunReport {
        label: label.to_string(),
        policy: policy.name().to_string(),
        locations: n,
        outcome: outcome.clone(),
        metrics: AlgoMetrics::default(),
        per_color: fold.per,
    });
    outcome
}

/// Run ΔLRU-EDF on `n` locations and return costs plus lemma counters and
/// the per-color attribution.
pub fn run_dlru_edf(inst: &Instance, n: usize) -> RunReport {
    run_dlru_edf_labeled("", inst, n)
}

/// [`run_dlru_edf`] with a caller-chosen label; when report collection is
/// enabled the report is also pushed into the collector.
pub fn run_dlru_edf_labeled(label: &str, inst: &Instance, n: usize) -> RunReport {
    let mut fold = ColorFold::new(inst);
    // Under `validate`, the headline algorithm additionally runs inside
    // `CheckedPolicy`, which verifies the ΔLRU timestamp laws after every
    // decision (the supervisor teed in by `simulate` checks the engine
    // side).
    #[cfg(feature = "validate")]
    let (outcome, p) = {
        let mut checked = rrs_check::CheckedPolicy::new(DeltaLruEdf::new());
        let outcome = simulate(&Simulator::new(inst, n), &mut checked, &mut fold);
        (outcome, checked.into_inner())
    };
    #[cfg(not(feature = "validate"))]
    let (outcome, p) = {
        let mut p = DeltaLruEdf::new();
        let outcome = simulate(&Simulator::new(inst, n), &mut p, &mut fold);
        (outcome, p)
    };
    let report = RunReport {
        label: label.to_string(),
        policy: p.name().to_string(),
        locations: n,
        outcome,
        metrics: p.metrics(),
        per_color: fold.per,
    };
    if collecting() {
        record_report(report.clone());
    }
    report
}

/// Tests that toggle or drain the process-wide collector serialize on this
/// lock so they cannot steal each other's reports.
#[cfg(test)]
pub(crate) mod test_sync {
    pub static COLLECTOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::InstanceBuilder;

    fn small() -> Instance {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 4).arrive(4, c, 4);
        b.build()
    }

    #[test]
    fn report_carries_metrics() {
        let inst = small();
        let r = run_dlru_edf(&inst, 4);
        assert_eq!(r.policy, "dlru-edf");
        assert!(r.outcome.conserved());
        assert_eq!(r.metrics.num_epochs(), 1);
        assert_eq!(r.cost(), r.outcome.total_cost());
    }

    #[test]
    fn run_policy_generic() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();
        let out = run_policy(&inst, 2, &mut rrs_core::Edf::new());
        assert!(out.conserved());
    }

    #[test]
    fn per_color_matches_outcome_totals() {
        let inst = small();
        let r = run_dlru_edf(&inst, 4);
        let arrived: u64 = r.per_color.iter().map(|c| c.arrived).sum();
        let executed: u64 = r.per_color.iter().map(|c| c.executed).sum();
        let dropped: u64 = r.per_color.iter().map(|c| c.dropped).sum();
        let reconfigs: u64 = r.per_color.iter().map(|c| c.reconfigs_to).sum();
        assert_eq!(arrived, r.outcome.arrived);
        assert_eq!(executed, r.outcome.executed);
        assert_eq!(dropped, r.outcome.dropped);
        assert_eq!(reconfigs, r.outcome.cost.reconfigs);
    }

    #[test]
    fn json_is_one_line_with_stable_fields() {
        let inst = small();
        let r = run_dlru_edf_labeled("smoke \"q\"", &inst, 4);
        let j = r.to_json();
        assert!(!j.contains('\n'), "{j}");
        assert!(j.starts_with("{\"label\":\"smoke \\\"q\\\"\""), "{j}");
        let v = rrs_model::json::parse(&j).expect("report is valid JSON");
        assert_eq!(v.str_field("label"), Ok("smoke \"q\""));
        assert_eq!(v.str_field("policy"), Ok("dlru-edf"));
        assert_eq!(v.u64_field("delta"), Ok(2));
        assert_eq!(v.u64_field("total_cost"), Ok(r.cost()));
        assert_eq!(v.field("metrics").unwrap().u64_field("num_epochs"), Ok(r.metrics.num_epochs()));
        assert_eq!(v.field("per_color").unwrap().as_array().unwrap().len(), r.per_color.len());
    }

    #[test]
    fn collector_records_sorted_labels() {
        let _g = test_sync::COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let inst = small();
        enable_report_collection();
        assert!(collecting());
        let _ = run_dlru_edf_labeled("z-last", &inst, 4);
        let _ = observed_run("a-first", &inst, 2, &mut rrs_core::Edf::new());
        let reports = take_reports();
        assert!(!collecting());
        // Other tests in this binary may have contributed reports; check
        // relative order of ours rather than exact contents.
        let za: Vec<usize> = reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.label == "z-last" || r.label == "a-first")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(za.len(), 2, "{reports:?}");
        assert_eq!(reports[za[0]].label, "a-first");
        assert_eq!(reports[za[1]].label, "z-last");
    }

    #[cfg(feature = "validate")]
    #[test]
    #[should_panic(expected = "invariant violation")]
    fn supervisor_of_another_instance_panics() {
        // The supervisor checks arrivals against its own instance, so one
        // built for a different instance must fail the run.
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 2);
        let run_inst = b.build();
        b.arrive(4, c, 1);
        let other = b.build();
        let sim = Simulator::new(&run_inst, 1).with_horizon(other.horizon());
        sim.run_traced(&mut rrs_engine::policy::PinColor(c), &mut supervisor(&other));
    }

    #[test]
    fn observed_run_is_plain_when_disabled() {
        let _g = test_sync::COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let inst = small();
        // Collection off (take_reports in other tests turns it off; make sure).
        let _ = take_reports();
        let before = REPORTS.lock().unwrap().len();
        let out = observed_run("quiet", &inst, 2, &mut rrs_core::Edf::new());
        assert!(out.conserved());
        assert_eq!(REPORTS.lock().unwrap().len(), before);
    }
}
