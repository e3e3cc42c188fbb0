//! The harness's one run, [`run_report`], and its machine-readable
//! [`RunReport`].
//!
//! A [`RunReport`] bundles everything one simulated run produced: the
//! engine [`Outcome`] (costs plus conservation counters), the policy's
//! lemma counters as [`Policy::stats`] reports them when the run ends, and
//! a per-color cost attribution. [`RunReport::to_json`] serializes it as a
//! single JSON object with a stable key order, so sweeps can stream reports
//! to a JSONL file. An experiment returns the reports of the runs it
//! labels next to its table; no run is recorded anywhere else.
//!
//! Every harness run goes through [`simulate`], which tees in the
//! [`supervisor`]; [`checked`] is the same build gate on the policy side.

use rrs_core::{AlgoMetrics, Instrumented};
use rrs_engine::{Outcome, Policy, Recorder, Simulator};
use rrs_model::json::Quoted;
use rrs_model::Instance;

use crate::attribution::{ColorCosts, CostFold};

/// The result of running a policy: engine costs, lemma counters (zero for
/// a policy that keeps none), and the per-color attribution.
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

/// The recorder that supervises a run over `inst`: under `--features
/// validate`, the shadow-model `InvariantWatcher` from `rrs-check`, which
/// panics on any phase-law violation (DESIGN.md §9); otherwise a
/// [`rrs_engine::NullRecorder`] that compiles to nothing. This is the one
/// validate gate for the engine: every choke point — [`simulate`], the CLI,
/// the golden-fixture and checkpoint tests — tees it after its own
/// recorder. The watcher seeds itself from the state a run starts from, so
/// the same supervisor checks fresh, checkpointed, resumed and streamed
/// runs.
pub fn supervisor(inst: &Instance) -> impl Recorder + '_ {
    #[cfg(feature = "validate")]
    {
        rrs_check::InvariantWatcher::new(inst)
    }
    #[cfg(not(feature = "validate"))]
    {
        let _ = inst;
        rrs_engine::NullRecorder
    }
}

/// Whether [`supervisor`] watches anything: true under `--features
/// validate`. A caller that streams its input loads the instance only when
/// this is set, because the watcher checks every round against it.
pub const SUPERVISED: bool = cfg!(feature = "validate");

/// The policy-side validate gate, beside [`supervisor`]: under `--features
/// validate`, `policy` inside `rrs-check`'s `CheckedPolicy`, which verifies
/// the ΔLRU timestamp laws after every decision and, with
/// `lemma_monitors`, the Lemma 3.3/3.4 bounds after every round (sound only
/// on rate-limited input); otherwise `policy` itself. Both forward `name()`
/// and `stats()`, so a [`run_report`] reads the same either way.
pub fn checked<P: Policy + Instrumented>(policy: P, lemma_monitors: bool) -> impl Policy {
    #[cfg(feature = "validate")]
    {
        let checked = rrs_check::CheckedPolicy::new(policy);
        if lemma_monitors {
            checked.with_lemma_monitors()
        } else {
            checked
        }
    }
    #[cfg(not(feature = "validate"))]
    {
        let _ = lemma_monitors;
        policy
    }
}

/// Run a configured simulator through this crate's single simulation choke
/// point. Every harness run — [`run_report`], the lemma checkers, the
/// E1–E16 experiments, punctuality audits and timelines — goes through
/// here, so building with `--features validate` supervises all of them
/// (see [`supervisor`]). Without the feature this is exactly
/// `sim.run_traced(policy, recorder)`.
pub fn simulate<P: Policy, R: Recorder + ?Sized>(
    sim: &Simulator<'_>,
    policy: &mut P,
    recorder: &mut R,
) -> Outcome {
    sim.run_traced(policy, &mut (recorder, supervisor(sim.instance())))
}

/// The harness's one run: `policy` on `n` locations over `inst`, through
/// [`simulate`] with a [`CostFold`] teed in, reported under `label` with
/// the lemma counters `policy.stats()` holds when the run ends.
pub fn run_report<P: Policy>(label: &str, inst: &Instance, n: usize, policy: &mut P) -> RunReport {
    let mut fold = CostFold::new();
    let outcome = simulate(&Simulator::new(inst, n), policy, &mut fold);
    RunReport {
        label: label.to_string(),
        policy: policy.name().to_string(),
        locations: n,
        outcome,
        metrics: policy.stats().metrics,
        per_color: fold.finish(inst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{DeltaLru, DeltaLruEdf, Edf};
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
        let r = run_report("", &inst, 4, &mut DeltaLruEdf::new());
        assert_eq!(r.policy, "dlru-edf");
        assert!(r.outcome.conserved());
        assert_eq!(r.metrics.num_epochs(), 1);
        assert_eq!(r.cost(), r.outcome.total_cost());
    }

    #[test]
    fn every_policy_reports_its_own_counters() {
        let inst = small();
        let policies: [Box<dyn Policy>; 3] =
            [Box::new(DeltaLru::new()), Box::new(Edf::new()), Box::new(DeltaLruEdf::new())];
        for mut p in policies {
            let r = run_report("", &inst, 4, &mut p);
            assert!(r.metrics.num_epochs() > 0, "{}: {:?}", r.policy, r.metrics);
            assert_eq!(r.metrics, p.stats().metrics, "{}", r.policy);
        }
    }

    #[test]
    fn per_color_matches_outcome_totals() {
        let inst = small();
        let r = run_report("", &inst, 4, &mut DeltaLruEdf::new());
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
        let r = run_report("smoke \"q\"", &inst, 4, &mut DeltaLruEdf::new());
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
    fn checked_policy_forwards_name_and_stats() {
        let inst = small();
        let mut p = checked(DeltaLruEdf::new(), true);
        let r = run_report("", &inst, 4, &mut p);
        let bare = run_report("", &inst, 4, &mut DeltaLruEdf::new());
        assert_eq!(r.to_json(), bare.to_json());
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
}
