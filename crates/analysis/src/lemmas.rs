//! Checkers for the Section 3 inequalities on real executions.
//!
//! The paper proves, for ΔLRU-EDF with `n = 8m` locations on rate-limited
//! `[Δ|1|D_ℓ|D_ℓ]` input:
//!
//! * **Lemma 3.3** — reconfiguration cost ≤ `4 · numEpochs(σ) · Δ`.
//! * **Lemma 3.4** — ineligible drop cost ≤ `numEpochs(σ) · Δ`.
//! * **Lemma 3.2** — eligible drop cost ≤ OFF's drop cost; empirically we
//!   check the chain's measurable endpoint, `eligible drops ≤
//!   ParEDF-drops(σ, m)` — valid because Par-EDF's drop count on the full
//!   sequence upper-bounds its drop count on the eligible subsequence and
//!   lower-bounds every `m`-resource schedule's drops (Lemmas 3.6–3.10,
//!   Corollary 3.1).
//!
//! [`check_lemmas`] runs the instrumented algorithm once and evaluates all
//! three.

use rrs_core::{DeltaLruEdf, Edf};
use rrs_engine::{NullRecorder, Simulator};
use rrs_model::Instance;
use rrs_offline::par_edf_drop_cost;

use crate::run::{checked, run_report, simulate, RunReport};

/// Both sides of each lemma inequality for one run.
#[derive(Clone, Debug)]
pub struct LemmaReport {
    /// Locations given to ΔLRU-EDF.
    pub n: usize,
    /// OFF's resources `m = max(1, n/8)` used for the drop chain.
    pub m: usize,
    /// Reconfiguration cost Δ.
    pub delta: u64,
    /// `numEpochs(σ)` from the instrumented run.
    pub num_epochs: u64,
    /// Lemma 3.3 LHS: the engine's reconfiguration cost.
    pub reconfig_cost: u64,
    /// Lemma 3.4 LHS: ineligible drop cost.
    pub ineligible_drops: u64,
    /// Lemma 3.2 LHS: eligible drop cost.
    pub eligible_drops: u64,
    /// Lemma 3.2 RHS: Par-EDF drop count with `m` resources.
    pub par_edf_drops: u64,
    /// Lemma 3.10's tighter intermediate: DS-Seq-EDF's drop count with
    /// `n/4` resources at speed 2 (an upper bound on its drops over the
    /// eligible subsequence, via the Lemma 3.9 monotonicity argument).
    pub ds_seq_edf_drops: u64,
    /// Total online cost, for context.
    pub total_cost: u64,
    /// The ΔLRU-EDF run the lemmas were checked on, unlabeled: a caller
    /// that keeps the report labels it.
    pub run: RunReport,
}

impl LemmaReport {
    /// Lemma 3.3 RHS.
    pub fn reconfig_bound(&self) -> u64 {
        4 * self.num_epochs * self.delta
    }

    /// Lemma 3.4 RHS.
    pub fn ineligible_bound(&self) -> u64 {
        self.num_epochs * self.delta
    }

    /// Whether Lemma 3.3 held.
    pub fn lemma_3_3_holds(&self) -> bool {
        self.reconfig_cost <= self.reconfig_bound()
    }

    /// Whether Lemma 3.4 held.
    pub fn lemma_3_4_holds(&self) -> bool {
        self.ineligible_drops <= self.ineligible_bound()
    }

    /// Whether the Lemma 3.2 chain held.
    pub fn lemma_3_2_holds(&self) -> bool {
        self.eligible_drops <= self.par_edf_drops
    }

    /// Whether the tighter Lemma 3.10 link held.
    pub fn lemma_3_10_holds(&self) -> bool {
        self.eligible_drops <= self.ds_seq_edf_drops
    }

    /// All checked inequalities at once.
    pub fn all_hold(&self) -> bool {
        self.lemma_3_3_holds()
            && self.lemma_3_4_holds()
            && self.lemma_3_2_holds()
            && self.lemma_3_10_holds()
    }
}

/// Run ΔLRU-EDF with `n` locations on a rate-limited instance and evaluate
/// the Section 3 lemmas.
pub fn check_lemmas(inst: &Instance, n: usize) -> LemmaReport {
    // Under `validate`, the one run also holds the Lemma 3.3/3.4 bounds
    // *incrementally*: `CheckedPolicy` re-evaluates both inequalities after
    // every round, so a transient violation that happens to cancel by the
    // horizon still fails. Sound here because `check_lemmas` is only
    // defined for the rate-limited inputs the lemmas are stated over.
    let run = run_report("", inst, n, &mut checked(DeltaLruEdf::new(), true));
    let m = (n / 8).max(1);
    let par = par_edf_drop_cost(inst, m);
    let ds = simulate(
        &Simulator::new(inst, (n / 4).max(1)).with_speed(2),
        &mut Edf::seq(),
        &mut NullRecorder,
    )
    .dropped;
    LemmaReport {
        n,
        m,
        delta: inst.delta,
        num_epochs: run.metrics.num_epochs(),
        reconfig_cost: run.outcome.cost.reconfig_cost(),
        ineligible_drops: run.metrics.ineligible_drops,
        eligible_drops: run.metrics.eligible_drops,
        par_edf_drops: par.dropped,
        ds_seq_edf_drops: ds,
        total_cost: run.outcome.total_cost(),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::InstanceBuilder;
    use rrs_workloads::{rate_limited_instance, RateLimitedConfig};

    #[test]
    fn lemmas_hold_on_a_simple_instance() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(8);
        for blk in 0..8 {
            b.arrive(blk * 2, c0, 2);
        }
        b.arrive(0, c1, 8).arrive(8, c1, 4);
        let inst = b.build();
        let r = check_lemmas(&inst, 8);
        assert!(r.lemma_3_3_holds(), "3.3: {} <= {}", r.reconfig_cost, r.reconfig_bound());
        assert!(r.lemma_3_4_holds(), "3.4: {} <= {}", r.ineligible_drops, r.ineligible_bound());
        assert!(r.lemma_3_2_holds(), "3.2: {} <= {}", r.eligible_drops, r.par_edf_drops);
    }

    #[test]
    fn lemmas_hold_across_random_seeds() {
        let cfg = RateLimitedConfig { delta: 3, ..Default::default() };
        for seed in 0..25 {
            let inst = rate_limited_instance(&cfg, seed);
            let r = check_lemmas(&inst, 8);
            assert!(
                r.all_hold(),
                "seed {seed}: 3.3 {}<={}, 3.4 {}<={}, 3.2 {}<={}",
                r.reconfig_cost,
                r.reconfig_bound(),
                r.ineligible_drops,
                r.ineligible_bound(),
                r.eligible_drops,
                r.par_edf_drops
            );
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let inst = rate_limited_instance(&RateLimitedConfig::default(), 0);
        let r = check_lemmas(&inst, 8);
        assert_eq!(r.m, 1);
        assert_eq!(r.reconfig_bound(), 4 * r.num_epochs * r.delta);
        assert_eq!(r.ineligible_bound(), r.num_epochs * r.delta);
    }
}
