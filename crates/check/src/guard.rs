//! The lemma-monitoring policy wrapper.
//!
//! [`CheckedPolicy`] wraps any [`Policy`] that exposes its Section 3
//! bookkeeping via [`Instrumented`] (the book) and [`Policy::stats`] (the
//! lemma counters) and verifies, after every decision,
//! the timestamp laws the ΔLRU recency scheme depends on (§3.1.1):
//!
//! * a committed timestamp is a **counter-wrap round** — a block boundary
//!   of the color (`ts % D_ℓ == 0`) strictly before the current round;
//! * timestamps are **monotone**: a commit never moves a color's
//!   timestamp backwards, so the wrap-order comparison `ts_value` relies
//!   on is a real total order over time;
//! * the counter stays `< Δ` between rounds and an eligible color has
//!   wrapped at least once;
//! * the deadline is the one the current block prescribes
//!   (`⌊k/D_ℓ⌋·D_ℓ + D_ℓ`, or still 0 for a color minted off-boundary).
//!
//! With [`CheckedPolicy::with_lemma_monitors`] it additionally holds the
//! run to the Lemma 3.3/3.4 bounds *incrementally* — after every round,
//! not only post-hoc — which is only sound on the rate-limited inputs the
//! lemmas are stated for, so it is opt-in.

use rrs_core::Instrumented;
use rrs_engine::{recolor_reconfigs, Observation, Policy, PolicyStats, Slot};

/// A wrapper policy that delegates every decision to `P` and checks the
/// ColorBook timestamp laws (and optionally the Lemma 3.3/3.4 bounds)
/// after each one. Panics with round context on any violation.
#[derive(Debug)]
pub struct CheckedPolicy<P> {
    inner: P,
    delta: u64,
    /// Last committed timestamp per color, for monotonicity.
    last_ts: Vec<Option<u64>>,
    /// Reconfiguration cost this wrapper has counted from assignment diffs.
    reconfig_cost: u64,
    /// Whether to hold the run to the Lemma 3.3/3.4 bounds each round.
    lemma_monitors: bool,
}

impl<P: Policy + Instrumented> CheckedPolicy<P> {
    /// Wrap a policy with the timestamp-law checks only.
    pub fn new(inner: P) -> Self {
        Self { inner, delta: 0, last_ts: Vec::new(), reconfig_cost: 0, lemma_monitors: false }
    }

    /// Also monitor Lemma 3.3 (`reconfig cost ≤ 4·numEpochs·Δ`) and
    /// Lemma 3.4 (`ineligible drops ≤ numEpochs·Δ`) after every round.
    /// Sound only for ΔLRU-EDF-style runs on rate-limited input.
    pub fn with_lemma_monitors(mut self) -> Self {
        self.lemma_monitors = true;
        self
    }

    /// Reconfiguration cost counted so far from assignment diffs.
    pub fn counted_reconfig_cost(&self) -> u64 {
        self.reconfig_cost
    }

    fn check_book(&mut self, obs: &Observation<'_>) {
        let Some(book) = self.inner.book() else {
            return;
        };
        if self.last_ts.len() < book.len() {
            self.last_ts.resize(book.len(), None);
        }
        for c in obs.colors.ids() {
            let s = book.state(c);
            let d = s.delay_bound;
            if d == 0 {
                // The book materializes a color's state on first arrival;
                // until then it reads as the untouched sentinel, which must
                // be inert in every ranking.
                assert!(
                    s.ts.is_none() && s.cnt == 0 && !s.eligible && book.deadline(c) == 0,
                    "round {}: never-arrived color {c} has live state",
                    obs.round
                );
                continue;
            }
            if let Some(w) = s.ts {
                assert!(
                    w % d == 0 && w < obs.round,
                    "round {}: color {c} committed timestamp {w} is not a wrap round \
                     strictly before the current block (D={d})",
                    obs.round
                );
            }
            let prev = self.last_ts[c.index()];
            assert!(
                s.ts >= prev,
                "round {}: color {c} timestamp moved backwards ({prev:?} -> {:?}), \
                 breaking counter-wrap order",
                obs.round,
                s.ts
            );
            self.last_ts[c.index()] = s.ts;
            assert!(
                s.cnt < self.delta,
                "round {}: color {c} counter {} escaped its wrap bound Δ={}",
                obs.round,
                s.cnt,
                self.delta
            );
            assert!(
                !s.eligible || s.last_wrap.is_some(),
                "round {}: color {c} is eligible but never wrapped",
                obs.round
            );
            let (deadline, block_deadline) = (book.deadline(c), (obs.round / d) * d + d);
            assert!(
                deadline == 0 || deadline == block_deadline,
                "round {}: color {c} deadline {deadline} is neither unset nor the block's \
                 {block_deadline}",
                obs.round
            );
        }
    }

    fn check_lemmas(&self, round: u64) {
        let m = self.inner.stats().metrics;
        let epochs = m.num_epochs();
        assert!(
            self.reconfig_cost <= 4 * epochs * self.delta,
            "round {round}: Lemma 3.3 violated incrementally: reconfig cost {} > 4·{epochs}·{}",
            self.reconfig_cost,
            self.delta
        );
        assert!(
            m.ineligible_drops <= epochs * self.delta,
            "round {round}: Lemma 3.4 violated incrementally: ineligible drops {} > {epochs}·{}",
            m.ineligible_drops,
            self.delta
        );
    }
}

impl<P: Policy + Instrumented> Policy for CheckedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        self.delta = delta;
        self.last_ts.clear();
        self.reconfig_cost = 0;
        self.inner.init(delta, n_locations);
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        self.inner.reconfigure(obs, out);
        assert_eq!(
            out.len(),
            obs.slots.len(),
            "round {}: policy changed the number of locations",
            obs.round
        );
        self.reconfig_cost += obs.delta * recolor_reconfigs(obs.slots, out);
        self.check_book(obs);
        if self.lemma_monitors {
            self.check_lemmas(obs.round);
        }
    }

    fn stats(&self) -> PolicyStats {
        // `last_ts` is a dense Vec, not a sparse container, so the wrapper
        // adds nothing to the wrapped policy's report.
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{ClassicLru, DeltaLru, DeltaLruEdf, Edf};
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;
    use rrs_workloads::{rate_limited_instance, RateLimitedConfig};

    #[test]
    fn checked_run_matches_bare_run() {
        let inst = rate_limited_instance(&RateLimitedConfig::default(), 7);
        let bare = Simulator::new(&inst, 8).run(&mut DeltaLruEdf::new());
        let mut checked = CheckedPolicy::new(DeltaLruEdf::new()).with_lemma_monitors();
        let watched = Simulator::new(&inst, 8).run(&mut checked);
        assert_eq!(bare, watched);
        assert_eq!(checked.counted_reconfig_cost(), watched.cost.reconfig_cost());
    }

    #[test]
    fn timestamp_laws_hold_across_policies_and_seeds() {
        let cfg = RateLimitedConfig { delta: 3, ..Default::default() };
        for seed in 0..10 {
            let inst = rate_limited_instance(&cfg, seed);
            Simulator::new(&inst, 8)
                .run(&mut CheckedPolicy::new(DeltaLruEdf::new()).with_lemma_monitors());
            Simulator::new(&inst, 8).run(&mut CheckedPolicy::new(DeltaLru::new()));
            Simulator::new(&inst, 8).run(&mut CheckedPolicy::new(Edf::new()));
            Simulator::new(&inst, 8).run(&mut CheckedPolicy::new(ClassicLru::new()));
        }
    }

    #[test]
    fn bookless_policy_is_accepted() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(2);
        b.arrive(0, c, 2).arrive(2, c, 2);
        let inst = b.build();
        let out = Simulator::new(&inst, 2).run(&mut CheckedPolicy::new(ClassicLru::new()));
        assert!(out.conserved());
    }

    #[test]
    fn name_is_transparent() {
        assert_eq!(CheckedPolicy::new(DeltaLruEdf::new()).name(), "dlru-edf");
    }
}
