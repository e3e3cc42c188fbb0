//! The exact optimal offline solver's interface.
//!
//! OPT is a layered dynamic program over rounds. A state is the pair
//! `(cache multiset, pending profile)`; per round the solver applies the
//! deterministic drop and arrival phases, enumerates every useful cache
//! multiset (colors with pending jobs, colors already cached, and black —
//! configuring a color before it has pending jobs can always be postponed
//! at equal cost), prices the transition exactly like the engine
//! (Δ per copy added of a non-black color), and executes greedily
//! (executing an earliest-deadline pending job of a cached color is never
//! suboptimal for unit jobs with unit drop cost, by a standard exchange
//! argument). The DP is therefore **exact**, not heuristic.
//!
//! [`crate::solve_opt`], the memoized solver of [`crate::memo`], is the
//! one production solver. The plain DP in [`crate::plain_dp`] walks
//! the same model without canonical keys or pruning; it is the
//! differential oracle that also reconstructs replayable schedules.
//!
//! Complexity is exponential in colors × resources; the per-layer state cap
//! turns blow-ups into a clean [`OptError`] instead of an OOM.

use crate::memo::MemoStats;

/// Sentinel for an unconfigured (black) cache slot.
pub(crate) const BLACK: u32 = u32::MAX;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Maximum distinct states per round layer before giving up.
    pub max_states: usize,
    /// Budget on *cumulative* states explored across all layers; `None`
    /// leaves only the per-layer cap. Callers that solve many instances in
    /// a loop (adversary search, sweeps) set this so one oversized instance
    /// degrades to a certified bound instead of monopolizing the run.
    pub state_budget: Option<usize>,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self { max_states: 500_000, state_budget: None }
    }
}

/// Why the solver gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptError {
    /// The layer for `round` exceeded the configured state cap.
    StateSpaceExceeded {
        /// Round whose layer overflowed.
        round: u64,
        /// Number of states reached.
        states: usize,
    },
    /// Cumulative states across layers exceeded [`OptConfig::state_budget`].
    BudgetExhausted {
        /// Round at which the budget ran out.
        round: u64,
        /// Cumulative states explored when the budget tripped.
        states: usize,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::StateSpaceExceeded { round, states } => {
                write!(f, "OPT state space exceeded at round {round} ({states} states)")
            }
            Self::BudgetExhausted { round, states } => {
                write!(f, "OPT state budget exhausted at round {round} ({states} states total)")
            }
        }
    }
}

impl std::error::Error for OptError {}

/// The optimal offline solution: the lexicographically minimal
/// `(cost, reconfigs, drops)` triple over all optimal schedules.
#[derive(Clone, Debug)]
pub struct OptResult {
    /// Optimal total cost `Δ·reconfigs + drops`.
    pub cost: u64,
    /// Reconfigurations in the lexicographically minimal optimum.
    pub reconfigs: u64,
    /// Drops in the lexicographically minimal optimum.
    pub drops: u64,
    /// Total states explored (kept states, summed over layers).
    pub states_explored: usize,
    /// Deterministic solve counters.
    pub stats: MemoStats,
}

/// Drop every pending entry with `deadline <= round`; returns jobs dropped.
pub(crate) fn apply_drops(pending: &mut Vec<(u32, u64, u64)>, round: u64) -> u64 {
    let mut dropped = 0;
    pending.retain(|&(_, d, n)| {
        if d <= round {
            dropped += n;
            false
        } else {
            true
        }
    });
    dropped
}

/// Merge arrivals into a canonical pending profile.
pub(crate) fn apply_arrivals(pending: &mut Vec<(u32, u64, u64)>, arrivals: &[(u32, u64, u64)]) {
    for &(c, d, n) in arrivals {
        match pending.binary_search_by_key(&(c, d), |&(pc, pd, _)| (pc, pd)) {
            Ok(i) => pending[i].2 += n,
            Err(i) => pending.insert(i, (c, d, n)),
        }
    }
}

/// Execute `q` earliest-deadline jobs of `color`.
fn apply_execution(pending: &mut Vec<(u32, u64, u64)>, color: u32, q: u64) {
    let mut remaining = q;
    let mut i = 0;
    while i < pending.len() && remaining > 0 {
        if pending[i].0 == color {
            let take = pending[i].2.min(remaining);
            pending[i].2 -= take;
            remaining -= take;
            if pending[i].2 == 0 {
                pending.remove(i);
                continue;
            }
        }
        i += 1;
    }
}

/// Greedy execution for one round: each color of the sorted cache
/// multiset runs as many earliest-deadline jobs as it has copies.
pub(crate) fn execute_cache(pending: &mut Vec<(u32, u64, u64)>, cache: &[u32]) {
    for run in cache.chunk_by(|a, b| a == b) {
        if run[0] != BLACK {
            apply_execution(pending, run[0], run.len() as u64);
        }
    }
}

/// Reconfiguration count for moving between cache multisets: copies added
/// of each non-black color. Both multisets are sorted, so a single merge
/// walk counts the unmatched copies in `new` without allocating.
pub(crate) fn reconfig_count(old: &[u32], new: &[u32]) -> u64 {
    debug_assert!(old.is_sorted() && new.is_sorted(), "cache multisets are kept sorted");
    let mut i = 0;
    let mut added = 0;
    for &c in new {
        if c == BLACK {
            continue;
        }
        while i < old.len() && old[i] < c {
            i += 1;
        }
        if i < old.len() && old[i] == c {
            i += 1;
        } else {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::solve_opt;
    use rrs_model::{Instance, InstanceBuilder};

    fn solve(inst: &Instance, m: usize) -> OptResult {
        solve_opt(inst, m, OptConfig::default()).unwrap()
    }

    #[test]
    fn single_color_configure_beats_dropping_iff_cheaper() {
        // 3 jobs, Δ=2: configuring (cost 2) beats dropping (cost 3).
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3);
        let inst = b.build();
        let r = solve(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (2, 1, 0));

        // 1 job, Δ=2: dropping (cost 1) beats configuring (cost 2).
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 1);
        let inst = b.build();
        let r = solve(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (1, 0, 1));
    }

    #[test]
    fn opt_partial_service_when_capacity_binds() {
        // 6 jobs, bound 2, one resource: at most 2 execute; Δ=1.
        // Configure (1) + drop 4 = 5 vs drop all 6 = 6.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 6);
        let inst = b.build();
        let r = solve(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (5, 1, 4));
    }

    #[test]
    fn opt_switches_colors_when_worth_it() {
        // Two colors with disjoint busy periods; Δ=1; one resource serves
        // both with two reconfigurations.
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(4);
        let c1 = b.color(4);
        b.arrive(0, c0, 4).arrive(4, c1, 4);
        let inst = b.build();
        let r = solve(&inst, 1);
        assert_eq!((r.cost, r.reconfigs, r.drops), (2, 2, 0));
    }

    #[test]
    fn opt_prefers_keeping_expensive_color() {
        // Appendix-A-in-miniature: a long-bound backlog vs repeating cheap
        // short bursts. Δ=4. Short color: 1 job per 2-round block x 4
        // blocks; long color: 8 jobs at round 0, bound 8.
        let mut b = InstanceBuilder::new(4);
        let short = b.color(2);
        let long = b.color(8);
        for blk in 0..4 {
            b.arrive(blk * 2, short, 1);
        }
        b.arrive(0, long, 8);
        let inst = b.build();
        let r = solve(&inst, 1);
        // Serving long fully: Δ + drop 4 shorts = 8. Serving shorts:
        // Δ + drop 8 longs = 12. Mixing costs more reconfigs.
        assert_eq!((r.cost, r.reconfigs, r.drops), (8, 1, 4));
    }

    #[test]
    fn more_resources_never_cost_more() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(2);
        b.arrive(0, c0, 2).arrive(0, c1, 2).arrive(2, c0, 2).arrive(2, c1, 1);
        let inst = b.build();
        let c1cost = solve(&inst, 1).cost;
        let c2cost = solve(&inst, 2).cost;
        let c3cost = solve(&inst, 3).cost;
        assert!(c2cost <= c1cost);
        assert!(c3cost <= c2cost);
    }

    #[test]
    fn empty_instance_costs_zero() {
        let inst = InstanceBuilder::new(3).build();
        let r = solve(&inst, 2);
        assert_eq!((r.cost, r.reconfigs, r.drops), (0, 0, 0));
    }

    #[test]
    fn state_cap_is_enforced() {
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..6).map(|_| b.color(4)).collect();
        for blk in 0..4 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        let err = solve_opt(&inst, 3, OptConfig { max_states: 10, ..Default::default() });
        assert!(matches!(err, Err(OptError::StateSpaceExceeded { .. })));
    }

    #[test]
    fn state_budget_is_enforced() {
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..4).map(|_| b.color(4)).collect();
        for blk in 0..8 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        // Generous per-layer cap, tiny cumulative budget: the budget trips.
        let err = solve_opt(&inst, 2, OptConfig { state_budget: Some(50), ..Default::default() });
        assert!(matches!(err, Err(OptError::BudgetExhausted { .. })), "{err:?}");
        // Unlimited budget solves the same instance.
        assert!(solve_opt(&inst, 2, OptConfig::default()).is_ok());
    }

    #[test]
    fn reconfig_count_multiset_semantics() {
        // old {A, A}, new {A, B}: one copy of B added.
        assert_eq!(reconfig_count(&[0, 0], &[0, 1]), 1);
        // old {black, black}, new {A, A}: two adds.
        assert_eq!(reconfig_count(&[BLACK, BLACK], &[0, 0]), 2);
        // old {A, B}, new {black, black}: parking is free.
        assert_eq!(reconfig_count(&[0, 1], &[BLACK, BLACK]), 0);
        // identical multisets: free.
        assert_eq!(reconfig_count(&[0, 1], &[0, 1]), 0);
    }

    #[test]
    fn greedy_execution_runs_one_job_per_copy() {
        let mut pending = vec![(0u32, 3u64, 2u64), (0, 5, 1), (1, 4, 1)];
        execute_cache(&mut pending, &[0, 0, BLACK]);
        assert_eq!(pending, vec![(0, 5, 1), (1, 4, 1)]);
        execute_cache(&mut pending, &[1, BLACK, BLACK]);
        assert_eq!(pending, vec![(0, 5, 1)]);
    }
}
