//! Integration: the differential battery for the memoized Pareto-pruned
//! OPT solver (DESIGN.md §16), the one production solver behind
//! `solve_opt`.
//!
//! The memoized solver is only allowed to be *faster* than the oracles,
//! never different: on every instance where the plain layered DP oracle
//! (`solve_plain_dp`) or the branch-and-bound oracle (`solve_brute`) can
//! certify an answer, the memoized solver must reproduce it — the full
//! `(cost, reconfigs, drops)` breakdown against the DP, the cost against
//! the brute force — including on states whose packed keys outgrow the
//! inline bytes — and its budget accounting must be exact: a budget one
//! state short of a fresh solve's total trips it. The final test pins the
//! 10× headroom: an instance ≥ 10× the largest the plain DP handles under
//! the same budget, certified exactly.

use proptest::prelude::*;
use rrs::bench::suite::{OPT_BENCH_CONFIG, OPT_SCALE_K};
use rrs::prelude::*;

/// Strategy: a small instance with a handful of colors and enough arrival
/// overlap to make the DP frontier non-trivial (duplicated bounds invite
/// the canonicalizer; staggered blocks invite the Pareto prune).
fn small_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=3,
        prop::collection::vec(0u32..=2, 1..=3), // 1-3 colors, bounds 1/2/4
        prop::collection::vec((0u64..=3, 1u64..=3), 1..=8),
    )
        .prop_map(|(delta, exps, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (block, jobs)) in picks.into_iter().enumerate() {
                let idx = i % colors.len();
                let d = bounds[idx];
                b.arrive(block * d, colors[idx], jobs.min(d));
            }
            b.build()
        })
}

/// Strategy: six or seven colors that all arrive at round 0, so the state
/// that parks the resource holds a pending entry per color — a packed key
/// of at least 1 + 6·3 = 19 bytes, past the memo's 16 inline bytes.
fn wide_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=3,
        prop::collection::vec(0u32..=2, 6..=7), // bounds 1/2/4
        prop::collection::vec((1u64..=2, 1u64..=2), 0..=4),
    )
        .prop_map(|(delta, exps, later)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for &c in &colors {
                b.arrive(0, c, 1);
            }
            for (i, (block, jobs)) in later.into_iter().enumerate() {
                let idx = i % colors.len();
                b.arrive(block * bounds[idx], colors[idx], jobs.min(bounds[idx]));
            }
            b.build()
        })
}

fn triple(r: &OptResult) -> (u64, u64, u64) {
    (r.cost, r.reconfigs, r.drops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memo_matches_dp_and_brute_on_small_instances(inst in small_strategy()) {
        for m in 1..=2usize {
            let (dp, _) = solve_plain_dp(&inst, m, OptConfig::default()).unwrap();
            let memo = solve_opt(&inst, m, OptConfig::default()).unwrap();
            prop_assert_eq!(triple(&memo), triple(&dp), "m={} inst={:?}", m, inst);
            prop_assert_eq!(memo.cost, solve_brute(&inst, m), "m={} inst={:?}", m, inst);
            prop_assert!(
                memo.states_explored <= dp.states_explored,
                "canonicalization explored more ({}) than the plain DP ({}) on {:?}",
                memo.states_explored, dp.states_explored, inst
            );
        }
    }

    #[test]
    fn memo_matches_dp_on_keys_past_the_inline_bytes(inst in wide_strategy()) {
        let (dp, _) = solve_plain_dp(&inst, 1, OptConfig::default()).unwrap();
        let memo = solve_opt(&inst, 1, OptConfig::default()).unwrap();
        prop_assert_eq!(triple(&memo), triple(&dp), "inst={:?}", inst);
        prop_assert!(
            memo.states_explored <= dp.states_explored,
            "memo explored more ({}) than the plain DP ({}) on {:?}",
            memo.states_explored, dp.states_explored, inst
        );
    }

    #[test]
    fn a_budget_one_short_of_the_fresh_total_trips(inst in small_strategy()) {
        let fresh = solve_opt(&inst, 1, OptConfig::default()).unwrap();
        // A budget below the fresh total must trip mid-solve (the solver
        // checks after every round, and round 0 explores ≥ 1 state); a
        // degenerate single-state solve has no "mid" to trip in, so skip.
        if fresh.states_explored < 2 {
            return Ok(());
        }
        let tight = OptConfig {
            state_budget: Some(fresh.states_explored - 1),
            ..Default::default()
        };
        let err = solve_opt(&inst, 1, tight);
        prop_assert!(matches!(err, Err(OptError::BudgetExhausted { .. })), "{:?}", err);
    }
}

/// Differential sweep over random genome decodes — the instances the
/// evolutionary search actually prices — under a deliberately tight
/// budget so both success and refusal paths are exercised. Wherever the
/// plain DP oracle certifies, the memoized solver must agree on the full
/// triple; wherever only the memoized solver certifies, its answer must at
/// least sit inside the certified `LB ≤ cost ≤ portfolio` bracket.
#[test]
fn memo_matches_dp_on_random_genome_decodes() {
    let budget = OptConfig { max_states: 3_000, state_budget: Some(15_000) };
    let (mut agreed, mut memo_only) = (0u32, 0u32);
    for seed in 0..48u64 {
        let inst = random_genome(seed).decode();
        let memo = solve_opt(&inst, 1, budget);
        match solve_plain_dp(&inst, 1, budget) {
            Ok((dp, _)) => {
                let memo = memo.unwrap_or_else(|e| {
                    panic!("seed {seed}: plain DP certified but memo refused: {e}")
                });
                assert_eq!(triple(&memo), triple(&dp), "seed {seed}: solvers disagree");
                agreed += 1;
            }
            Err(_) => {
                if let Ok(memo) = memo {
                    let lb = combined_lower_bound(&inst, 1);
                    let ub = portfolio_upper_bound(&inst, 1);
                    assert!(
                        lb <= memo.cost && memo.cost <= ub,
                        "seed {seed}: memo cost {} outside certified bracket [{lb}, {ub}]",
                        memo.cost
                    );
                    memo_only += 1;
                }
            }
        }
    }
    // The sweep must actually exercise both regimes, or it proves nothing.
    assert!(agreed >= 10, "only {agreed} seeds certified by both solvers");
    assert!(memo_only >= 1, "no seed separated the memoized solver from the plain DP");
}

/// The 10× headroom pin: under the *same* state budget the bench suite
/// uses, the plain DP oracle tops out at `k = 12` of the interchangeable
/// scale family (384 jobs) while the memoized solver certifies the exact
/// closed-form optimum at `k = 120` — 3840 jobs, 10× the plain ceiling.
#[test]
fn memo_certifies_ten_times_the_plain_dp_ceiling() {
    let plain_k = 12;
    let (dp, _) = solve_plain_dp(&opt_scale_instance(plain_k), 1, OPT_BENCH_CONFIG)
        .expect("the plain DP must still handle its pinned ceiling");
    assert_eq!(dp.cost, opt_scale_cost(plain_k), "closed form disagrees at the plain ceiling");

    assert!(
        solve_plain_dp(&opt_scale_instance(OPT_SCALE_K), 1, OPT_BENCH_CONFIG).is_err(),
        "the plain DP unexpectedly certified k = {OPT_SCALE_K}; move the acceptance pin up"
    );

    let memo = solve_opt(&opt_scale_instance(OPT_SCALE_K), 1, OPT_BENCH_CONFIG)
        .expect("the memoized solver must certify the 10x instance");
    assert_eq!(memo.cost, opt_scale_cost(OPT_SCALE_K), "closed form disagrees at k = OPT_SCALE_K");
    assert!(
        opt_scale_jobs(OPT_SCALE_K) >= 10 * opt_scale_jobs(plain_k),
        "the acceptance instance is no longer 10x the plain ceiling"
    );
}
