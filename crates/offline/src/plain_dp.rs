//! The plain layered DP: the differential oracle for the exact solver.
//!
//! [`solve_plain_dp`] walks the model of [`crate::opt`] state by state,
//! with no canonical keys, no dominance pruning and no cache: every
//! `(cache multiset, pending profile)` pair is its own state. It is the
//! reference [`crate::solve_opt`] (the memo of [`crate::memo`]) is
//! differentially tested against — the full `(cost, reconfigs, drops)`
//! triple must agree, and the memo must explore no more states — and the
//! one solver that reconstructs a replayable [`FixedSchedule`], which the
//! replay checks run through the engine. [`crate::brute`] is the
//! independent oracle for both.

use std::collections::BTreeMap;
use std::rc::Rc;

use rrs_engine::{stable_assign, FixedSchedule, Slot};
use rrs_model::{ColorId, Instance};

use crate::memo::MemoStats;
use crate::opt::{
    apply_arrivals, apply_drops, execute_cache, reconfig_count, OptConfig, OptError, OptResult,
    BLACK,
};

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Sorted cache multiset; `BLACK` for unconfigured slots.
    cache: Vec<u32>,
    /// Canonical pending profile: `(color, deadline, count)` sorted by
    /// `(color, deadline)`, zero counts removed.
    pending: Vec<(u32, u64, u64)>,
}

/// Reconstruction chain: the cache multiset chosen in each round.
struct Step {
    cache: Vec<u32>,
    prev: Option<Rc<Step>>,
}

#[derive(Clone)]
struct Best {
    tri: (u64, u64, u64),
    trail: Option<Rc<Step>>,
}

/// Enumerate all sorted multisets of size `m` over `candidates` (sorted).
fn multisets(candidates: &[u32], m: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(m);
    fn rec(cands: &[u32], start: usize, left: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if left == 0 {
            out.push(cur.clone());
            return;
        }
        for i in start..cands.len() {
            cur.push(cands[i]);
            rec(cands, i, left - 1, cur, out);
            cur.pop();
        }
    }
    rec(candidates, 0, m, &mut cur, &mut out);
    out
}

/// Solve the instance exactly for `m` resources with the plain DP and
/// reconstruct an optimal schedule, whose engine replay costs exactly the
/// returned `cost`. `config` caps states as for [`crate::solve_opt`]: a
/// layer trips [`OptError::StateSpaceExceeded`] the moment it overflows
/// `max_states`. Of the result's stats only `solved_states` is set.
pub fn solve_plain_dp(
    inst: &Instance,
    m: usize,
    config: OptConfig,
) -> Result<(OptResult, FixedSchedule), OptError> {
    assert!(m >= 1, "OPT needs at least one resource");
    let horizon = inst.horizon();
    let delta = inst.delta;

    let init = State { cache: vec![BLACK; m], pending: Vec::new() };
    // A `BTreeMap` keyed on the canonical state: deterministic iteration
    // order makes the whole DP — including which of two equal-cost optima
    // wins — a pure function of the instance (DESIGN.md §9).
    let mut layer: BTreeMap<State, Best> = BTreeMap::new();
    layer.insert(init, Best { tri: (0, 0, 0), trail: None });
    let mut states_explored = 1usize;

    let mut arrivals_buf: Vec<(u32, u64, u64)> = Vec::new();
    for round in 0..=horizon {
        arrivals_buf.clear();
        for &(c, n) in inst.requests.at(round).pairs() {
            arrivals_buf.push((c.0, round + inst.colors.delay_bound(c), n));
        }

        let mut next: BTreeMap<State, Best> = BTreeMap::new();
        for (state, best) in std::mem::take(&mut layer) {
            // Deterministic phases: drop, then arrivals.
            let mut pending = state.pending.clone();
            let dropped = apply_drops(&mut pending, round);
            apply_arrivals(&mut pending, &arrivals_buf);

            // Candidate colors: pending colors, currently cached colors,
            // and black.
            let mut candidates: Vec<u32> = pending.iter().map(|&(c, _, _)| c).collect();
            candidates.extend(state.cache.iter().copied().filter(|&c| c != BLACK));
            candidates.push(BLACK);
            candidates.sort_unstable();
            candidates.dedup();

            for newcache in multisets(&candidates, m) {
                let rc = reconfig_count(&state.cache, &newcache);
                let mut p = pending.clone();
                execute_cache(&mut p, &newcache);
                let (cost, reconfigs, drops) = best.tri;
                let tri = (cost + dropped + delta * rc, reconfigs + rc, drops + dropped);
                let key = State { cache: newcache, pending: p };
                let step = |key: &State| {
                    Some(Rc::new(Step { cache: key.cache.clone(), prev: best.trail.clone() }))
                };
                match next.get_mut(&key) {
                    // Lexicographic (cost, reconfigs, drops) Bellman merge:
                    // ties on cost break toward fewer reconfigurations,
                    // then fewer drops. Lexicographic comparison is
                    // invariant under adding a common future triple, so
                    // the DP computes the lex-minimal optimal breakdown —
                    // the same rule the memoized solver uses, which is
                    // what lets the differential battery demand equality
                    // on the whole triple rather than cost alone.
                    Some(existing) if existing.tri <= tri => {}
                    Some(existing) => *existing = Best { tri, trail: step(&key) },
                    None => {
                        // Trip the cap the moment the layer overflows
                        // instead of materializing the whole blow-up
                        // first: on refused instances the overfull layer
                        // can be orders of magnitude larger than the cap.
                        if next.len() >= config.max_states {
                            return Err(OptError::StateSpaceExceeded {
                                round,
                                states: next.len() + 1,
                            });
                        }
                        let trail = step(&key);
                        next.insert(key, Best { tri, trail });
                    }
                }
            }
        }
        states_explored += next.len();
        if config.state_budget.is_some_and(|budget| states_explored > budget) {
            return Err(OptError::BudgetExhausted { round, states: states_explored });
        }
        layer = next;
    }

    let best = layer.into_values().min_by_key(|b| b.tri).expect("at least one terminal state");
    let (cost, reconfigs, drops) = best.tri;
    debug_assert_eq!(cost, delta * reconfigs + drops);

    // Unwind the trail (last round first), then realize each multiset as a
    // concrete assignment with stable placement.
    let mut caches: Vec<Vec<u32>> = Vec::new();
    let mut cur = best.trail;
    while let Some(step) = cur {
        caches.push(step.cache.clone());
        cur = step.prev.clone();
    }
    caches.reverse();
    let mut schedule = FixedSchedule::new(m);
    let mut slots: Vec<Slot> = vec![None; m];
    for (round, cache) in caches.iter().enumerate() {
        let mut desired: Vec<(ColorId, u64)> = Vec::new();
        for &c in cache {
            if c == BLACK {
                continue;
            }
            match desired.iter_mut().find(|(cc, _)| cc.0 == c) {
                Some((_, k)) => *k += 1,
                None => desired.push((ColorId(c), 1)),
            }
        }
        slots = stable_assign(&slots, &desired);
        schedule.set(round as u64, slots.clone());
    }

    let stats = MemoStats { solved_states: states_explored as u64, ..MemoStats::default() };
    Ok((OptResult { cost, reconfigs, drops, states_explored, stats }, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_engine::{ReplayPolicy, Simulator};
    use rrs_model::InstanceBuilder;

    #[test]
    fn reconstructed_schedule_replays_to_same_cost() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(4);
        b.arrive(0, c0, 2).arrive(0, c1, 3).arrive(2, c0, 2).arrive(4, c1, 1);
        let inst = b.build();
        for m in 1..=2 {
            let (r, sched) = solve_plain_dp(&inst, m, OptConfig::default()).unwrap();
            let out = Simulator::new(&inst, m).run(&mut ReplayPolicy::new(sched));
            assert_eq!(out.total_cost(), r.cost, "replay must match DP cost (m={m})");
            assert_eq!(out.cost.reconfigs, r.reconfigs);
            assert_eq!(out.dropped, r.drops);
        }
    }

    #[test]
    fn state_cap_trips_while_the_layer_grows() {
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = (0..6).map(|_| b.color(4)).collect();
        for blk in 0..4 {
            for &c in &colors {
                b.arrive(blk * 4, c, 2);
            }
        }
        let inst = b.build();
        let err = solve_plain_dp(&inst, 3, OptConfig { max_states: 10, ..Default::default() });
        assert!(
            matches!(err, Err(OptError::StateSpaceExceeded { states: 11, .. })),
            "{:?}",
            err.map(|(r, _)| r)
        );
    }

    #[test]
    fn multisets_enumeration_counts() {
        let ms = multisets(&[1, 2, 3], 2);
        assert_eq!(ms.len(), 6); // C(3+2-1, 2)
        assert!(ms.contains(&vec![1, 1]));
        assert!(ms.contains(&vec![1, 3]));
        assert!(ms.contains(&vec![3, 3]));
    }
}
