//! Brute-force optimal solver for differential testing.
//!
//! [`solve_brute`] explores the full decision tree (every cache multiset at
//! every round) with no state merging at all — exponentially slower than
//! the exact solver of [`crate::opt`] and the plain DP oracle of
//! [`crate::plain_dp`], but so simple it serves as the independent
//! correctness oracle for both. The property tests run them on tiny
//! instances and assert equal optimal costs.
//!
//! The search is one serial depth-first walk on the calling thread, pruned
//! against the best complete cost found so far (branch and bound).

use rrs_model::Instance;

/// Pending profile as canonical `(color, deadline, count)` rows.
type Pending = Vec<(u32, u64, u64)>;

const BLACK: u32 = u32::MAX;

fn drops_due(pending: &mut Pending, round: u64) -> u64 {
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

fn arrivals(inst: &Instance, round: u64, pending: &mut Pending) {
    for &(c, n) in inst.requests.at(round).pairs() {
        let d = round + inst.colors.delay_bound(c);
        match pending.binary_search_by_key(&(c.0, d), |&(pc, pd, _)| (pc, pd)) {
            Ok(i) => pending[i].2 += n,
            Err(i) => pending.insert(i, (c.0, d, n)),
        }
    }
}

fn execute(pending: &mut Pending, color: u32, mut q: u64) {
    let mut i = 0;
    while i < pending.len() && q > 0 {
        if pending[i].0 == color {
            let take = pending[i].2.min(q);
            pending[i].2 -= take;
            q -= take;
            if pending[i].2 == 0 {
                pending.remove(i);
                continue;
            }
        }
        i += 1;
    }
}

fn reconfig_count(old: &[u32], new: &[u32]) -> u64 {
    // Multiset difference of non-black colors (both slices sorted).
    let mut total = 0;
    let mut i = 0;
    let mut j = 0;
    while j < new.len() {
        if new[j] == BLACK {
            j += 1;
            continue;
        }
        while i < old.len() && (old[i] == BLACK || old[i] < new[j]) {
            i += 1;
        }
        if i < old.len() && old[i] == new[j] {
            i += 1;
        } else {
            total += 1;
        }
        j += 1;
    }
    total
}

fn multisets(cands: &[u32], m: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
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
    rec(cands, 0, m, &mut Vec::new(), &mut out);
    out
}

#[allow(clippy::too_many_arguments)] // explicit DFS frame is clearer than a struct here
fn rec_solve(
    inst: &Instance,
    m: usize,
    round: u64,
    horizon: u64,
    cache: &[u32],
    pending: &Pending,
    spent: u64,
    best: &mut u64,
) {
    if spent >= *best {
        return; // branch-and-bound prune
    }
    if round > horizon {
        *best = spent;
        return;
    }
    let mut p = pending.clone();
    let dropped = drops_due(&mut p, round);
    arrivals(inst, round, &mut p);

    for (newcache, p2, step_cost) in expand(inst, m, cache, &p) {
        rec_solve(inst, m, round + 1, horizon, &newcache, &p2, spent + dropped + step_cost, best);
    }
}

/// All successor states of one round: `(new cache, pending after execution,
/// reconfiguration cost)` for every candidate cache multiset.
fn expand(inst: &Instance, m: usize, cache: &[u32], p: &Pending) -> Vec<(Vec<u32>, Pending, u64)> {
    let mut cands: Vec<u32> = p.iter().map(|&(c, _, _)| c).collect();
    cands.extend(cache.iter().copied().filter(|&c| c != BLACK));
    cands.push(BLACK);
    cands.sort_unstable();
    cands.dedup();

    multisets(&cands, m)
        .into_iter()
        .map(|newcache| {
            let rc = reconfig_count(cache, &newcache);
            let mut p2 = p.clone();
            let mut i = 0;
            while i < newcache.len() {
                let c = newcache[i];
                let mut q = 1;
                while i + 1 < newcache.len() && newcache[i + 1] == c {
                    q += 1;
                    i += 1;
                }
                if c != BLACK {
                    execute(&mut p2, c, q);
                }
                i += 1;
            }
            let cost = inst.delta * rc;
            (newcache, p2, cost)
        })
        .collect()
}

/// Exhaustively compute the optimal cost for `m` resources. Exponential;
/// only for tiny instances (the oracle for [`crate::solve_opt`] and
/// [`crate::plain_dp::solve_plain_dp`]).
pub fn solve_brute(inst: &Instance, m: usize) -> u64 {
    assert!(m >= 1);
    let mut best = u64::MAX;
    rec_solve(inst, m, 0, inst.horizon(), &vec![BLACK; m], &Vec::new(), 0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain_dp::solve_plain_dp;
    use crate::{solve_opt, OptConfig};
    use rrs_model::InstanceBuilder;

    #[test]
    fn brute_matches_both_solvers_on_hand_instances() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(4);
        b.arrive(0, c0, 2).arrive(0, c1, 3).arrive(2, c0, 2);
        let inst = b.build();
        for m in 1..=2 {
            let dp = solve_plain_dp(&inst, m, OptConfig::default()).unwrap().0.cost;
            let memo = solve_opt(&inst, m, OptConfig::default()).unwrap().cost;
            assert_eq!(solve_brute(&inst, m), dp, "plain DP, m={m}");
            assert_eq!(solve_brute(&inst, m), memo, "memo, m={m}");
        }
    }

    #[test]
    fn brute_on_single_color() {
        let mut b = InstanceBuilder::new(3);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();
        // Configure (3) vs drop both (2): dropping wins.
        assert_eq!(solve_brute(&inst, 1), 2);
    }

    #[test]
    fn brute_empty_instance() {
        let inst = InstanceBuilder::new(1).build();
        assert_eq!(solve_brute(&inst, 1), 0);
    }

    #[test]
    fn reconfig_count_sorted_multisets() {
        assert_eq!(reconfig_count(&[BLACK, BLACK], &[0, 0]), 2);
        assert_eq!(reconfig_count(&[0, 0], &[0, 1]), 1);
        assert_eq!(reconfig_count(&[0, 1], &[BLACK, BLACK]), 0);
        assert_eq!(reconfig_count(&[0, 1], &[0, 1]), 0);
        assert_eq!(reconfig_count(&[1, 2], &[0, 2]), 1);
    }
}
