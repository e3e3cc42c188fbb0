//! Par-EDF (§3.3): the reconfiguration-free super-resource relaxation.
//!
//! Par-EDF is given `m` resources fused into one super-resource that
//! executes up to `m` pending jobs per round, always choosing the
//! best-ranked ones (increasing deadline, ties by increasing delay bound,
//! then by the consistent order of colors). Because EDF is an optimal
//! deadline scheduler for unit jobs, Par-EDF's drop count lower-bounds the
//! drop cost of **any** schedule on `m` resources — reconfigurable or not
//! (Lemma 3.7). The analysis harness uses it both as the drop-side lower
//! bound on OFF and as the referee for the Lemma 3.2 drop-cost chain.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rrs_engine::PendingStore;
use rrs_model::{ColorId, Instance};

/// Result of a Par-EDF run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParEdfOutcome {
    /// Jobs that arrived.
    pub arrived: u64,
    /// Jobs executed (the maximum achievable by any `m`-resource schedule).
    pub executed: u64,
    /// Jobs dropped — a lower bound on any `m`-resource schedule's drop
    /// cost.
    pub dropped: u64,
}

/// Run Par-EDF with `m` super-resource slots per round and return its drop
/// count.
///
/// Uses a lazy binary heap over `(deadline, delay bound, color)` ranks that
/// holds one live entry per nonidle color, pushed whenever the color's
/// earliest deadline changes (a fresh arrival, a drop or an execution). A
/// drop leaves the old entry stale; it is discarded when it reaches the
/// top. Every pop therefore executes a job or discards an entry a drop
/// made stale, giving `O((jobs + rounds·m) log colors)` overall
/// ([`par_edf_heap_pops`] counts the pops). The naive per-round scan is
/// kept as [`par_edf_drop_cost_naive`] and the tests check the two agree
/// exactly.
pub fn par_edf_drop_cost(inst: &Instance, m: usize) -> ParEdfOutcome {
    par_edf_counted(inst, m).0
}

/// The heap entries [`par_edf_drop_cost`] pops on `inst`: a deterministic
/// work counter, at most the jobs plus the drop events.
pub fn par_edf_heap_pops(inst: &Instance, m: usize) -> u64 {
    par_edf_counted(inst, m).1
}

/// [`par_edf_drop_cost`], also returning its heap pops.
fn par_edf_counted(inst: &Instance, m: usize) -> (ParEdfOutcome, u64) {
    let mut pending = PendingStore::new();
    pending.ensure_colors(inst.colors.len());
    let mut arrived = 0;
    let mut executed = 0;
    let mut dropped = 0;
    let mut pops = 0;
    let mut drop_buf: Vec<(ColorId, u64)> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, ColorId)>> = BinaryHeap::new();
    let horizon = inst.horizon();

    for round in 0..=horizon {
        drop_buf.clear();
        dropped += pending.drop_due(round, &mut drop_buf);
        for &(c, _) in &drop_buf {
            // The color's earliest deadline changed; push a fresh candidate
            // if anything is still pending.
            if let Some(d) = pending.earliest_deadline(c) {
                heap.push(Reverse((d, inst.colors.delay_bound(c), c)));
            }
        }
        for &(c, n) in inst.requests.at(round).pairs() {
            let deadline = round + inst.colors.delay_bound(c);
            let fresh = pending.is_idle(c);
            pending.arrive(c, deadline, n);
            arrived += n;
            if fresh {
                heap.push(Reverse((deadline, inst.colors.delay_bound(c), c)));
            }
        }
        let mut slots = m as u64;
        while slots > 0 {
            let Some(Reverse((d, b, c))) = heap.pop() else { break };
            pops += 1;
            if pending.earliest_deadline(c) != Some(d) {
                // Stale: the color's live entry, if it has one, is still
                // in the heap.
                continue;
            }
            let e = pending.execute(c, 1);
            debug_assert_eq!(e, 1);
            executed += 1;
            slots -= 1;
            if let Some(next) = pending.earliest_deadline(c) {
                heap.push(Reverse((next, b, c)));
            }
        }
    }
    debug_assert_eq!(pending.total(), 0);
    debug_assert_eq!(arrived, executed + dropped);
    (ParEdfOutcome { arrived, executed, dropped }, pops)
}

/// The reference implementation: a linear scan over nonidle colors per
/// execution slot. Used by tests as the oracle for the heap version.
pub fn par_edf_drop_cost_naive(inst: &Instance, m: usize) -> ParEdfOutcome {
    let mut pending = PendingStore::new();
    pending.ensure_colors(inst.colors.len());
    let mut arrived = 0;
    let mut executed = 0;
    let mut dropped = 0;
    let mut drop_buf: Vec<(ColorId, u64)> = Vec::new();
    let horizon = inst.horizon();

    for round in 0..=horizon {
        drop_buf.clear();
        dropped += pending.drop_due(round, &mut drop_buf);
        for &(c, n) in inst.requests.at(round).pairs() {
            pending.arrive(c, round + inst.colors.delay_bound(c), n);
            arrived += n;
        }
        // Execute up to m best-ranked pending jobs: repeatedly pick the
        // nonidle color with the smallest (deadline, delay bound, color).
        for _ in 0..m {
            let best = pending
                .nonidle_colors()
                .map(|c| {
                    let due = pending
                        .earliest_deadline(c)
                        .expect("nonidle color has an earliest deadline");
                    (due, inst.colors.delay_bound(c), c)
                })
                .min();
            match best {
                Some((_, _, c)) => {
                    let e = pending.execute(c, 1);
                    debug_assert_eq!(e, 1);
                    executed += 1;
                }
                None => break,
            }
        }
    }
    debug_assert_eq!(pending.total(), 0);
    debug_assert_eq!(arrived, executed + dropped);
    ParEdfOutcome { arrived, executed, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::InstanceBuilder;

    #[test]
    fn heap_and_naive_agree_on_random_instances() {
        use rrs_model::InstanceBuilder;
        for seed in 0..40u64 {
            // Small deterministic pseudo-random instances without rand.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut b = InstanceBuilder::new(1 + (next() % 4));
            let bounds = [1u64, 2, 4, 8];
            let colors: Vec<_> = bounds.iter().map(|&d| b.color(d)).collect();
            for _ in 0..(next() % 30) {
                let i = (next() % 4) as usize;
                let block = next() % 8;
                let count = next() % (bounds[i] + 2);
                if count > 0 {
                    b.arrive(block * bounds[i], colors[i], count);
                }
            }
            let inst = b.build();
            for m in 1..=3 {
                assert_eq!(
                    par_edf_drop_cost(&inst, m),
                    par_edf_drop_cost_naive(&inst, m),
                    "seed {seed} m {m}"
                );
            }
        }
    }

    #[test]
    fn underload_executes_everything() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 4).arrive(4, c, 4);
        let inst = b.build();
        let out = par_edf_drop_cost(&inst, 1);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.executed, 8);
    }

    #[test]
    fn overload_drops_exactly_the_excess() {
        // 6 jobs, bound 2, one slot per round: 2 execution chances per
        // block.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 6);
        let inst = b.build();
        let out = par_edf_drop_cost(&inst, 1);
        assert_eq!(out.executed, 2);
        assert_eq!(out.dropped, 4);
    }

    #[test]
    fn earliest_deadline_wins_across_colors() {
        // A tight color and a loose color compete for one slot; EDF must
        // save the tight one first and still finish the loose one later.
        let mut b = InstanceBuilder::new(1);
        let tight = b.color(1);
        let loose = b.color(4);
        b.arrive(0, loose, 3).arrive(0, tight, 1);
        let inst = b.build();
        let out = par_edf_drop_cost(&inst, 1);
        // Round 0 executes the tight job (deadline 1 < 4); rounds 1-3
        // execute the three loose jobs.
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn tie_on_deadline_prefers_smaller_bound() {
        // Same deadline, different bounds: the smaller bound ranks first.
        let mut b = InstanceBuilder::new(1);
        let small = b.color(2);
        let big = b.color(4);
        // big arrives at 0 (deadline 4); small arrives at 2 (deadline 4).
        b.arrive(0, big, 4).arrive(2, small, 2);
        let inst = b.build();
        // With 1 slot: rounds 0,1 run big; rounds 2,3 rank small first
        // (same deadline 4, smaller bound). big loses 2 jobs.
        let out = par_edf_drop_cost(&inst, 1);
        assert_eq!(out.dropped, 2);
        assert_eq!(out.executed, 4);
    }

    #[test]
    fn more_resources_never_drop_more() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        let c1 = b.color(4);
        b.arrive(0, c0, 2).arrive(0, c1, 4).arrive(4, c1, 4);
        let inst = b.build();
        let d1 = par_edf_drop_cost(&inst, 1).dropped;
        let d2 = par_edf_drop_cost(&inst, 2).dropped;
        let d4 = par_edf_drop_cost(&inst, 4).dropped;
        assert!(d2 <= d1);
        assert!(d4 <= d2);
        assert_eq!(d4, 0);
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(1).build();
        let out = par_edf_drop_cost(&inst, 3);
        assert_eq!(out, ParEdfOutcome { arrived: 0, executed: 0, dropped: 0 });
    }
}
