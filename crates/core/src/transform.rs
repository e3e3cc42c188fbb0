//! Materialized (offline) forms of the two reductions.
//!
//! The online wrappers [`crate::Distribute`] and [`crate::VarBatch`] build
//! their virtual instances incrementally. This module materializes the same
//! constructions as whole instances:
//!
//! * [`distribute_instance`] — §4.1's `I → I'`: split every batch of color
//!   `ℓ` into sub-colors `(ℓ, j)` carrying at most `D_ℓ` jobs each. The
//!   result is rate-limited.
//! * [`varbatch_instance`] — §5.1's `σ → σ'` (with the §5.3 rounding):
//!   delay every job to the next half-block boundary of its (rounded)
//!   bound; the result is batched with bounds `q_ℓ = p'_ℓ / 2`.
//!
//! These are what the paper's proofs quantify over, and they give the test
//! suite two strong differential checks:
//!
//! * **Lemma 4.2 measured** — running the inner policy on
//!   `distribute_instance(I)` costs at least as much as running the
//!   `Distribute` wrapper on `I` itself (the physical projection merges
//!   sub-color reconfigurations and may execute extra pending jobs).
//! * **Wrapper fidelity** — `VarBatch<P>` on `σ` pays exactly the
//!   reconfiguration cost of `P` on `varbatch_instance(σ)` (the projection
//!   is the identity on colors) and never drops more.

use rrs_model::{ColorTable, Instance, RequestSeq};

pub use crate::distribute::SubColorMap;
use crate::var_batch::virtual_bound;

/// Materialize §4.1's `I → I'`: a rate-limited instance over sub-colors.
///
/// Sub-colors are minted by [`SubColorMap::split`] in first-use order
/// (rounds ascending, colors in consistent order within a round), the same
/// calls the online wrapper makes.
///
/// # Panics
/// Panics (debug) if the input is not batched.
pub fn distribute_instance(inst: &Instance) -> (Instance, SubColorMap) {
    let mut map = SubColorMap::new();
    let mut vrequests = RequestSeq::new();
    for (round, req) in inst.requests.iter() {
        for &(c, count) in req.pairs() {
            let bound = inst.colors.delay_bound(c);
            debug_assert!(
                round.is_multiple_of(bound),
                "distribute_instance requires batched input"
            );
            map.split(c, count, bound, |vc, chunk| vrequests.add(round, vc, chunk));
        }
    }
    (Instance::new(inst.delta, map.colors().clone(), vrequests), map)
}

/// Materialize §5.1's `σ → σ'` (with §5.3 rounding for arbitrary bounds):
/// every job of (rounded) bound `p'` arriving in a half-block is delayed to
/// the start of the next half-block, with new bound `q = p'/2` (bound-1
/// jobs pass through unchanged). The result is batched.
pub fn varbatch_instance(inst: &Instance) -> Instance {
    let mut vcolors = ColorTable::new();
    for (_, p) in inst.colors.iter() {
        vcolors.push(virtual_bound(p));
    }
    let mut vrequests = RequestSeq::new();
    for (round, req) in inst.requests.iter() {
        for &(c, count) in req.pairs() {
            if inst.colors.delay_bound(c) == 1 {
                vrequests.add(round, c, count);
            } else {
                let q = vcolors.delay_bound(c);
                let release = (round / q + 1) * q;
                vrequests.add(release, c, count);
            }
        }
    }
    Instance::new(inst.delta, vcolors, vrequests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::classify::{check_batched, check_rate_limited};
    use rrs_model::InstanceBuilder;

    #[test]
    fn distribute_materialization_is_rate_limited() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(2);
        b.arrive(0, c, 7).arrive(4, c, 3);
        let inst = b.build();
        let (vinst, map) = distribute_instance(&inst);
        assert!(check_rate_limited(&vinst).is_ok());
        // 7 jobs over bound 2 -> 4 sub-colors; batch at round 4 reuses them.
        assert_eq!(map.sub_colors(c).len(), 4);
        assert_eq!(vinst.total_jobs(), inst.total_jobs());
        for vc in vinst.colors.ids() {
            assert_eq!(map.physical(vc), c);
            assert_eq!(vinst.colors.delay_bound(vc), 2);
        }
    }

    #[test]
    fn distribute_chunk_sizes_follow_rank_rule() {
        // rank(x)/D: batch of 5 with D=2 -> chunks 2,2,1.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(2, c, 5);
        let inst = b.build();
        let (vinst, map) = distribute_instance(&inst);
        let sizes: Vec<u64> =
            map.sub_colors(c).iter().map(|&vc| vinst.requests.at(2).count_of(vc)).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn varbatch_materialization_is_batched_with_halved_bounds() {
        let mut b = InstanceBuilder::new(1);
        let c8 = b.color(8);
        let c1 = b.color(1);
        b.arrive(3, c8, 2).arrive(4, c8, 1).arrive(5, c1, 1);
        let inst = b.build();
        let vinst = varbatch_instance(&inst);
        assert!(check_batched(&vinst).is_ok());
        assert_eq!(vinst.colors.delay_bound(c8), 4);
        assert_eq!(vinst.colors.delay_bound(c1), 1);
        // Round 3 (half-block 0) releases at 4; round 4 (half-block 1)
        // releases at 8.
        assert_eq!(vinst.requests.at(4).count_of(c8), 2);
        assert_eq!(vinst.requests.at(8).count_of(c8), 1);
        // Bound-1 jobs keep their arrival round.
        assert_eq!(vinst.requests.at(5).count_of(c1), 1);
    }

    #[test]
    fn varbatch_deadlines_never_extend() {
        // Every virtual deadline (release + q) is at most the physical one.
        let mut b = InstanceBuilder::new(1);
        let colors: Vec<_> = [3u64, 5, 8, 12].iter().map(|&p| b.color(p)).collect();
        for r in 0..20 {
            b.arrive(r, colors[(r % 4) as usize], 1);
        }
        let inst = b.build();
        let vinst = varbatch_instance(&inst);
        // Compare per-color cumulative deadline profiles: for each color,
        // the i-th virtual job's deadline <= the i-th physical job's
        // deadline (both in arrival order).
        for c in inst.colors.ids() {
            let phys: Vec<u64> = inst
                .requests
                .iter()
                .flat_map(|(r, req)| {
                    std::iter::repeat_n(r + inst.colors.delay_bound(c), req.count_of(c) as usize)
                })
                .collect();
            let virt: Vec<u64> = vinst
                .requests
                .iter()
                .flat_map(|(r, req)| {
                    std::iter::repeat_n(r + vinst.colors.delay_bound(c), req.count_of(c) as usize)
                })
                .collect();
            assert_eq!(phys.len(), virt.len());
            for (p, v) in phys.iter().zip(&virt) {
                assert!(v <= p, "color {c}: virtual deadline {v} > physical {p}");
            }
        }
    }

    #[test]
    fn job_counts_preserved_by_both_transforms() {
        let mut b = InstanceBuilder::new(3);
        let c0 = b.color(4);
        let c1 = b.color(4);
        b.arrive(0, c0, 9).arrive(4, c1, 2).arrive(8, c0, 5);
        let inst = b.build();
        let (d, _) = distribute_instance(&inst);
        assert_eq!(d.total_jobs(), inst.total_jobs());
        let v = varbatch_instance(&inst);
        assert_eq!(v.total_jobs(), inst.total_jobs());
    }
}
