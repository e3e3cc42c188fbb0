//! The *VarBatch* reduction (§5.1) with the §5.3 extension to arbitrary
//! delay bounds: `[Δ|1|D_ℓ|1]` → batched `[Δ|1|q_ℓ|q_ℓ]`.
//!
//! VarBatch delays every job of delay bound `p` arriving in
//! `halfBlock(p, i)` (the `p/2` rounds starting at `i·p/2`) until the start
//! of `halfBlock(p, i+1)`, and restricts its execution to that half-block.
//! The delayed jobs form a *batched* instance with delay bound `p/2`, to
//! which [`crate::Distribute`] (and then ΔLRU-EDF) applies. Feasibility is
//! preserved: a job arriving at round `r ∈ halfBlock(p, i)` is released at
//! `(i+1)·p/2 ≤ r + p/2` with virtual deadline `(i+2)·p/2 ≤ r + p`, never
//! past its true deadline.
//!
//! **Arbitrary bounds (§5.3).** For a non power-of-two bound `p`, the paper
//! batches into half-blocks of `2^{j-1}` where `2^j ≤ p < 2^{j+1}`. We use
//! the equivalent (slightly less delaying) formulation: round `p` down to
//! the effective bound `p' = 2^{⌊log₂ p⌋}` and run the standard half-block
//! construction on `p'`. Every virtual deadline is then
//! `≤ arrival + p' ≤ arrival + p`, so the projected schedule is feasible
//! for the true instance, and the tightening costs at most a constant
//! factor. Bounds of 1 need no batching and pass through unchanged.
//! [`HalfBlocks`] is the rule; [`VarBatch`] runs an inner policy behind it.

use rrs_engine::checkpoint::{get_color_table, get_sparse, put_color_table};
use rrs_engine::policy::ColorCounts;
use rrs_engine::StateFootprint;
use rrs_model::{ColorId, ColorMap, ColorSet, ColorTable, SnapError, SnapReader, SnapWriter};

use crate::transform::{Reduced, Reduction};

/// The VarBatch wrapper around an inner policy for the batched problem
/// (Distribute∘ΔLRU-EDF for the Theorem 3 guarantee).
pub type VarBatch<P> = Reduced<HalfBlocks, P>;

/// VarBatch's buffer-and-release rule: each job waits for the next
/// half-block boundary of its rounded bound, then arrives virtually with
/// the half-block's length as its bound. Virtual colors are the physical
/// ones, so the projection is the identity.
#[derive(Debug, Default)]
pub struct HalfBlocks {
    /// Virtual color table: same ids as the physical table, with bound
    /// `q_ℓ` (half of the rounded-down physical bound).
    vcolors: ColorTable,
    /// Per color: jobs buffered in the current half-block (paged; only
    /// colors that ever buffered occupy memory).
    buffered: ColorMap<u64>,
    /// Colors with a nonzero buffer — the release phase walks this set
    /// (ascending, the consistent order) instead of the whole universe.
    buffered_nonzero: ColorSet,
    /// Scratch: the `(color, jobs)` released this round, ascending.
    released: Vec<(ColorId, u64)>,
}

/// The virtual half-block bound for a physical bound `p ≥ 1`: `p'/2` for
/// `p' = 2^{⌊log₂ p⌋} ≥ 2`, and 1 for `p = 1` (already batched every round).
fn virtual_bound(p: u64) -> u64 {
    ((1u64 << p.ilog2()) / 2).max(1)
}

impl Reduction for HalfBlocks {
    const NAME: &'static str = "var-batch";

    fn colors(&self) -> &ColorTable {
        &self.vcolors
    }

    fn transduce(
        &mut self,
        round: u64,
        colors: &ColorTable,
        arrivals: &ColorCounts,
        out: &mut Vec<(ColorId, u64)>,
    ) {
        while self.vcolors.len() < colors.len() {
            let p = colors.delay_bound(ColorId(self.vcolors.len() as u32));
            self.vcolors.push(virtual_bound(p));
        }
        // At a color's half-block boundary, its buffered jobs arrive.
        self.released.clear();
        for c in self.buffered_nonzero.iter() {
            if round.is_multiple_of(self.vcolors.delay_bound(c)) {
                self.released.push((c, 0));
            }
        }
        for (c, n) in &mut self.released {
            self.buffered_nonzero.remove(*c);
            *n = std::mem::take(&mut self.buffered[*c]);
        }
        // Buffer this round's arrivals for the next boundary, but a bound-1
        // color allows no delay: it passes through, merged with the
        // releases in color order (it never buffers, so none is in both).
        let mut released = self.released.iter().copied().peekable();
        for &(c, n) in arrivals {
            if colors.delay_bound(c) == 1 {
                while let Some(r) = released.next_if(|&(r, _)| r < c) {
                    out.push(r);
                }
                out.push((c, n));
            } else if n > 0 {
                *self.buffered.entry(c) += n;
                self.buffered_nonzero.insert(c);
            }
        }
        out.extend(released);
    }

    fn project(&self, vc: ColorId) -> ColorId {
        vc
    }

    fn footprint(&self) -> StateFootprint {
        StateFootprint {
            colorset_leaf_words: self.buffered_nonzero.leaf_words() as u64,
            colormap_live_pages: self.buffered.live_pages() as u64,
        }
    }

    // The virtual color table (also the per-color virtual bound), then the
    // nonzero half-block buffers as a sparse section over it.
    fn save_state(&self, w: &mut SnapWriter) {
        put_color_table(w, &self.vcolors);
        w.put_u64(self.buffered_nonzero.len() as u64);
        for c in self.buffered_nonzero.iter() {
            w.put_u32(c.0);
            w.put_u64(self.buffered.value(c));
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let vcolors = get_color_table(r, "virtual color table")?;
        let mut buffered: ColorMap<u64> = ColorMap::new();
        let mut buffered_nonzero = ColorSet::new();
        get_sparse(r, vcolors.len() as u64, "buffered counts", |r, c| {
            let n = r.get_u64("buffered job count")?;
            if n == 0 {
                return Err(SnapError::Invalid(format!(
                    "buffered color {} recorded with a zero count",
                    c.0
                )));
            }
            *buffered.entry(c) = n;
            buffered_nonzero.insert(c);
            Ok(())
        })?;
        Ok(Self { vcolors, buffered, buffered_nonzero, released: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::Distribute;
    use crate::dlru_edf::DeltaLruEdf;
    use crate::full_algorithm;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn virtual_bound_mapping() {
        assert_eq!(virtual_bound(1), 1);
        assert_eq!(virtual_bound(2), 1);
        assert_eq!(virtual_bound(4), 2);
        assert_eq!(virtual_bound(8), 4);
        assert_eq!(virtual_bound(5), 2); // p'=4
        assert_eq!(virtual_bound(7), 2); // p'=4
        assert_eq!(virtual_bound(9), 4); // p'=8
        assert_eq!(virtual_bound(1023), 256); // p'=512
    }

    #[test]
    fn unbatched_arrivals_are_served_within_bounds() {
        // Jobs arriving off block boundaries: the general problem.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(8);
        b.arrive(1, c, 2).arrive(3, c, 1).arrive(6, c, 2);
        let inst = b.build();
        let mut p = full_algorithm();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // Half-block length 4; jobs from rounds 1,3 release at 4 with
        // virtual deadline 8; jobs from round 6 release at 8 with deadline
        // 12 <= 6+8. Plenty of capacity: nothing drops.
        assert_eq!(out.dropped, 0);
        assert!(out.conserved());
    }

    #[test]
    fn bound_one_jobs_pass_through_undelayed() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 1).arrive(3, c, 1);
        let inst = b.build();
        let mut p = VarBatch::new(Distribute::new(DeltaLruEdf::new()));
        let out = Simulator::new(&inst, 4).run(&mut p);
        // A bound-1 job's only execution chance is its arrival round; the
        // wrapper must not delay it.
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn arbitrary_bounds_are_rounded_down() {
        // Bound 6 -> effective 4 -> half-block 2.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(6);
        b.arrive(1, c, 2);
        let inst = b.build();
        let mut p = full_algorithm();
        let out = Simulator::new(&inst, 4).run(&mut p);
        // Arrive at 1, release at 2, virtual deadline 4 <= 1+6=7.
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn delayed_jobs_never_execute_before_release() {
        // A job arriving at round 0 with bound 8 is buffered until round 4;
        // with a 1-round virtual window the executions happen in rounds
        // 4..8. The physical engine cannot execute before the policy maps a
        // location to the color, which happens only after release.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(8);
        b.arrive(0, c, 4);
        let inst = b.build();
        let mut rec = rrs_engine::TraceRecorder::new();
        let mut p = full_algorithm();
        Simulator::new(&inst, 4).run_traced(&mut p, &mut rec);
        for e in &rec.events {
            if let rrs_engine::TraceEvent::Execute { round, .. } = e {
                assert!(*round >= 4, "execution before half-block release: {e:?}");
            }
        }
    }

    #[test]
    fn heavy_general_load_conserves_jobs() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(4);
        let c1 = b.color(16);
        for r in 0..32 {
            b.arrive(r, c0, 1);
            if r % 3 == 0 {
                b.arrive(r, c1, 2);
            }
        }
        let inst = b.build();
        let mut p = full_algorithm();
        let out = Simulator::new(&inst, 8).run(&mut p);
        assert!(out.conserved());
    }
}
