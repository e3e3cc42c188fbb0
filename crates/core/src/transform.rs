//! The reductions as arrival transducers, and the one wrapper that runs
//! them.
//!
//! A [`Reduction`] turns each round's arrivals into *virtual* arrivals and
//! projects virtual colors back: [`crate::HalfBlocks`] (VarBatch, §5.1),
//! [`crate::SubColors`] (Distribute, §4.1), and [`Then`] composing two.
//! [`Reduced<R, P>`] runs the inner policy `P` over `R`'s virtual instance
//! in one [`RoundKernel`], so the Theorem 3 stack, one `Reduced` over
//! `Then<HalfBlocks, SubColors>`, simulates only σ″, the instance Lemmas
//! 3.2–3.4 bound, and never the batched σ′. Nested wrappers still work,
//! with one kernel per layer.
//!
//! [`materialize`] feeds a whole instance through the same rule: σ → σ′
//! ([`varbatch_instance`]), I → I′ ([`distribute_instance`]) or σ → σ″.
//! The tests check the wrappers against them: `P` on `distribute_instance(I)`
//! costs at least `Distribute<P>` on `I` (Lemma 4.2), and `VarBatch<P>` on
//! σ pays exactly `P`'s reconfigurations on σ′ and drops no more.

use rrs_engine::policy::ColorCounts;
use rrs_engine::{Observation, Policy, PolicyStats, RoundKernel, Slot, Snapshot, StateFootprint};
use rrs_model::{ColorId, ColorTable, Instance, RequestSeq, SnapError, SnapReader, SnapWriter};

use crate::{HalfBlocks, SubColors};

/// An arrival transducer: one of the paper's online reductions, fed one
/// round at a time.
pub trait Reduction: Default {
    /// The policy name of a [`Reduced`] stack whose outermost rule this is.
    const NAME: &'static str;

    /// The virtual color table: the delay bound of every virtual color so
    /// far. A virtual job arriving in round `k` is due at `k` plus its
    /// color's bound.
    fn colors(&self) -> &ColorTable;

    /// Feed round `round`'s arrivals over `colors`, ascending by color, and
    /// append the round's virtual arrivals to `out`.
    fn transduce(
        &mut self,
        round: u64,
        colors: &ColorTable,
        arrivals: &ColorCounts,
        out: &mut Vec<(ColorId, u64)>,
    );

    /// The color a virtual color projects to.
    fn project(&self, vc: ColorId) -> ColorId;

    /// The sparse-container footprint of the rule's state (DESIGN.md §14).
    fn footprint(&self) -> StateFootprint;

    /// Append the rule's mutable state to a snapshot.
    fn save_state(&self, w: &mut SnapWriter);

    /// Read what [`Reduction::save_state`] wrote.
    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Two reductions in sequence: `A`'s virtual arrivals are `B`'s input,
/// and a virtual color projects through `B`, then `A`. `A` must emit each
/// round's arrivals in ascending color order, the order `B` mints in.
#[derive(Debug, Default)]
pub struct Then<A, B> {
    first: A,
    second: B,
    /// Scratch: the round's arrivals between the two rules.
    mid: Vec<(ColorId, u64)>,
}

impl<A: Reduction, B: Reduction> Reduction for Then<A, B> {
    const NAME: &'static str = A::NAME;

    fn colors(&self) -> &ColorTable {
        self.second.colors()
    }

    fn transduce(
        &mut self,
        round: u64,
        colors: &ColorTable,
        arrivals: &ColorCounts,
        out: &mut Vec<(ColorId, u64)>,
    ) {
        self.mid.clear();
        self.first.transduce(round, colors, arrivals, &mut self.mid);
        debug_assert!(self.mid.is_sorted_by_key(|&(c, _)| c), "{} emits unsorted", A::NAME);
        self.second.transduce(round, self.first.colors(), &self.mid, out);
    }

    fn project(&self, vc: ColorId) -> ColorId {
        self.first.project(self.second.project(vc))
    }

    fn footprint(&self) -> StateFootprint {
        self.first.footprint().plus(self.second.footprint())
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.first.save_state(w);
        self.second.save_state(w);
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { first: A::load_state(r)?, second: B::load_state(r)?, mid: Vec::new() })
    }
}

/// An inner policy run behind a reduction `R`: the one virtual instance
/// `R` builds online, its round loop, and the projection of the inner
/// assignment back to physical colors (see the module docs).
#[derive(Debug)]
pub struct Reduced<R, P> {
    reduction: R,
    inner: P,
    /// The virtual instance's round loop.
    kernel: RoundKernel,
    /// Scratch: the round's virtual arrivals.
    arrivals: Vec<(ColorId, u64)>,
}

impl<R: Reduction, P: Policy> Reduced<R, P> {
    /// Wrap an inner policy (ΔLRU-EDF for the paper's guarantees).
    pub fn new(inner: P) -> Self {
        Self { reduction: R::default(), inner, kernel: RoundKernel::new(), arrivals: Vec::new() }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The reduction's state: its virtual colors and their projection.
    pub fn reduction(&self) -> &R {
        &self.reduction
    }

    /// Number of virtual colors so far.
    pub fn virtual_colors(&self) -> usize {
        self.reduction.colors().len()
    }
}

impl<R: Reduction, P: Policy> Policy for Reduced<R, P> {
    fn name(&self) -> &str {
        R::NAME
    }

    fn check_locations(&self, n_locations: usize) -> Result<(), String> {
        self.inner.check_locations(n_locations)
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        self.reduction = R::default();
        self.kernel.reset(n_locations);
        self.inner.init(delta, n_locations);
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let round = obs.round;
        if obs.mini_round == 0 {
            self.kernel.drop_due(round);
            self.arrivals.clear();
            self.reduction.transduce(round, obs.colors, obs.arrivals, &mut self.arrivals);
            let vcolors = self.reduction.colors();
            for &(vc, n) in &self.arrivals {
                self.kernel.arrive(vc, round + vcolors.delay_bound(vc), n);
            }
        }
        self.kernel.reconfigure(
            &mut self.inner,
            self.reduction.colors(),
            round,
            obs.mini_round,
            obs.speed,
            obs.delta,
        );
        self.kernel.execute(|_, _| {});
        for (o, &v) in out.iter_mut().zip(self.kernel.slots()) {
            *o = v.map(|vc| self.reduction.project(vc));
        }
    }

    /// The inner footprint plus the reduction's state and the virtual
    /// round loop; no lemma counters (the inner ones count virtual colors).
    fn stats(&self) -> PolicyStats {
        let mut footprint = self.inner.stats().footprint.plus(self.reduction.footprint());
        footprint.colormap_live_pages += self.kernel.live_pages() as u64;
        PolicyStats { footprint, ..PolicyStats::default() }
    }
}

impl<R: Reduction, P: Snapshot> Snapshot for Reduced<R, P> {
    // Mutable state: the reduction's state, then the virtual pending store
    // and assignment, then the inner policy. The round's buffers are
    // scratch.
    fn save_state(&self, w: &mut SnapWriter) {
        self.reduction.save_state(w);
        self.kernel.save_state(w, &self.inner);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let reduction = R::load_state(r)?;
        self.kernel.load_state(r, reduction.colors(), &mut self.inner)?;
        self.reduction = reduction;
        Ok(())
    }
}

/// Feed every round of `inst` through `reduction`, as the online wrapper
/// would, and collect the virtual instance; returns it with the rule's
/// final state (its virtual colors and their projection).
pub fn materialize<R: Reduction>(inst: &Instance, mut reduction: R) -> (Instance, R) {
    let mut requests = RequestSeq::new();
    let mut arrivals = Vec::new();
    // Every job is released before its deadline, so within the horizon;
    // round `horizon` syncs the virtual table of a jobless instance.
    for round in 0..=inst.horizon() {
        arrivals.clear();
        reduction.transduce(round, &inst.colors, inst.requests.at(round).pairs(), &mut arrivals);
        for &(vc, n) in &arrivals {
            requests.add(round, vc, n);
        }
    }
    (Instance::new(inst.delta, reduction.colors().clone(), requests), reduction)
}

/// Materialize §4.1's `I → I'` of a batched instance: a rate-limited
/// instance over sub-colors, with the sub-color map.
pub fn distribute_instance(inst: &Instance) -> (Instance, SubColors) {
    materialize(inst, SubColors::default())
}

/// Materialize §5.1's `σ → σ'` (with §5.3 rounding): a batched instance
/// with every job delayed to its next half-block boundary.
pub fn varbatch_instance(inst: &Instance) -> Instance {
    materialize(inst, HalfBlocks::default()).0
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
            assert_eq!(map.project(vc), c);
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
