//! The *Distribute* reduction (§4.1): `[Δ|1|D_ℓ|D_ℓ]` → rate-limited
//! `[Δ|1|D_ℓ|D_ℓ]`.
//!
//! A batched instance may deliver arbitrarily large batches. Distribute
//! splits each batch of color `ℓ` into chunks of at most `D_ℓ` jobs and
//! assigns chunk `j` to a minted *sub-color* `(ℓ, j)` with the same delay
//! bound. The resulting virtual instance is rate-limited, so the inner
//! algorithm (ΔLRU-EDF in the paper) applies; whenever the inner algorithm
//! configures `(ℓ, j)` the physical schedule configures `ℓ`, and whenever it
//! executes an `(ℓ, j)` job the physical schedule executes an `ℓ` job
//! (Lemma 4.2 shows the projection never costs more).
//!
//! The wrapper maintains the virtual instance *online*: a virtual pending
//! store and virtual location assignment drive the inner policy; the
//! physical assignment is the color-projection of the virtual one. Since
//! distinct sub-colors of one physical color project to the same color, the
//! projection can only save reconfigurations, and any virtual execution is
//! physically feasible (physical pending of `ℓ` is the sum over its
//! sub-colors).

use rrs_engine::checkpoint::{get_color_table, get_sparse, put_color_table};
use rrs_engine::{Observation, Policy, RoundKernel, Slot, Snapshot};
use rrs_model::{ColorId, ColorMap, ColorTable, SnapError, SnapReader, SnapWriter};

/// The minted sub-color universe of §4.1: the virtual color table, each
/// physical color's sub-colors in `j` order, and the projection back.
///
/// [`SubColorMap::split`] is the one place the chunk rule and the
/// first-use minting order live; the online [`Distribute`] wrapper and the
/// offline [`crate::distribute_instance`] both mint through it, so they
/// build the same virtual instance.
#[derive(Clone, Debug, Default)]
pub struct SubColorMap {
    vcolors: ColorTable,
    /// physical color → ids of its minted sub-colors (index `j` is
    /// sub-color `(ℓ, j)`).
    subs: ColorMap<Vec<ColorId>>,
    /// virtual color index → physical color.
    to_phys: Vec<ColorId>,
}

impl SubColorMap {
    /// An empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split a batch of `count` jobs of physical color `phys` (delay bound
    /// `bound`) into chunks of at most `bound` jobs: the job of rank `r`
    /// goes to sub-color `(phys, ⌊r / bound⌋)`, minted on first use.
    /// `emit(sub_color, chunk)` is called per chunk, in `j` order.
    pub fn split(
        &mut self,
        phys: ColorId,
        count: u64,
        bound: u64,
        mut emit: impl FnMut(ColorId, u64),
    ) {
        if count == 0 {
            return;
        }
        let subs = self.subs.entry(phys);
        let mut remaining = count;
        let mut j = 0usize;
        while remaining > 0 {
            let chunk = remaining.min(bound);
            if subs.len() == j {
                subs.push(self.vcolors.push(bound));
                self.to_phys.push(phys);
            }
            emit(subs[j], chunk);
            remaining -= chunk;
            j += 1;
        }
    }

    /// The virtual color table (every sub-color keeps its physical bound).
    pub fn colors(&self) -> &ColorTable {
        &self.vcolors
    }

    /// The sub-colors minted for a physical color, in `j` order.
    pub fn sub_colors(&self, phys: ColorId) -> &[ColorId] {
        self.subs.get(phys).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The physical color of a sub-color.
    pub fn physical(&self, vc: ColorId) -> ColorId {
        self.to_phys[vc.index()]
    }

    /// Append the sub-color lists and the projection table. v2 writes only
    /// physical colors with minted sub-colors, as `(id, list)` entries in
    /// ascending id order; v1 wrote one (possibly empty) list per covered
    /// color.
    fn save_lists(&self, w: &mut SnapWriter) {
        w.put_u64(self.subs.len() as u64);
        let nonempty = self.subs.iter().filter(|(_, s)| !s.is_empty()).count();
        w.put_u64(nonempty as u64);
        for (c, subs) in self.subs.iter() {
            if subs.is_empty() {
                continue;
            }
            w.put_u32(c.0);
            w.put_u64(subs.len() as u64);
            for &vc in subs {
                w.put_u32(vc.0);
            }
        }
        w.put_u64(self.to_phys.len() as u64);
        for &phys in &self.to_phys {
            w.put_u32(phys.0);
        }
    }

    /// Read what [`SubColorMap::save_lists`] wrote: the sub-color lists
    /// and the projection over the already-read virtual table `vcolors`.
    fn load_lists(
        r: &mut SnapReader<'_>,
        vcolors: &ColorTable,
    ) -> Result<(ColorMap<Vec<ColorId>>, Vec<ColorId>), SnapError> {
        let coverage = r.get_u64("sub-color map size")?;
        let n_phys = usize::try_from(coverage)
            .map_err(|_| SnapError::Invalid("sub-color map size overflows usize".into()))?;
        let mut subs: ColorMap<Vec<ColorId>> = ColorMap::new();
        subs.grow_to(n_phys);
        let mut minted = 0u64;
        get_sparse(r, coverage, "sub-color lists", |r, c| {
            let len = r.get_u64("sub-color list length")?;
            if len == 0 {
                return Err(SnapError::Invalid(format!(
                    "color {} recorded with an empty sub-color list",
                    c.0
                )));
            }
            let list = subs.entry(c);
            for _ in 0..len {
                let vc = ColorId(r.get_u32("sub-color id")?);
                if !vcolors.contains(vc) {
                    return Err(SnapError::Invalid(format!("sub-color {vc} out of range")));
                }
                list.push(vc);
                minted += 1;
            }
            Ok(())
        })?;
        if minted != vcolors.len() as u64 {
            return Err(SnapError::Invalid(format!(
                "{minted} sub-colors listed but {} virtual colors minted",
                vcolors.len()
            )));
        }
        let n_virt = r.get_u64("projection table size")?;
        if n_virt != vcolors.len() as u64 {
            return Err(SnapError::Invalid(format!(
                "projection table covers {n_virt} colors but {} were minted",
                vcolors.len()
            )));
        }
        let mut to_phys = Vec::with_capacity(vcolors.len());
        for _ in 0..n_virt {
            to_phys.push(ColorId(r.get_u32("projected physical color")?));
        }
        Ok((subs, to_phys))
    }
}

/// The Distribute wrapper around an inner policy.
#[derive(Debug)]
pub struct Distribute<P> {
    inner: P,
    map: SubColorMap,
    /// The virtual instance's round loop.
    kernel: RoundKernel,
}

impl<P: Policy> Distribute<P> {
    /// Wrap an inner policy (ΔLRU-EDF for the Theorem 2 guarantee).
    pub fn new(inner: P) -> Self {
        Self { inner, map: SubColorMap::new(), kernel: RoundKernel::new() }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Number of sub-colors minted so far.
    pub fn virtual_colors(&self) -> usize {
        self.map.vcolors.len()
    }

    /// The sub-colors minted for a physical color, in `j` order.
    pub fn sub_colors(&self, phys: ColorId) -> &[ColorId] {
        self.map.sub_colors(phys)
    }
}

impl<P: crate::Footprint> crate::Footprint for Distribute<P> {
    fn footprint(&self) -> crate::StateFootprint {
        self.inner.footprint().plus(crate::StateFootprint {
            colorset_leaf_words: 0,
            colormap_live_pages: (self.map.subs.live_pages() + self.kernel.live_pages()) as u64,
        })
    }
}

impl<P: crate::Instrumented> crate::Instrumented for Distribute<P> {
    fn book(&self) -> Option<&crate::ColorBook> {
        // The wrapper keeps no timestamps of its own; the inner policy's
        // book is the §3 bookkeeping (over virtual sub-colors).
        self.inner.book()
    }

    fn metrics(&self) -> crate::AlgoMetrics {
        self.inner.metrics()
    }
}

impl<P: Policy> Policy for Distribute<P> {
    fn name(&self) -> &str {
        "distribute"
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        self.map = SubColorMap::new();
        self.kernel.reset(n_locations);
        self.inner.init(delta, n_locations);
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let round = obs.round;
        if obs.mini_round == 0 {
            self.kernel.drop_due(round);
            // Arrivals: each physical batch splits into sub-color chunks.
            for &(c, count) in obs.arrivals {
                let bound = obs.colors.delay_bound(c);
                debug_assert!(
                    round.is_multiple_of(bound),
                    "Distribute requires batched arrivals (color {c}, round {round})"
                );
                let kernel = &mut self.kernel;
                self.map
                    .split(c, count, bound, |vc, chunk| kernel.arrive(vc, round + bound, chunk));
            }
        }
        self.kernel.reconfigure(
            &mut self.inner,
            &self.map.vcolors,
            round,
            obs.mini_round,
            obs.speed,
            obs.delta,
        );
        self.kernel.execute(|_, _| {});

        // Physical projection: sub-color (ℓ, j) → ℓ.
        for (o, &v) in out.iter_mut().zip(self.kernel.slots()) {
            *o = v.map(|vc| self.map.physical(vc));
        }
    }
}

impl<P: Snapshot> Snapshot for Distribute<P> {
    // Mutable state: the virtual color table, the virtual pending store and
    // assignment, the sub-color lists and projection, then the inner
    // policy. The round's buffers are scratch.
    fn save_state(&self, w: &mut SnapWriter) {
        put_color_table(w, &self.map.vcolors);
        self.kernel.save_state(w, &self.inner, |w| self.map.save_lists(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vcolors = get_color_table(r, "virtual color table")?;
        let (subs, to_phys) = self
            .kernel
            .load_state(r, &vcolors, &mut self.inner, |r| SubColorMap::load_lists(r, &vcolors))?;
        self.map = SubColorMap { vcolors, subs, to_phys };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlru_edf::DeltaLruEdf;
    use crate::edf::Edf;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn oversize_batch_is_split_into_sub_colors() {
        // One color, bound 2, a batch of 5 jobs -> sub-colors (ℓ,0..2) with
        // chunks 2, 2, 1.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 5);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        Simulator::new(&inst, 4).run(&mut p);
        assert_eq!(p.virtual_colors(), 3);
        assert_eq!(p.sub_colors(c).len(), 3);
    }

    #[test]
    fn rate_limited_input_passes_through_with_one_sub_color() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 4).arrive(4, c, 3);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        let out = Simulator::new(&inst, 2).run(&mut p);
        assert_eq!(p.virtual_colors(), 1);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn physical_cost_at_most_sub_color_count_times_reconfig() {
        // A large batch of one physical color: the projection merges all
        // sub-color configurations onto the same physical color, so a
        // location switching between sub-colors of the same color is free.
        let mut b = InstanceBuilder::new(3);
        let c = b.color(4);
        b.arrive(0, c, 16); // 4 sub-colors
        b.arrive(4, c, 16);
        let inst = b.build();
        let mut p = Distribute::new(DeltaLruEdf::new());
        let out = Simulator::new(&inst, 8).run(&mut p);
        // All locations only ever hold (projections of) color c: physical
        // reconfigs are at most one per location.
        assert!(out.cost.reconfigs <= 8, "got {}", out.cost.reconfigs);
    }

    #[test]
    fn executes_as_much_as_unsplit_would() {
        // Sanity: splitting must not reduce throughput below capacity.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 8);
        let inst = b.build();
        let mut p = Distribute::new(DeltaLruEdf::new());
        let out = Simulator::new(&inst, 4).run(&mut p);
        // 4 locations x 4 rounds = 16 slots; 8 jobs, all executable.
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn empty_rounds_are_harmless() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(8);
        b.arrive(8, c, 2);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        let out = Simulator::new(&inst, 2).run(&mut p);
        assert!(out.conserved());
        assert_eq!(out.dropped, 0);
    }
}
