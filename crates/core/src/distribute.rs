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
//! (Lemma 4.2: the projection never costs more, and physical pending of
//! `ℓ` is the sum over its sub-colors). [`SubColors`] is the rule, as an
//! arrival transducer; [`Distribute`] runs an inner policy behind it.

use rrs_engine::checkpoint::{get_color_table, get_sparse, put_color_table};
use rrs_engine::policy::ColorCounts;
use rrs_engine::StateFootprint;
use rrs_model::{ColorId, ColorMap, ColorTable, SnapError, SnapReader, SnapWriter};

use crate::transform::{Reduced, Reduction};

/// The Distribute wrapper around an inner policy (ΔLRU-EDF for the
/// Theorem 2 guarantee).
pub type Distribute<P> = Reduced<SubColors, P>;

/// The minted sub-color universe of §4.1 and its chunk rule: the virtual
/// color table, each physical color's sub-colors in `j` order, and the
/// projection back.
#[derive(Clone, Debug, Default)]
pub struct SubColors {
    vcolors: ColorTable,
    /// physical color → ids of its minted sub-colors (index `j` is
    /// sub-color `(ℓ, j)`).
    subs: ColorMap<Vec<ColorId>>,
    /// virtual color index → physical color.
    to_phys: Vec<ColorId>,
}

impl SubColors {
    /// The sub-colors minted for a physical color, in `j` order.
    pub fn sub_colors(&self, phys: ColorId) -> &[ColorId] {
        self.subs.get(phys).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl Reduction for SubColors {
    const NAME: &'static str = "distribute";

    /// Every sub-color keeps its physical color's bound.
    fn colors(&self) -> &ColorTable {
        &self.vcolors
    }

    /// Split each batch of color `ℓ` (bound `D`) into chunks of at most
    /// `D`: the job of rank `r` goes to sub-color `(ℓ, ⌊r / D⌋)`, minted on
    /// first use, so arrival order fixes the ids. Batches sit on their
    /// boundaries on batched input; one off its boundary splits the same
    /// way, and the inner policy's book applies its off-boundary rule.
    fn transduce(
        &mut self,
        _round: u64,
        colors: &ColorTable,
        arrivals: &ColorCounts,
        out: &mut Vec<(ColorId, u64)>,
    ) {
        for &(c, count) in arrivals {
            let bound = colors.delay_bound(c);
            let subs = self.subs.entry(c);
            for (j, rank) in (0..count).step_by(bound as usize).enumerate() {
                if subs.len() == j {
                    subs.push(self.vcolors.push(bound));
                    self.to_phys.push(c);
                }
                out.push((subs[j], bound.min(count - rank)));
            }
        }
    }

    fn project(&self, vc: ColorId) -> ColorId {
        self.to_phys[vc.index()]
    }

    fn footprint(&self) -> StateFootprint {
        StateFootprint {
            colorset_leaf_words: 0,
            colormap_live_pages: self.subs.live_pages() as u64,
        }
    }

    /// The virtual color table, then the sub-color lists of the physical
    /// colors that minted any, as `(id, list)` entries in ascending id
    /// order; the projection is derived from the lists on load.
    fn save_state(&self, w: &mut SnapWriter) {
        put_color_table(w, &self.vcolors);
        w.put_u64(self.subs.len() as u64);
        let nonempty = self.subs.iter().filter(|(_, s)| !s.is_empty()).count();
        w.put_u64(nonempty as u64);
        for (c, subs) in self.subs.iter().filter(|(_, s)| !s.is_empty()) {
            w.put_u32(c.0);
            w.put_u64(subs.len() as u64);
            for &vc in subs {
                w.put_u32(vc.0);
            }
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let vcolors = get_color_table(r, "virtual color table")?;
        let coverage = r.get_u64("sub-color map size")?;
        let mut subs: ColorMap<Vec<ColorId>> = ColorMap::new();
        subs.grow_to(
            usize::try_from(coverage)
                .map_err(|_| SnapError::Invalid("sub-color map size overflows usize".into()))?,
        );
        let mut to_phys = vec![None; vcolors.len()];
        get_sparse(r, coverage, "sub-color lists", |r, c| {
            let len = r.get_u64("sub-color list length")?;
            if len == 0 {
                return Err(SnapError::Invalid(format!(
                    "color {} recorded with an empty sub-color list",
                    c.0
                )));
            }
            for _ in 0..len {
                let vc = ColorId(r.get_u32("sub-color id")?);
                match to_phys.get_mut(vc.index()) {
                    Some(phys @ None) => *phys = Some(c),
                    _ => {
                        return Err(SnapError::Invalid(format!(
                            "sub-color {vc} unknown or listed twice"
                        )))
                    }
                }
                subs.entry(c).push(vc);
            }
            Ok(())
        })?;
        let to_phys = to_phys.into_iter().collect::<Option<Vec<_>>>().ok_or_else(|| {
            SnapError::Invalid("a minted sub-color is in no sub-color list".into())
        })?;
        Ok(Self { vcolors, subs, to_phys })
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
        assert_eq!(p.reduction().sub_colors(c).len(), 3);
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
