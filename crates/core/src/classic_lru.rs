//! Classic LRU — an ablation baseline that drops the Δ-counter machinery.
//!
//! The paper's ΔLRU does two non-obvious things beyond textbook LRU:
//!
//! 1. a color's recency stamp advances only once it has produced **Δ jobs**
//!    (a counter wrap), so a trickle of cheap jobs cannot keep a color
//!    "hot" — and a color that never produces Δ jobs is never worth a
//!    reconfiguration (Lemma 3.1's economics);
//! 2. the stamp commits only at the **next block boundary**, so a wrap
//!    cannot promote a color with lots of remaining slack over one whose
//!    deadline pressure is current.
//!
//! [`ClassicLru`] ablates both: its timestamp is simply the last round the
//! color received any job, and any color with pending history is a caching
//! candidate. On *sparse* traffic (many colors, each with fewer than Δ
//! jobs) it pays a reconfiguration per color where ΔLRU pays at most the
//! per-job drop cost — the ablation experiment E13 measures exactly this
//! gap.

use rrs_engine::checkpoint::{get_color_set, get_sparse, put_color_set};
use rrs_engine::{
    stable_assign_into, AssignScratch, Observation, Policy, PolicyStats, Slot, Snapshot,
    StateFootprint,
};
use rrs_model::{ColorId, ColorMap, ColorSet, SnapError, SnapReader, SnapWriter};

/// Textbook LRU over colors: cache the `n/2` colors with the most recent
/// arrival, each replicated at two locations.
#[derive(Debug, Default)]
pub struct ClassicLru {
    /// Per color: last round with a (nonempty) arrival.
    last_arrival: ColorMap<Option<u64>>,
    cached: ColorSet,
    capacity: usize,
    scratch: Vec<ColorId>,
    desired: Vec<(ColorId, u64)>,
    assign: AssignScratch,
}

impl ClassicLru {
    /// A fresh classic-LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinct colors currently cached.
    pub fn cached_colors(&self) -> &ColorSet {
        &self.cached
    }
}

/// Classic LRU is the timestamp-free baseline: no book, no lemma counters.
impl crate::Instrumented for ClassicLru {}

impl Policy for ClassicLru {
    fn name(&self) -> &str {
        "classic-lru"
    }

    fn init(&mut self, _delta: u64, n_locations: usize) {
        assert!(
            n_locations >= 2 && n_locations.is_multiple_of(2),
            "classic LRU replicates each cached color at two locations; got {n_locations}"
        );
        self.capacity = n_locations / 2;
        self.last_arrival = ColorMap::new();
        self.cached.clear();
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        self.last_arrival.grow_to(obs.colors.len());
        for &(c, n) in obs.arrivals {
            if n > 0 {
                self.last_arrival[c] = Some(obs.round);
            }
        }

        // Cache the most recently referenced colors.
        self.scratch.clear();
        self.scratch.extend(self.last_arrival.iter().filter_map(|(c, t)| t.map(|_| c)));
        let last = &self.last_arrival;
        self.scratch.sort_unstable_by_key(|&c| (std::cmp::Reverse(last[c]), c));
        self.scratch.truncate(self.capacity);

        self.cached.clear();
        self.cached.extend(self.scratch.iter().copied());
        self.desired.clear();
        self.desired.extend(self.scratch.iter().map(|&c| (c, 2)));
        stable_assign_into(obs.slots, &self.desired, out, &mut self.assign);
    }

    fn stats(&self) -> PolicyStats {
        let footprint = StateFootprint {
            colorset_leaf_words: self.cached.leaf_words() as u64,
            colormap_live_pages: self.last_arrival.live_pages() as u64,
        };
        PolicyStats { footprint, ..PolicyStats::default() }
    }
}

impl Snapshot for ClassicLru {
    /// Layout: recency-map coverage, then a sparse section (`get_sparse`)
    /// of `(id, round)` pairs for the colors with a recency stamp —
    /// never-referenced colors cost nothing.
    fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.last_arrival.len() as u64);
        let stamped = self.last_arrival.iter().filter(|(_, t)| t.is_some()).count();
        w.put_u64(stamped as u64);
        for (c, &t) in self.last_arrival.iter() {
            if let Some(round) = t {
                w.put_u32(c.0);
                w.put_u64(round);
            }
        }
        put_color_set(w, &self.cached);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let coverage = r.get_u64("recency map size")?;
        let n = usize::try_from(coverage)
            .map_err(|_| SnapError::Invalid("recency map size overflows usize".into()))?;
        self.last_arrival = ColorMap::new();
        self.last_arrival.grow_to(n);
        get_sparse(r, coverage, "recency stamps", |r, c| {
            *self.last_arrival.entry(c) = Some(r.get_u64("last arrival round")?);
            Ok(())
        })?;
        self.cached = get_color_set(r, "cached colors")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlru::DeltaLru;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    /// Many colors, one sub-Δ job each: the workload where the Δ-counter
    /// pays off.
    fn sparse_instance(num_colors: usize, delta: u64) -> rrs_model::Instance {
        let mut b = InstanceBuilder::new(delta);
        let colors: Vec<_> = (0..num_colors).map(|_| b.color(4)).collect();
        for (i, &c) in colors.iter().enumerate() {
            b.arrive((i as u64) * 4, c, 1);
        }
        b.build()
    }

    #[test]
    fn classic_lru_chases_every_color() {
        let inst = sparse_instance(10, 8);
        let out = Simulator::new(&inst, 4).run(&mut ClassicLru::new());
        // Every color gets cached (2 locations each) as it arrives.
        assert_eq!(out.cost.reconfigs, 20);
        assert_eq!(out.dropped, 0);
        // Total cost = 160, vs dropping everything = 10.
        assert_eq!(out.total_cost(), 160);
    }

    #[test]
    fn dlru_counter_gate_refuses_the_bait() {
        let inst = sparse_instance(10, 8);
        let out = Simulator::new(&inst, 4).run(&mut DeltaLru::new());
        // No color ever wraps its counter, so ΔLRU never reconfigures and
        // pays only the 10 unit drops — 16x cheaper.
        assert_eq!(out.cost.reconfigs, 0);
        assert_eq!(out.total_cost(), 10);
    }

    #[test]
    fn classic_lru_fine_on_dense_single_color() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        for blk in 0..4 {
            b.arrive(blk * 4, c, 4);
        }
        let inst = b.build();
        let out = Simulator::new(&inst, 2).run(&mut ClassicLru::new());
        assert_eq!(out.dropped, 0);
        assert_eq!(out.cost.reconfigs, 2);
    }

    #[test]
    fn recency_ordering_and_ties() {
        let mut b = InstanceBuilder::new(1);
        let c0 = b.color(2);
        let c1 = b.color(2);
        let c2 = b.color(2);
        b.arrive(0, c0, 1).arrive(0, c1, 1);
        b.arrive(2, c2, 1);
        let inst = b.build();
        let mut p = ClassicLru::new();
        Simulator::new(&inst, 4).run(&mut p);
        // Capacity 2: most recent (c2) plus the tie-break winner of round 0
        // (c0 < c1).
        assert!(p.cached_colors().contains(c2));
        assert!(p.cached_colors().contains(c0));
        assert!(!p.cached_colors().contains(c1));
    }
}
