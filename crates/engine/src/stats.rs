//! What a policy reports about itself through [`Policy::stats`]: the
//! sparse-container footprint of its per-color state and the Section 3
//! lemma counters of its bookkeeping.
//!
//! [`Policy::stats`]: crate::Policy::stats

/// What [`crate::Policy::stats`] returns. Both parts are deterministic:
/// the same run reports the same stats in any build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// The policy's sparse-container footprint; a wrapper adds its own
    /// containers to its inner policy's.
    pub footprint: StateFootprint,
    /// The lemma counters of the policy's own ColorBook; zero for a policy
    /// that keeps none, and for the reduction wrappers, whose inner
    /// counters describe the virtual instance.
    pub metrics: AlgoMetrics,
}

/// Sparse-container telemetry for a policy's per-color state: how many
/// hierarchical-bitset leaf words and paged-map pages it currently holds
/// (DESIGN.md §14). Both scale with *live* colors, not the color universe;
/// the `zipf` bench suite records them as deterministic metrics, so
/// `bench compare` flags any growth as a regression.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateFootprint {
    /// Total `ColorSet` leaf words (64 color ids per word).
    pub colorset_leaf_words: u64,
    /// Total live `ColorMap` pages (`COLOR_PAGE` slots per page).
    pub colormap_live_pages: u64,
}

impl StateFootprint {
    /// Component-wise sum, for composing wrappers over inner policies.
    #[must_use]
    pub fn plus(self, other: Self) -> Self {
        Self {
            colorset_leaf_words: self.colorset_leaf_words + other.colorset_leaf_words,
            colormap_live_pages: self.colormap_live_pages + other.colormap_live_pages,
        }
    }
}

/// Counters a ColorBook (`rrs_core::ColorBook`) accumulates while an
/// algorithm runs. These are the quantities the paper's lemmas bound, so
/// the analysis crate can check every inequality on real executions:
///
/// * Lemma 3.3: `reconfig cost ≤ 4 · numEpochs · Δ`
/// * Lemma 3.4: `ineligible drop cost ≤ numEpochs · Δ`
/// * Lemma 3.2: `eligible drop cost ≤ OFF's drop cost`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlgoMetrics {
    /// Counter wrapping events (§3.1 arrival phase, step 3a).
    pub counter_wraps: u64,
    /// Timestamp update events: commits that raised a color's timestamp
    /// (§3.4).
    pub timestamp_updates: u64,
    /// Completed epochs: transitions of a color from eligible to ineligible.
    pub completed_epochs: u64,
    /// Epochs currently in progress (a color's epoch is *in progress* from
    /// the first job arrival after it became ineligible — or ever — until it
    /// becomes ineligible again).
    pub active_epochs: u64,
    /// Jobs dropped while their color was eligible.
    pub eligible_drops: u64,
    /// Jobs dropped while their color was ineligible.
    pub ineligible_drops: u64,
    /// Completed super-epochs (§3.4): a super-epoch ends once the configured
    /// threshold of distinct colors have updated their timestamps within it.
    pub super_epochs: u64,
}

impl AlgoMetrics {
    /// Total number of epochs associated with the input, including the
    /// in-progress (incomplete) ones — the paper's `numEpochs(σ)`.
    pub fn num_epochs(&self) -> u64 {
        self.completed_epochs + self.active_epochs
    }

    /// Total drops observed by the algorithm's bookkeeping.
    pub fn total_drops(&self) -> u64 {
        self.eligible_drops + self.ineligible_drops
    }

    /// One JSON object of u64 fields in a stable key order (read back by
    /// [`rrs_model::json::parse`]). `num_epochs` is included as a derived
    /// convenience field.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"counter_wraps\":{},\"timestamp_updates\":{},\"completed_epochs\":{},\
             \"active_epochs\":{},\"num_epochs\":{},\"eligible_drops\":{},\
             \"ineligible_drops\":{},\"super_epochs\":{}}}",
            self.counter_wraps,
            self.timestamp_updates,
            self.completed_epochs,
            self.active_epochs,
            self.num_epochs(),
            self.eligible_drops,
            self.ineligible_drops,
            self.super_epochs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_epochs_counts_incomplete() {
        let m = AlgoMetrics { completed_epochs: 3, active_epochs: 2, ..Default::default() };
        assert_eq!(m.num_epochs(), 5);
    }

    #[test]
    fn total_drops_sums_classes() {
        let m = AlgoMetrics { eligible_drops: 4, ineligible_drops: 6, ..Default::default() };
        assert_eq!(m.total_drops(), 10);
    }

    #[test]
    fn json_includes_every_counter() {
        let m = AlgoMetrics {
            counter_wraps: 1,
            timestamp_updates: 2,
            completed_epochs: 3,
            active_epochs: 4,
            eligible_drops: 5,
            ineligible_drops: 6,
            super_epochs: 7,
        };
        let v = rrs_model::json::parse(&m.to_json()).expect("metrics are valid JSON");
        for (key, want) in [
            ("counter_wraps", 1),
            ("timestamp_updates", 2),
            ("completed_epochs", 3),
            ("active_epochs", 4),
            ("num_epochs", 7),
            ("eligible_drops", 5),
            ("ineligible_drops", 6),
            ("super_epochs", 7),
        ] {
            assert_eq!(v.u64_field(key), Ok(want), "{key}");
        }
        assert_eq!(v.as_object().map(<[_]>::len), Some(8));
    }
}
