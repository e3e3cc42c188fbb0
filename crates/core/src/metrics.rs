//! Instrumentation counters for the Section 3 analysis machinery.

/// Counters a [`crate::ColorBook`] accumulates while an algorithm runs.
/// These are the quantities the paper's lemmas bound, so the analysis crate
/// can check every inequality on real executions:
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
