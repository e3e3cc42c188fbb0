//! Cost accounting shared by the simulator, the offline solvers and the
//! analysis harness.

/// The largest reconfiguration cost Δ an input may declare. With Δ capped
/// at `u32::MAX`, `Δ · reconfigs` can overflow a u64 only after 2³²
/// reconfigurations.
pub const MAX_DELTA: u64 = u32::MAX as u64;

/// Validate a Δ read from input: the one check both instance readers share.
pub fn check_delta(delta: u64) -> Result<u64, String> {
    if delta <= MAX_DELTA {
        Ok(delta)
    } else {
        Err(format!("delta {delta} exceeds the maximum {MAX_DELTA}"))
    }
}

/// Validate the deadline `round + bound` of an arrival read from input:
/// the one deadline check both instance readers share. The round loop
/// simulates every round up to the latest deadline inclusive, so a
/// deadline must leave room for the round after it: `u64::MAX` is
/// rejected along with sums that overflow.
pub fn check_deadline(round: u64, bound: u64) -> Result<u64, String> {
    round.checked_add(bound).filter(|&deadline| deadline < u64::MAX).ok_or_else(|| {
        format!("deadline of round {round} plus delay bound {bound} overflows the round counter")
    })
}

/// The cost ledger of a schedule: counts of reconfigurations and drops,
/// priced per the paper's model (`Δ` per reconfiguration, `1` per drop).
///
/// The ledger stores *counts*, not pre-multiplied costs, so analyses can
/// re-price them (e.g. to report reconfiguration cost in units of `Δ`).
///
/// **Pricing rule.** A reconfiguration is counted whenever a resource is
/// recolored to a *non-black* color different from its current color.
/// Parking a resource (recoloring to black) is free: the paper's model
/// charges for configuring a processor *to process a category*, and an
/// unconfigured processor processes nothing. All algorithms — online,
/// offline and the exact OPT solver — are priced by this same rule, so
/// competitive comparisons are apples-to-apples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// The fixed reconfiguration cost Δ.
    pub delta: u64,
    /// Number of reconfigurations (location recolorings to a non-black
    /// color).
    pub reconfigs: u64,
    /// Number of dropped jobs (unit drop cost each).
    pub drops: u64,
}

impl CostLedger {
    /// A fresh ledger with the given Δ.
    pub fn new(delta: u64) -> Self {
        Self { delta, reconfigs: 0, drops: 0 }
    }

    /// Record `n` reconfigurations.
    #[inline]
    pub fn add_reconfigs(&mut self, n: u64) {
        self.reconfigs += n;
    }

    /// Record `n` dropped jobs.
    #[inline]
    pub fn add_drops(&mut self, n: u64) {
        self.drops += n;
    }

    /// Total reconfiguration cost `Δ · reconfigs`.
    #[inline]
    pub fn reconfig_cost(&self) -> u64 {
        self.delta.checked_mul(self.reconfigs).expect("reconfiguration cost overflow")
    }

    /// Total drop cost (unit drop cost).
    #[inline]
    pub fn drop_cost(&self) -> u64 {
        self.drops
    }

    /// Total cost `Δ · reconfigs + drops`.
    #[inline]
    pub fn total(&self) -> u64 {
        self.reconfig_cost().checked_add(self.drop_cost()).expect("total cost overflow")
    }

    /// Merge another ledger (same Δ) into this one.
    ///
    /// # Panics
    /// Panics if the deltas differ.
    pub fn merge(&mut self, other: &CostLedger) {
        assert_eq!(self.delta, other.delta, "merging ledgers with different \u{0394}");
        self.reconfigs += other.reconfigs;
        self.drops += other.drops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let mut l = CostLedger::new(5);
        l.add_reconfigs(3);
        l.add_drops(7);
        assert_eq!(l.reconfig_cost(), 15);
        assert_eq!(l.drop_cost(), 7);
        assert_eq!(l.total(), 22);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CostLedger::new(2);
        a.add_reconfigs(1);
        let mut b = CostLedger::new(2);
        b.add_reconfigs(2);
        b.add_drops(4);
        a.merge(&b);
        assert_eq!(a.reconfigs, 3);
        assert_eq!(a.drops, 4);
        assert_eq!(a.total(), 10);
    }

    #[test]
    #[should_panic(expected = "different")]
    fn merge_rejects_mismatched_delta() {
        let mut a = CostLedger::new(2);
        a.merge(&CostLedger::new(3));
    }

    #[test]
    fn zero_delta_instance_costs_only_drops() {
        let mut l = CostLedger::new(0);
        l.add_reconfigs(100);
        l.add_drops(9);
        assert_eq!(l.total(), 9);
    }
}
