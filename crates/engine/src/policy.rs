//! The [`Policy`] trait online algorithms implement, and the observation
//! the engine hands them each mini-round.

use rrs_model::{ColorId, ColorTable};

use crate::pending::PendingStore;
use crate::stats::PolicyStats;

/// The color configured at one location; `None` is the paper's *black*
/// (unconfigured) pseudo-color.
pub type Slot = Option<ColorId>;

/// `(color, count)` pairs in consistent order — the shape of per-round
/// arrival and drop summaries.
pub type ColorCounts = [(ColorId, u64)];

/// Everything a policy may observe when asked to reconfigure. This is the
/// full *online-visible* state: the present round, this round's arrivals and
/// drops, the pending store, and the current assignment. Future requests are
/// structurally invisible.
pub struct Observation<'a> {
    /// Current round index.
    pub round: u64,
    /// Mini-round within the round (`0..speed`).
    pub mini_round: u32,
    /// The schedule speed (mini-rounds per round; 1 for all headline
    /// algorithms).
    pub speed: u32,
    /// The reconfiguration cost Δ.
    pub delta: u64,
    /// Delay bounds for every color seen so far. Reduction wrappers pass
    /// their own *virtual* color tables here.
    pub colors: &'a ColorTable,
    /// This round's arrivals as `(color, count)` pairs in consistent order.
    /// Empty on mini-rounds after the first — arrivals happen once per
    /// round.
    pub arrivals: &'a [(ColorId, u64)],
    /// Jobs dropped in this round's drop phase, `(color, count)`, consistent
    /// order. Empty on mini-rounds after the first.
    pub dropped: &'a [(ColorId, u64)],
    /// The pending-job store *after* this round's drop and arrival phases.
    pub pending: &'a PendingStore,
    /// The current location assignment (length = number of locations).
    pub slots: &'a [Slot],
}

/// An online scheduling algorithm.
///
/// The engine calls [`Policy::reconfigure`] once per mini-round with an
/// [`Observation`]; the policy rewrites `out` (pre-filled with the current
/// assignment) to its desired assignment. The engine charges Δ for every
/// location whose color changed to a non-black color and then runs the
/// execution phase. After (or during) a run, [`Policy::stats`] reports
/// what the policy holds and what its bookkeeping counted; the engine
/// itself never calls it.
pub trait Policy {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Called once before round 0.
    fn init(&mut self, delta: u64, n_locations: usize) {
        let _ = (delta, n_locations);
    }

    /// Decide the assignment for this mini-round by mutating `out`
    /// (pre-filled with the current assignment; leaving it untouched keeps
    /// the configuration).
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>);

    /// The policy's sparse-state footprint and lemma counters right now
    /// (DESIGN.md §14). The default reports zeros, which is right for a
    /// policy that keeps no per-color containers and no ColorBook; a
    /// wrapper must forward to, or add to, its inner policy's stats.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

impl<P: Policy + ?Sized> Policy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn init(&mut self, delta: u64, n_locations: usize) {
        (**self).init(delta, n_locations);
    }
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        (**self).reconfigure(obs, out);
    }
    fn stats(&self) -> PolicyStats {
        (**self).stats()
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn init(&mut self, delta: u64, n_locations: usize) {
        (**self).init(delta, n_locations);
    }
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        (**self).reconfigure(obs, out);
    }
    fn stats(&self) -> PolicyStats {
        (**self).stats()
    }
}

/// A policy that never reconfigures: every location stays black and every
/// job is eventually dropped. Useful as a worst-case baseline and in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct DoNothing;

impl Policy for DoNothing {
    fn name(&self) -> &str {
        "do-nothing"
    }

    fn reconfigure(&mut self, _obs: &Observation<'_>, _out: &mut Vec<Slot>) {}
}

/// A policy that pins a fixed color to every location in round 0 and never
/// changes it. Useful in tests and as a single-service baseline.
#[derive(Clone, Copy, Debug)]
pub struct PinColor(pub ColorId);

impl Policy for PinColor {
    fn name(&self) -> &str {
        "pin-color"
    }

    fn reconfigure(&mut self, _obs: &Observation<'_>, out: &mut Vec<Slot>) {
        for s in out.iter_mut() {
            *s = Some(self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn boxed_and_borrowed_policies_forward() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();

        let mut boxed: Box<dyn Policy> = Box::new(PinColor(c));
        assert_eq!(boxed.name(), "pin-color");
        let out_boxed = Simulator::new(&inst, 1).run(&mut boxed);

        let mut plain = PinColor(c);
        let out_ref = Simulator::new(&inst, 1).run(&mut &mut plain);
        assert_eq!(out_boxed.total_cost(), out_ref.total_cost());
    }

    #[test]
    fn do_nothing_keeps_everything_black() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 1);
        let inst = b.build();
        let out = Simulator::new(&inst, 3).run(&mut DoNothing);
        assert!(out.final_slots.iter().all(Option::is_none));
        assert_eq!(out.executed, 0);
    }

    #[test]
    fn pin_color_claims_all_locations() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 1);
        let inst = b.build();
        let out = Simulator::new(&inst, 3).run(&mut PinColor(c));
        assert!(out.final_slots.iter().all(|s| *s == Some(c)));
        assert_eq!(out.cost.reconfigs, 3);
    }
}
