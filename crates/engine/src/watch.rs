//! The [`Watcher`] hook: an invariant checker threaded through the round
//! loop.
//!
//! A watcher is the *adversarial* counterpart of a [`crate::Recorder`]:
//! where a recorder observes events to report them, a watcher observes the
//! engine's state transitions to **falsify** them. The simulator calls the
//! watcher at every phase boundary with the authoritative state of that
//! phase — the pending store, the assignment before and after
//! reconfiguration, the cost charged — so a watcher can maintain an
//! independent shadow model and panic the moment the optimized round loop
//! diverges from the paper's laws (drop exactly at `arrival + D_ℓ`, one
//! execution per location per mini-round, Δ per recoloring to non-black,
//! conservation at the horizon).
//!
//! The default watcher is [`NoWatcher`], a zero-sized type whose hooks are
//! empty; every call site monomorphizes to nothing, so the hook costs
//! nothing unless a real watcher is installed. The paper-law implementation
//! lives in the `rrs-check` crate (`InvariantWatcher`) and is wired in by
//! the workspace's `validate` feature — see DESIGN.md §9.

use rrs_model::ColorId;

use crate::pending::PendingStore;
use crate::policy::Slot;
use crate::sim::Outcome;

/// Observer of the engine's state transitions, called at every phase
/// boundary. All hooks default to no-ops; implementations check what they
/// care about and panic (with context) on any violation.
///
/// Hooks receive *references into the live engine state*; a watcher must
/// not assume they stay valid across calls.
pub trait Watcher {
    /// Called once before round 0, after [`crate::Policy::init`].
    fn begin_run(&mut self, delta: u64, n_locations: usize, speed: u32, horizon: u64) {
        let _ = (delta, n_locations, speed, horizon);
    }

    /// After the drop phase of `round`: `dropped` is the engine's
    /// `(color, count)` drop summary, `pending` the store after dropping.
    fn after_drop(&mut self, round: u64, dropped: &[(ColorId, u64)], pending: &PendingStore) {
        let _ = (round, dropped, pending);
    }

    /// After the arrival phase of `round`: `arrivals` is the round's
    /// request, `pending` the store after insertion.
    fn after_arrivals(&mut self, round: u64, arrivals: &[(ColorId, u64)], pending: &PendingStore) {
        let _ = (round, arrivals, pending);
    }

    /// After the reconfiguration phase of (`round`, `mini`): the assignment
    /// before (`old`) and after (`new`), and the number of reconfigurations
    /// the engine charged (Δ each).
    fn after_reconfig(&mut self, round: u64, mini: u32, old: &[Slot], new: &[Slot], charged: u64) {
        let _ = (round, mini, old, new, charged);
    }

    /// One color's execution in (`round`, `mini`): `count` jobs of `color`
    /// executed on the current assignment `slots`.
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64, slots: &[Slot]) {
        let _ = (round, mini, color, count, slots);
    }

    /// After the execution phase of (`round`, `mini`), with the store as
    /// the next phase will see it.
    fn after_execution(&mut self, round: u64, mini: u32, pending: &PendingStore) {
        let _ = (round, mini, pending);
    }

    /// Called once after the final round with the outcome about to be
    /// returned.
    fn end_run(&mut self, outcome: &Outcome) {
        let _ = outcome;
    }
}

impl<W: Watcher + ?Sized> Watcher for &mut W {
    fn begin_run(&mut self, delta: u64, n_locations: usize, speed: u32, horizon: u64) {
        (**self).begin_run(delta, n_locations, speed, horizon);
    }
    fn after_drop(&mut self, round: u64, dropped: &[(ColorId, u64)], pending: &PendingStore) {
        (**self).after_drop(round, dropped, pending);
    }
    fn after_arrivals(&mut self, round: u64, arrivals: &[(ColorId, u64)], pending: &PendingStore) {
        (**self).after_arrivals(round, arrivals, pending);
    }
    fn after_reconfig(&mut self, round: u64, mini: u32, old: &[Slot], new: &[Slot], charged: u64) {
        (**self).after_reconfig(round, mini, old, new, charged);
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64, slots: &[Slot]) {
        (**self).on_execute(round, mini, color, count, slots);
    }
    fn after_execution(&mut self, round: u64, mini: u32, pending: &PendingStore) {
        (**self).after_execution(round, mini, pending);
    }
    fn end_run(&mut self, outcome: &Outcome) {
        (**self).end_run(outcome);
    }
}

/// The default watcher: checks nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoWatcher;

impl Watcher for NoWatcher {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Scratch;
    use crate::policy::PinColor;
    use crate::sim::Simulator;
    use crate::trace::NullRecorder;
    use rrs_model::InstanceBuilder;

    /// A watcher that counts hook invocations, to pin the call protocol.
    #[derive(Default)]
    struct CountingWatcher {
        begins: u32,
        drops: u32,
        arrivals: u32,
        reconfigs: u32,
        executes: u32,
        exec_phases: u32,
        ends: u32,
    }

    impl Watcher for CountingWatcher {
        fn begin_run(&mut self, _d: u64, _n: usize, _s: u32, _h: u64) {
            self.begins += 1;
        }
        fn after_drop(&mut self, _r: u64, _d: &[(ColorId, u64)], _p: &PendingStore) {
            self.drops += 1;
        }
        fn after_arrivals(&mut self, _r: u64, _a: &[(ColorId, u64)], _p: &PendingStore) {
            self.arrivals += 1;
        }
        fn after_reconfig(&mut self, _r: u64, _m: u32, _o: &[Slot], _n: &[Slot], _c: u64) {
            self.reconfigs += 1;
        }
        fn on_execute(&mut self, _r: u64, _m: u32, _c: ColorId, _n: u64, _s: &[Slot]) {
            self.executes += 1;
        }
        fn after_execution(&mut self, _r: u64, _m: u32, _p: &PendingStore) {
            self.exec_phases += 1;
        }
        fn end_run(&mut self, _o: &Outcome) {
            self.ends += 1;
        }
    }

    #[test]
    fn hooks_fire_once_per_phase() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();
        let mut w = CountingWatcher::default();
        let out = Simulator::new(&inst, 1).run_watched(
            &mut PinColor(c),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut w,
        );
        assert_eq!(w.begins, 1);
        assert_eq!(w.ends, 1);
        assert_eq!(w.drops as u64, out.rounds);
        assert_eq!(w.arrivals as u64, out.rounds);
        // Speed 1: one reconfiguration and execution phase per round.
        assert_eq!(w.reconfigs as u64, out.rounds);
        assert_eq!(w.exec_phases as u64, out.rounds);
        // on_execute fires only for colors that actually executed jobs.
        assert_eq!(w.executes as u64, 2);
    }

    #[test]
    fn speed_multiplies_mini_round_hooks_only() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 2);
        let inst = b.build();
        let mut w = CountingWatcher::default();
        let out = Simulator::new(&inst, 1).with_speed(3).run_watched(
            &mut PinColor(c),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut w,
        );
        assert_eq!(w.drops as u64, out.rounds);
        assert_eq!(w.reconfigs as u64, 3 * out.rounds);
        assert_eq!(w.exec_phases as u64, 3 * out.rounds);
    }

    #[test]
    fn no_watcher_run_matches_watched_run() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 2);
        let inst = b.build();
        let plain = Simulator::new(&inst, 2).run(&mut PinColor(c));
        let watched = Simulator::new(&inst, 2).run_watched(
            &mut PinColor(c),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut CountingWatcher::default(),
        );
        assert_eq!(plain, watched);
    }
}
