//! The shadow-model invariant watcher.
//!
//! [`InvariantWatcher`] maintains its own pending-job model — one
//! `BTreeMap<deadline, count>` per color, fed straight from the instance —
//! and falsifies the engine's optimized state against it at every phase
//! boundary. The shadow is deliberately naive: no queues, no `min_due`
//! fast path, no dense scratch — so a bug in the engine's hot loop and a
//! bug in the checker are unlikely to coincide.

use std::collections::BTreeMap;

use rrs_engine::{EngineState, Outcome, PendingStore, Phase, PhaseState, Recorder, Slot};
use rrs_model::{ColorId, ColorMap, ColorSet, Instance};

/// Which simulation phase a violation was detected in, for error context.
#[derive(Clone, Copy, Debug)]
enum CheckPhase {
    Drop,
    Arrival,
    Reconfig,
    Execute,
    End,
}

/// A [`Recorder`] that machine-checks the paper's phase laws (Section 2)
/// against an independent shadow model of the pending jobs. It seeds the
/// shadow from the state the run starts from, so one built with
/// [`InvariantWatcher::new`] supervises a fresh run and a run resumed from
/// a snapshot alike, and the laws hold across the stitch.
///
/// Checked every round:
///
/// * **Drop law** — the drop phase of round `k` removes exactly the jobs
///   with deadline `arrival + D_ℓ = k`, reported per color in consistent
///   order, and the store's full deadline profile matches the shadow.
/// * **Arrival law** — round `k` arrivals are the instance's request for
///   `k`, inserted with deadline `k + D_ℓ`.
/// * **Reconfiguration law** — only a reconfiguration changes the
///   assignment, and its charge equals the number of locations recolored
///   to a non-black color (Δ each; parking is free).
/// * **Execution law** — per mini-round, each color executes at most once,
///   at most its replica count in the current assignment, removing
///   earliest-deadline jobs whose deadlines are strictly in the future.
/// * **Accounting** — at the end, the outcome's arrival/execution/drop
///   totals and the `Δ·reconfigs + drops` cost identity match the
///   watcher's own counts, and every unresolved shadow job has a deadline
///   beyond the simulated horizon.
///
/// Any violation panics immediately with round and phase context.
#[derive(Debug)]
pub struct InvariantWatcher<'a> {
    inst: &'a Instance,
    delta: u64,
    n_locations: usize,
    horizon: u64,
    /// Shadow pending jobs: per color, deadline → count. Paged, so a
    /// huge mostly-idle color universe costs memory only for colors that
    /// actually hold jobs; the store cross-check closes the gap for
    /// untouched colors through the total-count comparison.
    shadow: ColorMap<BTreeMap<u64, u64>>,
    /// The assignment the current mini-round executes on.
    slots: Vec<Slot>,
    /// Colors already executed in the current mini-round.
    exec_seen: ColorSet,
    arrived: u64,
    executed: u64,
    dropped: u64,
    reconfigs: u64,
    began: bool,
}

impl<'a> InvariantWatcher<'a> {
    /// A watcher for runs over `inst`, fresh or resumed. The same instance
    /// must be the one driving the simulator; the watcher cross-checks
    /// arrivals against it.
    pub fn new(inst: &'a Instance) -> Self {
        Self {
            inst,
            delta: inst.delta,
            n_locations: 0,
            horizon: 0,
            shadow: ColorMap::new(),
            slots: Vec::new(),
            exec_seen: ColorSet::new(),
            arrived: 0,
            executed: 0,
            dropped: 0,
            reconfigs: 0,
            began: false,
        }
    }

    /// Jobs checked in: total arrivals observed so far.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Jobs still unresolved in the shadow model.
    pub fn shadow_pending(&self) -> u64 {
        self.shadow.iter().flat_map(|(_, m)| m.values()).sum()
    }

    #[track_caller]
    fn fail(&self, phase: CheckPhase, round: u64, msg: &str) -> ! {
        panic!(
            "invariant violation [{phase:?} phase, round {round}]: {msg} \
             (Δ={}, n={}, horizon={})",
            self.delta, self.n_locations, self.horizon
        );
    }

    /// Full cross-check of the engine store against the shadow: per-color
    /// totals, earliest deadlines, and (when `deep`) the whole profile.
    /// Only colors on live shadow pages are compared individually; a
    /// pending job the store invented for any *other* color still trips
    /// the final total comparison, since per-color matches pin every
    /// live color's contribution.
    fn check_store(&self, phase: CheckPhase, round: u64, pending: &PendingStore, deep: bool) {
        let mut total = 0u64;
        for (c, m) in self.shadow.iter() {
            let want: u64 = m.values().sum();
            total += want;
            if pending.count(c) != want {
                self.fail(
                    phase,
                    round,
                    &format!("color {c}: store holds {} pending, shadow {want}", pending.count(c)),
                );
            }
            let first = m.keys().next().copied();
            if pending.earliest_deadline(c) != first {
                self.fail(
                    phase,
                    round,
                    &format!(
                        "color {c}: earliest deadline {:?} != shadow {first:?}",
                        pending.earliest_deadline(c)
                    ),
                );
            }
            if deep {
                let got: Vec<(u64, u64)> = pending.profile(c).collect();
                let want: Vec<(u64, u64)> = m.iter().map(|(&d, &n)| (d, n)).collect();
                if got != want {
                    self.fail(
                        phase,
                        round,
                        &format!("color {c}: deadline profile {got:?} != shadow {want:?}"),
                    );
                }
            }
        }
        if pending.total() != total {
            self.fail(
                phase,
                round,
                &format!("store total {} != shadow total {total}", pending.total()),
            );
        }
    }

    /// Shadow drop phase: remove every job with deadline <= round (== in
    /// in-order use) and compare the per-color summary, which the engine
    /// reports in ascending color order with zero entries omitted.
    fn check_drops(&mut self, round: u64, dropped: &[(ColorId, u64)], pending: &PendingStore) {
        let mut want: Vec<(ColorId, u64)> = Vec::new();
        for (c, m) in self.shadow.iter_mut() {
            let mut n = 0;
            while let Some((&d, &k)) = m.iter().next() {
                if d > round {
                    break;
                }
                n += k;
                m.remove(&d);
            }
            if n > 0 {
                want.push((c, n));
            }
        }
        if dropped != want {
            self.fail(
                CheckPhase::Drop,
                round,
                &format!("engine dropped {dropped:?}, shadow expects {want:?}"),
            );
        }
        self.dropped += want.iter().map(|&(_, n)| n).sum::<u64>();
        self.check_store(CheckPhase::Drop, round, pending, true);
    }

    /// The arrivals must be the instance's request for this round, and
    /// each job's shadow deadline is arrival + D_ℓ.
    fn check_arrivals(&mut self, round: u64, arrivals: &[(ColorId, u64)], pending: &PendingStore) {
        let expected = self.inst.requests.at(round).pairs();
        if arrivals != expected {
            self.fail(
                CheckPhase::Arrival,
                round,
                &format!("engine fed arrivals {arrivals:?}, instance says {expected:?}"),
            );
        }
        for &(c, n) in arrivals {
            if n == 0 {
                continue;
            }
            let Some(d) = self.inst.colors.try_delay_bound(c) else {
                self.fail(CheckPhase::Arrival, round, &format!("arrival of unknown color {c}"));
            };
            *self.shadow.entry(c).entry(round + d).or_insert(0) += n;
            self.arrived += n;
        }
        self.check_store(CheckPhase::Arrival, round, pending, false);
    }

    fn check_reconfig(&mut self, round: u64, mini: u32, state: &PhaseState<'_>) {
        let (old, new) = (state.previous_slots, state.slots);
        if old.len() != self.n_locations || new.len() != self.n_locations {
            self.fail(
                CheckPhase::Reconfig,
                round,
                &format!(
                    "assignment length drifted: old {}, new {}, expected {}",
                    old.len(),
                    new.len(),
                    self.n_locations
                ),
            );
        }
        // Nothing but a reconfiguration may change the assignment.
        if old != self.slots {
            self.fail(
                CheckPhase::Reconfig,
                round,
                &format!(
                    "mini {mini}: reconfigured from {old:?}, last assignment {:?}",
                    self.slots
                ),
            );
        }
        // Pricing rule: Δ per location recolored to a non-black color;
        // parking (recoloring to black) is free.
        let want = old.iter().zip(new).filter(|(o, n)| o != n && n.is_some()).count() as u64;
        if state.charged != want {
            self.fail(
                CheckPhase::Reconfig,
                round,
                &format!(
                    "mini {mini}: engine charged {} reconfigs, recolor diff is {want}",
                    state.charged
                ),
            );
        }
        self.reconfigs += state.charged;
        self.slots.clear();
        self.slots.extend_from_slice(new);
        self.exec_seen.clear();
    }
}

impl Recorder for InvariantWatcher<'_> {
    /// Seed the shadow from the state the run starts from: empty for a
    /// fresh run, the snapshot's pending profile and counters for a
    /// resumed one.
    fn on_run_start(&mut self, state: &EngineState, horizon: u64) {
        assert_eq!(
            state.ledger.delta, self.inst.delta,
            "watcher instance has Δ={} but the simulator runs Δ={}",
            self.inst.delta, state.ledger.delta
        );
        assert!(state.speed >= 1, "speed must be at least 1");
        self.n_locations = state.n_locations;
        self.horizon = horizon;
        self.shadow = ColorMap::new();
        self.shadow.grow_to(self.inst.colors.len().max(state.pending.num_colors()));
        for i in 0..state.pending.num_colors() {
            let c = ColorId(i as u32);
            let mut profile = state.pending.profile(c).peekable();
            if profile.peek().is_some() {
                self.shadow.entry(c).extend(profile);
            }
        }
        self.slots.clone_from(&state.slots);
        self.arrived = state.arrived;
        self.executed = state.executed;
        self.dropped = state.dropped;
        self.reconfigs = state.ledger.reconfigs;
        self.began = true;
    }

    fn on_phase_end(&mut self, round: u64, mini: u32, phase: Phase, state: &PhaseState<'_>) {
        match phase {
            Phase::Drop => self.check_drops(round, state.dropped, state.pending),
            Phase::Arrival => self.check_arrivals(round, state.arrivals, state.pending),
            Phase::Reconfig => self.check_reconfig(round, mini, state),
            Phase::Execution => self.check_store(CheckPhase::Execute, round, state.pending, false),
        }
    }

    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        if count == 0 {
            return;
        }
        if !self.exec_seen.insert(color) {
            self.fail(
                CheckPhase::Execute,
                round,
                &format!("mini {mini}: color {color} executed twice in one mini-round"),
            );
        }
        let replicas = self.slots.iter().filter(|&&s| s == Some(color)).count() as u64;
        if count > replicas {
            self.fail(
                CheckPhase::Execute,
                round,
                &format!(
                    "mini {mini}: {count} jobs of color {color} executed on {replicas} \
                     configured locations"
                ),
            );
        }
        // Remove earliest-deadline jobs from the shadow; every executed job
        // must still be alive (deadline strictly after this round's drop
        // phase — a deadline-k job was dropped in round k, never executed).
        let m = self.shadow.entry(color);
        let mut left = count;
        while left > 0 {
            let Some((&d, &n)) = m.iter().next() else {
                self.fail(
                    CheckPhase::Execute,
                    round,
                    &format!("mini {mini}: color {color} executed {count} with too few pending"),
                );
            };
            if d <= round {
                self.fail(
                    CheckPhase::Execute,
                    round,
                    &format!("mini {mini}: color {color} executed a job past its deadline {d}"),
                );
            }
            let take = n.min(left);
            left -= take;
            if take == n {
                m.remove(&d);
            } else {
                m.insert(d, n - take);
            }
        }
        self.executed += count;
    }

    fn on_run_end(&mut self, outcome: &Outcome) {
        assert!(self.began, "on_run_end without on_run_start");
        let f = |msg: String| -> ! { self.fail(CheckPhase::End, outcome.rounds, &msg) };
        if outcome.arrived != self.arrived {
            f(format!("outcome.arrived {} != watched {}", outcome.arrived, self.arrived));
        }
        if outcome.executed != self.executed {
            f(format!("outcome.executed {} != watched {}", outcome.executed, self.executed));
        }
        if outcome.dropped != self.dropped || outcome.cost.drops != self.dropped {
            f(format!(
                "drop accounting: outcome {} / ledger {} != watched {}",
                outcome.dropped, outcome.cost.drops, self.dropped
            ));
        }
        if outcome.cost.reconfigs != self.reconfigs {
            f(format!(
                "reconfig accounting: ledger {} != watched {}",
                outcome.cost.reconfigs, self.reconfigs
            ));
        }
        if outcome.cost.delta != self.delta {
            f(format!("ledger Δ {} != instance Δ {}", outcome.cost.delta, self.delta));
        }
        if outcome.total_cost() != self.delta * self.reconfigs + self.dropped {
            f(format!(
                "total cost {} != Δ·reconfigs + drops = {}",
                outcome.total_cost(),
                self.delta * self.reconfigs + self.dropped
            ));
        }
        if outcome.final_slots.len() != self.n_locations {
            f(format!(
                "final assignment has {} locations, expected {}",
                outcome.final_slots.len(),
                self.n_locations
            ));
        }
        // Conservation: arrived = executed + dropped + still-pending, and a
        // job may outlive the run only if its deadline lies beyond the
        // simulated rounds (custom truncated horizons).
        let remaining = self.shadow_pending();
        if self.arrived != self.executed + self.dropped + remaining {
            f(format!(
                "conservation: arrived {} != executed {} + dropped {} + pending {remaining}",
                self.arrived, self.executed, self.dropped
            ));
        }
        for (c, m) in self.shadow.iter() {
            if let Some((&d, _)) = m.iter().next() {
                if d < outcome.rounds {
                    f(format!(
                        "color {c} still holds a job due at {d} after {} simulated rounds",
                        outcome.rounds
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{full_algorithm, DeltaLruEdf};
    use rrs_engine::policy::{DoNothing, PinColor};
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    fn watch<P: rrs_engine::Policy>(inst: &Instance, n: usize, policy: &mut P) -> Outcome {
        let mut w = InvariantWatcher::new(inst);
        let out = Simulator::new(inst, n).run_traced(policy, &mut w);
        assert_eq!(w.arrived(), inst.total_jobs());
        assert_eq!(w.shadow_pending(), 0);
        out
    }

    #[test]
    fn clean_runs_pass_all_checks() {
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(8);
        for blk in 0..6 {
            b.arrive(blk * 2, c0, 2);
        }
        b.arrive(0, c1, 8).arrive(8, c1, 4);
        let inst = b.build();
        let out = watch(&inst, 8, &mut DeltaLruEdf::new());
        assert!(out.conserved());
        let out = watch(&inst, 8, &mut full_algorithm());
        assert!(out.conserved());
        let out = watch(&inst, 2, &mut PinColor(c0));
        assert!(out.conserved());
    }

    #[test]
    fn do_nothing_drops_everything_and_passes() {
        let mut b = InstanceBuilder::new(3);
        let c = b.color(4);
        b.arrive(0, c, 5).arrive(4, c, 1);
        let inst = b.build();
        let out = watch(&inst, 4, &mut DoNothing);
        assert_eq!(out.dropped, 6);
        assert_eq!(out.total_cost(), 6);
    }

    #[test]
    fn speed_two_schedules_pass() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 3);
        let inst = b.build();
        let mut w = InvariantWatcher::new(&inst);
        let out = Simulator::new(&inst, 1).with_speed(2).run_traced(&mut PinColor(c), &mut w);
        assert!(out.conserved());
        assert_eq!(w.shadow_pending(), 0);
    }

    #[test]
    fn extended_horizon_runs_idle_tail_cleanly() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(8);
        b.arrive(0, c, 2);
        let inst = b.build();
        let mut w = InvariantWatcher::new(&inst);
        // `with_horizon` can only extend past the instance horizon; the
        // extra idle rounds must not confuse any phase check.
        let out = Simulator::new(&inst, 0).with_horizon(20).run_traced(&mut DoNothing, &mut w);
        assert!(out.conserved());
        assert_eq!(out.rounds, 21);
        assert_eq!(w.shadow_pending(), 0);
    }

    #[test]
    fn resumed_runs_satisfy_the_watcher() {
        // Checkpoint mid-run, then resume under a fresh watcher, which
        // seeds its shadow from the snapshot state: both halves pass every
        // phase check and the stitched outcome matches the uninterrupted
        // watched run.
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(8);
        for blk in 0..6 {
            b.arrive(blk * 2, c0, 2);
        }
        b.arrive(0, c1, 8).arrive(8, c1, 4);
        let inst = b.build();
        let full = watch(&inst, 8, &mut full_algorithm());

        for k in [1, 4, 9] {
            let sim = Simulator::new(&inst, 8);
            let mut w = InvariantWatcher::new(&inst);
            let snap = sim.checkpoint(&mut full_algorithm(), &mut w, k).into_snapshot();
            let mut w2 = InvariantWatcher::new(&inst);
            let out = sim.resume(&mut full_algorithm(), &mut w2, &snap).unwrap();
            assert_eq!(out, full, "resume at round {k} diverged");
            assert_eq!(w2.arrived(), inst.total_jobs());
            assert_eq!(w2.shadow_pending(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn mismatched_instance_is_caught() {
        // Watch a run with a shadow built from a *different* instance: the
        // arrival law must fire.
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 2);
        let run_inst = b.build();
        b.arrive(4, c, 1);
        let other = b.build();
        let mut w = InvariantWatcher::new(&other);
        Simulator::new(&run_inst, 1)
            .with_horizon(other.horizon())
            .run_traced(&mut PinColor(c), &mut w);
    }

    #[test]
    #[should_panic(expected = "watcher instance has")]
    fn mismatched_delta_is_caught() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 1);
        let inst = b.build();
        let mut b2 = InstanceBuilder::new(3);
        let c2 = b2.color(4);
        b2.arrive(0, c2, 1);
        let other = b2.build();
        let mut w = InvariantWatcher::new(&other);
        Simulator::new(&inst, 1).run_traced(&mut PinColor(c), &mut w);
    }

    #[test]
    #[should_panic(expected = "last assignment")]
    fn assignment_changed_outside_reconfiguration_is_caught() {
        // A run starts with its one location black; a reconfiguration
        // that claims to start from color 0 means something else moved it.
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        let inst = b.build();
        let start = EngineState {
            next_round: 0,
            speed: 1,
            n_locations: 1,
            horizon_hint: 0,
            slots: vec![None],
            ledger: rrs_model::CostLedger::new(inst.delta),
            arrived: 0,
            executed: 0,
            dropped: 0,
            pending: PendingStore::new(),
        };
        let mut w = InvariantWatcher::new(&inst);
        w.on_run_start(&start, 0);
        let state = PhaseState {
            dropped: &[],
            arrivals: &[],
            previous_slots: &[Some(c)],
            slots: &[Some(c)],
            charged: 0,
            pending: &start.pending,
        };
        w.on_phase_end(0, 0, Phase::Reconfig, &state);
    }
}
