//! The simulator: drives a [`Policy`] through an [`Instance`] and accounts
//! all costs.
//!
//! All run variants — plain, traced, checkpointed, resumed, and streamed —
//! share one private round loop, `drive_session`, generic over the
//! instance source, the [`Recorder`] and a round-boundary hook. It runs
//! each round's phases through the [`Scratch`] round kernel and does the
//! accounting between the kernel's calls. The recorder is the run's one
//! observer: it sees every event and, at the start of the run, the end of
//! every phase and the end of the run, the engine state itself — which is
//! all an invariant checker needs (DESIGN.md §9). The plain paths use the
//! no-op recorder and hook, which monomorphize to nothing (keeping them
//! free of any [`Snapshot`] bound); the checkpoint paths install a hook
//! that captures state at the top of a round, before any of the round's
//! events, so a resumed run re-emits the identical trace suffix.

use rrs_model::{CostLedger, Instance, InstanceSource, MaterializedSource, SnapError};

use crate::checkpoint::{
    CheckpointHook, CheckpointPolicy, EngineState, EngineView, HookVerdict, NoHook, SessionError,
    SessionHook, SessionResult, Snapshot, SnapshotFile, SnapshotSink,
};
use crate::kernel::Scratch;
use crate::policy::{Policy, Slot};
use crate::trace::{NullRecorder, Phase, Recorder};

/// The result of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Full cost accounting (Δ, reconfiguration count, drop count).
    pub cost: CostLedger,
    /// Total jobs that arrived.
    pub arrived: u64,
    /// Total jobs executed before their deadlines.
    pub executed: u64,
    /// Total jobs dropped (equals `cost.drops`).
    pub dropped: u64,
    /// Rounds simulated (`horizon + 1`, so the final drop phase runs).
    pub rounds: u64,
    /// Final assignment, for callers that chain simulations.
    pub final_slots: Vec<Slot>,
}

impl Outcome {
    /// Total cost `Δ·reconfigs + drops`.
    pub fn total_cost(&self) -> u64 {
        self.cost.total()
    }

    /// Conservation identity: every arrived job was executed or dropped.
    /// Holds whenever the simulation ran to the instance horizon.
    pub fn conserved(&self) -> bool {
        self.arrived == self.executed + self.dropped
    }
}

/// Simulator configuration: the instance, the number of locations given to
/// the policy, and the schedule speed (mini-rounds per round).
pub struct Simulator<'a> {
    inst: &'a Instance,
    n_locations: usize,
    speed: u32,
    horizon: u64,
}

impl<'a> Simulator<'a> {
    /// A speed-1 simulator over the instance's natural horizon (every job
    /// resolves by then).
    pub fn new(inst: &'a Instance, n_locations: usize) -> Self {
        Self { inst, n_locations, speed: 1, horizon: inst.horizon() }
    }

    /// Set the schedule speed (`s ≥ 1` mini-rounds per round; Section 3.3's
    /// double-speed schedules use `s = 2`).
    pub fn with_speed(mut self, speed: u32) -> Self {
        assert!(speed >= 1, "speed must be at least 1");
        self.speed = speed;
        self
    }

    /// Extend the simulated horizon (useful when replaying schedules longer
    /// than the instance's own horizon). The simulator always runs at least
    /// to the instance horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = self.horizon.max(horizon);
        self
    }

    /// Number of locations the policy controls.
    pub fn n_locations(&self) -> usize {
        self.n_locations
    }

    /// The instance being simulated.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// The schedule speed (mini-rounds per round).
    pub fn speed(&self) -> u32 {
        self.speed
    }

    /// The horizon the run will simulate to (inclusive).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Run a policy with no tracing.
    pub fn run<P: Policy>(&self, policy: &mut P) -> Outcome {
        self.run_traced(policy, &mut NullRecorder)
    }

    /// Run a policy, emitting every event to `recorder`.
    pub fn run_traced<P: Policy, R: Recorder>(&self, policy: &mut P, recorder: &mut R) -> Outcome {
        let seed = self.start(policy);
        self.drive(seed, policy, recorder, &mut NoHook).into_outcome()
    }

    /// Run from round 0 and suspend at the top of `at_round`, returning the
    /// snapshot that resumes it (events of rounds `0..at_round` go to
    /// `recorder`). If `at_round` is past the horizon the run completes
    /// instead.
    pub fn checkpoint<P, R>(&self, policy: &mut P, recorder: &mut R, at_round: u64) -> SessionResult
    where
        P: Snapshot + ?Sized,
        R: Recorder,
    {
        let seed = self.start(policy);
        let mut hook = CheckpointHook {
            plan: &CheckpointPolicy::Never,
            sink: None,
            stop_before: Some(at_round),
        };
        self.drive(seed, policy, recorder, &mut hook)
    }

    /// Run to completion, emitting a snapshot to `sink` at the top of every
    /// round `plan` marks due.
    pub fn run_checkpointed<P, R>(
        &self,
        policy: &mut P,
        recorder: &mut R,
        plan: &CheckpointPolicy,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Outcome
    where
        P: Snapshot + ?Sized,
        R: Recorder,
    {
        let seed = self.start(policy);
        let mut hook = CheckpointHook { plan, sink: Some(sink), stop_before: None };
        self.drive(seed, policy, recorder, &mut hook).into_outcome()
    }

    /// Resume a run from a snapshot taken by [`Simulator::checkpoint`] (or
    /// a due-round emission of [`Simulator::run_checkpointed`]) over the
    /// same instance and configuration. `policy` must be constructed
    /// exactly as for the checkpointing run; its state is restored from the
    /// snapshot after [`Policy::init`]. The `recorder` receives exactly the
    /// events of rounds `k..`, so prefix + suffix is byte-identical to the
    /// uninterrupted trace, and its [`Recorder::on_run_start`] sees the
    /// decoded snapshot state.
    pub fn resume<P, R>(
        &self,
        policy: &mut P,
        recorder: &mut R,
        snapshot: &[u8],
    ) -> Result<Outcome, SnapError>
    where
        P: Snapshot + ?Sized,
        R: Recorder,
    {
        debug_assert!(self.inst.check_colors(), "instance references unknown colors");
        let file = SnapshotFile::parse(snapshot)?;
        file.state.check_resumable(self.n_locations, self.speed, self.inst.delta)?;
        if file.state.horizon_hint != self.horizon {
            return Err(SnapError::Invalid(format!(
                "snapshot was taken with horizon {}, simulator has horizon {} \
                 (same instance and with_horizon required for byte-identical resume)",
                file.state.horizon_hint, self.horizon
            )));
        }
        policy.init(self.inst.delta, self.n_locations);
        file.load_policy(policy)?;
        Ok(self.drive(file.state, policy, recorder, &mut NoHook).into_outcome())
    }

    /// Initialize `policy` for a fresh run and return the engine state
    /// before round 0.
    fn start<P: Policy + ?Sized>(&self, policy: &mut P) -> EngineState {
        debug_assert!(self.inst.check_colors(), "instance references unknown colors");
        policy.init(self.inst.delta, self.n_locations);
        EngineState::fresh(self.inst.delta, self.speed, self.n_locations)
    }

    /// Drive the instance from `seed` to the horizon (or a hook's
    /// suspension) with a private [`Scratch`]. A materialized source never
    /// fails.
    fn drive<P, R, H>(
        &self,
        seed: EngineState,
        policy: &mut P,
        recorder: &mut R,
        hook: &mut H,
    ) -> SessionResult
    where
        P: Policy + ?Sized,
        R: Recorder,
        H: SessionHook<P>,
    {
        let mut source = MaterializedSource::new(self.inst);
        let horizon = Some(self.horizon);
        let scratch = &mut Scratch::new();
        match drive_session(&mut source, horizon, seed, policy, recorder, scratch, hook) {
            Ok(res) => res,
            Err(_) => unreachable!("a materialized run cannot fail"),
        }
    }
}

/// Options for [`run_stream_session`]: the engine configuration plus the
/// session's checkpoint behavior.
#[derive(Debug, Default)]
pub struct StreamOptions<'s> {
    /// Number of locations the policy controls.
    pub n_locations: usize,
    /// Schedule speed (mini-rounds per round); 0 is rejected.
    pub speed: u32,
    /// Resume from this snapshot instead of starting at round 0.
    pub resume_from: Option<&'s [u8]>,
    /// Emit snapshots at the rounds this plan marks due.
    pub plan: CheckpointPolicy,
    /// Suspend at the top of this round and return its snapshot.
    pub stop_before: Option<u64>,
}

/// Drive a policy over a streaming [`InstanceSource`] without ever
/// materializing the full instance: the request sequence is consumed
/// incrementally and memory stays bounded by the live state (pending jobs,
/// policy state), not the horizon.
///
/// The horizon is discovered as the stream is read: the run continues while
/// `round <= max(source.horizon(), snapshot horizon hint)`, which the
/// source's look-ahead contract keeps from stopping short across arrival
/// gaps. A streamed run over an instance's text encoding is byte-identical
/// (trace and `Outcome`) to the materialized run of the same instance.
///
/// `watcher` is a second [`Recorder`] teed after `recorder` — a run's
/// supervisor, say, next to its trace sink. `scratch` is the round
/// kernel's workspace: a caller running many sessions can reuse one so the
/// round loop never re-grows its buffers; outcomes are identical either
/// way.
pub fn run_stream_session<Src, P, R, W>(
    source: &mut Src,
    policy: &mut P,
    recorder: &mut R,
    scratch: &mut Scratch,
    watcher: &mut W,
    opts: StreamOptions<'_>,
    sink: Option<SnapshotSink<'_>>,
) -> Result<SessionResult, SessionError>
where
    Src: InstanceSource + ?Sized,
    P: Snapshot + ?Sized,
    R: Recorder + ?Sized,
    W: Recorder + ?Sized,
{
    assert!(opts.speed >= 1, "speed must be at least 1");
    let delta = source.delta();
    let seed = match opts.resume_from {
        None => {
            policy.init(delta, opts.n_locations);
            EngineState::fresh(delta, opts.speed, opts.n_locations)
        }
        Some(bytes) => {
            let file = SnapshotFile::parse(bytes)?;
            file.state.check_resumable(opts.n_locations, opts.speed, delta)?;
            policy.init(delta, opts.n_locations);
            file.load_policy(policy)?;
            // Fast-forward the stream past the prefix the checkpoint
            // already accounts for; the requests themselves are discarded.
            for r in 0..file.state.next_round {
                source.advance(r)?;
            }
            file.state
        }
    };
    let mut hook = CheckpointHook { plan: &opts.plan, sink, stop_before: opts.stop_before };
    drive_session(source, None, seed, policy, &mut (recorder, watcher), scratch, &mut hook)
}

/// The one round loop every run variant shares, from the engine state
/// `seed` (fresh, or decoded from a snapshot). `fixed_horizon` is `Some`
/// for materialized runs (the `Simulator` knows its horizon up front) and
/// `None` for streamed runs, where the loop re-reads the source's growing
/// horizon each round (floored by the seed's hint so a resumed run never
/// finishes earlier than the uninterrupted one).
fn drive_session<Src, P, R, H>(
    source: &mut Src,
    fixed_horizon: Option<u64>,
    seed: EngineState,
    policy: &mut P,
    recorder: &mut R,
    kernel: &mut Scratch,
    hook: &mut H,
) -> Result<SessionResult, SessionError>
where
    Src: InstanceSource + ?Sized,
    P: Policy + ?Sized,
    R: Recorder,
    H: SessionHook<P>,
{
    let horizon_hint = seed.horizon_hint;
    let horizon_now = |src: &Src| fixed_horizon.unwrap_or_else(|| src.horizon().max(horizon_hint));
    recorder.on_run_start(&seed, horizon_now(source));
    let EngineState {
        next_round: start_round,
        speed,
        n_locations,
        slots,
        mut ledger,
        mut arrived,
        mut executed,
        dropped: mut dropped_total,
        pending,
        ..
    } = seed;
    debug_assert_eq!(slots.len(), n_locations);
    let delta = source.delta();
    kernel.restore(pending, slots);
    kernel.ensure_colors(source.colors().len());

    let mut round = start_round;
    loop {
        let horizon = horizon_now(source);
        if round > horizon {
            break;
        }
        // Streams may declare colors between rounds; keep the pending
        // store covering them (a no-op for materialized sources).
        kernel.ensure_colors(source.colors().len());

        let view = EngineView {
            speed,
            n_locations,
            horizon,
            slots: kernel.slots(),
            ledger: &ledger,
            arrived,
            executed,
            dropped: dropped_total,
            pending: kernel.pending(),
        };
        match hook.on_round(round, &view, policy) {
            HookVerdict::Continue => {}
            HookVerdict::Suspend(snapshot) => {
                kernel.take();
                return Ok(SessionResult::Suspended { round, snapshot });
            }
        }

        recorder.on_round_start(round);

        // Phase 1: drop.
        recorder.on_phase_start(round, 0, Phase::Drop);
        let d = kernel.drop_due(round);
        dropped_total += d;
        ledger.add_drops(d);
        for &(c, n) in kernel.dropped() {
            recorder.on_drop(round, c, n);
        }
        recorder.on_phase_end(round, 0, Phase::Drop, &kernel.phase_state(0));

        // Phase 2: arrival.
        recorder.on_phase_start(round, 0, Phase::Arrival);
        source.advance(round)?;
        for &(c, n) in source.current().pairs() {
            kernel.arrive(c, round + source.colors().delay_bound(c), n);
            arrived += n;
            recorder.on_arrive(round, c, n);
        }
        recorder.on_phase_end(round, 0, Phase::Arrival, &kernel.phase_state(0));

        for mini in 0..speed {
            // Phase 3: reconfiguration, charged Δ per location recolored
            // to a non-black color.
            recorder.on_phase_start(round, mini, Phase::Reconfig);
            kernel.reconfigure(policy, source.colors(), round, mini, speed, delta);
            let mut reconfigs = 0;
            for (i, (o, n)) in kernel.previous_slots().iter().zip(kernel.slots()).enumerate() {
                if o != n {
                    recorder.on_reconfig(round, mini, i, *o, *n);
                    if n.is_some() {
                        reconfigs += 1;
                    }
                }
            }
            ledger.add_reconfigs(reconfigs);
            recorder.on_phase_end(round, mini, Phase::Reconfig, &kernel.phase_state(reconfigs));

            // Phase 4: execution.
            recorder.on_phase_start(round, mini, Phase::Execution);
            kernel.execute(|c, e| {
                executed += e;
                recorder.on_execute(round, mini, c, e);
            });
            recorder.on_phase_end(round, mini, Phase::Execution, &kernel.phase_state(reconfigs));
        }
        recorder.on_round_end(round);
        round += 1;
    }

    let (pending, final_slots) = kernel.take();
    debug_assert_eq!(pending.total(), 0, "jobs pending past the horizon");
    let outcome = Outcome {
        cost: ledger,
        arrived,
        executed,
        dropped: dropped_total,
        rounds: round,
        final_slots,
    };
    recorder.on_run_end(&outcome);
    Ok(SessionResult::Completed(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DoNothing, PinColor};
    use crate::trace::{SummaryRecorder, TraceRecorder};
    use rrs_model::{ColorId, InstanceBuilder};

    fn one_color_instance() -> (Instance, ColorId) {
        let mut b = InstanceBuilder::new(3);
        let c = b.color(4);
        b.arrive(0, c, 2).arrive(4, c, 2);
        (b.build(), c)
    }

    #[test]
    fn do_nothing_drops_everything() {
        let (inst, _) = one_color_instance();
        let out = Simulator::new(&inst, 2).run(&mut DoNothing);
        assert_eq!(out.arrived, 4);
        assert_eq!(out.executed, 0);
        assert_eq!(out.dropped, 4);
        assert_eq!(out.cost.reconfigs, 0);
        assert_eq!(out.total_cost(), 4);
        assert!(out.conserved());
    }

    #[test]
    fn pinned_color_executes_everything() {
        let (inst, c) = one_color_instance();
        let out = Simulator::new(&inst, 1).run(&mut PinColor(c));
        // One reconfiguration (black -> c in round 0), zero drops: 2 jobs
        // per 4-round block on one resource.
        assert_eq!(out.cost.reconfigs, 1);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.executed, 4);
        assert_eq!(out.total_cost(), 3);
    }

    #[test]
    fn drop_phase_precedes_execution() {
        // One job with bound 1 arriving in round 0 must execute in round 0
        // or be dropped in round 1's drop phase.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 2);
        let inst = b.build();
        let out = Simulator::new(&inst, 1).run(&mut PinColor(c));
        assert_eq!(out.executed, 1);
        assert_eq!(out.dropped, 1);
    }

    #[test]
    fn double_speed_executes_twice_per_round() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 2);
        let inst = b.build();
        let out = Simulator::new(&inst, 1).with_speed(2).run(&mut PinColor(c));
        assert_eq!(out.executed, 2);
        assert_eq!(out.dropped, 0);
        // Reconfiguration charged once: the second mini-round keeps c.
        assert_eq!(out.cost.reconfigs, 1);
    }

    #[test]
    fn replication_executes_in_parallel() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 3);
        let inst = b.build();
        let out = Simulator::new(&inst, 2).run(&mut PinColor(c));
        assert_eq!(out.executed, 2);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.cost.reconfigs, 2);
    }

    #[test]
    fn trace_matches_outcome() {
        let (inst, c) = one_color_instance();
        let mut rec = TraceRecorder::new();
        let out = Simulator::new(&inst, 1).run_traced(&mut PinColor(c), &mut rec);
        assert_eq!(rec.total_drops(), out.dropped);
        assert_eq!(rec.total_reconfigs(), out.cost.reconfigs);
        assert_eq!(rec.total_executed(), out.executed);
    }

    #[test]
    fn summary_covers_every_round() {
        let (inst, c) = one_color_instance();
        let mut rec = SummaryRecorder::new();
        let out = Simulator::new(&inst, 1).run_traced(&mut PinColor(c), &mut rec);
        assert_eq!(rec.rounds.len() as u64, out.rounds);
        let drops: u64 = rec.rounds.iter().map(|r| r.drops).sum();
        assert_eq!(drops, out.dropped);
    }

    #[test]
    fn horizon_includes_final_drop_phase() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 1);
        let inst = b.build();
        let out = Simulator::new(&inst, 1).run(&mut DoNothing);
        // Horizon is 4; the job is dropped in round 4's drop phase.
        assert_eq!(out.rounds, 5);
        assert_eq!(out.dropped, 1);
    }

    #[test]
    fn empty_instance_runs_one_round() {
        let inst = InstanceBuilder::new(1).build();
        let out = Simulator::new(&inst, 4).run(&mut DoNothing);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.total_cost(), 0);
        assert!(out.conserved());
    }

    #[test]
    fn reused_scratch_gives_identical_outcomes() {
        let (inst, c) = one_color_instance();
        let mut scratch = Scratch::new();
        let mut session = |policy: &mut dyn Snapshot, n_locations| {
            let opts = StreamOptions { n_locations, speed: 1, ..Default::default() };
            let source = &mut MaterializedSource::new(&inst);
            run_stream_session(
                source,
                policy,
                &mut NullRecorder,
                &mut scratch,
                &mut NullRecorder,
                opts,
                None,
            )
            .map(SessionResult::into_outcome)
        };
        let a = session(&mut PinColor(c), 1).unwrap();
        let b = session(&mut DoNothing, 2).unwrap();
        assert_eq!(a, Simulator::new(&inst, 1).run(&mut PinColor(c)));
        assert_eq!(b, Simulator::new(&inst, 2).run(&mut DoNothing));
    }

    #[test]
    fn with_horizon_extends_but_never_shrinks() {
        let (inst, _) = one_color_instance();
        let sim = Simulator::new(&inst, 1).with_horizon(2);
        let out = sim.run(&mut DoNothing);
        assert_eq!(out.rounds, 9); // natural horizon 8 wins
        let out2 = Simulator::new(&inst, 1).with_horizon(20).run(&mut DoNothing);
        assert_eq!(out2.rounds, 21);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::policy::{Observation, PinColor};
    use crate::trace::PhaseState;
    use rrs_model::{ColorId, InstanceBuilder};

    /// A recorder that counts the state hooks, to pin the call protocol.
    #[derive(Default)]
    struct HookCounter {
        starts: u32,
        phase_ends: [u32; 4],
        executes: u32,
        ends: u32,
    }

    impl Recorder for HookCounter {
        fn on_run_start(&mut self, _state: &EngineState, _horizon: u64) {
            self.starts += 1;
        }
        fn on_execute(&mut self, _round: u64, _mini: u32, _color: ColorId, _count: u64) {
            self.executes += 1;
        }
        fn on_phase_end(&mut self, _r: u64, _m: u32, phase: Phase, _s: &PhaseState<'_>) {
            self.phase_ends[phase.index()] += 1;
        }
        fn on_run_end(&mut self, _outcome: &Outcome) {
            self.ends += 1;
        }
    }

    fn two_jobs() -> (Instance, ColorId) {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 2);
        (b.build(), c)
    }

    #[test]
    fn state_hooks_fire_once_per_phase() {
        let (inst, c) = two_jobs();
        let mut rec = HookCounter::default();
        let out = Simulator::new(&inst, 1).run_traced(&mut PinColor(c), &mut rec);
        assert_eq!((rec.starts, rec.ends), (1, 1));
        // Speed 1: each of the four phases ends once per round.
        assert_eq!(rec.phase_ends.map(u64::from), [out.rounds; 4]);
        // on_execute fires only for colors that actually executed jobs.
        assert_eq!(rec.executes, 2);
    }

    #[test]
    fn speed_multiplies_mini_round_hooks_only() {
        let (inst, c) = two_jobs();
        let mut rec = HookCounter::default();
        let out = Simulator::new(&inst, 1).with_speed(3).run_traced(&mut PinColor(c), &mut rec);
        let r = out.rounds;
        assert_eq!(rec.phase_ends.map(u64::from), [r, r, 3 * r, 3 * r]);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let mut b = InstanceBuilder::new(2);
        let c = b.color(4);
        b.arrive(0, c, 3).arrive(4, c, 2);
        let inst = b.build();
        let plain = Simulator::new(&inst, 2).run(&mut PinColor(c));
        let observed =
            Simulator::new(&inst, 2).run_traced(&mut PinColor(c), &mut HookCounter::default());
        assert_eq!(plain, observed);
    }

    #[test]
    fn triple_speed_triples_execution_capacity() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(1);
        b.arrive(0, c, 3);
        let inst = b.build();
        let out = Simulator::new(&inst, 1).with_speed(3).run(&mut PinColor(c));
        assert_eq!(out.executed, 3);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.cost.reconfigs, 1, "mini-rounds after the first keep the color");
    }

    #[test]
    fn speed_observations_carry_mini_round_indices() {
        struct MiniCheck {
            seen: Vec<(u64, u32)>,
        }
        impl crate::policy::Policy for MiniCheck {
            fn name(&self) -> &str {
                "mini-check"
            }
            fn reconfigure(&mut self, obs: &Observation<'_>, _out: &mut Vec<Slot>) {
                self.seen.push((obs.round, obs.mini_round));
                assert_eq!(obs.speed, 2);
                if obs.mini_round > 0 {
                    assert!(obs.arrivals.is_empty(), "arrivals only on mini 0");
                    assert!(obs.dropped.is_empty(), "drops only on mini 0");
                }
            }
        }
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 1);
        let inst = b.build();
        let mut p = MiniCheck { seen: Vec::new() };
        Simulator::new(&inst, 1).with_speed(2).run(&mut p);
        assert_eq!(p.seen, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "speed must be at least 1")]
    fn zero_speed_rejected() {
        let inst = InstanceBuilder::new(1).build();
        let _ = Simulator::new(&inst, 1).with_speed(0);
    }
}
