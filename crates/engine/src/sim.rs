//! The simulator: drives a [`Policy`] through an instance source and
//! accounts all costs.
//!
//! Every run goes through one private round loop, `drive_session`, generic
//! over the source, the [`Recorder`] (the run's one observer, which also
//! sees the engine state at the start, after every phase and at the end;
//! DESIGN.md §9) and a round-boundary hook. There are two ways in:
//! [`Simulator::run`]/[`Simulator::run_traced`], the plain path, whose
//! no-op hook compiles to nothing (no [`Snapshot`] bound, no allocation in
//! a steady round), and [`Session`] for every checkpointed, suspended,
//! resumed or streamed run, whose hook captures state at the top of a
//! round, before any of its events, so a resumed run re-emits the identical
//! trace suffix.
//!
//! **Horizons.** A run simulates rounds `0..=horizon` under one of two
//! rules, picked by the source ([`InstanceSource::horizon_is_final`]). A
//! materialized instance's horizon is final, so a resume must present a
//! snapshot taken with exactly that horizon. A stream's grows as it is
//! read, so the loop re-reads it every round, floored by the snapshot's
//! `horizon_hint`, the horizon the checkpointing run already knew: the
//! floor keeps a resumed stream from stopping before that round when the
//! snapshot knew more than the stream has read (a materialized snapshot
//! resumed through a stream). A stream cannot check the hint against input
//! it has not read, so it trusts it.

use rrs_model::{CostLedger, Instance, InstanceSource, MaterializedSource, SnapError};

use crate::checkpoint::{
    CheckpointHook, CheckpointPolicy, EngineState, EngineView, HookVerdict, NoHook, SessionError,
    SessionHook, SessionResult, Snapshot, SnapshotFile, SnapshotSink,
};
use crate::kernel::{RoundKernel, Scratch};
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
        let mut session = self.session();
        let seed = session.fresh(policy);
        match drive_session(&mut session.source, seed, policy, recorder, &mut NoHook) {
            Ok(res) => res.into_outcome(),
            Err(_) => unreachable!("a materialized run cannot fail"),
        }
    }

    /// A [`Session`] over this simulator's instance, locations, speed and
    /// horizon: the entry point for its checkpointed, suspended and resumed
    /// runs. The horizon is final, so a resume needs a snapshot taken with
    /// exactly this horizon.
    pub fn session<'s>(&self) -> Session<'s, MaterializedSource<'a>> {
        debug_assert!(self.inst.check_colors(), "instance references unknown colors");
        let source = MaterializedSource::new(self.inst).with_horizon(self.horizon);
        Session::new(source, self.n_locations).speed(self.speed)
    }
}

/// One run over an [`InstanceSource`]: configured by the builder calls,
/// started by [`Session::run`], with a round kernel of its own. The source
/// picks the horizon rule (see the module docs); [`Simulator::session`]
/// builds a session over a materialized instance. A stream is consumed
/// incrementally, so memory stays bounded by the live state, and a run over
/// an instance's text is byte-identical (trace and `Outcome`) to the
/// materialized run of the same instance.
///
/// ```
/// use rrs_engine::{policy::PinColor, NullRecorder, Session, Simulator};
/// use rrs_model::{InstanceBuilder, TextStream};
///
/// let mut b = InstanceBuilder::new(3);
/// let c = b.color(4);
/// b.arrive(0, c, 2).arrive(4, c, 2);
/// let inst = b.build();
/// let sim = Simulator::new(&inst, 1);
/// // Suspend at the top of round 3, then resume over the streamed text.
/// let run = sim.session().stop_before(3).run(&mut PinColor(c), &mut NullRecorder);
/// let snap = run.unwrap().into_snapshot();
/// let text = rrs_model::to_text(&inst);
/// let stream = Session::new(TextStream::new(text.as_bytes()).unwrap(), 1);
/// let rest = stream.resume(&snap).run(&mut PinColor(c), &mut NullRecorder).unwrap();
/// assert_eq!(rest.into_outcome(), sim.run(&mut PinColor(c)));
/// ```
pub struct Session<'s, S> {
    source: S,
    n_locations: usize,
    speed: u32,
    resume_from: Option<&'s [u8]>,
    plan: CheckpointPolicy,
    sink: Option<SnapshotSink<'s>>,
    stop_before: Option<u64>,
}

impl<'s, S: InstanceSource> Session<'s, S> {
    /// A fresh speed-1 run over `source` with `n_locations` locations, no
    /// checkpoints and no suspension.
    pub fn new(source: S, n_locations: usize) -> Self {
        Session {
            source,
            n_locations,
            speed: 1,
            resume_from: None,
            plan: CheckpointPolicy::Never,
            sink: None,
            stop_before: None,
        }
    }

    /// Set the schedule speed (mini-rounds per round).
    ///
    /// # Panics
    /// Panics if `speed` is 0.
    pub fn speed(mut self, speed: u32) -> Self {
        assert!(speed >= 1, "speed must be at least 1");
        self.speed = speed;
        self
    }

    /// Resume from `snapshot` instead of starting at round 0. The policy
    /// passed to [`Session::run`] must be constructed exactly as for the
    /// checkpointing run; its state is restored after [`Policy::init`].
    /// The recorder receives exactly the events of rounds `k..`, so prefix
    /// plus suffix is byte-identical to the uninterrupted trace, and its
    /// [`Recorder::on_run_start`] sees the decoded snapshot state.
    pub fn resume(mut self, snapshot: &'s [u8]) -> Self {
        self.resume_from = Some(snapshot);
        self
    }

    /// Send a snapshot to `sink` at the top of every round `plan` marks
    /// due, with the round it resumes.
    pub fn checkpoints(mut self, plan: CheckpointPolicy, sink: SnapshotSink<'s>) -> Self {
        self.plan = plan;
        self.sink = Some(sink);
        self
    }

    /// Suspend at the top of `round` and return the snapshot that resumes
    /// it. A round past the horizon lets the run complete instead.
    pub fn stop_before(mut self, round: u64) -> Self {
        self.stop_before = Some(round);
        self
    }

    /// Run `policy` to the horizon or the suspension round, emitting every
    /// event to `recorder`. Fails on a snapshot that does not decode or
    /// does not match this run (locations, speed, Δ, policy, or a final
    /// horizon), and on a source that fails to read.
    pub fn run<P, R>(
        mut self,
        policy: &mut P,
        recorder: &mut R,
    ) -> Result<SessionResult, SessionError>
    where
        P: Snapshot + ?Sized,
        R: Recorder + ?Sized,
    {
        let seed = match self.resume_from {
            None => self.fresh(policy),
            Some(bytes) => self.resume_state(policy, bytes)?,
        };
        let mut hook =
            CheckpointHook { plan: &self.plan, sink: self.sink, stop_before: self.stop_before };
        drive_session(&mut self.source, seed, policy, recorder, &mut hook)
    }

    /// Initialize `policy` for a fresh run and return the engine state
    /// before round 0.
    fn fresh<P: Policy + ?Sized>(&self, policy: &mut P) -> EngineState {
        let delta = self.source.delta();
        policy.init(delta, self.n_locations);
        EngineState::fresh(delta, self.speed, self.n_locations)
    }

    /// The one resume path: parse `snapshot`, check it against this run,
    /// restore `policy` from it and fast-forward the source past the
    /// rounds it already accounts for.
    fn resume_state<P: Snapshot + ?Sized>(
        &mut self,
        policy: &mut P,
        snapshot: &[u8],
    ) -> Result<EngineState, SessionError> {
        let file = SnapshotFile::parse(snapshot)?;
        let delta = self.source.delta();
        file.state.check_resumable(self.n_locations, self.speed, delta)?;
        let horizon = self.source.horizon();
        if self.source.horizon_is_final() && file.state.horizon_hint != horizon {
            return Err(SnapError::Invalid(format!(
                "snapshot was taken with horizon {}, simulator has horizon {horizon} \
                 (same instance and with_horizon required for byte-identical resume)",
                file.state.horizon_hint
            ))
            .into());
        }
        policy.init(delta, self.n_locations);
        file.load_policy(policy)?;
        // The requests of the skipped rounds are discarded.
        for r in 0..file.state.next_round {
            self.source.advance(r)?;
        }
        Ok(file.state)
    }
}

/// Options for [`run_stream_session`]: the engine configuration plus the
/// session's checkpoint behavior. Kept only for the benchmark package
/// (`crates/bench/src/bin/rrs-benchmark`), which builds them; in-repo code
/// configures a [`Session`] instead.
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

/// [`Session::run`] in the seven-argument form the benchmark package
/// (`crates/bench/src/bin/rrs-benchmark`) calls; it goes with that
/// package's next change. `watcher` is a second [`Recorder`] teed after
/// `recorder`. `scratch` goes unused: the session owns its round kernel.
pub fn run_stream_session<Src, P, R, W>(
    source: &mut Src,
    policy: &mut P,
    recorder: &mut R,
    _scratch: &mut Scratch,
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
    let mut session = Session::new(source, opts.n_locations).speed(opts.speed);
    if let Some(snapshot) = opts.resume_from {
        session = session.resume(snapshot);
    }
    if let Some(sink) = sink {
        session = session.checkpoints(opts.plan, sink);
    }
    if let Some(round) = opts.stop_before {
        session = session.stop_before(round);
    }
    session.run(policy, &mut (recorder, watcher))
}

/// The one round loop every run shares, from the engine state `seed`
/// (fresh, or decoded from a snapshot). The horizon is re-read from the
/// source every round, floored by the seed's hint: a stream's grows as it
/// is read, and a final one already equals the hint of any snapshot the
/// run resumed from.
fn drive_session<Src, P, R, H>(
    source: &mut Src,
    seed: EngineState,
    policy: &mut P,
    recorder: &mut R,
    hook: &mut H,
) -> Result<SessionResult, SessionError>
where
    Src: InstanceSource + ?Sized,
    P: Policy + ?Sized,
    R: Recorder + ?Sized,
    H: SessionHook<P>,
{
    let horizon_hint = seed.horizon_hint;
    recorder.on_run_start(&seed, source.horizon().max(horizon_hint));
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
    let mut kernel = RoundKernel::new();
    kernel.restore(pending, slots);
    kernel.ensure_colors(source.colors().len());

    let mut round = start_round;
    loop {
        let horizon = source.horizon().max(horizon_hint);
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
        if let HookVerdict::Suspend(snapshot) = hook.on_round(round, &view, policy) {
            return Ok(SessionResult::Suspended { round, snapshot });
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
    use rrs_model::{ColorId, InstanceBuilder, TextStream};

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
    fn run_stream_session_forwards_to_session() {
        // The benchmark package's seven-argument form gives a session's
        // outcome, trace and checkpoint bytes for a fresh, a stopped and a
        // resumed run.
        let (inst, c) = one_color_instance();
        let text = rrs_model::to_text(&inst);
        let run = |forward: bool, resume_from: Option<&[u8]>, stop_before: Option<u64>| {
            let mut source = TextStream::new(text.as_bytes()).unwrap();
            let (mut rec, mut snaps) = (TraceRecorder::new(), Vec::new());
            let mut sink = |round: u64, bytes: &[u8]| snaps.push((round, bytes.to_vec()));
            let plan = CheckpointPolicy::EveryN(2);
            let result = if forward {
                let opts =
                    StreamOptions { n_locations: 1, speed: 1, resume_from, plan, stop_before };
                let (scratch, watcher) = (&mut Scratch::new(), &mut NullRecorder);
                let sink = Some(&mut sink as SnapshotSink<'_>);
                run_stream_session(
                    &mut source,
                    &mut PinColor(c),
                    &mut rec,
                    scratch,
                    watcher,
                    opts,
                    sink,
                )
            } else {
                let mut session = Session::new(&mut source, 1).checkpoints(plan, &mut sink);
                if let Some(snapshot) = resume_from {
                    session = session.resume(snapshot);
                }
                if let Some(round) = stop_before {
                    session = session.stop_before(round);
                }
                session.run(&mut PinColor(c), &mut rec)
            };
            (result.unwrap(), rec.events, snaps)
        };
        let stopped = run(true, None, Some(5));
        assert_eq!(stopped, run(false, None, Some(5)));
        assert_eq!(run(true, None, None), run(false, None, None));
        let snap = stopped.0.into_snapshot();
        let resumed = run(true, Some(&snap), None);
        assert_eq!(resumed, run(false, Some(&snap), None));
        assert_eq!(resumed.0.into_outcome(), Simulator::new(&inst, 1).run(&mut PinColor(c)));
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
