//! Trace recording: optional observers of a simulation run.

use rrs_model::ColorId;

use crate::checkpoint::EngineState;
use crate::pending::PendingStore;
use crate::policy::{ColorCounts, Slot};
use crate::sim::Outcome;

/// One observable event in a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Drop phase of `round` dropped `count` jobs of `color`.
    Drop { round: u64, color: ColorId, count: u64 },
    /// Arrival phase of `round` received `count` jobs of `color`.
    Arrive { round: u64, color: ColorId, count: u64 },
    /// Reconfiguration in (`round`, `mini`) recolored `location`.
    Reconfig { round: u64, mini: u32, location: usize, from: Slot, to: Slot },
    /// Execution in (`round`, `mini`) ran `count` jobs of `color`.
    Execute { round: u64, mini: u32, color: ColorId, count: u64 },
}

/// The four phases of a round (Section 2), in execution order. Drop and
/// arrival happen once per round; reconfiguration and execution repeat once
/// per mini-round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase 1: expired pending jobs are dropped.
    Drop,
    /// Phase 2: the round's request arrives.
    Arrival,
    /// Phase 3: the policy recolors locations.
    Reconfig,
    /// Phase 4: configured locations execute pending jobs.
    Execution,
}

impl Phase {
    /// All phases in round order.
    pub const ALL: [Phase; 4] = [Phase::Drop, Phase::Arrival, Phase::Reconfig, Phase::Execution];

    /// Stable lowercase name (used by sinks and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Drop => "drop",
            Phase::Arrival => "arrival",
            Phase::Reconfig => "reconfig",
            Phase::Execution => "execution",
        }
    }

    /// Dense index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::Drop => 0,
            Phase::Arrival => 1,
            Phase::Reconfig => 2,
            Phase::Execution => 3,
        }
    }
}

/// The engine state at the end of a phase, lent to
/// [`Recorder::on_phase_end`]. The references point into the live round
/// loop and are valid for the call only.
#[derive(Clone, Copy, Debug)]
pub struct PhaseState<'a> {
    /// The round's drops, in ascending color order, zero counts omitted.
    pub dropped: &'a ColorCounts,
    /// The round's arrivals, in ascending color order.
    pub arrivals: &'a ColorCounts,
    /// The assignment before the round's latest reconfiguration.
    pub previous_slots: &'a [Slot],
    /// The current assignment.
    pub slots: &'a [Slot],
    /// Locations the latest reconfiguration of this round was charged Δ
    /// for; 0 before the round's first reconfiguration.
    pub charged: u64,
    /// The pending store, as the next phase will see it.
    pub pending: &'a PendingStore,
}

/// Observer of a simulation run: its events, and the engine state at the
/// start of the run, at the end of every phase and at the end of the run.
/// All methods default to no-ops so recorders implement only what they
/// need; one that overrides none of them compiles to nothing. Recorders
/// observe but never influence a run: outcomes are identical with any
/// recorder attached.
pub trait Recorder {
    /// Once before the first round, with the state the run starts from
    /// (fresh, or decoded from a snapshot) and the horizon known then.
    fn on_run_start(&mut self, state: &EngineState, horizon: u64) {
        let _ = (state, horizon);
    }
    /// Start of a round, before its drop phase.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }
    /// Start of a phase within (`round`, `mini`). Drop and arrival fire with
    /// `mini = 0`; reconfiguration and execution fire once per mini-round.
    fn on_phase_start(&mut self, round: u64, mini: u32, phase: Phase) {
        let _ = (round, mini, phase);
    }
    /// Jobs dropped in the drop phase.
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        let _ = (round, color, count);
    }
    /// Jobs received in the arrival phase.
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        let _ = (round, color, count);
    }
    /// A location recolored in the reconfiguration phase.
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        let _ = (round, mini, location, from, to);
    }
    /// Jobs of one color executed in the execution phase.
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        let _ = (round, mini, color, count);
    }
    /// End of a phase within (`round`, `mini`), after its events.
    fn on_phase_end(&mut self, round: u64, mini: u32, phase: Phase, state: &PhaseState<'_>) {
        let _ = (round, mini, phase, state);
    }
    /// End of a round, after its last execution phase.
    fn on_round_end(&mut self, round: u64) {
        let _ = round;
    }
    /// Once after the final round, with the outcome about to be returned.
    /// A run suspended at a checkpoint does not reach it.
    fn on_run_end(&mut self, outcome: &Outcome) {
        let _ = outcome;
    }
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn on_run_start(&mut self, state: &EngineState, horizon: u64) {
        (**self).on_run_start(state, horizon);
    }
    fn on_round_start(&mut self, round: u64) {
        (**self).on_round_start(round);
    }
    fn on_phase_start(&mut self, round: u64, mini: u32, phase: Phase) {
        (**self).on_phase_start(round, mini, phase);
    }
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        (**self).on_drop(round, color, count);
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        (**self).on_arrive(round, color, count);
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        (**self).on_reconfig(round, mini, location, from, to);
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        (**self).on_execute(round, mini, color, count);
    }
    fn on_phase_end(&mut self, round: u64, mini: u32, phase: Phase, state: &PhaseState<'_>) {
        (**self).on_phase_end(round, mini, phase, state);
    }
    fn on_round_end(&mut self, round: u64) {
        (**self).on_round_end(round);
    }
    fn on_run_end(&mut self, outcome: &Outcome) {
        (**self).on_run_end(outcome);
    }
}

/// Tee: drive two recorders from one run (e.g. a JSONL sink plus a phase
/// timer). Nest tees for more than two.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    fn on_run_start(&mut self, state: &EngineState, horizon: u64) {
        self.0.on_run_start(state, horizon);
        self.1.on_run_start(state, horizon);
    }
    fn on_round_start(&mut self, round: u64) {
        self.0.on_round_start(round);
        self.1.on_round_start(round);
    }
    fn on_phase_start(&mut self, round: u64, mini: u32, phase: Phase) {
        self.0.on_phase_start(round, mini, phase);
        self.1.on_phase_start(round, mini, phase);
    }
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        self.0.on_drop(round, color, count);
        self.1.on_drop(round, color, count);
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        self.0.on_arrive(round, color, count);
        self.1.on_arrive(round, color, count);
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        self.0.on_reconfig(round, mini, location, from, to);
        self.1.on_reconfig(round, mini, location, from, to);
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        self.0.on_execute(round, mini, color, count);
        self.1.on_execute(round, mini, color, count);
    }
    fn on_phase_end(&mut self, round: u64, mini: u32, phase: Phase, state: &PhaseState<'_>) {
        self.0.on_phase_end(round, mini, phase, state);
        self.1.on_phase_end(round, mini, phase, state);
    }
    fn on_round_end(&mut self, round: u64) {
        self.0.on_round_end(round);
        self.1.on_round_end(round);
    }
    fn on_run_end(&mut self, outcome: &Outcome) {
        self.0.on_run_end(outcome);
        self.1.on_run_end(outcome);
    }
}

/// Discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Records the full event stream in memory (for tests and small
/// analyses: memory grows with the trace).
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    /// Events in occurrence order.
    pub events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// A fresh empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total drops recorded.
    pub fn total_drops(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { count, .. } => Some(*count),
                _ => None,
            })
            .sum()
    }

    /// Total reconfigurations recorded (recolorings to non-black).
    pub fn total_reconfigs(&self) -> u64 {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Reconfig { to: Some(_), .. })).count()
            as u64
    }

    /// Total executions recorded.
    pub fn total_executed(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Execute { count, .. } => Some(*count),
                _ => None,
            })
            .sum()
    }
}

impl Recorder for TraceRecorder {
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        self.events.push(TraceEvent::Drop { round, color, count });
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        self.events.push(TraceEvent::Arrive { round, color, count });
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        self.events.push(TraceEvent::Reconfig { round, mini, location, from, to });
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        self.events.push(TraceEvent::Execute { round, mini, color, count });
    }
}

/// Per-round aggregate counters, cheap enough for long runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round index.
    pub round: u64,
    /// Jobs dropped in the round's drop phase.
    pub drops: u64,
    /// Jobs arrived.
    pub arrivals: u64,
    /// Locations recolored to non-black.
    pub reconfigs: u64,
    /// Jobs executed.
    pub executed: u64,
}

/// Records one [`RoundSummary`] per round.
#[derive(Clone, Debug, Default)]
pub struct SummaryRecorder {
    /// Summaries in round order.
    pub rounds: Vec<RoundSummary>,
}

impl SummaryRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn cur(&mut self, round: u64) -> &mut RoundSummary {
        debug_assert!(self.rounds.last().is_some_and(|r| r.round == round));
        self.rounds.last_mut().expect("round started")
    }
}

impl Recorder for SummaryRecorder {
    fn on_round_start(&mut self, round: u64) {
        self.rounds.push(RoundSummary { round, ..Default::default() });
    }
    fn on_drop(&mut self, round: u64, _color: ColorId, count: u64) {
        self.cur(round).drops += count;
    }
    fn on_arrive(&mut self, round: u64, _color: ColorId, count: u64) {
        self.cur(round).arrivals += count;
    }
    fn on_reconfig(&mut self, round: u64, _mini: u32, _location: usize, _from: Slot, to: Slot) {
        if to.is_some() {
            self.cur(round).reconfigs += 1;
        }
    }
    fn on_execute(&mut self, round: u64, _mini: u32, _color: ColorId, count: u64) {
        self.cur(round).executed += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_recorder_totals() {
        let mut t = TraceRecorder::new();
        t.on_drop(0, ColorId(0), 2);
        t.on_reconfig(0, 0, 1, None, Some(ColorId(0)));
        t.on_reconfig(0, 0, 2, Some(ColorId(0)), None);
        t.on_execute(0, 0, ColorId(0), 3);
        assert_eq!(t.total_drops(), 2);
        assert_eq!(t.total_reconfigs(), 1);
        assert_eq!(t.total_executed(), 3);
        assert_eq!(t.events.len(), 4);
    }

    #[test]
    fn tee_drives_both_recorders() {
        let mut pair = (TraceRecorder::new(), SummaryRecorder::new());
        pair.on_round_start(0);
        pair.on_drop(0, ColorId(0), 2);
        pair.on_execute(0, 0, ColorId(0), 1);
        assert_eq!(pair.0.events.len(), 2);
        assert_eq!(pair.1.rounds[0].drops, 2);
        assert_eq!(pair.1.rounds[0].executed, 1);
    }

    #[test]
    fn phase_names_and_indices_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["drop", "arrival", "reconfig", "execution"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn summary_recorder_aggregates_per_round() {
        let mut s = SummaryRecorder::new();
        s.on_round_start(0);
        s.on_arrive(0, ColorId(0), 4);
        s.on_execute(0, 0, ColorId(0), 1);
        s.on_round_start(1);
        s.on_drop(1, ColorId(0), 3);
        assert_eq!(s.rounds.len(), 2);
        assert_eq!(s.rounds[0].arrivals, 4);
        assert_eq!(s.rounds[0].executed, 1);
        assert_eq!(s.rounds[1].drops, 3);
    }
}
