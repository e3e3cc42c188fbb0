//! The round-level simulator for reconfigurable resource scheduling.
//!
//! The engine implements the paper's execution model (Section 2) exactly.
//! Time proceeds in rounds numbered from 0; each round has four phases in
//! this order:
//!
//! 1. **Drop phase** — every pending job whose deadline equals the current
//!    round is dropped at unit cost.
//! 2. **Arrival phase** — the round's request (a multiset of unit jobs)
//!    arrives; a job of color `ℓ` arriving in round `k` gets deadline
//!    `k + D_ℓ`.
//! 3. **Reconfiguration phase** — the scheduling policy may recolor any
//!    resource ("location"). Recoloring a location to a non-black color
//!    costs Δ (see [`rrs_model::CostLedger`] for the pricing rule).
//! 4. **Execution phase** — every location configured to color `ℓ` executes
//!    at most one pending job of color `ℓ`; the engine always picks an
//!    earliest-deadline pending job, which is never worse than any other
//!    choice for unit jobs.
//!
//! **Double-speed schedules.** The analysis machinery of Section 3.3 uses
//! *mini-rounds*: a speed-`s` schedule repeats the (reconfigure, execute)
//! pair `s` times per round. [`Simulator::with_speed`] exposes this; all
//! headline algorithms run at speed 1.
//!
//! Online algorithms implement the [`Policy`] trait: once per mini-round
//! they observe the current round, this round's arrivals and drops, the
//! pending-job store and the current location assignment, and emit a new
//! assignment. The engine owns all cost accounting, so policies cannot
//! mis-price themselves.
//!
//! ```
//! use rrs_engine::{policy::PinColor, Simulator};
//! use rrs_model::InstanceBuilder;
//!
//! let mut b = InstanceBuilder::new(3); // Δ = 3
//! let c = b.color(4);
//! b.arrive(0, c, 2).arrive(4, c, 2);
//! let inst = b.build();
//!
//! // One resource pinned to the color: one reconfiguration, no drops.
//! let out = Simulator::new(&inst, 1).run(&mut PinColor(c));
//! assert_eq!(out.total_cost(), 3);
//! assert!(out.conserved());
//! ```

#![forbid(unsafe_code)]

pub mod assign;
pub mod checkpoint;
pub mod kernel;
pub mod obs;
pub mod par;
pub mod pending;
pub mod policy;
pub mod replay;
pub mod sim;
pub mod sink;
pub mod stats;
pub mod trace;

pub use assign::{recolor_reconfigs, stable_assign, stable_assign_into, AssignScratch};
pub use checkpoint::{
    encode_snapshot, CheckpointPolicy, EngineState, SessionError, SessionResult, Snapshot,
    SnapshotFile, SnapshotSink,
};
pub use kernel::{RoundKernel, Scratch};
pub use obs::{CounterRecorder, CounterRegistry, Stopwatch};
pub use par::{jobs, par_map_sweep, set_jobs};
pub use pending::PendingStore;
pub use policy::{Observation, Policy, Slot};
pub use replay::{FixedSchedule, ReplayPolicy};
pub use sim::{run_stream_session, Outcome, Session, Simulator, StreamOptions};
pub use sink::{
    parse_trace, parse_trace_line, JsonlSink, ParsedTrace, PhaseTimer, TraceLine, TraceMeta,
    TraceParseError, TRACE_SCHEMA_VERSION,
};
pub use stats::{AlgoMetrics, PolicyStats, StateFootprint};
/// The no-op recorder under the name the benchmark package
/// (`crates/bench/src/bin/rrs-benchmark`) passes as [`run_stream_session`]'s
/// `watcher`; it goes with that forwarder.
pub use trace::NullRecorder as NoWatcher;
pub use trace::{
    NullRecorder, Phase, PhaseState, Recorder, RoundSummary, SummaryRecorder, TraceEvent,
    TraceRecorder,
};

/// Convenient re-exports for downstream crates.
pub mod prelude {
    pub use crate::assign::{recolor_reconfigs, stable_assign, stable_assign_into, AssignScratch};
    pub use crate::checkpoint::{
        encode_snapshot, CheckpointPolicy, EngineState, SessionError, SessionResult, Snapshot,
        SnapshotFile, SnapshotSink,
    };
    pub use crate::kernel::{RoundKernel, Scratch};
    pub use crate::obs::{CounterRecorder, CounterRegistry, Stopwatch};
    pub use crate::par::{jobs, par_map_sweep, set_jobs};
    pub use crate::pending::PendingStore;
    pub use crate::policy::{Observation, Policy, Slot};
    pub use crate::replay::{FixedSchedule, ReplayPolicy};
    pub use crate::sim::{run_stream_session, Outcome, Session, Simulator, StreamOptions};
    pub use crate::sink::{parse_trace, JsonlSink, ParsedTrace, PhaseTimer, TraceMeta};
    pub use crate::stats::{AlgoMetrics, PolicyStats, StateFootprint};
    pub use crate::trace::{
        NullRecorder, Phase, PhaseState, Recorder, SummaryRecorder, TraceEvent, TraceRecorder,
    };
}
