//! Feature-gated invariant checkers for the simulator (DESIGN.md §9).
//!
//! This crate is the *specification half* of the engine: where
//! `rrs_engine::sim` implements the paper's four-phase round model as fast
//! as it can, `rrs_check` re-implements it as naively as possible and
//! cross-checks the two on every phase boundary. Nothing here is compiled
//! into default builds: the workspace's `validate` feature makes
//! `rrs_analysis::supervisor` return the watcher, and every simulation
//! choke point (golden-fixture tests, the E1–E16 experiment harness, the
//! CLI) tees that supervisor into its run.
//!
//! Two layers:
//!
//! * [`InvariantWatcher`] — a [`rrs_engine::Recorder`] holding an
//!   independent shadow pending model, seeded from the state a run starts
//!   from, so fresh and resumed runs are checked alike. It machine-checks
//!   the phase laws of Section 2: jobs drop exactly at `arrival + D_ℓ` and
//!   never execute at or after it, each location executes at most one job
//!   and only of its configured color, reconfiguration charges match the
//!   recoloring diff, and the cost/conservation identities hold at the
//!   horizon.
//! * [`CheckedPolicy`] — a [`rrs_engine::Policy`] wrapper over the §3
//!   algorithms that checks the [`rrs_core::ColorBook`] timestamp laws
//!   (counter-wrap order, block-boundary commits) after every decision, and
//!   optionally monitors the Lemma 3.3/3.4 bounds incrementally instead of
//!   only post-hoc.
//!
//! All violations panic immediately with round/phase context: a validate
//! run that finishes is a proof the laws held on that input.

#![forbid(unsafe_code)]

pub mod guard;
pub mod watcher;

pub use guard::CheckedPolicy;
pub use watcher::InvariantWatcher;
