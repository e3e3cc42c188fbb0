//! Runtime counter registry: named deterministic counters, plus the
//! workspace's one audited wall-clock reader (DESIGN.md §13).
//!
//! The registry is the engine's measurement substrate. Its **counters**
//! record *deterministic* quantities — rounds executed, drops,
//! reconfigurations, snapshot bytes, sweep items — that are pure functions
//! of the (instance, policy, locations, speed) tuple. They may appear in
//! traces (as the schema-v1 `counters` record, see [`crate::sink`]),
//! reports and committed `BENCH_*.json` artifacts, and regressions in them
//! are hard failures.
//!
//! Wall-clock time stays out of the registry. [`Stopwatch`] is the only
//! reader of the clock in the workspace; what it measures is advisory and
//! reaches only human-facing output ([`crate::sink::PhaseTimer`]'s table)
//! and the advisory blocks of bench artifacts.
//!
//! [`CounterRecorder`] feeds a registry from the simulator's trace hooks,
//! so any run can be counted without touching the hot path: one branchless
//! saturating add per event.

use std::collections::BTreeMap;

use rrs_model::ColorId;

use crate::policy::Slot;
use crate::trace::Recorder;

/// Canonical counter names used by the engine and bench harness. Free-form
/// names are allowed; sharing these constants keeps artifacts comparable.
pub mod names {
    /// Rounds executed.
    pub const ROUNDS: &str = "rounds";
    /// Jobs arrived.
    pub const ARRIVED: &str = "jobs_arrived";
    /// Jobs executed.
    pub const EXECUTED: &str = "jobs_executed";
    /// Jobs dropped.
    pub const DROPPED: &str = "jobs_dropped";
    /// Reconfigurations to a non-black color (the Δ-charged kind).
    pub const RECONFIGS: &str = "reconfigs";
    /// Snapshot bytes emitted by checkpointing.
    pub const SNAPSHOT_BYTES: &str = "snapshot_bytes";
    /// Snapshots emitted by checkpointing.
    pub const SNAPSHOTS: &str = "snapshots";
    /// Results a parallel sweep returned (one per input item).
    pub const SWEEP_ITEMS: &str = "sweep_items";
    /// High-water mark of hierarchical `ColorSet` leaf words held by a
    /// policy's per-color state (64 colors per word; see DESIGN.md §14).
    pub const COLORSET_LEAF_WORDS: &str = "colorset_leaf_words";
    /// High-water mark of paged `ColorMap` pages held by a policy's
    /// per-color state (`COLOR_PAGE` slots per page; see DESIGN.md §14).
    pub const COLORMAP_LIVE_PAGES: &str = "colormap_live_pages";
    /// States kept in the memoized OPT solver's memo table (see
    /// DESIGN.md §16).
    pub const OPT_SOLVED_STATES: &str = "opt_solved_states";
    /// States discarded by the memoized OPT solver's Pareto dominance
    /// pruning (see DESIGN.md §16).
    pub const OPT_PRUNED_STATES: &str = "opt_pruned_states";
    /// Whole-solve answers served from a persisted OPT cache.
    pub const OPT_CACHE_HITS: &str = "opt_cache_hits";
    /// Persisted OPT cache consultations.
    pub const OPT_CACHE_LOOKUPS: &str = "opt_cache_lookups";
}

/// Named monotonic counters over deterministic quantities. See the module
/// docs for the determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        assert!(!name.is_empty(), "counter name must be non-empty");
        assert!(name != "ev", "'ev' is reserved for the JSONL record discriminator");
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// The named counter's value (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// A human-readable dump of the counters, in name order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters (deterministic):\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<18} {v}\n"));
            }
        }
        out
    }
}

/// A [`Recorder`] that counts trace events into a [`CounterRegistry`]:
/// rounds, arrivals, executions, drops, and Δ-charged reconfigurations —
/// the registry's deterministic backbone. Attach alongside any other
/// recorder with the tuple tee.
#[derive(Debug)]
pub struct CounterRecorder<'a> {
    reg: &'a mut CounterRegistry,
}

impl<'a> CounterRecorder<'a> {
    /// A recorder feeding `reg`.
    pub fn new(reg: &'a mut CounterRegistry) -> Self {
        Self { reg }
    }
}

impl Recorder for CounterRecorder<'_> {
    fn on_round_start(&mut self, _round: u64) {
        self.reg.add(names::ROUNDS, 1);
    }
    fn on_drop(&mut self, _round: u64, _color: ColorId, count: u64) {
        self.reg.add(names::DROPPED, count);
    }
    fn on_arrive(&mut self, _round: u64, _color: ColorId, count: u64) {
        self.reg.add(names::ARRIVED, count);
    }
    fn on_reconfig(&mut self, _round: u64, _mini: u32, _location: usize, _from: Slot, to: Slot) {
        if to.is_some() {
            self.reg.add(names::RECONFIGS, 1);
        }
    }
    fn on_execute(&mut self, _round: u64, _mini: u32, _color: ColorId, count: u64) {
        self.reg.add(names::EXECUTED, count);
    }
}

// Audited exception to the determinism wall (clippy.toml): the workspace's
// one wall-clock read. `Stopwatch` readings are advisory: they feed phase
// tables and bench timings, never a counter, a trace or a table.
#[allow(clippy::disallowed_methods)]
mod advisory {
    use std::time::{Duration, Instant};

    /// A wall-clock stopwatch for advisory timings.
    ///
    /// ```
    /// use rrs_engine::obs::Stopwatch;
    /// let sw = Stopwatch::start();
    /// // ... timed work ...
    /// let _spent = sw.elapsed();
    /// ```
    #[derive(Clone, Copy, Debug)]
    pub struct Stopwatch {
        t0: Instant,
    }

    impl Stopwatch {
        /// Start timing now.
        pub fn start() -> Self {
            Self { t0: Instant::now() }
        }

        /// Elapsed wall-clock time since [`Stopwatch::start`].
        pub fn elapsed(&self) -> Duration {
            self.t0.elapsed()
        }
    }
}

pub use advisory::Stopwatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut reg = CounterRegistry::new();
        reg.add("zeta", 2);
        reg.add("alpha", 1);
        reg.add("zeta", 3);
        assert_eq!(reg.get("zeta"), 5);
        assert_eq!(reg.get("alpha"), 1);
        assert_eq!(reg.get("missing"), 0);
        let names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "zeta"], "BTreeMap order is the serialization order");
    }

    #[test]
    fn recorder_counts_events() {
        use crate::trace::Recorder as _;
        let mut reg = CounterRegistry::new();
        let mut rec = CounterRecorder::new(&mut reg);
        rec.on_round_start(0);
        rec.on_arrive(0, ColorId(0), 3);
        rec.on_drop(0, ColorId(1), 2);
        rec.on_reconfig(0, 0, 0, None, Some(ColorId(0)));
        rec.on_reconfig(0, 0, 1, Some(ColorId(0)), None); // to black: not Δ-charged
        rec.on_execute(0, 0, ColorId(0), 1);
        rec.on_round_start(1);
        assert_eq!(reg.get(names::ROUNDS), 2);
        assert_eq!(reg.get(names::ARRIVED), 3);
        assert_eq!(reg.get(names::DROPPED), 2);
        assert_eq!(reg.get(names::RECONFIGS), 1);
        assert_eq!(reg.get(names::EXECUTED), 1);
    }

    #[test]
    fn render_lists_counters_in_name_order() {
        let mut reg = CounterRegistry::new();
        assert_eq!(reg.render(), "", "an empty registry renders nothing");
        reg.add("rounds", 4);
        reg.add("jobs_dropped", 1);
        assert_eq!(
            reg.render(),
            "counters (deterministic):\n  jobs_dropped       1\n  rounds             4\n"
        );
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_name_rejected() {
        CounterRegistry::new().add("ev", 1);
    }
}
