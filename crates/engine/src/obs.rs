//! Runtime counter registry: named deterministic counters and fixed-bucket
//! histograms, plus advisory wall-clock timers (DESIGN.md §13).
//!
//! The registry is the engine's measurement substrate. It splits strictly
//! along the determinism wall:
//!
//! * **Counters** and **histograms** record *deterministic* quantities —
//!   rounds executed, drops, reconfigurations, snapshot bytes, sweep items
//!   — that are pure functions of the (instance, policy, locations, speed)
//!   tuple. They may appear in traces (as schema-v1 `counters`/`hist`
//!   records, see [`crate::sink`]), reports and committed `BENCH_*.json`
//!   artifacts, and regressions in them are hard failures.
//! * **Timers** accumulate *advisory* wall-clock durations (the same
//!   contract as [`crate::sink::PhaseTimer`]). They are rendered for humans
//!   by [`CounterRegistry::render`] but never serialized into the
//!   `counters` record, so deterministic outputs stay timestamp-free.
//!
//! [`CounterRecorder`] feeds a registry from the simulator's trace hooks,
//! so any run can be counted without touching the hot path: one branchless
//! saturating add per event.

use std::collections::BTreeMap;
use std::time::Duration;

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

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by ascending inclusive upper bounds; one implicit
/// overflow bucket catches everything above the last bound. Bounds are
/// fixed at declaration, so two runs of the same workload produce
/// byte-identical serializations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly ascending");
        Self { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], total: 0, sum: 0 }
    }

    /// Rebuild a histogram from serialized parts (the `hist` trace record).
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>, sum: u64) -> Result<Self, String> {
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram needs {} counts for {} bounds, got {}",
                bounds.len() + 1,
                bounds.len(),
                counts.len()
            ));
        }
        if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err("histogram bounds must be non-empty and strictly ascending".into());
        }
        let total = counts.iter().sum();
        Ok(Self { bounds, counts, total, sum })
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// The bucket upper bounds (exclusive of the overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Samples in the overflow bucket (above the last bound).
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("histogram always has an overflow bucket")
    }

    fn join(values: &[u64]) -> String {
        let mut out = String::new();
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out
    }

    /// Comma-joined bounds, as serialized into the `hist` record.
    pub fn bounds_text(&self) -> String {
        Self::join(&self.bounds)
    }

    /// Comma-joined counts, as serialized into the `hist` record.
    pub fn counts_text(&self) -> String {
        Self::join(&self.counts)
    }
}

/// Named monotonic counters + fixed-bucket histograms (deterministic) and
/// named accumulated durations (advisory). See the module docs for the
/// determinism contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    timers: BTreeMap<String, Duration>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(name: &str) {
        assert!(!name.is_empty(), "counter name must be non-empty");
        assert!(name != "ev", "'ev' is reserved for the JSONL record discriminator");
    }

    /// Add `delta` to the named monotonic counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        Self::check_name(name);
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

    /// Whether no counter and no histogram has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Declare a histogram with fixed bucket bounds. Declaring the same
    /// name twice keeps the first bounds.
    pub fn declare_hist(&mut self, name: &str, bounds: &[u64]) {
        Self::check_name(name);
        self.hists.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds));
    }

    /// Record a sample into a declared histogram.
    ///
    /// # Panics
    /// Panics if the histogram was never declared — bucket bounds are part
    /// of the schema and must not be invented at observation time.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.hists
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram '{name}' observed before declare_hist"))
            .observe(value);
    }

    /// The named histogram, if declared.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Accumulate an advisory wall-clock duration. Timers never enter the
    /// serialized `counters` record (see module docs).
    pub fn add_time(&mut self, name: &str, dt: Duration) {
        Self::check_name(name);
        *self.timers.entry(name.to_string()).or_insert(Duration::ZERO) += dt;
    }

    /// The named advisory timer's accumulated duration.
    pub fn time(&self, name: &str) -> Duration {
        self.timers.get(name).copied().unwrap_or(Duration::ZERO)
    }

    /// Fold another registry into this one (counters add, histogram counts
    /// merge when bounds agree, timers add).
    ///
    /// # Panics
    /// Panics if a shared histogram name has different bucket bounds.
    pub fn absorb(&mut self, other: &CounterRegistry) {
        for (name, &v) in &other.counters {
            self.add(name, v);
        }
        for (name, h) in &other.hists {
            let mine = self.hists.entry(name.clone()).or_insert_with(|| Histogram::new(&h.bounds));
            assert_eq!(mine.bounds, h.bounds, "histogram '{name}' bounds mismatch in absorb");
            for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                *a += b;
            }
            mine.total += h.total;
            mine.sum = mine.sum.saturating_add(h.sum);
        }
        for (name, &dt) in &other.timers {
            self.add_time(name, dt);
        }
    }

    /// A human-readable dump: deterministic counters and histograms first,
    /// then advisory timers clearly marked as wall-clock.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters (deterministic):\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<18} {v}\n"));
            }
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "hist {name}: total {} sum {} buckets le[{}]=[{}]\n",
                h.total,
                h.sum,
                h.bounds_text(),
                h.counts_text()
            ));
        }
        if !self.timers.is_empty() {
            out.push_str("timers (wall clock, advisory):\n");
            for (name, dt) in &self.timers {
                out.push_str(&format!("  {name:<18} {dt:.3?}\n"));
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

// Audited exception to the determinism wall (clippy.toml): `Stopwatch`
// feeds only the registry's advisory timer section, which `render` labels
// wall-clock and which never enters the serialized `counters` record or
// any other deterministic output.
#[allow(clippy::disallowed_methods)]
mod advisory {
    use std::time::{Duration, Instant};

    /// A wall-clock stopwatch for the registry's *advisory* timers.
    ///
    /// ```
    /// use rrs_engine::obs::{CounterRegistry, Stopwatch};
    /// let mut reg = CounterRegistry::new();
    /// let sw = Stopwatch::start();
    /// // ... timed work ...
    /// sw.stop_into(&mut reg, "setup");
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

        /// Accumulate the elapsed time into a named advisory timer.
        pub fn stop_into(self, reg: &mut super::CounterRegistry, name: &str) -> Duration {
            let dt = self.elapsed();
            reg.add_time(name, dt);
            dt
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
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]); // ≤1, ≤4, ≤16, overflow
        assert_eq!(h.total(), 8);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.sum(), 1045);
        assert_eq!(h.bounds_text(), "1,4,16");
        assert_eq!(h.counts_text(), "2,2,2,2");
        let back = Histogram::from_parts(vec![1, 4, 16], h.counts().to_vec(), h.sum()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn histogram_from_parts_rejects_malformed() {
        assert!(Histogram::from_parts(vec![1, 2], vec![0, 0], 0).is_err(), "short counts");
        assert!(Histogram::from_parts(vec![2, 1], vec![0, 0, 0], 0).is_err(), "unsorted bounds");
        assert!(Histogram::from_parts(vec![], vec![0], 0).is_err(), "empty bounds");
    }

    #[test]
    #[should_panic(expected = "before declare_hist")]
    fn observing_undeclared_histogram_panics() {
        CounterRegistry::new().observe("nope", 1);
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
    fn absorb_merges_everything() {
        let mut a = CounterRegistry::new();
        a.add("x", 1);
        a.declare_hist("h", &[2, 8]);
        a.observe("h", 1);
        a.add_time("t", Duration::from_millis(5));
        let mut b = CounterRegistry::new();
        b.add("x", 2);
        b.add("y", 7);
        b.declare_hist("h", &[2, 8]);
        b.observe("h", 100);
        b.add_time("t", Duration::from_millis(7));
        a.absorb(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 7);
        assert_eq!(a.hist("h").unwrap().counts(), &[1, 0, 1]);
        assert_eq!(a.time("t"), Duration::from_millis(12));
    }

    #[test]
    fn render_separates_deterministic_from_advisory() {
        let mut reg = CounterRegistry::new();
        reg.add("rounds", 4);
        reg.declare_hist("batch", &[1, 2]);
        reg.observe("batch", 2);
        reg.add_time("solve", Duration::from_millis(3));
        let text = reg.render();
        assert!(text.contains("counters (deterministic):"), "{text}");
        assert!(text.contains("hist batch"), "{text}");
        assert!(text.contains("advisory"), "{text}");
        // Timers come after the deterministic sections.
        assert!(text.find("rounds").unwrap() < text.find("solve").unwrap(), "{text}");
    }

    #[test]
    fn stopwatch_accumulates_into_timer() {
        let mut reg = CounterRegistry::new();
        let sw = Stopwatch::start();
        let dt = sw.stop_into(&mut reg, "work");
        assert_eq!(reg.time("work"), dt);
        assert!(reg.is_empty(), "timers are not deterministic content");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_name_rejected() {
        CounterRegistry::new().add("ev", 1);
    }
}
