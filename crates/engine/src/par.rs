//! Dependency-free parallel sweep primitive for experiment harnesses.
//!
//! Experiment tables are built from many *independent* simulator runs — a
//! seed sweep, a parameter grid, a candidate enumeration. [`par_map_sweep`]
//! fans those runs across OS threads with a work-stealing index queue and
//! returns results **in input order**, so a parallel sweep is bit-identical
//! to the serial one: the simulator is deterministic, each item's closure
//! sees only its own input, and the scatter-by-index collection step erases
//! scheduling nondeterminism.
//!
//! The worker count comes from the process-wide [`set_jobs`]/[`jobs`] knob
//! (CLI `--jobs N`), defaulting to [`std::thread::available_parallelism`].
//! With one worker (or one item) the sweep degrades to a plain serial loop
//! on the calling thread — no threads are spawned, so `--jobs 1` is exactly
//! the pre-parallel code path.
//!
//! **Telemetry.** Every sweep additionally measures per-worker statistics —
//! items processed, busy time, steal count — via
//! [`par_map_sweep_stats`] or the process-wide accumulator drained by
//! [`take_sweep_telemetry`]. Telemetry is wall-clock and therefore
//! *advisory*: it is collected on the side and never influences results or
//! their ordering, preserving byte-identical output at any worker count.

// Audited exception to the determinism wall (clippy.toml): worker
// wall-time here is telemetry only — it never influences results,
// which are scattered back by input index.
#![allow(clippy::disallowed_methods)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process-wide worker-count override; 0 means "unset, use the hardware".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide worker count for [`par_map_sweep`].
///
/// # Panics
/// Panics if `n` is zero (callers should reject `--jobs 0` at parse time;
/// this is the backstop).
pub fn set_jobs(n: usize) {
    assert!(n >= 1, "worker count must be at least 1");
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the [`set_jobs`] override if set, else the
/// `RRS_JOBS` environment variable if parseable, else
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
pub fn jobs() -> usize {
    let set = JOBS.load(Ordering::Relaxed);
    if set != 0 {
        return set;
    }
    if let Some(n) =
        std::env::var("RRS_JOBS").ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Per-worker statistics for one or more sweeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker processed.
    pub items: u64,
    /// Claims that were *not* index-sequential with the worker's previous
    /// claim — i.e. another worker claimed in between, which is the dynamic
    /// queue balancing load away from slower peers.
    pub steals: u64,
    /// Wall-clock time spent inside the mapped closure.
    pub busy: Duration,
}

impl WorkerStats {
    fn merge(&mut self, other: &WorkerStats) {
        self.items += other.items;
        self.steals += other.steals;
        self.busy += other.busy;
    }
}

/// Aggregated sweep telemetry: per-worker-slot statistics summed over every
/// [`par_map_sweep`] call since the last [`take_sweep_telemetry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Sweeps observed.
    pub sweeps: u64,
    /// Total items across those sweeps.
    pub items: u64,
    /// Per-worker-slot statistics (slot 0 is the calling thread for serial
    /// sweeps; parallel sweeps index spawned workers in spawn order).
    pub workers: Vec<WorkerStats>,
}

impl SweepTelemetry {
    /// Fold one sweep's per-worker stats into the aggregate.
    pub fn absorb(&mut self, items: usize, per_worker: &[WorkerStats]) {
        self.sweeps += 1;
        self.items += items as u64;
        if self.workers.len() < per_worker.len() {
            self.workers.resize(per_worker.len(), WorkerStats::default());
        }
        for (slot, stats) in self.workers.iter_mut().zip(per_worker) {
            slot.merge(stats);
        }
    }

    /// A human-readable per-worker utilization table (advisory wall-clock
    /// numbers; not part of any deterministic output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep telemetry: {} sweep(s), {} item(s), {} worker slot(s)\n",
            self.sweeps,
            self.items,
            self.workers.len()
        ));
        out.push_str("  worker   items  steals          busy\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "  {i:>6}  {items:>6}  {steals:>6}  {busy:>12.3?}\n",
                items = w.items,
                steals = w.steals,
                busy = w.busy
            ));
        }
        out
    }
}

/// Process-wide telemetry accumulator fed by [`par_map_sweep`].
static TELEMETRY: Mutex<SweepTelemetry> =
    Mutex::new(SweepTelemetry { sweeps: 0, items: 0, workers: Vec::new() });

/// Drain and return the telemetry accumulated by every [`par_map_sweep`]
/// call since the previous drain.
pub fn take_sweep_telemetry() -> SweepTelemetry {
    std::mem::take(&mut TELEMETRY.lock().expect("telemetry lock poisoned"))
}

/// Map `f` over `items` on up to [`jobs`] threads, returning the results
/// in input order.
///
/// Scheduling is dynamic (workers steal the next unclaimed index from a
/// shared atomic counter), so uneven per-item cost balances automatically;
/// determinism is unaffected because results are scattered back by index.
/// Panics in `f` propagate to the caller once all workers have stopped.
/// Per-worker telemetry is folded into the process-wide accumulator (see
/// [`take_sweep_telemetry`]).
pub fn par_map_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, per_worker) = par_map_sweep_stats(items, f);
    if !per_worker.is_empty() {
        TELEMETRY.lock().expect("telemetry lock poisoned").absorb(items.len(), &per_worker);
    }
    results
}

/// [`par_map_sweep`] plus this sweep's per-worker statistics (not folded
/// into the process-wide accumulator — the caller owns them).
pub fn par_map_sweep_stats<T, R, F>(items: &[T], f: F) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let workers = jobs().min(items.len());
    if workers <= 1 {
        let t0 = Instant::now();
        let results: Vec<R> = items.iter().map(f).collect();
        let stats = WorkerStats { items: items.len() as u64, steals: 0, busy: t0.elapsed() };
        return (results, vec![stats]);
    }
    let next = AtomicUsize::new(0);
    let collected: Vec<(Vec<(usize, R)>, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut stats = WorkerStats::default();
                    let mut last: Option<usize> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return (local, stats);
                        }
                        if last.is_some_and(|l| i != l + 1) {
                            stats.steals += 1;
                        }
                        last = Some(i);
                        let t0 = Instant::now();
                        let r = f(&items[i]);
                        stats.busy += t0.elapsed();
                        stats.items += 1;
                        local.push((i, r));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    let mut per_worker = Vec::with_capacity(workers);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (local, stats) in collected {
        per_worker.push(stats);
        for (i, r) in local {
            slots[i] = Some(r);
        }
    }
    let results =
        slots.into_iter().map(|slot| slot.expect("every index claimed exactly once")).collect();
    (results, per_worker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_sweep(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn matches_serial_with_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let heavy = |&x: &u64| -> u64 {
            // Uneven spin so workers finish out of order.
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial: Vec<u64> = items.iter().map(heavy).collect();
        assert_eq!(par_map_sweep(&items, heavy), serial);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_sweep(&empty, |&x| x).is_empty());
        assert_eq!(par_map_sweep(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn stats_account_every_item() {
        let items: Vec<u64> = (0..97).collect();
        let (out, stats) = par_map_sweep_stats(&items, |&x| x + 1);
        assert_eq!(out.len(), items.len());
        assert!(!stats.is_empty());
        let counted: u64 = stats.iter().map(|w| w.items).sum();
        assert_eq!(counted, items.len() as u64);
    }

    #[test]
    fn telemetry_accumulates_and_drains() {
        // Other unit tests in this binary may sweep concurrently, so assert
        // lower bounds rather than exact counts.
        let _ = take_sweep_telemetry();
        let items: Vec<u64> = (0..10).collect();
        let _ = par_map_sweep(&items, |&x| x);
        let _ = par_map_sweep(&items, |&x| x);
        let t = take_sweep_telemetry();
        assert!(t.sweeps >= 2, "{t:?}");
        assert!(t.items >= 20, "{t:?}");
        assert_eq!(t.workers.iter().map(|w| w.items).sum::<u64>(), t.items);
        let rendered = t.render();
        assert!(rendered.contains("worker"), "{rendered}");
    }

    #[test]
    fn jobs_knob_round_trips() {
        // Relaxed global state: other tests don't touch the knob.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(1);
        assert_eq!(jobs(), 1);
        // Leave unset-like behavior for the rest of the suite.
        JOBS.store(0, Ordering::Relaxed);
        assert!(jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_jobs_rejected() {
        set_jobs(0);
    }
}
