//! Dependency-free parallel sweep primitive for experiment harnesses.
//!
//! Experiment tables are built from many *independent* simulator runs — a
//! seed sweep, a parameter grid, a candidate enumeration. [`par_map_sweep`]
//! fans those runs across OS threads, each worker claiming the next index
//! off a shared counter, and returns results **in input order**, so a
//! parallel sweep is bit-identical to the serial one: the simulator is
//! deterministic, each item's closure sees only its own input, and the
//! scatter-by-index collection step erases scheduling nondeterminism.
//!
//! The worker count comes from the process-wide [`set_jobs`]/[`jobs`] knob
//! (CLI `--jobs N`), defaulting to [`std::thread::available_parallelism`].
//! With one worker (or one item) the sweep degrades to a plain serial loop
//! on the calling thread — no threads are spawned, so `--jobs 1` is exactly
//! the pre-parallel code path.
//!
//! Only independent runs fan out — E-table rows and the table suite,
//! search generations, shrink frontiers and the bench sweep ladder. An
//! item's own work (a simulation, an exact solve) stays serial.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A worker's claimed results, or the index and payload of the item that
/// panicked (the worker stops there).
type Claimed<R> = Result<Vec<(usize, R)>, (usize, Box<dyn Any + Send>)>;

/// Map `f` over `items` on up to [`jobs`] threads, returning the results
/// in input order.
///
/// Scheduling is dynamic (workers claim the next unclaimed index from a
/// shared atomic counter), so uneven per-item cost balances automatically;
/// determinism is unaffected because results are scattered back by index.
///
/// # Panics
/// If `f` panics, the sweep re-raises, once every worker has stopped, the
/// payload of the lowest-index item that panicked — the panic the serial
/// loop raises — so the message is the same at any worker count. That
/// item is always reached: claims ascend, and only a panic stops a worker
/// early.
pub fn par_map_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || -> Claimed<R> {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return Ok(local) };
            match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => local.push((i, r)),
                Err(payload) => return Err((i, payload)),
            }
        }
    };
    let collected: Vec<Claimed<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p))).collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut panicked = Vec::new();
    for claimed in collected {
        match claimed {
            Ok(local) => local.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
            Err(failure) => panicked.push(failure),
        }
    }
    if let Some((_, payload)) = panicked.into_iter().min_by_key(|&(i, _)| i) {
        panic::resume_unwind(payload);
    }
    slots.into_iter().map(|slot| slot.expect("every index claimed exactly once")).collect()
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

    /// Serializes the tests that move the process-wide worker knob.
    static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn a_panicking_item_reraises_its_own_payload_at_any_worker_count() {
        let _knob = KNOB.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Rows 2 and 3 both panic; the serial loop stops at row 2.
        let payload_at = |workers: usize| {
            set_jobs(workers);
            let err = panic::catch_unwind(|| {
                par_map_sweep(&[0u64, 1, 2, 3], |&x| {
                    if x >= 2 {
                        panic!("row {x} violated a law");
                    }
                    x
                })
            })
            .expect_err("the sweep must panic");
            err.downcast_ref::<String>().cloned()
        };
        let serial = payload_at(1);
        let parallel = payload_at(2);
        JOBS.store(0, Ordering::Relaxed);
        assert_eq!(serial.as_deref(), Some("row 2 violated a law"));
        assert_eq!(parallel, serial);
    }

    #[test]
    fn jobs_knob_round_trips() {
        let _knob = KNOB.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
