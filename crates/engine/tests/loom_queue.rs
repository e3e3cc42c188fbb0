//! Loom model of the parallel sweep's work-stealing index queue.
//!
//! `rrs_engine::par::par_map_sweep` distributes items by having every
//! worker `fetch_add(1)` a shared counter and claim the returned index
//! until the counter passes the item count; results are scattered back by
//! index, and the final collection `expect`s that every slot was filled
//! exactly once. Determinism of the sweep therefore reduces to one
//! concurrency property: **across all interleavings, the set of claimed
//! indices is exactly `{0, …, items-1}`, each claimed by exactly one
//! worker** — no loss, no duplication, regardless of how claims and the
//! exit check interleave.
//!
//! This test re-expresses that claim loop verbatim against `loom`'s
//! instrumented atomics (the offline shim in `crates/compat/loom`: a
//! randomized cooperative scheduler, a context switch around every atomic
//! access) and asserts the property under every explored schedule. The
//! production loop in `par.rs` stays on `std` atomics; the model is kept
//! line-for-line parallel so a change to the claiming protocol must be
//! mirrored here (CI runs this with a raised `LOOM_SCHEDULES`). A worker
//! whose item panics stops claiming early; that path re-raises the panic
//! instead of scattering, so it is outside this model.

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// The worker claim loop from `par_map_sweep`, reduced to its
/// scheduling skeleton: claim indices off the shared counter until
/// exhausted, recording which indices we claimed.
fn claim_loop(next: &AtomicUsize, items: usize) -> Vec<usize> {
    let mut claimed = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items {
            return claimed;
        }
        claimed.push(i);
    }
}

/// Check the exactly-once property for one (workers, items) shape under
/// every explored schedule.
fn check_exactly_once(workers: usize, items: usize) {
    loom::model(move || {
        let next = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = Arc::clone(&next);
                thread::spawn(move || claim_loop(&next, items))
            })
            .collect();

        // The scatter step from `par_map_sweep`, with the same
        // "every index claimed exactly once" expectation.
        let mut slots = vec![0u32; items];
        for h in handles {
            for i in h.join().expect("sweep worker panicked") {
                slots[i] += 1;
            }
        }
        for (i, &count) in slots.iter().enumerate() {
            assert_eq!(count, 1, "index {i} claimed {count} times");
        }

        // The counter only ever moves past `items` by overshoot claims
        // that were *not* kept: one final failed claim per worker.
        let final_next = next.load(Ordering::Relaxed);
        assert!(
            final_next >= items && final_next <= items + workers,
            "counter ended at {final_next} for {items} items / {workers} workers"
        );
    });
}

#[test]
fn two_workers_claim_each_index_exactly_once() {
    check_exactly_once(2, 4);
}

#[test]
fn three_workers_claim_each_index_exactly_once() {
    check_exactly_once(3, 5);
}

#[test]
fn more_workers_than_items_still_partition() {
    check_exactly_once(4, 2);
}

#[test]
fn single_worker_degenerates_to_serial_order() {
    loom::model(|| {
        let next = AtomicUsize::new(0);
        let claimed = claim_loop(&next, 6);
        assert_eq!(claimed, vec![0, 1, 2, 3, 4, 5]);
    });
}
