//! A reusable counting + tracking global allocator probe.
//!
//! One allocator serves every heap-discipline measurement in the
//! workspace: call counting (the `tests/alloc_discipline.rs` zero-alloc
//! round-loop contract), peak byte tracking (the `tests/stream_stress.rs`
//! bounded-soak contract), and the bench harness's `allocs_per_round` /
//! peak-heap metrics — previously three near-identical private copies.
//!
//! A global allocator must be *installed* by the final binary; a library
//! cannot do it. Consumers write:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;
//! ```
//!
//! and read the counters through [`alloc_calls`] and, around a measured
//! window, [`reset_peak`] then [`peak_growth`]. Without an installed probe
//! the counters stay frozen at zero — [`probe_active`] detects that, so
//! measurements can fail loudly instead of reporting a fake clean zero.
//!
//! **Every counter is per thread.** Each thread keeps its call count, its
//! net bytes (allocated minus freed) and their high-water mark in
//! `const`-initialized thread-local `Cell`s, which allocate nothing, need
//! no destructor and are never shared: an allocation writes no memory
//! another thread reads, so installing the probe costs a parallel sweep
//! nothing beyond the counter updates themselves. A reading covers
//! exactly the code the calling thread ran in its window; sibling threads
//! (another test in the same binary, a sweep worker) cannot perturb it.
//! A thread that frees memory another thread allocated sees its net bytes
//! fall, possibly below zero; the counts are signed, so no reading wraps.

// Audited exception to the workspace-wide `forbid(unsafe_code)` (see this
// crate's root): implementing `GlobalAlloc` is inherently unsafe. The impl
// delegates every operation verbatim to `std::alloc::System` and only adds
// thread-local accounting on the side, so the safety argument is exactly
// `System`'s.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The probe allocator. Install with `#[global_allocator]`; its state is
/// per-thread and static, so the unit struct carries nothing.
pub struct AllocProbe;

/// One thread's counters.
struct Counters {
    /// Allocator calls (alloc + alloc_zeroed + realloc) since the thread
    /// started.
    calls: Cell<u64>,
    /// Bytes allocated minus bytes freed since the last [`reset_peak`].
    net: Cell<i64>,
    /// High-water mark of `net` since the last [`reset_peak`].
    peak: Cell<i64>,
}

thread_local! {
    static COUNTERS: Counters =
        const { Counters { calls: Cell::new(0), net: Cell::new(0), peak: Cell::new(0) } };
}

/// Move the calling thread's net bytes by `delta`, counting one allocator
/// call when `call` is set.
fn track(call: bool, delta: i64) {
    // `try_with`: a thread may still allocate while its thread-locals are
    // being torn down; such calls go uncounted instead of panicking.
    let _ = COUNTERS.try_with(|c| {
        c.calls.set(c.calls.get() + u64::from(call));
        let net = c.net.get() + delta;
        c.net.set(net);
        c.peak.set(c.peak.get().max(net));
    });
}

/// A layout size as a signed byte count (`Layout` caps sizes at
/// `isize::MAX`, so the cast is exact).
fn bytes(size: usize) -> i64 {
    size as i64
}

// SAFETY: every operation delegates to `System` with unchanged arguments;
// the only additions are updates of the calling thread's `Cell` counters,
// which allocate nothing.
unsafe impl GlobalAlloc for AllocProbe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(true, bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(true, bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(true, bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(false, -bytes(layout.size()));
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls (alloc + alloc_zeroed + realloc) made by the calling
/// thread since it started. Other threads' calls never show up here, so
/// the difference across a measured window is exact and deterministic.
pub fn alloc_calls() -> u64 {
    COUNTERS.try_with(|c| c.calls.get()).unwrap_or(0)
}

/// Open a measured window on the calling thread: its net and peak bytes
/// restart from zero.
pub fn reset_peak() {
    let _ = COUNTERS.try_with(|c| {
        c.net.set(0);
        c.peak.set(0);
    });
}

/// The most bytes the calling thread has held above the level of its last
/// [`reset_peak`]: the window's own heap high-water mark. Never negative,
/// whatever the thread freed.
pub fn peak_growth() -> u64 {
    COUNTERS.try_with(|c| c.peak.get()).map_or(0, |peak| peak.max(0) as u64)
}

/// Whether the probe is actually installed as the global allocator. A
/// binary that forgot `#[global_allocator]` sees all counters frozen at
/// zero; measurements should check this and fail loudly rather than report
/// a fake clean zero.
pub fn probe_active() -> bool {
    // black_box keeps the optimizer from eliding the unused allocation
    // (LLVM may remove unobserved malloc/free pairs in release builds,
    // which would make an installed probe look inactive).
    let before = alloc_calls();
    let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(32));
    drop(std::hint::black_box(v));
    alloc_calls() != before
}

#[cfg(test)]
mod tests {
    // The probe is NOT installed in this (library) test binary, so the
    // counters must stay frozen and `probe_active` must say so. The
    // installed-path behavior is exercised by `tests/bench_artifact.rs`
    // and `tests/alloc_discipline.rs` at the workspace root, which do
    // install it.
    use super::*;

    #[test]
    fn uninstalled_probe_reports_inactive() {
        assert!(!probe_active());
        assert_eq!(alloc_calls(), 0);
        reset_peak();
        let v: Vec<u64> = std::hint::black_box(vec![7; 1024]);
        drop(std::hint::black_box(v));
        assert_eq!(peak_growth(), 0);
    }
}
