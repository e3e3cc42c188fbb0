//! Memory discipline of the round loop (DESIGN.md §8).
//!
//! The counting global allocator — shared with `tests/stream_stress.rs`
//! and the `rrs bench` harness via `rrs_bench::alloc_probe`, as are the
//! per-round recorder and the batched workload (`rrs_bench::alloc_fixtures`)
//! — measures heap allocations per simulated round. After a warm-up
//! prefix (buffers growing to their high-water marks, colors becoming
//! eligible), a steady-state round must perform **zero** allocations for
//! ΔLRU-EDF at speed 1, and only boundedly many for the full reduction
//! stack `VarBatch<Distribute<ΔLRU-EDF>>` (whose virtual universe may
//! still grow while batches are being split).
//!
//! Every probe counter is per thread, so each test's readings cover only
//! the code it runs and are immune to sibling tests in this binary. The
//! same counters show that the exact solvers do all their work on the
//! calling thread at any worker count.

use rrs::engine::set_jobs;
use rrs::prelude::*;
use rrs_bench::alloc_fixtures::{batched_instance, RoundAllocs};
use rrs_bench::alloc_probe;

#[global_allocator]
static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;

/// A general (off-boundary, oversized-batch) workload for the reduction
/// stack.
fn general_instance(rounds: u64) -> rrs_model::Instance {
    let mut b = rrs_model::InstanceBuilder::new(2);
    let c4 = b.color(4);
    let c6 = b.color(6);
    let c16 = b.color(16);
    for r in 0..rounds {
        b.arrive(r, c4, 1);
        if r % 3 == 1 {
            b.arrive(r, c6, 2);
        }
        if r % 16 == 5 {
            b.arrive(r, c16, 20); // oversized: Distribute must split it
        }
    }
    b.build()
}

fn run_with_probe<P: Policy>(inst: &rrs_model::Instance, n: usize, policy: &mut P) -> RoundAllocs {
    let sim = Simulator::new(inst, n);
    let mut probe = RoundAllocs::with_capacity(inst.horizon() as usize + 1);
    sim.run_traced(policy, &mut probe);
    probe
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");

    // Part 1: ΔLRU-EDF at speed 1 — zero allocations per steady round.
    let inst = batched_instance(128);
    let warmup = 64;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    assert!(probe.per_round.last().unwrap().0 >= 200, "instance too short to be meaningful");
    for &(round, allocs) in &probe.per_round {
        if round >= warmup {
            assert_eq!(
                allocs, 0,
                "dlru-edf round {round} performed {allocs} heap allocations; \
                 the steady-state round loop must be allocation-free"
            );
        }
    }

    // Part 2: the full stack VarBatch<Distribute<ΔLRU-EDF>> — bounded
    // allocations per steady round (the virtual universe may grow while
    // oversized batches mint sub-colors, but it must plateau).
    let inst = general_instance(192);
    let warmup = 96;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::full_algorithm());
    let max_after: u64 =
        probe.per_round.iter().filter(|&&(r, _)| r >= warmup).map(|&(_, a)| a).max().unwrap();
    assert!(
        max_after <= 4,
        "full stack allocated {max_after} times in a steady-state round; \
         expected a small bounded number"
    );

    // Part 3: 10⁵ *live* colors. The opening round materializes every
    // page and book state; after that warm-up, steady rounds on the hot
    // slice must stay allocation-free — page lookups and the hierarchical
    // set walks never allocate once touched.
    let live = 100_000usize;
    let mut b = rrs_model::InstanceBuilder::new(2);
    let colors: Vec<_> = (0..live).map(|i| b.color(if i % 2 == 0 { 2 } else { 4 })).collect();
    for &c in &colors {
        b.arrive(0, c, 1);
    }
    for r in 1..192u64 {
        if r.is_multiple_of(2) {
            b.arrive(r, colors[0], 2);
            b.arrive(r, colors[62], 1); // same leaf word as colors[0]
            b.arrive(r, colors[live - 2], 1); // far page, still pre-touched
        }
        if r.is_multiple_of(4) {
            b.arrive(r, colors[1], 3); // bound-4 color, on-boundary rounds only
        }
    }
    let inst = b.build();
    let warmup = 96;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    for &(round, allocs) in &probe.per_round {
        if round >= warmup {
            assert_eq!(
                allocs, 0,
                "dlru-edf round {round} allocated {allocs} times with 10^5 live colors; \
                 pre-touched pages must keep the steady state allocation-free"
            );
        }
    }

    // Part 4: a 10⁶-color universe of which only ~10³ colors are ever
    // live. Peak policy + engine heap must be a live-color budget plus
    // the thin per-universe residue (bitset leaf words and page-spine
    // pointers, ≤ a few bytes per declared color) — far below the
    // hundreds of bytes per color the dense per-color state used to pin.
    let universe = 1_000_000usize;
    let live = 1_000usize;
    let mut b = rrs_model::InstanceBuilder::new(2);
    let colors: Vec<_> = (0..universe).map(|i| b.color(if i % 2 == 0 { 2 } else { 4 })).collect();
    for k in 0..live {
        // Scattered ids: worst case for paging (every live color on its
        // own page), exercising the O(touched pages) bound.
        let c = colors[k * (universe / live)];
        b.arrive(0, c, 1);
        b.arrive(64, c, 1);
    }
    let inst = b.build();
    alloc_probe::reset_peak();
    run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    let peak = alloc_probe::peak_growth();
    eprintln!("10^6-universe/{live}-live run: live-heap peak {peak} bytes");
    let cap = 24 * 1024 * 1024;
    assert!(
        peak < cap,
        "10^6-color universe with {live} live colors grew live heap by {peak} bytes \
         (cap {cap}); per-color state is no longer proportional to the live colors"
    );
}

#[test]
fn exact_solvers_run_on_the_calling_thread_at_any_worker_count() {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    // Four colors of bound 4 over six blocks: at m = 2 the memo's layers
    // grow past 64 states.
    let mut b = rrs_model::InstanceBuilder::new(2);
    let colors: Vec<_> = (0..4).map(|_| b.color(4)).collect();
    for blk in 0..6 {
        for (i, &c) in colors.iter().enumerate() {
            b.arrive(blk * 4 + i as u64 % 2, c, 1 + (i as u64 % 3));
        }
    }
    let memo_inst = b.build();
    let mut b = rrs_model::InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(4);
    b.arrive(0, c0, 2).arrive(0, c1, 3).arrive(2, c0, 2);
    let brute_inst = b.build();

    // (memo cost, brute cost, memo calls, brute calls) on this thread.
    let solve_at = |jobs: usize| {
        set_jobs(jobs);
        let start = alloc_probe::alloc_calls();
        let memo = solve_opt_memoized(&memo_inst, 2, OptConfig::default(), None, None)
            .expect("memo solves");
        let mid = alloc_probe::alloc_calls();
        let brute = solve_brute(&brute_inst, 2);
        let end = alloc_probe::alloc_calls();
        (memo.cost, brute, mid - start, end - mid)
    };
    let serial = solve_at(1);
    let parallel = solve_at(4);
    assert_eq!(
        parallel, serial,
        "(memo cost, brute cost, memo allocs, brute allocs) on the calling thread moved with \
         the worker count: a solver handed work to other threads"
    );
}
