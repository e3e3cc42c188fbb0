//! The fixtures the allocation measurements share: the batched workload
//! and the per-round [`alloc_probe`] recorder behind both the `core`
//! suite's `allocs_per_round_*` metrics and the zero-allocation contract
//! of `tests/alloc_discipline.rs`.

use rrs_engine::Recorder;
use rrs_model::{Instance, InstanceBuilder};

use crate::alloc_probe;

/// A batched `[Δ|1|D_ℓ|D_ℓ]` workload: five colors over three bounds with
/// periodic batches, sized by block count (horizon ≈ 2·blocks rounds),
/// long enough to reach a steady state.
pub fn batched_instance(blocks: u64) -> Instance {
    let mut b = InstanceBuilder::new(3);
    let c2a = b.color(2);
    let c2b = b.color(2);
    let c4a = b.color(4);
    let c4b = b.color(4);
    let c8 = b.color(8);
    for blk in 0..blocks {
        b.arrive(blk * 2, c2a, 2);
        if blk % 2 == 0 {
            b.arrive(blk * 2, c2b, 1);
        }
    }
    for blk in 0..blocks / 2 {
        b.arrive(blk * 4, c4a, 4).arrive(blk * 4, c4b, 3);
    }
    for blk in 0..blocks / 4 {
        b.arrive(blk * 8, c8, 8);
    }
    b.build()
}

/// Recorder sampling [`alloc_probe::alloc_calls`] at round boundaries.
/// Storage is preallocated so the probe itself never allocates mid-run.
#[derive(Debug)]
pub struct RoundAllocs {
    /// `(round, allocator calls)` per finished round, in round order.
    pub per_round: Vec<(u64, u64)>,
    at_round_start: u64,
}

impl RoundAllocs {
    /// A recorder with room for `rounds` rounds.
    pub fn with_capacity(rounds: usize) -> Self {
        Self { per_round: Vec::with_capacity(rounds + 16), at_round_start: 0 }
    }

    /// (max, total) allocator calls over rounds `>= warmup`.
    pub fn steady(&self, warmup: u64) -> (u64, u64) {
        let mut max = 0;
        let mut total = 0;
        for &(round, allocs) in &self.per_round {
            if round >= warmup {
                max = max.max(allocs);
                total += allocs;
            }
        }
        (max, total)
    }
}

impl Recorder for RoundAllocs {
    fn on_round_start(&mut self, _round: u64) {
        self.at_round_start = alloc_probe::alloc_calls();
    }
    fn on_round_end(&mut self, round: u64) {
        let now = alloc_probe::alloc_calls();
        assert!(self.per_round.len() < self.per_round.capacity(), "alloc recorder undersized");
        self.per_round.push((round, now - self.at_round_start));
    }
}
