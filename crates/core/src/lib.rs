//! The paper's online algorithms — the primary contribution of the
//! reproduction.
//!
//! Three policies for rate-limited `[Δ | 1 | D_ℓ | D_ℓ]` (Section 3):
//!
//! * [`DeltaLru`] — the ΔLRU scheme of §3.1.1: keep the eligible colors with
//!   the most recent *counter-wrap timestamps* cached. Not resource
//!   competitive (Appendix A): it happily caches idle colors and starves a
//!   color with a distant deadline and a deep backlog.
//! * [`Edf`] — the EDF scheme of §3.1.2: keep the nonidle eligible colors
//!   with the earliest deadlines cached. Not resource competitive
//!   (Appendix B): it thrashes, repeatedly paying Δ to swap a long-bound
//!   color in and out as short-bound colors blink between idle and nonidle.
//! * [`DeltaLruEdf`] — the paper's contribution (§3.1.3): split the cache
//!   between an LRU half (recency) and an EDF half (deadlines + utilization).
//!   Resource competitive with `n = 8m` (Theorem 1).
//!
//! Two online reductions lift the core algorithm to richer classes:
//!
//! * [`Distribute`] (§4.1) — splits oversize batches across minted
//!   *sub-colors* so each batch carries at most `D_ℓ` jobs, reducing
//!   `[Δ|1|D_ℓ|D_ℓ]` to its rate-limited special case (Theorem 2).
//! * [`VarBatch`] (§5.1) — delays every job to the next half-block boundary,
//!   reducing the general `[Δ|1|D_ℓ|1]` to `[Δ|1|D_ℓ/2|D_ℓ/2]`
//!   (Theorem 3). Our implementation also covers the §5.3 extension to
//!   arbitrary (non power-of-two) delay bounds by first rounding each bound
//!   down to a power of two — a job delayed under the rounded bound is
//!   always schedulable under the true bound, and the rounding loses at most
//!   a constant factor (see DESIGN.md).
//!
//! Each is an arrival transducer ([`Reduction`]) that one wrapper,
//! [`Reduced`], runs an inner policy behind; [`FullAlgorithm`] composes
//! both and simulates only the innermost virtual instance (`transform`).
//!
//! All policies are deterministic; every tie is broken by the *consistent
//! order of colors* (ascending [`rrs_model::ColorId`]).
//!
//! ```
//! use rrs_core::DeltaLruEdf;
//! use rrs_engine::{Policy, Simulator};
//! use rrs_model::InstanceBuilder;
//!
//! let mut b = InstanceBuilder::new(2);
//! let c = b.color(4);
//! for blk in 0..4 { b.arrive(blk * 4, c, 4); }
//! let inst = b.build();
//!
//! let mut policy = DeltaLruEdf::new();
//! let out = Simulator::new(&inst, 8).run(&mut policy);
//! assert_eq!(out.dropped, 0);
//! assert_eq!(policy.stats().metrics.num_epochs(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod book;
pub mod classic_lru;
pub mod distribute;
pub mod dlru;
pub mod dlru_edf;
pub mod edf;
pub mod ranking;
pub mod transform;
pub mod var_batch;

pub use book::ColorBook;
pub use classic_lru::ClassicLru;
pub use distribute::{Distribute, SubColors};
pub use dlru::DeltaLru;
pub use dlru_edf::DeltaLruEdf;
pub use edf::Edf;
pub use rrs_engine::{AlgoMetrics, StateFootprint};
pub use transform::{
    distribute_instance, materialize, varbatch_instance, Reduced, Reduction, Then,
};
pub use var_batch::{HalfBlocks, VarBatch};

use rrs_engine::Policy;

/// Access to the [`ColorBook`] a policy keeps, so external checkers (the
/// `rrs-check` crate's `CheckedPolicy`) can verify the timestamp laws
/// without knowing the concrete policy. Its counters travel through
/// [`Policy::stats`], like every policy's.
///
/// Implemented by the three book-keeping policies; [`ClassicLru`] is the
/// timestamp-free baseline and keeps the default `None`.
pub trait Instrumented {
    /// The shared per-color bookkeeping, if the policy keeps one.
    fn book(&self) -> Option<&ColorBook> {
        None
    }
}

/// [`Policy::stats`]'s footprint under its earlier name, kept for the
/// benchmark package (`crates/bench/src/bin/rrs-benchmark`), which imports
/// it; every policy has it through the blanket impl.
pub trait Footprint {
    /// Leaf words and live pages held right now.
    fn footprint(&self) -> StateFootprint;
}

impl<P: Policy + ?Sized> Footprint for P {
    fn footprint(&self) -> StateFootprint {
        self.stats().footprint
    }
}

/// The location rule of a policy whose cache is `k` ways: `n` must be a
/// positive multiple of `k` (`what` names the policy and its `k`).
pub(crate) fn multiple_of(n: usize, k: u64, what: &str) -> Result<(), String> {
    if n > 0 && (n as u64).is_multiple_of(k) {
        Ok(())
    } else {
        Err(format!("{what} needs a positive multiple of {k} locations, got {n}"))
    }
}

/// The end-to-end algorithm for the paper's main problem `[Δ|1|D_ℓ|1]`:
/// `VarBatch ∘ Distribute ∘ ΔLRU-EDF` (Theorem 3) as one wrapper, which
/// decides as the nested `VarBatch<Distribute<DeltaLruEdf>>` without σ′.
pub type FullAlgorithm = Reduced<Then<HalfBlocks, SubColors>, DeltaLruEdf>;

/// Construct the end-to-end Theorem 3 algorithm.
pub fn full_algorithm() -> FullAlgorithm {
    Reduced::new(DeltaLruEdf::new())
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        distribute_instance, full_algorithm, materialize, varbatch_instance, AlgoMetrics,
        ClassicLru, DeltaLru, DeltaLruEdf, Distribute, Edf, FullAlgorithm, HalfBlocks,
        Instrumented, Reduced, Reduction, StateFootprint, SubColors, Then, VarBatch,
    };
}
