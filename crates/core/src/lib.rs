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
//! All policies are deterministic; every tie is broken by the *consistent
//! order of colors* (ascending [`rrs_model::ColorId`]).
//!
//! ```
//! use rrs_core::DeltaLruEdf;
//! use rrs_engine::Simulator;
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
//! assert_eq!(policy.metrics().num_epochs(), 1);
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
pub use distribute::Distribute;
pub use dlru::DeltaLru;
pub use dlru_edf::DeltaLruEdf;
pub use edf::Edf;
pub use rrs_engine::{AlgoMetrics, StateFootprint};
pub use transform::{distribute_instance, varbatch_instance, SubColorMap};
pub use var_batch::VarBatch;

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

/// The end-to-end algorithm for the paper's main problem `[Δ|1|D_ℓ|1]`:
/// `VarBatch ∘ Distribute ∘ ΔLRU-EDF` (Theorem 3).
pub type FullAlgorithm = VarBatch<Distribute<DeltaLruEdf>>;

/// Construct the end-to-end Theorem 3 algorithm.
pub fn full_algorithm() -> FullAlgorithm {
    VarBatch::new(Distribute::new(DeltaLruEdf::new()))
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::transform::{distribute_instance, varbatch_instance, SubColorMap};
    pub use crate::{
        full_algorithm, AlgoMetrics, ClassicLru, DeltaLru, DeltaLruEdf, Distribute, Edf,
        FullAlgorithm, Instrumented, StateFootprint, VarBatch,
    };
}
