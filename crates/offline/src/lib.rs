//! Offline referees for competitive-ratio experiments.
//!
//! The paper compares every online algorithm against an optimal offline
//! schedule OFF with `m` resources. OFF exists only as a proof device; to
//! *measure* competitive ratios this crate provides three substitutes, each
//! sound in a precise sense:
//!
//! * [`opt`] — the **exact optimal offline solver** [`solve_opt`] (a
//!   layered dynamic program over `(cache multiset, pending profile)`
//!   states), which is the memoized, canonicalized, Pareto-pruned solver
//!   of [`memo`]; [`OptCache`] (module [`cache`]) memoizes whole solves
//!   and persists them. Exponential in the number of colors and
//!   resources, so it referees the small instances of experiments E3 and
//!   E10 and the adversary search's genomes.
//! * [`par_edf`] — the **Par-EDF** relaxation of §3.3: `m` resources viewed
//!   as one super-resource executing the `m` best-ranked pending jobs per
//!   round, with no reconfiguration constraint. Its drop count lower-bounds
//!   the drop cost of *every* `m`-resource schedule (Lemma 3.7).
//! * [`bounds`] — certified lower bounds on OFF's **total** cost combining
//!   the per-color configure-or-drop argument with the Par-EDF drop bound.
//!   Ratios reported against a lower bound over-estimate the true
//!   competitive ratio, so "bounded by a constant" conclusions are sound.
//!
//! Two differential oracles check the exact solver: [`plain_dp`], the
//! same DP without canonical keys or pruning, whose reconstructed
//! schedules replay through the engine that runs online policies (so both
//! sides are priced identically), and [`brute`], a branch-and-bound search
//! of the full decision tree.
//!
//! ```
//! use rrs_model::InstanceBuilder;
//! use rrs_offline::{combined_lower_bound, solve_brute, solve_opt, OptConfig};
//!
//! let mut b = InstanceBuilder::new(2);
//! let c = b.color(4);
//! b.arrive(0, c, 3);
//! let inst = b.build();
//!
//! let opt = solve_opt(&inst, 1, OptConfig::default()).unwrap();
//! assert_eq!(opt.cost, 2); // configure once beats dropping 3 jobs
//! assert_eq!(solve_brute(&inst, 1), opt.cost);
//! assert!(combined_lower_bound(&inst, 1) <= opt.cost);
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod brute;
pub mod cache;
pub mod memo;
pub mod opt;
pub mod par_edf;
pub mod plain_dp;

pub use bounds::{combined_lower_bound, per_color_lower_bound, portfolio_upper_bound};
pub use brute::solve_brute;
pub use cache::{
    instance_digest, CacheError, OptCache, SolvedEntry, OPT_CACHE_MAGIC, OPT_CACHE_VERSION,
};
pub use memo::{solve_opt, MemoStats};
pub use opt::{OptConfig, OptError, OptResult};
pub use par_edf::{par_edf_drop_cost, ParEdfOutcome};
pub use plain_dp::solve_plain_dp;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::bounds::{combined_lower_bound, per_color_lower_bound, portfolio_upper_bound};
    pub use crate::brute::solve_brute;
    pub use crate::cache::{instance_digest, CacheError, OptCache, SolvedEntry};
    pub use crate::memo::{solve_opt, MemoStats};
    pub use crate::opt::{OptConfig, OptError, OptResult};
    pub use crate::par_edf::{par_edf_drop_cost, ParEdfOutcome};
    pub use crate::plain_dp::solve_plain_dp;
}
