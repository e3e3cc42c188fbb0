//! The committed benchmark trajectory behind `rrs bench`:
//! [`alloc_probe`] (the reusable counting global allocator), [`suite`]
//! (the fixed suites), [`artifact`] (the `BENCH_<suite>.json` schema) and
//! [`compare`] (the regression gate).
//!
//! The experiment tables E1–E16 are regenerated by `rrs evaluate`
//! (`rrs_analysis`); end-to-end and per-layer throughput of the Theorem 3
//! stack is measured by the standalone `rrs-benchmark` package under
//! `src/bin/rrs-benchmark`.

// `deny` rather than the workspace-standard `forbid` because
// `alloc_probe` needs an audited module-level `allow(unsafe_code)` for its
// `GlobalAlloc` impl, and `forbid` cannot be overridden. Every other
// module in this crate stays unsafe-free under the deny.
#![deny(unsafe_code)]

pub mod alloc_probe;
pub mod artifact;
pub mod compare;
pub mod suite;

pub use alloc_probe::AllocProbe;
pub use artifact::{artifact_filename, BenchArtifact, BenchRecord};
pub use compare::{compare_artifacts, CompareConfig, Comparison};
