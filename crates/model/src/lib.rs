//! Problem model for *reconfigurable resource scheduling with variable
//! delay bounds* (Plaxton, Sun, Tiwari, Vin — IPPS 2007).
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * [`ColorId`] — a job category ("color" in the paper). Each color has a
//!   positive integer **delay bound** `D_ℓ`; a job of color `ℓ` arriving in
//!   round `k` must execute by its **deadline** `k + D_ℓ` or be dropped at
//!   unit cost.
//! * [`Request`] — the (possibly empty) multiset of unit jobs arriving in a
//!   single round, encoded as `(color, count)` pairs.
//! * [`Instance`] — a complete problem instance: the reconfiguration cost
//!   `Δ`, the color table, and the request sequence.
//! * [`CostLedger`] — the cost accounting used uniformly by the simulator,
//!   the offline solvers and the analysis harness.
//! * [`ColorMap`] / [`ColorSet`] — dense `ColorId`-indexed containers; the
//!   flat state layout every hot-path per-color map in the workspace uses
//!   (see DESIGN.md §8).
//! * [`json`] — the workspace's one JSON codec: a strict, total reader and
//!   the one string escaper.
//! * [`classify`] — instance validators for the paper's problem classes in
//!   the `[reconfig | drop | delay | batch]` notation: batched arrivals,
//!   rate-limited batches, power-of-two delay bounds.
//!
//! Everything here is deterministic and allocation-conscious; rounds, job
//! counts and costs are `u64`, colors are a `u32` newtype.

#![forbid(unsafe_code)]

pub mod classify;
pub mod color;
pub mod cost;
pub mod dense;
pub mod instance;
pub mod json;
pub mod request;
pub mod snap;
pub mod stream;
pub mod textio;

pub use classify::{InstanceClass, ValidationError};
pub use color::{ColorId, ColorTable, BLACK};
pub use cost::{check_delta, CostLedger, MAX_DELTA};
pub use dense::{ColorMap, ColorSet};
pub use instance::{Instance, InstanceBuilder};
pub use request::{Request, RequestSeq};
pub use snap::{
    crc32, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_MIN_VERSION, SNAP_VERSION,
};
pub use stream::{InstanceSource, MaterializedSource, StreamError, TextStream};
pub use textio::{from_text, to_text, ParseError};
