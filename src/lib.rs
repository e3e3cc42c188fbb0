//! # rrs — Reconfigurable Resource Scheduling with Variable Delay Bounds
//!
//! A full reproduction of Plaxton, Sun, Tiwari & Vin, *"Reconfigurable
//! Resource Scheduling with Variable Delay Bounds"* (IPPS 2007): unit jobs
//! of different categories ("colors") arrive online, must run on a resource
//! configured for their color within a per-color delay bound or be dropped
//! at unit cost, and reconfiguring a resource costs Δ.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — colors, requests, instances, cost ledgers, validators.
//! * [`engine`] — the four-phase round simulator and the [`engine::Policy`]
//!   trait online algorithms implement.
//! * [`core`] — the paper's algorithms: ΔLRU (§3.1.1), EDF (§3.1.2), the
//!   resource-competitive **ΔLRU-EDF** (§3.1.3), and the *Distribute* (§4)
//!   and *VarBatch* (§5) reductions with the §5.3 arbitrary-bound extension.
//! * [`offline`] — the referees: exact offline OPT, certified lower bounds,
//!   Par-EDF, and the handcrafted offline schedules of Appendices A/B.
//! * [`workloads`] — adversarial, random and scenario workload generators.
//! * [`analysis`] — instrumented runs, lemma checkers and the experiment
//!   harness that regenerates every analytical result in the paper.
//! * [`search`] — the evolutionary worst-case fuzzer that *discovers*
//!   adversarial instances instead of replaying the appendix
//!   constructions, plus its shrinking minimizer and regression corpus.
//!
//! ## Quickstart
//!
//! ```
//! use rrs::prelude::*;
//!
//! // Two packet classes on a 8-way reconfigurable processor pool.
//! let mut b = InstanceBuilder::new(4); // Δ = 4
//! let voip = b.color(4);   // tight delay bound
//! let batch = b.color(32); // loose delay bound
//! for block in 0..8 {
//!     b.arrive(block * 4, voip, 3);
//! }
//! b.arrive(0, batch, 20);
//! let inst = b.build();
//!
//! let mut policy = DeltaLruEdf::new();
//! let outcome = Simulator::new(&inst, 8).run(&mut policy);
//! assert_eq!(
//!     outcome.cost.total(),
//!     outcome.cost.reconfig_cost() + outcome.cost.drop_cost()
//! );
//! ```

#![forbid(unsafe_code)]

pub use rrs_analysis as analysis;
pub use rrs_bench as bench;
pub use rrs_core as core;
pub use rrs_engine as engine;
pub use rrs_model as model;
pub use rrs_offline as offline;
pub use rrs_search as search;
pub use rrs_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rrs_analysis::prelude::*;
    pub use rrs_core::prelude::*;
    pub use rrs_engine::prelude::*;
    pub use rrs_model::{
        classify, ColorId, ColorTable, CostLedger, Instance, InstanceBuilder, InstanceClass,
        InstanceSource, MaterializedSource, Request, RequestSeq, SnapError, SnapReader, SnapWriter,
        StreamError, TextStream, ValidationError, BLACK,
    };
    pub use rrs_offline::prelude::*;
    pub use rrs_search::prelude::*;
    pub use rrs_workloads::prelude::*;
}
