//! The experiment harness: everything needed to regenerate the paper's
//! analytical results empirically.
//!
//! * [`table`] — plain-text result tables (what a paper would print).
//! * [`run`] — the harness's one run, [`run_report`]: a policy over an
//!   instance, reported as its costs, its lemma counters and a per-color
//!   attribution, through the one supervised choke point [`simulate`].
//! * [`lemmas`] — checkers for the Section 3 inequalities (Lemmas 3.2, 3.3,
//!   3.4) on real executions.
//! * [`punctuality`] — the §5.2 early/punctual/late execution classes,
//!   reconstructed from traces.
//! * [`ratio`] — competitive-ratio arithmetic against exact OPT or
//!   certified lower bounds.
//! * [`experiments`] — the E1–E16 suite indexed in `DESIGN.md`; each
//!   function reproduces one analytical artifact of the paper and returns a
//!   printable [`table::Table`] with the [`RunReport`]s of the runs it
//!   labeled.
//!
//! ```
//! use rrs_analysis::check_lemmas;
//! use rrs_workloads::{rate_limited_instance, RateLimitedConfig};
//!
//! let inst = rate_limited_instance(&RateLimitedConfig::default(), 1);
//! let report = check_lemmas(&inst, 8);
//! assert!(report.all_hold(), "the Section 3 lemmas are theorems");
//! ```

#![forbid(unsafe_code)]

pub mod attribution;
pub mod experiments;
pub mod lemmas;
pub mod punctuality;
pub mod ratio;
pub mod run;
pub mod table;
pub mod timeline;

pub use attribution::{attribution_table, per_color_from_events, ColorCosts, CostFold};
pub use lemmas::{check_lemmas, LemmaReport};
pub use punctuality::{
    bonus_saves, execution_records, fifo_outcomes, punctuality_stats, unattributed_lates,
    Punctuality, PunctualityStats,
};
pub use ratio::ratio;
pub use run::{checked, run_report, simulate, supervisor, RunReport, SUPERVISED};
pub use table::Table;
pub use timeline::{timeline, timeline_table, Window};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::attribution::{attribution_table, per_color_from_events, ColorCosts, CostFold};
    pub use crate::experiments;
    pub use crate::lemmas::{check_lemmas, LemmaReport};
    pub use crate::punctuality::{
        bonus_saves, execution_records, fifo_outcomes, punctuality_stats, unattributed_lates,
        Punctuality, PunctualityStats,
    };
    pub use crate::ratio::ratio;
    pub use crate::run::{run_report, simulate, supervisor, RunReport};
    pub use crate::table::Table;
    pub use crate::timeline::{timeline, timeline_table, Window};
}
