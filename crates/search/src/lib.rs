//! Automated adversary search (ROADMAP item 4a): an evolutionary
//! worst-case fuzzer over instance genomes, with a shrinking minimizer
//! and a committed regression corpus.
//!
//! The paper's Appendices A and B *hand-craft* the instances that break
//! pure ΔLRU and pure EDF. This crate turns that construction into a
//! search problem:
//!
//! * [`fitness`] — the objective: run a policy on a decoded
//!   [`rrs_workloads::genome::Genome`], referee it with the guarded exact
//!   OPT solver (degrading to the certified lower bound when the state
//!   budget trips), and keep the ratio as an exact rational compared by
//!   `u128` cross-multiplication — no float enters the search trajectory.
//! * [`evolve`] — seeded evolution (mutation + crossover + elitism),
//!   fanned out over `par_map_sweep`, byte-identical at any worker count.
//! * [`shrink`] — proptest-style greedy minimization to a smallest genome
//!   preserving ratio ≥ threshold.
//! * [`journal`] — the versioned JSONL search journal (sink-schema idiom:
//!   self-describing `{"ev":...}` lines, meta first, no timestamps) and
//!   its drift-rejecting parser.
//! * [`corpus`] — the committed-fixture format `tests/adversaries.rs`
//!   replays at exact recorded costs, with the replay referee pinned
//!   independently of search defaults.
//!
//! ```
//! use rrs_search::prelude::*;
//!
//! let cfg = SearchConfig {
//!     seed: 42,
//!     generations: 2,
//!     population: 6,
//!     policy: PolicyKind::DeltaLru,
//!     ..Default::default()
//! };
//! let report = run_search(&cfg, |_| {});
//! let minimized = shrink(
//!     &report.best,
//!     cfg.policy,
//!     &cfg.eval,
//!     report.best.eval.fitness,
//!     1_000,
//!     |_| {},
//! );
//! assert!(minimized.minimized.genome.size() <= report.best.genome.size());
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod evolve;
pub mod fitness;
pub mod journal;
pub mod shrink;

pub use corpus::{parse_corpus_entry, CorpusEntry, CORPUS_OPT, CORPUS_SCHEMA_VERSION};
pub use evolve::{
    run_search, run_search_cached, Candidate, GenerationSummary, SearchConfig, SearchReport,
};
pub use fitness::{
    evaluate, evaluate_cached, evaluate_instance, evaluate_instance_cached, EvalConfig, Evaluation,
    Fitness, PolicyKind, Referee, SolvedLine,
};
pub use journal::{
    gen_line, meta_line, parse_journal, parse_journal_line, result_line, shrink_line, JournalLine,
    JournalParseError, JournalWriter, SEARCH_SCHEMA_VERSION,
};
pub use shrink::{shrink, ShrinkReport, ShrinkStep};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::corpus::{parse_corpus_entry, CorpusEntry, CORPUS_OPT, CORPUS_SCHEMA_VERSION};
    pub use crate::evolve::{
        run_search, run_search_cached, Candidate, GenerationSummary, SearchConfig, SearchReport,
    };
    pub use crate::fitness::{
        evaluate, evaluate_cached, evaluate_instance, evaluate_instance_cached, EvalConfig,
        Evaluation, Fitness, PolicyKind, Referee, SolvedLine,
    };
    pub use crate::journal::{
        gen_line, meta_line, parse_journal, parse_journal_line, result_line, shrink_line,
        JournalLine, JournalParseError, JournalWriter, SEARCH_SCHEMA_VERSION,
    };
    pub use crate::shrink::{shrink, ShrinkReport, ShrinkStep};
}
