//! The JSONL search journal: one self-describing `{"ev":...}` line per
//! search event, following the trace-sink schema idiom (meta line first,
//! version stamped). [`JournalLine::to_json`] is the writer and
//! [`parse_journal_line`] the reader, through the workspace's strict JSON
//! reader, [`rrs_model::json`].
//!
//! **Determinism boundary.** Journal lines carry *no* timestamps or other
//! host-dependent fields: the byte stream is a pure function of the
//! search configuration, so journals are golden-testable at any `--jobs`
//! setting (an acceptance criterion of the adversary-search CLI). The CI
//! smoke job re-parses committed journals with [`parse_journal`], which
//! rejects on any schema drift.

use std::fmt::Write as _;
use std::io::{self, Write};

use rrs_model::json::{self, Quoted};

use crate::evolve::{GenerationSummary, SearchConfig};
use crate::fitness::Evaluation;
use crate::shrink::ShrinkStep;

/// Version stamped into every meta line; bump on breaking schema changes.
pub const SEARCH_SCHEMA_VERSION: u64 = 1;

/// The `tool` every meta line names.
const TOOL: &str = "adversary-search";

/// The meta line for a search run (no trailing newline).
pub fn meta_line(cfg: &SearchConfig) -> String {
    JournalLine::Meta {
        version: SEARCH_SCHEMA_VERSION,
        seed: cfg.seed,
        budget: u64::from(cfg.generations),
        population: cfg.population as u64,
        elites: cfg.elites as u64,
        policy: cfg.policy.name().to_string(),
        locations: cfg.eval.locations as u64,
        referee_m: cfg.eval.referee_resources as u64,
    }
    .to_json()
}

/// A per-generation line.
pub fn gen_line(summary: &GenerationSummary) -> String {
    let (genome, cost, base, referee) =
        eval_fields(&summary.best.genome.encode(), &summary.best.eval);
    JournalLine::Gen {
        gen: u64::from(summary.gen),
        evals: summary.evals,
        genome,
        cost,
        base,
        referee,
    }
    .to_json()
}

/// An accepted-shrink-step line.
pub fn shrink_line(step: &ShrinkStep) -> String {
    let (genome, cost, base, referee) =
        eval_fields(&step.candidate.genome.encode(), &step.candidate.eval);
    JournalLine::Shrink { step: u64::from(step.step), genome, cost, base, referee }.to_json()
}

/// The final-result line.
pub fn result_line(genome_enc: &str, eval: &Evaluation, size: u64, evals: u64) -> String {
    let (genome, cost, base, referee) = eval_fields(genome_enc, eval);
    JournalLine::Result { genome, cost, base, referee, size, evals }.to_json()
}

fn eval_fields(genome: &str, eval: &Evaluation) -> (String, u64, u64, String) {
    (genome.to_string(), eval.fitness.cost, eval.fitness.base, eval.referee.name().to_string())
}

/// Streams journal lines to any writer.
pub struct JournalWriter<W: Write> {
    out: W,
}

impl<W: Write> JournalWriter<W> {
    /// Wrap a writer; emits nothing until the first event.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Write one pre-rendered line.
    pub fn line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flush and return the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// One journal line.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalLine {
    /// Run identity + configuration.
    Meta {
        /// Schema version (validated against [`SEARCH_SCHEMA_VERSION`]).
        version: u64,
        /// Master seed.
        seed: u64,
        /// Generation budget.
        budget: u64,
        /// Population size.
        population: u64,
        /// Elites carried over per generation.
        elites: u64,
        /// Target policy name.
        policy: String,
        /// Locations the target policy runs with.
        locations: u64,
        /// Resources the referee runs with.
        referee_m: u64,
    },
    /// Per-generation best.
    Gen {
        /// Generation index.
        gen: u64,
        /// Cumulative evaluations.
        evals: u64,
        /// Best genome's encoding.
        genome: String,
        /// Online cost.
        cost: u64,
        /// Referee baseline.
        base: u64,
        /// Which referee produced `base`.
        referee: String,
    },
    /// Accepted shrink step.
    Shrink {
        /// 1-based step.
        step: u64,
        /// Genome encoding after the step.
        genome: String,
        /// Online cost.
        cost: u64,
        /// Referee baseline.
        base: u64,
        /// Which referee produced `base`.
        referee: String,
    },
    /// Final minimized result.
    Result {
        /// Genome encoding.
        genome: String,
        /// Online cost.
        cost: u64,
        /// Referee baseline.
        base: u64,
        /// Which referee produced `base`.
        referee: String,
        /// Structural size.
        size: u64,
        /// Total evaluations.
        evals: u64,
    },
}

impl JournalLine {
    /// The line as one JSON object (no trailing newline). The `ratio`
    /// field is derived from `cost` and `base`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let eval = |s: &mut String, genome: &str, cost: u64, base: u64, referee: &str| {
            let ratio = rrs_analysis::ratio(cost, base);
            let _ = write!(
                s,
                ",\"genome\":{},\"cost\":{cost},\"base\":{base},\"ratio\":{ratio},\"referee\":{}",
                Quoted(genome),
                Quoted(referee)
            );
        };
        // Formatting into a `String` cannot fail.
        let _ = match self {
            JournalLine::Meta {
                version,
                seed,
                budget,
                population,
                elites,
                policy,
                locations,
                referee_m,
            } => write!(
                s,
                "{{\"ev\":\"meta\",\"version\":{version},\"tool\":{},\"seed\":{seed},\
                 \"budget\":{budget},\"population\":{population},\"elites\":{elites},\
                 \"policy\":{},\"locations\":{locations},\"referee_m\":{referee_m}}}",
                Quoted(TOOL),
                Quoted(policy)
            ),
            JournalLine::Gen { gen, evals, genome, cost, base, referee } => {
                let _ = write!(s, "{{\"ev\":\"gen\",\"gen\":{gen},\"evals\":{evals}");
                eval(&mut s, genome, *cost, *base, referee);
                write!(s, "}}")
            }
            JournalLine::Shrink { step, genome, cost, base, referee } => {
                let _ = write!(s, "{{\"ev\":\"shrink\",\"step\":{step}");
                eval(&mut s, genome, *cost, *base, referee);
                write!(s, "}}")
            }
            JournalLine::Result { genome, cost, base, referee, size, evals } => {
                s.push_str("{\"ev\":\"result\"");
                eval(&mut s, genome, *cost, *base, referee);
                write!(s, ",\"size\":{size},\"evals\":{evals}}}")
            }
        };
        s
    }
}

/// A journal parse failure, with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalParseError {}

/// Decode one journal line: a JSON object with a known `ev` and every
/// field its writer emits (`ratio` must be a number; its value is derived
/// and not kept).
pub fn parse_journal_line(line: &str) -> Result<JournalLine, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let text = |key: &str| v.str_field(key).map(str::to_string);
    let parsed = match v.str_field("ev")? {
        "meta" => {
            let version = v.u64_field("version")?;
            if version != SEARCH_SCHEMA_VERSION {
                return Err(format!("schema version {version}, expected {SEARCH_SCHEMA_VERSION}"));
            }
            if v.str_field("tool")? != TOOL {
                return Err(format!("tool is not '{TOOL}'"));
            }
            JournalLine::Meta {
                version,
                seed: v.u64_field("seed")?,
                budget: v.u64_field("budget")?,
                population: v.u64_field("population")?,
                elites: v.u64_field("elites")?,
                policy: text("policy")?,
                locations: v.u64_field("locations")?,
                referee_m: v.u64_field("referee_m")?,
            }
        }
        "gen" => JournalLine::Gen {
            gen: v.u64_field("gen")?,
            evals: v.u64_field("evals")?,
            genome: text("genome")?,
            cost: v.u64_field("cost")?,
            base: v.u64_field("base")?,
            referee: text("referee")?,
        },
        "shrink" => JournalLine::Shrink {
            step: v.u64_field("step")?,
            genome: text("genome")?,
            cost: v.u64_field("cost")?,
            base: v.u64_field("base")?,
            referee: text("referee")?,
        },
        "result" => JournalLine::Result {
            genome: text("genome")?,
            cost: v.u64_field("cost")?,
            base: v.u64_field("base")?,
            referee: text("referee")?,
            size: v.u64_field("size")?,
            evals: v.u64_field("evals")?,
        },
        other => return Err(format!("unknown ev '{other}'")),
    };
    if !matches!(parsed, JournalLine::Meta { .. }) {
        v.field("ratio")?.as_number().ok_or("field 'ratio' is not a number")?;
    }
    Ok(parsed)
}

/// Parse a complete journal. Validates: the first line is a `meta` with
/// the current schema version, every line is a JSON object with a known
/// `ev`, and all fields are present — so any schema drift fails loudly
/// here.
pub fn parse_journal(text: &str) -> Result<Vec<JournalLine>, JournalParseError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| JournalParseError { line: idx + 1, message };
        let parsed = parse_journal_line(line).map_err(err)?;
        if out.is_empty() && !matches!(parsed, JournalLine::Meta { .. }) {
            return Err(err("journal must start with a meta line".into()));
        }
        out.push(parsed);
    }
    if out.is_empty() {
        return Err(JournalParseError { line: 1, message: "empty journal".into() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::{run_search, SearchConfig};
    use crate::fitness::PolicyKind;

    fn render_run(cfg: &SearchConfig) -> String {
        let mut text = String::new();
        text.push_str(&meta_line(cfg));
        text.push('\n');
        let report = run_search(cfg, |s| {
            text.push_str(&gen_line(s));
            text.push('\n');
        });
        text.push_str(&result_line(
            &report.best.genome.encode(),
            &report.best.eval,
            report.best.genome.size(),
            report.evals,
        ));
        text.push('\n');
        text
    }

    #[test]
    fn journal_round_trips_through_parser() {
        let cfg = SearchConfig {
            seed: 9,
            generations: 2,
            population: 6,
            elites: 2,
            policy: PolicyKind::Edf,
            // Starved referee: this test checks the journal format only.
            eval: crate::fitness::EvalConfig {
                opt: rrs_offline::OptConfig { max_states: 500, state_budget: Some(2_000) },
                ..Default::default()
            },
        };
        let text = render_run(&cfg);
        let lines = parse_journal(&text).expect("journal parses");
        assert!(matches!(
            lines[0],
            JournalLine::Meta { version: SEARCH_SCHEMA_VERSION, seed: 9, budget: 2, .. }
        ));
        let gens = lines.iter().filter(|l| matches!(l, JournalLine::Gen { .. })).count();
        assert_eq!(gens, 3); // generations 0..=2
        assert!(matches!(lines.last(), Some(JournalLine::Result { .. })));
    }

    #[test]
    fn parser_rejects_drifted_schemas() {
        // Wrong version.
        let bad = "{\"ev\":\"meta\",\"version\":99,\"seed\":1,\"budget\":1,\"population\":2,\"policy\":\"dlru\"}";
        assert!(parse_journal(bad).is_err());
        // Unknown event.
        let good_meta = "{\"ev\":\"meta\",\"version\":1,\"tool\":\"adversary-search\",\"seed\":1,\"budget\":1,\"population\":2,\"elites\":1,\"policy\":\"dlru\",\"locations\":8,\"referee_m\":1}";
        assert!(parse_journal(good_meta).is_ok());
        let bad2 = format!("{good_meta}\n{{\"ev\":\"mystery\",\"x\":1}}");
        assert!(parse_journal(&bad2).is_err());
        // Missing field.
        let bad3 = format!("{good_meta}\n{{\"ev\":\"gen\",\"gen\":0}}");
        let e = parse_journal(&bad3).unwrap_err();
        assert_eq!(e.line, 2);
        // No meta first.
        assert!(parse_journal("{\"ev\":\"result\",\"genome\":\"d1|0:1:1:0:0\",\"cost\":0,\"base\":0,\"ratio\":1,\"referee\":\"exact\",\"size\":102}").is_err());
        assert!(parse_journal("").is_err());
    }

    #[test]
    fn lines_round_trip_through_to_json() {
        let line = JournalLine::Result {
            genome: "d1|\"odd\"\\\n".into(),
            cost: 3,
            base: 2,
            referee: "exact".into(),
            size: 7,
            evals: 9,
        };
        assert_eq!(parse_journal_line(&line.to_json()), Ok(line));
    }
}
