//! The committed regression corpus: discovered adversaries pinned as
//! plain-text fixtures that `tests/adversaries.rs` replays forever.
//!
//! A fixture is a `key = value` file recording the minimized genome, the
//! policy it breaks, the evaluation geometry, and the *exact* measured
//! costs. Because every evaluation in this workspace is deterministic,
//! replays assert exact `cost`/`base` equality — any regression (or
//! improvement) in a policy shows up as a failed fixture, which is the
//! point.
//!
//! The referee settings used for corpus replay are **pinned here**
//! ([`CORPUS_OPT`]) independently of [`EvalConfig::default`], so tuning
//! the search's own budgets can never silently re-price committed
//! fixtures.

use rrs_offline::OptConfig;
use rrs_workloads::genome::{parse_genome, Genome};

use crate::fitness::{evaluate, EvalConfig, Evaluation, PolicyKind, Referee};

/// Fixture format version; bump on breaking changes.
pub const CORPUS_SCHEMA_VERSION: u64 = 1;

/// The pinned OPT guard for corpus replay. Never retune without
/// re-recording every fixture.
pub const CORPUS_OPT: OptConfig = OptConfig { max_states: 20_000, state_budget: Some(200_000) };

/// One committed adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The policy this genome breaks.
    pub policy: PolicyKind,
    /// The minimized genome.
    pub genome: Genome,
    /// Locations the online policy ran with.
    pub locations: usize,
    /// Referee resources.
    pub referee_resources: usize,
    /// Recorded online cost.
    pub cost: u64,
    /// Recorded referee baseline.
    pub base: u64,
    /// Which referee produced `base` when the fixture was recorded.
    pub referee: Referee,
}

impl CorpusEntry {
    /// The evaluation configuration a replay must use.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            locations: self.locations,
            referee_resources: self.referee_resources,
            opt: CORPUS_OPT,
        }
    }

    /// Re-measure the genome under the pinned configuration.
    pub fn replay(&self) -> Evaluation {
        evaluate(&self.genome, self.policy, &self.eval_config())
    }

    /// Render the fixture file (comment lines first).
    pub fn to_text(&self, comments: &[&str]) -> String {
        let mut s = String::new();
        for c in comments {
            s.push_str("# ");
            s.push_str(c);
            s.push('\n');
        }
        s.push_str(&format!(
            "schema = {CORPUS_SCHEMA_VERSION}\npolicy = {}\ngenome = {}\nlocations = {}\nreferee_m = {}\ncost = {}\nbase = {}\nreferee = {}\n",
            self.policy.name(),
            self.genome.encode(),
            self.locations,
            self.referee_resources,
            self.cost,
            self.base,
            self.referee.name(),
        ));
        s
    }
}

/// Parse a fixture file. Every key may appear at most once.
pub fn parse_corpus_entry(text: &str) -> Result<CorpusEntry, String> {
    let mut schema = None;
    let mut policy = None;
    let mut genome = None;
    let mut locations = None;
    let mut referee_m = None;
    let mut cost = None;
    let mut base = None;
    let mut referee = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected 'key = value', got '{line}'", idx + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let num = || value.parse::<u64>().map_err(|e| format!("bad {key} '{value}': {e}"));
        let duplicate = match key {
            "schema" => schema.replace(num()?).is_some(),
            "policy" => policy.replace(PolicyKind::parse(value)?).is_some(),
            "genome" => genome.replace(parse_genome(value)?).is_some(),
            "locations" => locations.replace(num()? as usize).is_some(),
            "referee_m" => referee_m.replace(num()? as usize).is_some(),
            "cost" => cost.replace(num()?).is_some(),
            "base" => base.replace(num()?).is_some(),
            "referee" => referee
                .replace(match value {
                    "exact" => Referee::Exact,
                    "lower-bound" => Referee::LowerBound,
                    other => return Err(format!("unknown referee '{other}'")),
                })
                .is_some(),
            other => return Err(format!("unknown key '{other}'")),
        };
        if duplicate {
            return Err(format!("line {}: duplicate key '{key}'", idx + 1));
        }
    }
    let schema = schema.ok_or("missing 'schema'")?;
    if schema != CORPUS_SCHEMA_VERSION {
        return Err(format!("fixture schema {schema}, expected {CORPUS_SCHEMA_VERSION}"));
    }
    Ok(CorpusEntry {
        policy: policy.ok_or("missing 'policy'")?,
        genome: genome.ok_or("missing 'genome'")?,
        locations: locations.ok_or("missing 'locations'")?,
        referee_resources: referee_m.ok_or("missing 'referee_m'")?,
        cost: cost.ok_or("missing 'cost'")?,
        base: base.ok_or("missing 'base'")?,
        referee: referee.ok_or("missing 'referee'")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_workloads::genome::random_genome;

    #[test]
    fn fixture_text_round_trips() {
        let genome = random_genome(2);
        let eval = evaluate(
            &genome,
            PolicyKind::DeltaLru,
            &EvalConfig { locations: 8, referee_resources: 1, opt: CORPUS_OPT },
        );
        let entry = CorpusEntry {
            policy: PolicyKind::DeltaLru,
            genome,
            locations: 8,
            referee_resources: 1,
            cost: eval.fitness.cost,
            base: eval.fitness.base,
            referee: eval.referee,
        };
        let text = entry.to_text(&["discovered by seed 2", "for round-trip testing"]);
        let parsed = parse_corpus_entry(&text).expect("fixture parses");
        assert_eq!(parsed, entry);
        // And the recorded numbers replay exactly.
        let replayed = parsed.replay();
        assert_eq!(replayed.fitness.cost, parsed.cost);
        assert_eq!(replayed.fitness.base, parsed.base);
        assert_eq!(replayed.referee, parsed.referee);
    }

    #[test]
    fn parser_rejects_bad_fixtures() {
        assert!(parse_corpus_entry("").is_err());
        assert!(parse_corpus_entry("schema = 99\n").is_err());
        let ok = "schema = 1\npolicy = dlru\ngenome = d2|1:1:1:0:1\nlocations = 8\nreferee_m = 1\ncost = 1\nbase = 1\nreferee = exact\n";
        assert!(parse_corpus_entry(ok).is_ok());
        assert!(parse_corpus_entry(&ok.replace("policy = dlru", "policy = bogus")).is_err());
        assert!(parse_corpus_entry(&ok.replace("cost = 1\n", "")).is_err());
        assert!(parse_corpus_entry(&ok.replace("referee = exact", "referee = vibes")).is_err());
        assert!(parse_corpus_entry("junk line\n").is_err());
        let err =
            parse_corpus_entry(&ok.replace("cost = 1\n", "cost = 5\ncost = 7\n")).unwrap_err();
        assert!(err.contains("duplicate key 'cost'"), "{err}");
    }
}
