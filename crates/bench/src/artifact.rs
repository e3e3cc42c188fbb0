//! `BENCH_<suite>.json` artifacts: the committed benchmark trajectory.
//!
//! An artifact is one JSON document per suite recording, for every bench in
//! the suite, two strictly separated metric blocks:
//!
//! * `"deterministic"` — integer metrics that are pure functions of the
//!   pinned workload (allocs/round, snapshot bytes, sweep item totals,
//!   counter values). Byte-identical across runs, machines and `--jobs`
//!   settings; a change is a semantic change and `bench compare` hard-fails
//!   on increases.
//! * `"advisory"` — wall-clock-derived numbers (rounds/sec percentiles,
//!   scaling efficiency, peak heap). Machine-dependent by nature; `bench
//!   compare` only warns when they move beyond a threshold.
//!
//! Serialization is hand-rolled with sorted keys and fixed float
//! formatting, so re-encoding a parsed artifact reproduces the input
//! byte-for-byte: the `parse → to_json` round trip is the schema's own
//! regression test. Reading goes through the workspace's strict JSON
//! reader, [`rrs_model::json`]; the advisory floats are parsed here, from
//! the raw number text, because `rrs_model` is float-free.

use std::fmt::Write as _;

use rrs_model::json::{self, Quoted, Value};

/// Version stamped into every artifact; bump on breaking schema changes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The canonical committed filename for a suite.
pub fn artifact_filename(suite: &str) -> String {
    format!("BENCH_{suite}.json")
}

/// One benchmark's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    /// Bench name, unique within the suite.
    pub name: String,
    /// Deterministic integer metrics, name-sorted on write.
    pub deterministic: Vec<(String, u64)>,
    /// Advisory wall-clock-derived metrics, name-sorted on write.
    pub advisory: Vec<(String, f64)>,
}

impl BenchRecord {
    /// A record with the given name and no metrics yet.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), ..Self::default() }
    }

    /// Add a deterministic metric.
    pub fn det(&mut self, name: &str, value: u64) -> &mut Self {
        self.deterministic.push((name.to_string(), value));
        self
    }

    /// Add an advisory metric.
    pub fn adv(&mut self, name: &str, value: f64) -> &mut Self {
        self.advisory.push((name.to_string(), value));
        self
    }

    /// Look up a deterministic metric.
    pub fn det_value(&self, name: &str) -> Option<u64> {
        self.deterministic.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up an advisory metric.
    pub fn adv_value(&self, name: &str) -> Option<f64> {
        self.advisory.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One suite run: identity plus its bench records.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArtifact {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Suite name (`core`, `sweep`).
    pub suite: String,
    /// `quick` (CI tier) or `full`. Artifacts of different tiers pin
    /// different workload sizes and must not be compared.
    pub tier: String,
    /// Timing repetitions the advisory percentiles were computed over.
    pub repetitions: u32,
    /// The suite's benches, in suite order.
    pub benches: Vec<BenchRecord>,
}

impl BenchArtifact {
    /// An empty artifact for a suite.
    pub fn new(suite: &str, tier: &str, repetitions: u32) -> Self {
        Self {
            schema: BENCH_SCHEMA_VERSION,
            suite: suite.to_string(),
            tier: tier.to_string(),
            repetitions,
            benches: Vec::new(),
        }
    }

    /// Find a bench by name.
    pub fn bench(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Serialize with sorted metric keys and fixed float formatting. The
    /// output ends in a newline and re-encodes byte-identically after
    /// [`BenchArtifact::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", self.schema);
        let _ = writeln!(s, "  \"suite\": {},", Quoted(&self.suite));
        let _ = writeln!(s, "  \"tier\": {},", Quoted(&self.tier));
        let _ = writeln!(s, "  \"repetitions\": {},", self.repetitions);
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"name\": {},", Quoted(&b.name));
            let mut det = b.deterministic.clone();
            det.sort();
            s.push_str("      \"deterministic\": {");
            for (j, (name, v)) in det.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\n        {}: {v}", Quoted(name));
            }
            s.push_str(if det.is_empty() { "},\n" } else { "\n      },\n" });
            let mut adv = b.advisory.clone();
            adv.sort_by(|a, b| a.0.cmp(&b.0));
            s.push_str("      \"advisory\": {");
            for (j, (name, v)) in adv.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\n        {}: {}", Quoted(name), fmt_f64(*v));
            }
            s.push_str(if adv.is_empty() { "}\n" } else { "\n      }\n" });
            s.push_str(if i + 1 < self.benches.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse an artifact, validating the schema version. Metrics come
    /// back name-sorted, as [`BenchArtifact::to_json`] writes them.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let schema = root.u64_field("schema")?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench schema {schema} (supported: {BENCH_SCHEMA_VERSION})"
            ));
        }
        let mut artifact = BenchArtifact::new(
            root.str_field("suite")?,
            root.str_field("tier")?,
            u32::try_from(root.u64_field("repetitions")?)
                .map_err(|_| "repetitions out of range".to_string())?,
        );
        let benches = root.field("benches")?.as_array().ok_or("'benches' is not an array")?;
        for entry in benches {
            let mut record = BenchRecord::new(entry.str_field("name")?);
            for (name, v) in members(entry, "deterministic")? {
                record.det(name, v.as_u64().ok_or_else(|| format!("'{name}' is not a u64"))?);
            }
            for (name, v) in members(entry, "advisory")? {
                let x = v.as_number().and_then(|raw| raw.parse::<f64>().ok());
                let x = x.filter(|x| x.is_finite());
                record.adv(name, x.ok_or_else(|| format!("'{name}' is not a finite number"))?);
            }
            record.deterministic.sort();
            record.advisory.sort_by(|a, b| a.0.cmp(&b.0));
            artifact.benches.push(record);
        }
        Ok(artifact)
    }
}

fn members<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    v.field(key)?.as_object().ok_or_else(|| format!("'{key}' is not an object"))
}

/// Fixed float formatting: enough precision to be useful, short enough to
/// re-encode identically after a parse round trip.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Inf/NaN; clamp to 0 rather than emit invalid output.
        return "0.0".into();
    }
    let text = format!("{v:.3}");
    // Trim trailing zeros but keep one fractional digit so the token stays
    // unambiguously a float.
    let trimmed = text.trim_end_matches('0');
    if trimmed.ends_with('.') {
        format!("{trimmed}0")
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        let mut a = BenchArtifact::new("core", "quick", 3);
        let mut b = BenchRecord::new("steady_round_loop");
        b.det("rounds", 512).det("allocs_per_round_steady", 0).det("jobs_dropped", 17);
        b.adv("rounds_per_sec_median", 123456.789).adv("rounds_per_sec_p10", 100000.0);
        a.benches.push(b);
        let mut b = BenchRecord::new("empty_metrics");
        b.name = "empty_metrics".into();
        a.benches.push(b);
        a
    }

    #[test]
    fn artifact_round_trips_byte_identically() {
        let a = sample();
        let json = a.to_json();
        let parsed = BenchArtifact::parse(&json).expect("parses");
        assert_eq!(parsed.to_json(), json, "re-encode must be byte-identical");
        assert_eq!(parsed.bench("steady_round_loop").unwrap().det_value("rounds"), Some(512));
        assert_eq!(
            parsed.bench("steady_round_loop").unwrap().adv_value("rounds_per_sec_p10"),
            Some(100000.0)
        );
    }

    #[test]
    fn schema_version_is_enforced() {
        let json = sample().to_json().replace("\"schema\": 1", "\"schema\": 99");
        let err = BenchArtifact::parse(&json).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "{\"schema\":1", "[1,2", "{\"schema\":1}trailing", "{\"a\" 1}"] {
            assert!(BenchArtifact::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(123456.789), "123456.789");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.1239), "0.124");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
        // Round trip through the parser.
        assert_eq!(fmt_f64(fmt_f64(3.25).parse::<f64>().unwrap()), "3.25");
    }

    #[test]
    fn filename_convention() {
        assert_eq!(artifact_filename("core"), "BENCH_core.json");
    }
}
