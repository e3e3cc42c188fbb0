//! What a child process measured, and the line protocol that carries it to
//! the parent.
//!
//! A child prints one record per line on stdout: `v <name> <value>` for a
//! measured value (repeated once per rep for per-rep samples), `n <key>
//! <text>` for an identity the parent compares across processes (input
//! digest, outcome), and `ops <attempted> <failed>` for its checked
//! operations. Check failures are explained on stderr as they happen.

use std::collections::BTreeMap;

/// Measurements and checked-operation counts of one or more processes.
#[derive(Debug, Default)]
pub struct Report {
    /// Named values in recording order; the parent reports medians.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Identities that must agree across reps and processes.
    pub notes: BTreeMap<String, Vec<String>>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
}

impl Report {
    /// Record one value of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Record an identity under `key`.
    pub fn note(&mut self, key: &str, text: String) {
        self.notes.entry(key.to_string()).or_default().push(text);
    }

    /// Count one checked operation; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Check that every process recorded the same `key` identity.
    pub fn check_agreement(&mut self, key: &str, workload: &str) {
        let texts = self.notes.get(key).cloned().unwrap_or_default();
        let agree = texts.windows(2).all(|w| w[0] == w[1]);
        self.check(!texts.is_empty() && agree, || {
            format!("{workload}: {key} differs across processes: {texts:?}")
        });
    }

    /// The median of `name`'s values.
    pub fn median(&self, name: &str) -> Option<f64> {
        crate::stats::median(self.values.get(name)?)
    }

    /// Merge another report into this one.
    pub fn absorb(&mut self, other: Report) {
        for (name, mut values) in other.values {
            self.values.entry(name).or_default().append(&mut values);
        }
        for (key, mut texts) in other.notes {
            self.notes.entry(key).or_default().append(&mut texts);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The line-protocol form (see the module docs).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, values) in &self.values {
            for v in values {
                out.push_str(&format!("v {name} {v}\n"));
            }
        }
        for (key, texts) in &self.notes {
            for t in texts {
                out.push_str(&format!("n {key} {t}\n"));
            }
        }
        out.push_str(&format!("ops {} {}\n", self.attempted, self.failed));
        out
    }

    /// Parse [`Report::encode`]'s output. Exactly one `ops` line must be
    /// present, so a child that died mid-report is an error, not a pass.
    pub fn decode(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("v"), Some(name), Some(value)) => {
                    let v = value.parse().map_err(|e| format!("bad value in {line:?}: {e}"))?;
                    report.push(name, v);
                }
                (Some("n"), Some(key), Some(text)) => report.note(key, text.to_string()),
                (Some("ops"), Some(attempted), Some(failed)) if !saw_ops => {
                    saw_ops = true;
                    report.attempted =
                        attempted.parse().map_err(|e| format!("bad ops in {line:?}: {e}"))?;
                    report.failed =
                        failed.parse().map_err(|e| format!("bad ops in {line:?}: {e}"))?;
                }
                _ => return Err(format!("unexpected child output line {line:?}")),
            }
        }
        if !saw_ops {
            return Err("child output has no ops line".to_string());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips_and_rejects_truncation() {
        let mut r = Report::default();
        r.push("jobs_per_s", 12345.678);
        r.push("jobs_per_s", 0.1 + 0.2);
        r.note("outcome", "1 2 3".to_string());
        r.check(true, String::new);
        let text = r.encode();
        let back = Report::decode(&text).expect("round trip");
        assert_eq!(back.values, r.values);
        assert_eq!(back.notes, r.notes);
        assert_eq!((back.attempted, back.failed), (1, 0));
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(Report::decode(&truncated).is_err());
    }
}
