//! Machine-readable output: the `--json` findings report's writer.
//!
//! rrs-lint links none of the crates it analyzes (DESIGN.md §15), so it
//! writes its report itself rather than through `rrs_model::json`. The
//! encoding is canonical — fixed key order, no whitespace options. The
//! workspace's one JSON reader, `rrs_model::json::parse`, reads it back in
//! the tests (a dev-dependency only), and re-encoding what it read must
//! reproduce the bytes.

use crate::report::Finding;

/// Schema version stamped into the report envelope.
pub const LINT_SCHEMA_VERSION: u64 = 1;

/// Encode findings as the canonical JSON report:
/// `{"schema":1,"findings":[{...},...]}` with one finding object per line.
pub fn encode(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    out.push_str(&LINT_SCHEMA_VERSION.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\":");
        write_str(&mut out, &f.rule);
        out.push_str(",\"file\":");
        write_str(&mut out, &f.file);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"item\":");
        match &f.item {
            Some(item) => write_str(&mut out, item),
            None => out.push_str("null"),
        }
        out.push_str(",\"message\":");
        write_str(&mut out, &f.message);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::json::{parse, Value};

    #[test]
    fn report_reads_back_through_the_workspace_json_reader() {
        let message = "missing \"Snapshot\"\timpl";
        let findings = vec![
            Finding::new("float-ban", "crates/core/src/x.rs", 12, None, "f64 token".to_string()),
            Finding::new("trait-matrix", "crates/core/src/y.rs", 3, Some("Foo"), message.into()),
        ];
        let report = parse(&encode(&findings)).expect("the report is strict JSON");
        assert_eq!(report.u64_field("schema"), Ok(LINT_SCHEMA_VERSION));
        let got = report.field("findings").expect("findings").as_array().expect("an array");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].field("item"), Ok(&Value::Null));
        assert_eq!(got[1].str_field("item"), Ok("Foo"));
        assert_eq!(got[1].u64_field("line"), Ok(3));
        assert_eq!(got[1].str_field("message"), Ok(message), "quote and tab escapes");
    }
}
