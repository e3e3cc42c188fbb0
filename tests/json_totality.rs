//! Totality of the JSON readers: every committed JSON document decodes,
//! known-bad documents are rejected, and no truncation, single-bit flip or
//! random structural string makes a reader panic. A mutated input a reader
//! accepts must re-encode, through its format's own writer, to text that
//! decodes to the same value.

use proptest::prelude::*;
use rrs::bench::BenchArtifact;
use rrs::engine::{parse_trace, parse_trace_line};
use rrs::model::json;
use rrs::search::{parse_journal, parse_journal_line};

const GOLDEN_TRACES: [&str; 2] = [
    include_str!("fixtures/dlru_edf_rate_limited_s7.trace.jsonl"),
    include_str!("fixtures/full_general_s3.trace.jsonl"),
];

const JOURNALS: [&str; 3] = [
    include_str!("fixtures/adversaries/dlru-seed42.journal.jsonl"),
    include_str!("fixtures/adversaries/dlru-edf-seed5.journal.jsonl"),
    include_str!("fixtures/adversaries/edf-seed19.journal.jsonl"),
];

const ARTIFACTS: [&str; 4] = [
    include_str!("../BENCH_core.json"),
    include_str!("../BENCH_opt.json"),
    include_str!("../BENCH_sweep.json"),
    include_str!("../BENCH_zipf.json"),
];

/// Every proper truncation of `text` and every single-bit flip that is
/// still UTF-8 (a reader only ever sees `&str`).
fn mutations(text: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = text.as_bytes();
    let cuts = (0..bytes.len()).filter_map(move |n| text.get(..n).map(str::to_string));
    let flips = (0..bytes.len() * 8).filter_map(move |bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        String::from_utf8(flipped).ok()
    });
    cuts.chain(flips)
}

#[test]
fn committed_documents_decode() {
    for trace in GOLDEN_TRACES {
        let parsed = parse_trace(trace).expect("golden trace parses");
        assert!(parsed.meta.is_some() && parsed.rounds > 0);
    }
    for journal in JOURNALS {
        let lines = parse_journal(journal).expect("committed journal parses");
        for (line, raw) in lines.iter().zip(journal.lines()) {
            assert_eq!(line.to_json(), raw, "journal lines re-encode byte-identically");
        }
    }
    for text in ARTIFACTS {
        let artifact = BenchArtifact::parse(text).expect("committed artifact parses");
        assert_eq!(artifact.to_json(), text, "artifacts re-encode byte-identically");
    }
}

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    let deep = "[".repeat(50_000);
    assert_eq!(json::parse(&deep).unwrap_err().message, "nesting too deep");
    assert!(BenchArtifact::parse(&deep).is_err());
}

#[test]
fn lenient_reads_are_rejected() {
    let meta = JOURNALS[0].lines().next().expect("journal has a meta line");
    let without_braces = &meta[1..meta.len() - 1];
    let dup_seed_and_garbage =
        meta.replacen("\"seed\":42,", "\"seed\":42,\"seed\":7,", 1) + "garbage";
    let nested = format!("{{\"x\":{meta}}}");
    for bad in [without_braces, &dup_seed_and_garbage, &nested] {
        assert!(parse_journal(bad).is_err(), "{bad}");
    }

    assert!(parse_trace_line("{\"ev\":\"round\",\"round\":0,\"round\":1}").is_err());
    // No writer emits a `hist` record, so the reader has no arm for one:
    // counts that sum past u64::MAX are an unknown kind, not an overflow.
    let hist = r#"{"ev":"hist","name":"h","bounds":"1","counts":"18446744073709551615,1","sum":0}"#;
    assert_eq!(parse_trace_line(hist), Err("unknown event kind 'hist'".to_string()));

    let core = ARTIFACTS[0];
    let dup_suite =
        core.replacen("\"suite\": \"core\",", "\"suite\": \"core\",\n  \"suite\": \"x\",", 1);
    let plus_reps = core.replacen("\"repetitions\": 3", "\"repetitions\":+3", 1);
    for bad in [dup_suite, plus_reps] {
        assert_ne!(bad, core);
        assert!(BenchArtifact::parse(&bad).is_err(), "{bad}");
    }
}

#[test]
fn mutated_trace_lines_never_panic_and_accepted_ones_round_trip() {
    for line in GOLDEN_TRACES.iter().flat_map(|t| t.lines()) {
        for m in mutations(line) {
            if let Ok(parsed) = parse_trace_line(&m) {
                let mut text = String::new();
                parsed.write_json(&mut text);
                assert_eq!(parse_trace_line(&text), Ok(parsed), "{m}");
            }
        }
    }
}

#[test]
fn mutated_journal_lines_never_panic_and_accepted_ones_round_trip() {
    for line in JOURNALS.iter().flat_map(|j| j.lines()) {
        for m in mutations(line) {
            if let Ok(parsed) = parse_journal_line(&m) {
                assert_eq!(parse_journal_line(&parsed.to_json()), Ok(parsed), "{m}");
            }
        }
    }
}

#[test]
fn mutated_artifacts_never_panic_and_accepted_ones_round_trip() {
    // The slowest battery in a debug build: one thread per artifact.
    std::thread::scope(|scope| {
        for text in ARTIFACTS {
            scope.spawn(move || {
                for m in mutations(text) {
                    if let Ok(parsed) = BenchArtifact::parse(&m) {
                        assert_eq!(BenchArtifact::parse(&parsed.to_json()), Ok(parsed), "{m}");
                    }
                }
            });
        }
    });
}

/// JSON's structural alphabet plus digits, number punctuation and a few
/// letters of the literals.
const ALPHABET: &[u8] = b"{}[]\":,\\ 0123456789-+.eEtrufalsn";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn structural_strings_never_panic_the_reader(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..48),
    ) {
        let text: String = picks.into_iter().map(|i| char::from(ALPHABET[i])).collect();
        let _ = json::parse(&text);
    }
}
