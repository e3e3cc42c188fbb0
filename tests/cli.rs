//! Integration: the `rrs-cli` binary end to end.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rrs-cli"))
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rrs-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_classify_run_opt_pipeline() {
    let file = tmpfile("pipeline.rrs");

    let out = cli()
        .args(["generate", "rate-limited", "--seed", "5", "--out"])
        .arg(&file)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    let out = cli().arg("classify").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RateLimited"), "{text}");

    let out =
        cli().args(["run", "dlru-edf"]).arg(&file).args(["--locations", "8"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total cost:"), "{text}");

    let out = cli().arg("lemmas").arg(&file).output().unwrap();
    assert!(out.status.success(), "lemmas: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[ok]"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn opt_on_tiny_instance() {
    let file = tmpfile("tiny.rrs");
    std::fs::write(&file, "delta 2\ncolor 0 4\narrive 0 0 3\n").unwrap();
    let out = cli().arg("opt").arg(&file).args(["--resources", "1"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("opt cost:   2"), "{text}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn opt_cache_serves_a_consistent_entry_and_resolves_an_impossible_one() {
    // `generate rate-limited --seed 3` has 92 jobs and OPT 55 at m = 1.
    let inst = tmpfile("forged-entry.rrs");
    let cache = tmpfile("forged-entry.optc");
    std::fs::remove_file(&cache).ok();
    let out = cli().args(["generate", "rate-limited", "--seed", "3", "--out"]).arg(&inst).output();
    assert!(out.unwrap().status.success());
    let save = || cli().args(["opt-cache", "save"]).arg(&inst).arg("--out").arg(&cache).output();
    let text = String::from_utf8_lossy(&save().unwrap().stdout).into_owned();
    assert!(text.contains("cost 55 (1 reconfigs, 51 drops)  solved"), "{text}");
    let text = String::from_utf8_lossy(&save().unwrap().stdout).into_owned();
    assert!(text.trim_end().ends_with("cache hit"), "{text}");

    // Re-seal the entry as (cost 1, 0 reconfigs, 0 drops) with a valid CRC.
    let parsed = rrs::offline::OptCache::parse(&std::fs::read(&cache).unwrap()).unwrap();
    let (digest, m, _) = parsed.entries().next().unwrap();
    let mut forged = rrs::offline::OptCache::new();
    let entry = rrs::offline::SolvedEntry { cost: 1, reconfigs: 0, drops: 0, states_explored: 1 };
    forged.record(digest, m, entry);
    std::fs::write(&cache, forged.encode()).unwrap();

    let out = cli().args(["opt-cache", "load"]).arg(&cache).arg(&inst).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "an impossible entry must not load");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&format!("{digest:#018x}")), "{err}");

    let opt = || cli().arg("opt").arg(&inst).arg("--opt-cache").arg(&cache).output().unwrap();
    let out = opt();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("opt cost:   55 (1 reconfigs, 51 drops)"), "{text}");
    assert!(text.contains("cache:      0/1 hits"), "{text}");
    // The fresh answer overwrote the forged entry.
    let text = String::from_utf8_lossy(&opt().stdout).into_owned();
    assert!(text.contains("opt cost:   55") && text.contains("cache:      1/1 hits"), "{text}");
    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn solver_resource_counts_outside_1_to_u32_max_are_rejected() {
    let inst = tmpfile("resources.rrs");
    let cache = tmpfile("resources.optc");
    std::fs::remove_file(&cache).ok();
    let out = cli().args(["generate", "rate-limited", "--seed", "1", "--out"]).arg(&inst).output();
    assert!(out.unwrap().status.success());
    // A cache holding the m = 1 entry, which m = 2^32 + 1 used to alias.
    let out = cli().args(["opt-cache", "save"]).arg(&inst).arg("--out").arg(&cache).output();
    assert!(out.unwrap().status.success());
    let (inst_s, cache_s) = (inst.to_str().unwrap(), cache.to_str().unwrap());
    for args in [
        vec!["opt", inst_s, "--resources", "0"],
        vec!["opt-cache", "save", inst_s, "--out", cache_s, "--resources", "0"],
        vec!["opt-cache", "load", cache_s, inst_s, "--resources", "4294967297"],
        vec!["adversary-search", "--referee-m", "0", "--budget", "0"],
    ] {
        let out = cli().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: ") && err.contains("between 1 and 4294967295"), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} printed an answer");
    }
    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn location_counts_a_policy_cannot_use_are_rejected_where_parsed() {
    let inst = tmpfile("locations.rrs");
    let out = cli().args(["generate", "rate-limited", "--seed", "7", "--out"]).arg(&inst).output();
    assert!(out.unwrap().status.success());
    let file = inst.to_str().unwrap();
    for (policy, n, rule) in [
        ("dlru", "3", "\u{394}LRU (2 locations per cached color)"),
        ("edf", "3", "EDF (2 locations per cached color)"),
        ("dlru-edf", "6", "\u{394}LRU-EDF (an LRU and an EDF quarter)"),
        ("full", "0", "\u{394}LRU-EDF (an LRU and an EDF quarter)"),
        ("full", "3", "\u{394}LRU-EDF (an LRU and an EDF quarter)"),
        ("classic-lru", "0", "classic LRU (2 locations per cached color)"),
    ] {
        let out = cli().args(["run", policy, file, "--locations", n]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "run {policy} --locations {n}: {err}");
        let want = format!("error: bad --locations: {rule} needs a positive multiple");
        assert!(err.starts_with(&want) && err.ends_with(&format!("got {n}\n")), "{err}");
    }
    std::fs::remove_file(&inst).ok();
}

#[test]
fn lemmas_on_input_that_is_not_rate_limited_check_sigma_double_prime() {
    for kind in ["general", "zipf"] {
        let inst = tmpfile(&format!("lemmas-{kind}.rrs"));
        let out = cli().args(["generate", kind, "--seed", "3", "--out"]).arg(&inst).output();
        assert!(out.unwrap().status.success());
        let out = cli().arg("lemmas").arg(&inst).output().unwrap();
        assert!(out.status.success(), "{kind}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        let first = text.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("input is not rate-limited: checking \u{3c3}\u{2033} = "),
            "{kind}: {text}"
        );
        assert_eq!(text.matches("[ok]").count(), 3, "{kind}: {text}");
        std::fs::remove_file(&inst).ok();
    }
}

#[test]
fn generate_to_stdout_parses_back() {
    let out = cli().args(["generate", "general", "--seed", "9"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let inst = rrs::model::from_text(&text).expect("round trip");
    assert!(inst.total_jobs() > 0);
}

#[test]
fn attribute_prints_per_color_table() {
    let file = tmpfile("attr.rrs");
    std::fs::write(
        &file,
        "delta 2
color 0 4
color 1 4
arrive 0 0 4
arrive 0 1 4
",
    )
    .unwrap();
    let out = cli().args(["attribute", "dlru-edf"]).arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reconfigs_to"), "{text}");
    assert!(text.contains("c0") && text.contains("c1"));
    std::fs::remove_file(&file).ok();

    // `attribute` and `report --run` share one attribution path, so the
    // table `attribute` prints is the one `report --run` embeds, byte for
    // byte. Every policy on two batched inputs and on the unbatched
    // 10^5-color Zipf input, where the bare batched-arrival policies run
    // under the book's off-boundary rule in every build.
    let all = ["dlru", "edf", "classic-lru", "dlru-edf", "distribute", "full"];
    for (kind, seed) in [("rate-limited", "7"), ("batched", "3"), ("zipf", "3")] {
        let inst = tmpfile(&format!("attr-{kind}.rrs"));
        let out =
            cli().args(["generate", kind, "--seed", seed, "--out"]).arg(&inst).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        for policy in all {
            let attribute = cli().args(["attribute", policy]).arg(&inst).output().unwrap();
            assert!(attribute.status.success(), "{policy} on {kind}");
            let table = String::from_utf8(attribute.stdout).unwrap();
            assert!(table.contains("reconfigs_to"), "{policy} on {kind}: {table}");
            let report = cli().args(["report", "--run", policy]).arg(&inst).output().unwrap();
            assert!(report.status.success(), "report --run {policy} on {kind}");
            let report = String::from_utf8(report.stdout).unwrap();
            assert!(report.contains(&table), "{policy} on {kind}: attribute's table not in report");
        }
        std::fs::remove_file(&inst).ok();
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn bad_instance_file_reports_error() {
    let file = tmpfile("bad.rrs");
    std::fs::write(&file, "delta 1\narrive 0 7 1\n").unwrap();
    let out = cli().args(["run", "edf"]).arg(&file).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("undeclared"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn evaluate_jobs_round_trips_byte_identical() {
    let run = |jobs: &str| {
        let out = cli().args(["evaluate", "--only", "e3", "--jobs", jobs]).output().unwrap();
        assert!(out.status.success(), "--jobs {jobs}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, run("4"), "parallel table bytes diverged from serial");
    assert_eq!(serial, run("3"), "odd worker count diverged");
}

#[test]
fn evaluate_only_selects_one_experiment() {
    let out = cli().args(["evaluate", "--only", "e13"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E13"), "{text}");
    assert!(!text.contains("E3 ("), "other tables must not print: {text}");
}

#[test]
fn evaluate_only_unknown_name_fails() {
    let out = cli().args(["evaluate", "--only", "e99"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
}

#[test]
fn zero_jobs_rejected() {
    let out = cli().args(["evaluate", "--jobs", "0"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "{err}");
}

#[test]
fn valueless_jobs_flag_rejected() {
    let out = cli().args(["evaluate", "--only", "e3", "--jobs"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs requires a value"), "{err}");
}

/// Pull the integer out of a `label:   value` line.
fn field(text: &str, label: &str) -> u64 {
    text.lines()
        .find(|l| l.trim_start().starts_with(label))
        .and_then(|l| l.split_whitespace().find_map(|w| w.parse().ok()))
        .unwrap_or_else(|| panic!("no numeric field '{label}' in:\n{text}"))
}

#[test]
fn trace_out_report_round_trip_matches_run_totals() {
    let inst = tmpfile("trace-inst.rrs");
    let trace = tmpfile("trace.jsonl");
    let metrics = tmpfile("metrics.json");

    let out = cli()
        .args(["generate", "rate-limited", "--seed", "11", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args(["run", "dlru-edf"])
        .arg(&inst)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
    let run_text = String::from_utf8_lossy(&out.stdout).to_string();

    let out = cli().arg("report").arg(&trace).arg("--instance").arg(&inst).output().unwrap();
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let report_text = String::from_utf8_lossy(&out.stdout).to_string();

    // Acceptance: the report's totals equal the run's Outcome exactly.
    for label in ["arrived:", "executed:", "dropped:"] {
        assert_eq!(field(&report_text, label), field(&run_text, label), "{label}");
    }
    assert_eq!(field(&report_text, "total:"), field(&run_text, "total cost:"));
    assert!(report_text.contains("conservation: ok"), "{report_text}");
    assert!(report_text.contains("replay check: ok"), "{report_text}");

    // The metrics file is one parsable JSON report with the same total.
    let mtext = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(mtext.lines().count(), 1);
    assert!(
        mtext.contains(&format!("\"total_cost\":{}", field(&run_text, "total cost:"))),
        "{mtext}"
    );

    for f in [&inst, &trace, &metrics] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn report_fails_on_malformed_trace() {
    let bad = tmpfile("bad-trace.jsonl");
    std::fs::write(&bad, "this is not json\n").unwrap();
    let out = cli().arg("report").arg(&bad).output().unwrap();
    assert!(!out.status.success(), "garbage must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "{err}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn report_rejects_a_trace_whose_totals_overflow() {
    // The arrivals sum past u64::MAX on line 4; a wrapped total must never
    // be printed as a conserved run.
    let trace = tmpfile("overflow-trace.jsonl");
    std::fs::write(
        &trace,
        "{\"ev\":\"meta\",\"version\":1,\"policy\":\"x\",\"delta\":18446744073709551615,\"locations\":8,\"speed\":1}\n\
         {\"ev\":\"round\",\"round\":0}\n\
         {\"ev\":\"arrive\",\"round\":0,\"color\":0,\"count\":18446744073709551615}\n\
         {\"ev\":\"arrive\",\"round\":0,\"color\":0,\"count\":2}\n\
         {\"ev\":\"reconfig\",\"round\":0,\"mini\":0,\"location\":0,\"from\":null,\"to\":0}\n\
         {\"ev\":\"reconfig\",\"round\":0,\"mini\":0,\"location\":1,\"from\":null,\"to\":0}\n\
         {\"ev\":\"execute\",\"round\":0,\"mini\":0,\"color\":0,\"count\":1}\n",
    )
    .unwrap();
    let out = cli().arg("report").arg(&trace).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace line 4") && err.contains("overflows"), "{err}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("conservation"));

    // Schema v1 has no `hist` record: one whose counts sum past u64::MAX
    // is an unknown kind on its line, in every build.
    std::fs::write(
        &trace,
        "{\"ev\":\"meta\",\"version\":1,\"policy\":\"x\",\"delta\":1,\"locations\":8,\"speed\":1}\n\
         {\"ev\":\"round\",\"round\":0}\n\
         {\"ev\":\"arrive\",\"round\":0,\"color\":0,\"count\":1}\n\
         {\"ev\":\"drop\",\"round\":0,\"color\":0,\"count\":1}\n\
         {\"ev\":\"hist\",\"name\":\"h\",\"bounds\":\"1\",\"counts\":\"18446744073709551615,1\",\"sum\":0}\n",
    )
    .unwrap();
    let out = cli().arg("report").arg(&trace).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace line 5: unknown event kind 'hist'"), "{err}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn run_rejects_a_delta_above_u32_max_without_panicking() {
    let file = tmpfile("huge-delta.rrs");
    std::fs::write(
        &file,
        "delta 18446744073709551615\ncolor 0 2\ncolor 1 2\n\
         arrive 0 0 1\narrive 0 1 1\narrive 2 0 1\narrive 2 1 1\n",
    )
    .unwrap();
    let out =
        cli().args(["run", "classic-lru"]).arg(&file).args(["--locations", "8"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1") && err.contains("exceeds"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn report_live_prints_lemma_bounds_and_phase_timing() {
    let inst = tmpfile("live-inst.rrs");
    let out = cli()
        .args(["generate", "rate-limited", "--seed", "3", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli().args(["report", "--run", "dlru-edf"]).arg(&inst).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cost attribution"), "{text}");
    assert!(text.contains("lemma bounds"), "{text}");
    assert!(!text.contains("VIOLATED"), "{text}");
    assert!(text.contains("phase timing"), "{text}");
    std::fs::remove_file(&inst).ok();
}

/// Run `evaluate` with `args` and `--metrics-out`; return the reports file.
fn evaluate_reports(args: &[&str], tag: &str) -> String {
    let path = tmpfile(&format!("reports-{tag}.jsonl"));
    let out = cli().arg("evaluate").args(args).arg("--metrics-out").arg(&path).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// The `label` of each report line, in file order.
fn report_labels(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| rrs::model::json::parse(l).unwrap().str_field("label").unwrap().to_string())
        .collect()
}

#[test]
fn evaluate_metrics_out_is_deterministic_across_jobs() {
    let serial = evaluate_reports(&["--jobs", "1"], "j1");
    let mut keys = std::collections::BTreeSet::new();
    for line in serial.lines() {
        let v = rrs::model::json::parse(line).expect("one JSON report per line");
        let (label, policy) = (v.str_field("label").unwrap(), v.str_field("policy").unwrap());
        assert!(!label.is_empty(), "unlabeled {policy} run: {line}");
        assert!(keys.insert((label.to_string(), policy.to_string())), "duplicate: {line}");
    }
    // Every experiment of the default suite (E1-E16 but E9) labels its runs.
    for name in (1..=16).filter(|&e| e != 9).map(|e| format!("e{e} ")) {
        assert!(keys.iter().any(|(l, _)| l.starts_with(&name)), "no {name}report");
    }
    assert_eq!(serial, evaluate_reports(&["--jobs", "4"], "j4"), "reports diverged across --jobs");
}

#[test]
fn evaluate_metrics_out_labels_the_lemma_runs() {
    let e4 = evaluate_reports(&["--only", "e4"], "e4");
    let expected: Vec<String> = (0..4)
        .flat_map(|seed| ["0.3", "0.7", "1.0"].map(|load| format!("e4 seed={seed} load={load}")))
        .collect();
    assert_eq!(report_labels(&e4), expected, "{e4}");
    let e5 = evaluate_reports(&["--only", "e5"], "e5");
    let expected: Vec<String> = (0..8).map(|seed| format!("e5 seed={seed}")).collect();
    assert_eq!(report_labels(&e5), expected, "{e5}");
}

#[test]
fn evaluate_metrics_out_carries_each_policys_lemma_counters() {
    let e8 = evaluate_reports(&["--only", "e8"], "e8");
    assert_eq!(e8.lines().count(), 3, "{e8}");
    for line in e8.lines() {
        let v = rrs::model::json::parse(line).unwrap();
        let epochs = v.field("metrics").unwrap().u64_field("num_epochs").unwrap();
        assert!(epochs > 0, "zero lemma counters: {line}");
    }
}

#[test]
fn report_on_header_only_trace_gives_clean_diagnostic() {
    // A trace holding only the meta header (a run interrupted before its
    // first round) must fail with a targeted message, not a panic or a
    // zero-filled report.
    let inst = tmpfile("hdr-inst.rrs");
    let trace = tmpfile("hdr-trace.jsonl");
    let out = cli()
        .args(["generate", "rate-limited", "--seed", "7", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out =
        cli().args(["run", "dlru-edf"]).arg(&inst).arg("--trace-out").arg(&trace).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Keep only the header line.
    let full = std::fs::read_to_string(&trace).unwrap();
    let header = full.lines().next().unwrap();
    std::fs::write(&trace, format!("{header}\n")).unwrap();

    let out = cli().arg("report").arg(&trace).output().unwrap();
    assert!(!out.status.success(), "header-only trace must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace contains no rounds"), "{err}");

    // A completely empty file gets the same treatment via the parse path.
    std::fs::write(&trace, "").unwrap();
    let out = cli().arg("report").arg(&trace).output().unwrap();
    assert!(!out.status.success(), "empty trace must be rejected");

    for f in [&inst, &trace] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn checkpoint_resume_round_trip_matches_run_totals() {
    let inst = tmpfile("ckpt-inst.rrs");
    let snap = tmpfile("ckpt.snap");
    let out =
        cli().args(["generate", "bursty", "--seed", "3", "--out"]).arg(&inst).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli().args(["run", "full"]).arg(&inst).output().unwrap();
    assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
    let run_text = String::from_utf8_lossy(&out.stdout).to_string();

    let out = cli()
        .args(["checkpoint", "full"])
        .arg(&inst)
        .args(["--at-round", "9", "--out"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(out.status.success(), "checkpoint: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("round:"), "checkpoint summary");
    assert!(snap.exists(), "snapshot file written");

    let out = cli().args(["resume", "full"]).arg(&inst).arg("--from").arg(&snap).output().unwrap();
    assert!(out.status.success(), "resume: {}", String::from_utf8_lossy(&out.stderr));
    let resume_text = String::from_utf8_lossy(&out.stdout).to_string();

    // The stitched run lands on exactly the uninterrupted run's totals.
    for label in ["arrived:", "executed:", "dropped:", "reconfigs:", "total cost:"] {
        assert_eq!(field(&resume_text, label), field(&run_text, label), "{label}");
    }

    // Resuming with the wrong policy is a structured error, not a crash.
    let out = cli().args(["resume", "dlru"]).arg(&inst).arg("--from").arg(&snap).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snapshot"), "{err}");

    for f in [&inst, &snap] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn checkpoint_every_and_stream_match_plain_run() {
    let inst = tmpfile("every-inst.rrs");
    let prefix = tmpfile("every-ck");
    let out = cli()
        .args(["generate", "rate-limited", "--seed", "13", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli().args(["run", "dlru-edf"]).arg(&inst).output().unwrap();
    assert!(out.status.success());
    let want = field(&String::from_utf8_lossy(&out.stdout), "total cost:");

    let out = cli()
        .args(["run", "dlru-edf"])
        .arg(&inst)
        .args(["--checkpoint-every", "6", "--checkpoint-out"])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(out.status.success(), "ckpt run: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), want);

    // Snapshots landed where promised and resume cleanly to the same total.
    let first = std::path::PathBuf::from(format!("{}-r6.snap", prefix.display()));
    assert!(first.exists(), "missing {}", first.display());
    let out =
        cli().args(["resume", "dlru-edf"]).arg(&inst).arg("--from").arg(&first).output().unwrap();
    assert!(out.status.success(), "resume: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), want);

    // Streaming ingestion reaches the same totals without materializing.
    let out = cli().args(["run", "dlru-edf"]).arg(&inst).arg("--stream").output().unwrap();
    assert!(out.status.success(), "stream: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), want);

    // A snapshot written mid-stream carries the horizon known at
    // suspension time; `resume --stream` re-discovers the rest from the
    // text and still lands on the uninterrupted totals.
    let sprefix = tmpfile("every-ck-s");
    let out = cli()
        .args(["run", "dlru-edf"])
        .arg(&inst)
        .args(["--stream", "--checkpoint-every", "6", "--checkpoint-out"])
        .arg(&sprefix)
        .output()
        .unwrap();
    assert!(out.status.success(), "stream ckpt: {}", String::from_utf8_lossy(&out.stderr));
    let first_s = std::path::PathBuf::from(format!("{}-r6.snap", sprefix.display()));
    assert!(first_s.exists(), "missing {}", first_s.display());
    let out = cli()
        .args(["resume", "dlru-edf"])
        .arg(&inst)
        .arg("--from")
        .arg(&first_s)
        .arg("--stream")
        .output()
        .unwrap();
    assert!(out.status.success(), "stream resume: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), want);

    // On zipf seed 3 the stream knows horizon 130 at round 100, the whole
    // instance 287. A materialized resume demands the exact horizon, so it
    // rejects the streamed snapshot; a streamed resume takes the
    // materialized snapshot's horizon as a floor and lands on the totals.
    let zipf = tmpfile("every-zipf.rrs");
    let out = cli().args(["generate", "zipf", "--seed", "3", "--out"]).arg(&zipf).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let zprefix = tmpfile("every-ck-zipf");
    let out = cli()
        .args(["run", "full"])
        .arg(&zipf)
        .args(["--stream", "--checkpoint-every", "100", "--checkpoint-out"])
        .arg(&zprefix)
        .output()
        .unwrap();
    assert!(out.status.success(), "zipf stream: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), 9847);
    let streamed = format!("{}-r100.snap", zprefix.display());
    let out =
        cli().args(["resume", "full"]).arg(&zipf).args(["--from", &streamed]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("snapshot was taken with horizon 130, simulator has horizon 287"),
        "{err}"
    );
    let materialized = tmpfile("every-ck-zipf-m100.snap");
    let out = cli()
        .args(["checkpoint", "full"])
        .arg(&zipf)
        .args(["--at-round", "100", "--out"])
        .arg(&materialized)
        .output()
        .unwrap();
    assert!(out.status.success(), "zipf checkpoint: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["resume", "full"])
        .arg(&zipf)
        .arg("--from")
        .arg(&materialized)
        .arg("--stream")
        .output()
        .unwrap();
    assert!(out.status.success(), "zipf resume: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(field(&String::from_utf8_lossy(&out.stdout), "total cost:"), 9847);

    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&zipf).ok();
    for entry in std::fs::read_dir(std::env::temp_dir()).unwrap().flatten() {
        let name = entry.file_name();
        if name
            .to_string_lossy()
            .starts_with(&format!("rrs-cli-test-{}-every-ck", std::process::id()))
        {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

#[test]
fn all_generator_kinds_work() {
    for kind in [
        "rate-limited",
        "batched",
        "general",
        "router",
        "datacenter",
        "background",
        "bursty",
        "lru-killer",
        "edf-killer",
    ] {
        let out = cli().args(["generate", kind, "--seed", "1"]).output().unwrap();
        assert!(out.status.success(), "{kind}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(rrs::model::from_text(&text).is_ok(), "{kind} output must parse");
    }
}

#[test]
fn adversary_search_journal_is_identical_across_jobs() {
    // The acceptance criterion: `adversary-search --seed S --budget B` is
    // deterministic — identical journals at --jobs 1 and --jobs 4.
    let j1 = tmpfile("adv-jobs1.jsonl");
    let j4 = tmpfile("adv-jobs4.jsonl");
    for (jobs, path) in [("1", &j1), ("4", &j4)] {
        let out = cli()
            .args([
                "adversary-search",
                "--seed",
                "42",
                "--budget",
                "2",
                "--population",
                "8",
                "--policy",
                "dlru",
                "--shrink-evals",
                "60",
                "--jobs",
                jobs,
                "--journal-out",
            ])
            .arg(path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "adversary-search --jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("adversary-search: policy dlru"), "{text}");
    }
    let a = std::fs::read(&j1).unwrap();
    let b = std::fs::read(&j4).unwrap();
    assert_eq!(a, b, "journal bytes must not depend on worker count");

    // And the journal must satisfy the versioned schema.
    let lines = rrs::search::parse_journal(&String::from_utf8(a).unwrap()).expect("valid journal");
    assert!(matches!(lines[0], rrs::search::JournalLine::Meta { seed: 42, budget: 2, .. }));
    assert!(matches!(lines.last(), Some(rrs::search::JournalLine::Result { .. })));

    std::fs::remove_file(&j1).ok();
    std::fs::remove_file(&j4).ok();
}

#[test]
fn adversary_search_writes_a_replayable_fixture() {
    let fx = tmpfile("adv-fixture.adv");
    let out = cli()
        .args([
            "adversary-search",
            "--seed",
            "19",
            "--budget",
            "2",
            "--population",
            "8",
            "--policy",
            "edf",
            "--shrink-evals",
            "60",
            "--fixture-out",
        ])
        .arg(&fx)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&fx).unwrap();
    let entry = rrs::search::parse_corpus_entry(&text).expect("fixture parses");
    let replayed = entry.replay();
    assert_eq!(replayed.fitness.cost, entry.cost);
    assert_eq!(replayed.fitness.base, entry.base);
    std::fs::remove_file(&fx).ok();
}

#[test]
fn adversary_search_rejects_bad_flags() {
    let out = cli().args(["adversary-search", "--policy", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));

    let out =
        cli().args(["adversary-search", "--min-ratio", "1.x", "--budget", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --min-ratio"));
}

#[test]
fn run_counters_flag_emits_deterministic_counters() {
    let inst = tmpfile("ctr-inst.rrs");
    let trace = tmpfile("ctr-trace.jsonl");
    let out = cli()
        .args(["generate", "rate-limited", "--seed", "11", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let run = || {
        let out = cli()
            .args(["run", "dlru-edf"])
            .arg(&inst)
            .arg("--counters")
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .unwrap();
        assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let text = run();
    assert!(text.contains("counters"), "{text}");
    assert!(text.contains("jobs_arrived"), "{text}");
    assert_eq!(text, run(), "counter output must be byte-identical across reruns");

    // The trace carries an opt-in `counters` record, and `report` re-derives
    // the identical deterministic values from the round events.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"ev\":\"counters\""), "{trace_text}");
    let out = cli().arg("report").arg(&trace).output().unwrap();
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let report_text = String::from_utf8_lossy(&out.stdout);
    assert!(report_text.contains("counters (from trace, deterministic):"), "{report_text}");
    assert_eq!(
        field(&report_text, "jobs_arrived"),
        field(&text, "jobs_arrived"),
        "report must re-derive the run's counters"
    );

    // Without the flag the trace stays counter-free (golden fixtures rely
    // on this).
    let out =
        cli().args(["run", "dlru-edf"]).arg(&inst).arg("--trace-out").arg(&trace).output().unwrap();
    assert!(out.status.success());
    assert!(!std::fs::read_to_string(&trace).unwrap().contains("\"ev\":\"counters\""));

    for f in [&inst, &trace] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn bench_compare_exit_codes() {
    // Synthetic artifacts: compare must exit 0 on identical inputs and
    // nonzero (with a FAIL line) on a deterministic regression.
    let base = tmpfile("bench-base.json");
    let same = tmpfile("bench-same.json");
    let worse = tmpfile("bench-worse.json");
    let artifact = |allocs: u64| {
        format!(
            r#"{{
  "schema": 1,
  "suite": "core",
  "tier": "quick",
  "repetitions": 3,
  "benches": [
    {{
      "name": "steady_round_loop",
      "deterministic": {{
        "allocs_per_round_steady_max": {allocs},
        "rounds": 257
      }},
      "advisory": {{
        "rounds_per_sec_median": 100000.0
      }}
    }}
  ]
}}
"#
        )
    };
    std::fs::write(&base, artifact(0)).unwrap();
    std::fs::write(&same, artifact(0)).unwrap();
    std::fs::write(&worse, artifact(7)).unwrap();

    let out = cli().args(["bench", "compare"]).arg(&base).arg(&same).output().unwrap();
    assert!(out.status.success(), "identical artifacts must compare clean");

    let out = cli().args(["bench", "compare"]).arg(&base).arg(&worse).output().unwrap();
    assert!(!out.status.success(), "deterministic regression must exit nonzero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("allocs_per_round_steady_max"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("regression"), "{err}");

    // Improvements in the candidate are notes, never failures.
    let out = cli().args(["bench", "compare"]).arg(&worse).arg(&base).output().unwrap();
    assert!(out.status.success(), "improvement must not fail");

    for f in [&base, &same, &worse] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn bench_compare_rejects_a_deeply_nested_file() {
    // 50 000 unclosed brackets: the reader's depth limit turns what used
    // to be a stack-overflow abort into an ordinary error.
    let deep = tmpfile("bench-deep.json");
    std::fs::write(&deep, "[".repeat(50_000)).unwrap();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_core.json");
    let out = cli().args(["bench", "compare"]).arg(&deep).arg(committed).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&*deep.to_string_lossy()) && err.contains("nesting"), "{err}");
    std::fs::remove_file(&deep).ok();
}

#[test]
fn bench_rejects_unknown_suite() {
    let out = cli().args(["bench", "frobnicate", "--quick"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}
