//! The E1–E16 experiment suite (see `DESIGN.md` for the per-experiment
//! index). Each function regenerates one analytical artifact of the paper
//! and returns a printable [`Table`].
//!
//! Every sweep fans its independent simulator runs across threads with
//! [`par_map_sweep`] (rows are computed in parallel, appended in input
//! order), so the tables are bit-identical at any `--jobs` setting.
//!
//! **Observability.** Each experiment's principal online runs go through
//! [`observed_run`] / [`run_dlru_edf_labeled`] with a stable label (e.g.
//! `"e3 seed=4"`). When report collection is off — the default — these are
//! plain runs; when a caller (the CLI's `evaluate --metrics-out`) enables
//! it, every labeled run additionally deposits a [`crate::RunReport`] into
//! the collector, drained sorted by label so the sweep's work-stealing
//! completion order never leaks into the output.

use rrs_core::{full_algorithm, AlgoMetrics, ClassicLru, DeltaLru, DeltaLruEdf, Edf};
use rrs_engine::{par_map_sweep, Policy, ReplayPolicy, Simulator};
use rrs_model::Instance;
use rrs_offline::{combined_lower_bound, portfolio_upper_bound, solve_opt, OptConfig};
use rrs_workloads::{
    background_vs_short_term, batched_instance, edf_killer, general_instance, lru_killer,
    multiservice_router, rate_limited_instance, zipf_popularity, BackgroundConfig, BatchedConfig,
    EdfKillerParams, GeneralConfig, LruKillerParams, RateLimitedConfig, RouterConfig, ZipfConfig,
};

use crate::attribution::per_color_from_events;
use crate::lemmas::check_lemmas;
use crate::ratio::ratio;
use crate::run::{
    collecting, observed_run, record_report, run_dlru_edf_labeled, simulate, simulate_plain,
    RunReport,
};
use crate::table::{fmt_ratio, Table};

/// A named policy constructor, as swept by E8 and the router scenario.
type PolicyCtor = (&'static str, fn() -> Box<dyn Policy>);

/// A named table builder, as returned by [`default_suite`].
pub type SuiteEntry = (&'static str, fn() -> Table);

/// E1 (Appendix A): the ΔLRU lower-bound construction. Sweeps the
/// short-bound exponent `j`; ΔLRU's ratio against the handcrafted OFF grows
/// like `2^{j+1}/(nΔ)` while ΔLRU-EDF's stays bounded.
pub fn e1_lru_adversary(n: usize, delta: u64, j_range: std::ops::RangeInclusive<u32>) -> Table {
    let mut t = Table::new(
        "E1 (Appendix A): \u{394}LRU vs OFF on the LRU-killer, k = j + 2",
        &["j", "k", "dlru", "dlru_edf", "off", "ratio_dlru", "ratio_dlru_edf", "theory"],
    );
    let js: Vec<u32> = j_range.collect();
    for row in par_map_sweep(&js, |&j| {
        let k = j + 2;
        let params = LruKillerParams { n, delta, j, k };
        let adv = lru_killer(params);
        let label = format!("e1 j={j}");
        let dlru = observed_run(&label, &adv.instance, n, &mut DeltaLru::new()).total_cost();
        let dlru_edf = observed_run(&label, &adv.instance, n, &mut DeltaLruEdf::new()).total_cost();
        let off = simulate_plain(
            &Simulator::new(&adv.instance, adv.off_resources),
            &mut ReplayPolicy::new(adv.off_schedule.clone()),
        )
        .total_cost();
        debug_assert_eq!(off, adv.predicted_off_cost);
        let theory = (1u64 << (j + 1)) as f64 / (n as u64 * delta) as f64;
        vec![
            j.to_string(),
            k.to_string(),
            dlru.to_string(),
            dlru_edf.to_string(),
            off.to_string(),
            fmt_ratio(ratio(dlru, off)),
            fmt_ratio(ratio(dlru_edf, off)),
            fmt_ratio(theory),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: ratio_dlru grows with the theory column; ratio_dlru_edf stays O(1)");
    t
}

/// E2 (Appendix B): the EDF lower-bound construction. Sweeps `k`; EDF's
/// ratio grows like `2^{k-j-1}/(n/2+1)` while ΔLRU-EDF's stays bounded.
pub fn e2_edf_adversary(
    n: usize,
    delta: u64,
    j: u32,
    k_range: std::ops::RangeInclusive<u32>,
) -> Table {
    let mut t = Table::new(
        "E2 (Appendix B): EDF vs OFF on the EDF-killer",
        &["j", "k", "edf", "dlru_edf", "off", "ratio_edf", "ratio_dlru_edf", "theory"],
    );
    let ks: Vec<u32> = k_range.collect();
    for row in par_map_sweep(&ks, |&k| {
        let params = EdfKillerParams { n, delta, j, k };
        let adv = edf_killer(params);
        let label = format!("e2 k={k}");
        let edf = observed_run(&label, &adv.instance, n, &mut Edf::new()).total_cost();
        let dlru_edf = observed_run(&label, &adv.instance, n, &mut DeltaLruEdf::new()).total_cost();
        let off = simulate_plain(
            &Simulator::new(&adv.instance, adv.off_resources),
            &mut ReplayPolicy::new(adv.off_schedule.clone()),
        )
        .total_cost();
        debug_assert_eq!(off, adv.predicted_off_cost);
        let theory = (1u64 << (k - j - 1)) as f64 / (n as f64 / 2.0 + 1.0);
        vec![
            j.to_string(),
            k.to_string(),
            edf.to_string(),
            dlru_edf.to_string(),
            off.to_string(),
            fmt_ratio(ratio(edf, off)),
            fmt_ratio(ratio(dlru_edf, off)),
            fmt_ratio(theory),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: ratio_edf grows with the theory column; ratio_dlru_edf stays O(1)");
    t
}

/// E3's instance family: small random rate-limited instances.
fn e3_config() -> RateLimitedConfig {
    RateLimitedConfig { delta: 3, bounds: vec![2, 4], rounds: 16, activity: 0.8, load: 0.9 }
}

/// E10's instance family: E3's at full activity and load.
fn e10_config() -> RateLimitedConfig {
    RateLimitedConfig { delta: 3, bounds: vec![2, 4], rounds: 16, activity: 0.9, load: 1.0 }
}

/// E3 (Theorem 1): ΔLRU-EDF with `n = 8m` against the exact offline optimum
/// on small random rate-limited instances.
pub fn e3_vs_opt(seeds: std::ops::Range<u64>) -> Table {
    let cfg = e3_config();
    let m = 1;
    let n = 8 * m;
    let mut t = Table::new(
        "E3 (Theorem 1): \u{394}LRU-EDF (n=8m) vs exact OPT (m resources)",
        &["seed", "opt", "dlru_edf", "ratio"],
    );
    let mut worst: f64 = 0.0;
    let seeds: Vec<u64> = seeds.collect();
    for (row, r) in par_map_sweep(&seeds, |&seed| {
        let inst = rate_limited_instance(&cfg, seed);
        let opt = solve_opt(&inst, m, OptConfig::default()).expect("instance sized for OPT");
        let online = run_dlru_edf_labeled(&format!("e3 seed={seed}"), &inst, n);
        let r = ratio(online.cost(), opt.cost);
        let row =
            vec![seed.to_string(), opt.cost.to_string(), online.cost().to_string(), fmt_ratio(r)];
        (row, r)
    }) {
        worst = worst.max(if r.is_finite() { r } else { 0.0 });
        t.row(row);
    }
    t.note(format!("worst finite ratio observed: {worst:.3} (Theorem 1 promises O(1))"));
    t
}

/// E4 (Lemmas 3.3 & 3.4): the epoch bounds on random rate-limited
/// workloads across load levels.
pub fn e4_epoch_bounds(seeds: std::ops::Range<u64>) -> Table {
    let mut t = Table::new(
        "E4 (Lemmas 3.3/3.4): reconfig <= 4*epochs*\u{394}, inelig drops <= epochs*\u{394}",
        &["seed", "load", "epochs", "reconfig", "4*E*delta", "inelig", "E*delta", "holds"],
    );
    let grid: Vec<(u64, f64)> =
        seeds.flat_map(|seed| [0.3, 0.7, 1.0].map(|load| (seed, load))).collect();
    for row in par_map_sweep(&grid, |&(seed, load)| {
        let cfg = RateLimitedConfig {
            delta: 4,
            bounds: vec![2, 4, 8, 8],
            rounds: 64,
            activity: 0.8,
            load,
        };
        let inst = rate_limited_instance(&cfg, seed);
        let r = check_lemmas(&inst, 8);
        vec![
            seed.to_string(),
            format!("{load:.1}"),
            r.num_epochs.to_string(),
            r.reconfig_cost.to_string(),
            r.reconfig_bound().to_string(),
            r.ineligible_drops.to_string(),
            r.ineligible_bound().to_string(),
            (r.lemma_3_3_holds() && r.lemma_3_4_holds()).to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note("every row must hold (the lemmas are theorems, not tendencies)");
    t
}

/// E5 (Lemma 3.2 chain): eligible drops of ΔLRU-EDF (n locations) never
/// exceed Par-EDF's drops with m = n/8 resources.
pub fn e5_drop_chain(seeds: std::ops::Range<u64>) -> Table {
    let mut t = Table::new(
        "E5 (Lemma 3.2): eligible drops <= Par-EDF drops (m = n/8)",
        &["seed", "eligible_drops", "par_edf_drops", "holds"],
    );
    let seeds: Vec<u64> = seeds.collect();
    for row in par_map_sweep(&seeds, |&seed| {
        // More active colors than the n/2 = 4 distinct cache slots, so
        // eligible-but-uncached colors actually drop jobs.
        let cfg = RateLimitedConfig {
            delta: 2,
            bounds: vec![2, 2, 2, 2, 4, 4, 4, 8, 8, 8],
            rounds: 64,
            activity: 0.9,
            load: 1.0,
        };
        let inst = rate_limited_instance(&cfg, seed);
        let r = check_lemmas(&inst, 8);
        vec![
            seed.to_string(),
            r.eligible_drops.to_string(),
            r.par_edf_drops.to_string(),
            r.lemma_3_2_holds().to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note("every row must hold");
    t
}

/// E6 (Theorem 2): the Distribute reduction on batched instances with
/// oversize batches, refereed by the certified lower bound with m = n/8.
pub fn e6_distribute(seeds: std::ops::Range<u64>) -> Table {
    let n = 8;
    let m = 1;
    let cfg =
        BatchedConfig { delta: 4, bounds: vec![2, 4, 8], rounds: 64, activity: 0.7, overload: 3.0 };
    let mut t = Table::new(
        "E6 (Theorem 2): Distribute \u{2218} \u{394}LRU-EDF on oversize batches vs OPT bracket",
        &["seed", "jobs", "cost", "lower_bound", "opt_upper", "ratio_vs_lb"],
    );
    let seeds: Vec<u64> = seeds.collect();
    for row in par_map_sweep(&seeds, |&seed| {
        let inst = batched_instance(&cfg, seed);
        let mut p = rrs_core::Distribute::new(DeltaLruEdf::new());
        let out = observed_run(&format!("e6 seed={seed}"), &inst, n, &mut p);
        let lb = combined_lower_bound(&inst, m);
        let ub = portfolio_upper_bound(&inst, m);
        vec![
            seed.to_string(),
            inst.total_jobs().to_string(),
            out.total_cost().to_string(),
            lb.to_string(),
            ub.to_string(),
            fmt_ratio(ratio(out.total_cost(), lb)),
        ]
    }) {
        t.row(row);
    }
    t.note("LB <= OPT(m) <= opt_upper; ratio_vs_lb over-estimates the true competitive ratio");
    t
}

/// E7 (Theorem 3): the full VarBatch ∘ Distribute ∘ ΔLRU-EDF stack on
/// general (unbatched) arrivals.
pub fn e7_varbatch(seeds: std::ops::Range<u64>) -> Table {
    let n = 8;
    let m = 1;
    let cfg = GeneralConfig {
        delta: 4,
        bounds: vec![2, 4, 8, 16],
        rounds: 64,
        arrival_prob: 0.3,
        max_burst: 2,
    };
    let mut t = Table::new(
        "E7 (Theorem 3): VarBatch stack on general arrivals vs OPT bracket",
        &["seed", "jobs", "cost", "lower_bound", "opt_upper", "ratio_vs_lb"],
    );
    let seeds: Vec<u64> = seeds.collect();
    for row in par_map_sweep(&seeds, |&seed| {
        let inst = general_instance(&cfg, seed);
        let mut p = full_algorithm();
        let out = observed_run(&format!("e7 seed={seed}"), &inst, n, &mut p);
        assert!(out.conserved());
        let lb = combined_lower_bound(&inst, m);
        let ub = portfolio_upper_bound(&inst, m);
        vec![
            seed.to_string(),
            inst.total_jobs().to_string(),
            out.total_cost().to_string(),
            lb.to_string(),
            ub.to_string(),
            fmt_ratio(ratio(out.total_cost(), lb)),
        ]
    }) {
        t.row(row);
    }
    t.note("LB <= OPT(m) <= opt_upper; ratio_vs_lb over-estimates the true competitive ratio");
    t
}

/// E8 (§1 motivation): the background-vs-short-term tension. ΔLRU
/// underutilizes (drops the backlog), EDF thrashes (reconfigures per
/// burst), ΔLRU-EDF balances both.
pub fn e8_motivation(seed: u64) -> Table {
    let cfg = BackgroundConfig::default();
    let (inst, _, _) = background_vs_short_term(&cfg, seed);
    let n = 8;
    let mut t = Table::new(
        "E8 (\u{a7}1): background vs short-term jobs, n = 8",
        &["policy", "reconfig_cost", "drop_cost", "total"],
    );
    let policies: Vec<PolicyCtor> = vec![
        ("dlru", || Box::new(DeltaLru::new())),
        ("edf", || Box::new(Edf::new())),
        ("dlru-edf", || Box::new(DeltaLruEdf::new())),
    ];
    for row in par_map_sweep(&policies, |&(name, mk)| {
        let mut policy = mk();
        let out = observed_run(&format!("e8 policy={name}"), &inst, n, &mut &mut *policy);
        vec![
            name.to_string(),
            out.cost.reconfig_cost().to_string(),
            out.cost.drop_cost().to_string(),
            out.total_cost().to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: dlru is drop-dominated (underutilization: the backlog starves); edf and dlru-edf are reconfiguration-dominated with few or no drops");
    t
}

/// E10: the resource-augmentation sweep — ΔLRU-EDF's ratio against exact
/// OPT (m = 1) as its location budget grows.
pub fn e10_augmentation(seed: u64) -> Table {
    let inst = rate_limited_instance(&e10_config(), seed);
    let opt = solve_opt(&inst, 1, OptConfig::default()).expect("sized for OPT").cost;
    let mut t =
        Table::new("E10: resource augmentation sweep vs OPT(m=1)", &["n", "cost", "opt", "ratio"]);
    for row in par_map_sweep(&[4usize, 8, 16, 32], |&n| {
        let r = run_dlru_edf_labeled(&format!("e10 n={n:02}"), &inst, n);
        vec![n.to_string(), r.cost().to_string(), opt.to_string(), fmt_ratio(ratio(r.cost(), opt))]
    }) {
        t.row(row);
    }
    t.note("expected: ratio non-increasing in n, O(1) from n = 8 on");
    t
}

/// E11 (§5.3): arbitrary (non power-of-two) delay bounds through the
/// generalized VarBatch stack.
pub fn e11_arbitrary_bounds(seeds: std::ops::Range<u64>) -> Table {
    let n = 8;
    let cfg = GeneralConfig {
        delta: 4,
        bounds: vec![3, 5, 6, 12],
        rounds: 48,
        arrival_prob: 0.3,
        max_burst: 2,
    };
    let mut t = Table::new(
        "E11 (\u{a7}5.3): arbitrary delay bounds via rounded half-blocks",
        &["seed", "jobs", "cost", "lower_bound", "ratio_vs_lb"],
    );
    let seeds: Vec<u64> = seeds.collect();
    for row in par_map_sweep(&seeds, |&seed| {
        let inst = general_instance(&cfg, seed);
        let mut p = full_algorithm();
        let out = observed_run(&format!("e11 seed={seed}"), &inst, n, &mut p);
        assert!(out.conserved());
        let lb = combined_lower_bound(&inst, 1);
        vec![
            seed.to_string(),
            inst.total_jobs().to_string(),
            out.total_cost().to_string(),
            lb.to_string(),
            fmt_ratio(ratio(out.total_cost(), lb)),
        ]
    }) {
        t.row(row);
    }
    t
}

/// E12 (ablation): the LRU/EDF capacity split. `share` is the fraction of
/// the distinct cache governed by the LRU scheme; the paper's algorithm is
/// 0.5. Pure recency (1.0) collapses on the Appendix A adversary; pure
/// deadlines (0.0) collapses on Appendix B; only the middle survives both.
pub fn e12_split_ablation() -> Table {
    let n = 8;
    let a = lru_killer(LruKillerParams { n, delta: 2, j: 7, k: 9 });
    let b = edf_killer(EdfKillerParams { n, delta: 10, j: 4, k: 9 });
    let off_a = simulate_plain(
        &Simulator::new(&a.instance, a.off_resources),
        &mut ReplayPolicy::new(a.off_schedule.clone()),
    )
    .total_cost();
    let off_b = simulate_plain(
        &Simulator::new(&b.instance, b.off_resources),
        &mut ReplayPolicy::new(b.off_schedule.clone()),
    )
    .total_cost();
    let mut t = Table::new(
        "E12 (ablation): LRU share of the cache vs both adversaries",
        &["lru_share", "ratio_appendix_a", "ratio_appendix_b", "worst"],
    );
    // Shares are exact rationals (quarters of the cache); the label renders
    // `num/den` with two decimals, matching the former float formatting.
    for row in par_map_sweep(&[(0u64, 4u64), (1, 4), (2, 4), (3, 4), (4, 4)], |&(num, den)| {
        let pct = num * 100 / den;
        let label = format!("{}.{:02}", pct / 100, pct % 100);
        let ca = observed_run(
            &format!("e12 share={label} appendix_a"),
            &a.instance,
            n,
            &mut DeltaLruEdf::with_lru_share(num, den),
        )
        .total_cost();
        let cb = observed_run(
            &format!("e12 share={label} appendix_b"),
            &b.instance,
            n,
            &mut DeltaLruEdf::with_lru_share(num, den),
        )
        .total_cost();
        let ra = ratio(ca, off_a);
        let rb = ratio(cb, off_b);
        vec![label, fmt_ratio(ra), fmt_ratio(rb), fmt_ratio(ra.max(rb))]
    }) {
        t.row(row);
    }
    t.note("expected: the worst-case column is minimized near the paper's 0.5 split");
    t
}

/// E13 (ablation): the Δ-counter eligibility gate. On sparse traffic (many
/// colors, each with fewer than Δ jobs) classic LRU pays a reconfiguration
/// per color while ΔLRU correctly drops — Lemma 3.1's economics in action.
pub fn e13_counter_gate_ablation(num_colors_sweep: &[usize]) -> Table {
    let delta = 8;
    let n = 4;
    let mut t = Table::new(
        "E13 (ablation): \u{394}-counter gate on sparse traffic (1 job/color, \u{394}=8)",
        &["colors", "classic_lru", "dlru", "dlru_edf", "drop_all"],
    );
    for row in par_map_sweep(num_colors_sweep, |&num| {
        let mut b = rrs_model::InstanceBuilder::new(delta);
        let colors: Vec<_> = (0..num).map(|_| b.color(4)).collect();
        for (i, &c) in colors.iter().enumerate() {
            b.arrive((i as u64) * 4, c, 1);
        }
        let inst = b.build();
        let label = format!("e13 colors={num:03}");
        let classic = observed_run(&label, &inst, n, &mut ClassicLru::new()).total_cost();
        let dlru = observed_run(&label, &inst, n, &mut DeltaLru::new()).total_cost();
        let dlru_edf = observed_run(&label, &inst, n, &mut DeltaLruEdf::new()).total_cost();
        vec![
            num.to_string(),
            classic.to_string(),
            dlru.to_string(),
            dlru_edf.to_string(),
            inst.total_jobs().to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: classic_lru ~ 2*\u{394}*colors; the gated policies pay only the drops");
    t
}

/// E14 (ablation): replication factor. The paper caches every color at two
/// locations (halving distinct capacity); replication 1 doubles the number
/// of resident colors but halves per-color throughput. Which wins depends
/// on whether the workload is bound by color diversity or by per-color
/// backlog drain rate.
pub fn e14_replication_ablation() -> Table {
    let n = 8;
    let mut t = Table::new(
        "E14 (ablation): replication 2 (paper) vs 1 (wide) at n = 8",
        &["workload", "paper_cost", "wide_cost"],
    );
    let mut workloads: Vec<(&str, Instance)> = Vec::new();
    // Diversity-bound: many trickling colors.
    let mut b = rrs_model::InstanceBuilder::new(1);
    let colors: Vec<_> = (0..6).map(|_| b.color(4)).collect();
    for blk in 0..8 {
        for &c in &colors {
            b.arrive(blk * 4, c, 2);
        }
    }
    workloads.push(("diverse_trickle", b.build()));
    // Drain-bound: over-rate batches (2D jobs per block) need two locations
    // to drain before the deadline. (On *rate-limited* input replication
    // never matters for a cached color: a batch of at most D jobs drains at
    // one job per round within its D-round window.)
    let mut b = rrs_model::InstanceBuilder::new(1);
    let c = b.color(8);
    for blk in 0..8 {
        b.arrive(blk * 8, c, 16);
    }
    workloads.push(("overrate_backlog", b.build()));
    // The adversaries.
    workloads
        .push(("lru_killer", lru_killer(LruKillerParams { n, delta: 2, j: 6, k: 8 }).instance));
    workloads
        .push(("edf_killer", edf_killer(EdfKillerParams { n, delta: 10, j: 4, k: 7 }).instance));
    for row in par_map_sweep(&workloads, |(name, inst)| {
        let paper = observed_run(&format!("e14 {name} paper"), inst, n, &mut DeltaLruEdf::new())
            .total_cost();
        let wide = observed_run(
            &format!("e14 {name} wide"),
            inst,
            n,
            &mut DeltaLruEdf::with_replication(1),
        )
        .total_cost();
        vec![name.to_string(), paper.to_string(), wide.to_string()]
    }) {
        t.row(row);
    }
    t.note(
        "neither dominates: diversity-bound workloads favor wide, drain-bound favor replication",
    );
    t
}

/// E15 (§5.2): the punctuality profile of the full VarBatch stack on
/// general arrivals. The *virtual* schedule is punctual by construction;
/// the physical projection additionally executes some jobs early (pending
/// jobs of an already-configured color) and saves some jobs the virtual
/// schedule dropped — those saves can land in the final half-block and
/// classify as *late* — and one save can displace a chain of FIFO
/// successors into their late half-blocks, so no aggregate count bounds
/// lateness. The invariant that does hold is attribution: every late
/// execution has a virtually-dropped job at-or-before it in its color's
/// FIFO order ([`crate::punctuality::unattributed_lates`] is zero). The
/// `bonus` column (virtually-dropped jobs the physical run executed,
/// matched per job; see [`crate::punctuality::bonus_saves`]) is
/// diagnostic context, not a bound.
pub fn e15_punctuality(seeds: std::ops::Range<u64>) -> Table {
    let cfg = GeneralConfig {
        delta: 3,
        bounds: vec![4, 8, 16],
        rounds: 64,
        arrival_prob: 0.3,
        max_burst: 2,
    };
    let mut t = Table::new(
        "E15 (\u{a7}5.2): execution punctuality of the VarBatch stack",
        &[
            "seed",
            "early",
            "punctual",
            "late",
            "phys_drops",
            "virt_drops",
            "bonus",
            "late_attributed",
        ],
    );
    let seeds: Vec<u64> = seeds.collect();
    for row in par_map_sweep(&seeds, |&seed| {
        let inst = general_instance(&cfg, seed);
        let mut trace = rrs_engine::TraceRecorder::new();
        let mut p = full_algorithm();
        let out = simulate(&Simulator::new(&inst, 8), &mut p, &mut trace);
        if collecting() {
            // E15 already traces its physical run; fold the same events
            // into a report instead of running the policy a second time.
            record_report(RunReport {
                label: format!("e15 seed={seed}"),
                policy: p.name().to_string(),
                locations: 8,
                outcome: out.clone(),
                metrics: AlgoMetrics::default(),
                per_color: per_color_from_events(&inst, trace.events.iter()),
            });
        }
        let stats = crate::punctuality::punctuality_stats(&inst, &trace);
        // The wrapper's internal virtual run is exactly Distribute ∘
        // ΔLRU-EDF on the materialized σ' (the differential tests verify
        // this), so tracing that run referees the per-job bonus saves.
        let vinst = rrs_core::varbatch_instance(&inst);
        let mut virt_trace = rrs_engine::TraceRecorder::new();
        let virt = simulate(
            &Simulator::new(&vinst, 8),
            &mut rrs_core::Distribute::new(DeltaLruEdf::new()),
            &mut virt_trace,
        );
        let bonus = crate::punctuality::bonus_saves(&trace, &virt_trace, inst.colors.len());
        let unattributed = crate::punctuality::unattributed_lates(&inst, &trace, &virt_trace);
        vec![
            seed.to_string(),
            stats.early.to_string(),
            stats.punctual.to_string(),
            stats.late.to_string(),
            out.dropped.to_string(),
            virt.dropped.to_string(),
            bonus.to_string(),
            (unattributed == 0).to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note(
        "every row must have late_attributed = true: lateness only enters \
         downstream of a job the virtual schedule gave up on",
    );
    t
}

/// E16 (scale): the full VarBatch stack under Zipf color popularity as
/// the declared universe grows by orders of magnitude while traffic
/// volume stays fixed. With the hierarchical `ColorSet` / paged
/// `ColorMap` state sweep, per-round work and per-color-state memory
/// track the *live* colors (the sliver of the universe that ever
/// arrives), not the declared universe, so cost stays flat and the
/// footprint columns grow with `live`, not `colors`. `leaf_words` counts
/// occupied 64-bit leaf words across the stack's color sets;
/// `live_pages` counts materialized 64-slot pages across its color maps
/// (see DESIGN.md §14).
pub fn e16_zipf_scaling(color_counts: &[usize]) -> Table {
    let n = 8;
    let m = 1;
    let mut t = Table::new(
        "E16 (scale): VarBatch stack under Zipf popularity vs universe size",
        &[
            "colors",
            "jobs",
            "live",
            "cost",
            "drops",
            "lower_bound",
            "ratio_vs_lb",
            "leaf_words",
            "live_pages",
        ],
    );
    let counts: Vec<usize> = color_counts.to_vec();
    for row in par_map_sweep(&counts, |&num_colors| {
        let cfg = ZipfConfig { num_colors, ..ZipfConfig::default() };
        let inst = zipf_popularity(&cfg, 16);
        // Distinct arriving colors, in one pass over the arrival entries
        // (a per-color scan would defeat the point at 10^6 colors).
        let live = {
            let mut seen = std::collections::BTreeSet::new();
            for (_, req) in inst.requests.iter() {
                seen.extend(req.pairs().iter().map(|&(c, _)| c));
            }
            seen.len()
        };
        let mut p = full_algorithm();
        let out = observed_run(&format!("e16 colors={num_colors}"), &inst, n, &mut p);
        assert!(out.conserved());
        let lb = combined_lower_bound(&inst, m);
        let fp = rrs_core::Footprint::footprint(&p);
        vec![
            num_colors.to_string(),
            inst.total_jobs().to_string(),
            live.to_string(),
            out.total_cost().to_string(),
            out.dropped.to_string(),
            lb.to_string(),
            fmt_ratio(ratio(out.total_cost(), lb)),
            fp.colorset_leaf_words.to_string(),
            fp.colormap_live_pages.to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note(
        "jobs are fixed while colors grow 10^2..10^5: cost and footprint must \
         track `live`, not `colors`",
    );
    t
}

/// A router-scenario sanity table (not numbered in the paper; exercises
/// the §1 application end to end). It is not in [`default_suite`]; the
/// golden suite snapshot (`tests/fixtures/suite_snapshot.txt`) pins it.
pub fn router_scenario(seed: u64) -> Table {
    let inst = multiservice_router(&RouterConfig::default(), seed);
    let n = 8;
    let mut t = Table::new(
        "Router scenario: per-policy costs",
        &["policy", "reconfig_cost", "drop_cost", "total"],
    );
    let policies: Vec<PolicyCtor> = vec![
        ("dlru", || Box::new(DeltaLru::new())),
        ("edf", || Box::new(Edf::new())),
        ("dlru-edf", || Box::new(DeltaLruEdf::new())),
    ];
    for row in par_map_sweep(&policies, |&(name, mk)| {
        let mut policy = mk();
        let out = observed_run(&format!("router policy={name}"), &inst, n, &mut &mut *policy);
        vec![
            name.to_string(),
            out.cost.reconfig_cost().to_string(),
            out.cost.drop_cost().to_string(),
            out.total_cost().to_string(),
        ]
    }) {
        t.row(row);
    }
    t
}

/// The default experiment suite, keyed by short name (`e1`..`e16` except
/// E9, simulator throughput, which the `rrs-benchmark` package and
/// `rrs bench core` measure instead of a table). Each entry regenerates
/// one table at its small default parameters.
pub fn default_suite() -> Vec<SuiteEntry> {
    vec![
        ("e1", || e1_lru_adversary(8, 2, 4..=8)),
        ("e2", || e2_edf_adversary(8, 10, 4, 6..=9)),
        ("e3", || e3_vs_opt(0..8)),
        ("e4", || e4_epoch_bounds(0..4)),
        ("e5", || e5_drop_chain(0..8)),
        ("e6", || e6_distribute(0..6)),
        ("e7", || e7_varbatch(0..6)),
        ("e8", || e8_motivation(1)),
        ("e10", || e10_augmentation(3)),
        ("e11", || e11_arbitrary_bounds(0..6)),
        ("e12", e12_split_ablation),
        ("e13", || e13_counter_gate_ablation(&[4, 8, 16])),
        ("e14", e14_replication_ablation),
        ("e15", || e15_punctuality(0..6)),
        ("e16", || e16_zipf_scaling(&[100, 1_000, 10_000, 100_000])),
    ]
}

/// Run the default configuration of every experiment at its small
/// parameters. The tables themselves are generated in
/// parallel on top of each table's own parallel sweep; the worker pools
/// compose without oversubscription harm because inner workers are capped
/// at the same [`rrs_engine::jobs`] knob and blocked joins cost nothing.
pub fn all_default() -> Vec<Table> {
    let builders = default_suite();
    par_map_sweep(&builders, |&(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_dlru_ratio_grows_and_dlru_edf_stays_bounded() {
        let t = e1_lru_adversary(8, 2, 4..=7);
        let first: f64 = t.cell(0, "ratio_dlru").unwrap().parse().unwrap();
        let last: f64 = t.cell(t.len() - 1, "ratio_dlru").unwrap().parse().unwrap();
        assert!(last > first * 2.0, "\u{394}LRU ratio must grow: {first} -> {last}");
        for i in 0..t.len() {
            let r: f64 = t.cell(i, "ratio_dlru_edf").unwrap().parse().unwrap();
            assert!(r < 10.0, "\u{394}LRU-EDF ratio must stay bounded, got {r} at row {i}");
        }
    }

    #[test]
    fn e2_edf_ratio_grows_and_dlru_edf_stays_bounded() {
        let t = e2_edf_adversary(8, 10, 4, 6..=8);
        let first: f64 = t.cell(0, "ratio_edf").unwrap().parse().unwrap();
        let last: f64 = t.cell(t.len() - 1, "ratio_edf").unwrap().parse().unwrap();
        assert!(last > first * 1.5, "EDF ratio must grow: {first} -> {last}");
        for i in 0..t.len() {
            let r: f64 = t.cell(i, "ratio_dlru_edf").unwrap().parse().unwrap();
            assert!(r < 12.0, "\u{394}LRU-EDF ratio must stay bounded, got {r} at row {i}");
        }
    }

    #[test]
    fn e3_ratios_are_bounded() {
        let t = e3_vs_opt(0..4);
        for i in 0..t.len() {
            let r: f64 = t.cell(i, "ratio").unwrap().parse().unwrap();
            assert!(r.is_finite() && r < 20.0, "row {i} ratio {r}");
        }
    }

    #[test]
    fn e4_and_e5_always_hold() {
        let t4 = e4_epoch_bounds(0..2);
        for i in 0..t4.len() {
            assert_eq!(t4.cell(i, "holds"), Some("true"), "E4 row {i}");
        }
        let t5 = e5_drop_chain(0..4);
        for i in 0..t5.len() {
            assert_eq!(t5.cell(i, "holds"), Some("true"), "E5 row {i}");
        }
    }

    #[test]
    fn e8_shows_the_motivating_tension() {
        let t = e8_motivation(1);
        assert_eq!(t.len(), 3);
        // dlru-edf should not be worse than both naive policies at once.
        let total = |i: usize| -> u64 { t.cell(i, "total").unwrap().parse().unwrap() };
        let (dlru, edf, both) = (total(0), total(1), total(2));
        assert!(both <= dlru.max(edf), "dlru-edf {both} vs dlru {dlru}, edf {edf}");
    }

    #[test]
    fn e3_and_e10_opt_matches_the_plain_dp_oracle() {
        // The default suite's instances: E3 seeds 0..8 and E10 seed 3. The
        // tables print only costs; the exact solver must match the oracle
        // on the whole triple.
        let e3 = (0..8).map(|seed| rate_limited_instance(&e3_config(), seed));
        for (i, inst) in e3.chain([rate_limited_instance(&e10_config(), 3)]).enumerate() {
            let opt = solve_opt(&inst, 1, OptConfig::default()).expect("sized for OPT");
            let (dp, _) = rrs_offline::solve_plain_dp(&inst, 1, OptConfig::default())
                .expect("sized for the oracle");
            assert_eq!(
                (opt.cost, opt.reconfigs, opt.drops),
                (dp.cost, dp.reconfigs, dp.drops),
                "instance {i}"
            );
        }
    }

    #[test]
    fn e10_ratio_is_monotone_enough() {
        let t = e10_augmentation(3);
        let first: f64 = t.cell(0, "ratio").unwrap().parse().unwrap();
        let last: f64 = t.cell(t.len() - 1, "ratio").unwrap().parse().unwrap();
        assert!(last <= first + 1e-9, "more resources must not hurt: {first} -> {last}");
    }

    #[test]
    fn e11_runs_clean() {
        let t = e11_arbitrary_bounds(0..2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn e12_extreme_splits_fail_and_middle_survives() {
        let t = e12_split_ablation();
        let worst = |i: usize| -> f64 { t.cell(i, "worst").unwrap().parse().unwrap() };
        // share = 0.0 (row 0) or 1.0 (last row) must be strictly worse than
        // the paper's 0.5 (middle row).
        let middle = worst(2);
        assert!(worst(0) > middle * 1.5, "pure-EDF split should fail somewhere");
        assert!(worst(t.len() - 1) > middle * 1.5, "pure-LRU split should fail somewhere");
        assert!(middle < 6.0, "the paper's split stays bounded");
    }

    #[test]
    fn e14_has_a_split_decision() {
        let t = e14_replication_ablation();
        assert_eq!(t.len(), 4);
        // diverse_trickle favors wide; single_backlog favors the paper.
        let paper = |i: usize| -> u64 { t.cell(i, "paper_cost").unwrap().parse().unwrap() };
        let wide = |i: usize| -> u64 { t.cell(i, "wide_cost").unwrap().parse().unwrap() };
        assert!(wide(0) < paper(0), "diverse workload should favor replication 1");
        assert!(paper(1) < wide(1), "over-rate backlog should favor replication 2");
    }

    #[test]
    fn e15_late_executions_are_attributed() {
        let t = e15_punctuality(0..4);
        for i in 0..t.len() {
            assert_eq!(t.cell(i, "late_attributed"), Some("true"), "row {i}");
        }
    }

    #[test]
    fn collection_captures_labeled_reports_in_label_order() {
        let _g = crate::run::test_sync::COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::run::enable_report_collection();
        let _ = e3_vs_opt(0..3);
        let reports = crate::run::take_reports();
        // Concurrent tests may deposit extra labeled reports while
        // collection is on, so assert presence and order, not exact count.
        let mine: Vec<_> = reports.iter().filter(|r| r.label.starts_with("e3 seed=")).collect();
        for i in 0..3 {
            assert!(
                mine.iter().any(|r| r.label == format!("e3 seed={i}")),
                "missing e3 seed={i}: {mine:?}"
            );
        }
        assert!(mine.windows(2).all(|w| w[0].label <= w[1].label), "unsorted: {mine:?}");
        for r in &mine {
            assert_eq!(r.policy, "dlru-edf");
            assert!(r.outcome.conserved());
            let dropped: u64 = r.per_color.iter().map(|c| c.dropped).sum();
            assert_eq!(dropped, r.outcome.dropped);
        }
    }

    #[test]
    fn e13_gate_gap_scales_with_colors() {
        let t = e13_counter_gate_ablation(&[4, 16]);
        let classic: u64 = t.cell(1, "classic_lru").unwrap().parse().unwrap();
        let gated: u64 = t.cell(1, "dlru").unwrap().parse().unwrap();
        assert!(classic >= 8 * gated, "classic {classic} vs gated {gated}");
    }
}

#[cfg(test)]
mod e16_tests {
    use super::*;

    /// Growing the universe 100x at fixed traffic must not move the cost
    /// and must leave the footprint tracking the live colors: well under
    /// one leaf word / one page per 64 declared colors.
    #[test]
    fn e16_footprint_tracks_live_not_universe() {
        let t = e16_zipf_scaling(&[1_000, 100_000]);
        let cost_small: u64 = t.cell(0, "cost").unwrap().parse().unwrap();
        let cost_large: u64 = t.cell(1, "cost").unwrap().parse().unwrap();
        // Same draws, different universes: heavier tails mean *different*
        // costs are fine, but both runs see the same job volume.
        assert_eq!(t.cell(0, "jobs"), t.cell(1, "jobs"));
        assert!(cost_small > 0 && cost_large > 0);
        let live: u64 = t.cell(1, "live").unwrap().parse().unwrap();
        let words: u64 = t.cell(1, "leaf_words").unwrap().parse().unwrap();
        let pages: u64 = t.cell(1, "live_pages").unwrap().parse().unwrap();
        // A dense encoding would occupy 100_000/64 ≈ 1563 words per set
        // and as many pages per map across the stack's many structures;
        // sparse state stays within a few words/pages per live color.
        assert!(live < 10_000, "zipf traffic not sparse: {live} live");
        assert!(words <= 4 * live, "leaf words {words} vs {live} live: scaling with the universe");
        assert!(pages <= 4 * live, "live pages {pages} vs {live} live: scaling with the universe");
    }
}

#[cfg(test)]
mod suite_smoke {
    use super::*;

    /// Every experiment in the default suite produces a non-empty table
    /// with consistent column widths (the Table type enforces widths; this
    /// guards against an experiment silently producing zero rows).
    #[test]
    fn all_default_tables_are_populated() {
        let tables = all_default();
        assert_eq!(tables.len(), 15);
        for t in &tables {
            assert!(!t.is_empty(), "empty table: {}", t.title);
            assert!(!t.columns.is_empty(), "no columns: {}", t.title);
            // Rendering must not panic and must contain the title.
            let rendered = t.to_string();
            assert!(rendered.contains(&t.title));
        }
    }
}
