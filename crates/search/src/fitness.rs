//! Fitness evaluation: measured cost ratio of an online policy against the
//! offline referee.
//!
//! Fitness is kept as the exact rational `(cost, base)` rather than an
//! `f64` ratio, and compared by `u128` cross-multiplication — the search's
//! ranking (and therefore its entire trajectory) must not depend on
//! floating-point rounding. The `f64` ratio is derived only for display
//! and journal lines.
//!
//! The referee is [`solve_opt`] under a state budget; when the budget
//! trips on an oversized genome the evaluation *degrades* to the
//! certified [`combined_lower_bound`] instead of hanging (ROADMAP item 2).
//! Both outcomes are pure functions of the instance, so fitness stays
//! deterministic either way. A persisted [`OptCache`] can be consulted
//! *read-only* during the parallel sweep through [`OptCache::lookup`] —
//! hits re-price instantly, an entry that fails its check against the
//! instance is a miss, and fresh exact solves are handed back to the
//! caller as [`SolvedLine`] records, which the search loop merges into
//! the cache in deterministic child order after the barrier.

use std::cmp::Ordering;

use rrs_core::{full_algorithm, ClassicLru, DeltaLru, DeltaLruEdf, Distribute, Edf};
use rrs_engine::sim::Simulator;
use rrs_engine::Snapshot;
use rrs_model::Instance;
use rrs_offline::{
    combined_lower_bound, instance_digest, solve_opt, OptCache, OptConfig, SolvedEntry,
};
use rrs_workloads::genome::Genome;

/// The online policies the search can target. Names match `rrs-cli`'s
/// `--policy` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Pure ΔLRU (§3.1) — Appendix A's victim.
    DeltaLru,
    /// Pure EDF (§3.2) — Appendix B's victim.
    Edf,
    /// Classic (non-Δ) LRU baseline.
    ClassicLru,
    /// The combined ΔLRU-EDF algorithm of §3.3.
    DeltaLruEdf,
    /// ΔLRU-EDF behind the §4 Distribute reduction.
    Distribute,
    /// The full Theorem 3 stack `VarBatch<Distribute<ΔLRU-EDF>>`.
    Full,
}

impl PolicyKind {
    /// Every targetable policy, in a fixed order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::DeltaLru,
        PolicyKind::Edf,
        PolicyKind::ClassicLru,
        PolicyKind::DeltaLruEdf,
        PolicyKind::Distribute,
        PolicyKind::Full,
    ];

    /// The CLI-facing name (`dlru`, `edf`, `classic-lru`, `dlru-edf`,
    /// `distribute`, `full`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::DeltaLru => "dlru",
            PolicyKind::Edf => "edf",
            PolicyKind::ClassicLru => "classic-lru",
            PolicyKind::DeltaLruEdf => "dlru-edf",
            PolicyKind::Distribute => "distribute",
            PolicyKind::Full => "full",
        }
    }

    /// Parse a CLI-facing name.
    pub fn parse(name: &str) -> Result<Self, String> {
        PolicyKind::ALL.iter().copied().find(|k| k.name() == name).ok_or_else(|| {
            format!("unknown policy '{name}' (try dlru|edf|classic-lru|dlru-edf|distribute|full)")
        })
    }

    /// A fresh policy instance, checkpointable (a `dyn Snapshot` is a
    /// `Policy` too).
    pub fn make(self) -> Box<dyn Snapshot> {
        match self {
            PolicyKind::DeltaLru => Box::new(DeltaLru::new()),
            PolicyKind::Edf => Box::new(Edf::new()),
            PolicyKind::ClassicLru => Box::new(ClassicLru::new()),
            PolicyKind::DeltaLruEdf => Box::new(DeltaLruEdf::new()),
            PolicyKind::Distribute => Box::new(Distribute::new(DeltaLruEdf::new())),
            PolicyKind::Full => Box::new(full_algorithm()),
        }
    }

    /// The policy's location rule, which its `init` asserts: `Err` says
    /// why it cannot run on `n` locations.
    pub fn check_locations(self, n: usize) -> Result<(), String> {
        self.make().check_locations(n)
    }
}

/// Which referee produced the baseline cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Referee {
    /// The exact memoized OPT solver finished within budget (or its
    /// answer was served from the persisted cache).
    Exact,
    /// OPT ran past its state budget or its per-layer cap; the certified
    /// lower bound stood in. Ratios against it over-estimate, never
    /// under-estimate.
    LowerBound,
}

impl Referee {
    /// The journal-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Referee::Exact => "exact",
            Referee::LowerBound => "lower-bound",
        }
    }
}

/// An exact cost ratio `cost / base`, compared without floats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fitness {
    /// Online policy's total cost.
    pub cost: u64,
    /// Referee baseline cost (exact OPT or certified lower bound).
    pub base: u64,
}

impl Fitness {
    /// Compare two ratios exactly: `a.cost/a.base ⋛ b.cost/b.base` via
    /// `u128` cross-multiplication. `0/0` (the empty instance) counts as
    /// ratio 1, matching [`Fitness::ratio`] — without this an empty genome
    /// would cross-multiply to a tie with *every* candidate and then win
    /// the ranking's smaller-size tiebreak. `x/0` with `x > 0` orders
    /// above every finite ratio.
    pub fn cmp_ratio(&self, other: &Fitness) -> Ordering {
        let canon = |f: &Fitness| {
            if f.cost == 0 && f.base == 0 {
                (1u64, 1u64)
            } else {
                (f.cost, f.base)
            }
        };
        let (ac, ab) = canon(self);
        let (bc, bb) = canon(other);
        let lhs = u128::from(ac) * u128::from(bb);
        let rhs = u128::from(bc) * u128::from(ab);
        lhs.cmp(&rhs)
    }
}

/// How fitness evaluation runs: online locations, referee resources, and
/// the OPT guard.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Locations handed to the online policy (ΔLRU-EDF needs a multiple
    /// of 4).
    pub locations: usize,
    /// Resources the offline referee schedules with (the appendix
    /// constructions assume 1).
    pub referee_resources: usize,
    /// Guarded OPT configuration; when it errors the certified bound
    /// stands in.
    pub opt: OptConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            locations: 8,
            referee_resources: 1,
            opt: OptConfig { max_states: 4_000, state_budget: Some(20_000) },
        }
    }
}

/// The result of one fitness evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Exact cost ratio.
    pub fitness: Fitness,
    /// Which referee produced `fitness.base`.
    pub referee: Referee,
}

/// A freshly certified exact OPT answer produced during a sweep, keyed by
/// instance digest, ready to be recorded into an [`OptCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolvedLine {
    /// Content digest of the instance (see
    /// [`rrs_offline::instance_digest`]).
    pub digest: u64,
    /// Referee resource count the entry was solved for.
    pub m: u32,
    /// The certified answer.
    pub entry: SolvedEntry,
}

/// Evaluate a decoded instance against a read-only cache view: run the
/// online policy, referee it, return the exact ratio plus — when the
/// referee had to solve fresh and succeeded — the [`SolvedLine`] the
/// caller should merge into its cache. Pure function of
/// `(inst, policy, cfg, cache contents)`, so sweeping it over
/// `par_map_sweep` stays byte-identical at any worker count.
pub fn evaluate_instance_cached(
    inst: &Instance,
    policy: PolicyKind,
    cfg: &EvalConfig,
    cache: Option<&OptCache>,
) -> (Evaluation, Option<SolvedLine>) {
    let mut p = policy.make();
    let outcome = Simulator::new(inst, cfg.locations).run(&mut p);
    let cost = outcome.total_cost();
    if let Some(Ok(e)) = cache.map(|c| c.lookup(inst, cfg.referee_resources)) {
        let eval = Evaluation { fitness: Fitness { cost, base: e.cost }, referee: Referee::Exact };
        return (eval, None);
    }
    match solve_opt(inst, cfg.referee_resources, cfg.opt) {
        Ok(r) => {
            // The cache keys `m` as a u32; an `m` beyond it is not cached.
            let m = u32::try_from(cfg.referee_resources).ok().filter(|_| cache.is_some());
            let line = m.map(|m| SolvedLine {
                digest: instance_digest(inst),
                m,
                entry: SolvedEntry::from(&r),
            });
            (Evaluation { fitness: Fitness { cost, base: r.cost }, referee: Referee::Exact }, line)
        }
        Err(_) => {
            let base = combined_lower_bound(inst, cfg.referee_resources);
            (Evaluation { fitness: Fitness { cost, base }, referee: Referee::LowerBound }, None)
        }
    }
}

/// Evaluate a decoded instance: run the online policy, referee it, return
/// the exact ratio. Pure function of `(inst, policy, cfg)`.
pub fn evaluate_instance(inst: &Instance, policy: PolicyKind, cfg: &EvalConfig) -> Evaluation {
    evaluate_instance_cached(inst, policy, cfg, None).0
}

/// Evaluate a genome (decode, then [`evaluate_instance`]).
pub fn evaluate(genome: &Genome, policy: PolicyKind, cfg: &EvalConfig) -> Evaluation {
    evaluate_instance(&genome.decode(), policy, cfg)
}

/// Evaluate a genome against a read-only cache view (decode, then
/// [`evaluate_instance_cached`]).
pub fn evaluate_cached(
    genome: &Genome,
    policy: PolicyKind,
    cfg: &EvalConfig,
    cache: Option<&OptCache>,
) -> (Evaluation, Option<SolvedLine>) {
    evaluate_instance_cached(&genome.decode(), policy, cfg, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_workloads::genome::random_genome;

    #[test]
    fn policy_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Ok(kind));
        }
        assert!(PolicyKind::parse("nope").is_err());
    }

    #[test]
    fn fitness_ordering_is_exact() {
        let a = Fitness { cost: 3, base: 2 }; // 1.5
        let b = Fitness { cost: 7, base: 5 }; // 1.4
        assert_eq!(a.cmp_ratio(&b), Ordering::Greater);
        assert_eq!(b.cmp_ratio(&a), Ordering::Less);
        assert_eq!(a.cmp_ratio(&a), Ordering::Equal);
        // x/0 dominates any finite ratio.
        let inf = Fitness { cost: 1, base: 0 };
        assert_eq!(inf.cmp_ratio(&a), Ordering::Greater);
        // Equal cross-products tie: 2/4 == 1/2.
        let half = Fitness { cost: 2, base: 4 };
        assert_eq!(half.cmp_ratio(&Fitness { cost: 1, base: 2 }), Ordering::Equal);
        // The empty instance's 0/0 counts as ratio 1, so it loses to any
        // ratio above 1 instead of tying with everything.
        let empty = Fitness { cost: 0, base: 0 };
        assert_eq!(empty.cmp_ratio(&a), Ordering::Less);
        assert_eq!(empty.cmp_ratio(&Fitness { cost: 5, base: 5 }), Ordering::Equal);
        assert_eq!(empty.cmp_ratio(&Fitness { cost: 1, base: 2 }), Ordering::Greater);
        assert_eq!(inf.cmp_ratio(&Fitness { cost: 9, base: 0 }), Ordering::Equal);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let g = random_genome(11);
        let cfg = EvalConfig::default();
        let a = evaluate(&g, PolicyKind::DeltaLru, &cfg);
        let b = evaluate(&g, PolicyKind::DeltaLru, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn cached_evaluation_matches_and_reprices_from_hits() {
        let g = random_genome(11);
        let cfg = EvalConfig::default();
        let plain = evaluate(&g, PolicyKind::DeltaLru, &cfg);

        let mut cache = OptCache::new();
        let (cold, line) = evaluate_cached(&g, PolicyKind::DeltaLru, &cfg, Some(&cache));
        assert_eq!(cold, plain, "cache plumbing must not change the evaluation");
        if cold.referee == Referee::Exact {
            let line = line.expect("fresh exact solve must hand back a cache line");
            cache.record(line.digest, line.m, line.entry);
            let (warm, warm_line) = evaluate_cached(&g, PolicyKind::DeltaLru, &cfg, Some(&cache));
            assert_eq!(warm, plain, "a cache hit must re-price to the identical evaluation");
            assert!(warm_line.is_none(), "hits produce no new cache line");
        } else {
            assert!(line.is_none(), "lower-bound degradations are never cached");
        }
    }

    #[test]
    fn tiny_opt_budget_degrades_to_lower_bound() {
        // A genome rich enough that a 1-state budget cannot referee it.
        let g = random_genome(3);
        assert!(g.total_jobs() > 0, "seed 3 must produce jobs");
        let cfg = EvalConfig {
            opt: OptConfig { max_states: 20_000, state_budget: Some(1) },
            ..EvalConfig::default()
        };
        let e = evaluate(&g, PolicyKind::DeltaLru, &cfg);
        assert_eq!(e.referee, Referee::LowerBound);
        assert!(e.fitness.base >= 1, "certified bound must price a non-empty instance");
    }
}
