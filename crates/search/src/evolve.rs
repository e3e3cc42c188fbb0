//! The seeded evolutionary loop: mutation + crossover + elitism over
//! instance genomes, fitness-ranked against the offline referee.
//!
//! **Determinism wall.** The whole run is a pure function of
//! [`SearchConfig`]: per-child RNGs are seeded from
//! `mix(seed, generation, child_index)` so no random stream is shared
//! between children, fitness evaluation fans out over
//! [`rrs_engine::par::par_map_sweep`] (results scattered back in input
//! order), and ranking breaks fitness ties on `(size, encoding)` — a total
//! order with no dependence on evaluation timing. The journal is therefore
//! byte-identical at any `--jobs` setting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrs_engine::par::par_map_sweep;
use rrs_offline::OptCache;
use rrs_workloads::genome::{crossover, mutate, random_genome, Genome};

use crate::fitness::{evaluate_cached, EvalConfig, Evaluation, PolicyKind};

/// Search hyper-parameters. Everything that influences the outcome lives
/// here; two runs with equal configs produce identical journals.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Generations to run (the CLI's `--budget`).
    pub generations: u32,
    /// Population size per generation.
    pub population: usize,
    /// Top-ranked genomes copied unchanged into the next generation.
    pub elites: usize,
    /// The online policy whose worst case is being searched.
    pub policy: PolicyKind,
    /// Fitness evaluation parameters.
    pub eval: EvalConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            generations: 20,
            population: 24,
            elites: 4,
            policy: PolicyKind::DeltaLru,
            eval: EvalConfig::default(),
        }
    }
}

/// A genome with its evaluation.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The (normalized) genome.
    pub genome: Genome,
    /// Its measured fitness.
    pub eval: Evaluation,
}

/// Per-generation summary, emitted to the journal.
#[derive(Clone, Debug)]
pub struct GenerationSummary {
    /// Generation index (0-based).
    pub gen: u32,
    /// Best candidate of this generation's ranked population.
    pub best: Candidate,
    /// Evaluations performed so far (cumulative).
    pub evals: u64,
}

/// The search result: the best candidate ever ranked plus per-generation
/// history.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Best candidate across all generations.
    pub best: Candidate,
    /// One summary per generation, in order.
    pub history: Vec<GenerationSummary>,
    /// Total fitness evaluations.
    pub evals: u64,
}

/// SplitMix64-style mixer for deriving independent child seeds from
/// `(seed, generation, index)`.
fn mix(seed: u64, generation: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(generation.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rank candidates best-first: fitness ratio descending, then smaller
/// genomes, then lexicographic encoding. A total order, so the sort result
/// is unique regardless of the (stable) sort's input order.
fn rank(population: &mut [Candidate]) {
    population.sort_by(|a, b| {
        b.eval
            .fitness
            .cmp_ratio(&a.eval.fitness)
            .then_with(|| a.genome.size().cmp(&b.genome.size()))
            .then_with(|| a.genome.encode().cmp(&b.genome.encode()))
    });
}

/// Evaluate a whole generation in parallel, preserving input order. The
/// cache is consulted read-only inside the sweep; freshly certified OPT
/// answers are merged back *after* the barrier, in child order, so the
/// cache contents — like everything else — are a pure function of the
/// config and the cache's starting state.
fn evaluate_all(
    genomes: Vec<Genome>,
    cfg: &SearchConfig,
    cache: &mut Option<&mut OptCache>,
) -> Vec<Candidate> {
    let view = cache.as_deref();
    let evals = par_map_sweep(&genomes, |g| evaluate_cached(g, cfg.policy, &cfg.eval, view));
    if let Some(c) = cache.as_deref_mut() {
        for (_, line) in &evals {
            if let Some(l) = line {
                c.record(l.digest, l.m, l.entry);
            }
        }
    }
    genomes.into_iter().zip(evals).map(|(genome, (eval, _))| Candidate { genome, eval }).collect()
}

/// Breed one child: tournament-pick two parents from the ranked
/// population, cross them, then mutate. The RNG is exclusive to this
/// child.
fn breed(ranked: &[Candidate], rng: &mut StdRng) -> Genome {
    let pick = |rng: &mut StdRng| {
        // Rank-biased tournament: two uniform picks, keep the better rank.
        let a = rng.random_range(0..ranked.len());
        let b = rng.random_range(0..ranked.len());
        &ranked[a.min(b)].genome
    };
    let child = if rng.random_bool(0.6) {
        let a = pick(rng).clone();
        let b = pick(rng).clone();
        crossover(&a, &b, rng)
    } else {
        pick(rng).clone()
    };
    mutate(&child, rng)
}

/// Run the evolutionary search. `on_generation` fires once per generation
/// with the ranked best — the CLI turns these into journal lines.
pub fn run_search(
    cfg: &SearchConfig,
    on_generation: impl FnMut(&GenerationSummary),
) -> SearchReport {
    run_search_cached(cfg, None, on_generation)
}

/// [`run_search`] with a persisted OPT solve cache. Referee answers
/// already in the cache re-price generations instantly; fresh exact
/// solves are recorded back into it, so consecutive search runs (and
/// sweep re-runs) share certification work. Passing a warm cache can
/// upgrade evaluations that would otherwise degrade to the lower bound,
/// so the trajectory is a pure function of `(cfg, starting cache)`.
pub fn run_search_cached(
    cfg: &SearchConfig,
    mut cache: Option<&mut OptCache>,
    mut on_generation: impl FnMut(&GenerationSummary),
) -> SearchReport {
    let population = cfg.population.max(2);
    let elites = cfg.elites.clamp(1, population - 1);

    // Generation 0: independent random genomes.
    let genomes: Vec<Genome> =
        (0..population).map(|i| random_genome(mix(cfg.seed, 0, i as u64))).collect();
    let mut ranked = evaluate_all(genomes, cfg, &mut cache);
    rank(&mut ranked);
    let mut evals = population as u64;
    let mut best = ranked[0].clone();
    let mut history = Vec::with_capacity(cfg.generations as usize + 1);
    let summary = GenerationSummary { gen: 0, best: best.clone(), evals };
    on_generation(&summary);
    history.push(summary);

    for gen in 1..=cfg.generations {
        // Elites survive unchanged (evaluations reused, not re-run).
        let mut next: Vec<Candidate> = ranked[..elites].to_vec();
        let offspring: Vec<Genome> = (elites..population)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(cfg.seed, u64::from(gen), i as u64));
                breed(&ranked, &mut rng)
            })
            .collect();
        evals += offspring.len() as u64;
        next.extend(evaluate_all(offspring, cfg, &mut cache));
        rank(&mut next);
        ranked = next;
        if ranked[0].eval.fitness.cmp_ratio(&best.eval.fitness).is_gt() {
            best = ranked[0].clone();
        }
        let summary = GenerationSummary { gen, best: ranked[0].clone(), evals };
        on_generation(&summary);
        history.push(summary);
    }

    SearchReport { best, history, evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_engine::par::set_jobs;

    fn small_cfg(seed: u64) -> SearchConfig {
        // A deliberately starved referee: these tests check search
        // mechanics and determinism, not ratio quality, and the certified
        // lower bound is reached fast even in debug builds.
        let eval = EvalConfig {
            opt: rrs_offline::OptConfig { max_states: 500, state_budget: Some(2_000) },
            ..EvalConfig::default()
        };
        SearchConfig { seed, generations: 3, population: 8, elites: 2, eval, ..Default::default() }
    }

    fn fingerprint(report: &SearchReport) -> Vec<(u32, String, u64, u64)> {
        report
            .history
            .iter()
            .map(|s| {
                (s.gen, s.best.genome.encode(), s.best.eval.fitness.cost, s.best.eval.fitness.base)
            })
            .collect()
    }

    #[test]
    fn search_is_deterministic_across_worker_counts() {
        let cfg = small_cfg(42);
        set_jobs(1);
        let a = run_search(&cfg, |_| {});
        set_jobs(4);
        let b = run_search(&cfg, |_| {});
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.best.genome, b.best.genome);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn cached_search_is_deterministic_and_reprices_identically() {
        let cfg = small_cfg(42);
        let plain = run_search(&cfg, |_| {});

        let mut cache = OptCache::new();
        set_jobs(1);
        let cold = run_search_cached(&cfg, Some(&mut cache), |_| {});
        assert_eq!(fingerprint(&plain), fingerprint(&cold), "an empty cache changes nothing");
        let cold_bytes = cache.encode();

        // Re-running warm must reproduce the same trajectory (every hit
        // replays the same exact answer) without growing the cache, at
        // any worker count.
        set_jobs(4);
        let warm = run_search_cached(&cfg, Some(&mut cache), |_| {});
        assert_eq!(fingerprint(&cold), fingerprint(&warm));
        assert_eq!(cold_bytes, cache.encode(), "warm re-run must not grow the cache");
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run_search(&small_cfg(1), |_| {});
        let b = run_search(&small_cfg(2), |_| {});
        // Histories may coincidentally share a best, but the full
        // trajectory fingerprints should differ for distinct seeds.
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn best_fitness_is_monotone_in_report() {
        let report = run_search(&small_cfg(7), |_| {});
        // The running best never loses to any generation's best.
        for s in &report.history {
            assert!(report.best.eval.fitness.cmp_ratio(&s.best.eval.fitness).is_ge());
        }
        assert_eq!(report.evals, 8 + 3 * 6);
    }

    #[test]
    fn callback_sees_every_generation() {
        let mut gens = Vec::new();
        run_search(&small_cfg(5), |s| gens.push(s.gen));
        assert_eq!(gens, vec![0, 1, 2, 3]);
    }
}
