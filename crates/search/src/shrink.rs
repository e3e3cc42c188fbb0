//! Proptest-style shrinking: minimize a discovered adversary to a
//! smallest genome whose measured ratio still meets a threshold.
//!
//! Greedy descent over [`shrink_candidates`]: each pass evaluates every
//! single-step simplification (in parallel, order-preserving) and commits
//! the *first* one in candidate order that still meets the threshold —
//! the same result a sequential first-accept scan would produce, so the
//! minimizer is deterministic at any worker count. Every candidate is
//! strictly smaller under [`Genome::size`], so descent terminates; the
//! `max_evals` budget is a wall-clock backstop on top.

use rrs_engine::par::par_map_sweep;
use rrs_workloads::genome::{shrink_candidates, Genome};

use crate::evolve::Candidate;
use crate::fitness::{evaluate, EvalConfig, Fitness, PolicyKind};

/// One accepted shrink step, for the journal.
#[derive(Clone, Debug)]
pub struct ShrinkStep {
    /// 1-based step number.
    pub step: u32,
    /// The smaller genome that still meets the threshold.
    pub candidate: Candidate,
}

/// The minimizer's result.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The minimized candidate (the input itself if nothing smaller held).
    pub minimized: Candidate,
    /// Accepted steps, in order.
    pub steps: Vec<ShrinkStep>,
    /// Fitness evaluations spent.
    pub evals: u64,
}

/// Shrink `start` while its ratio stays ≥ `threshold` (compared exactly —
/// pass `start.eval.fitness` to mean "preserve the discovered ratio").
/// `on_step` fires on every accepted step.
pub fn shrink(
    start: &Candidate,
    policy: PolicyKind,
    eval_cfg: &EvalConfig,
    threshold: Fitness,
    max_evals: u64,
    mut on_step: impl FnMut(&ShrinkStep),
) -> ShrinkReport {
    let mut current = start.clone();
    let mut steps = Vec::new();
    let mut evals = 0u64;

    'outer: loop {
        let candidates: Vec<Genome> = shrink_candidates(&current.genome);
        if candidates.is_empty() || evals >= max_evals {
            break;
        }
        // Evaluate the whole frontier in parallel; results come back in
        // candidate order, so "first passing" is well-defined.
        let budget_left = (max_evals - evals) as usize;
        let frontier = &candidates[..candidates.len().min(budget_left)];
        let results = par_map_sweep(frontier, |g| evaluate(g, policy, eval_cfg));
        evals += frontier.len() as u64;
        for (genome, eval) in frontier.iter().zip(results) {
            if eval.fitness.cmp_ratio(&threshold).is_ge() {
                current = Candidate { genome: genome.clone(), eval };
                let step = ShrinkStep { step: steps.len() as u32 + 1, candidate: current.clone() };
                on_step(&step);
                steps.push(step);
                continue 'outer;
            }
        }
        break; // no candidate meets the threshold: local minimum
    }

    ShrinkReport { minimized: current, steps, evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::Evaluation;
    use rrs_workloads::genome::{parse_genome, random_genome};

    fn candidate_for(genome: Genome, policy: PolicyKind, cfg: &EvalConfig) -> Candidate {
        let eval = evaluate(&genome, policy, cfg);
        Candidate { genome, eval }
    }

    // Starved referee: these tests exercise the descent mechanics, not
    // ratio quality, and must stay fast in debug builds.
    fn cheap_cfg() -> EvalConfig {
        EvalConfig {
            opt: rrs_offline::OptConfig { max_states: 500, state_budget: Some(2_000) },
            ..EvalConfig::default()
        }
    }

    #[test]
    fn shrinking_never_increases_size_and_preserves_threshold() {
        let cfg = cheap_cfg();
        // A deliberately padded Appendix-A-like genome: extra phase and a
        // redundant third short color the minimizer should strip.
        let g = parse_genome("d2|4:2:1:2:8|4:2:1:0:8|4:2:1:0:8|6:64:1:0:1").unwrap();
        let start = candidate_for(g, PolicyKind::DeltaLru, &cfg);
        let threshold = start.eval.fitness;
        let report = shrink(&start, PolicyKind::DeltaLru, &cfg, threshold, 50_000, |_| {});
        assert!(report.minimized.genome.size() <= start.genome.size());
        assert!(report.minimized.eval.fitness.cmp_ratio(&threshold).is_ge());
        // Every accepted step shrinks strictly.
        let mut last = start.genome.size();
        for s in &report.steps {
            assert!(s.candidate.genome.size() < last);
            last = s.candidate.genome.size();
        }
    }

    #[test]
    fn shrink_is_deterministic() {
        let cfg = cheap_cfg();
        let start = candidate_for(random_genome(9), PolicyKind::Edf, &cfg);
        let t = start.eval.fitness;
        let a = shrink(&start, PolicyKind::Edf, &cfg, t, 10_000, |_| {});
        let b = shrink(&start, PolicyKind::Edf, &cfg, t, 10_000, |_| {});
        assert_eq!(a.minimized.genome, b.minimized.genome);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn unreachable_threshold_returns_input() {
        let cfg = cheap_cfg();
        let genome = random_genome(4);
        let start = Candidate {
            genome: genome.clone(),
            eval: Evaluation {
                fitness: Fitness { cost: 1, base: 1 },
                referee: crate::fitness::Referee::Exact,
            },
        };
        // Impossible bar: ratio ≥ 1000000/1.
        let report = shrink(
            &start,
            PolicyKind::DeltaLru,
            &cfg,
            Fitness { cost: 1_000_000, base: 1 },
            10_000,
            |_| {},
        );
        assert_eq!(report.minimized.genome, genome);
        assert!(report.steps.is_empty());
    }
}
