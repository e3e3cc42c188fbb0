//! Certified lower bounds on the optimal offline cost.
//!
//! Used to referee instances too large for the exact solver. Both bounds
//! hold for every schedule with the stated resources, so
//! `online_cost / lower_bound` over-estimates the true competitive ratio.

use rrs_engine::Simulator;
use rrs_model::Instance;

use crate::par_edf::par_edf_drop_cost;

/// The per-color configure-or-drop bound, valid for **any** number of
/// resources: all resources start black, so for each color `ℓ` any schedule
/// either pays at least Δ to configure some resource to `ℓ` at least once,
/// or executes no `ℓ` jobs and drops all `J_ℓ` of them. Hence
/// `OFF ≥ Σ_ℓ min(Δ, J_ℓ)`.
///
/// This is the quantitative form of Lemma 3.1 / Corollary 3.3's "OFF incurs
/// at least Δ per color" argument.
pub fn per_color_lower_bound(inst: &Instance) -> u64 {
    inst.colors.ids().map(|c| inst.delta.min(inst.requests.total_jobs_of(c))).sum()
}

/// A lower bound on the total cost of any schedule using `m` resources:
/// the maximum of the per-color bound and the Par-EDF drop bound
/// (Lemma 3.7). The maximum is sound; the sum would double-count (a
/// schedule may satisfy the per-color bound *through* drops).
pub fn combined_lower_bound(inst: &Instance, m: usize) -> u64 {
    per_color_lower_bound(inst).max(par_edf_drop_cost(inst, m).dropped)
}

/// An *upper* bound on OPT with `m` resources: the cheapest schedule any
/// policy in a small portfolio produces, plus the trivial drop-everything
/// schedule. Together with [`combined_lower_bound`] this brackets the
/// optimum on instances too large for the exact solver:
/// `LB ≤ OPT ≤ portfolio`.
///
/// The portfolio runs each policy *at the referee's own resource count*
/// `m`, so every schedule it prices is genuinely achievable with `m`
/// resources. Candidates are selected by the instance's problem class
/// (the Section 3 policies require batched arrivals) and by `m`'s shape
/// (e.g. ΔLRU-EDF needs a multiple of 4 locations).
pub fn portfolio_upper_bound(inst: &Instance, m: usize) -> u64 {
    use rrs_model::classify::check_batched;
    let mut best = inst.total_jobs(); // drop everything
    let batched = check_batched(inst).is_ok();
    if batched {
        if m >= 1 {
            let cost = Simulator::new(inst, m).run(&mut rrs_core::Edf::seq()).total_cost();
            best = best.min(cost);
        }
        if m >= 2 && m.is_multiple_of(2) {
            best = best.min(Simulator::new(inst, m).run(&mut rrs_core::Edf::new()).total_cost());
            best =
                best.min(Simulator::new(inst, m).run(&mut rrs_core::DeltaLru::new()).total_cost());
        }
        if m >= 4 && m.is_multiple_of(4) {
            best = best
                .min(Simulator::new(inst, m).run(&mut rrs_core::DeltaLruEdf::new()).total_cost());
        }
    }
    // The full VarBatch stack handles any arrival pattern.
    if m >= 4 && m.is_multiple_of(4) {
        let mut full = rrs_core::full_algorithm();
        best = best.min(Simulator::new(inst, m).run(&mut full).total_cost());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_model::InstanceBuilder;

    #[test]
    fn per_color_caps_at_delta() {
        let mut b = InstanceBuilder::new(5);
        let big = b.color(4);
        let small = b.color(4);
        b.arrive(0, big, 100).arrive(0, small, 2);
        let inst = b.build();
        // big contributes min(5, 100) = 5; small contributes min(5, 2) = 2.
        assert_eq!(per_color_lower_bound(&inst), 7);
    }

    #[test]
    fn combined_picks_the_larger_bound() {
        // Overloaded single resource: drops dominate.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 10);
        let inst = b.build();
        // per-color: min(1, 10) = 1; Par-EDF(1): executes 2, drops 8.
        assert_eq!(per_color_lower_bound(&inst), 1);
        assert_eq!(combined_lower_bound(&inst, 1), 8);
        // With plenty of resources the drop bound vanishes.
        assert_eq!(combined_lower_bound(&inst, 16), 1);
    }

    #[test]
    fn empty_instance_bounds_are_zero() {
        let inst = InstanceBuilder::new(3).build();
        assert_eq!(per_color_lower_bound(&inst), 0);
        assert_eq!(combined_lower_bound(&inst, 2), 0);
    }

    #[test]
    fn portfolio_brackets_opt() {
        use crate::{solve_opt, OptConfig};
        let mut b = InstanceBuilder::new(2);
        let c0 = b.color(2);
        let c1 = b.color(4);
        b.arrive(0, c0, 2).arrive(0, c1, 4).arrive(2, c0, 2).arrive(4, c1, 3);
        let inst = b.build();
        for m in [1usize, 2, 4] {
            let opt = solve_opt(&inst, m, OptConfig::default()).unwrap().cost;
            let lb = combined_lower_bound(&inst, m);
            let ub = portfolio_upper_bound(&inst, m);
            assert!(lb <= opt, "m={m}");
            assert!(opt <= ub, "m={m}: OPT {opt} > portfolio {ub}");
        }
    }

    #[test]
    fn portfolio_never_exceeds_drop_everything() {
        let mut b = InstanceBuilder::new(100);
        let c = b.color(2);
        b.arrive(0, c, 3);
        let inst = b.build();
        assert!(portfolio_upper_bound(&inst, 4) <= 3);
    }

    #[test]
    fn colors_with_no_jobs_contribute_nothing() {
        let mut b = InstanceBuilder::new(4);
        let used = b.color(2);
        let _unused = b.color(2);
        b.arrive(0, used, 8);
        let inst = b.build();
        assert_eq!(per_color_lower_bound(&inst), 4);
    }
}
