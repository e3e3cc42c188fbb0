//! Property-based invariants across the whole stack.

use proptest::prelude::*;
use rrs::prelude::*;

/// Strategy: a small rate-limited instance with power-of-two bounds.
fn rate_limited_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=4,                                            // delta
        prop::collection::vec(0u32..=3, 1..=4),              // bound exponents per color
        prop::collection::vec((0u64..=7, 0u64..=8), 0..=24), // (block, jobs) picks
    )
        .prop_map(|(delta, exps, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (block, jobs)) in picks.into_iter().enumerate() {
                let idx = i % colors.len();
                let d = bounds[idx];
                let count = jobs.min(d);
                if count > 0 {
                    b.arrive(block * d, colors[idx], count);
                }
            }
            b.build()
        })
}

/// Strategy: a small general instance, arbitrary bounds and rounds.
fn general_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=4,
        prop::collection::vec(1u64..=12, 1..=4), // arbitrary bounds
        prop::collection::vec((0u64..=20, 1u64..=4), 0..=30),
    )
        .prop_map(|(delta, bounds, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (round, jobs)) in picks.into_iter().enumerate() {
                b.arrive(round, colors[i % colors.len()], jobs);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_and_cost_identity_hold_for_every_policy(inst in rate_limited_strategy()) {
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(DeltaLru::new()),
            Box::new(Edf::new()),
            Box::new(DeltaLruEdf::new()),
            Box::new(Distribute::new(DeltaLruEdf::new())),
            Box::new(full_algorithm()),
        ];
        for mut p in policies {
            let out = Simulator::new(&inst, 8).run(&mut p);
            prop_assert!(out.conserved(), "{}: {:?}", p.name(), out);
            prop_assert_eq!(
                out.total_cost(),
                inst.delta * out.cost.reconfigs + out.dropped,
                "cost identity for {}", p.name()
            );
        }
    }

    #[test]
    fn full_stack_conserves_on_general_instances(inst in general_strategy()) {
        let out = Simulator::new(&inst, 8).run(&mut full_algorithm());
        prop_assert!(out.conserved());
    }

    #[test]
    fn outcome_invariants_hold_at_any_speed_and_horizon(
        inst in general_strategy(),
        speed in 1u32..=2,
        extra in 0u64..=16,
    ) {
        // The Outcome bookkeeping identities must survive mini-rounds
        // (speed 2) and horizons extended past the instance's own: every
        // arrival is executed or dropped, the ledger's drop count is the
        // outcome's, and the round count covers the extension.
        let out = Simulator::new(&inst, 8)
            .with_speed(speed)
            .with_horizon(inst.horizon() + extra)
            .run(&mut full_algorithm());
        prop_assert!(out.conserved(), "speed {}: {:?}", speed, out);
        prop_assert_eq!(out.cost.drops, out.dropped);
        prop_assert_eq!(out.rounds, inst.horizon() + extra + 1);
        prop_assert_eq!(
            out.total_cost(),
            inst.delta * out.cost.reconfigs + out.dropped
        );
    }

    #[test]
    fn lemma_bounds_hold_on_random_rate_limited(inst in rate_limited_strategy()) {
        let r = check_lemmas(&inst, 8);
        prop_assert!(r.lemma_3_3_holds(), "3.3: {:?}", r);
        prop_assert!(r.lemma_3_4_holds(), "3.4: {:?}", r);
        prop_assert!(r.lemma_3_2_holds(), "3.2: {:?}", r);
    }

    #[test]
    fn opt_is_a_true_lower_bound(inst in rate_limited_strategy()) {
        // Bound the state space: skip instances the solver rejects.
        let cfg = OptConfig { max_states: 50_000, ..Default::default() };
        if let Ok(opt) = solve_opt(&inst, 1, cfg) {
            prop_assert!(combined_lower_bound(&inst, 1) <= opt.cost);
            // Any replayed OPT schedule is achievable, so every online
            // policy with the same single location costs at least OPT...
            let pin = inst.colors.ids().next();
            if let Some(c) = pin {
                let online = Simulator::new(&inst, 1).run(&mut rrs::engine::policy::PinColor(c));
                prop_assert!(opt.cost <= online.total_cost());
            }
        }
    }

    #[test]
    fn par_edf_drops_monotone_in_resources(inst in rate_limited_strategy()) {
        let d1 = par_edf_drop_cost(&inst, 1).dropped;
        let d2 = par_edf_drop_cost(&inst, 2).dropped;
        let d4 = par_edf_drop_cost(&inst, 4).dropped;
        prop_assert!(d2 <= d1);
        prop_assert!(d4 <= d2);
    }

    #[test]
    fn double_speed_never_drops_more(inst in rate_limited_strategy()) {
        // DS-Seq-EDF vs Seq-EDF (Lemma 3.8's direction): doubling the speed
        // of the same policy cannot increase drops on these instances.
        let s1 = Simulator::new(&inst, 4).run(&mut Edf::seq());
        let s2 = Simulator::new(&inst, 4).with_speed(2).run(&mut Edf::seq());
        prop_assert!(s2.dropped <= s1.dropped, "speed-2 dropped more: {} > {}", s2.dropped, s1.dropped);
    }

    #[test]
    fn classification_is_sound(inst in general_strategy()) {
        // classify() must agree with the individual checkers.
        let class = classify::classify(&inst);
        match class {
            InstanceClass::RateLimited => {
                prop_assert!(classify::check_rate_limited(&inst).is_ok())
            }
            InstanceClass::Batched => {
                prop_assert!(classify::check_batched(&inst).is_ok());
                prop_assert!(classify::check_rate_limited(&inst).is_err());
            }
            InstanceClass::General => prop_assert!(classify::check_batched(&inst).is_err()),
        }
    }
}

/// Strategy: a *tiny* rate-limited instance for the brute-force oracle.
fn tiny_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=3,
        prop::collection::vec(0u32..=2, 1..=2), // 1-2 colors, bounds 1..4
        prop::collection::vec((0u64..=2, 0u64..=3), 0..=6),
    )
        .prop_map(|(delta, exps, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (block, jobs)) in picks.into_iter().enumerate() {
                let idx = i % colors.len();
                let d = bounds[idx];
                let count = jobs.min(d);
                if count > 0 {
                    b.arrive(block * d, colors[idx], count);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_matches_brute_force(inst in tiny_strategy()) {
        for m in 1..=2usize {
            let dp = solve_plain_dp(&inst, m, OptConfig::default()).unwrap().0.cost;
            let brute = solve_brute(&inst, m);
            prop_assert_eq!(dp, brute, "m={} inst={:?}", m, inst);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_format_round_trips(inst in general_strategy()) {
        let text = rrs::model::to_text(&inst);
        let back = rrs::model::from_text(&text).unwrap();
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn varbatch_late_executions_are_attributed(inst in rate_limited_strategy()) {
        // §5.2: the *virtual* schedule is punctual by construction, so
        // lateness can enter the physical projection only downstream of a
        // virtual drop: a late-executed job is either itself a bonus save
        // (virtually dropped, physically executed) or was displaced past
        // its punctual window by earlier bonus saves of its color. No
        // aggregate count bounds lateness (one save can displace a chain
        // of successors), so the invariant is per-job attribution.
        let mut trace = rrs::engine::TraceRecorder::new();
        Simulator::new(&inst, 8).run_traced(&mut full_algorithm(), &mut trace);
        let vinst = rrs::core::varbatch_instance(&inst);
        let mut virt_trace = rrs::engine::TraceRecorder::new();
        Simulator::new(&vinst, 8)
            .run_traced(&mut Distribute::new(DeltaLruEdf::new()), &mut virt_trace);
        let unattributed = rrs::analysis::unattributed_lates(&inst, &trace, &virt_trace);
        prop_assert!(unattributed == 0, "{} late executions with no virtual drop before them", unattributed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulation_is_deterministic(inst in general_strategy()) {
        // Two independent runs of the same (stateless-seeded) policy stack
        // must agree bit for bit — no hidden nondeterminism (hash order,
        // allocation addresses) may leak into scheduling decisions.
        let a = Simulator::new(&inst, 8).run(&mut full_algorithm());
        let b = Simulator::new(&inst, 8).run(&mut full_algorithm());
        prop_assert_eq!(a, b);
    }
}

// --- sparse container models (DESIGN.md §14) -------------------------------
//
// The hierarchical `ColorSet` and paged `ColorMap` replaced flat
// containers under every policy; golden-trace byte-identity rests on them
// reproducing the flat semantics exactly, including ascending iteration.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The two-level bitset agrees with a `BTreeSet` on every operation's
    /// result and iterates in exactly its ascending order.
    #[test]
    fn color_set_matches_btree_set(
        ops in prop::collection::vec((0u8..=7, 0u32..200_000), 1..=200)
    ) {
        let mut set = rrs_model::ColorSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (op, id) in ops {
            match op {
                0 => { set.clear(); model.clear(); }
                1 | 2 => prop_assert_eq!(set.remove(ColorId(id)), model.remove(&id)),
                _ => prop_assert_eq!(set.insert(ColorId(id)), model.insert(id)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.contains(ColorId(id)), model.contains(&id));
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let got: Vec<u32> = set.iter().map(|c| c.0).collect();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The paged map agrees with a flat-vector model under random
    /// grow/write/read sequences: flat coverage semantics, absent pages
    /// reading as default, and iteration visiting exactly the slots of
    /// materialized pages in ascending order, clipped to coverage.
    #[test]
    fn color_map_matches_flat_model(
        ops in prop::collection::vec((0u8..=7, 0u32..4_096, 1u64..1_000), 1..=200)
    ) {
        use rrs_model::dense::COLOR_PAGE;
        let mut map: rrs_model::ColorMap<u64> = rrs_model::ColorMap::new();
        let mut flat: Vec<u64> = Vec::new();
        let mut touched = std::collections::BTreeSet::new();
        for (op, id, val) in ops {
            let c = ColorId(id);
            let i = id as usize;
            match op {
                0 => {
                    map.grow_to(i);
                    if flat.len() < i {
                        flat.resize(i, 0);
                    }
                }
                1 | 2 => {
                    *map.entry(c) = val;
                    if flat.len() <= i {
                        flat.resize(i + 1, 0);
                    }
                    flat[i] = val;
                    touched.insert(i / COLOR_PAGE);
                }
                3 => {
                    // Indexing requires coverage; the model mirrors that.
                    if i < flat.len() {
                        map[c] = val;
                        flat[i] = val;
                        touched.insert(i / COLOR_PAGE);
                    }
                }
                4 => match map.get_mut(c) {
                    Some(v) => {
                        *v = v.wrapping_add(val);
                        flat[i] = flat[i].wrapping_add(val);
                        touched.insert(i / COLOR_PAGE);
                    }
                    None => prop_assert!(i >= flat.len()),
                },
                _ => {
                    prop_assert_eq!(map.value(c), flat.get(i).copied().unwrap_or(0));
                    prop_assert_eq!(
                        map.get(c).copied(),
                        if i < flat.len() { Some(flat[i]) } else { None }
                    );
                }
            }
            prop_assert_eq!(map.len(), flat.len());
        }
        let got: Vec<(u32, u64)> = map.iter().map(|(c, &v)| (c.0, v)).collect();
        let want: Vec<(u32, u64)> = touched
            .iter()
            .flat_map(|&pi| pi * COLOR_PAGE..(pi + 1) * COLOR_PAGE)
            .filter(|&i| i < flat.len())
            .map(|i| (i as u32, flat[i]))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(map.live_pages(), touched.len());
    }
}
