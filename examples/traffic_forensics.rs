//! Traffic forensics: dissect a run with the analysis toolkit — per-color
//! cost attribution, execution punctuality, and the cost trajectory — on
//! bursty on/off traffic.
//!
//! ```sh
//! cargo run --example traffic_forensics
//! ```

use rrs::analysis::{attribution_table, punctuality_stats, run_report, timeline, timeline_table};
use rrs::prelude::*;

fn main() {
    let cfg = BurstyConfig {
        delta: 6,
        bounds: vec![2, 4, 8, 16, 16, 32],
        rounds: 256,
        p_on: 0.25,
        p_off: 0.35,
        on_load: 1.0,
    };
    let inst = bursty_instance(&cfg, 17);
    println!(
        "bursty trace: {} colors, {} jobs over {} rounds",
        inst.colors.len(),
        inst.total_jobs(),
        inst.horizon()
    );
    let profile = activity_profile(&inst);
    println!(
        "per-color activity: {:?}\n",
        profile.iter().map(|p| (p * 100.0).round()).collect::<Vec<_>>()
    );

    let n = 8;

    // 1. Who costs what?
    let per = run_report("forensics", &inst, n, &mut DeltaLruEdf::new()).per_color;
    println!("{}", attribution_table("per-color cost attribution (ΔLRU-EDF)", inst.delta, per));

    // 2. When do jobs run relative to their half-blocks?
    let mut trace = TraceRecorder::new();
    Simulator::new(&inst, n).run_traced(&mut full_algorithm(), &mut trace);
    let stats = punctuality_stats(&inst, &trace);
    println!(
        "full-stack punctuality: {} early, {} punctual, {} late (of {})\n",
        stats.early,
        stats.punctual,
        stats.late,
        stats.total()
    );

    // 3. How does cost accrue over time?
    let windows = timeline(&inst, n, &mut DeltaLruEdf::new(), 32);
    println!("{}", timeline_table("cost trajectory (32-round windows)", inst.delta, &windows));

    // 4. The referee.
    let lb = combined_lower_bound(&inst, 1);
    let cost = Simulator::new(&inst, n).run(&mut DeltaLruEdf::new()).total_cost();
    println!("total cost {cost} vs certified lower bound {lb} (ratio {:.2})", ratio(cost, lb));
}
