//! Quickstart: build an instance, run the paper's algorithm, inspect costs.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rrs::prelude::*;

fn main() {
    // An instance of [Δ | 1 | D_ℓ | 1]: Δ = 4, two job categories.
    let mut b = InstanceBuilder::new(4);
    let voip = b.color(4); //  tight delay tolerance: 4 rounds
    let bulk = b.color(32); // loose delay tolerance: 32 rounds

    // VoIP packets burst every block; a bulk backlog lands at round 0.
    for block in 0..8 {
        b.arrive(block * 4, voip, 3);
    }
    b.arrive(0, bulk, 24);
    let inst = b.build();

    println!("instance: {} jobs, horizon {} rounds", inst.total_jobs(), inst.horizon());
    println!("class: {:?}\n", classify::classify(&inst));

    // The paper's headline algorithm on n = 8 locations.
    let mut policy = DeltaLruEdf::new();
    let out = Simulator::new(&inst, 8).run(&mut policy);
    println!("ΔLRU-EDF (n=8):");
    println!("  reconfigurations: {} (cost {})", out.cost.reconfigs, out.cost.reconfig_cost());
    println!("  drops:            {}", out.dropped);
    println!("  executed:         {}", out.executed);
    println!("  total cost:       {}", out.total_cost());
    let m = policy.stats().metrics;
    println!(
        "  epochs:           {} (lemma 3.3 bound: {})",
        m.num_epochs(),
        4 * m.num_epochs() * inst.delta
    );

    // Referee against the exact offline optimum with m = 1 resource.
    let opt = solve_opt(&inst, 1, OptConfig::default()).expect("small instance");
    println!("\nOPT (m=1): cost {} ({} reconfigs, {} drops)", opt.cost, opt.reconfigs, opt.drops);
    println!("empirical competitive ratio: {:.3}", ratio(out.total_cost(), opt.cost));
}
