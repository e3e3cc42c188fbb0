//! Regenerate the full experiment suite (E1–E16) and print every table.
//! This is the "reproduce the paper" entry point; `EXPERIMENTS.md` records
//! a snapshot of this output against the paper's analytical predictions.
//!
//! ```sh
//! cargo run --release --example full_evaluation
//! ```

use rrs::analysis::experiments;

fn main() {
    for (table, _) in experiments::all_default() {
        println!("{table}");
    }
    println!(
        "(E9, the throughput experiment, is timing-based: run the `rrs-benchmark` package \
         or `rrs-cli bench core`)"
    );
}
