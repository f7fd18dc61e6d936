//! The §3 A→B→C example: fast-path forwarding with slow-path recovery.
//!
//! ```sh
//! cargo run --release --example fast_slow_recovery
//! ```

use livenet::emu::LossModel;
use livenet::prelude::*;

fn main() {
    println!("A → B → C chain, 2% random loss on A→B (paper §3 example)\n");
    for (label, recovery) in [("fast + slow path (LiveNet)", true), ("fast path only", false)] {
        let mut sc = Scenario::chain(2, LossModel::Bernoulli { p: 0.02 }, 42);
        if !recovery {
            sc.node.nack_retry_limit = 0;
        }
        let run = sc.run().expect("chain preset is valid");
        let qoe = run.viewers[0].qoe;
        println!("{label}:");
        println!(
            "  frames rendered: {} / ~150   stalls: {}",
            qoe.frames_rendered, qoe.stalls
        );
        println!(
            "  seqs NACKed by B: {} (in {} messages)   retransmissions served by A: {}",
            run.nodes[1].stats.nacks_sent,
            run.nodes[1].stats.nack_batches,
            run.nodes[0].stats.rtx_served
        );
        let recoveries = run.recovery_latencies_ms();
        if !recoveries.is_empty() {
            let mean = recoveries.iter().sum::<f64>() / recoveries.len() as f64;
            println!(
                "  {} holes recovered, mean detection→recovery {:.0} ms",
                recoveries.len(),
                mean
            );
        }
        println!();
    }
    println!("The slow path recovers every loss within ~(scan/2 + RTT), so the");
    println!("viewer sees the full frame sequence; without it, playback degrades.");
}
