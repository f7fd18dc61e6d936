//! Co-streaming with seamless stream switching (§5.2).
//!
//! Two broadcasters co-stream: the viewer's consumer node resubscribes to
//! the co-broadcast stream on the client's behalf and flips the client
//! only once a complete GoP is cached — no stall, no client logic.
//!
//! ```sh
//! cargo run --release --example co_streaming
//! ```

use livenet::emu::LossModel;
use livenet::prelude::*;
use livenet::sim::scenario::COSTREAM;

fn main() {
    // Producer → consumer, one viewer on the solo stream; 3 s in, the
    // co-broadcast begins and the consumer starts the seamless switch.
    let costream_at = SimTime::from_secs(3);
    let mut sc = Scenario::chain(1, LossModel::None, 7);
    sc.costream_at = Some(costream_at);
    sc.duration = SimDuration::from_secs(8);
    let run = sc.run().expect("chain preset is valid");

    println!(
        "t={:.3}s  co-broadcast starts; consumer begins the switch",
        costream_at.as_secs_f64()
    );
    let mut now_watching = None;
    for (t, e) in &run.nodes[1].events {
        if let NodeEvent::SwitchCompleted { from, to, .. } = e {
            println!("t={:.3}s  switch completed: {from} → {to}", t.as_secs_f64());
            now_watching = Some(*to);
        }
    }
    let qoe = run.viewers[0].qoe;
    println!(
        "viewer QoE across the switch: startup {:?}, {} stalls, {} frames rendered",
        qoe.startup, qoe.stalls, qoe.frames_rendered
    );
    assert_eq!(now_watching, Some(COSTREAM), "switch must have completed");
}
