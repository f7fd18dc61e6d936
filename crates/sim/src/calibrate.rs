//! The fleet's latency model: constants, not configuration (DESIGN.md §3b
//! is the table of anchors).
//!
//! The per-node processing figures are calibrated against two anchors in
//! the paper: Fig. 11's length-0 paths (a single node acting as both
//! producer and consumer) show a median CDN path delay around 120–150 ms —
//! so single-node processing, dominated by the producer's media pipeline,
//! is on that order; and Table 1's LiveNet median of 188 ms over mostly
//! 2-hop paths pins the incremental relay/consumer cost. The packet-level
//! simulation ([`crate::scenario`]) validates the recovery-latency terms.
//! Milliseconds unless noted.

use livenet_node::LOSS_SCAN_INTERVAL;
use livenet_types::SimDuration;

/// Producer-node media processing (ingest, validation, re-packetize).
pub(crate) const PRODUCER_PROCESSING_MS: f64 = 118.0;
/// Relay-node fast-path processing + pacer queueing.
pub(crate) const RELAY_PROCESSING_MS: f64 = 28.0;
/// Consumer-node processing (per-client control, queueing).
pub(crate) const CONSUMER_PROCESSING_MS: f64 = 36.0;
/// NACK-based recovery: mean wait until a lost packet is detected, half
/// the node's loss-scan interval.
const RECOVERY_SCAN_MS: f64 = LOSS_SCAN_INTERVAL.as_millis() as f64 / 2.0;
/// First-mile (broadcaster→producer incl. encoding) median.
pub(crate) const FIRST_MILE_MS: f64 = 160.0;
/// Last-mile (consumer→viewer incl. decoding) median.
pub(crate) const LAST_MILE_MS: f64 = 150.0;
/// Fixed client playback buffer (Taobao Live: 300 ms, §7.1).
pub(crate) const PLAYER_BUFFER: SimDuration = SimDuration::from_millis(300);
/// [`PLAYER_BUFFER`] in the fleet model's unit.
pub(crate) const PLAYER_BUFFER_MS: f64 = PLAYER_BUFFER.as_millis() as f64;
/// Brain path-lookup hash-table cost (paper §4.4: "a few ms").
pub(crate) const BRAIN_LOOKUP_MS: f64 = 5.0;
/// Consumer-local processing when serving a request from cache.
pub(crate) const LOCAL_SERVE_MS: f64 = 33.0;

/// Expected recovery penalty for one hop with the given loss and RTT:
/// `loss × (scan/2 + RTT)` — a lost packet waits on average half a
/// scan interval to be detected, then one RTT for the retransmission.
pub(crate) fn recovery_penalty_ms(loss: f64, rtt: SimDuration) -> f64 {
    loss.clamp(0.0, 1.0) * (RECOVERY_SCAN_MS + rtt.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_path_sits_in_fig11_band() {
        // len-0 path: producer + consumer on one node.
        let d = PRODUCER_PROCESSING_MS + CONSUMER_PROCESSING_MS;
        assert!((100.0..160.0).contains(&d), "{d}");
    }

    #[test]
    fn two_hop_intra_path_near_table1_median() {
        // Typical intra-national 2-hop: 2 links × ~10 ms one-way.
        let d = PRODUCER_PROCESSING_MS + RELAY_PROCESSING_MS + CONSUMER_PROCESSING_MS + 2.0 * 10.0;
        assert!((150.0..220.0).contains(&d), "{d}");
    }

    #[test]
    fn recovery_penalty_scales_with_loss() {
        assert_eq!(recovery_penalty_ms(0.0, SimDuration::from_millis(40)), 0.0);
        let p = recovery_penalty_ms(0.01, SimDuration::from_millis(40));
        assert!((p - 0.65).abs() < 1e-9, "{p}");
    }
}
