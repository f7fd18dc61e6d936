//! Congestion control and pacing for the LiveNet slow/fast paths.
//!
//! The slow path adopts GCC (Google Congestion Control, Carlucci et al.
//! 2016) — paper §5.1: "The sender rate control decides the pacing rate
//! based on both the delay-based receiver-side control and the loss-based
//! sender-side control. This pacing rate will then be passed to the pacer in
//! the fast path." This crate implements that split from scratch:
//!
//! * `delay` — the receiver-side delay-based estimator: inter-group delay
//!   gradient, trendline slope, adaptive-threshold over-use detector, and
//!   the AIMD remote rate controller (produces REMB values);
//! * `loss` — the sender-side loss-based controller;
//! * [`GccSender`] — combines the two into the pacing rate;
//! * `pacer` — the fast path's token-bucket pacer with the paper's
//!   priority rules: audio first (avoid head-of-line blocking), then
//!   retransmissions, then video, with a pacing gain of 1.5 while an
//!   I frame is draining.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod loss;
mod pacer;

pub use delay::{DelayBasedEstimator, RateControlState};
pub use pacer::{PacedPacket, Pacer, PacerConfig, SendPriority};

use livenet_telemetry::{ids, MetricSink};
use livenet_types::{Bandwidth, SimTime};
use loss::LossBasedController;

/// How each rate decision moved the pacing rate (telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateDecisionStats {
    /// Decisions that raised the pacing rate.
    pub increases: u64,
    /// Decisions that left the pacing rate unchanged.
    pub holds: u64,
    /// Decisions that lowered the pacing rate.
    pub decreases: u64,
}

impl RateDecisionStats {
    /// Export these counters — the client-log analogue of the sender's
    /// rate-control trace — into a metric sink.  Values are cumulative
    /// totals, so record into a sink that has not seen this sender before.
    pub fn record_into(&self, sink: &mut impl MetricSink) {
        sink.add(ids::CC_RATE_INCREASES, self.increases);
        sink.add(ids::CC_RATE_HOLDS, self.holds);
        sink.add(ids::CC_RATE_DECREASES, self.decreases);
    }
}

/// Sender-side GCC: combines the receiver's delay-based estimate (REMB)
/// with the local loss-based estimate; the pacing rate is their minimum.
#[derive(Debug, Clone)]
pub struct GccSender {
    loss_based: LossBasedController,
    remb: Option<Bandwidth>,
    floor: Bandwidth,
    ceil: Bandwidth,
    /// Telemetry: how rate decisions (loss reports, REMBs) moved the rate.
    pub decisions: RateDecisionStats,
}

impl GccSender {
    /// New sender-side controller with an initial rate and rate bounds.
    pub fn new(initial: Bandwidth, floor: Bandwidth, ceil: Bandwidth) -> Self {
        GccSender {
            loss_based: LossBasedController::new(initial, floor, ceil),
            remb: None,
            floor,
            ceil,
            decisions: RateDecisionStats::default(),
        }
    }

    /// Feed a receiver report's loss fraction (sender-side control input).
    pub fn on_loss_report(&mut self, now: SimTime, loss_fraction: f64) {
        let before = self.pacing_rate();
        self.loss_based.on_loss_report(now, loss_fraction);
        self.note_decision(before);
    }

    /// Feed the receiver's delay-based estimate (REMB).
    pub fn on_remb(&mut self, bitrate: Bandwidth) {
        let before = self.pacing_rate();
        self.remb = Some(bitrate.max(self.floor).min(self.ceil));
        self.note_decision(before);
    }

    fn note_decision(&mut self, before: Bandwidth) {
        let after = self.pacing_rate();
        if after > before {
            self.decisions.increases += 1;
        } else if after < before {
            self.decisions.decreases += 1;
        } else {
            self.decisions.holds += 1;
        }
    }

    /// The pacing rate: min(loss-based, delay-based).
    pub fn pacing_rate(&self) -> Bandwidth {
        let lb = self.loss_based.rate();
        match self.remb {
            Some(r) => lb.min(r),
            None => lb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::SimDuration;

    #[test]
    fn pacing_rate_is_min_of_controls() {
        let mut s = GccSender::new(
            Bandwidth::from_kbps(1000),
            Bandwidth::from_kbps(100),
            Bandwidth::from_mbps(10),
        );
        assert_eq!(s.pacing_rate(), Bandwidth::from_kbps(1000));
        s.on_remb(Bandwidth::from_kbps(600));
        assert_eq!(s.pacing_rate(), Bandwidth::from_kbps(600));
        s.on_remb(Bandwidth::from_mbps(5));
        assert_eq!(s.pacing_rate(), Bandwidth::from_kbps(1000));
    }

    #[test]
    fn heavy_loss_reduces_rate() {
        let mut s = GccSender::new(
            Bandwidth::from_kbps(1000),
            Bandwidth::from_kbps(100),
            Bandwidth::from_mbps(10),
        );
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += SimDuration::from_secs(1);
            s.on_loss_report(now, 0.2);
        }
        assert!(s.pacing_rate() < Bandwidth::from_kbps(1000));
    }

    #[test]
    fn rate_decisions_are_counted_and_recordable() {
        let mut s = GccSender::new(
            Bandwidth::from_kbps(1000),
            Bandwidth::from_kbps(100),
            Bandwidth::from_mbps(10),
        );
        s.on_remb(Bandwidth::from_kbps(600)); // decrease
        s.on_remb(Bandwidth::from_kbps(600)); // hold
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += SimDuration::from_secs(1);
            s.on_loss_report(now, 0.2);
        }
        let d = s.decisions;
        assert_eq!(d.increases + d.holds + d.decreases, 7);
        assert!(d.decreases >= 1, "{d:?}");
        let mut hub = livenet_telemetry::TelemetryHub::new();
        d.record_into(&mut hub);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter("cc.rate_increases")
                + snap.counter("cc.rate_holds")
                + snap.counter("cc.rate_decreases"),
            7
        );
    }

    #[test]
    fn remb_clamped_to_bounds() {
        let mut s = GccSender::new(
            Bandwidth::from_kbps(500),
            Bandwidth::from_kbps(100),
            Bandwidth::from_kbps(2000),
        );
        s.on_remb(Bandwidth::from_bps(1));
        assert_eq!(s.pacing_rate(), Bandwidth::from_kbps(100));
    }
}
