//! Receiver-side delay-based bandwidth estimation (GCC).
//!
//! Pipeline, per Carlucci et al. ("Analysis and design of the google
//! congestion control for web real-time communication", MMSys 2016) and the
//! modern trendline variant used by WebRTC:
//!
//! 1. **Inter-group deltas** — packets are grouped into bursts (5 ms
//!    departure windows); for consecutive groups `i-1, i` the one-way delay
//!    gradient is `d(i) = (t_i − t_{i−1}) − (T_i − T_{i−1})` with `t` the
//!    arrival and `T` the departure time of the last packet of each group.
//! 2. **Trendline filter** — a linear regression over the last N smoothed
//!    accumulated-delay points estimates the queuing-delay slope.
//! 3. **Over-use detector** — compares the modified trend against an
//!    adaptive threshold γ(t); sustained excursions signal over-use or
//!    under-use.
//! 4. **AIMD remote rate controller** — a 3-state machine (Increase / Hold /
//!    Decrease) produces the receiver-estimated max bitrate sent back to the
//!    sender as REMB.

use livenet_types::{Bandwidth, SimDuration, SimTime};
use std::collections::VecDeque;

/// Departure-time window that groups packets into bursts.
const BURST_WINDOW: SimDuration = SimDuration::from_millis(5);
/// Number of delay samples the trendline regresses over.
const TRENDLINE_WINDOW: usize = 20;
/// Smoothing coefficient for accumulated delay.
const SMOOTHING: f64 = 0.9;
/// Gain applied to the raw slope before threshold comparison.
const TREND_GAIN: f64 = 4.0;
/// Threshold adaptation gains (up when |m| > γ, down otherwise).
const K_UP: f64 = 0.0087;
const K_DOWN: f64 = 0.039;
/// Over-use must persist this long before signalling.
const OVERUSE_TIME: SimDuration = SimDuration::from_millis(10);
/// Multiplicative decrease factor.
const BETA: f64 = 0.85;

/// One packet-group boundary record.
#[derive(Debug, Clone, Copy)]
struct Group {
    first_departure: SimTime,
    last_departure: SimTime,
    last_arrival: SimTime,
    size_bytes: u64,
}

/// Bandwidth-usage signal from the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BandwidthUsage {
    /// Queues draining: delay slope significantly negative.
    Underusing,
    /// Stable.
    Normal,
    /// Queues building: delay slope significantly positive.
    Overusing,
}

/// Trendline slope estimator over smoothed accumulated delays.
#[derive(Debug, Clone)]
pub(crate) struct TrendlineEstimator {
    history: VecDeque<(f64, f64)>, // (arrival ms since first, smoothed accum delay ms)
    accumulated_delay_ms: f64,
    smoothed_delay_ms: f64,
    first_arrival: Option<SimTime>,
}

impl Default for TrendlineEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl TrendlineEstimator {
    /// Empty estimator.
    pub(crate) fn new() -> Self {
        TrendlineEstimator {
            history: VecDeque::with_capacity(TRENDLINE_WINDOW + 1),
            accumulated_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            first_arrival: None,
        }
    }

    /// Add one inter-group delay gradient sample; returns the current slope
    /// (ms of queuing delay per ms of wall time).
    pub(crate) fn update(&mut self, arrival: SimTime, delay_gradient_ms: f64) -> f64 {
        let first = *self.first_arrival.get_or_insert(arrival);
        let x = arrival.saturating_since(first).as_millis_f64();
        self.accumulated_delay_ms += delay_gradient_ms;
        self.smoothed_delay_ms =
            SMOOTHING * self.smoothed_delay_ms + (1.0 - SMOOTHING) * self.accumulated_delay_ms;
        self.history.push_back((x, self.smoothed_delay_ms));
        if self.history.len() > TRENDLINE_WINDOW {
            self.history.pop_front();
        }
        self.slope()
    }

    /// Least-squares slope of the stored points (0 until enough samples).
    pub(crate) fn slope(&self) -> f64 {
        let n = self.history.len();
        if n < 2 {
            return 0.0;
        }
        let sum_x: f64 = self.history.iter().map(|p| p.0).sum();
        let sum_y: f64 = self.history.iter().map(|p| p.1).sum();
        let mean_x = sum_x / n as f64;
        let mean_y = sum_y / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for &(x, y) in &self.history {
            num += (x - mean_x) * (y - mean_y);
            den += (x - mean_x) * (x - mean_x);
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// Adaptive-threshold over-use detector.
#[derive(Debug, Clone)]
pub(crate) struct OveruseDetector {
    threshold: f64,
    last_update: Option<SimTime>,
    overusing_since: Option<SimTime>,
    state: BandwidthUsage,
}

impl Default for OveruseDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl OveruseDetector {
    /// Detector with the WebRTC initial threshold (12.5 ms).
    pub(crate) fn new() -> Self {
        OveruseDetector {
            threshold: 12.5,
            last_update: None,
            overusing_since: None,
            state: BandwidthUsage::Normal,
        }
    }

    /// Feed the modified trend `m = slope * min(samples, 60) * gain` and get
    /// the usage signal.
    pub(crate) fn detect(
        &mut self,
        now: SimTime,
        trend: f64,
        num_samples: usize,
    ) -> BandwidthUsage {
        let m = trend * (num_samples.min(60) as f64) * TREND_GAIN * 10.0;
        // Threshold adaptation (clamped so it cannot run away).
        if let Some(last) = self.last_update {
            let dt_ms = now.saturating_since(last).as_millis_f64().min(100.0);
            let k = if m.abs() < self.threshold {
                K_DOWN
            } else {
                K_UP
            };
            self.threshold += dt_ms * k * (m.abs() - self.threshold);
            self.threshold = self.threshold.clamp(6.0, 600.0);
        }
        self.last_update = Some(now);

        if m > self.threshold {
            let since = *self.overusing_since.get_or_insert(now);
            if now.saturating_since(since) >= OVERUSE_TIME {
                self.state = BandwidthUsage::Overusing;
            }
        } else {
            self.overusing_since = None;
            self.state = if m < -self.threshold {
                BandwidthUsage::Underusing
            } else {
                BandwidthUsage::Normal
            };
        }
        self.state
    }
}

/// AIMD remote-rate-controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateControlState {
    /// Probing upward.
    Increase,
    /// Holding after a decrease or under-use.
    Hold,
    /// Backing off.
    Decrease,
}

/// The complete receiver-side delay-based estimator.
#[derive(Debug, Clone)]
pub struct DelayBasedEstimator {
    trendline: TrendlineEstimator,
    detector: OveruseDetector,
    state: RateControlState,
    estimate: Bandwidth,
    floor: Bandwidth,
    ceil: Bandwidth,
    current_group: Option<Group>,
    prev_group: Option<Group>,
    samples: usize,
    // Incoming-rate measurement over a sliding 500 ms window.
    recv_window: VecDeque<(SimTime, u64)>,
    last_rate_update: Option<SimTime>,
}

impl DelayBasedEstimator {
    /// New estimator starting from `initial`.
    pub fn new(initial: Bandwidth, floor: Bandwidth, ceil: Bandwidth) -> Self {
        DelayBasedEstimator {
            trendline: TrendlineEstimator::new(),
            detector: OveruseDetector::new(),
            state: RateControlState::Increase,
            estimate: initial,
            floor,
            ceil,
            current_group: None,
            prev_group: None,
            samples: 0,
            recv_window: VecDeque::new(),
            last_rate_update: None,
        }
    }

    /// Current receiver-side estimate (the REMB value).
    pub fn estimate(&self) -> Bandwidth {
        self.estimate
    }

    /// Current rate-control state.
    pub fn state(&self) -> RateControlState {
        self.state
    }

    /// Measured incoming rate over the last 500 ms.
    pub(crate) fn incoming_rate(&self, now: SimTime) -> Bandwidth {
        let horizon = now - SimDuration::from_millis(500);
        let bytes: u64 = self
            .recv_window
            .iter()
            .filter(|(t, _)| *t >= horizon)
            .map(|(_, b)| *b)
            .sum();
        Bandwidth::from_bps(bytes * 8 * 2) // bytes per 0.5s → bits per s
    }

    /// Feed one received packet: `departure` is the sender timestamp
    /// (reconstructed from the RTP timestamp / abs-send-time), `arrival` the
    /// local receive time.
    pub fn on_packet(&mut self, departure: SimTime, arrival: SimTime, size: usize) {
        self.recv_window.push_back((arrival, size as u64));
        while let Some(&(t, _)) = self.recv_window.front() {
            if arrival.saturating_since(t) > SimDuration::from_millis(1500) {
                self.recv_window.pop_front();
            } else {
                break;
            }
        }

        match &mut self.current_group {
            Some(g) if departure.saturating_since(g.first_departure) <= BURST_WINDOW => {
                g.last_departure = g.last_departure.max(departure);
                g.last_arrival = g.last_arrival.max(arrival);
                g.size_bytes += size as u64;
            }
            _ => {
                // Close the current group and compute the gradient vs prev.
                if let (Some(prev), Some(cur)) = (self.prev_group, self.current_group) {
                    let arrival_delta = cur
                        .last_arrival
                        .saturating_since(prev.last_arrival)
                        .as_millis_f64();
                    let departure_delta = cur
                        .last_departure
                        .saturating_since(prev.last_departure)
                        .as_millis_f64();
                    let gradient = arrival_delta - departure_delta;
                    self.samples += 1;
                    let slope = self.trendline.update(cur.last_arrival, gradient);
                    let usage = self.detector.detect(cur.last_arrival, slope, self.samples);
                    self.update_rate(cur.last_arrival, usage);
                }
                self.prev_group = self.current_group;
                self.current_group = Some(Group {
                    first_departure: departure,
                    last_departure: departure,
                    last_arrival: arrival,
                    size_bytes: size as u64,
                });
            }
        }
    }

    fn update_rate(&mut self, now: SimTime, usage: BandwidthUsage) {
        // State transitions per the GCC FSM.
        self.state = match (self.state, usage) {
            (_, BandwidthUsage::Overusing) => RateControlState::Decrease,
            (RateControlState::Decrease, BandwidthUsage::Normal) => RateControlState::Hold,
            (RateControlState::Hold, BandwidthUsage::Normal) => RateControlState::Increase,
            // Hold while under-using: queues are draining.
            (_, BandwidthUsage::Underusing) => RateControlState::Hold,
            (s, _) => s,
        };

        let dt = self
            .last_rate_update
            .map(|t| now.saturating_since(t))
            .unwrap_or(SimDuration::from_millis(100))
            .min(SimDuration::from_secs(1));
        self.last_rate_update = Some(now);

        match self.state {
            RateControlState::Increase => {
                // Multiplicative increase: up to 8%/s scaled by dt.
                let factor = 1.0 + 0.08 * dt.as_secs_f64().min(1.0);
                self.estimate = self.estimate.mul_f64(factor);
            }
            RateControlState::Decrease => {
                let incoming = self.incoming_rate(now);
                let base = if incoming > Bandwidth::ZERO {
                    incoming
                } else {
                    self.estimate
                };
                self.estimate = base.mul_f64(BETA);
            }
            RateControlState::Hold => {}
        }
        self.estimate = self.estimate.max(self.floor).min(self.ceil);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> DelayBasedEstimator {
        DelayBasedEstimator::new(
            Bandwidth::from_kbps(1000),
            Bandwidth::from_kbps(50),
            Bandwidth::from_mbps(20),
        )
    }

    #[test]
    fn trendline_detects_positive_slope() {
        let mut t = TrendlineEstimator::new();
        let mut slope = 0.0;
        for i in 0..30 {
            // Each group arrives 1 ms later than it departed relative to the
            // previous: steadily building queue.
            slope = t.update(SimTime::from_millis(10 * i), 1.0);
        }
        assert!(slope > 0.0, "slope={slope}");
    }

    #[test]
    fn trendline_flat_for_stable_delay() {
        let mut t = TrendlineEstimator::new();
        let mut slope = 1.0;
        for i in 0..30 {
            slope = t.update(SimTime::from_millis(10 * i), 0.0);
        }
        assert!(slope.abs() < 1e-9, "slope={slope}");
    }

    #[test]
    fn trendline_negative_for_draining_queue() {
        let mut t = TrendlineEstimator::new();
        // First build up...
        for i in 0..10 {
            t.update(SimTime::from_millis(10 * i), 2.0);
        }
        // ...then drain.
        let mut slope = 0.0;
        for i in 10..40 {
            slope = t.update(SimTime::from_millis(10 * i), -2.0);
        }
        assert!(slope < 0.0, "slope={slope}");
    }

    #[test]
    fn detector_flags_sustained_overuse() {
        let mut d = OveruseDetector::new();
        let mut state = BandwidthUsage::Normal;
        for i in 0..50 {
            state = d.detect(SimTime::from_millis(5 * i), 2.0, 60);
        }
        assert_eq!(state, BandwidthUsage::Overusing);
    }

    #[test]
    fn detector_stays_normal_for_small_trend() {
        let mut d = OveruseDetector::new();
        let mut state = BandwidthUsage::Overusing;
        for i in 0..50 {
            state = d.detect(SimTime::from_millis(5 * i), 0.001, 60);
        }
        assert_eq!(state, BandwidthUsage::Normal);
    }

    #[test]
    fn stable_network_grows_estimate() {
        let mut e = est();
        // Packets every 10 ms, arrival = departure + 20 ms fixed: no queue.
        for i in 0..200 {
            let dep = SimTime::from_millis(10 * i);
            let arr = dep + SimDuration::from_millis(20);
            e.on_packet(dep, arr, 1200);
        }
        assert!(
            e.estimate() > Bandwidth::from_kbps(1000),
            "estimate={}",
            e.estimate()
        );
    }

    #[test]
    fn congestion_shrinks_estimate() {
        let mut e = est();
        // Queue builds: each packet's one-way delay grows by 2 ms.
        for i in 0..200 {
            let dep = SimTime::from_millis(10 * i);
            let arr = dep + SimDuration::from_millis(20 + 2 * i);
            e.on_packet(dep, arr, 1200);
        }
        assert!(
            e.estimate() < Bandwidth::from_kbps(1000),
            "estimate={}",
            e.estimate()
        );
        assert_eq!(e.state(), RateControlState::Decrease);
    }

    #[test]
    fn estimate_respects_bounds() {
        let mut e = DelayBasedEstimator::new(
            Bandwidth::from_kbps(100),
            Bandwidth::from_kbps(90),
            Bandwidth::from_kbps(110),
        );
        for i in 0..500 {
            let dep = SimTime::from_millis(10 * i);
            e.on_packet(dep, dep + SimDuration::from_millis(20), 1200);
        }
        assert!(e.estimate() <= Bandwidth::from_kbps(110));
        for i in 500..1000 {
            let dep = SimTime::from_millis(10 * i);
            e.on_packet(
                dep,
                dep + SimDuration::from_millis(20 + 3 * (i - 500)),
                1200,
            );
        }
        assert!(e.estimate() >= Bandwidth::from_kbps(90));
    }

    #[test]
    fn incoming_rate_measured() {
        let mut e = est();
        // 1200 bytes every 10 ms = 960 kbps.
        let mut now = SimTime::ZERO;
        for i in 0..100 {
            now = SimTime::from_millis(10 * i);
            e.on_packet(now, now + SimDuration::from_millis(5), 1200);
        }
        let rate = e.incoming_rate(now + SimDuration::from_millis(5));
        let kbps = rate.as_kbps() as f64;
        assert!((kbps - 960.0).abs() < 100.0, "kbps={kbps}");
    }
}
