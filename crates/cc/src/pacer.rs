//! The fast path's priority-aware pacer (paper §5.2).
//!
//! The pacer is the fast path's executor of the congestion-control decision
//! made on the slow path: it spaces packet transmissions at the pacing rate
//! GCC computed. Priorities:
//!
//! 1. **Audio** packets jump the queue entirely, avoiding head-of-line
//!    blocking behind large video frames.
//! 2. **Retransmissions** (slow-path recoveries) go before fresh video —
//!    "the retransmitted packets have a higher sending priority than the
//!    packets in the send queue in the fast path" (§5.1 footnote 8).
//! 3. **Video** is paced at the nominal rate, except that while an I frame
//!    is draining the pacer applies a pacing *gain* of 1.5 to empty the
//!    queue quickly (I frames are much larger than P/B frames).

use livenet_types::{Bandwidth, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Transmission priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SendPriority {
    /// Audio: always first.
    Audio,
    /// Retransmitted packets: before fresh video.
    Retransmission,
    /// Fresh video packets.
    Video,
}

/// A packet waiting in the pacer, carrying an opaque payload `T`.
#[derive(Debug, Clone)]
pub struct PacedPacket<T> {
    /// Priority class.
    pub priority: SendPriority,
    /// Wire size in bytes (drives pacing).
    pub bytes: usize,
    /// True when this packet belongs to an I frame (triggers pacing gain).
    pub is_iframe: bool,
    /// The caller's payload (e.g. an encoded RTP packet + destination set).
    pub payload: T,
}

/// Maximum burst the token bucket accumulates, as a time at rate.
const BURST_WINDOW: SimDuration = SimDuration::from_millis(40);

/// Pacer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacerConfig {
    /// Pacing gain applied while I-frame packets are draining (paper: 1.5).
    pub iframe_gain: f64,
    /// Queue length (packets) after which [`Pacer::is_backlogged`] trips;
    /// the consumer node uses this signal for proactive frame dropping.
    pub backlog_threshold: usize,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            iframe_gain: 1.5,
            backlog_threshold: 64,
        }
    }
}

/// Token-bucket pacer with three priority FIFOs.
#[derive(Debug, Clone)]
pub struct Pacer<T> {
    config: PacerConfig,
    rate: Bandwidth,
    budget_bytes: f64,
    last_refill: Option<SimTime>,
    audio: VecDeque<PacedPacket<T>>,
    rtx: VecDeque<PacedPacket<T>>,
    video: VecDeque<PacedPacket<T>>,
    /// Total packets ever sent (telemetry).
    pub sent: u64,
}

impl<T> Pacer<T> {
    /// New pacer at an initial rate.
    pub fn new(config: PacerConfig, rate: Bandwidth) -> Self {
        Pacer {
            config,
            rate,
            budget_bytes: 0.0,
            last_refill: None,
            audio: VecDeque::new(),
            rtx: VecDeque::new(),
            video: VecDeque::new(),
            sent: 0,
        }
    }

    /// Update the pacing rate (GCC output from the slow path).
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.rate = rate;
    }

    /// Current pacing rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Queue a packet.
    pub fn enqueue(&mut self, packet: PacedPacket<T>) {
        match packet.priority {
            SendPriority::Audio => self.audio.push_back(packet),
            SendPriority::Retransmission => self.rtx.push_back(packet),
            SendPriority::Video => self.video.push_back(packet),
        }
    }

    /// Packets currently queued.
    pub fn queue_len(&self) -> usize {
        self.audio.len() + self.rtx.len() + self.video.len()
    }

    /// Bytes currently queued.
    pub fn queue_bytes(&self) -> usize {
        self.audio.iter().map(|p| p.bytes).sum::<usize>()
            + self.rtx.iter().map(|p| p.bytes).sum::<usize>()
            + self.video.iter().map(|p| p.bytes).sum::<usize>()
    }

    /// True when the queue exceeds the backlog threshold — the signal the
    /// consumer's frame dropper watches.
    pub fn is_backlogged(&self) -> bool {
        self.queue_len() > self.config.backlog_threshold
    }

    /// Drop queued *video* packets for which `predicate` returns true
    /// (frame dropping never touches audio or retransmissions). Returns the
    /// number of packets removed.
    pub fn drop_video_where(&mut self, mut predicate: impl FnMut(&T) -> bool) -> usize {
        let before = self.video.len();
        self.video.retain(|p| !predicate(&p.payload));
        before - self.video.len()
    }

    fn head_gain(&self) -> f64 {
        // Audio & retransmissions also benefit from the boost if an I frame
        // is next in the video queue — the gain exists to drain the queue.
        let iframe_at_head = self
            .video
            .front()
            .map(|p| p.is_iframe)
            .unwrap_or(false);
        if iframe_at_head {
            self.config.iframe_gain
        } else {
            1.0
        }
    }

    fn refill(&mut self, now: SimTime) {
        let gain = self.head_gain();
        if let Some(last) = self.last_refill {
            let dt = now.saturating_since(last);
            let bytes = self.rate.bytes_in(dt) as f64 * gain;
            let cap = self.rate.bytes_in(BURST_WINDOW) as f64 * gain;
            self.budget_bytes = (self.budget_bytes + bytes).min(cap.max(1500.0));
        } else {
            // First poll: allow one MTU immediately.
            self.budget_bytes = self.budget_bytes.max(1500.0);
        }
        self.last_refill = Some(now);
    }

    fn pop_next(&mut self) -> Option<PacedPacket<T>> {
        self.audio
            .pop_front()
            .or_else(|| self.rtx.pop_front())
            .or_else(|| self.video.pop_front())
    }

    /// Release every packet sendable at `now` under the rate budget.
    pub fn poll(&mut self, now: SimTime) -> Vec<PacedPacket<T>> {
        self.refill(now);
        let mut out = Vec::new();
        while self.budget_bytes > 0.0 {
            let Some(p) = self.pop_next() else { break };
            self.budget_bytes -= p.bytes as f64;
            self.sent += 1;
            out.push(p);
        }
        out
    }

    /// When the next queued packet becomes sendable; `None` when idle.
    pub fn next_send_time(&self, now: SimTime) -> Option<SimTime> {
        let head_bytes = self
            .audio
            .front()
            .or_else(|| self.rtx.front())
            .or_else(|| self.video.front())
            .map(|p| p.bytes)?;
        if self.budget_bytes > 0.0 {
            return Some(now);
        }
        let deficit = head_bytes as f64 - self.budget_bytes;
        let effective = self.rate.mul_f64(self.head_gain());
        if effective == Bandwidth::ZERO {
            return Some(now + SimDuration::from_secs(3600));
        }
        let secs = deficit * 8.0 / effective.as_bps() as f64;
        Some(now + SimDuration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(priority: SendPriority, bytes: usize, is_iframe: bool, tag: u32) -> PacedPacket<u32> {
        PacedPacket {
            priority,
            bytes,
            is_iframe,
            payload: tag,
        }
    }

    fn pacer(kbps: u64) -> Pacer<u32> {
        Pacer::new(PacerConfig::default(), Bandwidth::from_kbps(kbps))
    }

    #[test]
    fn audio_jumps_ahead_of_video() {
        let mut p = pacer(10_000);
        p.enqueue(pkt(SendPriority::Video, 1200, false, 1));
        p.enqueue(pkt(SendPriority::Video, 1200, false, 2));
        p.enqueue(pkt(SendPriority::Audio, 100, false, 3));
        let sent = p.poll(SimTime::ZERO);
        assert_eq!(sent[0].payload, 3, "audio first");
    }

    #[test]
    fn retransmissions_before_fresh_video() {
        let mut p = pacer(10_000);
        p.enqueue(pkt(SendPriority::Video, 1200, false, 1));
        p.enqueue(pkt(SendPriority::Retransmission, 1200, false, 2));
        let sent = p.poll(SimTime::ZERO);
        assert_eq!(sent[0].payload, 2);
    }

    #[test]
    fn pacing_spreads_packets_over_time() {
        // 800 kbps = 100 kB/s. 10 packets of 1000 B = 10 kB ≈ 100 ms.
        let mut p = pacer(800);
        for i in 0..10 {
            p.enqueue(pkt(SendPriority::Video, 1000, false, i));
        }
        let first = p.poll(SimTime::ZERO);
        assert!(first.len() < 10, "must not blast the whole queue at once");
        // Polling every 10 ms, the rest drains within ~200 ms.
        let mut total = first.len();
        for ms in (10..=300).step_by(10) {
            total += p.poll(SimTime::from_millis(ms)).len();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn iframe_gain_drains_faster() {
        let drain_time = |iframe: bool| {
            let mut p = pacer(800);
            for i in 0..20 {
                p.enqueue(pkt(SendPriority::Video, 1000, iframe, i));
            }
            let mut now = SimTime::ZERO;
            let mut sent = 0;
            while sent < 20 {
                sent += p.poll(now).len();
                now += SimDuration::from_millis(5);
            }
            now
        };
        let plain = drain_time(false);
        let boosted = drain_time(true);
        assert!(
            boosted < plain,
            "boosted={boosted} plain={plain} — 1.5× gain should drain faster"
        );
    }

    #[test]
    fn next_send_time_none_when_idle() {
        let p = pacer(800);
        assert!(p.next_send_time(SimTime::ZERO).is_none());
    }

    #[test]
    fn next_send_time_in_future_when_budget_spent() {
        let mut p = pacer(800);
        for i in 0..10 {
            p.enqueue(pkt(SendPriority::Video, 1000, false, i));
        }
        p.poll(SimTime::ZERO);
        let t = p.next_send_time(SimTime::ZERO).unwrap();
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn backlog_signal_trips_and_clears() {
        let mut p = Pacer::new(
            PacerConfig {
                backlog_threshold: 5,
                ..Default::default()
            },
            Bandwidth::from_mbps(100),
        );
        for i in 0..10 {
            p.enqueue(pkt(SendPriority::Video, 100, false, i));
        }
        assert!(p.is_backlogged());
        p.poll(SimTime::from_millis(100));
        assert!(!p.is_backlogged());
    }

    #[test]
    fn drop_video_where_spares_audio_and_rtx() {
        let mut p = pacer(800);
        p.enqueue(pkt(SendPriority::Audio, 100, false, 1));
        p.enqueue(pkt(SendPriority::Retransmission, 100, false, 1));
        p.enqueue(pkt(SendPriority::Video, 100, false, 1));
        p.enqueue(pkt(SendPriority::Video, 100, false, 2));
        let dropped = p.drop_video_where(|&tag| tag == 1);
        assert_eq!(dropped, 1);
        assert_eq!(p.queue_len(), 3);
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut p = pacer(100);
        for i in 0..50 {
            p.enqueue(pkt(SendPriority::Video, 1000, false, i));
        }
        p.poll(SimTime::ZERO);
        p.set_rate(Bandwidth::from_mbps(100));
        let sent = p.poll(SimTime::from_millis(50));
        assert!(sent.len() > 20, "high rate should flush: {}", sent.len());
    }
}
