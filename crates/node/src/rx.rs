//! Slow-path receive state: loss detection and NACK bookkeeping (§5.1).
//!
//! "For loss recovery, each node examines holes in the sequence numbers of
//! the received RTP packets every 50 ms and sends the sequence numbers of
//! the lost packets to the upstream node in RTCP NACK messages."
//!
//! [`RxState`] tracks, per (upstream, stream): the highest sequence number,
//! the set of missing sequence numbers with per-seq NACK retry state, the
//! cumulative expected/received counters feeding receiver reports, and an
//! interarrival jitter estimate.

use livenet_types::{SeqNo, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-missing-sequence retry state.
#[derive(Debug, Clone, Copy)]
struct MissingEntry {
    detected_at: SimTime,
    nacks_sent: u32,
    last_nack: Option<SimTime>,
}

/// Outcome of feeding one packet to the receive state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// A never-before-seen, in-order packet.
    Fresh,
    /// A forward jump past [`RESET_JUMP`]: the stream restarted (encoder
    /// restart, rejoin after failover). All outstanding holes were
    /// abandoned; callers must drop any per-seq state keyed to the old
    /// sequence space (e.g. parked downstream RTX waiters).
    Reset,
    /// A packet that filled a previously-detected hole (recovery).
    Recovered {
        /// Time from hole detection to recovery.
        after: SimDuration,
    },
    /// A duplicate (already received or already given up on).
    Duplicate,
}

/// Forward jumps larger than this are treated as a stream reset (encoder
/// restart, rejoin after failover) rather than as loss: inserting one hole
/// per skipped sequence number would flood `missing` with thousands of
/// entries and NACK-storm the upstream for packets that never existed.
const RESET_JUMP: i32 = 3_000;

/// Upper bound on tracked holes. When exceeded, the oldest holes (in
/// sequence order) are abandoned so state stays bounded under pathological
/// loss.
const MAX_MISSING: usize = 4_096;

/// Slow-path receive state for one (upstream, stream) pair.
#[derive(Debug)]
pub struct RxState {
    highest: Option<SeqNo>,
    missing: BTreeMap<u16, MissingEntry>,
    /// Cumulative packets received (non-duplicate).
    pub received: u64,
    /// Cumulative packets expected (sequence span covered).
    pub expected: u64,
    /// Packets abandoned after exhausting NACK retries.
    pub abandoned: u64,
    /// Packets recovered via retransmission.
    pub recovered: u64,
    // RR window snapshot (values at the last report).
    rr_received: u64,
    rr_expected: u64,
    // Interarrival jitter (RFC 3550-style EWMA), in microseconds.
    jitter_us: f64,
    last_transit: Option<SimDuration>,
}

impl Default for RxState {
    fn default() -> Self {
        Self::new()
    }
}

impl RxState {
    /// Fresh state.
    pub fn new() -> Self {
        RxState {
            highest: None,
            missing: BTreeMap::new(),
            received: 0,
            expected: 0,
            abandoned: 0,
            recovered: 0,
            rr_received: 0,
            rr_expected: 0,
            jitter_us: 0.0,
            last_transit: None,
        }
    }

    /// Number of currently-outstanding holes.
    pub fn outstanding_holes(&self) -> usize {
        self.missing.len()
    }

    /// Feed one received packet. `transit` is arrival − sent_at (per-hop
    /// one-way delay sample feeding the jitter estimate).
    pub fn on_packet(&mut self, now: SimTime, seq: SeqNo, transit: SimDuration) -> RxOutcome {
        // Jitter update per RFC 3550 §6.4.1 (J += (|D| − J) / 16).
        if let Some(prev) = self.last_transit {
            let d = transit.as_micros() as f64 - prev.as_micros() as f64;
            self.jitter_us += (d.abs() - self.jitter_us) / 16.0;
        }
        self.last_transit = Some(transit);

        match self.highest {
            None => {
                self.highest = Some(seq);
                self.received += 1;
                self.expected += 1;
                RxOutcome::Fresh
            }
            Some(h) if seq.newer_than(h) => {
                let gap = seq.distance(h);
                if gap > RESET_JUMP {
                    // Stream reset: abandon outstanding holes instead of
                    // manufacturing `gap − 1` new ones.
                    self.abandoned += self.missing.len() as u64;
                    self.missing.clear();
                    self.highest = Some(seq);
                    self.received += 1;
                    self.expected += 1;
                    return RxOutcome::Reset;
                }
                // Mark intermediate holes, keeping the map bounded.
                let mut s = h.next();
                for _ in 1..gap {
                    if self.missing.len() >= MAX_MISSING
                        && self.missing.pop_first().is_some() {
                            self.abandoned += 1;
                        }
                    self.missing.insert(
                        s.0,
                        MissingEntry {
                            detected_at: now,
                            nacks_sent: 0,
                            last_nack: None,
                        },
                    );
                    s = s.next();
                }
                self.highest = Some(seq);
                self.received += 1;
                self.expected += gap as u64;
                RxOutcome::Fresh
            }
            Some(_) => {
                // At or behind highest: either a recovery or a duplicate.
                if let Some(entry) = self.missing.remove(&seq.0) {
                    self.received += 1;
                    self.recovered += 1;
                    RxOutcome::Recovered {
                        after: now.saturating_since(entry.detected_at),
                    }
                } else {
                    RxOutcome::Duplicate
                }
            }
        }
    }

    /// The 50 ms loss scan: returns the sequence numbers to NACK now.
    ///
    /// A hole is NACKed when it has never been NACKed, or when its last NACK
    /// is older than `retry_interval`. After `retry_limit` NACKs the hole is
    /// abandoned (the depacketizer's GC will skip the frame).
    pub fn scan(
        &mut self,
        now: SimTime,
        retry_interval: SimDuration,
        retry_limit: u32,
    ) -> Vec<SeqNo> {
        let mut to_nack = Vec::new();
        let mut abandoned = Vec::new();
        for (&seq, entry) in self.missing.iter_mut() {
            if entry.nacks_sent >= retry_limit {
                abandoned.push(seq);
                continue;
            }
            let due = match entry.last_nack {
                None => true,
                Some(t) => now.saturating_since(t) >= retry_interval,
            };
            if due {
                entry.nacks_sent += 1;
                entry.last_nack = Some(now);
                to_nack.push(SeqNo(seq));
            }
        }
        for seq in abandoned {
            self.missing.remove(&seq);
            self.abandoned += 1;
        }
        to_nack
    }

    /// Of the given sequence numbers, those still tracked as holes whose
    /// NACK count is below `retry_limit`.
    ///
    /// The multi-supplier recovery path uses this to decide which of an
    /// upstream's [`RtxMiss`]-reported sequences are still worth chasing
    /// on an alternate supplier: recovered/abandoned holes are gone, and
    /// the retry-limit filter stops a chain of cache misses from bouncing
    /// NACKs between suppliers forever.
    ///
    /// [`RtxMiss`]: livenet_packet::RtxMiss
    pub fn still_missing(&self, seqs: &[SeqNo], retry_limit: u32) -> Vec<SeqNo> {
        seqs.iter()
            .copied()
            .filter(|s| {
                self.missing
                    .get(&s.0)
                    .is_some_and(|e| e.nacks_sent < retry_limit)
            })
            .collect()
    }

    /// Record an out-of-band NACK for a hole (sent outside [`Self::scan`],
    /// e.g. re-issued to an alternate supplier). Counts against the retry
    /// limit and restarts the retry-interval clock so the next scan does
    /// not immediately duplicate it.
    pub fn note_nack(&mut self, now: SimTime, seq: SeqNo) {
        if let Some(entry) = self.missing.get_mut(&seq.0) {
            entry.nacks_sent += 1;
            entry.last_nack = Some(now);
        }
    }

    /// Produce receiver-report statistics for the window since the last
    /// call: `(loss_fraction, highest_seq, jitter_us)`.
    ///
    /// Returns `None` before the first packet arrives: there is no highest
    /// sequence number to report yet, and sending a report claiming
    /// `highest_seq = 0` would tell the upstream we are behind by however
    /// far its own sequence counter has advanced.
    pub fn rr_stats(&mut self) -> Option<(f64, SeqNo, u32)> {
        let highest = self.highest?;
        let expected = self.expected - self.rr_expected;
        let received = self.received - self.rr_received;
        self.rr_expected = self.expected;
        self.rr_received = self.received;
        let loss = if expected == 0 {
            0.0
        } else {
            ((expected.saturating_sub(received)) as f64 / expected as f64).clamp(0.0, 1.0)
        };
        Some((loss, highest, self.jitter_us as u32))
    }

    /// Cumulative residual loss rate (abandoned / expected).
    pub fn residual_loss(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.abandoned as f64 / self.expected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimDuration = SimDuration::from_millis(10);

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn in_order_packets_are_fresh() {
        let mut rx = RxState::new();
        for i in 0..10u16 {
            assert_eq!(rx.on_packet(at(i as u64), SeqNo(i), T), RxOutcome::Fresh);
        }
        assert_eq!(rx.received, 10);
        assert_eq!(rx.expected, 10);
        assert_eq!(rx.outstanding_holes(), 0);
    }

    #[test]
    fn gap_creates_holes_and_nacks() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(10), SeqNo(4), T); // holes 1,2,3
        assert_eq!(rx.outstanding_holes(), 3);
        let nacks = rx.scan(at(50), SimDuration::from_millis(50), 5);
        assert_eq!(nacks, vec![SeqNo(1), SeqNo(2), SeqNo(3)]);
        // Immediately rescanning does not re-NACK (retry interval).
        assert!(rx.scan(at(60), SimDuration::from_millis(50), 5).is_empty());
        // After the interval it does.
        let again = rx.scan(at(100), SimDuration::from_millis(50), 5);
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn recovery_clears_hole_and_reports_latency() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(10), SeqNo(2), T);
        match rx.on_packet(at(40), SeqNo(1), T) {
            RxOutcome::Recovered { after } => {
                assert_eq!(after, SimDuration::from_millis(30));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rx.outstanding_holes(), 0);
        assert_eq!(rx.recovered, 1);
    }

    #[test]
    fn duplicates_are_flagged() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        assert_eq!(rx.on_packet(at(1), SeqNo(0), T), RxOutcome::Duplicate);
    }

    #[test]
    fn abandon_after_retry_limit() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(1), SeqNo(2), T);
        for i in 0..3 {
            let n = rx.scan(at(100 * (i + 1)), SimDuration::from_millis(50), 3);
            assert_eq!(n.len(), 1, "retry {i}");
        }
        // 4th scan: retries exhausted → abandoned.
        let n = rx.scan(at(500), SimDuration::from_millis(50), 3);
        assert!(n.is_empty());
        assert_eq!(rx.abandoned, 1);
        assert_eq!(rx.outstanding_holes(), 0);
        assert!(rx.residual_loss() > 0.0);
        // Late arrival of the abandoned packet is a duplicate.
        assert_eq!(rx.on_packet(at(600), SeqNo(1), T), RxOutcome::Duplicate);
    }

    #[test]
    fn still_missing_filters_recovered_and_exhausted() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(10), SeqNo(4), T); // holes 1,2,3
        let seqs = [SeqNo(1), SeqNo(2), SeqNo(3), SeqNo(9)];
        // Seq 9 was never a hole.
        assert_eq!(
            rx.still_missing(&seqs, 5),
            vec![SeqNo(1), SeqNo(2), SeqNo(3)]
        );
        // Recover 2: it drops out.
        rx.on_packet(at(20), SeqNo(2), T);
        assert_eq!(rx.still_missing(&seqs, 5), vec![SeqNo(1), SeqNo(3)]);
        // Out-of-band NACKs count against the retry limit.
        rx.note_nack(at(30), SeqNo(1));
        rx.note_nack(at(40), SeqNo(1));
        assert_eq!(rx.still_missing(&seqs, 2), vec![SeqNo(3)]);
        // And they restart the retry-interval clock for the next scan.
        let due = rx.scan(at(60), SimDuration::from_millis(50), 5);
        assert_eq!(due, vec![SeqNo(3)], "seq 1 re-NACKed too early");
    }

    #[test]
    fn rr_stats_window_resets() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(1), SeqNo(3), T); // expect 4, got 2
        let (loss, highest, _) = rx.rr_stats().expect("stats");
        assert!((loss - 0.5).abs() < 1e-9);
        assert_eq!(highest, SeqNo(3));
        // New window: recover one hole → negative loss clamps to 0.
        rx.on_packet(at(2), SeqNo(1), T);
        let (loss2, _, _) = rx.rr_stats().expect("stats");
        assert_eq!(loss2, 0.0);
    }

    #[test]
    fn rr_stats_none_before_first_packet() {
        let mut rx = RxState::new();
        assert_eq!(rx.rr_stats(), None);
        rx.on_packet(at(0), SeqNo(500), T);
        let (loss, highest, _) = rx.rr_stats().expect("stats after first packet");
        assert_eq!(loss, 0.0);
        assert_eq!(highest, SeqNo(500));
    }

    #[test]
    fn large_jump_is_stream_reset_not_loss() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        rx.on_packet(at(1), SeqNo(2), T); // one genuine hole
        assert_eq!(rx.outstanding_holes(), 1);
        // A jump far beyond any plausible reorder window resets the stream:
        // no hole flood, prior holes abandoned, and the caller is told so.
        let out = rx.on_packet(at(2), SeqNo(20_000), T);
        assert_eq!(out, RxOutcome::Reset);
        assert_eq!(rx.outstanding_holes(), 0);
        assert_eq!(rx.abandoned, 1);
        assert_eq!(rx.highest, Some(SeqNo(20_000)));
        // Counters stay sane: the skipped range is not counted as expected.
        assert!(rx.expected <= 5, "expected={}", rx.expected);
    }

    #[test]
    fn missing_set_is_bounded() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(0), T);
        // Repeated sub-reset jumps accumulate holes; the map must stay
        // capped with the oldest holes abandoned.
        let mut seq = SeqNo(0);
        for i in 0..4u64 {
            seq = seq.add(2_500);
            rx.on_packet(at(i + 1), seq, T);
        }
        assert!(rx.outstanding_holes() <= 4_096);
        assert!(rx.abandoned > 0);
    }

    #[test]
    fn jitter_tracks_transit_variation() {
        let mut rx = RxState::new();
        // Constant transit → jitter ≈ 0.
        for i in 0..20u16 {
            rx.on_packet(at(u64::from(i) * 10), SeqNo(i), SimDuration::from_millis(5));
        }
        let (_, _, j0) = rx.rr_stats().expect("stats");
        assert_eq!(j0, 0);
        // Oscillating transit → jitter > 0.
        for i in 20..60u16 {
            let t = if i % 2 == 0 { 5 } else { 25 };
            rx.on_packet(at(u64::from(i) * 10), SeqNo(i), SimDuration::from_millis(t));
        }
        let (_, _, j1) = rx.rr_stats().expect("stats");
        assert!(j1 > 1000, "jitter={j1}us");
    }

    #[test]
    fn seq_wraparound_handled() {
        let mut rx = RxState::new();
        rx.on_packet(at(0), SeqNo(u16::MAX - 1), T);
        rx.on_packet(at(1), SeqNo(1), T); // holes: 65535, 0
        assert_eq!(rx.outstanding_holes(), 2);
        let nacks = rx.scan(at(50), SimDuration::from_millis(50), 5);
        assert_eq!(nacks.len(), 2);
        assert!(nacks.contains(&SeqNo(u16::MAX)));
        assert!(nacks.contains(&SeqNo(0)));
    }
}
