//! Per-stream packet & GoP cache (paper §5.1 "GoP caching on each node").
//!
//! The cache serves two purposes:
//!
//! * **Loss recovery** — the slow path's retransmission source: packets are
//!   kept by sequence number so a downstream NACK can be answered;
//! * **Fast startup** — when a new subscriber (node or viewer) attaches and
//!   the node already carries the stream, the most recent complete GoP is
//!   burst to it immediately, so playback starts without waiting for the
//!   next keyframe (the effect quantified in Fig. 9).

use livenet_media::FrameKind;
use livenet_packet::{frag_is_start, frag_meta, RtpPacket};
use livenet_types::SeqNo;
use std::collections::BTreeMap;

/// Cached packet with decoded policy metadata.
#[derive(Debug, Clone)]
struct CachedPacket {
    packet: RtpPacket,
    kind: Option<FrameKind>,
}

/// Ring-like per-stream cache of recent RTP packets, indexed by sequence
/// number, with an index of I-frame start positions.
#[derive(Debug, Clone)]
pub struct StreamCache {
    packets: BTreeMap<u16, CachedPacket>,
    /// Sequence numbers (insertion-ordered) of I-frame first packets.
    iframe_starts: Vec<SeqNo>,
    /// Highest sequence number inserted.
    highest: Option<SeqNo>,
    /// Capacity in packets (≈ a small number of GoPs).
    capacity: usize,
}

impl StreamCache {
    /// Cache holding up to `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        StreamCache {
            packets: BTreeMap::new(),
            iframe_starts: Vec::new(),
            highest: None,
            capacity: capacity.max(8),
        }
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Highest sequence number seen.
    pub fn highest_seq(&self) -> Option<SeqNo> {
        self.highest
    }

    /// Insert a packet (original or retransmitted — both are cacheable).
    pub fn insert(&mut self, packet: RtpPacket) {
        let seq = packet.header.seq;
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        let frame_start = frag_is_start(&packet.payload);
        if frame_start && kind == Some(FrameKind::I) && !self.iframe_starts.contains(&seq) {
            self.iframe_starts.push(seq);
        }
        self.packets.insert(
            seq.0,
            CachedPacket { packet, kind },
        );
        self.highest = Some(match self.highest {
            Some(h) if h.newer_than(seq) => h,
            _ => seq,
        });
        self.evict();
    }

    fn evict(&mut self) {
        while self.packets.len() > self.capacity {
            let Some(h) = self.highest else { break };
            // The victim is the packet furthest *behind* the highest seq in
            // serial-number arithmetic (largest positive distance).
            let victim = self
                .packets
                .keys()
                .copied()
                .max_by_key(|&k| h.distance(SeqNo(k)));
            match victim {
                Some(v) => {
                    self.packets.remove(&v);
                    self.iframe_starts.retain(|s| s.0 != v);
                }
                None => break,
            }
        }
    }

    /// Fetch one packet for retransmission.
    pub fn get(&self, seq: SeqNo) -> Option<&RtpPacket> {
        self.packets.get(&seq.0).map(|c| &c.packet)
    }

    /// The packets of the most recent *complete* GoP prefix: from the last
    /// I-frame start whose run to `highest` is contiguous, through the
    /// newest packet. Empty when no such burst can be assembled.
    pub fn startup_burst(&self) -> Vec<RtpPacket> {
        self.burst(false)
    }

    /// A burst guaranteed to contain at least one COMPLETE GoP: the longest
    /// contiguous run (ending at `highest`) that spans ≥ 2 I-frame starts.
    /// Used for seamless co-stream switching (§5.2), where the client must
    /// receive a whole GoP before the flip. Empty when no such run exists.
    pub(crate) fn switch_burst(&self) -> Vec<RtpPacket> {
        self.burst(true)
    }

    /// The first contiguous run from a cached I-frame start to `highest`:
    /// the shortest (newest start), or with `whole_gop` the longest that
    /// holds two I-frame starts.
    fn burst(&self, whole_gop: bool) -> Vec<RtpPacket> {
        let Some(highest) = self.highest else {
            return Vec::new();
        };
        let mut starts = self.iframe_starts.clone();
        starts.sort_by_key(|s| highest.distance(*s));
        if whole_gop {
            starts.reverse();
        }
        starts
            .into_iter()
            .filter_map(|start| self.run_from(start, highest))
            .find(|&(_, i_starts)| i_starts > usize::from(whole_gop))
            .map(|(run, _)| run)
            .unwrap_or_default()
    }

    /// The packets from `start` through `highest` and the number of
    /// I-frame starts among them; `None` when one is missing.
    fn run_from(&self, start: SeqNo, highest: SeqNo) -> Option<(Vec<RtpPacket>, usize)> {
        let span = usize::try_from(highest.distance(start)).ok()?;
        let mut run = Vec::with_capacity(span + 1);
        let mut i_starts = 0;
        let mut seq = start;
        for _ in 0..=span {
            let cached = self.packets.get(&seq.0)?;
            if cached.kind == Some(FrameKind::I) && frag_is_start(&cached.packet.payload) {
                i_starts += 1;
            }
            run.push(cached.packet.clone());
            seq = seq.next();
        }
        Some((run, i_starts))
    }

    /// Frame kind of a cached packet (None when unknown).
    pub fn kind_of(&self, seq: SeqNo) -> Option<FrameKind> {
        self.packets.get(&seq.0).and_then(|c| c.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use livenet_packet::{MediaKind, Packetizer};
    use livenet_types::Ssrc;

    fn frame_packets(
        p: &mut Packetizer,
        kind: FrameKind,
        ts: u32,
        bytes: usize,
    ) -> Vec<RtpPacket> {
        let payload = Bytes::from(vec![0u8; bytes]);
        p.packetize_with_meta(MediaKind::Video, ts, &payload, None, kind.to_nibble())
    }

    #[test]
    fn insert_and_get_for_retransmission() {
        let mut cache = StreamCache::new(64);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        for pkt in frame_packets(&mut p, FrameKind::I, 0, 3000) {
            cache.insert(pkt);
        }
        assert!(cache.get(SeqNo(0)).is_some());
        assert!(cache.get(SeqNo(99)).is_none());
        assert_eq!(cache.kind_of(SeqNo(0)), Some(FrameKind::I));
    }

    #[test]
    fn startup_burst_spans_last_complete_gop() {
        let mut cache = StreamCache::new(256);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        // GoP 1: I + P; GoP 2: I + P + P.
        for (kind, ts, sz) in [
            (FrameKind::I, 0, 3000),
            (FrameKind::P, 3000, 800),
            (FrameKind::I, 6000, 3000),
            (FrameKind::P, 9000, 800),
            (FrameKind::P, 12000, 800),
        ] {
            for pkt in frame_packets(&mut p, kind, ts, sz) {
                cache.insert(pkt);
            }
        }
        let burst = cache.startup_burst();
        assert!(!burst.is_empty());
        // Burst starts at the *second* I frame (ts 6000).
        assert_eq!(burst[0].header.timestamp, 6000);
        assert_eq!(
            burst.last().unwrap().header.timestamp,
            12000,
            "burst runs to the newest packet"
        );
        // Contiguous seqs.
        for w in burst.windows(2) {
            assert_eq!(w[1].header.seq, w[0].header.seq.next());
        }
    }

    #[test]
    fn startup_burst_falls_back_to_older_gop_when_newest_has_hole() {
        let mut cache = StreamCache::new(256);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        for pkt in frame_packets(&mut p, FrameKind::I, 0, 2000) {
            cache.insert(pkt);
        }
        for pkt in frame_packets(&mut p, FrameKind::P, 3000, 500) {
            cache.insert(pkt);
        }
        // Second GoP with a missing packet.
        let pkts = frame_packets(&mut p, FrameKind::I, 6000, 3000);
        for (i, pkt) in pkts.iter().enumerate() {
            if i != 1 {
                cache.insert(pkt.clone());
            }
        }
        let burst = cache.startup_burst();
        // Falls back to the first (complete-to-highest? no: hole at newest)
        // GoP 1 run has the same hole in its run to highest → empty is also
        // acceptable? No: run from GoP1 start to highest crosses the hole.
        // Therefore burst must be empty.
        assert!(burst.is_empty());
        // Once the hole is recovered (retransmission), the burst works.
        cache.insert(pkts[1].clone());
        let burst = cache.startup_burst();
        assert_eq!(burst[0].header.timestamp, 6000);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut cache = StreamCache::new(10);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        for i in 0..20u32 {
            for pkt in frame_packets(&mut p, FrameKind::P, i * 3000, 400) {
                cache.insert(pkt);
            }
        }
        assert!(cache.len() <= 10);
        assert!(cache.get(SeqNo(0)).is_none(), "oldest evicted");
        assert!(cache.get(SeqNo(19)).is_some(), "newest kept");
    }

    #[test]
    fn empty_cache_has_no_burst() {
        let cache = StreamCache::new(16);
        assert!(cache.startup_burst().is_empty());
        assert!(cache.is_empty());
        assert_eq!(cache.highest_seq(), None);
    }

    #[test]
    fn switch_burst_needs_a_complete_gop() {
        let mut cache = StreamCache::new(256);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        for (kind, ts, sz) in [(FrameKind::I, 0, 3000), (FrameKind::P, 3000, 800)] {
            for pkt in frame_packets(&mut p, kind, ts, sz) {
                cache.insert(pkt);
            }
        }
        // One I start: a startup burst exists, a whole GoP does not yet.
        assert!(!cache.startup_burst().is_empty());
        assert!(cache.switch_burst().is_empty());
        for pkt in frame_packets(&mut p, FrameKind::I, 6000, 3000) {
            cache.insert(pkt);
        }
        // Two I starts: the switch burst is the longest run (from the
        // first I), the startup burst the shortest (from the second).
        let switch = cache.switch_burst();
        assert_eq!(switch.len(), cache.len());
        assert_eq!(switch[0].header.timestamp, 0);
        assert_eq!(cache.startup_burst()[0].header.timestamp, 6000);
    }
}
