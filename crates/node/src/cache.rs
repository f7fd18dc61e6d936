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

/// Per-stream cache of recent RTP packets in an ordered map keyed by
/// sequence number, with an index of I-frame start positions. (A ring of
/// `seq mod capacity` slots is ROADMAP item 2(a); this is not it.)
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
        self.packets.insert(seq.0, CachedPacket { packet, kind });
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
        self.burst_start(false)
            .map(|start| self.clone_run(start))
            .unwrap_or_default()
    }

    /// Where a burst guaranteed to contain at least one COMPLETE GoP
    /// begins: the longest contiguous run (ending at `highest`) that spans
    /// ≥ 2 I-frame starts. Used for seamless co-stream switching (§5.2),
    /// where the client must receive a whole GoP before the flip. `None`
    /// when no such run exists. Clones nothing: [`Self::clone_run`] copies
    /// the burst only for a client that is sent it.
    pub(crate) fn switch_start(&self) -> Option<SeqNo> {
        self.burst_start(true)
    }

    /// The first cached I-frame start whose run to `highest` is
    /// contiguous: the newest, or with `whole_gop` the oldest whose run
    /// holds two I-frame starts.
    fn burst_start(&self, whole_gop: bool) -> Option<SeqNo> {
        let highest = self.highest?;
        let mut starts = self.iframe_starts.clone();
        starts.sort_by_key(|s| highest.distance(*s));
        if whole_gop {
            starts.reverse();
        }
        starts.into_iter().find(|&start| {
            self.i_starts_through(start, highest)
                .is_some_and(|i_starts| i_starts > usize::from(whole_gop))
        })
    }

    /// The number of I-frame starts from `start` through `highest`;
    /// `None` when a packet between them is missing.
    fn i_starts_through(&self, start: SeqNo, highest: SeqNo) -> Option<usize> {
        let span = usize::try_from(highest.distance(start)).ok()?;
        let mut i_starts = 0;
        let mut seq = start;
        for _ in 0..=span {
            let cached = self.packets.get(&seq.0)?;
            if cached.kind == Some(FrameKind::I) && frag_is_start(&cached.packet.payload) {
                i_starts += 1;
            }
            seq = seq.next();
        }
        Some(i_starts)
    }

    /// The cached packets from `start` through the newest, in sequence
    /// order and borrowed from the cache; stops at the first missing one.
    /// Reads the map in key order (from `start` up, then from 0 past the
    /// wrap) rather than probing it once per sequence number.
    fn run(&self, start: SeqNo) -> impl Iterator<Item = &RtpPacket> + '_ {
        let len = self
            .highest
            .and_then(|highest| usize::try_from(highest.distance(start) + 1).ok())
            .unwrap_or(0);
        let in_order = self
            .packets
            .range(start.0..)
            .chain(self.packets.range(..start.0));
        in_order
            .zip(std::iter::successors(Some(start), |seq| Some(seq.next())).take(len))
            .map_while(|((&key, cached), seq)| (key == seq.0).then_some(&cached.packet))
    }

    /// [`Self::run`] cloned into one allocation, sized from its span.
    pub(crate) fn clone_run(&self, start: SeqNo) -> Vec<RtpPacket> {
        let run = self.run(start);
        let mut packets = Vec::with_capacity(run.size_hint().1.unwrap_or(0));
        packets.extend(run.cloned());
        packets
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
    use livenet_cases::prelude::*;
    use livenet_packet::{MediaKind, Packetizer};
    use livenet_types::Ssrc;

    fn frame_packets(p: &mut Packetizer, kind: FrameKind, ts: u32, bytes: usize) -> Vec<RtpPacket> {
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
    fn a_hole_before_the_newest_packet_leaves_no_startup_burst() {
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
        // A burst runs to the newest packet, so the hole is in the run of
        // every cached I-frame start, GoP 1's included: there is no older
        // GoP to fall back to, and no burst.
        assert!(burst.is_empty());
        // A run read from GoP 1 stops at the hole: seqs 0..=3 of 0..=5.
        assert_eq!(cache.run(SeqNo(0)).count(), 4);
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
    fn switch_start_needs_a_complete_gop() {
        let mut cache = StreamCache::new(256);
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        for (kind, ts, sz) in [(FrameKind::I, 0, 3000), (FrameKind::P, 3000, 800)] {
            for pkt in frame_packets(&mut p, kind, ts, sz) {
                cache.insert(pkt);
            }
        }
        // One I start: a startup burst exists, a whole GoP does not yet.
        assert!(!cache.startup_burst().is_empty());
        assert_eq!(cache.switch_start(), None);
        for pkt in frame_packets(&mut p, FrameKind::I, 6000, 3000) {
            cache.insert(pkt);
        }
        // Two I starts: the switch burst is the longest run (from the
        // first I), the startup burst the shortest (from the second).
        let start = cache.switch_start().expect("two I starts are cached");
        let switch: Vec<&RtpPacket> = cache.run(start).collect();
        assert_eq!(switch.len(), cache.len());
        assert_eq!(switch[0].header.timestamp, 0);
        assert_eq!(cache.startup_burst()[0].header.timestamp, 6000);
    }

    /// The walk `burst_start` + `run` replaced, kept as their oracle: every
    /// candidate's run is cloned whole before its I-frame starts are
    /// counted, and the first run with enough of them is the burst.
    fn materialised_burst(cache: &StreamCache, whole_gop: bool) -> Vec<RtpPacket> {
        let Some(highest) = cache.highest else {
            return Vec::new();
        };
        let mut starts = cache.iframe_starts.clone();
        starts.sort_by_key(|s| highest.distance(*s));
        if whole_gop {
            starts.reverse();
        }
        starts
            .into_iter()
            .filter_map(|start| materialised_run(cache, start, highest))
            .find(|&(_, i_starts)| i_starts > usize::from(whole_gop))
            .map(|(run, _)| run)
            .unwrap_or_default()
    }

    /// The packets from `start` through `highest` and the number of
    /// I-frame starts among them; `None` when one is missing.
    fn materialised_run(
        cache: &StreamCache,
        start: SeqNo,
        highest: SeqNo,
    ) -> Option<(Vec<RtpPacket>, usize)> {
        let span = usize::try_from(highest.distance(start)).ok()?;
        let mut run = Vec::with_capacity(span + 1);
        let mut i_starts = 0;
        let mut seq = start;
        for _ in 0..=span {
            let cached = cache.packets.get(&seq.0)?;
            if cached.kind == Some(FrameKind::I) && frag_is_start(&cached.packet.payload) {
                i_starts += 1;
            }
            run.push(cached.packet.clone());
            seq = seq.next();
        }
        Some((run, i_starts))
    }

    /// What happens to one packet on its way into the cache.
    #[derive(Debug, Clone, Copy)]
    enum Fate {
        InOrder,
        /// Never arrives.
        Lost,
        /// Lost, then recovered by a retransmission after the last packet.
        Retransmitted,
        Duplicated,
        /// Arrives after the packet that follows it.
        Late,
    }

    /// Six packets in ten arrive in order; each other fate has one in ten.
    fn arb_fate() -> impl Strategy<Value = Fate> {
        (0u8..10).prop_map(|roll| match roll {
            0 => Fate::Lost,
            1 => Fate::Retransmitted,
            2 => Fate::Duplicated,
            3 => Fate::Late,
            _ => Fate::InOrder,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every insert, both bursts read through `burst_start` and
        /// `run` equal the oracle's: frame runs whose sequence numbers wrap
        /// past 65,535, under loss, reordering, duplicates, retransmitted
        /// fill-ins and retransmissions of evicted packets.
        #[test]
        fn burst_start_and_run_equal_the_materialised_walk(
            first in 65_300u16..=u16::MAX,
            frames in prop::collection::vec((0u8..4, 1usize..4000), 1..80),
            fates in prop::collection::vec(arb_fate(), 1..320),
            capacity in (any::<bool>(), 8usize..64, 64usize..=512)
                .prop_map(|(small, a, b)| if small { a } else { b }),
            old_rtx in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut p = Packetizer::new(Ssrc(1), SeqNo(first));
            let sent: Vec<RtpPacket> = frames
                .iter()
                .enumerate()
                .flat_map(|(i, &(kind, size))| {
                    // One frame in four is an I frame.
                    let kind = if kind == 0 { FrameKind::I } else { FrameKind::P };
                    frame_packets(&mut p, kind, i as u32 * 3000, size)
                })
                .collect();
            let mut arrivals = Vec::new();
            let mut retransmitted = Vec::new();
            let mut late: Option<&RtpPacket> = None;
            for (pkt, &fate) in sent.iter().zip(fates.iter().cycle()) {
                match fate {
                    Fate::InOrder => arrivals.push(pkt),
                    Fate::Lost => {}
                    Fate::Retransmitted => retransmitted.push(pkt),
                    Fate::Duplicated => arrivals.extend([pkt, pkt]),
                    Fate::Late => {
                        arrivals.extend(late.take());
                        late = Some(pkt);
                        continue;
                    }
                }
                arrivals.extend(late.take());
            }
            arrivals.extend(late);
            arrivals.extend(retransmitted);
            // Retransmissions of packets long since sent, evicted or not.
            arrivals.extend(old_rtx.iter().map(|i| &sent[i % sent.len()]));

            let mut cache = StreamCache::new(capacity);
            for pkt in arrivals {
                cache.insert(pkt.clone());
                for whole_gop in [false, true] {
                    let read: Vec<RtpPacket> = cache
                        .burst_start(whole_gop)
                        .map(|start| cache.clone_run(start))
                        .unwrap_or_default();
                    prop_assert_eq!(read, materialised_burst(&cache, whole_gop));
                }
                prop_assert_eq!(cache.startup_burst(), materialised_burst(&cache, false));
            }
        }
    }
}
