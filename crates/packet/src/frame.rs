//! Packetization of encoded frames into RTP packets, and reassembly.
//!
//! A frame is split into MTU-sized RTP packets sharing one timestamp; the
//! marker bit is set on the last packet of the frame (standard RTP video
//! framing). The depacketizer reassembles frames out of the slow path's
//! ordered packet stream and reports exactly which frames are complete —
//! the Framing Control module of Fig. 7 then groups frames into GoPs.

use crate::rtp::{MediaKind, RtpHeader, RtpPacket, MTU};
use bytes::{BufMut, Bytes};
use livenet_types::{SeqNo, SimDuration, Ssrc};
use std::collections::BTreeMap;

/// One-byte payload fragment header prepended to every packetized chunk, in
/// the spirit of the H.264 RTP payload format's FU indicator: real RTP gives
/// a frame *end* signal (the marker bit) but not a frame *start* signal,
/// which reassembly under reordering needs. Bits 4–7 carry an opaque
/// caller-supplied nibble (LiveNet uses it for the frame kind, so relays
/// and consumers can apply kind-aware policies — I-frame pacing gain,
/// B-frame dropping — without decoding the payload).
const FRAG_START: u8 = 0b0000_0001;

/// Extract the caller's meta nibble from a packetized RTP payload, if the
/// payload carries a fragment header.
pub fn frag_meta(payload: &[u8]) -> Option<u8> {
    payload.first().map(|b| b >> 4)
}

/// True when the packet payload is the first fragment of its frame.
pub fn frag_is_start(payload: &[u8]) -> bool {
    payload.first().is_some_and(|&b| b & FRAG_START != 0)
}

/// Splits frames into RTP packets, maintaining per-stream sequence state.
#[derive(Debug, Clone)]
pub struct Packetizer {
    ssrc: Ssrc,
    next_seq: SeqNo,
    payload_mtu: usize,
}

impl Packetizer {
    /// New packetizer for a stream; `first_seq` seeds the sequence space.
    pub fn new(ssrc: Ssrc, first_seq: SeqNo) -> Self {
        Packetizer {
            ssrc,
            next_seq: first_seq,
            payload_mtu: MTU - 24, // leave room for header + extension
        }
    }

    /// The sequence number the next produced packet will carry.
    pub fn next_seq(&self) -> SeqNo {
        self.next_seq
    }

    /// Packetize one encoded frame.
    ///
    /// `delay_field` is attached to the *first* packet only (the paper places
    /// the delay extension on the first packet of each I frame, §6.1);
    /// callers pass `None` for other frames.
    pub fn packetize(
        &mut self,
        kind: MediaKind,
        timestamp: u32,
        payload: &Bytes,
        delay_field: Option<SimDuration>,
    ) -> Vec<RtpPacket> {
        self.packetize_with_meta(kind, timestamp, payload, delay_field, 0)
    }

    /// [`Packetizer::packetize`] with a caller-supplied meta nibble stored in
    /// every fragment header (recoverable via [`frag_meta`]).
    pub fn packetize_with_meta(
        &mut self,
        kind: MediaKind,
        timestamp: u32,
        payload: &Bytes,
        delay_field: Option<SimDuration>,
        meta: u8,
    ) -> Vec<RtpPacket> {
        debug_assert!(meta <= 0x0F, "meta nibble out of range");
        let chunks: Vec<Bytes> = if payload.is_empty() {
            vec![Bytes::new()]
        } else {
            (0..payload.len())
                .step_by(self.payload_mtu)
                .map(|off| payload.slice(off..payload.len().min(off + self.payload_mtu)))
                .collect()
        };
        let n = chunks.len();
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, chunk)| {
                let seq = self.next_seq;
                self.next_seq = self.next_seq.next();
                let mut framed = bytes::BytesMut::with_capacity(1 + chunk.len());
                framed.put_u8((meta << 4) | if i == 0 { FRAG_START } else { 0 });
                framed.extend_from_slice(&chunk);
                RtpPacket {
                    header: RtpHeader {
                        marker: i + 1 == n,
                        kind,
                        seq,
                        timestamp,
                        ssrc: self.ssrc,
                        delay_field: if i == 0 { delay_field } else { None },
                    },
                    payload: framed.freeze(),
                }
            })
            .collect()
    }
}

/// A frame reassembled by the depacketizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReassembledFrame {
    /// Media timestamp shared by all the frame's packets.
    pub timestamp: u32,
    /// Media kind.
    pub kind: MediaKind,
    /// First sequence number of the frame.
    pub first_seq: SeqNo,
    /// Last sequence number (the marker packet).
    pub last_seq: SeqNo,
    /// Concatenated payload.
    pub payload: Bytes,
    /// Delay field from the frame's first packet, if present.
    pub delay_field: Option<SimDuration>,
    /// The caller's meta nibble from the first fragment (LiveNet stores
    /// the frame kind here — a decoder needs it to sync on keyframes).
    pub meta: u8,
}

/// Internal per-frame assembly state.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameAssembly {
    packets: BTreeMap<u16, RtpPacket>,
}

/// Reassembles frames from (possibly reordered) RTP packets of one stream.
///
/// Packets are grouped by timestamp. A frame completes when a contiguous
/// sequence run ending in a marker packet is present. Frames complete in any
/// order; the caller (the framing module) is responsible for playout order.
#[derive(Debug, Default)]
pub struct Depacketizer {
    pending: BTreeMap<u32, FrameAssembly>,
    /// Frames completed and not yet taken.
    ready: Vec<ReassembledFrame>,
    /// Highest timestamp ever completed (used to GC stragglers).
    max_done_ts: Option<u32>,
}

impl Depacketizer {
    /// Empty depacketizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of incomplete frames currently buffered.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Feed one packet; complete frames become available via [`Self::drain`].
    pub fn push(&mut self, packet: RtpPacket) {
        let ts = packet.header.timestamp;
        let entry = self.pending.entry(ts).or_default();
        entry.packets.insert(packet.header.seq.0, packet);

        if let Some(frame) = Self::try_complete(entry) {
            self.pending.remove(&ts);
            self.max_done_ts = Some(self.max_done_ts.map_or(ts, |m| m.max(ts)));
            self.ready.push(frame);
        }
    }

    /// Take all frames completed since the last drain.
    pub fn drain(&mut self) -> Vec<ReassembledFrame> {
        std::mem::take(&mut self.ready)
    }

    /// Drop incomplete frames older than `keep` distinct timestamps behind
    /// the newest completed frame. Returns the number of frames discarded.
    ///
    /// This is how a consumer bounds memory when a frame can never complete
    /// (all retransmissions failed): the viewer will skip it.
    pub fn gc(&mut self, keep: usize) -> usize {
        let Some(max_done) = self.max_done_ts else {
            return 0;
        };
        let stale: Vec<u32> = self
            .pending
            .keys()
            .copied()
            .filter(|&ts| {
                // Timestamps more than `keep` frame-periods behind; use
                // wrapping distance on the 32-bit timestamp space.
                let dist = max_done.wrapping_sub(ts);
                dist < 0x8000_0000 && dist > keep as u32 * 3000
            })
            .collect();
        let n = stale.len();
        for ts in stale {
            self.pending.remove(&ts);
        }
        n
    }

    fn try_complete(assembly: &mut FrameAssembly) -> Option<ReassembledFrame> {
        // A frame is delimited by the start flag in the fragment header and
        // the RTP marker bit: it is complete when both anchors are present
        // and every sequence number between them has arrived.
        let (&last, marker_pkt) = assembly.packets.iter().find(|(_, p)| p.header.marker)?;
        let kind = marker_pkt.header.kind;
        let (&first, _) = assembly
            .packets
            .iter()
            .find(|(_, p)| p.payload.first().is_some_and(|&b| b & FRAG_START != 0))?;
        let span = SeqNo(last).distance(SeqNo(first));
        if span < 0 {
            return None; // marker precedes start: stray packets, keep waiting
        }
        let span = span as usize + 1;
        // Check every seq in [first..=last] is present (handles u16 wrap).
        let mut expect = SeqNo(first);
        for _ in 0..span {
            if !assembly.packets.contains_key(&expect.0) {
                return None;
            }
            expect = expect.next();
        }

        let packets = std::mem::take(&mut assembly.packets);
        let mut payload = bytes::BytesMut::new();
        let mut delay_field = None;
        let mut timestamp = 0;
        let mut meta = 0;
        let mut seq = SeqNo(first);
        for _ in 0..span {
            let p = &packets[&seq.0];
            if seq.0 == first {
                delay_field = p.header.delay_field;
                timestamp = p.header.timestamp;
                meta = frag_meta(&p.payload).unwrap_or(0);
            }
            // Strip the 1-byte fragment header.
            payload.extend_from_slice(&p.payload[1.min(p.payload.len())..]);
            seq = seq.next();
        }
        Some(ReassembledFrame {
            timestamp,
            kind,
            first_seq: SeqNo(first),
            last_seq: SeqNo(last),
            payload: payload.freeze(),
            delay_field,
            meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::SimDuration;

    fn make_payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn single_packet_frame_roundtrips() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(100));
        let payload = make_payload(500);
        let pkts = p.packetize(MediaKind::Video, 3000, &payload, None);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].header.marker);

        let mut d = Depacketizer::new();
        d.push(pkts[0].clone());
        let frames = d.drain();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, payload);
        assert_eq!(frames[0].first_seq, frames[0].last_seq);
    }

    #[test]
    fn multi_packet_frame_reassembles_in_order() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let payload = make_payload(5000);
        let pkts = p.packetize(MediaKind::Video, 6000, &payload, None);
        assert!(pkts.len() > 1);
        assert!(pkts.last().unwrap().header.marker);
        assert!(pkts[..pkts.len() - 1].iter().all(|p| !p.header.marker));

        let mut d = Depacketizer::new();
        for pkt in &pkts {
            d.push(pkt.clone());
        }
        let frames = d.drain();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, payload);
        let spanned = frames[0].last_seq.distance(frames[0].first_seq) + 1;
        assert_eq!(spanned as usize, pkts.len());
    }

    #[test]
    fn reordered_packets_still_reassemble() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(10));
        let payload = make_payload(4000);
        let mut pkts = p.packetize(MediaKind::Video, 9000, &payload, None);
        pkts.reverse();

        let mut d = Depacketizer::new();
        for pkt in pkts {
            d.push(pkt);
        }
        let frames = d.drain();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, payload);
    }

    #[test]
    fn incomplete_frame_stays_pending() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let pkts = p.packetize(MediaKind::Video, 3000, &make_payload(4000), None);
        let mut d = Depacketizer::new();
        for pkt in pkts.iter().skip(1) {
            d.push(pkt.clone());
        }
        assert!(d.drain().is_empty());
        assert_eq!(d.pending_frames(), 1);
        // The missing packet arrives (e.g. via retransmission).
        d.push(pkts[0].clone());
        assert_eq!(d.drain().len(), 1);
        assert_eq!(d.pending_frames(), 0);
    }

    #[test]
    fn sequence_continues_across_frames() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let a = p.packetize(MediaKind::Video, 0, &make_payload(3000), None);
        let b = p.packetize(MediaKind::Video, 3000, &make_payload(3000), None);
        assert_eq!(
            b[0].header.seq.0,
            a.last().unwrap().header.seq.0.wrapping_add(1)
        );
    }

    #[test]
    fn delay_field_only_on_first_packet() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let pkts = p.packetize(
            MediaKind::Video,
            0,
            &make_payload(4000),
            Some(SimDuration::from_millis(1)),
        );
        assert!(pkts[0].header.delay_field.is_some());
        assert!(pkts[1..].iter().all(|p| p.header.delay_field.is_none()));
    }

    #[test]
    fn frames_complete_out_of_order() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let f1 = p.packetize(MediaKind::Video, 0, &make_payload(2500), None);
        let f2 = p.packetize(MediaKind::Video, 3000, &make_payload(800), None);

        let mut d = Depacketizer::new();
        // Frame 2 fully arrives first; frame 1 is missing a packet.
        d.push(f2[0].clone());
        d.push(f1[1].clone());
        let done = d.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].timestamp, 3000);
        // Frame 1 completes later.
        d.push(f1[0].clone());
        d.push(f1[2].clone());
        let done = d.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].timestamp, 0);
    }

    #[test]
    fn gc_discards_stale_incomplete_frames() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        // Incomplete old frame at ts=0.
        let old = p.packetize(MediaKind::Video, 0, &make_payload(4000), None);
        let mut d = Depacketizer::new();
        d.push(old[0].clone());
        // Complete new frame far in the future.
        let newer = p.packetize(MediaKind::Video, 90_000, &make_payload(100), None);
        for pkt in newer {
            d.push(pkt);
        }
        d.drain();
        assert_eq!(d.pending_frames(), 1);
        let dropped = d.gc(4);
        assert_eq!(dropped, 1);
        assert_eq!(d.pending_frames(), 0);
    }

    #[test]
    fn meta_nibble_roundtrips_on_every_fragment() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let pkts = p.packetize_with_meta(MediaKind::Video, 0, &make_payload(4000), None, 0x9);
        assert!(pkts.len() > 1);
        for (i, pkt) in pkts.iter().enumerate() {
            assert_eq!(frag_meta(&pkt.payload), Some(0x9));
            assert_eq!(frag_is_start(&pkt.payload), i == 0);
        }
        // Reassembly strips the header cleanly regardless of meta.
        let mut d = Depacketizer::new();
        for pkt in pkts {
            d.push(pkt);
        }
        assert_eq!(d.drain()[0].payload, make_payload(4000));
    }

    #[test]
    fn empty_payload_yields_one_packet() {
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let pkts = p.packetize(MediaKind::Audio, 0, &Bytes::new(), None);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].header.marker);
    }
}
