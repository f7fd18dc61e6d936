//! RTCP feedback messages.
//!
//! The slow path (paper §5.1) scans for sequence holes every 50 ms and sends
//! the missing sequence numbers upstream in RTCP NACK messages; the upstream
//! node retransmits from its GoP/packet cache. Receiver reports carry the
//! loss and jitter statistics GCC needs, and a REMB-style message feeds the
//! delay-based bandwidth estimate back to the sender-side rate controller.
//!
//! The encodings are compact binary layouts in the spirit of RFC 4585 /
//! draft-alvestrand-rmcat-remb rather than byte-exact copies: the overlay
//! only ever talks to itself, so we keep the generic-NACK bitmask idea but
//! allow arbitrarily many entries per message.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use livenet_types::{Error, Result, SeqNo, Ssrc};

const MAGIC: u8 = 0xCC;

const KIND_NACK: u8 = 1;
const KIND_RR: u8 = 2;
const KIND_REMB: u8 = 3;
const KIND_RTX_MISS: u8 = 4;

/// A negative acknowledgement listing lost sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// Stream whose packets were lost.
    pub ssrc: Ssrc,
    /// The missing sequence numbers (deduplicated, in detection order).
    pub lost: Vec<SeqNo>,
}

/// Receiver report: the slow path's periodic statistics to the upstream hop.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverReport {
    /// Stream being reported on.
    pub ssrc: Ssrc,
    /// Fraction of packets lost since the previous report, in [0, 1].
    pub loss_fraction: f64,
    /// Highest sequence number received.
    pub highest_seq: SeqNo,
    /// Interarrival jitter estimate in microseconds.
    pub jitter_us: u32,
}

/// Negative reply to a NACK: the sequence numbers the upstream could *not*
/// serve from its packet cache (lost on its own upstream link too, or
/// already evicted). Receiving this tells the requester to try an alternate
/// supplier immediately instead of waiting out the upstream's own recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtxMiss {
    /// Stream the miss applies to.
    pub ssrc: Ssrc,
    /// The NACKed sequence numbers that missed the cache.
    pub missing: Vec<SeqNo>,
}

/// Receiver-estimated max bitrate (delay-based GCC output), bits per second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remb {
    /// Stream the estimate applies to.
    pub ssrc: Ssrc,
    /// Estimated available bitrate in bits per second.
    pub bitrate_bps: u64,
}

/// Any RTCP message the overlay exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum RtcpPacket {
    /// Loss report requesting retransmission.
    Nack(Nack),
    /// Periodic receiver statistics.
    ReceiverReport(ReceiverReport),
    /// Receiver-side bandwidth estimate.
    Remb(Remb),
    /// NACKed sequences the upstream's cache could not serve.
    RtxMiss(RtxMiss),
}

impl RtcpPacket {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(MAGIC);
        match self {
            RtcpPacket::Nack(n) => {
                buf.put_u8(KIND_NACK);
                buf.put_u32(n.ssrc.0);
                put_seq_list(&mut buf, &n.lost);
            }
            RtcpPacket::ReceiverReport(r) => {
                buf.put_u8(KIND_RR);
                buf.put_u32(r.ssrc.0);
                // Loss fraction quantized to 1/256 as in RFC 3550.
                let q = (r.loss_fraction.clamp(0.0, 1.0) * 255.0).round() as u8;
                buf.put_u8(q);
                buf.put_u16(r.highest_seq.0);
                buf.put_u32(r.jitter_us);
            }
            RtcpPacket::Remb(m) => {
                buf.put_u8(KIND_REMB);
                buf.put_u32(m.ssrc.0);
                buf.put_u64(m.bitrate_bps);
            }
            RtcpPacket::RtxMiss(m) => {
                buf.put_u8(KIND_RTX_MISS);
                buf.put_u32(m.ssrc.0);
                put_seq_list(&mut buf, &m.missing);
            }
        }
        buf.freeze()
    }

    /// Size of the encoded message in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            RtcpPacket::Nack(n) => 2 + 4 + 2 + 2 * n.lost.len().min(u16::MAX as usize),
            RtcpPacket::ReceiverReport(_) => 2 + 4 + 1 + 2 + 4,
            RtcpPacket::Remb(_) => 2 + 4 + 8,
            RtcpPacket::RtxMiss(m) => 2 + 4 + 2 + 2 * m.missing.len().min(u16::MAX as usize),
        }
    }

    /// Decode from wire bytes.
    pub fn decode(mut buf: Bytes) -> Result<RtcpPacket> {
        if buf.len() < 2 {
            return Err(Error::decode("RTCP packet too short"));
        }
        let magic = buf.get_u8();
        if magic != MAGIC {
            return Err(Error::decode(format!("bad RTCP magic {magic:#x}")));
        }
        let kind = buf.get_u8();
        match kind {
            KIND_NACK => {
                if buf.remaining() < 6 {
                    return Err(Error::decode("truncated NACK"));
                }
                let ssrc = Ssrc(buf.get_u32());
                let count = buf.get_u16() as usize;
                if buf.remaining() < count * 2 {
                    return Err(Error::decode("truncated NACK list"));
                }
                let lost = (0..count).map(|_| SeqNo(buf.get_u16())).collect();
                Ok(RtcpPacket::Nack(Nack { ssrc, lost }))
            }
            KIND_RR => {
                if buf.remaining() < 11 {
                    return Err(Error::decode("truncated RR"));
                }
                let ssrc = Ssrc(buf.get_u32());
                let q = buf.get_u8();
                let highest_seq = SeqNo(buf.get_u16());
                let jitter_us = buf.get_u32();
                Ok(RtcpPacket::ReceiverReport(ReceiverReport {
                    ssrc,
                    loss_fraction: f64::from(q) / 255.0,
                    highest_seq,
                    jitter_us,
                }))
            }
            KIND_REMB => {
                if buf.remaining() < 12 {
                    return Err(Error::decode("truncated REMB"));
                }
                let ssrc = Ssrc(buf.get_u32());
                let bitrate_bps = buf.get_u64();
                Ok(RtcpPacket::Remb(Remb { ssrc, bitrate_bps }))
            }
            KIND_RTX_MISS => {
                if buf.remaining() < 6 {
                    return Err(Error::decode("truncated RTX-miss"));
                }
                let ssrc = Ssrc(buf.get_u32());
                let count = buf.get_u16() as usize;
                if buf.remaining() < count * 2 {
                    return Err(Error::decode("truncated RTX-miss list"));
                }
                let missing = (0..count).map(|_| SeqNo(buf.get_u16())).collect();
                Ok(RtcpPacket::RtxMiss(RtxMiss { ssrc, missing }))
            }
            other => Err(Error::decode(format!("unknown RTCP kind {other}"))),
        }
    }
}

/// Write a sequence-number list as a `u16` count and that many entries: a
/// list longer than `u16::MAX` keeps its first 65,535.
fn put_seq_list(buf: &mut BytesMut, seqs: &[SeqNo]) {
    let count = u16::try_from(seqs.len()).unwrap_or(u16::MAX);
    buf.put_u16(count);
    for s in &seqs[..usize::from(count)] {
        buf.put_u16(s.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nack_roundtrip() {
        let n = RtcpPacket::Nack(Nack {
            ssrc: Ssrc(42),
            lost: vec![SeqNo(1), SeqNo(5), SeqNo(65535)],
        });
        let d = RtcpPacket::decode(n.encode()).unwrap();
        assert_eq!(d, n);
        assert_eq!(n.encode().len(), n.wire_len());
    }

    #[test]
    fn empty_nack_roundtrip() {
        let n = RtcpPacket::Nack(Nack {
            ssrc: Ssrc(7),
            lost: vec![],
        });
        assert_eq!(RtcpPacket::decode(n.encode()).unwrap(), n);
    }

    #[test]
    fn rr_roundtrip_quantizes_loss() {
        let rr = RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc: Ssrc(9),
            loss_fraction: 0.1,
            highest_seq: SeqNo(777),
            jitter_us: 1500,
        });
        match RtcpPacket::decode(rr.encode()).unwrap() {
            RtcpPacket::ReceiverReport(d) => {
                assert!((d.loss_fraction - 0.1).abs() < 1.0 / 255.0);
                assert_eq!(d.highest_seq, SeqNo(777));
                assert_eq!(d.jitter_us, 1500);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn remb_roundtrip() {
        let m = RtcpPacket::Remb(Remb {
            ssrc: Ssrc(3),
            bitrate_bps: 2_500_000,
        });
        assert_eq!(RtcpPacket::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = RtcpPacket::Remb(Remb {
            ssrc: Ssrc(3),
            bitrate_bps: 1,
        })
        .encode()
        .to_vec();
        bytes[0] = 0x00;
        assert!(RtcpPacket::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let bytes = Bytes::from(vec![MAGIC, 99, 0, 0, 0, 0]);
        assert!(RtcpPacket::decode(bytes).is_err());
    }

    #[test]
    fn rtx_miss_roundtrip() {
        let m = RtcpPacket::RtxMiss(RtxMiss {
            ssrc: Ssrc(42),
            missing: vec![SeqNo(9), SeqNo(10), SeqNo(65535)],
        });
        let d = RtcpPacket::decode(m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(m.encode().len(), m.wire_len());
    }

    #[test]
    fn decode_rejects_truncated_rtx_miss_list() {
        // Claims 3 missing seqnos but provides none.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(KIND_RTX_MISS);
        buf.put_u32(1);
        buf.put_u16(3);
        assert!(RtcpPacket::decode(buf.freeze()).is_err());
    }

    #[test]
    fn lists_over_u16_max_keep_their_first_65535_entries() {
        let seqs: Vec<SeqNo> = (0..70_000u32).map(|i| SeqNo(i as u16)).collect();
        let kept = &seqs[..usize::from(u16::MAX)];
        let packets = [
            RtcpPacket::Nack(Nack {
                ssrc: Ssrc(1),
                lost: seqs.clone(),
            }),
            RtcpPacket::RtxMiss(RtxMiss {
                ssrc: Ssrc(2),
                missing: seqs.clone(),
            }),
        ];
        for p in packets {
            let wire = p.encode();
            assert_eq!(wire.len(), p.wire_len());
            let got = match RtcpPacket::decode(wire).unwrap() {
                RtcpPacket::Nack(n) => n.lost,
                RtcpPacket::RtxMiss(m) => m.missing,
                other => panic!("decoded as {other:?}"),
            };
            assert_eq!(got, kept);
        }
    }

    #[test]
    fn decode_rejects_truncated_nack_list() {
        // Claims 4 lost seqnos but provides only 1.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(KIND_NACK);
        buf.put_u32(1);
        buf.put_u16(4);
        buf.put_u16(10);
        assert!(RtcpPacket::decode(buf.freeze()).is_err());
    }
}
