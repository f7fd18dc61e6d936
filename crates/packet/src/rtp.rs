//! RTP packet model and binary codec.
//!
//! The layout follows RFC 3550 with a one-byte header-extension profile
//! (RFC 8285). LiveNet adds a proprietary extension element — the *delay
//! field* — that accumulates per-hop processing time and half-RTTs so the
//! viewing client can compute the end-to-end streaming delay (paper §6.1).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use livenet_types::{Error, Result, SeqNo, SimDuration, Ssrc, StreamId};

/// Path MTU assumed by the packetizer (bytes of RTP payload + header).
pub const MTU: usize = 1200;

/// RTP media clock rate used for video (90 kHz, the conventional rate).
pub const RTP_CLOCK_HZ: u64 = 90_000;

/// RFC 8285 one-byte-header extension ID carrying the cumulative delay field.
pub(crate) const DELAY_EXT_ID: u8 = 1;

const RTP_VERSION: u8 = 2;
const MIN_HEADER_LEN: usize = 12;

/// What a packet carries. Audio is prioritized over video by the pacer
/// (§5.2 "Priority-Aware Data Sending").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Audio packets; never dropped by the frame dropper, sent first.
    Audio,
    /// Video packets.
    Video,
}

impl MediaKind {
    /// The RTP payload-type value used on the wire for this kind.
    pub(crate) fn payload_type(self) -> u8 {
        match self {
            MediaKind::Audio => 111,
            MediaKind::Video => 96,
        }
    }

    /// Inverse of [`MediaKind::payload_type`].
    pub(crate) fn from_payload_type(pt: u8) -> Result<Self> {
        match pt {
            111 => Ok(MediaKind::Audio),
            96 => Ok(MediaKind::Video),
            other => Err(Error::decode(format!("unknown payload type {other}"))),
        }
    }
}

/// Decoded RTP header fields used by the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpHeader {
    /// Marker bit: set on the last packet of a frame.
    pub marker: bool,
    /// Media kind (mapped to/from the payload-type field).
    pub kind: MediaKind,
    /// Sequence number, per-stream, wrapping.
    pub seq: SeqNo,
    /// Media timestamp in RTP clock ticks (90 kHz for video).
    pub timestamp: u32,
    /// Synchronization source. LiveNet maps one SSRC per stream ID.
    pub ssrc: Ssrc,
    /// Cumulative delay field (the paper's RTP header extension), present on
    /// the first packet of each I frame and updated by every hop.
    pub delay_field: Option<SimDuration>,
}

/// A full RTP packet: header plus opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpPacket {
    /// Header fields.
    pub header: RtpHeader,
    /// Payload (a slice of an encoded frame).
    pub payload: Bytes,
}

impl RtpPacket {
    /// Total encoded size in bytes (header + extension + payload).
    pub fn wire_len(&self) -> usize {
        let ext = if self.header.delay_field.is_some() {
            4 + 8 // extension header + one 6-byte element padded to 8
        } else {
            0
        };
        MIN_HEADER_LEN + ext + self.payload.len()
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        let has_ext = self.header.delay_field.is_some();
        let b0 = (RTP_VERSION << 6) | u8::from(has_ext) << 4;
        buf.put_u8(b0);
        let b1 = (u8::from(self.header.marker) << 7) | self.header.kind.payload_type();
        buf.put_u8(b1);
        buf.put_u16(self.header.seq.0);
        buf.put_u32(self.header.timestamp);
        buf.put_u32(self.header.ssrc.0);
        if let Some(delay) = self.header.delay_field {
            // RFC 8285 one-byte header: profile 0xBEDE, length in 32-bit words.
            buf.put_u16(0xBEDE);
            buf.put_u16(2); // 8 bytes of extension data = 2 words
                            // One-byte element: ID=DELAY_EXT_ID, len-1=5 (6 data bytes).
            buf.put_u8((DELAY_EXT_ID << 4) | 5);
            // 48-bit microsecond delay value.
            let us = delay.as_micros().min((1 << 48) - 1);
            buf.put_u16((us >> 32) as u16);
            buf.put_u32(us as u32);
            buf.put_u8(0); // padding to the word boundary
        }
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decode from wire bytes.
    pub fn decode(mut buf: Bytes) -> Result<RtpPacket> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(Error::decode(format!(
                "RTP packet too short: {}",
                buf.len()
            )));
        }
        let b0 = buf.get_u8();
        if b0 >> 6 != RTP_VERSION {
            return Err(Error::decode(format!("bad RTP version {}", b0 >> 6)));
        }
        let has_ext = (b0 >> 4) & 1 == 1;
        let csrc_count = (b0 & 0x0F) as usize;
        let b1 = buf.get_u8();
        let marker = b1 >> 7 == 1;
        let kind = MediaKind::from_payload_type(b1 & 0x7F)?;
        let seq = SeqNo(buf.get_u16());
        let timestamp = buf.get_u32();
        let ssrc = Ssrc(buf.get_u32());
        if buf.remaining() < csrc_count * 4 {
            return Err(Error::decode("truncated CSRC list"));
        }
        buf.advance(csrc_count * 4);

        let mut delay_field = None;
        if has_ext {
            if buf.remaining() < 4 {
                return Err(Error::decode("truncated extension header"));
            }
            let profile = buf.get_u16();
            let words = buf.get_u16() as usize;
            let ext_len = words * 4;
            if buf.remaining() < ext_len {
                return Err(Error::decode("truncated extension body"));
            }
            let mut ext = buf.split_to(ext_len);
            if profile == 0xBEDE {
                while ext.remaining() > 0 {
                    let tag = ext.get_u8();
                    if tag == 0 {
                        continue; // padding
                    }
                    let id = tag >> 4;
                    let len = (tag & 0x0F) as usize + 1;
                    if ext.remaining() < len {
                        return Err(Error::decode("truncated extension element"));
                    }
                    if id == DELAY_EXT_ID && len == 6 {
                        let hi = u64::from(ext.get_u16());
                        let lo = u64::from(ext.get_u32());
                        delay_field = Some(SimDuration::from_micros((hi << 32) | lo));
                    } else {
                        ext.advance(len);
                    }
                }
            }
        }

        Ok(RtpPacket {
            header: RtpHeader {
                marker,
                kind,
                seq,
                timestamp,
                ssrc,
                delay_field,
            },
            payload: buf,
        })
    }

    /// Return a copy with `extra` added to the delay field (no-op when the
    /// packet carries no delay field). Called by every overlay hop with its
    /// processing time plus half the next hop's RTT (§6.1).
    #[must_use]
    pub fn with_added_delay(&self, extra: SimDuration) -> RtpPacket {
        let mut out = self.clone();
        if let Some(d) = out.header.delay_field {
            out.header.delay_field = Some(d + extra);
        }
        out
    }
}

/// Maps a stream ID to the SSRC used on the wire for that stream.
///
/// LiveNet gives every bitrate version its own stream ID (§5.2), so a 1:1
/// stream↔SSRC mapping suffices; we fold the 64-bit ID into 32 bits.
pub fn ssrc_for_stream(stream: StreamId) -> Ssrc {
    let raw = stream.raw();
    Ssrc((raw as u32) ^ ((raw >> 32) as u32) ^ 0x5EED_1E55)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(delay: Option<SimDuration>) -> RtpPacket {
        RtpPacket {
            header: RtpHeader {
                marker: true,
                kind: MediaKind::Video,
                seq: SeqNo(4242),
                timestamp: 0xDEAD_BEEF,
                ssrc: Ssrc(0x1234_5678),
                delay_field: delay,
            },
            payload: Bytes::from_static(b"hello frame data"),
        }
    }

    #[test]
    fn roundtrip_without_extension() {
        let p = sample(None);
        let decoded = RtpPacket::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(p.encode().len(), p.wire_len());
    }

    #[test]
    fn roundtrip_with_delay_field() {
        let p = sample(Some(SimDuration::from_micros(123_456)));
        let decoded = RtpPacket::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(p.encode().len(), p.wire_len());
    }

    #[test]
    fn audio_payload_type_roundtrip() {
        let mut p = sample(None);
        p.header.kind = MediaKind::Audio;
        p.header.marker = false;
        let decoded = RtpPacket::decode(p.encode()).unwrap();
        assert_eq!(decoded.header.kind, MediaKind::Audio);
        assert!(!decoded.header.marker);
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(RtpPacket::decode(Bytes::from_static(&[0u8; 4])).is_err());
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = sample(None).encode().to_vec();
        bytes[0] = 0x00; // version 0
        assert!(RtpPacket::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_rejects_unknown_payload_type() {
        let mut bytes = sample(None).encode().to_vec();
        bytes[1] = 0x7F; // pt 127
        assert!(RtpPacket::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn with_added_delay_accumulates() {
        let p = sample(Some(SimDuration::from_millis(10)));
        let p2 = p
            .with_added_delay(SimDuration::from_millis(5))
            .with_added_delay(SimDuration::from_millis(7));
        assert_eq!(p2.header.delay_field, Some(SimDuration::from_millis(22)));
    }

    #[test]
    fn with_added_delay_noop_without_field() {
        let p = sample(None);
        let p2 = p.with_added_delay(SimDuration::from_millis(5));
        assert_eq!(p2.header.delay_field, None);
    }

    #[test]
    fn ssrc_for_stream_is_stable_and_spreads() {
        let a = ssrc_for_stream(StreamId::new(1));
        let b = ssrc_for_stream(StreamId::new(2));
        assert_eq!(a, ssrc_for_stream(StreamId::new(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn large_delay_saturates_at_48_bits() {
        let p = sample(Some(SimDuration::from_secs(1_000_000_000)));
        let decoded = RtpPacket::decode(p.encode()).unwrap();
        let us = decoded.header.delay_field.unwrap().as_micros();
        assert_eq!(us, (1 << 48) - 1);
    }
}
