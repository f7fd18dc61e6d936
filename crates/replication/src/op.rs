//! The replicated Brain operation log schema.
//!
//! Every PIB/SIB mutation the fleet performs against the Streaming Brain
//! is serialized as a [`BrainOp`] into a Paxos [`crate::Value`] (a plain
//! byte vector) and applied by every replica in decided-slot order, so all
//! replicas converge to the same routing state (paper §7.1).
//!
//! The codec is hand-rolled and fully deterministic: a one-byte tag per
//! variant, little-endian fixed-width integers, `f64::to_bits` for floats
//! and `u32` length prefixes for vectors.  No external serialization
//! format is involved, so encoded bytes are bit-stable across platforms
//! and the decided log can be compared byte-for-byte between replicas.

use livenet_brain::{PathAssignment, StreamingBrain};
use livenet_topology::{LinkReport, NodeReport};
use livenet_types::{Error, NodeId, Result, SimDuration, SimTime, StreamId};

use crate::paxos::ReplicaId;

/// One replicated mutation of the Brain's PIB/SIB state.
///
/// Applying the decided sequence of ops to a fresh
/// `livenet_brain::StreamingBrain` is the *only* way replicated state
/// changes — reads never mutate across replicas divergently because the
/// decision counters they bump are advanced identically during the final
/// audit.  `Lease` ops carry the leader lease through the same log, so
/// leadership is itself a replicated, totally ordered fact.
#[derive(Debug, Clone, PartialEq)]
pub enum BrainOp {
    /// A batch of minute-tick node reports (Global Discovery input),
    /// followed by a periodic-recompute check at `now`.
    Reports {
        /// Virtual time of the batch (drives `maybe_recompute`).
        now: SimTime,
        /// The node reports, in deterministic fleet order.
        reports: Vec<NodeReport>,
    },
    /// Stream Management: a producer registered a new upload.
    RegisterStream {
        /// Stream being registered.
        stream: StreamId,
        /// Producer node it uploads to.
        producer: NodeId,
    },
    /// Stream Management: a stream ended.
    UnregisterStream {
        /// Stream being removed.
        stream: StreamId,
    },
    /// Mark a stream popular (prefetch set member, §4.4).
    MarkPopular {
        /// Stream being marked.
        stream: StreamId,
    },
    /// Broadcaster mobility (§7.1): re-home a stream to a new producer.
    RehomeProducer {
        /// Stream being re-homed.
        stream: StreamId,
        /// The new producer node.
        new_producer: NodeId,
        /// Virtual time of the rehome (bridge path lookup timestamp).
        now: SimTime,
    },
    /// A node was observed dead; recompute the PIB around it.
    NodeFailed {
        /// The dead node.
        node: NodeId,
    },
    /// A failed node came back.
    NodeRecovered {
        /// The recovered node.
        node: NodeId,
    },
    /// Both directions of a link failed.
    LinkFailed {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A failed link recovered.
    LinkRecovered {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Leader lease grant/renewal: `holder` owns leadership for lease
    /// `term` until virtual time `until`.
    Lease {
        /// The replica holding the lease.
        holder: ReplicaId,
        /// Monotonically increasing lease term.
        term: u64,
        /// Lease expiry (cluster virtual time).
        until: SimTime,
    },
    /// A no-op filler decree (used by tests and slot back-fill).
    Noop,
}

const TAG_REPORTS: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_UNREGISTER: u8 = 3;
const TAG_POPULAR: u8 = 4;
const TAG_REHOME: u8 = 5;
const TAG_NODE_FAILED: u8 = 6;
const TAG_NODE_RECOVERED: u8 = 7;
const TAG_LINK_FAILED: u8 = 8;
const TAG_LINK_RECOVERED: u8 = 9;
const TAG_LEASE: u8 = 10;
const TAG_NOOP: u8 = 11;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::decode("brain op truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A flag byte; only what `encode` writes is accepted, so every decree
    /// has one encoding and logs compare byte for byte.
    fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::decode(format!("brain op flag byte {b}"))),
        }
    }

    /// A `u32` element count, refused unless the bytes left can hold that
    /// many elements of at least `min_len` bytes each: the caller may
    /// allocate for the count it gets.
    fn count(&mut self, min_len: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_len {
            return Err(Error::decode("brain op truncated"));
        }
        Ok(n)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::decode("trailing bytes after brain op"))
        }
    }
}

/// Encoded size of a report without links, and of one link.
const REPORT_MIN_LEN: usize = 8 + 8 + 8 + 4;
const LINK_LEN: usize = 8 + 8 + 8 + 8 + 1;

fn put_report(buf: &mut Vec<u8>, r: &NodeReport) {
    put_u64(buf, r.node.raw());
    put_u64(buf, r.at.as_nanos());
    put_f64(buf, r.utilization);
    put_u32(buf, r.links.len() as u32);
    for l in &r.links {
        put_u64(buf, l.to.raw());
        put_u64(buf, l.rtt.as_nanos());
        put_f64(buf, l.loss);
        put_f64(buf, l.utilization);
        buf.push(u8::from(l.from_transport));
    }
}

fn get_report(c: &mut Cursor<'_>) -> Result<NodeReport> {
    let node = NodeId::new(c.u64()?);
    let at = SimTime::from_nanos(c.u64()?);
    let utilization = c.f64()?;
    let n_links = c.count(LINK_LEN)?;
    let mut links = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        links.push(LinkReport {
            to: NodeId::new(c.u64()?),
            rtt: SimDuration::from_nanos(c.u64()?),
            loss: c.f64()?,
            utilization: c.f64()?,
            from_transport: c.flag()?,
        });
    }
    Ok(NodeReport {
        node,
        at,
        utilization,
        links,
    })
}

impl BrainOp {
    /// Encode into a Paxos `Value` (deterministic byte layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            BrainOp::Reports { now, reports } => {
                buf.push(TAG_REPORTS);
                put_u64(&mut buf, now.as_nanos());
                put_u32(&mut buf, reports.len() as u32);
                for r in reports {
                    put_report(&mut buf, r);
                }
            }
            BrainOp::RegisterStream { stream, producer } => {
                buf.push(TAG_REGISTER);
                put_u64(&mut buf, stream.raw());
                put_u64(&mut buf, producer.raw());
            }
            BrainOp::UnregisterStream { stream } => {
                buf.push(TAG_UNREGISTER);
                put_u64(&mut buf, stream.raw());
            }
            BrainOp::MarkPopular { stream } => {
                buf.push(TAG_POPULAR);
                put_u64(&mut buf, stream.raw());
            }
            BrainOp::RehomeProducer {
                stream,
                new_producer,
                now,
            } => {
                buf.push(TAG_REHOME);
                put_u64(&mut buf, stream.raw());
                put_u64(&mut buf, new_producer.raw());
                put_u64(&mut buf, now.as_nanos());
            }
            BrainOp::NodeFailed { node } => {
                buf.push(TAG_NODE_FAILED);
                put_u64(&mut buf, node.raw());
            }
            BrainOp::NodeRecovered { node } => {
                buf.push(TAG_NODE_RECOVERED);
                put_u64(&mut buf, node.raw());
            }
            BrainOp::LinkFailed { a, b } => {
                buf.push(TAG_LINK_FAILED);
                put_u64(&mut buf, a.raw());
                put_u64(&mut buf, b.raw());
            }
            BrainOp::LinkRecovered { a, b } => {
                buf.push(TAG_LINK_RECOVERED);
                put_u64(&mut buf, a.raw());
                put_u64(&mut buf, b.raw());
            }
            BrainOp::Lease {
                holder,
                term,
                until,
            } => {
                buf.push(TAG_LEASE);
                put_u32(&mut buf, *holder);
                put_u64(&mut buf, *term);
                put_u64(&mut buf, until.as_nanos());
            }
            BrainOp::Noop => buf.push(TAG_NOOP),
        }
        buf
    }

    /// Decode from a Paxos `Value`.  Errors on unknown tags, truncation or
    /// trailing bytes — a decode failure in a decided slot is a protocol
    /// invariant violation, not a recoverable condition.
    pub fn decode(bytes: &[u8]) -> Result<BrainOp> {
        let mut c = Cursor::new(bytes);
        let op = match c.u8()? {
            TAG_REPORTS => {
                let now = SimTime::from_nanos(c.u64()?);
                let n = c.count(REPORT_MIN_LEN)?;
                let mut reports = Vec::with_capacity(n);
                for _ in 0..n {
                    reports.push(get_report(&mut c)?);
                }
                BrainOp::Reports { now, reports }
            }
            TAG_REGISTER => BrainOp::RegisterStream {
                stream: StreamId::new(c.u64()?),
                producer: NodeId::new(c.u64()?),
            },
            TAG_UNREGISTER => BrainOp::UnregisterStream {
                stream: StreamId::new(c.u64()?),
            },
            TAG_POPULAR => BrainOp::MarkPopular {
                stream: StreamId::new(c.u64()?),
            },
            TAG_REHOME => BrainOp::RehomeProducer {
                stream: StreamId::new(c.u64()?),
                new_producer: NodeId::new(c.u64()?),
                now: SimTime::from_nanos(c.u64()?),
            },
            TAG_NODE_FAILED => BrainOp::NodeFailed {
                node: NodeId::new(c.u64()?),
            },
            TAG_NODE_RECOVERED => BrainOp::NodeRecovered {
                node: NodeId::new(c.u64()?),
            },
            TAG_LINK_FAILED => BrainOp::LinkFailed {
                a: NodeId::new(c.u64()?),
                b: NodeId::new(c.u64()?),
            },
            TAG_LINK_RECOVERED => BrainOp::LinkRecovered {
                a: NodeId::new(c.u64()?),
                b: NodeId::new(c.u64()?),
            },
            TAG_LEASE => BrainOp::Lease {
                holder: c.u32()?,
                term: c.u64()?,
                until: SimTime::from_nanos(c.u64()?),
            },
            TAG_NOOP => BrainOp::Noop,
            t => return Err(Error::decode(format!("unknown brain op tag {t}"))),
        };
        c.done()?;
        Ok(op)
    }

    /// Apply this decree to a Brain — the single op → `StreamingBrain`
    /// mapping, shared by every replica and by an unreplicated Brain.
    /// Returns the bridge-path assignment of a `RehomeProducer`; `Lease` and
    /// `Noop` leave the Brain untouched.
    pub fn apply_to(&self, brain: &mut StreamingBrain) -> Option<PathAssignment> {
        match *self {
            BrainOp::Reports { now, ref reports } => {
                for r in reports {
                    brain.absorb_report(r);
                }
                brain.maybe_recompute(now);
            }
            BrainOp::RegisterStream { stream, producer } => brain.register_stream(stream, producer),
            BrainOp::UnregisterStream { stream } => brain.unregister_stream(stream),
            BrainOp::MarkPopular { stream } => brain.mark_popular(stream),
            BrainOp::RehomeProducer {
                stream,
                new_producer,
                now,
            } => return brain.rehome_producer(stream, new_producer, now).ok(),
            BrainOp::NodeFailed { node } => brain.node_failed(node),
            BrainOp::NodeRecovered { node } => brain.node_recovered(node),
            BrainOp::LinkFailed { a, b } => brain.link_failed(a, b),
            BrainOp::LinkRecovered { a, b } => brain.link_recovered(a, b),
            BrainOp::Lease { .. } | BrainOp::Noop => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: BrainOp) {
        let bytes = op.encode();
        let back = BrainOp::decode(&bytes).expect("decode");
        assert_eq!(op, back);
        // Re-encoding is byte-stable.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(BrainOp::Reports {
            now: SimTime::from_secs(61),
            reports: vec![NodeReport {
                node: NodeId::new(3),
                at: SimTime::from_secs(60),
                utilization: 0.375,
                links: vec![LinkReport {
                    to: NodeId::new(4),
                    rtt: SimDuration::from_millis(17),
                    loss: 0.004,
                    utilization: 0.5,
                    from_transport: true,
                }],
            }],
        });
        roundtrip(BrainOp::RegisterStream {
            stream: StreamId::new(9),
            producer: NodeId::new(2),
        });
        roundtrip(BrainOp::UnregisterStream {
            stream: StreamId::new(9),
        });
        roundtrip(BrainOp::MarkPopular {
            stream: StreamId::new(1),
        });
        roundtrip(BrainOp::RehomeProducer {
            stream: StreamId::new(5),
            new_producer: NodeId::new(7),
            now: SimTime::from_millis(1234),
        });
        roundtrip(BrainOp::NodeFailed {
            node: NodeId::new(11),
        });
        roundtrip(BrainOp::NodeRecovered {
            node: NodeId::new(11),
        });
        roundtrip(BrainOp::LinkFailed {
            a: NodeId::new(1),
            b: NodeId::new(2),
        });
        roundtrip(BrainOp::LinkRecovered {
            a: NodeId::new(1),
            b: NodeId::new(2),
        });
        roundtrip(BrainOp::Lease {
            holder: 2,
            term: 41,
            until: SimTime::from_millis(987_654),
        });
        roundtrip(BrainOp::Noop);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BrainOp::decode(&[]).is_err());
        assert!(BrainOp::decode(&[0xff]).is_err());
        assert!(BrainOp::decode(&[TAG_REGISTER, 1, 2]).is_err());
        // Trailing bytes are rejected.
        let mut v = BrainOp::Noop.encode();
        v.push(0);
        assert!(BrainOp::decode(&v).is_err());
    }
}
