//! Per-peer state (paper §5, Fig. 7: pacer and GCC sit on the link, not on
//! the stream). [`Peer`] is the sending half, kept per subscriber;
//! [`Neighbor`] the receiving half, kept per overlay node.

use crate::fib::Subscriber;
use crate::msg::OverlayMsg;
use crate::node::{NodeAction, NodeConfig, TimerKind, MAX_RATE, MIN_RATE};
use livenet_cc::{DelayBasedEstimator, GccSender, PacedPacket, Pacer, SendPriority};
use livenet_media::FrameKind;
use livenet_packet::{frag_meta, MediaKind, RtpPacket};
use livenet_types::{Bandwidth, SimDuration, SimTime, StreamId};

/// Bytes the overlay envelope adds to an RTP packet on the wire.
const ENVELOPE_BYTES: usize = 18;

/// The pacer never re-polls sooner than this.
const MIN_POLL_GAP: SimDuration = SimDuration::from_micros(100);

/// A packet waiting in a peer's pacer.
#[derive(Debug, Clone)]
pub(crate) struct OutPkt {
    stream: StreamId,
    packet: RtpPacket,
    retransmit: bool,
}

/// Send-side state for one subscriber (downstream node or viewer).
pub(crate) struct Peer {
    pub(crate) pacer: Pacer<OutPkt>,
    /// Sender-side GCC; [`Self::feedback`] keeps the pacer at its rate.
    pub(crate) gcc: GccSender,
    /// Expiry of the pacer-poll timer currently armed (cleared when it
    /// fires), so a second timer is set only when it would fire earlier.
    pub(crate) armed: Option<SimTime>,
}

impl Peer {
    /// A peer paced at `rate` until its first feedback arrives.
    pub(crate) fn new(cfg: &NodeConfig, rate: Bandwidth) -> Peer {
        Peer {
            pacer: Pacer::new(cfg.pacer, rate),
            gcc: GccSender::new(cfg.initial_rate, MIN_RATE, MAX_RATE),
            armed: None,
        }
    }

    /// Feed one piece of receiver feedback (loss report or REMB) to the
    /// sender-side controller and pace at whatever rate it now says.
    pub(crate) fn feedback(&mut self, apply: impl FnOnce(&mut GccSender)) {
        apply(&mut self.gcc);
        self.pacer.set_rate(self.gcc.pacing_rate());
    }

    /// Purge the already-queued video packets of one frame (the frame
    /// dropper rejected the frame's next packet).
    pub(crate) fn drop_frame(&mut self, stream: StreamId, timestamp: u32) {
        self.pacer
            .drop_video_where(|o| o.stream == stream && o.packet.header.timestamp == timestamp);
    }

    /// Queue a packet behind the pacer: audio first, then
    /// retransmissions, then video.
    pub(crate) fn enqueue(&mut self, stream: StreamId, packet: RtpPacket, retransmit: bool) {
        let priority = if packet.header.kind == MediaKind::Audio {
            SendPriority::Audio
        } else if retransmit {
            SendPriority::Retransmission
        } else {
            SendPriority::Video
        };
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        self.pacer.enqueue(PacedPacket {
            priority,
            bytes: packet.wire_len() + ENVELOPE_BYTES,
            is_iframe: kind == Some(FrameKind::I),
            payload: OutPkt {
                stream,
                packet,
                retransmit,
            },
        });
    }

    /// Poll the pacer: emit what the rate budget allows `to` be sent now,
    /// then arm the next poll. Returns the number of packets sent.
    pub(crate) fn flush(
        &mut self,
        now: SimTime,
        to: Subscriber,
        actions: &mut Vec<NodeAction>,
    ) -> u64 {
        let released = self.pacer.poll(now);
        let sent = released.len() as u64;
        for out in released.into_iter().map(|r| r.payload) {
            actions.push(NodeAction::Send {
                to,
                msg: OverlayMsg::Rtp {
                    stream: out.stream,
                    sent_at: now,
                    packet: out.packet.encode(),
                    retransmit: out.retransmit,
                },
            });
        }
        if let Some(next) = self.pacer.next_send_time(now) {
            let next = next.max(now + MIN_POLL_GAP);
            if self.armed.is_none_or(|t| t > next) {
                self.armed = Some(next);
                actions.push(NodeAction::SetTimer {
                    at: next,
                    key: TimerKind::PacerPoll(to).encode(),
                });
            }
        }
        sent
    }
}

/// Receive-side state for one neighboring overlay node.
#[derive(Default)]
pub(crate) struct Neighbor {
    /// Driver-provided RTT hint (the delay field's half-next-hop-RTT
    /// increment, alternate-supplier ordering). Survives a crash.
    pub(crate) rtt: Option<SimDuration>,
    /// Last time anything (RTP or RTCP) was heard from it; feeds the
    /// upstream-liveness check.
    pub(crate) last_heard: Option<SimTime>,
    /// Delay-based bandwidth estimate of the link from it (REMB source).
    pub(crate) gcc_rx: Option<DelayBasedEstimator>,
}

impl Neighbor {
    /// Feed one media arrival to the delay-based estimator.
    pub(crate) fn on_media(
        &mut self,
        cfg: &NodeConfig,
        sent_at: SimTime,
        now: SimTime,
        wire_len: usize,
    ) {
        self.gcc_rx
            .get_or_insert_with(|| DelayBasedEstimator::new(cfg.initial_rate, MIN_RATE, MAX_RATE))
            .on_packet(sent_at, now, wire_len);
    }

    /// Silent for at least `timeout`. A neighbor never heard from is not
    /// silent: there is nothing to time out.
    pub(crate) fn silent_for(&self, now: SimTime, timeout: SimDuration) -> bool {
        self.last_heard
            .is_some_and(|heard| now.saturating_since(heard) >= timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::UPSTREAM_TIMEOUT;
    use bytes::Bytes;
    use livenet_packet::Packetizer;
    use livenet_types::{ClientId, NodeId, SeqNo, Ssrc};

    const STREAM: StreamId = StreamId(7);

    fn cfg() -> NodeConfig {
        NodeConfig::new(NodeId::new(1))
    }

    fn packets(kind: FrameKind, bytes: usize) -> Vec<RtpPacket> {
        Packetizer::new(Ssrc(1), SeqNo(0)).packetize_with_meta(
            MediaKind::Video,
            0,
            &Bytes::from(vec![0u8; bytes]),
            None,
            kind.to_nibble(),
        )
    }

    fn sends(actions: &[NodeAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, NodeAction::Send { .. }))
            .count()
    }

    fn timers(actions: &[NodeAction]) -> Vec<SimTime> {
        actions
            .iter()
            .filter_map(|a| match a {
                NodeAction::SetTimer { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn flush_sends_within_budget_and_arms_one_timer() {
        // 100 kbps: the first poll releases one MTU's worth, the rest of
        // a 20-packet frame waits behind a single poll timer.
        let to = Subscriber::Node(NodeId::new(2));
        let mut peer = Peer::new(&cfg(), Bandwidth::from_kbps(100));
        let pkts = packets(FrameKind::P, 20_000);
        let total = pkts.len();
        let mut actions = Vec::new();
        let mut sent = 0;
        for p in pkts {
            peer.enqueue(STREAM, p, false);
            sent += peer.flush(SimTime::ZERO, to, &mut actions);
        }
        assert!(
            sent >= 1 && (sent as usize) < total,
            "sent {sent} of {total}"
        );
        assert_eq!(sends(&actions), sent as usize);
        assert_eq!(
            timers(&actions).len(),
            1,
            "one armed poll, not one per packet"
        );

        // The timer fires: the peer re-arms, and the queue drains in time.
        let mut now = timers(&actions)[0];
        while (sent as usize) < total {
            peer.armed = None;
            let mut a = Vec::new();
            sent += peer.flush(now, to, &mut a);
            match timers(&a).first() {
                Some(&at) => now = at,
                None => break,
            }
        }
        assert_eq!(sent as usize, total);
    }

    #[test]
    fn retransmissions_overtake_queued_video() {
        let to = Subscriber::Client(ClientId::new(9));
        let mut peer = Peer::new(&cfg(), Bandwidth::from_kbps(100));
        let pkts = packets(FrameKind::P, 6_000);
        let mut actions = Vec::new();
        for p in &pkts {
            peer.enqueue(STREAM, p.clone(), false);
        }
        // The first poll's budget goes to video; the retransmission
        // queued behind it must still be the next packet out.
        peer.flush(SimTime::ZERO, to, &mut actions);
        actions.clear();
        peer.enqueue(STREAM, pkts[0].clone(), true);
        peer.armed = None;
        peer.flush(SimTime::from_millis(200), to, &mut actions);
        let first = actions.iter().find_map(|a| match a {
            NodeAction::Send {
                msg: OverlayMsg::Rtp { retransmit, .. },
                ..
            } => Some(*retransmit),
            _ => None,
        });
        assert_eq!(first, Some(true));
    }

    #[test]
    fn feedback_moves_the_pacing_rate() {
        let c = cfg();
        let mut peer = Peer::new(&c, Bandwidth::from_mbps(50));
        assert_eq!(peer.pacer.rate(), Bandwidth::from_mbps(50));
        peer.feedback(|g| g.on_remb(Bandwidth::from_mbps(3)));
        assert_eq!(peer.pacer.rate(), Bandwidth::from_mbps(3));
        assert_eq!(peer.gcc.decisions.decreases, 1);
        // Heavy loss pushes the loss-based half below the REMB.
        for i in 1..=20 {
            peer.feedback(|g| g.on_loss_report(SimTime::from_millis(i * 500), 0.3));
        }
        assert!(peer.pacer.rate() < Bandwidth::from_mbps(3));
        assert!(peer.pacer.rate() >= MIN_RATE);
    }

    #[test]
    fn drop_frame_purges_only_that_frames_video() {
        let to = Subscriber::Client(ClientId::new(9));
        let mut peer = Peer::new(&cfg(), Bandwidth::from_kbps(100));
        for p in packets(FrameKind::P, 6_000) {
            peer.enqueue(STREAM, p, false);
        }
        peer.drop_frame(STREAM, 0);
        let mut actions = Vec::new();
        assert_eq!(peer.flush(SimTime::ZERO, to, &mut actions), 0);
        assert!(timers(&actions).is_empty(), "an empty pacer arms nothing");
    }

    #[test]
    fn a_neighbor_never_heard_is_not_silent() {
        let c = cfg();
        let mut n = Neighbor::default();
        assert!(!n.silent_for(SimTime::from_secs(100), UPSTREAM_TIMEOUT));
        n.last_heard = Some(SimTime::ZERO);
        n.on_media(&c, SimTime::ZERO, SimTime::from_millis(10), 1200);
        assert!(n.gcc_rx.is_some());
        assert!(!n.silent_for(SimTime::from_millis(2499), UPSTREAM_TIMEOUT));
        assert!(n.silent_for(SimTime::from_millis(2500), UPSTREAM_TIMEOUT));
    }
}
