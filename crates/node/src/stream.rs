//! Per-stream state (paper §5.1, Fig. 7): where the stream comes from —
//! a local broadcaster or an upstream subscription — and the slow-path
//! modules fed by a copy of every packet (receive state, and the cache,
//! which reads frame and GoP starts from the fragment header), plus what
//! failover and loss recovery keep per stream. An [`crate::OverlayNode`]
//! owns one [`StreamState`] per stream and drops it whole when the last
//! reference to the stream goes; nothing here reaches outside the stream.

use crate::cache::StreamCache;
use crate::fib::Subscriber;
use crate::msg::OverlayMsg;
use crate::node::{NodeAction, NodeConfig, NodeEvent, NodeStats};
use crate::node::{NACK_RETRY_INTERVAL, PENDING_RTX_TTL, UPSTREAM_TIMEOUT};
use crate::peer::Neighbor;
use crate::rx::{RxOutcome, RxState};
use bytes::Bytes;
use livenet_media::{EncodedFrame, FrameKind};
use livenet_packet::rtp::ssrc_for_stream;
use livenet_packet::{MediaKind, Nack, Packetizer, ReceiverReport, RtcpPacket, RtpPacket};
use livenet_types::{ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId};
use std::collections::{BTreeMap, BTreeSet};

/// Bound on remembered unserviceable NACKs per stream.
const MAX_PARKED_RTX: usize = 1_024;

/// One parked downstream NACK: who is waiting, and since when (drives the
/// TTL sweep).
struct ParkedRtx {
    waiters: Vec<NodeId>,
    parked_at: SimTime,
}

/// All state of one stream at one node.
pub(crate) struct StreamState {
    id: StreamId,
    /// The local broadcaster's packetizer: this node produces the stream.
    pub(crate) producer: Option<Packetizer>,
    /// The upstream whose subscription is confirmed.
    pub(crate) upstream: Option<NodeId>,
    /// `Subscribe` sent to this node, `SubscribeOk` not yet back. Set next
    /// to `upstream`, a path switch is in flight, make-before-break: the
    /// old upstream keeps feeding the fast path until this one confirms,
    /// and is released then (§7.1 "Maintaining Multiple Paths").
    pending: Option<NodeId>,
    /// Downstream nodes awaiting our `SubscribeOk` relay.
    pub(crate) waiting_ok: Vec<NodeId>,
    pub(crate) cache: StreamCache,
    rx: RxState,
    /// Candidate paths (producer-first, ending here): the Brain's K paths
    /// from the original lookup plus any prefetched backups. Failover
    /// re-subscribes along the first that avoids the failed element;
    /// their penultimate hops are the alternate RTX suppliers.
    paths: Vec<Vec<NodeId>>,
    /// Downstream NACKs we could not serve because the packet was missing
    /// from our own cache (lost on our upstream link too). Served the
    /// moment the packet arrives — typically as our own recovery — instead
    /// of making the downstream wait out another NACK retry round.
    parked: BTreeMap<u16, ParkedRtx>,
    /// Clients that flip onto this stream once a complete GoP is cached.
    pub(crate) switch_waiters: BTreeSet<ClientId>,
}

/// `msg` addressed to overlay node `to`.
pub(crate) fn to_node(to: NodeId, msg: OverlayMsg) -> NodeAction {
    let to = Subscriber::Node(to);
    NodeAction::Send { to, msg }
}

/// An RTCP packet about `stream` addressed to overlay node `to`.
pub(crate) fn rtcp_to(to: NodeId, stream: StreamId, rtcp: &RtcpPacket) -> NodeAction {
    let packet = rtcp.encode();
    to_node(to, OverlayMsg::Rtcp { stream, packet })
}

impl StreamState {
    pub(crate) fn new(id: StreamId, cache_packets: usize) -> StreamState {
        StreamState {
            id,
            producer: None,
            upstream: None,
            pending: None,
            waiting_ok: Vec::new(),
            cache: StreamCache::new(cache_packets),
            rx: RxState::new(),
            paths: Vec::new(),
            parked: BTreeMap::new(),
            switch_waiters: BTreeSet::new(),
        }
    }

    pub(crate) fn cached_paths(&self) -> usize {
        self.paths.len()
    }

    pub(crate) fn parked_rtx(&self) -> usize {
        self.parked.len()
    }

    pub(crate) fn install_paths(&mut self, paths: &[Vec<NodeId>]) {
        for p in paths {
            if p.len() >= 2 && !self.paths.contains(p) {
                self.paths.push(p.clone());
            }
        }
    }

    /// The upstream nodes the stream depends on, confirmed first.
    pub(crate) fn upstreams(&self) -> impl Iterator<Item = NodeId> {
        self.upstream.into_iter().chain(self.pending)
    }

    /// Packets are flowing: a new subscriber can be confirmed at once.
    pub(crate) fn is_flowing(&self) -> bool {
        self.producer.is_some() || self.upstream.is_some()
    }

    /// The stream is carried here, or about to be: a subscription for it
    /// is a local hit and needs no backtracking.
    pub(crate) fn is_live(&self) -> bool {
        self.is_flowing() || self.pending.is_some()
    }

    /// Packetize one encoded frame from the local broadcaster. `None`
    /// when this node does not produce the stream.
    pub(crate) fn packetize(
        &mut self,
        frame: &EncodedFrame,
        payload: &Bytes,
    ) -> Option<Vec<RtpPacket>> {
        let packetizer = self.producer.as_mut()?;
        // The delay field starts at the encoder delay (paper §6.1: the
        // broadcaster adds frame encoding time + queue + half first RTT;
        // the first-mile part is added by the driver).
        let delay0 =
            (frame.kind == FrameKind::I).then(|| SimDuration::from_nanos(frame.encode_delay_ns));
        Some(packetizer.packetize_with_meta(
            MediaKind::Video,
            frame.rtp_timestamp,
            payload,
            delay0,
            frame.kind.to_nibble(),
        ))
    }

    // ------------------------------------------------------------------
    // Subscription state machine
    // ------------------------------------------------------------------

    /// Subscribe along `path` (producer-first, optionally ending at this
    /// node, `me`) unless the stream is already carried. False when the
    /// path names no upstream hop.
    pub(crate) fn subscribe_along(
        &mut self,
        me: NodeId,
        path: &[NodeId],
        actions: &mut Vec<NodeAction>,
    ) -> bool {
        let hops = path.strip_suffix(&[me]).unwrap_or(path);
        self.is_live() || self.subscribe_via(hops.to_vec(), actions)
    }

    /// Send `Subscribe` to the last hop of `remainder`, which carries the
    /// rest upstream. An established upstream is kept until the new one
    /// confirms. False when `remainder` is empty.
    pub(crate) fn subscribe_via(
        &mut self,
        mut remainder: Vec<NodeId>,
        actions: &mut Vec<NodeAction>,
    ) -> bool {
        let Some(upstream) = remainder.pop() else {
            return false;
        };
        let stream = self.id;
        self.pending = Some(upstream);
        actions.push(to_node(
            upstream,
            OverlayMsg::Subscribe { stream, remainder },
        ));
        actions.push(NodeEvent::SubscribeForwarded { stream, upstream }.into());
        true
    }

    /// `SubscribeOk` from `upstream`: an outstanding subscription is now
    /// the established one (releasing the old upstream of a path switch),
    /// and the downstream requesters waiting on us hear about it.
    pub(crate) fn confirm(&mut self, upstream: NodeId, actions: &mut Vec<NodeAction>) {
        let stream = self.id;
        if self.pending.take().is_some() {
            if let Some(old) = self
                .upstream
                .replace(upstream)
                .filter(|&old| old != upstream)
            {
                actions.push(to_node(old, OverlayMsg::Unsubscribe { stream }));
            }
            actions.push(NodeEvent::SubscriptionEstablished { stream, upstream }.into());
        }
        for d in std::mem::take(&mut self.waiting_ok) {
            actions.push(to_node(d, OverlayMsg::SubscribeOk { stream }));
        }
    }

    /// `dead` went silent. If this stream depends on it, re-subscribe
    /// along the first cached path avoiding it (fast, ≈ one subscribe
    /// RTT), else surface [`NodeEvent::PathRequestNeeded`] so the driver
    /// asks the Brain (slow, a control-plane round trip). True when the
    /// stream failed over.
    pub(crate) fn fail_over(
        &mut self,
        me: NodeId,
        dead: NodeId,
        actions: &mut Vec<NodeAction>,
    ) -> bool {
        if !self.upstreams().any(|up| up == dead) {
            return false;
        }
        let stream = self.id;
        (self.upstream, self.pending) = (None, None);
        actions.push(NodeAction::Event(NodeEvent::UpstreamDead {
            stream,
            upstream: dead,
        }));
        let backup = self
            .paths
            .iter()
            .find(|p| p.len() >= 2 && !p.contains(&dead));
        let resubscribed = match backup.cloned() {
            Some(path) => self.subscribe_along(me, &path, actions),
            None => false,
        };
        if !resubscribed {
            actions.push(NodeEvent::PathRequestNeeded { stream, dead }.into());
        }
        true
    }

    /// The messages that release this stream's upstream subscriptions.
    pub(crate) fn release(&self, actions: &mut Vec<NodeAction>) {
        let stream = self.id;
        for up in self.upstreams() {
            actions.push(to_node(up, OverlayMsg::Unsubscribe { stream }));
        }
    }

    // ------------------------------------------------------------------
    // Slow path
    // ------------------------------------------------------------------

    /// The slow path for one packet arriving from `from`: loss detection
    /// and recovery accounting, then the cache. `None` for a
    /// duplicate (not forwarded, not re-cached); otherwise the downstream
    /// nodes whose parked NACK this packet answers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn receive(
        &mut self,
        now: SimTime,
        from: NodeId,
        sent_at: SimTime,
        packet: &RtpPacket,
        retransmit: bool,
        stats: &mut NodeStats,
        actions: &mut Vec<NodeAction>,
    ) -> Option<Vec<NodeId>> {
        let (stream, seq) = (self.id, packet.header.seq);
        match self.rx.on_packet(now, seq, now.saturating_since(sent_at)) {
            RxOutcome::Duplicate => {
                stats.duplicates += 1;
                return None;
            }
            RxOutcome::Recovered { after } => {
                // A retransmission from anyone but the established
                // upstream means an alternate supplier closed the hole.
                let alternate = retransmit && self.upstream != Some(from);
                stats.rtx_alternate_recovered += u64::from(alternate);
                actions.push(NodeAction::Event(NodeEvent::HoleRecovered {
                    stream,
                    after,
                    alternate,
                }));
            }
            RxOutcome::Fresh => {}
            RxOutcome::Reset => {
                // The sequence space restarted: parked downstream waiters
                // keyed to the old space can never be served.
                stats.rtx_pending_expired += self.parked.len() as u64;
                self.parked.clear();
            }
        }
        self.cache.insert(packet.clone());
        Some(
            self.parked
                .remove(&seq.0)
                .map(|p| p.waiters)
                .unwrap_or_default(),
        )
    }

    /// Answer a downstream NACK from the cache: the packets to retransmit
    /// and the sequences we do not have. A node requester is parked on
    /// each miss (up to the cap) so the arrival of our own recovery
    /// forwards it without another downstream retry; clients are not,
    /// since every recovery is fanned out to them anyway.
    pub(crate) fn answer_nack(
        &mut self,
        now: SimTime,
        requester: Subscriber,
        lost: Vec<SeqNo>,
    ) -> (Vec<RtpPacket>, Vec<SeqNo>) {
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for seq in lost {
            match self.cache.get(seq) {
                Some(pkt) => hits.push(pkt.clone()),
                None => misses.push(seq),
            }
        }
        if let Subscriber::Node(from) = requester {
            for seq in &misses {
                if self.parked.len() >= MAX_PARKED_RTX {
                    break;
                }
                let entry = self.parked.entry(seq.0).or_insert_with(|| ParkedRtx {
                    waiters: Vec::new(),
                    parked_at: now,
                });
                if !entry.waiters.contains(&from) {
                    entry.waiters.push(from);
                }
            }
        }
        (hits, misses)
    }

    /// The upstream `from` reported a cache miss for `missing`: re-NACK
    /// the still-outstanding holes to the best alternate suppliers from
    /// the cached backup paths (AutoRec-style multi-supplier RTX). With no
    /// live alternate, the waiter parked on the primary remains the only
    /// recovery path.
    ///
    /// Candidates are the penultimate hop of every cached path ending here
    /// (the neighbor that would feed us on that path), excluding the miss
    /// sender and ourselves, liveness-filtered, RTT-ordered (unknown RTT
    /// last, ties by id), capped at `rtx_alt_suppliers`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn chase_alternates(
        &mut self,
        now: SimTime,
        cfg: &NodeConfig,
        from: NodeId,
        missing: &[SeqNo],
        neighbors: &BTreeMap<NodeId, Neighbor>,
        stats: &mut NodeStats,
        actions: &mut Vec<NodeAction>,
    ) {
        if cfg.rtx_alt_suppliers == 0 {
            return;
        }
        let chase = self.rx.still_missing(missing, cfg.nack_retry_limit);
        if chase.is_empty() {
            return;
        }
        let mut alternates: Vec<NodeId> = Vec::new();
        for path in &self.paths {
            let [.., hop, last] = path[..] else {
                continue;
            };
            if last != cfg.id || hop == from || hop == cfg.id || alternates.contains(&hop) {
                continue;
            }
            // A supplier that went silent on us would eat the re-NACK and
            // give the hole nothing. Never-heard candidates are tried
            // optimistically — the NACK doubles as a probe.
            let silent = neighbors
                .get(&hop)
                .is_some_and(|n| n.silent_for(now, UPSTREAM_TIMEOUT));
            if !silent {
                alternates.push(hop);
            }
        }
        alternates.sort_by_key(|n| {
            let rtt = neighbors.get(n).and_then(|nb| nb.rtt);
            (rtt.unwrap_or(SimDuration::MAX), *n)
        });
        alternates.truncate(cfg.rtx_alt_suppliers);
        if alternates.is_empty() {
            stats.rtx_alternate_exhausted += chase.len() as u64;
            return;
        }
        for &seq in &chase {
            self.rx.note_nack(now, seq);
        }
        for alt in alternates {
            stats.rtx_alternate_requests += chase.len() as u64;
            self.send_nack(alt, chase.clone(), stats, actions);
        }
    }

    /// The 50 ms loss scan: NACK due holes to the established upstream,
    /// and evict parked downstream waiters older than the TTL — waiters
    /// whose packet never arrives here would otherwise sit until stream
    /// teardown, eating the cap and starving live NACKs.
    pub(crate) fn scan(
        &mut self,
        now: SimTime,
        cfg: &NodeConfig,
        stats: &mut NodeStats,
        actions: &mut Vec<NodeAction>,
    ) {
        // A producer-local stream has nobody to NACK.
        if let Some(up) = self.upstream {
            let lost = self.rx.scan(now, NACK_RETRY_INTERVAL, cfg.nack_retry_limit);
            if !lost.is_empty() {
                self.send_nack(up, lost, stats, actions);
            }
        }
        let before = self.parked.len();
        self.parked
            .retain(|_, p| now.saturating_since(p.parked_at) < PENDING_RTX_TTL);
        stats.rtx_pending_expired += (before - self.parked.len()) as u64;
    }

    /// NACK `lost` to `to`, counting sequences and messages.
    fn send_nack(
        &self,
        to: NodeId,
        lost: Vec<SeqNo>,
        stats: &mut NodeStats,
        actions: &mut Vec<NodeAction>,
    ) {
        stats.nacks_sent += lost.len() as u64;
        stats.nack_batches += 1;
        let ssrc = ssrc_for_stream(self.id);
        actions.push(rtcp_to(to, self.id, &RtcpPacket::Nack(Nack { ssrc, lost })));
    }

    /// The RR tick: a receiver report to the established upstream (none
    /// before the first packet). Returns the upstream, which is owed a
    /// REMB too.
    pub(crate) fn report(&mut self, actions: &mut Vec<NodeAction>) -> Option<NodeId> {
        let up = self.upstream?;
        if let Some((loss_fraction, highest_seq, jitter_us)) = self.rx.rr_stats() {
            let rr = RtcpPacket::ReceiverReport(ReceiverReport {
                ssrc: ssrc_for_stream(self.id),
                loss_fraction,
                highest_seq,
                jitter_us,
            });
            actions.push(rtcp_to(up, self.id, &rr));
        }
        Some(up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: StreamId = StreamId(7);
    const ME: NodeId = NodeId(3);

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn cfg() -> NodeConfig {
        NodeConfig::new(ME)
    }

    /// One small P-frame packet per sequence number.
    fn pkt(seq: u16) -> RtpPacket {
        Packetizer::new(ssrc_for_stream(STREAM), SeqNo(seq))
            .packetize_with_meta(
                MediaKind::Video,
                u32::from(seq) * 3000,
                &Bytes::from(vec![0u8; 64]),
                None,
                FrameKind::P.to_nibble(),
            )
            .remove(0)
    }

    /// A stream established on upstream 2.
    fn established() -> StreamState {
        let mut st = StreamState::new(STREAM, 64);
        let mut actions = Vec::new();
        assert!(st.subscribe_along(ME, &[n(1), n(2), ME], &mut actions));
        st.confirm(n(2), &mut actions);
        assert_eq!(st.upstream, Some(n(2)));
        st
    }

    fn receive(st: &mut StreamState, now: SimTime, from: NodeId, seq: u16, rtx: bool) -> Rx {
        let mut stats = NodeStats::default();
        let mut actions = Vec::new();
        let waiters = st.receive(now, from, now, &pkt(seq), rtx, &mut stats, &mut actions);
        let mut events = events(&actions);
        events.retain(|e| matches!(e, NodeEvent::HoleRecovered { .. }));
        Rx {
            waiters,
            stats,
            events,
        }
    }

    /// What one packet did on the slow path.
    struct Rx {
        waiters: Option<Vec<NodeId>>,
        stats: NodeStats,
        /// The `HoleRecovered` events raised.
        events: Vec<NodeEvent>,
    }

    fn events(actions: &[NodeAction]) -> Vec<NodeEvent> {
        actions
            .iter()
            .filter_map(|a| match a {
                NodeAction::Event(e) => Some(e.clone()),
                _ => None,
            })
            .collect()
    }

    /// `(destination, message)` of every send.
    fn sends(actions: &[NodeAction]) -> Vec<(Subscriber, OverlayMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                NodeAction::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn nacks(actions: &[NodeAction]) -> Vec<(NodeId, Vec<SeqNo>)> {
        sends(actions)
            .into_iter()
            .filter_map(|(to, msg)| match (to, msg) {
                (Subscriber::Node(to), OverlayMsg::Rtcp { packet, .. }) => {
                    match RtcpPacket::decode(packet) {
                        Ok(RtcpPacket::Nack(Nack { lost, .. })) => Some((to, lost)),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn subscription_goes_pending_established_switching() {
        let mut st = StreamState::new(STREAM, 64);
        let mut actions = Vec::new();
        assert!(!st.is_live());
        assert!(st.subscribe_along(ME, &[n(1), n(2), ME], &mut actions));
        // The Subscribe goes to the last hop and carries the rest.
        assert_eq!(
            sends(&actions),
            vec![(
                Subscriber::Node(n(2)),
                OverlayMsg::Subscribe {
                    stream: STREAM,
                    remainder: vec![n(1)]
                }
            )]
        );
        assert!(st.is_live() && !st.is_flowing());
        assert_eq!(st.upstream, None);

        // Downstream 5 subscribed meanwhile: it hears the Ok we hear.
        st.waiting_ok.push(n(5));
        actions.clear();
        st.confirm(n(2), &mut actions);
        assert_eq!(st.upstream, Some(n(2)));
        assert_eq!(
            sends(&actions),
            vec![(
                Subscriber::Node(n(5)),
                OverlayMsg::SubscribeOk { stream: STREAM }
            )]
        );

        // A path switch keeps the old upstream until the new one confirms.
        actions.clear();
        assert!(st.subscribe_via(vec![n(1), n(4)], &mut actions));
        assert_eq!(st.upstream, Some(n(2)));
        assert_eq!(st.upstreams().collect::<Vec<_>>(), vec![n(2), n(4)]);
        actions.clear();
        st.confirm(n(4), &mut actions);
        assert_eq!(st.upstream, Some(n(4)));
        assert_eq!(
            sends(&actions),
            vec![(
                Subscriber::Node(n(2)),
                OverlayMsg::Unsubscribe { stream: STREAM }
            )]
        );
        // A second Ok changes nothing and releases nobody.
        actions.clear();
        st.confirm(n(4), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn a_path_without_an_upstream_hop_subscribes_nowhere() {
        let mut st = StreamState::new(STREAM, 64);
        let mut actions = Vec::new();
        assert!(!st.subscribe_along(ME, &[ME], &mut actions));
        assert!(!st.subscribe_along(ME, &[], &mut actions));
        assert!(actions.is_empty() && !st.is_live());
    }

    #[test]
    fn fail_over_takes_the_first_path_avoiding_the_dead_node() {
        let mut st = established();
        st.install_paths(&[vec![n(1), n(2), ME], vec![n(1), n(4), ME]]);
        let mut actions = Vec::new();
        assert!(!st.fail_over(ME, n(9), &mut actions), "9 feeds nothing");
        assert!(st.fail_over(ME, n(2), &mut actions));
        assert_eq!(st.upstreams().collect::<Vec<_>>(), vec![n(4)]);
        assert!(matches!(
            events(&actions)[..],
            [
                NodeEvent::UpstreamDead { upstream, .. },
                NodeEvent::SubscribeForwarded { upstream: next, .. }
            ] if upstream == n(2) && next == n(4)
        ));

        // With no cached path avoiding the dead node, the driver is asked.
        let mut st = established();
        st.install_paths(&[vec![n(1), n(2), ME]]);
        actions.clear();
        assert!(st.fail_over(ME, n(2), &mut actions));
        assert!(!st.is_live());
        assert!(matches!(
            events(&actions)[..],
            [NodeEvent::UpstreamDead { .. }, NodeEvent::PathRequestNeeded { dead, .. }] if dead == n(2)
        ));
    }

    #[test]
    fn release_unsubscribes_from_every_upstream_named() {
        let mut st = established();
        let mut actions = Vec::new();
        st.subscribe_via(vec![n(4)], &mut actions);
        actions.clear();
        st.release(&mut actions);
        let to: Vec<Subscriber> = sends(&actions).into_iter().map(|(to, _)| to).collect();
        assert_eq!(to, vec![Subscriber::Node(n(2)), Subscriber::Node(n(4))]);
    }

    #[test]
    fn slow_path_tells_fresh_duplicate_and_recovered_apart() {
        let mut st = established();
        assert_eq!(
            receive(&mut st, at(0), n(2), 0, false).waiters,
            Some(vec![])
        );
        assert_eq!(
            receive(&mut st, at(1), n(2), 2, false).waiters,
            Some(vec![])
        );
        let dup = receive(&mut st, at(2), n(2), 2, false);
        assert_eq!((dup.waiters, dup.stats.duplicates), (None, 1));
        assert_eq!(st.cache.len(), 2);

        // The hole closes 40 ms after detection, from the upstream.
        let rec = receive(&mut st, at(41), n(2), 1, true);
        assert_eq!(
            rec.events,
            vec![NodeEvent::HoleRecovered {
                stream: STREAM,
                after: SimDuration::from_millis(40),
                alternate: false
            }]
        );
        // A retransmission from anyone else is an alternate supplier's.
        receive(&mut st, at(50), n(2), 4, false);
        let alt = receive(&mut st, at(60), n(4), 3, true);
        assert_eq!(alt.stats.rtx_alternate_recovered, 1);
        assert!(matches!(
            alt.events[..],
            [NodeEvent::HoleRecovered {
                alternate: true,
                ..
            }]
        ));
    }

    #[test]
    fn parked_nacks_are_served_capped_swept_and_purged() {
        let c = cfg();
        let mut st = established();
        receive(&mut st, at(0), n(2), 0, false);
        // Node 5 and client 9 NACK a cached and an uncached sequence.
        let lost = vec![SeqNo(0), SeqNo(1)];
        let (hits, misses) = st.answer_nack(at(5), Subscriber::Node(n(5)), lost.clone());
        assert_eq!((hits.len(), misses.clone()), (1, vec![SeqNo(1)]));
        let client = Subscriber::Client(ClientId::new(9));
        assert_eq!(st.answer_nack(at(5), client, lost).1, misses);
        assert_eq!(st.parked_rtx(), 1, "only the node is parked");
        st.answer_nack(at(6), Subscriber::Node(n(6)), vec![SeqNo(1)]);
        st.answer_nack(at(6), Subscriber::Node(n(5)), vec![SeqNo(1)]);

        // The packet arrives: both waiters, once each, and the slot is free.
        receive(&mut st, at(7), n(2), 2, false);
        assert_eq!(
            receive(&mut st, at(8), n(2), 1, true).waiters,
            Some(vec![n(5), n(6)])
        );
        assert_eq!(st.parked_rtx(), 0);

        // The cap bounds what one requester can park...
        let flood: Vec<SeqNo> = (1000u16..3000).map(SeqNo).collect();
        let (_, misses) = st.answer_nack(at(10), Subscriber::Node(n(5)), flood);
        assert_eq!((misses.len(), st.parked_rtx()), (2000, MAX_PARKED_RTX));
        // ...the TTL sweep frees it, not a moment early...
        let mut stats = NodeStats::default();
        let mut actions = Vec::new();
        st.scan(at(500), &c, &mut stats, &mut actions);
        assert_eq!(
            (st.parked_rtx(), stats.rtx_pending_expired),
            (MAX_PARKED_RTX, 0)
        );
        st.scan(at(1010), &c, &mut stats, &mut actions);
        assert_eq!(
            (st.parked_rtx(), stats.rtx_pending_expired),
            (0, MAX_PARKED_RTX as u64)
        );
        // ...and a sequence-space reset purges whatever is parked.
        st.answer_nack(at(1020), Subscriber::Node(n(5)), vec![SeqNo(7), SeqNo(8)]);
        let reset = receive(&mut st, at(1030), n(2), 9000, false);
        assert_eq!((st.parked_rtx(), reset.stats.rtx_pending_expired), (0, 2));
    }

    #[test]
    fn scan_nacks_the_established_upstream_only() {
        let c = cfg();
        let mut stats = NodeStats::default();
        let mut actions = Vec::new();
        // Holes but nobody to ask: a stream with no confirmed upstream.
        let mut idle = StreamState::new(STREAM, 64);
        receive(&mut idle, at(0), n(2), 0, false);
        receive(&mut idle, at(1), n(2), 3, false);
        idle.scan(at(60), &c, &mut stats, &mut actions);
        assert!(actions.is_empty());

        let mut st = established();
        receive(&mut st, at(0), n(2), 0, false);
        receive(&mut st, at(1), n(2), 3, false);
        st.scan(at(60), &c, &mut stats, &mut actions);
        assert_eq!(nacks(&actions), vec![(n(2), vec![SeqNo(1), SeqNo(2)])]);
        assert_eq!((stats.nacks_sent, stats.nack_batches), (2, 1));
    }

    #[test]
    fn a_cache_miss_is_chased_on_the_nearest_live_alternate() {
        let c = cfg();
        let mut st = established();
        st.install_paths(&[
            vec![n(1), n(2), ME],
            vec![n(1), n(4), ME],
            vec![n(1), n(5), ME],
            vec![n(1), n(6), ME],
            vec![n(1), n(7), n(8)], // ends elsewhere: not a supplier
        ]);
        let mut neighbors: BTreeMap<NodeId, Neighbor> = BTreeMap::new();
        let mut hint = |id: u64, rtt_ms: u64, heard: Option<SimTime>| {
            let nb = neighbors.entry(n(id)).or_default();
            nb.rtt = Some(SimDuration::from_millis(rtt_ms));
            nb.last_heard = heard;
        };
        hint(4, 30, Some(at(9_000)));
        hint(5, 10, Some(at(0))); // nearest, but silent for 10 s
        hint(6, 20, None); // never heard: tried optimistically
        receive(&mut st, at(9_990), n(2), 0, false);
        receive(&mut st, at(9_991), n(2), 3, false);

        let mut stats = NodeStats::default();
        let mut actions = Vec::new();
        let missing = [SeqNo(1), SeqNo(2), SeqNo(40)];
        let mut chase = |st: &mut StreamState, c: &NodeConfig, stats: &mut NodeStats| {
            actions.clear();
            st.chase_alternates(
                at(10_000),
                c,
                n(2),
                &missing,
                &neighbors,
                stats,
                &mut actions,
            );
            nacks(&actions)
        };
        // Only the holes still tracked are chased, on 6 (20 ms) before 4.
        assert_eq!(
            chase(&mut st, &c, &mut stats),
            vec![(n(6), vec![SeqNo(1), SeqNo(2)])]
        );
        assert_eq!(stats.rtx_alternate_requests, 2);
        let two = NodeConfig {
            rtx_alt_suppliers: 2,
            ..cfg()
        };
        let asked: Vec<NodeId> = chase(&mut st, &two, &mut stats)
            .into_iter()
            .map(|(to, _)| to)
            .collect();
        assert_eq!(asked, vec![n(6), n(4)]);
        // Each chase spends NACK budget: the fifth finds nothing to chase.
        for _ in 0..3 {
            chase(&mut st, &c, &mut stats);
        }
        assert!(chase(&mut st, &c, &mut stats).is_empty());
        // And with the alternate path disabled nothing is ever sent.
        let off = NodeConfig {
            rtx_alt_suppliers: 0,
            ..cfg()
        };
        let mut fresh = established();
        receive(&mut fresh, at(0), n(2), 0, false);
        receive(&mut fresh, at(1), n(2), 3, false);
        assert!(chase(&mut fresh, &off, &mut stats).is_empty());
    }

    #[test]
    fn reports_start_with_the_first_packet() {
        let mut st = established();
        let mut actions = Vec::new();
        assert_eq!(st.report(&mut actions), Some(n(2)));
        assert!(actions.is_empty(), "nothing received, nothing to report");
        receive(&mut st, at(0), n(2), 0, false);
        receive(&mut st, at(1), n(2), 4, false);
        st.report(&mut actions);
        let [(Subscriber::Node(to), OverlayMsg::Rtcp { packet, .. })] = &sends(&actions)[..] else {
            panic!("one RTCP to the upstream, got {actions:?}");
        };
        let Ok(RtcpPacket::ReceiverReport(rr)) = RtcpPacket::decode(packet.clone()) else {
            panic!("not a receiver report");
        };
        assert_eq!((*to, rr.highest_seq), (n(2), SeqNo(4)));
        assert!((rr.loss_fraction - 0.6).abs() < 0.01, "3 of 5 missing");
        assert_eq!(StreamState::new(STREAM, 8).report(&mut actions), None);
    }
}
