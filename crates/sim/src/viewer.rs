//! The viewer: one sans-I/O client for every harness.
//!
//! [`ViewerClient`] decodes what the consumer node sends, re-keys on an
//! SSRC switch, holds frames until the first keyframe (I-frame sync),
//! reassembles, and plays them through a buffer (300 ms in Taobao Live,
//! §7.1) that measures startup (playback start within 1 s = "fast
//! startup") and stalls (the playing buffer running empty); it also keeps
//! the receiver-report loss window. `Scenario` and the wire testbed both
//! drive it.

use crate::calibrate::PLAYER_BUFFER;
use bytes::Bytes;
use livenet_media::FrameKind;
use livenet_node::OverlayMsg;
use livenet_packet::{Depacketizer, ReceiverReport, RtpPacket};
use livenet_types::{SeqNo, SimDuration, SimTime, Ssrc};
use std::collections::BTreeSet;

/// One completed frame at a client: arrival, RTP timestamp, delay field.
pub type FrameArrival = (SimTime, u32, Option<SimDuration>);

/// Playback time moves on a tick this long after every datagram that
/// decodes as an overlay message. When media stops, ticks stop, so the
/// buffer draining after the broadcast ends is never counted as a stall.
const TICK: SimDuration = SimDuration::from_millis(100);

/// Final QoE statistics of one view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewerQoe {
    /// Request → playback start; `None` when playback never started.
    pub startup: Option<SimDuration>,
    /// Number of stalls after startup.
    pub stalls: u32,
    /// Total time spent stalled.
    pub stall_time: SimDuration,
    /// Frames rendered.
    pub frames_rendered: u64,
}

impl ViewerQoe {
    /// The paper's fast-startup predicate.
    pub fn fast_startup(&self) -> bool {
        self.startup.is_some_and(|s| s < SimDuration::from_secs(1))
    }
}

/// Playback-buffer state machine driven by frame arrivals and time.
///
/// Media time is measured in RTP video ticks (90 kHz). Playback starts
/// once [`PLAYER_BUFFER`] of contiguous media is buffered; it then consumes
/// media in real time, stalling whenever the next frame has not arrived.
#[derive(Debug)]
struct PlaybackSim {
    request_at: SimTime,
    ticks_per_frame: u64,
    /// Frame duration in wall time.
    interval: SimDuration,
    /// Buffered frame timestamps not yet rendered.
    buffered: BTreeSet<u32>,
    /// Next media timestamp to render (set at startup).
    next_ts: Option<u32>,
    playing: bool,
    started_at: Option<SimTime>,
    last_advance: SimTime,
    stalled_since: Option<SimTime>,
    stalls: u32,
    stall_time: SimDuration,
    frames_rendered: u64,
    /// Media accumulated toward the next frame boundary while playing.
    media_debt: SimDuration,
}

impl PlaybackSim {
    /// New viewer that pressed play at `request_at`.
    fn new(request_at: SimTime, fps: u32) -> Self {
        let ticks_per_frame = 90_000 / u64::from(fps);
        PlaybackSim {
            request_at,
            ticks_per_frame,
            interval: SimDuration::from_nanos(ticks_per_frame * 1_000_000_000 / 90_000),
            buffered: BTreeSet::new(),
            next_ts: None,
            playing: false,
            started_at: None,
            last_advance: request_at,
            stalled_since: None,
            stalls: 0,
            stall_time: SimDuration::ZERO,
            frames_rendered: 0,
            media_debt: SimDuration::ZERO,
        }
    }

    /// The playhead, or (before startup) the earliest buffered frame.
    fn anchor(&self) -> Option<u32> {
        self.next_ts.or_else(|| self.buffered.first().copied())
    }

    /// The first timestamp after the contiguous buffered run from `ts`.
    fn run_end(&self, mut ts: u32) -> u32 {
        while self.buffered.contains(&ts) {
            ts = ts.wrapping_add(self.ticks_per_frame as u32);
        }
        ts
    }

    /// Buffered contiguous media ahead of the playhead.
    fn buffered_ahead(&self) -> SimDuration {
        let Some(start) = self.anchor() else {
            return SimDuration::ZERO;
        };
        let frames = u64::from(self.run_end(start).wrapping_sub(start)) / self.ticks_per_frame;
        self.interval * frames
    }

    /// A complete video frame arrived (from the depacketizer).
    fn on_frame(&mut self, now: SimTime, rtp_timestamp: u32) {
        self.advance(now, true);
        // Late frames behind the playhead are useless — unless they are a
        // timeline discontinuity (a seamless stream switch, §5.2: the new
        // stream's RTP timeline restarts). A discontinuity resets the
        // playhead without a stall: the consumer only flips the client
        // once a full GoP is ready, so the buffer refills immediately.
        if let Some(next) = self.next_ts {
            let behind = next.wrapping_sub(rtp_timestamp);
            if behind < 0x8000_0000 && behind != 0 {
                if behind as f64 / 90_000.0 <= 1.5 {
                    return;
                }
                self.buffered.clear();
                self.next_ts = Some(rtp_timestamp);
                self.media_debt = SimDuration::ZERO;
                self.last_advance = now;
            }
        }
        self.buffered.insert(rtp_timestamp);
        self.maybe_start_or_resume(now);
    }

    fn maybe_start_or_resume(&mut self, now: SimTime) {
        if !self.playing && self.buffered_ahead() >= PLAYER_BUFFER {
            if self.started_at.is_none() {
                self.started_at = Some(now);
                self.next_ts = self.buffered.first().copied();
            }
            self.resume(now);
        }
    }

    /// Play (again) from `now`, closing an open stall.
    fn resume(&mut self, now: SimTime) {
        if let Some(since) = self.stalled_since.take() {
            self.stall_time += now.saturating_since(since);
        }
        self.playing = true;
        self.last_advance = now;
        self.media_debt = SimDuration::ZERO;
    }

    /// Advance wall time: consume frames and detect stalls, counting them
    /// only when `count_stall`.
    fn advance(&mut self, now: SimTime, count_stall: bool) {
        if !self.playing {
            self.last_advance = now;
            return;
        }
        let mut budget = now.saturating_since(self.last_advance) + self.media_debt;
        self.last_advance = now;
        let interval = self.interval;
        while budget >= interval {
            let Some(next) = self.next_ts else { break };
            if self.buffered.remove(&next) {
                self.frames_rendered += 1;
                self.next_ts = Some(next.wrapping_add(self.ticks_per_frame as u32));
                budget -= interval;
            } else {
                // Underrun: stall. The buffer actually ran dry when the
                // remaining wall-time budget could no longer be consumed,
                // which may be well before this call — backdate it.
                self.playing = false;
                if count_stall {
                    self.stalls += 1;
                    self.stalled_since = Some(now - budget);
                }
                self.media_debt = SimDuration::ZERO;
                return;
            }
        }
        self.media_debt = budget;
    }

    /// Allow playback to skip over permanently-missing frames (the
    /// depacketizer gave up on them). If the playhead sits on a hole, it
    /// jumps to the next buffered frame; playback resumes either when the
    /// normal rebuffer target is met or when frames already exist *beyond*
    /// the next hole — the hole is then known to be permanent (later data
    /// overtook it), so a real player skips rather than waits.
    fn skip_missing(&mut self, now: SimTime) {
        self.advance(now, true);
        if self.playing {
            return;
        }
        // Jump off a missing frame onto buffered data.
        let Some(&anchor) = self.anchor().and_then(|a| self.buffered.range(a..).next()) else {
            return;
        };
        if self.started_at.is_some() {
            self.next_ts = Some(anchor);
        }
        self.maybe_start_or_resume(now);
        // Relaxed start/resume: if data exists beyond the contiguous run
        // ahead, the hole bounding that run is permanent (later data has
        // already overtaken it) — play the run out rather than wait.
        if !self.playing && self.buffered.range(self.run_end(anchor)..).next().is_some() {
            self.started_at.get_or_insert(now);
            self.next_ts = Some(anchor);
            self.resume(now);
        }
    }

    /// Snapshot the QoE counters at view end.
    ///
    /// The final buffer drain at end-of-stream is NOT a stall: a real view
    /// ends when the broadcast (or the viewer) stops, and an empty buffer
    /// at that point is the natural terminal state.
    fn finish(mut self, now: SimTime) -> ViewerQoe {
        self.advance(now, false);
        if let Some(since) = self.stalled_since.take() {
            // A terminal stall only counts as a stall if playback had begun
            // (it already incremented); accumulate its duration.
            self.stall_time += now.saturating_since(since);
        }
        ViewerQoe {
            startup: self.started_at.map(|s| s.saturating_since(self.request_at)),
            stalls: self.stalls,
            stall_time: self.stall_time,
            frames_rendered: self.frames_rendered,
        }
    }
}

/// What one viewer saw over its whole view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewerRun {
    /// Every frame the client completed, in arrival order.
    pub frames: Vec<FrameArrival>,
    /// Playback QoE over the whole view.
    pub qoe: ViewerQoe,
    /// Request → first RTP packet; `None` when none arrived.
    pub first_packet: Option<SimDuration>,
    /// RTP packets received, retransmissions included.
    pub packets: u64,
    /// Datagrams that failed the overlay-message or the RTP decode.
    pub undecodable: u64,
}

impl ViewerRun {
    /// Arrival of the first frame completed strictly after `t`.
    pub fn first_frame_after(&self, t: SimTime) -> Option<SimTime> {
        self.frames.iter().map(|&(at, _, _)| at).find(|&at| at > t)
    }

    /// Mean end-to-end delay (ms) over the frames carrying the RTP delay
    /// field; `None` when none did.
    pub fn mean_delay_field_ms(&self) -> Option<f64> {
        let delays = self.frames.iter().filter_map(|&(_, _, d)| d);
        let (sum, n) = delays.fold((0.0, 0u32), |(sum, n), d| (sum + d.as_millis_f64(), n + 1));
        (n > 0).then(|| sum / f64::from(n))
    }
}

/// One viewer's client, sans I/O.
///
/// A driver hands it every datagram from the consumer with
/// [`ViewerClient::on_datagram`], fires [`ViewerClient::on_tick`] at each
/// deadline that call returns, asks for [`ViewerClient::receiver_report`]
/// on its own cadence, and calls [`ViewerClient::finish`] at view end.
#[derive(Debug)]
pub struct ViewerClient {
    /// SSRC currently being decoded (a change = stream switch → reset).
    ssrc: Option<Ssrc>,
    /// The decoder has seen a keyframe and can render (I-frame sync).
    synced: bool,
    /// Frames completed before sync, held until the keyframe lands
    /// (out-of-order completion: a recovering I frame can finish after
    /// its successors).
    presync: Vec<FrameArrival>,
    /// Reassembles frames from received RTP packets.
    depack: Depacketizer,
    playback: PlaybackSim,
    /// Completed-frame log.
    frames: Vec<FrameArrival>,
    first_packet: Option<SimDuration>,
    packets: u64,
    undecodable: u64,
    /// The loss window: the first sequence number it expects, and the
    /// packets received in it (late ones and duplicates included).
    window: (Option<SeqNo>, u64),
    /// Highest sequence number on this SSRC in serial-number order: a late
    /// retransmission or burst packet never lowers it.
    highest: Option<SeqNo>,
}

impl ViewerClient {
    /// A viewer that pressed play at `request_at` on a stream of `fps`
    /// video frames a second.
    pub fn new(request_at: SimTime, fps: u32) -> Self {
        ViewerClient {
            ssrc: None,
            synced: false,
            presync: Vec::new(),
            depack: Depacketizer::new(),
            playback: PlaybackSim::new(request_at, fps),
            frames: Vec::new(),
            first_packet: None,
            packets: 0,
            undecodable: 0,
            window: (None, 0),
            highest: None,
        }
    }

    /// A datagram from the consumer arrived at `now`. Returns when the
    /// playback tick it arms falls due: every datagram that decodes as an
    /// overlay message arms one, RTP or not; one that does not decode arms
    /// none and is counted in [`ViewerRun::undecodable`].
    pub fn on_datagram(&mut self, now: SimTime, payload: Bytes) -> Option<SimTime> {
        let Ok(msg) = OverlayMsg::decode(payload) else {
            self.undecodable += 1;
            return None;
        };
        if let OverlayMsg::Rtp { packet, .. } = msg {
            match RtpPacket::decode(packet) {
                Ok(rtp) => self.on_rtp(now, rtp),
                Err(_) => self.undecodable += 1,
            }
        }
        Some(now + TICK)
    }

    /// A playback tick armed by [`ViewerClient::on_datagram`] fell due.
    pub fn on_tick(&mut self, now: SimTime) {
        self.playback.advance(now, true);
        self.playback.skip_missing(now);
    }

    /// The receiver report for the loss window since the previous report;
    /// the next window starts after the highest sequence number. `None`
    /// before the first RTP packet.
    pub fn receiver_report(&mut self) -> Option<ReceiverReport> {
        let (ssrc, highest) = (self.ssrc?, self.highest?);
        let (base, received) = std::mem::replace(&mut self.window, (Some(highest.next()), 0));
        let expected = base.map_or(0, |base| i64::from(highest.distance(base)) + 1);
        let lost = (expected - received as i64).max(0);
        let loss_fraction = lost as f64 / expected.max(1) as f64;
        Some(ReceiverReport {
            ssrc,
            loss_fraction,
            highest_seq: highest,
            jitter_us: 0,
        })
    }

    /// End the view at `now`.
    pub fn finish(self, now: SimTime) -> ViewerRun {
        ViewerRun {
            frames: self.frames,
            qoe: self.playback.finish(now),
            first_packet: self.first_packet,
            packets: self.packets,
            undecodable: self.undecodable,
        }
    }

    fn render(&mut self, (at, ts, delay): FrameArrival) {
        self.playback.on_frame(at, ts);
        self.frames.push((at, ts, delay));
    }

    fn on_rtp(&mut self, now: SimTime, rtp: RtpPacket) {
        self.packets += 1;
        self.first_packet
            .get_or_insert(now.saturating_since(self.playback.request_at));
        // SSRC change = seamless stream switch (§5.2): reset reassembly
        // state, like a WebRTC client re-keying its decoder on SSRC demux.
        if self.ssrc != Some(rtp.header.ssrc) {
            if self.ssrc.is_some() {
                self.depack = Depacketizer::new();
                self.synced = false; // re-sync on the new stream
                self.presync.clear();
                (self.window, self.highest) = ((None, 0), None);
            }
            self.ssrc = Some(rtp.header.ssrc);
        }
        let seq = rtp.header.seq;
        self.window.0.get_or_insert(seq);
        self.window.1 += 1;
        if self.highest.is_none_or(|h| seq.distance(h) > 0) {
            self.highest = Some(seq);
        }
        self.depack.push(rtp);
        for frame in self.depack.drain() {
            let arrival = (now, frame.timestamp, frame.delay_field);
            // A video decoder cannot render before its first keyframe
            // (audio needs no sync). Frames completing before the keyframe
            // are held: the I frame may still be in loss recovery while
            // its successors finish.
            if !self.synced {
                let kind = FrameKind::from_nibble(frame.meta);
                if !matches!(kind, Some(FrameKind::I | FrameKind::Audio) | None) {
                    self.presync.push(arrival);
                    continue;
                }
                self.synced = true;
                // Keep held frames at/after the keyframe (wrapping compare).
                for held in std::mem::take(&mut self.presync) {
                    if held.1.wrapping_sub(frame.timestamp) < 0x8000_0000 {
                        self.render(held);
                    }
                }
            }
            self.render(arrival);
        }
        // Bound memory; skip permanently-lost frames.
        if self.depack.gc(8) > 0 {
            self.playback.skip_missing(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_packet::{MediaKind, Packetizer};
    use livenet_types::StreamId;

    const FPS: u32 = 15;
    const TPF: u32 = 6000; // 90k / 15

    fn viewer() -> PlaybackSim {
        PlaybackSim::new(SimTime::ZERO, FPS)
    }

    fn feed(v: &mut PlaybackSim, now_ms: u64, frame_index: u32) {
        v.on_frame(SimTime::from_millis(now_ms), frame_index * TPF);
    }

    #[test]
    fn playback_starts_after_initial_buffer() {
        let mut v = viewer();
        // 300 ms at 15 fps = 4.5 → needs 5 frames.
        for i in 0..4 {
            feed(&mut v, 100 + u64::from(i) * 10, i);
        }
        let q = |v: &PlaybackSim| v.started_at;
        assert!(q(&v).is_none());
        feed(&mut v, 150, 4);
        assert_eq!(v.started_at, Some(SimTime::from_millis(150)));
        let qoe = v.finish(SimTime::from_secs(1));
        assert_eq!(qoe.startup, Some(SimDuration::from_millis(150)));
        assert!(qoe.fast_startup());
    }

    #[test]
    fn steady_arrivals_mean_no_stalls() {
        let mut v = viewer();
        // Frames arrive exactly at capture pace, 66.6 ms apart.
        for i in 0..60u32 {
            let t = 100 + u64::from(i) * 1000 / 15;
            feed(&mut v, t, i);
        }
        let qoe = v.finish(SimTime::from_secs(6));
        assert_eq!(qoe.stalls, 0);
        assert!(qoe.frames_rendered > 50, "{}", qoe.frames_rendered);
    }

    #[test]
    fn delivery_gap_causes_one_stall_then_recovers() {
        let mut v = viewer();
        for i in 0..10u32 {
            feed(&mut v, 100 + u64::from(i) * 66, i);
        }
        // Gap: frames 10..20 arrive 2 s late, all at once.
        for i in 10..30u32 {
            feed(&mut v, 3500, i);
        }
        let qoe = v.finish(SimTime::from_secs(6));
        assert_eq!(qoe.stalls, 1);
        assert!(qoe.stall_time > SimDuration::from_secs(1));
        assert!(qoe.frames_rendered >= 29);
    }

    #[test]
    fn never_enough_buffer_means_no_startup() {
        let mut v = viewer();
        feed(&mut v, 100, 0);
        feed(&mut v, 200, 1);
        let qoe = v.finish(SimTime::from_secs(5));
        assert_eq!(qoe.startup, None);
        assert!(!qoe.fast_startup());
        assert_eq!(qoe.stalls, 0, "pre-start buffering is not a stall");
    }

    #[test]
    fn skip_missing_jumps_over_permanent_hole() {
        let mut v = viewer();
        for i in 0..6u32 {
            feed(&mut v, 100, i);
        }
        // Frame 6 never arrives; 7.. do.
        for i in 7..20u32 {
            feed(&mut v, 120, i);
        }
        // Play through the buffered prefix.
        v.advance(SimTime::from_millis(600), true);
        let before = v.stalls;
        assert!(before >= 1, "should stall at the hole");
        v.skip_missing(SimTime::from_millis(650));
        let qoe = v.finish(SimTime::from_secs(3));
        assert!(qoe.frames_rendered >= 18, "{}", qoe.frames_rendered);
    }

    #[test]
    fn late_frames_behind_playhead_are_dropped() {
        let mut v = viewer();
        for i in 0..10u32 {
            feed(&mut v, 100, i);
        }
        v.advance(SimTime::from_millis(500), true); // rendered ~6 frames
        let rendered_before = v.frames_rendered;
        feed(&mut v, 510, 0); // stale duplicate of frame 0
        v.advance(SimTime::from_millis(520), true);
        assert!(v.frames_rendered >= rendered_before);
        let qoe = v.finish(SimTime::from_secs(2));
        // Frame 0 must not have been rendered twice: 10 frames max.
        assert!(qoe.frames_rendered <= 10);
    }

    // ---- ViewerClient ----------------------------------------------------

    /// The datagrams a consumer sends for one frame: `packets` RTP packets
    /// of `kind` at frame index `i`, each in an overlay envelope.
    fn frame(p: &mut Packetizer, kind: FrameKind, i: u32, packets: usize) -> Vec<Bytes> {
        let payload = Bytes::from(vec![0u8; 1000 * packets]);
        p.packetize_with_meta(MediaKind::Video, i * TPF, &payload, None, kind.to_nibble())
            .iter()
            .map(|rtp| envelope(rtp.encode()))
            .collect()
    }

    fn envelope(packet: Bytes) -> Bytes {
        OverlayMsg::Rtp {
            stream: StreamId(1),
            sent_at: SimTime::ZERO,
            packet,
            retransmit: false,
        }
        .encode()
    }

    /// A one-packet frame carried by RTP sequence number `seq`.
    fn packet(ssrc: u32, seq: u16) -> Bytes {
        let mut p = Packetizer::new(Ssrc(ssrc), SeqNo(seq));
        frame(&mut p, FrameKind::P, u32::from(seq), 1).remove(0)
    }

    fn client() -> ViewerClient {
        ViewerClient::new(SimTime::ZERO, FPS)
    }

    fn deliver(v: &mut ViewerClient, now_ms: u64, datagrams: Vec<Bytes>) {
        for d in datagrams {
            v.on_datagram(SimTime::from_millis(now_ms), d);
        }
    }

    #[test]
    fn undecodable_datagrams_are_counted_and_arm_no_tick() {
        let mut v = client();
        let now = SimTime::from_millis(10);
        assert_eq!(v.on_datagram(now, Bytes::from_static(b"\xffgarbage")), None);
        assert_eq!(v.on_datagram(now, Bytes::new()), None);
        // A whole overlay envelope around a cut-off RTP packet: the message
        // decodes, so it arms a tick, but the packet does not.
        let rtp = frame(&mut Packetizer::new(Ssrc(1), SeqNo(0)), FrameKind::I, 0, 1);
        let inner = OverlayMsg::decode(rtp[0].clone()).unwrap();
        let OverlayMsg::Rtp { packet, .. } = inner else {
            unreachable!("built as RTP")
        };
        let cut = envelope(packet.slice(..5));
        assert_eq!(v.on_datagram(now, cut), Some(now + TICK));
        // A message that is not RTP decodes, ticks, and is not a drop.
        assert_eq!(
            v.on_datagram(now, OverlayMsg::Keepalive.encode()),
            Some(now + TICK)
        );
        let run = v.finish(SimTime::from_secs(1));
        assert_eq!(run.undecodable, 3);
        assert_eq!(run.packets, 0);
        assert_eq!(run.first_packet, None);
    }

    #[test]
    fn a_frame_completed_before_its_keyframe_is_held_then_rendered() {
        let mut v = client();
        let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
        let i_frame = frame(&mut p, FrameKind::I, 0, 3);
        let p1 = frame(&mut p, FrameKind::P, 1, 1);
        // P1 completes first: the I frame is still in loss recovery.
        deliver(&mut v, 100, p1);
        assert!(v.frames.is_empty(), "nothing renders before I-frame sync");
        assert_eq!(v.presync.len(), 1);
        deliver(&mut v, 150, i_frame);
        let ms = SimTime::from_millis;
        assert_eq!(v.frames, vec![(ms(100), TPF, None), (ms(150), 0, None)]);
        for i in 2..6 {
            deliver(
                &mut v,
                150 + u64::from(i),
                frame(&mut p, FrameKind::P, i, 1),
            );
        }
        let run = v.finish(SimTime::from_secs(1));
        assert!(run.qoe.startup.is_some());
        assert_eq!(run.qoe.frames_rendered, 6, "the held P frame plays too");
        assert_eq!(run.first_packet, Some(SimDuration::from_millis(100)));
        assert_eq!(run.packets, 8);
    }

    #[test]
    fn an_ssrc_switch_resets_reassembly_sync_and_the_loss_window() {
        let mut v = client();
        let mut a = Packetizer::new(Ssrc(1), SeqNo(0));
        deliver(&mut v, 100, frame(&mut a, FrameKind::I, 0, 1));
        // Half of a two-packet frame on the old stream is pending.
        let mut half = frame(&mut a, FrameKind::P, 1, 2);
        half.truncate(1);
        deliver(&mut v, 110, half);
        assert_eq!(v.depack.pending_frames(), 1);

        // The new stream's first complete frame is a P frame: after the
        // reset it waits for the new stream's keyframe.
        let mut b = Packetizer::new(Ssrc(2), SeqNo(40_000));
        let b_i = frame(&mut b, FrameKind::I, 1000, 1);
        deliver(&mut v, 200, frame(&mut b, FrameKind::P, 1001, 1));
        assert_eq!(
            v.depack.pending_frames(),
            0,
            "the old stream's half frame is gone"
        );
        assert!(!v.synced);
        assert_eq!(v.frames.len(), 1, "only the old stream's keyframe");
        deliver(&mut v, 210, b_i);
        assert!(v.synced);
        let ts: Vec<u32> = v.frames.iter().map(|&(_, ts, _)| ts).collect();
        assert_eq!(ts, vec![0, 1001 * TPF, 1000 * TPF]);

        let rr = v.receiver_report().unwrap();
        assert_eq!(rr.ssrc, Ssrc(2));
        assert_eq!(rr.highest_seq, SeqNo(40_001));
        assert_eq!(
            rr.loss_fraction, 0.0,
            "no gap across the two streams' sequence spaces"
        );
    }

    #[test]
    fn playback_ticks_stop_with_the_media_so_the_drain_is_no_stall() {
        // The driver the emulator is: fire each armed tick in order, before
        // any later datagram.
        fn watch(extra_ticks_every: Option<u64>) -> ViewerRun {
            let mut v = client();
            let mut p = Packetizer::new(Ssrc(1), SeqNo(0));
            let mut armed: Vec<SimTime> = Vec::new();
            let mut last = SimTime::ZERO;
            for i in 0..30u32 {
                let now = SimTime::from_millis(100 + u64::from(i) * 1000 / 15);
                armed.retain(|&at| {
                    let due = at <= now;
                    if due {
                        v.on_tick(at);
                    }
                    !due
                });
                let kind = if i == 0 { FrameKind::I } else { FrameKind::P };
                for d in frame(&mut p, kind, i, 1) {
                    armed.extend(v.on_datagram(now, d));
                }
                last = now;
            }
            for at in armed {
                v.on_tick(at);
            }
            let end = last + SimDuration::from_secs(2);
            if let Some(every) = extra_ticks_every {
                let mut t = last;
                while t < end {
                    t += SimDuration::from_millis(every);
                    v.on_tick(t);
                }
            }
            v.finish(end)
        }
        let run = watch(None);
        assert_eq!(run.qoe.stalls, 0);
        assert_eq!(run.qoe.frames_rendered, 30);
        // What the rule prevents: a driver ticking on through the drain
        // would count the empty buffer after the broadcast as a stall.
        assert_eq!(watch(Some(5)).qoe.stalls, 1);
    }

    #[test]
    fn a_late_packet_neither_wraps_the_loss_window_nor_lowers_the_highest() {
        let mut v = client();
        assert!(v.receiver_report().is_none(), "no report before any RTP");
        for seq in 10..=20 {
            v.on_datagram(SimTime::from_millis(100), packet(1, seq));
        }
        v.on_datagram(SimTime::from_millis(101), packet(1, 5));
        let rr = v.receiver_report().unwrap();
        assert_eq!(rr.loss_fraction, 0.0);
        assert_eq!(rr.highest_seq, SeqNo(20));
    }

    #[test]
    fn the_loss_window_runs_across_the_sequence_wrap() {
        let mut v = client();
        for seq in (65_530..=65_535).chain(0..=4) {
            v.on_datagram(SimTime::from_millis(100), packet(1, seq));
        }
        v.on_datagram(SimTime::from_millis(101), packet(1, 65_528));
        let rr = v.receiver_report().unwrap();
        assert_eq!(rr.loss_fraction, 0.0);
        assert_eq!(rr.highest_seq, SeqNo(4));
        // The next window starts after the highest: 8 of 5..=14 arrive.
        for seq in [5, 6, 7, 9, 10, 12, 13, 14] {
            v.on_datagram(SimTime::from_millis(200), packet(1, seq));
        }
        let rr = v.receiver_report().unwrap();
        assert!(
            (rr.loss_fraction - 0.2).abs() < 1e-12,
            "{}",
            rr.loss_fraction
        );
        assert_eq!(rr.highest_seq, SeqNo(14));
        // A window with nothing new reports no loss.
        assert_eq!(v.receiver_report().unwrap().loss_fraction, 0.0);
    }
}
