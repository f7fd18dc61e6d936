//! Consumer-side fine-grained stream control (paper §5.2).
//!
//! The consumer node is the client's delegate ("thin clients", §7.2): it
//! selects the simulcast rendition on the viewer's behalf, proactively
//! drops frames when the per-client send queue builds up (unreferenced B
//! frames → B frames → P frames → the whole GoP), requests a lower bitrate
//! when the queue keeps building, and performs seamless stream switching
//! during co-broadcasts.

use livenet_media::{FrameKind, SimulcastLadder};
use livenet_types::{Bandwidth, ClientId, SimDuration, SimTime, StreamId};
use serde::{Deserialize, Serialize};

/// Counters for one client's queue policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientQueueStats {
    /// Packets admitted to the client's queue.
    pub admitted: u64,
    /// Dropped unreferenced-B packets.
    pub dropped_bunref: u64,
    /// Dropped referenced-B packets.
    pub dropped_b: u64,
    /// Dropped P packets.
    pub dropped_p: u64,
    /// Packets dropped during whole-GoP skips.
    pub dropped_gop: u64,
    /// Rendition step-down requests issued.
    pub step_downs: u64,
    /// Seamless stream switches completed.
    pub switches: u64,
}

/// Escalation ladder for proactive dropping.
const LEVEL_NONE: u8 = 0;
const LEVEL_BUNREF: u8 = 1;
const LEVEL_B: u8 = 2;
const LEVEL_P: u8 = 3;
const LEVEL_GOP: u8 = 4;

/// Continuous backlog duration that escalates one drop level. Time-based
/// (not admission-count-based) so a transient burst — e.g. a GoP startup
/// burst draining through the pacer — does not trigger panic dropping.
const ESCALATE_AFTER: SimDuration = SimDuration::from_millis(300);
/// Quiet time after which the drop level relaxes one step.
const RELAX_AFTER: SimDuration = SimDuration::from_millis(500);
/// Sustained time at P-level dropping that triggers a bitrate step-down.
const STEP_DOWN_AFTER: SimDuration = SimDuration::from_millis(1500);

/// Per-client control state held by a consumer node.
#[derive(Debug, Clone)]
pub struct ClientControl {
    /// The viewer.
    pub client: ClientId,
    /// The stream currently forwarded to the viewer.
    pub stream: StreamId,
    ladder: Option<SimulcastLadder>,
    drop_level: u8,
    gop_skipping: bool,
    backlog_since: Option<SimTime>,
    level_entered_at: SimTime,
    last_backlog: Option<SimTime>,
    pending_switch: Option<StreamId>,
    /// Policy counters.
    pub stats: ClientQueueStats,
}

impl ClientControl {
    /// Attach a client to a stream. When `ladder` and `downlink` are given,
    /// the initial rendition is selected on the client's behalf.
    pub fn new(
        client: ClientId,
        requested: StreamId,
        ladder: Option<SimulcastLadder>,
        downlink: Option<Bandwidth>,
        now: SimTime,
    ) -> Self {
        let stream = match (&ladder, downlink) {
            (Some(l), Some(bw)) => l.select(bw, 1.2).stream,
            _ => requested,
        };
        ClientControl {
            client,
            stream,
            ladder,
            drop_level: LEVEL_NONE,
            gop_skipping: false,
            backlog_since: None,
            level_entered_at: now,
            last_backlog: None,
            pending_switch: None,
            stats: ClientQueueStats::default(),
        }
    }

    /// Decide whether to enqueue one packet toward this client.
    ///
    /// `kind` is the packet's frame kind (None = unknown → always admit);
    /// `backlogged` is the pacer's queue-pressure signal.
    pub fn admit(&mut self, now: SimTime, kind: Option<FrameKind>, backlogged: bool) -> bool {
        self.update_level(now, backlogged);

        let Some(kind) = kind else {
            self.stats.admitted += 1;
            return true;
        };
        if kind == FrameKind::Audio {
            // Audio is never dropped (§5.2).
            self.stats.admitted += 1;
            return true;
        }

        if self.gop_skipping {
            if kind == FrameKind::I {
                // A new GoP begins: resume delivery.
                self.gop_skipping = false;
            } else {
                self.stats.dropped_gop += 1;
                return false;
            }
        }

        let admit = match kind {
            FrameKind::BUnref => self.drop_level < LEVEL_BUNREF,
            FrameKind::B => self.drop_level < LEVEL_B,
            FrameKind::P => self.drop_level < LEVEL_P,
            FrameKind::I | FrameKind::Audio => true,
        };
        if admit {
            self.stats.admitted += 1;
        } else {
            match kind {
                FrameKind::BUnref => self.stats.dropped_bunref += 1,
                FrameKind::B => self.stats.dropped_b += 1,
                FrameKind::P => {
                    self.stats.dropped_p += 1;
                    // Dropping a P frame corrupts the rest of the GoP:
                    // skip forward to the next I frame.
                    if self.drop_level >= LEVEL_GOP {
                        self.gop_skipping = true;
                    }
                }
                _ => {}
            }
        }
        admit
    }

    fn update_level(&mut self, now: SimTime, backlogged: bool) {
        if backlogged {
            self.last_backlog = Some(now);
            let since = *self.backlog_since.get_or_insert(now);
            if now.saturating_since(since) >= ESCALATE_AFTER && self.drop_level < LEVEL_GOP {
                self.drop_level += 1;
                self.backlog_since = Some(now); // next level needs its own span
                self.level_entered_at = now;
            }
        } else {
            self.backlog_since = None;
            let quiet = self
                .last_backlog
                .map(|t| now.saturating_since(t) >= RELAX_AFTER)
                .unwrap_or(true);
            if quiet && self.drop_level > LEVEL_NONE {
                self.drop_level -= 1;
                self.level_entered_at = now;
            }
        }
    }

    /// True when the queue has been at P-dropping level long enough that
    /// the consumer should resubscribe this client to a lower bitrate
    /// rendition ("the consumer node will request a lower bitrate stream
    /// version if the sending queue is consistently building up", §5.2).
    pub fn wants_lower_bitrate(&self, now: SimTime) -> bool {
        self.drop_level >= LEVEL_P
            && now.saturating_since(self.level_entered_at) >= STEP_DOWN_AFTER
            && self.lower_rendition().is_some()
    }

    /// The next rendition down the ladder from the current stream.
    pub fn lower_rendition(&self) -> Option<StreamId> {
        self.ladder.as_ref()?.step_down(self.stream).map(|r| r.stream)
    }

    /// Apply a rendition change (after the consumer resubscribed).
    pub fn apply_step_down(&mut self, new_stream: StreamId, now: SimTime) {
        self.stream = new_stream;
        self.stats.step_downs += 1;
        self.drop_level = LEVEL_NONE;
        self.gop_skipping = false;
        self.backlog_since = None;
        self.level_entered_at = now;
    }

    /// Begin a seamless switch to `new_stream` (co-streaming, §5.2). The
    /// consumer keeps forwarding the old stream until a complete GoP of the
    /// new stream is available, then calls [`Self::complete_switch`].
    pub fn begin_switch(&mut self, new_stream: StreamId) {
        if new_stream != self.stream {
            self.pending_switch = Some(new_stream);
        }
    }

    /// The switch target, if one is pending.
    pub fn pending_switch(&self) -> Option<StreamId> {
        self.pending_switch
    }

    /// Complete a pending switch: the client's forwarding flips to the new
    /// stream with no gap (it has a full GoP buffered).
    pub fn complete_switch(&mut self) -> Option<StreamId> {
        let new = self.pending_switch.take()?;
        let old = self.stream;
        self.stream = new;
        self.stats.switches += 1;
        self.gop_skipping = false;
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> ClientControl {
        ClientControl::new(
            ClientId::new(1),
            StreamId::new(100),
            Some(SimulcastLadder::taobao_default(StreamId::new(100))),
            Some(Bandwidth::from_mbps(10)),
            SimTime::ZERO,
        )
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn initial_rendition_selected_from_bandwidth() {
        let fast = ctl();
        assert_eq!(fast.stream, StreamId::new(100)); // 720p
        let slow = ClientControl::new(
            ClientId::new(2),
            StreamId::new(100),
            Some(SimulcastLadder::taobao_default(StreamId::new(100))),
            Some(Bandwidth::from_kbps(1500)),
            SimTime::ZERO,
        );
        assert_eq!(slow.stream, StreamId::new(101)); // 480p
    }

    #[test]
    fn no_drops_when_healthy() {
        let mut c = ctl();
        for i in 0..100 {
            assert!(c.admit(at(i), Some(FrameKind::BUnref), false));
        }
        assert_eq!(c.stats.admitted, 100);
    }

    #[test]
    fn escalation_drops_bunref_first() {
        let mut c = ctl();
        // Sustained backlog (> 300 ms) escalates to level 1.
        for i in (0..=350).step_by(50) {
            c.admit(at(i), Some(FrameKind::P), true);
        }
        assert_eq!(c.drop_level, LEVEL_BUNREF);
        assert!(!c.admit(at(360), Some(FrameKind::BUnref), true));
        assert!(c.admit(at(370), Some(FrameKind::B), true));
        assert!(c.admit(at(380), Some(FrameKind::P), true));
        assert!(c.stats.dropped_bunref > 0);
        assert_eq!(c.stats.dropped_b, 0);
    }

    #[test]
    fn full_ladder_escalation_reaches_gop_skip() {
        let mut c = ctl();
        let mut t = 0;
        while c.drop_level < LEVEL_GOP {
            c.admit(at(t), Some(FrameKind::P), true);
            t += 50;
            assert!(t < 100_000, "never reached GoP level");
        }
        // At GoP level, dropping a P frame triggers skip-to-next-I.
        assert!(!c.admit(at(t), Some(FrameKind::P), true));
        assert!(!c.admit(at(t + 1), Some(FrameKind::B), true));
        // The next I frame resumes delivery.
        assert!(c.admit(at(t + 2), Some(FrameKind::I), true));
    }

    #[test]
    fn audio_is_never_dropped() {
        let mut c = ctl();
        let mut t = 0;
        while c.drop_level < LEVEL_GOP {
            c.admit(at(t), Some(FrameKind::P), true);
            t += 50;
        }
        assert!(c.admit(at(t), Some(FrameKind::Audio), true));
    }

    #[test]
    fn quiet_period_relaxes_level() {
        let mut c = ctl();
        for i in (0..=350).step_by(50) {
            c.admit(at(i), Some(FrameKind::P), true);
        }
        assert_eq!(c.drop_level, LEVEL_BUNREF);
        // One non-backlogged admit long after the last backlog.
        c.admit(at(5_000), Some(FrameKind::P), false);
        assert_eq!(c.drop_level, LEVEL_NONE);
    }

    #[test]
    fn sustained_p_dropping_requests_step_down() {
        let mut c = ctl();
        let mut t = 0;
        while c.drop_level < LEVEL_P {
            c.admit(at(t), Some(FrameKind::P), true);
            t += 50;
        }
        assert!(!c.wants_lower_bitrate(at(t)));
        let later = at(t + STEP_DOWN_AFTER.as_millis() + 1);
        assert!(c.wants_lower_bitrate(later));
        let lower = c.lower_rendition().unwrap();
        c.apply_step_down(lower, later);
        assert_eq!(c.stream, lower);
        assert_eq!(c.drop_level, LEVEL_NONE);
        assert_eq!(c.stats.step_downs, 1);
        // Already at the bottom: no further step-down available.
        assert!(c.lower_rendition().is_none());
    }

    #[test]
    fn seamless_switch_flips_stream_once_ready() {
        let mut c = ctl();
        let old = c.stream;
        let co = StreamId::new(500);
        c.begin_switch(co);
        assert_eq!(c.pending_switch(), Some(co));
        assert_eq!(c.stream, old, "old stream keeps flowing until GoP ready");
        let prev = c.complete_switch().unwrap();
        assert_eq!(prev, old);
        assert_eq!(c.stream, co);
        assert_eq!(c.stats.switches, 1);
        assert_eq!(c.pending_switch(), None);
    }

    #[test]
    fn switch_to_same_stream_is_noop() {
        let mut c = ctl();
        c.begin_switch(c.stream);
        assert_eq!(c.pending_switch(), None);
        assert!(c.complete_switch().is_none());
    }

    #[test]
    fn transient_burst_does_not_escalate() {
        let mut c = ctl();
        // 100 backlogged admissions within 80 ms (a GoP burst draining):
        // time-based escalation must not trigger.
        for i in 0..100u64 {
            c.admit(SimTime::from_micros(800 * i), Some(FrameKind::P), true);
        }
        assert_eq!(c.drop_level, LEVEL_NONE);
    }

    #[test]
    fn unknown_kind_is_admitted() {
        let mut c = ctl();
        assert!(c.admit(at(0), None, true));
    }
}
