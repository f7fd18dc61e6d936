//! Consumer-side fine-grained stream control (paper §5.2).
//!
//! The consumer node is the client's delegate ("thin clients", §7.2): it
//! proactively drops frames when the per-client send queue builds up
//! (unreferenced B frames → B frames → P frames → the whole GoP) and
//! performs seamless stream switching during co-broadcasts. A stream has
//! one rendition here, so the paper's step-down to a lower-bitrate
//! simulcast version when the queue keeps building is not reproduced.

use livenet_media::FrameKind;
use livenet_types::{ClientId, SimDuration, SimTime, StreamId};

/// Counters for one client's queue policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Per-client control state held by a consumer node.
#[derive(Debug, Clone)]
pub struct ClientControl {
    /// The viewer.
    pub client: ClientId,
    /// The stream currently forwarded to the viewer.
    pub stream: StreamId,
    drop_level: u8,
    gop_skipping: bool,
    backlog_since: Option<SimTime>,
    last_backlog: Option<SimTime>,
    pending_switch: Option<StreamId>,
    /// Policy counters.
    pub stats: ClientQueueStats,
}

impl ClientControl {
    /// Attach a client to the stream it requested.
    pub(crate) fn new(client: ClientId, requested: StreamId) -> Self {
        ClientControl {
            client,
            stream: requested,
            drop_level: LEVEL_NONE,
            gop_skipping: false,
            backlog_since: None,
            last_backlog: None,
            pending_switch: None,
            stats: ClientQueueStats::default(),
        }
    }

    /// Decide whether to enqueue one packet toward this client.
    ///
    /// `kind` is the packet's frame kind (None = unknown → always admit);
    /// `backlogged` is the pacer's queue-pressure signal.
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        kind: Option<FrameKind>,
        backlogged: bool,
    ) -> bool {
        self.update_level(now, backlogged);

        let Some(kind) = kind else {
            self.stats.admitted += 1;
            return true;
        };

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
            FrameKind::I => true,
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
            }
        } else {
            self.backlog_since = None;
            let quiet = self
                .last_backlog
                .map(|t| now.saturating_since(t) >= RELAX_AFTER)
                .unwrap_or(true);
            if quiet && self.drop_level > LEVEL_NONE {
                self.drop_level -= 1;
            }
        }
    }

    /// Begin a seamless switch to `new_stream` (co-streaming, §5.2). The
    /// consumer keeps forwarding the old stream until a complete GoP of the
    /// new stream is available, then calls [`Self::complete_switch`].
    pub(crate) fn begin_switch(&mut self, new_stream: StreamId) {
        if new_stream != self.stream {
            self.pending_switch = Some(new_stream);
        }
    }

    /// The switch target, if one is pending.
    pub(crate) fn pending_switch(&self) -> Option<StreamId> {
        self.pending_switch
    }

    /// Complete a pending switch: the client's forwarding flips to the new
    /// stream with no gap (it has a full GoP buffered).
    pub(crate) fn complete_switch(&mut self) -> Option<StreamId> {
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
        ClientControl::new(ClientId::new(1), StreamId::new(100))
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
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
    fn unknown_kind_is_admitted_while_skipping_a_gop() {
        let mut c = ctl();
        let mut t = 0;
        while c.drop_level < LEVEL_GOP {
            c.admit(at(t), Some(FrameKind::P), true);
            t += 50;
        }
        // Dropping a P at GoP level turns skipping on ...
        assert!(!c.admit(at(t), Some(FrameKind::P), true));
        assert!(c.gop_skipping);
        // ... and a packet whose kind does not decode still goes through.
        assert!(c.admit(at(t + 1), None, true));
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
