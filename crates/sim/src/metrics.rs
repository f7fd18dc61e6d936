//! Session records and aggregation helpers mirroring the paper's logs.
//!
//! The paper's evaluation draws on three data sources (§6.1): consumer-node
//! logs (path length, CDN path delay, first-packet delay, local-hit flag),
//! client logs (streaming delay, stalls, fast-startup flag), and Path
//! Decision logs (response time). [`SessionRecord`] carries the union of
//! these per viewing session.

use livenet_telemetry::{ids, MetricSink};
use livenet_types::{Ecdf, SimTime};
use serde::{Deserialize, Serialize};

/// How a session's path decision was served — the Path Decision log's
/// outcome field as one typed value.
///
/// Replaces the three loosely-coupled `SessionRecord` fields (`local_hit`,
/// `last_resort`, `brain_response_ms`) that could previously encode
/// impossible combinations (e.g. a local hit with a brain response time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionOutcome {
    /// The consumer node already carried the stream; no lookup at all.
    LocalHit,
    /// Served from a prefetched/degenerate path with no Brain round trip
    /// (popular broadcasters' paths are pushed to all nodes, §4.4).
    Prefetched,
    /// Served by a live Brain round trip.
    Brain {
        /// Path Decision log: response time.
        response_ms: f32,
    },
    /// Served via a last-resort path (PIB miss or overload filtering).
    LastResort {
        /// Response time of the failed lookup, when one was made.
        response_ms: Option<f32>,
    },
}

impl DecisionOutcome {
    /// The consumer already had the path/stream.
    pub fn is_local_hit(self) -> bool {
        matches!(self, DecisionOutcome::LocalHit)
    }

    /// The session was served via a last-resort path.
    pub fn is_last_resort(self) -> bool {
        matches!(self, DecisionOutcome::LastResort { .. })
    }

    /// Path Decision response time, when a Brain round trip happened.
    pub fn response_ms(self) -> Option<f32> {
        match self {
            DecisionOutcome::Brain { response_ms } => Some(response_ms),
            DecisionOutcome::LastResort { response_ms } => response_ms,
            DecisionOutcome::LocalHit | DecisionOutcome::Prefetched => None,
        }
    }
}

/// One viewing session's metrics for one system (LiveNet or Hier).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Session start time.
    pub start: SimTime,
    /// Day index (0-based).
    pub day: u32,
    /// Hour of day (0–23).
    pub hour: u32,
    /// Overlay hops actually traversed (realized path, incl. long chains).
    pub path_len: u8,
    /// True when the viewer and broadcaster are in different countries.
    pub international: bool,
    /// Consumer node log: CDN path delay.
    pub cdn_delay_ms: f32,
    /// Client log: end-to-end streaming delay.
    pub streaming_delay_ms: f32,
    /// Consumer node log: first-packet delay.
    pub first_packet_ms: f32,
    /// Client log: startup delay (request → playback).
    pub startup_ms: f32,
    /// Client log: number of stalls during the view.
    pub stalls: u16,
    /// Path Decision log: how the path decision was served.
    pub outcome: DecisionOutcome,
}

impl SessionRecord {
    /// Paper definition: startup within 1 second.
    pub fn fast_startup(&self) -> bool {
        self.startup_ms < 1000.0
    }

    /// Paper definition: no stalls during the view.
    pub fn zero_stall(&self) -> bool {
        self.stalls == 0
    }
}

/// Record one session — counters by decision outcome plus the per-stage
/// latency histograms (`stage.*`) that attribute startup latency the way
/// the paper's client logs support (Fig. 10) — into a metric sink.
///
/// This is the [`MetricSink`] port of the aggregation `summarize` does by
/// hand; the fleet simulator calls it per LiveNet session.
pub fn record_session(sink: &mut impl MetricSink, s: &SessionRecord) {
    sink.incr(ids::FLEET_SESSIONS);
    match s.outcome {
        DecisionOutcome::LocalHit => sink.incr(ids::FLEET_LOCAL_HITS),
        DecisionOutcome::Prefetched => sink.incr(ids::FLEET_PREFETCHED),
        DecisionOutcome::Brain { response_ms } => {
            sink.incr(ids::FLEET_BRAIN_SERVED);
            sink.observe(ids::STAGE_BRAIN_LOOKUP_MS, f64::from(response_ms));
        }
        DecisionOutcome::LastResort { response_ms } => {
            sink.incr(ids::FLEET_LAST_RESORT);
            if let Some(ms) = response_ms {
                sink.observe(ids::STAGE_BRAIN_LOOKUP_MS, f64::from(ms));
            }
        }
    }
    sink.observe(ids::STAGE_FIRST_PACKET_MS, f64::from(s.first_packet_ms));
    sink.observe(ids::STAGE_STARTUP_MS, f64::from(s.startup_ms));
    sink.observe(ids::STAGE_CDN_PATH_MS, f64::from(s.cdn_delay_ms));
    sink.observe(ids::STAGE_STREAMING_MS, f64::from(s.streaming_delay_ms));
}

/// Summary statistics over a slice of sessions — the Table 1 row set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Number of sessions.
    pub sessions: usize,
    /// Median CDN path delay (ms).
    pub median_cdn_delay_ms: f64,
    /// Median path length (hops).
    pub median_path_len: f64,
    /// Median streaming delay (ms).
    pub median_streaming_delay_ms: f64,
    /// Fraction of sessions with zero stalls.
    pub zero_stall_ratio: f64,
    /// Fraction of sessions starting within 1 s.
    pub fast_startup_ratio: f64,
    /// Fraction of sessions with a local hit.
    pub local_hit_ratio: f64,
    /// Fraction of sessions on last-resort paths.
    pub last_resort_ratio: f64,
}

/// Compute the Table-1 summary over sessions.
pub fn summarize(sessions: &[SessionRecord]) -> SessionSummary {
    let mut cdn = Ecdf::new();
    let mut len = Ecdf::new();
    let mut stream = Ecdf::new();
    let mut zero_stall = 0usize;
    let mut fast = 0usize;
    let mut hits = 0usize;
    let mut lr = 0usize;
    for s in sessions {
        cdn.push(f64::from(s.cdn_delay_ms));
        len.push(f64::from(s.path_len));
        stream.push(f64::from(s.streaming_delay_ms));
        zero_stall += usize::from(s.zero_stall());
        fast += usize::from(s.fast_startup());
        hits += usize::from(s.outcome.is_local_hit());
        lr += usize::from(s.outcome.is_last_resort());
    }
    let n = sessions.len().max(1);
    SessionSummary {
        sessions: sessions.len(),
        median_cdn_delay_ms: cdn.median(),
        median_path_len: len.median(),
        median_streaming_delay_ms: stream.median(),
        zero_stall_ratio: zero_stall as f64 / n as f64,
        fast_startup_ratio: fast as f64 / n as f64,
        local_hit_ratio: hits as f64 / n as f64,
        last_resort_ratio: lr as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(startup: f32, stalls: u16) -> SessionRecord {
        SessionRecord {
            start: SimTime::ZERO,
            day: 0,
            hour: 0,
            path_len: 2,
            international: false,
            cdn_delay_ms: 188.0,
            streaming_delay_ms: 950.0,
            first_packet_ms: 80.0,
            startup_ms: startup,
            stalls,
            outcome: DecisionOutcome::LocalHit,
        }
    }

    #[test]
    fn fast_startup_threshold_is_one_second() {
        assert!(rec(999.0, 0).fast_startup());
        assert!(!rec(1000.0, 0).fast_startup());
    }

    #[test]
    fn summarize_ratios() {
        let sessions = vec![rec(500.0, 0), rec(1500.0, 2), rec(700.0, 0), rec(800.0, 1)];
        let s = summarize(&sessions);
        assert_eq!(s.sessions, 4);
        assert!((s.fast_startup_ratio - 0.75).abs() < 1e-9);
        assert!((s.zero_stall_ratio - 0.5).abs() < 1e-9);
        assert_eq!(s.median_path_len, 2.0);
        assert_eq!(s.median_cdn_delay_ms, 188.0);
    }

    #[test]
    fn record_session_counts_outcomes_and_stage_latencies() {
        use livenet_telemetry::TelemetryHub;
        let mut hub = TelemetryHub::new();
        let mut brain_rec = rec(500.0, 0);
        brain_rec.outcome = DecisionOutcome::Brain { response_ms: 42.0 };
        let mut lr_rec = rec(1200.0, 1);
        lr_rec.outcome = DecisionOutcome::LastResort { response_ms: None };
        for s in [rec(500.0, 0), brain_rec, lr_rec] {
            record_session(&mut hub, &s);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter("fleet.sessions"), 3);
        assert_eq!(snap.counter("fleet.local_hits"), 1);
        assert_eq!(snap.counter("fleet.brain_served"), 1);
        assert_eq!(snap.counter("fleet.last_resort"), 1);
        let lookup = snap.hist("stage.brain_lookup_ms").unwrap();
        assert_eq!(lookup.count, 1);
        assert!((lookup.mean().unwrap() - 42.0).abs() < 1e-9);
        assert_eq!(snap.hist("stage.startup_ms").unwrap().count, 3);
    }
}
