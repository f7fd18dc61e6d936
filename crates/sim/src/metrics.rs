//! Session records and aggregation helpers mirroring the paper's logs.
//!
//! The paper's evaluation draws on three data sources (§6.1): consumer-node
//! logs (path length, CDN path delay, first-packet delay, local-hit flag),
//! client logs (streaming delay, stalls, fast-startup flag), and Path
//! Decision logs (response time). [`SessionRecord`] carries the union of
//! these per viewing session.

use livenet_telemetry::{ids, FixedHistogram, MetricSink, TelemetryHub, DEFAULT_MS_BOUNDS};
use livenet_types::{Ecdf, SimTime};

/// How a session's path decision was served — the Path Decision log's
/// outcome field as one typed value.
///
/// Replaces the three loosely-coupled `SessionRecord` fields (`local_hit`,
/// `last_resort`, `brain_response_ms`) that could previously encode
/// impossible combinations (e.g. a local hit with a brain response time).
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRecord {
    /// Session start time.
    pub start: SimTime,
    /// Day index (0-based); `FleetConfig::validate` caps a run at 65,536
    /// days, so it never wraps.
    pub day: u16,
    /// Hour of day (0–23).
    pub hour: u8,
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

// A fleet run holds two records per session (LiveNet and Hier), so the
// record's size is the run's memory: keep the narrow fields narrow.
const _: () = assert!(size_of::<SessionRecord>() == 40);

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

/// One shard's per-session telemetry — counters by decision outcome plus
/// the per-stage latency histograms (`stage.*`) that attribute startup
/// latency the way the paper's client logs support (Fig. 10) — kept in
/// fixed fields and folded into the shard's hub once, at the end of the
/// run.
///
/// Recording a session here is a few integer adds and five bucket scans;
/// recording it into a [`TelemetryHub`] walked a `BTreeMap` keyed by metric
/// name seven times. The fold is exact (counters are integers, histogram
/// sums fixed-point), and it inserts no counter that stayed zero and no
/// histogram that stayed empty, so the folded snapshot equals the one
/// per-session recording into the hub would have built.
#[derive(Debug)]
pub(crate) struct SessionTally {
    sessions: u64,
    local_hits: u64,
    prefetched: u64,
    brain_served: u64,
    last_resort: u64,
    /// Arrivals whose channel had gone offline: no session, no record.
    raced_offline: u64,
    brain_lookup_ms: FixedHistogram,
    first_packet_ms: FixedHistogram,
    startup_ms: FixedHistogram,
    cdn_path_ms: FixedHistogram,
    streaming_ms: FixedHistogram,
}

impl SessionTally {
    pub(crate) fn new() -> SessionTally {
        let hist = || FixedHistogram::new(DEFAULT_MS_BOUNDS);
        SessionTally {
            sessions: 0,
            local_hits: 0,
            prefetched: 0,
            brain_served: 0,
            last_resort: 0,
            raced_offline: 0,
            brain_lookup_ms: hist(),
            first_packet_ms: hist(),
            startup_ms: hist(),
            cdn_path_ms: hist(),
            streaming_ms: hist(),
        }
    }

    /// Count one session by its outcome and observe its stage latencies.
    pub(crate) fn record(&mut self, s: &SessionRecord) {
        self.sessions += 1;
        match s.outcome {
            DecisionOutcome::LocalHit => self.local_hits += 1,
            DecisionOutcome::Prefetched => self.prefetched += 1,
            DecisionOutcome::Brain { response_ms } => {
                self.brain_served += 1;
                self.brain_lookup_ms.observe(f64::from(response_ms));
            }
            DecisionOutcome::LastResort { response_ms } => {
                self.last_resort += 1;
                if let Some(ms) = response_ms {
                    self.brain_lookup_ms.observe(f64::from(ms));
                }
            }
        }
        self.first_packet_ms.observe(f64::from(s.first_packet_ms));
        self.startup_ms.observe(f64::from(s.startup_ms));
        self.cdn_path_ms.observe(f64::from(s.cdn_delay_ms));
        self.streaming_ms.observe(f64::from(s.streaming_delay_ms));
    }

    /// An arrival found its channel offline.
    pub(crate) fn raced_offline(&mut self) {
        self.raced_offline += 1;
    }

    /// Fold the tally into `hub`, skipping zero counters and empty
    /// histograms.
    pub(crate) fn fold_into(&self, hub: &mut TelemetryHub) {
        let counters = [
            (ids::FLEET_SESSIONS, self.sessions),
            (ids::FLEET_LOCAL_HITS, self.local_hits),
            (ids::FLEET_PREFETCHED, self.prefetched),
            (ids::FLEET_BRAIN_SERVED, self.brain_served),
            (ids::FLEET_LAST_RESORT, self.last_resort),
            (ids::FLEET_RACED_OFFLINE, self.raced_offline),
        ];
        for (id, n) in counters.into_iter().filter(|&(_, n)| n > 0) {
            hub.add(id, n);
        }
        let hists = [
            (ids::STAGE_BRAIN_LOOKUP_MS, &self.brain_lookup_ms),
            (ids::STAGE_FIRST_PACKET_MS, &self.first_packet_ms),
            (ids::STAGE_STARTUP_MS, &self.startup_ms),
            (ids::STAGE_CDN_PATH_MS, &self.cdn_path_ms),
            (ids::STAGE_STREAMING_MS, &self.streaming_ms),
        ];
        for (id, h) in hists.into_iter().filter(|(_, h)| h.count() > 0) {
            hub.merge_histogram(id, h);
        }
    }
}

/// Summary statistics over a slice of sessions — the Table 1 row set.
#[derive(Debug, Clone, PartialEq)]
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

    /// The oracle: one session recorded straight into a hub, metric by
    /// metric, as the fleet did before it kept a tally.
    fn record_into_hub(hub: &mut TelemetryHub, s: &SessionRecord) {
        hub.incr(ids::FLEET_SESSIONS);
        match s.outcome {
            DecisionOutcome::LocalHit => hub.incr(ids::FLEET_LOCAL_HITS),
            DecisionOutcome::Prefetched => hub.incr(ids::FLEET_PREFETCHED),
            DecisionOutcome::Brain { response_ms } => {
                hub.incr(ids::FLEET_BRAIN_SERVED);
                hub.observe(ids::STAGE_BRAIN_LOOKUP_MS, f64::from(response_ms));
            }
            DecisionOutcome::LastResort { response_ms } => {
                hub.incr(ids::FLEET_LAST_RESORT);
                if let Some(ms) = response_ms {
                    hub.observe(ids::STAGE_BRAIN_LOOKUP_MS, f64::from(ms));
                }
            }
        }
        hub.observe(ids::STAGE_FIRST_PACKET_MS, f64::from(s.first_packet_ms));
        hub.observe(ids::STAGE_STARTUP_MS, f64::from(s.startup_ms));
        hub.observe(ids::STAGE_CDN_PATH_MS, f64::from(s.cdn_delay_ms));
        hub.observe(ids::STAGE_STREAMING_MS, f64::from(s.streaming_delay_ms));
    }

    #[test]
    fn the_tally_counts_outcomes_and_stage_latencies() {
        let mut tally = SessionTally::new();
        let mut brain_rec = rec(500.0, 0);
        brain_rec.outcome = DecisionOutcome::Brain { response_ms: 42.0 };
        let mut lr_rec = rec(1200.0, 1);
        lr_rec.outcome = DecisionOutcome::LastResort { response_ms: None };
        for s in [rec(500.0, 0), brain_rec, lr_rec] {
            tally.record(&s);
        }
        let mut hub = TelemetryHub::new();
        tally.fold_into(&mut hub);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("fleet.sessions"), 3);
        assert_eq!(snap.counter("fleet.local_hits"), 1);
        assert_eq!(snap.counter("fleet.brain_served"), 1);
        assert_eq!(snap.counter("fleet.last_resort"), 1);
        let lookup = snap.hist("stage.brain_lookup_ms").unwrap();
        assert_eq!(lookup.count, 1);
        assert!((lookup.mean().unwrap() - 42.0).abs() < 1e-9);
        assert_eq!(snap.hist("stage.startup_ms").unwrap().count, 3);
        // Nothing was prefetched and no arrival raced offline: neither
        // counter is in the snapshot, not even as a zero.
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!names.contains(&"fleet.prefetched"), "{names:?}");
        assert!(!names.contains(&"fleet.raced_offline"), "{names:?}");
    }

    /// A record from drawn fields: `kind` picks the outcome, `response`
    /// its lookup time where it has one.
    fn drawn(kind: u8, response: Option<f64>, ms: (f64, f64, f64, f64)) -> SessionRecord {
        let response = response.map(|v| v as f32);
        let mut s = rec(ms.1 as f32, 0);
        s.first_packet_ms = ms.0 as f32;
        s.cdn_delay_ms = ms.2 as f32;
        s.streaming_delay_ms = ms.3 as f32;
        s.outcome = match kind {
            0 => DecisionOutcome::LocalHit,
            1 => DecisionOutcome::Prefetched,
            2 => DecisionOutcome::Brain {
                response_ms: response.unwrap_or(0.0),
            },
            _ => DecisionOutcome::LastResort {
                response_ms: response,
            },
        };
        s
    }

    livenet_cases::proptest! {
        #![proptest_config(livenet_cases::ProptestConfig::with_cases(256))]
        #[test]
        fn a_folded_tally_equals_recording_each_session_into_the_hub(
            fields in livenet_cases::prop::collection::vec(
                (
                    0u8..4,
                    livenet_cases::prop::option::of(0.0f64..3_000.0),
                    (0.0f64..40_000.0, 0.0f64..40_000.0, 0.0f64..1_000.0, 0.0f64..5_000.0),
                ),
                0..40,
            ),
            offline in 0u64..3,
        ) {
            let records: Vec<SessionRecord> = fields
                .into_iter()
                .map(|(kind, response, ms)| drawn(kind, response, ms))
                .collect();
            let mut direct = TelemetryHub::new();
            let mut tally = SessionTally::new();
            for s in &records {
                record_into_hub(&mut direct, s);
                tally.record(s);
            }
            for _ in 0..offline {
                direct.incr(ids::FLEET_RACED_OFFLINE);
                tally.raced_offline();
            }
            let mut folded = TelemetryHub::new();
            tally.fold_into(&mut folded);
            livenet_cases::prop_assert_eq!(folded.snapshot(), direct.snapshot());
        }
    }
}
