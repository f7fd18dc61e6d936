//! The recording API ([`MetricSink`]) and the in-memory aggregator
//! ([`TelemetryHub`]).

use livenet_types::SimTime;
use std::collections::BTreeMap;

use crate::hist::{FixedHistogram, DEFAULT_MS_BOUNDS};
use crate::id::MetricId;
use crate::snapshot::Snapshot;

/// The unified metric-recording trait every layer instruments against.
///
/// Three primitive shapes cover the stack: monotonic counters (`add`),
/// high-water gauges (`gauge_max`) and fixed-bucket histograms (`observe`).
/// All three merge associatively and commutatively, which is what lets
/// per-shard recordings collapse into one deterministic [`Snapshot`].
pub trait MetricSink {
    /// Add `delta` to the counter `id`.
    fn add(&mut self, id: MetricId, delta: u64);

    /// Raise the gauge `id` to `value` if `value` is higher (by
    /// `f64::total_cmp`, so the operation is exact and order-free).
    fn gauge_max(&mut self, id: MetricId, value: f64);

    /// Record `value` into the histogram `id` using the given static bucket
    /// bounds.  All observations of one `id` must use the same bounds.
    fn observe_with(&mut self, id: MetricId, bounds: &'static [f64], value: f64);

    /// Increment the counter `id` by one.
    fn incr(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Record a latency-style `value` (milliseconds) into the histogram
    /// `id` with the default millisecond bounds.
    fn observe(&mut self, id: MetricId, value: f64) {
        self.observe_with(id, DEFAULT_MS_BOUNDS, value);
    }
}

/// In-memory aggregation of everything recorded through [`MetricSink`].
///
/// Keys are `BTreeMap`s so iteration — and therefore [`Snapshot`] layout —
/// is sorted by metric name with no hashing nondeterminism.
#[derive(Clone, Debug, Default)]
pub struct TelemetryHub {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    hists: BTreeMap<MetricId, FixedHistogram>,
}

impl TelemetryHub {
    /// An empty hub.
    pub fn new() -> Self {
        TelemetryHub::default()
    }

    /// Current value of a counter (zero if never recorded).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters.get(&id).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever recorded.
    pub fn gauge(&self, id: MetricId) -> Option<f64> {
        self.gauges.get(&id).copied()
    }

    /// The histogram recorded under `id`, if any.
    pub fn histogram(&self, id: MetricId) -> Option<&FixedHistogram> {
        self.hists.get(&id)
    }

    /// Fold every metric from `other` into `self`: counters add, gauges take
    /// the max, histograms merge exactly.
    pub fn merge(&mut self, other: &TelemetryHub) {
        for (&id, &v) in &other.counters {
            *self.counters.entry(id).or_insert(0) += v;
        }
        for (&id, &v) in &other.gauges {
            merge_gauge(&mut self.gauges, id, v);
        }
        for (&id, h) in &other.hists {
            self.hists
                .entry(id)
                .or_insert_with(|| FixedHistogram::new(h.bounds()))
                .merge(h);
        }
    }

    /// Freeze the hub into its canonical serialized form.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(&self.counters, &self.gauges, &self.hists)
    }
}

fn merge_gauge(gauges: &mut BTreeMap<MetricId, f64>, id: MetricId, value: f64) {
    gauges
        .entry(id)
        .and_modify(|g| {
            if value.total_cmp(g).is_gt() {
                *g = value;
            }
        })
        .or_insert(value);
}

impl MetricSink for TelemetryHub {
    fn add(&mut self, id: MetricId, delta: u64) {
        *self.counters.entry(id).or_insert(0) += delta;
    }

    fn gauge_max(&mut self, id: MetricId, value: f64) {
        merge_gauge(&mut self.gauges, id, value);
    }

    fn observe_with(&mut self, id: MetricId, bounds: &'static [f64], value: f64) {
        self.hists
            .entry(id)
            .or_insert_with(|| FixedHistogram::new(bounds))
            .observe(value);
    }
}

/// A virtual-time interval that records its duration into a histogram when
/// closed.  There is no wall-clock involved: both endpoints are `SimTime`,
/// so spans are as deterministic as the event loop driving them.
///
/// ```
/// use livenet_telemetry::{ids, Span, TelemetryHub};
/// use livenet_types::SimTime;
///
/// let mut hub = TelemetryHub::new();
/// let span = Span::begin(ids::STAGE_STARTUP_MS, SimTime::from_millis(1000));
/// // ... simulated work ...
/// span.end(&mut hub, SimTime::from_millis(1250));
/// assert_eq!(hub.histogram(ids::STAGE_STARTUP_MS).unwrap().count(), 1);
/// ```
#[derive(Clone, Copy, Debug)]
#[must_use = "a span records nothing until `end` is called"]
pub struct Span {
    id: MetricId,
    start: SimTime,
}

impl Span {
    /// Open a span for `id` starting at virtual time `now`.
    pub fn begin(id: MetricId, now: SimTime) -> Self {
        Span { id, start: now }
    }

    /// The span's metric id.
    pub fn id(&self) -> MetricId {
        self.id
    }

    /// The span's start time.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Close the span at virtual time `now`, recording the elapsed
    /// milliseconds into `sink` under the span's id.
    pub fn end(self, sink: &mut impl MetricSink, now: SimTime) {
        sink.observe(self.id, now.saturating_since(self.start).as_millis_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ids;

    #[test]
    fn hub_records_all_shapes() {
        let mut hub = TelemetryHub::new();
        hub.incr(ids::FLEET_SESSIONS);
        hub.add(ids::FLEET_SESSIONS, 4);
        hub.gauge_max(ids::FLEET_PEAK_VIEWERS, 10.0);
        hub.gauge_max(ids::FLEET_PEAK_VIEWERS, 7.0);
        hub.observe(ids::STAGE_STARTUP_MS, 123.0);
        assert_eq!(hub.counter(ids::FLEET_SESSIONS), 5);
        assert_eq!(hub.gauge(ids::FLEET_PEAK_VIEWERS), Some(10.0));
        assert_eq!(hub.histogram(ids::STAGE_STARTUP_MS).unwrap().count(), 1);
    }

    #[test]
    fn hub_merge_matches_single_recording() {
        let mut a = TelemetryHub::new();
        let mut b = TelemetryHub::new();
        let mut whole = TelemetryHub::new();
        for i in 0..50 {
            let (shard, v) = if i % 2 == 0 { (&mut a, i) } else { (&mut b, i) };
            shard.incr(ids::FLEET_SESSIONS);
            shard.observe(ids::STAGE_STARTUP_MS, v as f64);
            whole.incr(ids::FLEET_SESSIONS);
            whole.observe(ids::STAGE_STARTUP_MS, i as f64);
        }
        let mut merged = TelemetryHub::new();
        merged.merge(&a);
        merged.merge(&b);
        assert!(merged.snapshot().bit_identical(&whole.snapshot()));
    }

    #[test]
    fn span_records_elapsed_virtual_time() {
        let mut hub = TelemetryHub::new();
        let span = Span::begin(ids::STAGE_RECOVERY_MS, SimTime::from_millis(2000));
        span.end(&mut hub, SimTime::from_millis(2500));
        let h = hub.histogram(ids::STAGE_RECOVERY_MS).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(500.0));
    }
}
