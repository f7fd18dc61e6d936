//! The canonical, serializable, mergeable form of a [`TelemetryHub`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::hist::FixedHistogram;
use crate::id::MetricId;

/// Frozen histogram state inside a [`Snapshot`].
///
/// All aggregate fields are integers (fixed-point where the source was a
/// float), so equality, merging and serialization are exact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Bucket upper bounds the histogram was built with.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum in fixed-point (observation units × 1000).
    pub sum_fp: i128,
    /// Smallest observation in fixed-point; `i64::MAX` when empty.
    pub min_fp: i64,
    /// Largest observation in fixed-point; `i64::MIN` when empty.
    pub max_fp: i64,
}

impl HistSnapshot {
    fn from_hist(h: &FixedHistogram) -> Self {
        HistSnapshot {
            bounds: h.bounds().to_vec(),
            counts: h.counts.clone(),
            count: h.count(),
            sum_fp: h.sum_fp,
            min_fp: h.min_fp,
            max_fp: h.max_fp,
        }
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum_fp as f64 / 1000.0 / self.count as f64)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_fp as f64 / 1000.0)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_fp as f64 / 1000.0)
    }

    /// Approximate quantile read off the bucket bounds (the upper bound of
    /// the bucket holding the q-th observation; overflow hits report the
    /// recorded maximum).  `None` when empty.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max_fp as f64 / 1000.0
                });
            }
        }
        Some(self.max_fp as f64 / 1000.0)
    }

    fn merge(&mut self, other: &HistSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histogram snapshots with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_fp += other.sum_fp;
        self.min_fp = self.min_fp.min(other.min_fp);
        self.max_fp = self.max_fp.max(other.max_fp);
    }

    fn bit_identical(&self, other: &HistSnapshot) -> bool {
        self.counts == other.counts
            && self.count == other.count
            && self.sum_fp == other.sum_fp
            && self.min_fp == other.min_fp
            && self.max_fp == other.max_fp
            && self.bounds.len() == other.bounds.len()
            && self
                .bounds
                .iter()
                .zip(&other.bounds)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// A frozen, canonical view of a [`TelemetryHub`]: every metric sorted by
/// name, every aggregate exact.
///
/// Snapshots follow the same determinism discipline as `FleetReport`:
/// [`Snapshot::merge`] is associative and commutative, and
/// [`Snapshot::bit_identical`] compares floats by `to_bits`, so a serial
/// fleet run and a sharded parallel run must produce byte-for-byte the same
/// snapshot or the determinism contract is broken.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values, sorted by metric name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (high-water marks), sorted by metric name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by metric name.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    pub(crate) fn from_parts(
        counters: &BTreeMap<MetricId, u64>,
        gauges: &BTreeMap<MetricId, f64>,
        hists: &BTreeMap<MetricId, FixedHistogram>,
    ) -> Self {
        Snapshot {
            counters: counters
                .iter()
                .map(|(id, &v)| (id.name().to_string(), v))
                .collect(),
            gauges: gauges
                .iter()
                .map(|(id, &v)| (id.name().to_string(), v))
                .collect(),
            hists: hists
                .iter()
                .map(|(id, h)| (id.name().to_string(), HistSnapshot::from_hist(h)))
                .collect(),
        }
    }

    /// True when no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Look up a counter by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Look up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.hists[i].1)
    }

    /// Fold `other` into `self` by metric name: counters add, gauges take
    /// the max under `f64::total_cmp`, histograms merge exactly.  The
    /// operation is associative and commutative, so any merge order over any
    /// sharding of the same recordings yields bit-identical results.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => {
                    if v.total_cmp(&self.gauges[i].1).is_gt() {
                        self.gauges[i].1 = *v;
                    }
                }
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.hists {
            match self.hists.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.hists[i].1.merge(h),
                Err(i) => self.hists.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    /// Exact equality with floats compared by `to_bits` — the determinism
    /// assertion used by the fleet runner and its tests.
    pub fn bit_identical(&self, other: &Snapshot) -> bool {
        self.counters == other.counters
            && self.gauges.len() == other.gauges.len()
            && self
                .gauges
                .iter()
                .zip(&other.gauges)
                .all(|((an, av), (bn, bv))| an == bn && av.to_bits() == bv.to_bits())
            && self.hists.len() == other.hists.len()
            && self
                .hists
                .iter()
                .zip(&other.hists)
                .all(|((an, ah), (bn, bh))| an == bn && ah.bit_identical(bh))
    }

    /// Serialize to a deterministic JSON string (2-space indent, metrics in
    /// sorted name order, histogram aggregates as exact integers).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {}", json_f64(*v)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"hists\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{name}\": {{\"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum_fp\": {}, \"min_fp\": {}, \"max_fp\": {}}}",
                h.bounds
                    .iter()
                    .map(|b| json_f64(*b))
                    .collect::<Vec<_>>()
                    .join(", "),
                h.counts
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                h.count,
                h.sum_fp,
                h.min_fp,
                h.max_fp,
            ));
        }
        if !self.hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }
}

/// Format an `f64` as a JSON number (non-finite values become `null`; Rust's
/// shortest-roundtrip formatting keeps the output deterministic).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{MetricSink, TelemetryHub};
    use crate::id::ids;

    fn sample(offset: u64) -> Snapshot {
        let mut hub = TelemetryHub::new();
        hub.add(ids::FLEET_SESSIONS, 3 + offset);
        hub.gauge_max(ids::FLEET_PEAK_VIEWERS, 5.0 + offset as f64);
        for i in 0..5 {
            hub.observe(ids::STAGE_STARTUP_MS, (offset + i) as f64 * 40.0);
        }
        hub.snapshot()
    }

    #[test]
    fn merge_is_commutative_and_matches_lookup() {
        let a = sample(0);
        let b = sample(7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert!(ab.bit_identical(&ba));
        assert_eq!(ab.counter("fleet.sessions"), 13);
        assert_eq!(ab.gauge("fleet.peak_viewers"), Some(12.0));
        assert_eq!(ab.hist("stage.startup_ms").unwrap().count, 10);
        assert_eq!(ab.counter("no.such.metric"), 0);
    }

    #[test]
    fn disjoint_merge_inserts_sorted() {
        let mut hub_a = TelemetryHub::new();
        hub_a.incr(ids::NODE_FORWARDED);
        let mut hub_b = TelemetryHub::new();
        hub_b.incr(ids::BRAIN_REQUESTS);
        let mut merged = hub_a.snapshot();
        merged.merge(&hub_b.snapshot());
        let names: Vec<_> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["brain.requests_served", "node.forwarded"]);
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let a = sample(0);
        let b = sample(0);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.contains("\"fleet.sessions\": 3"));
        assert!(j.contains("\"fleet.peak_viewers\": 5.0"));
        assert!(j.contains("\"stage.startup_ms\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn empty_snapshot_serializes() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.to_json(), "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"hists\": {}\n}");
    }
}
