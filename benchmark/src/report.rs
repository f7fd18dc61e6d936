//! The metric names the benchmark reports — the same lists, in the same
//! order, as `BENCHMARK.json` — and the printing of one run's result.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// What each one times on each workload is tabulated in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// workload that does not execute a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // packet / media / cc: terms of node.on_datagram_rtp_ns.
    ("packet.rtp_encode_ns", "ns"),
    ("packet.rtp_decode_ns", "ns"),
    ("packet.rtp_decode_allocs", "count"),
    ("packet.packetize_ns_per_pkt", "ns"),
    ("packet.depacketize_ns_per_pkt", "ns"),
    ("packet.rtcp_nack_roundtrip_ns", "ns"),
    ("media.next_frame_ns", "ns"),
    ("cc.pacer_enqueue_poll_ns_per_pkt", "ns"),
    ("cc.pacer_allocs_per_pkt", "count"),
    ("cc.delay_estimator_ns_per_pkt", "ns"),
    ("cc.gcc_sender_report_ns", "ns"),
    // node: fast path.
    ("node.msg_decode_ns", "ns"),
    ("node.msg_encode_ns", "ns"),
    ("node.on_datagram_rtp_ns", "ns"),
    ("node.on_datagram_rtp_cold_ns", "ns"),
    ("node.on_datagram_rtp_small_ns", "ns"),
    ("node.on_datagram_rtp_allocs", "count"),
    ("node.on_datagram_rtp_bytes", "B"),
    ("node.on_timer_ns", "ns"),
    ("node.ingest_frame_ns_per_pkt", "ns"),
    ("node.client_attach_us", "us"),
    ("node.cache_insert_full_ns", "ns"),
    ("node.cache_startup_burst_us", "us"),
    ("node.actions_per_datagram", "count"),
    ("node.calls", "count"),
    ("node.busy_share", "share"),
    ("node.service_us_p99", "us"),
    // node: slow path.
    ("node.on_datagram_nack_ns", "ns"),
    ("node.on_client_datagram_rr_ns", "ns"),
    ("node.slow_path_share", "share"),
    ("node.rtx_served", "count"),
    ("node.nack_batches", "count"),
    ("node.duplicates", "count"),
    ("node.rtx_pending_expired", "count"),
    // Simulated-time viewer experience on the relay workloads: these
    // repeat exactly for a seed and guard behaviour while speed changes.
    ("node.frame_delay_ms_p50", "ms"),
    ("node.frame_delay_ms_p99", "ms"),
    ("node.viewer_startup_ms_p50", "ms"),
    ("node.recovery_ms_p50", "ms"),
    // emu.
    ("emu.event_ns", "ns"),
    ("emu.self_share", "share"),
    ("emu.events", "count"),
    ("emu.events_per_pkt", "count"),
    ("emu.link_drops", "count"),
    ("emu.queue_high_water", "count"),
    // topology.
    ("topology.generate_ms", "ms"),
    ("topology.nodes", "count"),
    // brain.
    ("brain.path_request_hit_ns", "ns"),
    ("brain.path_request_last_resort_ns", "ns"),
    ("brain.path_request_allocs", "count"),
    ("brain.path_request_us_p99", "us"),
    ("brain.register_stream_ns", "ns"),
    ("brain.pib_hit_share", "share"),
    ("brain.last_resort_share", "share"),
    ("brain.force_recompute_ms", "ms"),
    ("brain.absorb_report_us", "us"),
    ("brain.node_failed_us", "us"),
    ("brain.prefetch_paths_us", "us"),
    ("brain.recompute_rounds", "count"),
    ("brain.path_delay_ms_p50", "ms"),
    // replication.
    ("replication.decree_us", "us"),
    ("replication.slots_decided", "count"),
    ("replication.renewal_share", "share"),
    ("replication.msgs_per_decree", "count"),
    ("replication.fleet_slowdown", "ratio"),
    // hier / telemetry.
    ("hier.path_for_ns", "ns"),
    ("telemetry.counter_add_ns", "ns"),
    ("telemetry.hist_observe_ns", "ns"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.merge_us", "us"),
    // sim.
    ("sim.tick_ms", "ms"),
    ("sim.session_us", "us"),
    ("sim.tick_share", "share"),
    ("sim.workload_next_session_ns", "ns"),
    ("sim.shard_run_s_max", "s"),
    ("sim.shard_skew", "ratio"),
    ("sim.merge_s", "s"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.sessions", "count"),
    ("sim.bytes_per_session", "B"),
    // The paper's Table-1 trio over the LiveNet records (simulated time).
    ("sim.streaming_delay_ms_p50", "ms"),
    ("sim.fast_startup_share", "share"),
    ("sim.zero_stall_share", "share"),
    // transport.
    ("transport.batch_dps_1200", "1/s"),
    ("transport.batch_dps_1200_seq", "1/s"),
    ("transport.batch_dps_64", "1/s"),
    ("transport.batch_fill", "count"),
    ("transport.tx_retries", "count"),
    ("transport.recv_truncated", "count"),
    ("transport.timers_cancelled", "count"),
    ("transport.rx_dispatch_us", "us"),
    ("transport.delivered_dps", "1/s"),
    ("transport.spawn_ms", "ms"),
    ("transport.delivery_share", "share"),
    ("transport.frame_latency_us_p99", "us"),
    // The harness's own costs.
    ("bench.trace_overhead_share", "share"),
    ("bench.alloc_counter_overhead_share", "share"),
    ("bench.generator_lag_us_p99", "us"),
    ("bench.spans", "count"),
    ("bench.peak_live_mb", "MB"),
];

/// One measured value with how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
    /// Free-form detail for the human-readable table (quartiles, which
    /// percentile the tail is).
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the output check failed; empty when it passed.
    pub problems: Vec<String>,
    /// Lines for the person reading the table, beside the metrics.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.put_noted(name, value, samples, String::new());
    }

    pub fn put_noted(&mut self, name: &'static str, value: f64, samples: u64, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
            note,
        });
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn value_of(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The table a person reads: every metric by name with unit and
    /// sample count.
    pub fn table(&self, listed: &[(&str, &str)]) -> String {
        let mut s = String::new();
        for &(name, unit) in listed {
            match self.value_of(name) {
                Some(m) => {
                    let _ = writeln!(
                        s,
                        "{name:<40} {:>16.4} {unit:<6} n={:<9} {}",
                        m.value, m.samples, m.note
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "{name:<40} {:>16} {unit:<6} (layer not run by this workload)",
                        0
                    );
                }
            }
        }
        s
    }

    /// The one-line result the driver parses.
    pub fn json(&self, listed: &[(&str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in listed.iter().enumerate() {
            let v = self.value_of(name).map_or(0.0, |m| m.value);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        // The manifest sits one level above this package.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_has_exactly_the_listed_metrics() {
        let mut r = RunResult {
            attempted: 10,
            ..Default::default()
        };
        r.put("ops_per_s", 12.5, 3);
        let line = r.json(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }
}
