//! Hour and day roll-up of a fleet run: mean link loss per hour (Fig. 13),
//! peak throughput (Fig. 14) and realized LiveNet paths (§6.5) per day.

use livenet_types::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Accumulates the per-minute observations into hours and days.
#[derive(Debug)]
pub(super) struct Rollup {
    pub(super) hourly_loss: Vec<f64>,
    pub(super) daily_peak_throughput: Vec<f64>,
    /// Per-day realized-path hash sets; `daily_unique_paths` is their
    /// cardinality, and a shard merge needs the sets themselves to union.
    pub(super) day_path_sets: Vec<HashSet<u64>>,
    hour_loss_sum: f64,
    hour_loss_n: u64,
    current_hour: u64,
    day_paths: HashSet<u64>,
    current_day: u64,
    day_peak_bps: f64,
}

impl Rollup {
    /// Pre-sized for a `days`-long run, so the loop never grows a `Vec`.
    pub(super) fn new(days: usize) -> Rollup {
        Rollup {
            hourly_loss: Vec::with_capacity(days * 24 + 2),
            daily_peak_throughput: Vec::with_capacity(days + 2),
            day_path_sets: Vec::with_capacity(days + 2),
            hour_loss_sum: 0.0,
            hour_loss_n: 0,
            current_hour: 0,
            day_paths: HashSet::new(),
            current_day: 0,
            day_peak_bps: 0.0,
        }
    }

    /// A session was served over `path` during the current day.
    pub(super) fn path(&mut self, path: &[NodeId]) {
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        self.day_paths.insert(h.finish());
    }

    /// The minute tick of absolute hour `hour`: the fleet-mean link loss
    /// and the concurrent-session throughput observed at it.
    pub(super) fn minute(&mut self, hour: u64, mean_loss: f64, throughput_bps: f64) {
        if hour != self.current_hour {
            self.flush_hour();
            self.current_hour = hour;
        }
        self.hour_loss_sum += mean_loss;
        self.hour_loss_n += 1;
        if hour / 24 != self.current_day {
            self.flush_day();
            self.current_day = hour / 24;
        }
        self.day_peak_bps = self.day_peak_bps.max(throughput_bps);
    }

    fn flush_hour(&mut self) {
        let hours = &mut self.hourly_loss;
        // Hours without a tick read NaN.
        hours.resize(hours.len().max(self.current_hour as usize), f64::NAN);
        hours.push(if self.hour_loss_n > 0 {
            self.hour_loss_sum / self.hour_loss_n as f64
        } else {
            f64::NAN
        });
        self.hour_loss_sum = 0.0;
        self.hour_loss_n = 0;
    }

    fn flush_day(&mut self) {
        let day = self.day_path_sets.len().max(self.current_day as usize);
        self.daily_peak_throughput.resize(day, 0.0);
        self.day_path_sets.resize_with(day, HashSet::new);
        self.daily_peak_throughput.push(self.day_peak_bps);
        self.day_path_sets.push(std::mem::take(&mut self.day_paths));
        self.day_peak_bps = 0.0;
    }

    /// Close the open hour and day. The trailing flush can emit a phantom
    /// partial day/hour at the horizon boundary; clamp to `days`.
    pub(super) fn finish(&mut self, days: usize) {
        self.flush_hour();
        self.flush_day();
        self.hourly_loss.truncate(days * 24);
        self.daily_peak_throughput.truncate(days);
        self.day_path_sets.truncate(days);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hours_average_days_peak_and_the_phantom_day_is_clamped() {
        let mut r = Rollup::new(1);
        r.path(&[NodeId::new(1), NodeId::new(2)]);
        r.path(&[NodeId::new(1), NodeId::new(2)]);
        r.path(&[NodeId::new(1), NodeId::new(3)]);
        r.minute(0, 0.25, 5e6);
        r.minute(0, 0.75, 2e6);
        // Hour 1 never ticks.
        r.minute(2, 0.5, 7e6);
        // The tick exactly at the horizon opens day 1 ...
        r.minute(24, 1.0, 1e6);
        r.path(&[NodeId::new(9)]);
        r.finish(1);
        let s = r;
        // ... which the clamp drops again.
        assert_eq!(s.hourly_loss.len(), 24);
        assert_eq!(s.hourly_loss[0], 0.5);
        assert_eq!(s.hourly_loss[2], 0.5);
        assert!(s.hourly_loss[1].is_nan() && s.hourly_loss[3..].iter().all(|l| l.is_nan()));
        assert_eq!(s.daily_peak_throughput, vec![7e6]);
        assert_eq!(s.day_path_sets.len(), 1);
        assert_eq!(s.day_path_sets[0].len(), 2);
    }
}
