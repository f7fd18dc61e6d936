//! Bandwidth / bitrate arithmetic.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, Sub};

/// A data rate in bits per second.
///
/// Used both for link capacities in the topology and for encoder bitrates /
/// pacing rates in the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }
    /// Construct from kilobits per second.
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }
    /// Construct from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }
    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }
    /// Kilobits per second (truncating).
    pub const fn as_kbps(self) -> u64 {
        self.0 / 1_000
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate, which makes a dead link
    /// absorb traffic forever rather than dividing by zero.
    #[must_use]
    pub fn transmission_time(self, bytes: usize) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        let bits = bytes as u128 * 8;
        let ns = bits * 1_000_000_000 / self.0 as u128;
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Bytes that can be sent in `dur` at this rate.
    #[must_use]
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        (self.0 as u128 * dur.as_nanos() as u128 / 8 / 1_000_000_000) as u64
    }

    /// Scale by a non-negative factor.
    #[must_use]
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        Bandwidth((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// The smaller of two rates.
    #[must_use]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two rates.
    #[must_use]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        debug_assert!(self.0 >= rhs.0, "Bandwidth subtraction went negative");
        Bandwidth(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}kbps", self.as_kbps())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_basic() {
        // 1 Mbps, 125000 bytes = 1 Mbit -> exactly 1 second.
        let bw = Bandwidth::from_mbps(1);
        assert_eq!(bw.transmission_time(125_000), SimDuration::from_secs(1));
    }

    #[test]
    fn transmission_time_zero_rate_is_max() {
        assert_eq!(Bandwidth::ZERO.transmission_time(1), SimDuration::MAX);
    }

    #[test]
    fn bytes_in_inverts_transmission_time() {
        let bw = Bandwidth::from_mbps(8);
        let dur = bw.transmission_time(10_000);
        let bytes = bw.bytes_in(dur);
        assert!((bytes as i64 - 10_000).abs() <= 1, "bytes={bytes}");
    }

    #[test]
    fn display_scales() {
        assert_eq!(Bandwidth::from_gbps(2).to_string(), "2.00Gbps");
        assert_eq!(Bandwidth::from_mbps(3).to_string(), "3.00Mbps");
        assert_eq!(Bandwidth::from_kbps(64).to_string(), "64kbps");
    }
}
