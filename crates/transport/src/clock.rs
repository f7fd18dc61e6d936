//! Wall-clock ↔ simulated-time mapping.

use livenet_types::{SimDuration, SimTime};
use tokio::time::Instant;

/// Maps tokio [`Instant`]s onto the [`SimTime`] axis the protocol cores
/// use, relative to a fixed epoch.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose `SimTime::ZERO` is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Current time on the sim axis.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// Convert a sim-axis deadline to a tokio [`Instant`].
    pub(crate) fn instant_at(&self, t: SimTime) -> Instant {
        self.epoch + std::time::Duration::from_nanos(t.as_nanos())
    }

    /// Convert a sim duration into a std duration.
    pub fn duration(d: SimDuration) -> std::time::Duration {
        std::time::Duration::from_nanos(d.as_nanos())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn clock_is_monotone_and_consistent() {
        let clock = WallClock::new();
        let a = clock.now();
        tokio::time::sleep(std::time::Duration::from_millis(10)).await;
        let b = clock.now();
        assert!(b > a);
        assert!(b.saturating_since(a) >= SimDuration::from_millis(9));
        // instant_at roundtrips within scheduling noise.
        let deadline = b + SimDuration::from_millis(5);
        let inst = clock.instant_at(deadline);
        tokio::time::sleep_until(inst).await;
        assert!(clock.now() >= deadline);
    }
}
