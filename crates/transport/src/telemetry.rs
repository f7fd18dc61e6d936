//! A clonable, thread-safe wrapper around [`TelemetryHub`] for the wire
//! datapath.
//!
//! The emulator owns its hub outright — everything runs on one logical
//! timeline. On the wire, several spawned node tasks (and the harness
//! around them) record concurrently, so the hub moves behind a mutex.
//! Recording always happens through a closure ([`SharedTelemetry::with`]),
//! never through a guard that could be held across an `await` — which is
//! what lets CI gate the crate with `clippy::await_holding_lock`.

use livenet_telemetry::{Snapshot, TelemetryHub};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared handle to one [`TelemetryHub`], clonable across tasks.
#[derive(Debug, Clone, Default)]
pub struct SharedTelemetry {
    inner: Arc<Mutex<TelemetryHub>>,
}

impl SharedTelemetry {
    /// A fresh, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record into (or read from) the hub. The lock is scoped to the
    /// closure: do not `await` inside.
    pub fn with<R>(&self, f: impl FnOnce(&mut TelemetryHub) -> R) -> R {
        // Each counter, gauge or histogram step leaves the hub valid, so a
        // closure that panicked part-way leaves a partial recording, not a
        // broken hub: recover the lock.
        let mut hub = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut hub)
    }

    /// Canonical snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_telemetry::{ids, MetricSink};

    #[test]
    fn clones_share_one_hub() {
        let a = SharedTelemetry::new();
        let b = a.clone();
        a.with(|h| h.incr(ids::TRANSPORT_RX_DATAGRAMS));
        b.with(|h| h.incr(ids::TRANSPORT_RX_DATAGRAMS));
        assert_eq!(a.with(|h| h.counter(ids::TRANSPORT_RX_DATAGRAMS)), 2);
        let snap = b.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "transport.rx_datagrams" && *v == 2));
    }
}
