//! Sender-side loss-based rate control (GCC).
//!
//! Per Carlucci et al. 2016 §4.1: on each receiver report with loss
//! fraction `fl`:
//!
//! * `fl > 10%` → multiplicative decrease: `rate ← rate (1 − 0.5 fl)`;
//! * `fl < 2%`  → gentle increase: `rate ← 1.05 rate`;
//! * otherwise  → hold.

use livenet_types::{Bandwidth, SimDuration, SimTime};

/// Loss-based controller state.
#[derive(Debug, Clone)]
pub(crate) struct LossBasedController {
    rate: Bandwidth,
    floor: Bandwidth,
    ceil: Bandwidth,
    last_update: Option<SimTime>,
}

impl LossBasedController {
    /// New controller.
    pub(crate) fn new(initial: Bandwidth, floor: Bandwidth, ceil: Bandwidth) -> Self {
        LossBasedController {
            rate: initial.max(floor).min(ceil),
            floor,
            ceil,
            last_update: None,
        }
    }

    /// Current sender-side rate.
    pub(crate) fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Apply one receiver report. Increases are rate-limited to one per
    /// 200 ms so a burst of reports cannot multiply the adjustment, but a
    /// multiplicative decrease must never wait out the hold: during a loss
    /// episode the first report after an increase would otherwise be
    /// swallowed and the sender would keep pushing into a lossy path for
    /// another window.
    pub(crate) fn on_loss_report(&mut self, now: SimTime, loss_fraction: f64) {
        let fl = loss_fraction.clamp(0.0, 1.0);
        let decrease = fl > 0.10;
        if !decrease {
            if let Some(last) = self.last_update {
                if now.saturating_since(last) < SimDuration::from_millis(200) {
                    return;
                }
            }
        }
        self.last_update = Some(now);
        if decrease {
            self.rate = self.rate.mul_f64(1.0 - 0.5 * fl);
        } else if fl < 0.02 {
            self.rate = self.rate.mul_f64(1.05);
        }
        self.rate = self.rate.max(self.floor).min(self.ceil);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> LossBasedController {
        LossBasedController::new(
            Bandwidth::from_kbps(1000),
            Bandwidth::from_kbps(100),
            Bandwidth::from_mbps(5),
        )
    }

    #[test]
    fn low_loss_increases() {
        let mut c = ctl();
        c.on_loss_report(SimTime::from_secs(1), 0.0);
        assert_eq!(c.rate(), Bandwidth::from_kbps(1050));
    }

    #[test]
    fn high_loss_decreases_proportionally() {
        let mut c = ctl();
        c.on_loss_report(SimTime::from_secs(1), 0.2);
        // 1000 * (1 - 0.5*0.2) = 900.
        assert_eq!(c.rate(), Bandwidth::from_kbps(900));
    }

    #[test]
    fn moderate_loss_holds() {
        let mut c = ctl();
        c.on_loss_report(SimTime::from_secs(1), 0.05);
        assert_eq!(c.rate(), Bandwidth::from_kbps(1000));
    }

    #[test]
    fn updates_rate_limited() {
        let mut c = ctl();
        c.on_loss_report(SimTime::from_millis(1000), 0.0);
        c.on_loss_report(SimTime::from_millis(1050), 0.0); // ignored
        assert_eq!(c.rate(), Bandwidth::from_kbps(1050));
        c.on_loss_report(SimTime::from_millis(1300), 0.0);
        assert!(c.rate() > Bandwidth::from_kbps(1050));
    }

    #[test]
    fn decrease_bypasses_hold_window() {
        let mut c = ctl();
        c.on_loss_report(SimTime::from_millis(1000), 0.0);
        assert_eq!(c.rate(), Bandwidth::from_kbps(1050));
        // Heavy loss 50 ms later must act immediately, not wait out the
        // 200 ms hold started by the increase.
        c.on_loss_report(SimTime::from_millis(1050), 0.2);
        assert_eq!(c.rate(), Bandwidth::from_kbps(945)); // 1050 * 0.9
                                                         // The decrease restarts the hold for subsequent increases.
        c.on_loss_report(SimTime::from_millis(1100), 0.0);
        assert_eq!(c.rate(), Bandwidth::from_kbps(945));
    }

    #[test]
    fn bounds_enforced() {
        let mut c = ctl();
        for i in 0..100 {
            c.on_loss_report(SimTime::from_secs(i), 0.9);
        }
        assert_eq!(c.rate(), Bandwidth::from_kbps(100));
        for i in 100..300 {
            c.on_loss_report(SimTime::from_secs(i), 0.0);
        }
        assert_eq!(c.rate(), Bandwidth::from_mbps(5));
    }
}
