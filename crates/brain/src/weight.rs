//! The abstracted link weight (paper Eq. 2 and Eq. 3).
//!
//! For a link A→B:
//!
//! ```text
//! W_AB = (ρ · 2·RTT_AB + (1 − ρ) · RTT_AB) · f(u_AB)        (Eq. 2)
//! f(u)  = 1 / (1 + e^{α (β − u)}) + 1                        (Eq. 3)
//! ```
//!
//! where ρ is the link's packet loss rate (a lost packet is assumed to be
//! recovered on the second attempt, hence the expected-RTT form), and
//! `u_AB = max(link utilization, A's utilization, B's utilization)`.
//! `f` is a sigmoid ranging from 1 to 2 that inflates the weight of loaded
//! links. The paper uses α = 0.5 and β = 80 with utilization expressed in
//! percent (that parameterization is what makes f span (1, 2)).

use livenet_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Sigmoid midpoint β as a fraction (paper: 80% → 0.80).
const BETA: f64 = 0.80;

/// Hyper-parameters of the weight function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightParams {
    /// Sigmoid steepness α (paper: 0.5, on percent-scale utilization).
    pub alpha: f64,
}

impl Default for WeightParams {
    fn default() -> Self {
        WeightParams { alpha: 0.5 }
    }
}

/// Eq. 3: the load-adjustment factor in (1, 2).
///
/// `utilization` is a fraction in [0, 1]; internally converted to percent to
/// match the paper's α = 0.5 parameterization.
pub fn sigmoid_factor(utilization: f64, params: WeightParams) -> f64 {
    let u_pct = utilization.clamp(0.0, 1.0) * 100.0;
    let beta_pct = BETA * 100.0;
    1.0 / (1.0 + (params.alpha * (beta_pct - u_pct)).exp()) + 1.0
}

/// Eq. 2: the abstracted weight of a link, in milliseconds.
///
/// * `rtt` — measured link RTT;
/// * `loss` — packet loss rate ρ in [0, 1];
/// * `max_utilization` — max of link utilization and both endpoints' loads.
pub fn link_weight(
    rtt: SimDuration,
    loss: f64,
    max_utilization: f64,
    params: WeightParams,
) -> f64 {
    let rtt_ms = rtt.as_millis_f64();
    let rho = loss.clamp(0.0, 1.0);
    let expected_rtt = rho * 2.0 * rtt_ms + (1.0 - rho) * rtt_ms;
    expected_rtt * sigmoid_factor(max_utilization, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: WeightParams = WeightParams { alpha: 0.5 };

    #[test]
    fn sigmoid_spans_one_to_two() {
        assert!((sigmoid_factor(0.0, P) - 1.0).abs() < 1e-9);
        assert!((sigmoid_factor(1.0, P) - 2.0).abs() < 1e-4);
        assert!((sigmoid_factor(0.80, P) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_is_monotone() {
        let mut prev = 0.0;
        for i in 0..=100 {
            let f = sigmoid_factor(i as f64 / 100.0, P);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn weight_equals_rtt_when_idle_lossless() {
        let w = link_weight(SimDuration::from_millis(40), 0.0, 0.0, P);
        assert!((w - 40.0).abs() < 1e-6, "w={w}");
    }

    #[test]
    fn loss_inflates_by_expected_retransmission() {
        // ρ=0.5: expected RTT = 0.5*2*40 + 0.5*40 = 60 ms.
        let w = link_weight(SimDuration::from_millis(40), 0.5, 0.0, P);
        assert!((w - 60.0).abs() < 1e-6, "w={w}");
    }

    #[test]
    fn full_load_doubles_weight() {
        let idle = link_weight(SimDuration::from_millis(40), 0.0, 0.0, P);
        let loaded = link_weight(SimDuration::from_millis(40), 0.0, 1.0, P);
        assert!((loaded / idle - 2.0).abs() < 1e-3);
    }

    #[test]
    fn weight_monotone_in_each_argument() {
        let base = link_weight(SimDuration::from_millis(40), 0.01, 0.3, P);
        assert!(link_weight(SimDuration::from_millis(50), 0.01, 0.3, P) > base);
        assert!(link_weight(SimDuration::from_millis(40), 0.05, 0.3, P) > base);
        assert!(link_weight(SimDuration::from_millis(40), 0.01, 0.6, P) > base);
    }
}
