//! Link models: delay, bandwidth, queueing and loss.

use livenet_types::{Bandwidth, DetRng, SimDuration, SimTime};

/// Random-loss model for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No random loss (queue overflow can still drop).
    None,
    /// Independent per-packet loss with probability `p`.
    Bernoulli {
        /// Loss probability in [0, 1].
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_gb: f64,
        /// P(bad → good) per packet.
        p_bg: f64,
        /// Loss probability in the good state.
        loss_good: f64,
        /// Loss probability in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Gilbert–Elliott bursts with long-run mean loss `mean`: bursts last
    /// 4 packets on average (`p_bg` = 0.25) and drop half of what they
    /// cover, so the stationary share of the bad state is `2 × mean`
    /// (capped at 0.9) and `p_gb` follows from it.
    pub fn bursty(mean: f64) -> LossModel {
        let pi_bad = (2.0 * mean).min(0.9);
        let p_bg = 0.25;
        LossModel::GilbertElliott {
            p_gb: p_bg * pi_bad / (1.0 - pi_bad),
            p_bg,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
    }

    /// Long-run average loss probability of the model.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the 2-state chain.
                let denom = p_gb + p_bg;
                if denom == 0.0 {
                    return loss_good;
                }
                let pi_bad = p_gb / denom;
                loss_good * (1.0 - pi_bad) + loss_bad * pi_bad
            }
        }
    }
}

/// Static configuration of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Serialization bandwidth.
    pub bandwidth: Bandwidth,
    /// Maximum queued bytes awaiting serialization (drop-tail beyond this).
    pub queue_bytes: usize,
    /// Random-loss model.
    pub loss: LossModel,
    /// Uniform jitter added to each packet's delivery, `[0, jitter]`.
    pub jitter: SimDuration,
}

impl LinkConfig {
    /// A sensible backbone-style default: 10 ms, 1 Gbps, 2 MB queue, lossless.
    pub fn backbone(delay: SimDuration) -> Self {
        LinkConfig {
            delay,
            bandwidth: Bandwidth::from_gbps(1),
            queue_bytes: 2 * 1024 * 1024,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
        }
    }

    /// Round-trip time of a symmetric link pair with this config.
    pub fn rtt(&self) -> SimDuration {
        self.delay * 2
    }
}

/// Per-link transmission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and delivered (scheduled for arrival).
    pub delivered: u64,
    /// Packets dropped by the random-loss model.
    pub lost_random: u64,
    /// Packets dropped because the queue was full.
    pub lost_queue: u64,
    /// Packets dropped because the link was administratively down
    /// (fault injection).
    pub lost_down: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl LinkStats {
    /// Total send attempts.
    pub fn attempts(&self) -> u64 {
        self.delivered + self.lost_random + self.lost_queue + self.lost_down
    }
}

/// Runtime state of a directed link inside the emulator.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    /// Configuration (mutable: experiments vary loss/bandwidth over time).
    pub config: LinkConfig,
    /// When the transmitter finishes serializing the last accepted packet.
    pub busy_until: SimTime,
    /// Gilbert–Elliott state: true = bad.
    pub ge_bad: bool,
    /// Administrative liveness: a down link drops everything offered.
    pub up: bool,
    /// Loss model saved across a fault-injected loss-burst episode, so
    /// the burst's end can restore the steady-state model.
    pub burst_base: Option<LossModel>,
    /// Counters.
    pub stats: LinkStats,
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Packet will arrive at the far end at the given time.
    Deliver {
        /// Arrival instant at the remote host.
        arrive_at: SimTime,
    },
    /// Dropped by the random loss model.
    LostRandom,
    /// Dropped because the serialization queue was full.
    LostQueue,
    /// Dropped because the link is administratively down.
    LostDown,
}

impl LinkState {
    /// New idle link.
    pub(crate) fn new(config: LinkConfig) -> Self {
        LinkState {
            config,
            busy_until: SimTime::ZERO,
            ge_bad: false,
            up: true,
            burst_base: None,
            stats: LinkStats::default(),
        }
    }

    /// Offer a packet of `bytes` bytes at time `now`.
    pub(crate) fn send(&mut self, now: SimTime, bytes: usize, rng: &mut DetRng) -> SendOutcome {
        // A down link blackholes everything before any RNG is consumed,
        // so an outage window never perturbs the loss-model stream.
        if !self.up {
            self.stats.lost_down += 1;
            return SendOutcome::LostDown;
        }
        // Random loss first (models the physical path, not our queue).
        let lost = match self.config.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(p),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Advance the chain one step per packet.
                if self.ge_bad {
                    if rng.chance(p_bg) {
                        self.ge_bad = false;
                    }
                } else if rng.chance(p_gb) {
                    self.ge_bad = true;
                }
                rng.chance(if self.ge_bad { loss_bad } else { loss_good })
            }
        };
        if lost {
            self.stats.lost_random += 1;
            return SendOutcome::LostRandom;
        }

        // Queue admission: bytes currently awaiting serialization.
        let backlog_time = self.busy_until.saturating_since(now);
        let backlog_bytes = self.config.bandwidth.bytes_in(backlog_time);
        if backlog_bytes as usize > self.config.queue_bytes {
            self.stats.lost_queue += 1;
            return SendOutcome::LostQueue;
        }

        let tx = self.config.bandwidth.transmission_time(bytes);
        let start = self.busy_until.max(now);
        self.busy_until = start + tx;
        let jitter = if self.config.jitter > SimDuration::ZERO {
            SimDuration::from_nanos(rng.range_u64(0, self.config.jitter.as_nanos().max(1)))
        } else {
            SimDuration::ZERO
        };
        let arrive_at = self.busy_until + self.config.delay + jitter;
        self.stats.delivered += 1;
        self.stats.bytes += bytes as u64;
        SendOutcome::Deliver { arrive_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LinkConfig {
        LinkConfig {
            delay: SimDuration::from_millis(10),
            bandwidth: Bandwidth::from_mbps(8), // 1 byte/us
            queue_bytes: 10_000,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
        }
    }

    #[test]
    fn delivery_time_includes_tx_and_prop() {
        let mut link = LinkState::new(cfg());
        let mut rng = DetRng::seed(1);
        // 1000 bytes at 8 Mbps = 1 ms tx; +10 ms prop = 11 ms.
        match link.send(SimTime::ZERO, 1000, &mut rng) {
            SendOutcome::Deliver { arrive_at } => {
                assert_eq!(arrive_at, SimTime::from_millis(11));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serialization_is_sequential() {
        let mut link = LinkState::new(cfg());
        let mut rng = DetRng::seed(1);
        let a = link.send(SimTime::ZERO, 1000, &mut rng);
        let b = link.send(SimTime::ZERO, 1000, &mut rng);
        let (SendOutcome::Deliver { arrive_at: t1 }, SendOutcome::Deliver { arrive_at: t2 }) =
            (a, b)
        else {
            panic!("expected deliveries");
        };
        assert_eq!(t2 - t1, SimDuration::from_millis(1)); // back-to-back
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = LinkState::new(LinkConfig {
            queue_bytes: 2_000,
            ..cfg()
        });
        let mut rng = DetRng::seed(1);
        let mut dropped = 0;
        for _ in 0..10 {
            if matches!(
                link.send(SimTime::ZERO, 1_000, &mut rng),
                SendOutcome::LostQueue
            ) {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(link.stats.lost_queue, dropped);
        // The first packets were accepted.
        assert!(link.stats.delivered >= 2);
    }

    #[test]
    fn bernoulli_loss_rate_matches() {
        let mut link = LinkState::new(LinkConfig {
            loss: LossModel::Bernoulli { p: 0.1 },
            queue_bytes: usize::MAX,
            ..cfg()
        });
        let mut rng = DetRng::seed(7);
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            link.send(now, 100, &mut rng);
            now += SimDuration::from_millis(1);
        }
        let s = link.stats;
        let rate = (s.attempts() - s.delivered) as f64 / s.attempts() as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty_but_mean_holds() {
        let model = LossModel::GilbertElliott {
            p_gb: 0.01,
            p_bg: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        // mean = pi_bad * 0.5; pi_bad = 0.01/0.21 ≈ 0.0476 → ≈ 0.0238.
        assert!((model.mean_loss() - 0.0238).abs() < 0.001);
        let mut link = LinkState::new(LinkConfig {
            loss: model,
            queue_bytes: usize::MAX,
            ..cfg()
        });
        let mut rng = DetRng::seed(3);
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            link.send(now, 100, &mut rng);
            now += SimDuration::from_micros(100);
        }
        let s = link.stats;
        let rate = (s.attempts() - s.delivered) as f64 / s.attempts() as f64;
        assert!((rate - model.mean_loss()).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn bursty_constructor_hits_the_requested_mean() {
        for mean in [0.005, 0.02, 0.1] {
            let got = LossModel::bursty(mean).mean_loss();
            assert!((got - mean).abs() < 1e-12, "mean {mean}: got {got}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut link = LinkState::new(LinkConfig {
                loss: LossModel::Bernoulli { p: 0.05 },
                ..cfg()
            });
            let mut rng = DetRng::seed(42);
            (0..1000)
                .map(|i| {
                    matches!(
                        link.send(SimTime::from_millis(i), 500, &mut rng),
                        SendOutcome::Deliver { .. }
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}
