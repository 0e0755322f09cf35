//! Adaptive bandwidth maintenance (paper §4.1, Listing 1).
//!
//! After every executed query the estimator receives feedback, computes the
//! loss gradient with respect to the bandwidth (eq. 14 with eq. 17), and
//! accumulates it in a mini-batch. Every `N` queries the averaged gradient
//! drives one RMSprop step. With logarithmic updates (Appendix D) the step
//! is taken in `ln h` — the gradient is scaled by `h` (eq. 18) and the
//! positivity safeguard is unnecessary; in linear mode updates toward zero
//! are clamped to half the current bandwidth, exactly as §4.1 prescribes.

use crate::estimator::KdeEstimator;
use crate::loss::LossFunction;
use kdesel_solver::online::{GradientBatch, RmsProp, RmsPropConfig};
use kdesel_types::QueryFeedback;

/// Adaptive-tuner configuration. Defaults are the paper's: mini-batch
/// `N = 10`, smoothing `α = 0.9`, rates in `[10⁻⁶, 50]`, `×1.2 / ×0.5`
/// adjustment, logarithmic updates on.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Loss whose gradient drives the updates.
    pub loss: LossFunction,
    /// Mini-batch size `N`.
    pub mini_batch: usize,
    /// Update `ln h` instead of `h` (Appendix D).
    pub log_updates: bool,
    /// RMSprop parameters.
    pub rmsprop: RmsPropConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            loss: LossFunction::Quadratic,
            mini_batch: 10,
            log_updates: true,
            rmsprop: RmsPropConfig {
                // The bandwidth lives on a log scale spanning a few units;
                // an initial rate of 0.1 reaches any point of the search
                // box within tens of mini-batches while staying stable.
                rate_init: 0.1,
                ..Default::default()
            },
        }
    }
}

impl AdaptiveConfig {
    /// Checks the conditions [`AdaptiveTuner::new`] requires: a non-empty
    /// mini-batch and a valid RMSprop configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.mini_batch == 0 {
            return Err("adaptive mini_batch must be positive".to_string());
        }
        self.rmsprop.validate()
    }
}

/// Online bandwidth tuner: owns the RMSprop state and mini-batch buffer.
#[derive(Debug)]
pub struct AdaptiveTuner {
    config: AdaptiveConfig,
    rmsprop: RmsProp,
    batch: GradientBatch,
    updates_applied: u64,
}

impl AdaptiveTuner {
    /// Creates a tuner for a `dims`-dimensional model.
    ///
    /// # Panics
    /// Panics if `config` fails [`AdaptiveConfig::validate`].
    pub fn new(dims: usize, config: AdaptiveConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            rmsprop: RmsProp::new(dims, config.rmsprop.clone()),
            batch: GradientBatch::new(dims, config.mini_batch),
            config,
            updates_applied: 0,
        }
    }

    /// Number of RMSprop updates applied so far (≈ queries / N).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Consumes feedback for one executed query, updating the estimator's
    /// bandwidth when a mini-batch completes (Listing 1, lines 9-17).
    ///
    /// Returns `true` when a bandwidth update was applied.
    pub fn observe(&mut self, estimator: &mut KdeEstimator, feedback: &QueryFeedback) -> bool {
        // Gradient of the loss wrt the (linear) bandwidth, eq. 14:
        // `∂L/∂h = ∂L/∂p̂ · ∂p̂/∂h`. When the estimate came from the fused
        // `estimate_with_gradient` sweep (§5.5), `∂p̂/∂h` is already cached
        // and only the scalar chain factor remains — no second sample
        // sweep. The fallback recomputes it on the device.
        let mut grad = match estimator.cached_gradient(&feedback.region) {
            Some(cached) => {
                let scale = self
                    .config
                    .loss
                    .dvalue_destimate(feedback.estimate, feedback.actual);
                cached.iter().map(|g| g * scale).collect()
            }
            None => estimator.loss_gradient(
                &feedback.region,
                feedback.estimate,
                feedback.actual,
                self.config.loss,
            ),
        };
        if self.config.log_updates {
            // Eq. 18: ∂L/∂(ln h) = ∂L/∂h · h.
            for (g, &h) in grad.iter_mut().zip(estimator.bandwidth()) {
                *g *= h;
            }
        }
        let Some(avg) = self.batch.push(&grad) else {
            return false;
        };
        let delta = self.rmsprop.step(&avg);
        let bandwidth = estimator.bandwidth().to_vec();
        let updated: Vec<f64> = if self.config.log_updates {
            bandwidth
                .iter()
                .zip(&delta)
                .map(|(&h, &d)| {
                    // Clamp the exponent so a single wild mini-batch cannot
                    // overflow/underflow the bandwidth.
                    (h.ln() + d.clamp(-30.0, 30.0)).exp().max(f64::MIN_POSITIVE)
                })
                .collect()
        } else {
            bandwidth
                .iter()
                .zip(&delta)
                .map(|(&h, &d)| {
                    // §4.1: restrict updates towards zero to at most half
                    // the current bandwidth's value.
                    (h + d).max(0.5 * h)
                })
                .collect()
        };
        estimator.set_bandwidth(updated);
        self.updates_applied += 1;
        // One structured event per RMSprop step: the bandwidth trajectory
        // (paper Figure 8) and the driving gradient, reconstructable from
        // a trace alone. Field computation is gated on a live builder.
        let ev = kdesel_telemetry::event("bandwidth.step");
        if ev.live() {
            let grad_norm = avg.iter().map(|g| g * g).sum::<f64>().sqrt();
            ev.u64("step", self.updates_applied)
                .f64("grad_norm", grad_norm)
                .f64_slice("h", estimator.bandwidth())
                .emit();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFn;
    use kdesel_device::{Backend, Device};
    use kdesel_types::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two tight clusters at 0 and 100 in each dimension.
    fn clustered_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n * 2);
        for i in 0..n {
            let c = if i % 2 == 0 { 0.0 } else { 100.0 };
            out.push(c + rng.gen_range(-0.5..0.5));
            out.push(c + rng.gen_range(-0.5..0.5));
        }
        out
    }

    /// Drives the tuner with feedback queries centered on cluster points.
    fn drive(
        estimator: &mut KdeEstimator,
        tuner: &mut AdaptiveTuner,
        sample: &[f64],
        queries: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = sample.len() / 2;
        let mut last_errors = Vec::new();
        for k in 0..queries {
            let idx = rng.gen_range(0..n);
            let center = [sample[idx * 2], sample[idx * 2 + 1]];
            let region = Rect::centered(&center, &[1.0, 1.0]);
            let actual = sample
                .chunks_exact(2)
                .filter(|r| region.contains(r))
                .count() as f64
                / n as f64;
            let estimate = estimator.estimate(&region);
            if k >= queries - 50 {
                last_errors.push((estimate - actual).abs());
            }
            tuner.observe(
                estimator,
                &QueryFeedback {
                    region,
                    estimate,
                    actual,
                    cardinality: 0,
                },
            );
        }
        last_errors.iter().sum::<f64>() / last_errors.len() as f64
    }

    #[test]
    fn learning_reduces_estimation_error() {
        let sample = clustered_sample(128, 1);
        let mut estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        // Error of the untouched Scott model over the same query stream.
        let mut static_est =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut no_tuner = AdaptiveTuner::new(2, AdaptiveConfig::default());
        // Zero-learning-rate tuner keeps the bandwidth fixed.
        no_tuner.rmsprop = RmsProp::new(
            2,
            RmsPropConfig {
                rate_init: 0.0,
                rate_min: 0.0,
                rate_max: 0.0,
                ..Default::default()
            },
        );
        let static_err = drive(&mut static_est, &mut no_tuner, &sample, 400, 9);

        let mut tuner = AdaptiveTuner::new(2, AdaptiveConfig::default());
        let adaptive_err = drive(&mut estimator, &mut tuner, &sample, 400, 9);
        assert!(
            adaptive_err < static_err * 0.7,
            "adaptive {adaptive_err} vs static {static_err}"
        );
        assert!(tuner.updates_applied() >= 39);
        // Scott's bandwidth on this data is ≈ 50·s^(-1/6); the clusters need
        // something around their width (≈1), so learning must have shrunk it.
        assert!(estimator.bandwidth()[0] < 10.0);
    }

    #[test]
    fn updates_only_on_full_mini_batches() {
        let sample = clustered_sample(32, 2);
        let mut estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut tuner = AdaptiveTuner::new(2, AdaptiveConfig::default());
        let bw0 = estimator.bandwidth().to_vec();
        let region = Rect::cube(2, -1.0, 1.0);
        for k in 0..9 {
            let estimate = estimator.estimate(&region);
            let applied = tuner.observe(
                &mut estimator,
                &QueryFeedback {
                    region: region.clone(),
                    estimate,
                    actual: 0.5,
                    cardinality: 0,
                },
            );
            assert!(!applied, "applied early at query {k}");
            assert_eq!(estimator.bandwidth(), bw0.as_slice());
        }
        let estimate = estimator.estimate(&region);
        let applied = tuner.observe(
            &mut estimator,
            &QueryFeedback {
                region,
                estimate,
                actual: 0.5,
                cardinality: 0,
            },
        );
        assert!(applied, "10th query must trigger the update");
        assert_ne!(estimator.bandwidth(), bw0.as_slice());
    }

    #[test]
    fn bandwidth_stays_positive_under_adversarial_feedback() {
        let sample = clustered_sample(32, 3);
        for log_updates in [true, false] {
            let mut estimator =
                KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
            let mut tuner = AdaptiveTuner::new(
                2,
                AdaptiveConfig {
                    log_updates,
                    ..Default::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..300 {
                let c = [rng.gen_range(-1.0..101.0), rng.gen_range(-1.0..101.0)];
                let region = Rect::centered(&c, &[0.5, 0.5]);
                let estimate = estimator.estimate(&region);
                // Alternate wildly wrong feedback.
                let actual = if rng.gen_bool(0.5) { 0.0 } else { 1.0 };
                tuner.observe(
                    &mut estimator,
                    &QueryFeedback {
                        region,
                        estimate,
                        actual,
                        cardinality: 0,
                    },
                );
                assert!(
                    estimator
                        .bandwidth()
                        .iter()
                        .all(|&h| h > 0.0 && h.is_finite()),
                    "log={log_updates}: bandwidth {:?}",
                    estimator.bandwidth()
                );
            }
        }
    }

    #[test]
    fn linear_mode_halving_guard() {
        // A huge negative delta may at most halve the bandwidth per update.
        let sample = clustered_sample(32, 5);
        let mut estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut tuner = AdaptiveTuner::new(
            2,
            AdaptiveConfig {
                log_updates: false,
                mini_batch: 1,
                rmsprop: RmsPropConfig {
                    rate_init: 50.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let bw0 = estimator.bandwidth().to_vec();
        let region = Rect::cube(2, -200.0, 300.0); // everything → estimate 1
        let estimate = estimator.estimate(&region);
        tuner.observe(
            &mut estimator,
            &QueryFeedback {
                region,
                estimate,
                actual: 0.0, // extreme error pushes bandwidth down hard
                cardinality: 0,
            },
        );
        for (h, h0) in estimator.bandwidth().iter().zip(&bw0) {
            assert!(*h >= 0.5 * h0 - 1e-12, "update exceeded halving guard");
        }
    }
}
