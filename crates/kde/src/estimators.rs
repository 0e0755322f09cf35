//! The four KDE estimator variants compared in the paper's evaluation
//! (§6.1.1), as [`SelectivityEstimator`] implementations.
//!
//! * [`HeuristicKde`] — Scott's-rule bandwidth, static ("KDE heuristic"),
//! * [`ScvKde`] — smoothed-cross-validation bandwidth, static ("KDE SCV"),
//! * [`BatchKde`] — bandwidth numerically optimized over a training
//!   workload at construction ("KDE batch", §3.4),
//! * [`AdaptiveKde`] — Scott initialization plus continuous RMSprop
//!   bandwidth tuning and Karma-based sample maintenance ("KDE adaptive",
//!   §4). Sample replacement is mediated by the engine: `observe` flags
//!   outdated points, [`AdaptiveKde::take_pending_replacements`] hands them
//!   to the caller, and [`AdaptiveKde::replace_point`] installs the fresh
//!   tuples the caller sampled from the database.

use crate::bandwidth::adaptive::{AdaptiveConfig, AdaptiveTuner};
use crate::bandwidth::batch::{optimize_bandwidth, BatchConfig};
use crate::bandwidth::cv::{scv_bandwidth, CvConfig};
use crate::estimator::KdeEstimator;
use crate::karma::{KarmaConfig, KarmaMaintenance};
use crate::kernel::KernelFn;
use kdesel_device::Device;
use kdesel_types::{LabelledQuery, QueryFeedback, Rect, SelectivityEstimator};
use rand::Rng;

/// "KDE heuristic": Scott's rule, no tuning (the paper's baseline for
/// existing KDE estimators).
#[derive(Debug)]
pub struct HeuristicKde {
    inner: KdeEstimator,
}

impl HeuristicKde {
    /// Builds the model from a row-major sample.
    pub fn new(device: Device, sample: &[f64], dims: usize, kernel: KernelFn) -> Self {
        Self {
            inner: KdeEstimator::new(device, sample, dims, kernel),
        }
    }

    /// Access to the underlying model.
    pub fn model(&self) -> &KdeEstimator {
        &self.inner
    }

    /// Unwraps the underlying model (e.g. to register it with
    /// `kdesel-serve`).
    pub fn into_model(self) -> KdeEstimator {
        self.inner
    }
}

impl SelectivityEstimator for HeuristicKde {
    fn estimate(&mut self, region: &Rect) -> f64 {
        self.inner.estimate(region)
    }
    fn observe(&mut self, _feedback: &QueryFeedback) {}
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn name(&self) -> &str {
        "kde-heuristic"
    }
}

/// "KDE SCV": bandwidth selected by smoothed cross-validation at
/// construction, static afterwards.
#[derive(Debug)]
pub struct ScvKde {
    inner: KdeEstimator,
}

impl ScvKde {
    /// Builds the model and runs the SCV selector.
    pub fn new<R: Rng + ?Sized>(
        device: Device,
        sample: &[f64],
        dims: usize,
        kernel: KernelFn,
        config: &CvConfig,
        rng: &mut R,
    ) -> Self {
        let mut inner = KdeEstimator::new(device, sample, dims, kernel);
        let bw = scv_bandwidth(sample, dims, config, rng);
        inner.set_bandwidth(bw);
        Self { inner }
    }

    /// Access to the underlying model.
    pub fn model(&self) -> &KdeEstimator {
        &self.inner
    }

    /// Unwraps the underlying model (e.g. to register it with
    /// `kdesel-serve`).
    pub fn into_model(self) -> KdeEstimator {
        self.inner
    }
}

impl SelectivityEstimator for ScvKde {
    fn estimate(&mut self, region: &Rect) -> f64 {
        self.inner.estimate(region)
    }
    fn observe(&mut self, _feedback: &QueryFeedback) {}
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn name(&self) -> &str {
        "kde-scv"
    }
}

/// "KDE batch": the optimal estimator of §3 — bandwidth minimizing the
/// training-workload loss, found by global+local numerical optimization.
#[derive(Debug)]
pub struct BatchKde {
    inner: KdeEstimator,
    training_loss: f64,
}

impl BatchKde {
    /// Builds the model and optimizes its bandwidth over `training`.
    pub fn new<R: Rng + ?Sized>(
        device: Device,
        sample: &[f64],
        dims: usize,
        kernel: KernelFn,
        training: &[LabelledQuery],
        config: &BatchConfig,
        rng: &mut R,
    ) -> Self {
        let mut inner = KdeEstimator::new(device, sample, dims, kernel);
        let result = optimize_bandwidth(&inner, training, config, rng);
        inner.set_bandwidth(result.bandwidth);
        Self {
            inner,
            training_loss: result.training_loss,
        }
    }

    /// Mean training loss at the optimized bandwidth.
    pub fn training_loss(&self) -> f64 {
        self.training_loss
    }

    /// Access to the underlying model.
    pub fn model(&self) -> &KdeEstimator {
        &self.inner
    }

    /// Unwraps the underlying model (e.g. to register it with
    /// `kdesel-serve`).
    pub fn into_model(self) -> KdeEstimator {
        self.inner
    }
}

impl SelectivityEstimator for BatchKde {
    fn estimate(&mut self, region: &Rect) -> f64 {
        self.inner.estimate(region)
    }
    fn observe(&mut self, _feedback: &QueryFeedback) {}
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn name(&self) -> &str {
        "kde-batch"
    }
}

/// "KDE adaptive": the self-tuning estimator of §4 — online bandwidth
/// learning plus Karma-based sample maintenance.
#[derive(Debug)]
pub struct AdaptiveKde {
    inner: KdeEstimator,
    tuner: AdaptiveTuner,
    karma: KarmaMaintenance,
    pending: Vec<usize>,
}

impl AdaptiveKde {
    /// Builds the model with Scott initialization and fresh tuning state.
    pub fn new(
        device: Device,
        sample: &[f64],
        dims: usize,
        kernel: KernelFn,
        adaptive: AdaptiveConfig,
        karma: KarmaConfig,
    ) -> Self {
        let inner = KdeEstimator::new(device, sample, dims, kernel);
        Self::from_estimator(inner, adaptive, karma)
    }

    /// Wraps an existing model (e.g. one restored from a
    /// [`ModelSnapshot`](crate::ModelSnapshot)) with fresh tuning state —
    /// the tuned bandwidth carries over, the RMSprop accumulator and Karma
    /// counts restart.
    pub fn from_estimator(
        inner: KdeEstimator,
        adaptive: AdaptiveConfig,
        karma: KarmaConfig,
    ) -> Self {
        let karma = KarmaMaintenance::new(&inner, karma);
        Self {
            tuner: AdaptiveTuner::new(inner.dims(), adaptive),
            inner,
            karma,
            pending: Vec::new(),
        }
    }

    /// The tuner configuration this model was built with.
    pub fn adaptive_config(&self) -> &AdaptiveConfig {
        self.tuner.config()
    }

    /// The Karma configuration this model was built with.
    pub fn karma_config(&self) -> &KarmaConfig {
        self.karma.config()
    }

    /// Sample points flagged as outdated and awaiting replacement. The
    /// caller (engine) samples fresh tuples from the database and installs
    /// them via [`replace_point`](Self::replace_point).
    pub fn take_pending_replacements(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pending)
    }

    /// Installs a fresh tuple at `index` (single device transfer) and
    /// clears the slot's Karma.
    pub fn replace_point(&mut self, index: usize, row: &[f64]) {
        self.inner.replace_point(index, row);
        self.karma.reset_point(&self.inner, index);
    }

    /// Reservoir-sampling hook for inserts (§4.2): replaces the slot chosen
    /// by the host-side reservoir decision with the newly inserted tuple.
    pub fn reservoir_replace(&mut self, slot: usize, row: &[f64]) {
        self.replace_point(slot, row);
    }

    /// Access to the underlying model.
    pub fn model(&self) -> &KdeEstimator {
        &self.inner
    }

    /// Number of RMSprop updates applied.
    pub fn updates_applied(&self) -> u64 {
        self.tuner.updates_applied()
    }
}

impl SelectivityEstimator for AdaptiveKde {
    fn estimate(&mut self, region: &Rect) -> f64 {
        // Fused sweep (§5.5): the adaptive estimator always needs the
        // bandwidth gradient for the upcoming feedback, so one launch
        // computes p̂ and caches ∂p̂/∂h — `observe` then pays no second
        // sample sweep.
        self.inner.estimate_with_gradient(region).0
    }

    fn observe(&mut self, feedback: &QueryFeedback) {
        // Karma first: it consumes the contribution buffer retained by the
        // estimate for exactly this query, before any bandwidth change.
        let mut flagged = self.karma.update(&self.inner, feedback);
        self.pending.append(&mut flagged);
        self.pending.sort_unstable();
        self.pending.dedup();
        // Then the bandwidth update (Listing 1).
        self.tuner.observe(&mut self.inner, feedback);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.karma.memory_bytes()
    }

    fn name(&self) -> &str {
        "kde-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::Backend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * 2).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    fn labelled_queries(sample: &[f64], count: usize, seed: u64) -> Vec<LabelledQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = sample.len() / 2;
        (0..count)
            .map(|_| {
                let i = rng.gen_range(0..n);
                let c = [sample[i * 2], sample[i * 2 + 1]];
                let region = Rect::centered(&c, &[0.1, 0.1]);
                let sel = sample
                    .chunks_exact(2)
                    .filter(|r| region.contains(r))
                    .count() as f64
                    / n as f64;
                LabelledQuery::new(region, sel)
            })
            .collect()
    }

    #[test]
    fn all_variants_estimate_within_unit_interval() {
        let sample = uniform_sample(64, 1);
        let queries = labelled_queries(&sample, 20, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut estimators: Vec<Box<dyn SelectivityEstimator>> = vec![
            Box::new(HeuristicKde::new(
                Device::new(Backend::CpuSeq),
                &sample,
                2,
                KernelFn::Gaussian,
            )),
            Box::new(ScvKde::new(
                Device::new(Backend::CpuSeq),
                &sample,
                2,
                KernelFn::Gaussian,
                &CvConfig::default(),
                &mut rng,
            )),
            Box::new(BatchKde::new(
                Device::new(Backend::CpuSeq),
                &sample,
                2,
                KernelFn::Gaussian,
                &queries,
                &BatchConfig::default(),
                &mut rng,
            )),
            Box::new(AdaptiveKde::new(
                Device::new(Backend::CpuSeq),
                &sample,
                2,
                KernelFn::Gaussian,
                AdaptiveConfig::default(),
                KarmaConfig::default(),
            )),
        ];
        let region = Rect::from_intervals(&[(0.2, 0.6), (0.3, 0.8)]);
        for e in &mut estimators {
            let v = e.estimate(&region);
            assert!((0.0..=1.0).contains(&v), "{}: {v}", e.name());
            assert!(e.memory_bytes() > 0);
        }
        let names: Vec<_> = estimators.iter().map(|e| e.name().to_string()).collect();
        assert_eq!(
            names,
            ["kde-heuristic", "kde-scv", "kde-batch", "kde-adaptive"]
        );
    }

    #[test]
    fn batch_beats_heuristic_on_training_distribution() {
        let sample = uniform_sample(128, 4);
        // Clustered "database": the sample IS the database here.
        let train = labelled_queries(&sample, 50, 5);
        let test = labelled_queries(&sample, 50, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut heuristic =
            HeuristicKde::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut batch = BatchKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            &train,
            &BatchConfig::default(),
            &mut rng,
        );
        let err = |e: &mut dyn SelectivityEstimator| {
            test.iter()
                .map(|q| (e.estimate(&q.region) - q.selectivity).abs())
                .sum::<f64>()
                / test.len() as f64
        };
        let he = err(&mut heuristic);
        let be = err(&mut batch);
        assert!(be < he, "batch {be} should beat heuristic {he}");
    }

    #[test]
    fn adaptive_flags_and_replaces_outdated_points() {
        let mut sample = uniform_sample(31, 8);
        sample.extend_from_slice(&[50.0, 50.0]);
        let mut adaptive = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        // Query the stray point's region with actual = 0 (deleted data).
        let region = Rect::from_intervals(&[(49.0, 51.0), (49.0, 51.0)]);
        let est = adaptive.estimate(&region);
        adaptive.observe(&QueryFeedback {
            region: region.clone(),
            estimate: est,
            actual: 0.0,
            cardinality: 0,
        });
        let pending = adaptive.take_pending_replacements();
        assert_eq!(pending, vec![31]);
        assert!(adaptive.take_pending_replacements().is_empty(), "drained");
        adaptive.replace_point(31, &[0.5, 0.5]);
        let est_after = adaptive.estimate(&region);
        assert!(est_after < est, "estimate should drop after replacement");
    }

    #[test]
    fn adaptive_feedback_cycle_is_one_fused_sample_sweep() {
        let sample = uniform_sample(64, 10);
        let mut adaptive = AdaptiveKde::new(
            Device::new(Backend::SimGpu),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        let region = Rect::from_intervals(&[(0.1, 0.6), (0.2, 0.7)]);
        let s0 = adaptive.model().device().stats();
        let est = adaptive.estimate(&region);
        let s_est = adaptive.model().device().stats();
        adaptive.observe(&QueryFeedback {
            region: region.clone(),
            estimate: est,
            actual: 0.3,
            cardinality: 0,
        });
        let s1 = adaptive.model().device().stats();
        // The estimate is ONE fused launch producing both p̂ and ∂p̂/∂h
        // (down from the two separate sweeps of the unfused path)…
        assert_eq!(s_est.kernels - s0.kernels, 1, "fused estimate+gradient");
        // …and the feedback step adds only Karma's two passes — the tuner
        // reuses the cached gradient instead of re-traversing the sample.
        assert_eq!(s1.kernels - s_est.kernels, 2, "karma accumulate + flag");
        assert_eq!(s1.downloads - s_est.downloads, 1, "flag bitmap");
    }

    #[test]
    fn observe_is_safe_without_prior_estimate() {
        let sample = uniform_sample(16, 9);
        let mut adaptive = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        adaptive.observe(&QueryFeedback {
            region: Rect::cube(2, 0.0, 1.0),
            estimate: 0.5,
            actual: 0.4,
            cardinality: 0,
        });
        assert!(adaptive.take_pending_replacements().is_empty());
    }
}
