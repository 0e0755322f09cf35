//! The workload-tuned KDE variants of the paper's evaluation (§6.1.1).
//!
//! The static variants are a [`KdeEstimator`] whose bandwidth is picked at
//! construction: Scott's rule ([`KdeEstimator::new`], "KDE heuristic"),
//! smoothed cross-validation ([`scv_bandwidth`](crate::scv_bandwidth),
//! "KDE SCV"), or the training-workload optimum of §3.4 ([`BatchKde`],
//! "KDE batch"). This module holds the two that carry more than a model:
//!
//! * [`BatchKde`] — the optimized model together with its training loss,
//! * [`AdaptiveKde`] — Scott initialization plus continuous RMSprop
//!   bandwidth tuning, Karma-based sample maintenance and the §4.2
//!   reservoir ("KDE adaptive", §4). Through
//!   [`SelectivityEstimator::maintain`] it refills the slots Karma flags
//!   with fresh tuples from the live [`Relation`]; through
//!   [`SelectivityEstimator::insert`] its reservoir decides which inserted
//!   tuples enter the sample. Callers that own the relation elsewhere
//!   (the serving layer) drive the same steps with
//!   [`observe`](AdaptiveKde::observe),
//!   [`take_pending_replacements`](AdaptiveKde::take_pending_replacements)
//!   and [`replace_point`](AdaptiveKde::replace_point).

use crate::bandwidth::adaptive::{AdaptiveConfig, AdaptiveTuner};
use crate::bandwidth::batch::{optimize_bandwidth, BatchConfig};
use crate::estimator::KdeEstimator;
use crate::karma::{KarmaConfig, KarmaMaintenance};
use crate::kernel::KernelFn;
use crate::reservoir::ReservoirSampler;
use kdesel_device::Device;
use kdesel_types::{LabelledQuery, QueryFeedback, Rect, Relation, SelectivityEstimator};
use rand::Rng;

/// "KDE heuristic", "KDE SCV" and "KDE batch" are all this model; only
/// the bandwidth they were built with differs.
impl SelectivityEstimator for KdeEstimator {
    fn estimate(&mut self, region: &Rect) -> f64 {
        KdeEstimator::estimate(self, region)
    }
    fn memory_bytes(&self) -> usize {
        KdeEstimator::memory_bytes(self)
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

    /// Unwraps the optimized model, the estimator itself (e.g. to register
    /// it with `kdesel-serve`).
    pub fn into_model(self) -> KdeEstimator {
        self.inner
    }
}

/// "KDE adaptive": the self-tuning estimator of §4 — online bandwidth
/// learning, Karma-based sample maintenance and reservoir inserts.
#[derive(Debug)]
pub struct AdaptiveKde {
    inner: KdeEstimator,
    tuner: AdaptiveTuner,
    karma: KarmaMaintenance,
    reservoir: ReservoirSampler,
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
    /// counts restart, and the reservoir counts only the sample itself
    /// until [`with_rows_seen`](Self::with_rows_seen) says otherwise.
    pub fn from_estimator(
        inner: KdeEstimator,
        adaptive: AdaptiveConfig,
        karma: KarmaConfig,
    ) -> Self {
        let karma = KarmaMaintenance::new(&inner, karma);
        let size = inner.sample_size();
        Self {
            tuner: AdaptiveTuner::new(inner.dims(), adaptive),
            reservoir: ReservoirSampler::new(size, size as u64),
            inner,
            karma,
            pending: Vec::new(),
        }
    }

    /// Sets the relation size the sample was drawn from, the reservoir's
    /// `|R|` (at least the sample size).
    pub fn with_rows_seen(mut self, rows: u64) -> Self {
        let size = self.inner.sample_size();
        self.reservoir = ReservoirSampler::new(size, rows.max(size as u64));
        self
    }

    /// The tuner configuration this model was built with.
    pub fn adaptive_config(&self) -> &AdaptiveConfig {
        self.tuner.config()
    }

    /// The Karma configuration this model was built with.
    pub fn karma_config(&self) -> &KarmaConfig {
        self.karma.config()
    }

    /// Processes feedback for the most recent estimate: Karma first (it
    /// consumes the contribution buffer retained by the estimate for
    /// exactly this query, before any bandwidth change), then the
    /// bandwidth update (Listing 1). Slots Karma flags wait in
    /// [`take_pending_replacements`](Self::take_pending_replacements).
    pub fn observe(&mut self, feedback: &QueryFeedback) {
        let mut flagged = self.karma.update(&self.inner, feedback);
        self.pending.append(&mut flagged);
        self.pending.sort_unstable();
        self.pending.dedup();
        self.tuner.observe(&mut self.inner, feedback);
    }

    /// Sample points flagged as outdated and awaiting replacement, in
    /// ascending slot order. The caller samples fresh tuples from the
    /// database and installs them via [`replace_point`](Self::replace_point).
    pub fn take_pending_replacements(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pending)
    }

    /// Installs a fresh tuple at `index` (single device transfer) and
    /// clears the slot's Karma.
    pub fn replace_point(&mut self, index: usize, row: &[f64]) {
        self.inner.replace_point(index, row);
        self.karma.reset_point(&self.inner, index);
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

    fn maintain(&mut self, feedback: &QueryFeedback, relation: &mut dyn Relation) {
        self.observe(feedback);
        for index in self.take_pending_replacements() {
            if let Some(row) = relation.sample_row() {
                self.replace_point(index, &row);
            }
        }
    }

    fn insert(&mut self, row: &[f64], draw: &mut dyn FnMut(u64) -> u64) {
        if let Some(slot) = self.reservoir.observe(draw) {
            self.replace_point(slot, row);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.karma.memory_bytes()
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
        let mut scv =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        scv.set_bandwidth(crate::scv_bandwidth(
            &sample,
            2,
            &Default::default(),
            &mut rng,
        ));
        let mut estimators: Vec<Box<dyn SelectivityEstimator>> = vec![
            Box::new(KdeEstimator::new(
                Device::new(Backend::CpuSeq),
                &sample,
                2,
                KernelFn::Gaussian,
            )),
            Box::new(scv),
            Box::new(
                BatchKde::new(
                    Device::new(Backend::CpuSeq),
                    &sample,
                    2,
                    KernelFn::Gaussian,
                    &queries,
                    &BatchConfig::default(),
                    &mut rng,
                )
                .into_model(),
            ),
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
        for (i, e) in estimators.iter_mut().enumerate() {
            let v = e.estimate(&region);
            assert!((0.0..=1.0).contains(&v), "variant {i}: {v}");
            assert!(e.memory_bytes() > 0);
        }
    }

    #[test]
    fn batch_beats_heuristic_on_training_distribution() {
        let sample = uniform_sample(128, 4);
        // Clustered "database": the sample IS the database here.
        let train = labelled_queries(&sample, 50, 5);
        let test = labelled_queries(&sample, 50, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut heuristic =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut batch = BatchKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            &train,
            &BatchConfig::default(),
            &mut rng,
        )
        .into_model();
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

    /// Hands out numbered rows and counts how many it handed out.
    struct Rows(u64);

    impl Relation for Rows {
        fn count_in(&mut self, _region: &Rect) -> u64 {
            unreachable!("the adaptive model asks for no counts")
        }
        fn sample_row(&mut self) -> Option<Vec<f64>> {
            self.0 += 1;
            Some(vec![0.5, 0.01 * self.0 as f64])
        }
    }

    #[test]
    fn maintain_refills_flagged_slots_in_order_from_the_relation() {
        // Three stray points in an emptied box: the empty-region shortcut
        // flags all three, and each refill takes the relation's next row.
        let mut sample = uniform_sample(29, 11);
        for _ in 0..3 {
            sample.extend_from_slice(&[50.0, 50.0]);
        }
        let mut adaptive = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        let region = Rect::from_intervals(&[(49.0, 51.0), (49.0, 51.0)]);
        let estimate = adaptive.estimate(&region);
        let mut rows = Rows(0);
        adaptive.maintain(
            &QueryFeedback {
                region: region.clone(),
                estimate,
                actual: 0.0,
                cardinality: 0,
            },
            &mut rows,
        );
        assert_eq!(rows.0, 3);
        for (slot, k) in [(29, 1.0), (30, 2.0), (31, 3.0)] {
            assert_eq!(adaptive.model().sample_point(slot), [0.5, 0.01 * k]);
        }
        assert!(adaptive.take_pending_replacements().is_empty());
    }

    #[test]
    fn inserts_enter_through_the_reservoir() {
        let sample = uniform_sample(4, 12);
        let mut adaptive = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        )
        .with_rows_seen(10);
        // |R| goes 10 -> 11: a draw of 3 hits slot 3, a draw of 4 misses.
        let mut asked = Vec::new();
        adaptive.insert(&[7.0, 7.0], &mut |n| {
            asked.push(n);
            3
        });
        adaptive.insert(&[8.0, 8.0], &mut |n| {
            asked.push(n);
            4
        });
        assert_eq!(asked, [11, 12]);
        assert_eq!(adaptive.model().sample_point(3), [7.0, 7.0]);
        assert!(adaptive.model().host_sample()[..6].iter().all(|&v| v < 1.0));
        // The reservoir never counts fewer rows than its sample.
        let mut small = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        )
        .with_rows_seen(1);
        small.insert(&[9.0, 9.0], &mut |n| {
            assert_eq!(n, 5);
            0
        });
        assert_eq!(small.model().sample_point(0), [9.0, 9.0]);
    }

    #[test]
    fn tuning_toward_zero_lands_on_the_bandwidth_floor_with_finite_gradients() {
        use crate::estimator::MIN_BANDWIDTH;
        use kdesel_solver::online::RmsPropConfig;
        assert_eq!(MIN_BANDWIDTH, f64::MIN_POSITIVE.sqrt());
        assert_eq!(MIN_BANDWIDTH * MIN_BANDWIDTH, f64::MIN_POSITIVE);
        // Every point at the origin and a bandwidth just above the floor.
        // The query's lower edge one bandwidth above the points gives a
        // large positive dp/dh, so feedback that the true selectivity is
        // 0 pushes h down by the tuner's largest step, far below the floor.
        let sample = vec![0.0; 16 * 2];
        let h0 = 1.2 * MIN_BANDWIDTH;
        let region = Rect::from_intervals(&[(h0, 1.0), (-1.0, 1.0)]);
        for log_updates in [true, false] {
            let mut model =
                KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
            model.set_bandwidth(vec![h0, h0]);
            let config = AdaptiveConfig {
                mini_batch: 1,
                log_updates,
                rmsprop: RmsPropConfig {
                    rate_init: 50.0,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut adaptive = AdaptiveKde::from_estimator(model, config, KarmaConfig::default());
            let estimate = adaptive.estimate(&region);
            assert!(estimate > 0.1, "log={log_updates}: estimate {estimate}");
            adaptive.observe(&QueryFeedback {
                region: region.clone(),
                estimate,
                actual: 0.0,
                cardinality: 0,
            });
            assert_eq!(adaptive.updates_applied(), 1);
            let h = adaptive.model().bandwidth();
            assert_eq!(h[0], MIN_BANDWIDTH, "log={log_updates}: {h:?}");
            let (value, gradient) = adaptive.inner.estimate_with_gradient(&region);
            assert!(value.is_finite(), "log={log_updates}: estimate {value}");
            assert!(
                gradient.iter().all(|g| g.is_finite()),
                "log={log_updates}: gradient {gradient:?}"
            );
        }
    }
}
