//! Unified estimator construction and feedback plumbing.

use kdesel_device::{Backend, Device};
use kdesel_estimators::ExactScanEstimator;
use kdesel_hist::{AviEstimator, SthConfig, SthHoles};
use kdesel_kde::{
    AdaptiveConfig, AdaptiveKde, BatchConfig, BatchKde, CvConfig, HeuristicKde, KarmaConfig,
    KernelFn, ScvKde,
};
use kdesel_sample::{ReservoirDecision, ReservoirSampler, SampleEstimator};
use kdesel_storage::{sampling, Table};
use kdesel_types::{LabelledQuery, MemoryBudget, Precision, QueryFeedback, Rect};
use rand::Rng;

/// The five estimators of the paper's evaluation (§6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// KDE with Scott's-rule bandwidth.
    Heuristic,
    /// KDE with smoothed-cross-validation bandwidth.
    Scv,
    /// KDE with workload-optimized bandwidth (§3).
    Batch,
    /// Self-tuning KDE (§4): online bandwidth + Karma maintenance.
    Adaptive,
    /// The STHoles multidimensional histogram.
    SthHoles,
    /// Attribute-value-independence baseline (per-dim equi-depth
    /// histograms, multiplied) — §2.2's strawman.
    Avi,
    /// Naive sample-counting baseline (§2.3's "naïve" sampling estimator).
    Sampling,
    /// Exact scan over a staged table snapshot (the exact baseline).
    Exact,
}

impl EstimatorKind {
    /// All kinds of the paper's evaluation (§6.1.1), in its order.
    pub const ALL: [EstimatorKind; 5] = [
        EstimatorKind::SthHoles,
        EstimatorKind::Heuristic,
        EstimatorKind::Scv,
        EstimatorKind::Batch,
        EstimatorKind::Adaptive,
    ];

    /// The paper's five plus the §2 baselines (AVI, naive sampling).
    pub const EXTENDED: [EstimatorKind; 7] = [
        EstimatorKind::Avi,
        EstimatorKind::Sampling,
        EstimatorKind::SthHoles,
        EstimatorKind::Heuristic,
        EstimatorKind::Scv,
        EstimatorKind::Batch,
        EstimatorKind::Adaptive,
    ];

    /// Every kind the engine can build: the extended paper line-up plus
    /// the exact baseline.
    pub const FULL: [EstimatorKind; 8] = [
        EstimatorKind::Avi,
        EstimatorKind::Sampling,
        EstimatorKind::SthHoles,
        EstimatorKind::Heuristic,
        EstimatorKind::Scv,
        EstimatorKind::Batch,
        EstimatorKind::Adaptive,
        EstimatorKind::Exact,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Heuristic => "heuristic",
            EstimatorKind::Scv => "scv",
            EstimatorKind::Batch => "batch",
            EstimatorKind::Adaptive => "adaptive",
            EstimatorKind::SthHoles => "stholes",
            EstimatorKind::Avi => "avi",
            EstimatorKind::Sampling => "sampling",
            EstimatorKind::Exact => "exact",
        }
    }

    /// Parses a report name back to its kind (the inverse of
    /// [`name`](Self::name)); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        EstimatorKind::FULL.into_iter().find(|k| k.name() == name)
    }
}

/// Construction parameters shared by the experiments.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Memory budget (defaults to the paper's `d · 4 KiB`).
    pub budget: MemoryBudget,
    /// Precision assumed by the budget accounting. The paper's GPU buffers
    /// are f32; this port computes in f64 but sizes models by f32
    /// accounting by default so model scales match the paper.
    pub precision: Precision,
    /// Device backend for the KDE estimators.
    pub backend: Backend,
    /// Kernel function.
    pub kernel: KernelFn,
    /// Batch-optimizer settings.
    pub batch: BatchConfig,
    /// CV-selector settings.
    pub cv: CvConfig,
    /// Adaptive-tuner settings.
    pub adaptive: AdaptiveConfig,
    /// Karma-maintenance settings.
    pub karma: KarmaConfig,
}

impl BuildConfig {
    /// The paper's configuration for dimensionality `d`.
    pub fn paper_default(dims: usize) -> Self {
        Self {
            budget: MemoryBudget::paper_default(dims),
            precision: Precision::F32,
            backend: Backend::CpuPar,
            kernel: KernelFn::Gaussian,
            batch: BatchConfig::default(),
            cv: CvConfig::default(),
            adaptive: AdaptiveConfig::default(),
            karma: KarmaConfig::default(),
        }
    }

    /// Reduces the optimizer budgets (multistart rounds, CV sample caps)
    /// for quick runs on weak machines. Preserves every qualitative result;
    /// the paper-scale profile is the default.
    pub fn with_fast_optimizers(mut self) -> Self {
        self.batch.multistart.rounds = 1;
        self.batch.multistart.samples_per_round = 6;
        self.batch.multistart.local.max_iterations = 40;
        self.cv.multistart.rounds = 1;
        self.cv.multistart.samples_per_round = 4;
        self.cv.max_points = 384;
        self
    }

    /// KDE sample size under this budget.
    pub fn sample_points(&self, dims: usize) -> usize {
        self.budget.kde_sample_points(dims, self.precision).max(2)
    }

    /// STHoles bucket budget under this budget.
    pub fn stholes_buckets(&self, dims: usize) -> usize {
        self.budget.stholes_buckets(dims, self.precision).max(4)
    }
}

/// One estimator of any kind, with the feedback plumbing it needs.
// Variant sizes differ by design: the enum is built a handful of times
// per experiment, so boxing the large variants buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum AnyEstimator {
    /// Scott's-rule KDE.
    Heuristic(HeuristicKde),
    /// SCV-bandwidth KDE.
    Scv(ScvKde),
    /// Workload-optimized KDE.
    Batch(BatchKde),
    /// Self-tuning KDE plus its host-side reservoir state.
    Adaptive {
        /// The estimator.
        kde: AdaptiveKde,
        /// Host-side reservoir decision procedure for inserts.
        reservoir: ReservoirSampler,
    },
    /// STHoles histogram.
    SthHoles(SthHoles),
    /// Independence-assumption baseline.
    Avi(AviEstimator),
    /// Sample-counting baseline.
    Sampling(SampleEstimator),
    /// Exact scan over a staged snapshot of the full table.
    Exact(ExactScanEstimator),
}

impl AnyEstimator {
    /// Builds an estimator of `kind` over `table`, using `sample`
    /// (row-major, as produced by ANALYZE) for the KDE variants and
    /// `training` for the workload-driven ones.
    pub fn build<R: Rng + ?Sized>(
        kind: EstimatorKind,
        table: &Table,
        sample: &[f64],
        training: &[LabelledQuery],
        config: &BuildConfig,
        rng: &mut R,
    ) -> Self {
        let dims = table.dims();
        let device = || Device::new(config.backend);
        match kind {
            EstimatorKind::Heuristic => {
                AnyEstimator::Heuristic(HeuristicKde::new(device(), sample, dims, config.kernel))
            }
            EstimatorKind::Scv => AnyEstimator::Scv(ScvKde::new(
                device(),
                sample,
                dims,
                config.kernel,
                &config.cv,
                rng,
            )),
            EstimatorKind::Batch => AnyEstimator::Batch(BatchKde::new(
                device(),
                sample,
                dims,
                config.kernel,
                training,
                &config.batch,
                rng,
            )),
            EstimatorKind::Adaptive => {
                let kde = AdaptiveKde::new(
                    device(),
                    sample,
                    dims,
                    config.kernel,
                    config.adaptive.clone(),
                    config.karma.clone(),
                );
                let capacity = kde.model().sample_size();
                let seen = (table.row_count() as u64).max(capacity as u64);
                AnyEstimator::Adaptive {
                    kde,
                    reservoir: ReservoirSampler::new(capacity, seen),
                }
            }
            EstimatorKind::SthHoles => {
                let domain = table
                    .bounding_box()
                    .unwrap_or_else(|| Rect::cube(dims, 0.0, 1.0));
                let mut hist = SthHoles::new(
                    domain,
                    table.row_count() as u64,
                    SthConfig {
                        max_buckets: config.stholes_buckets(dims),
                    },
                );
                // STHoles trains from feedback: replay the training workload
                // so the comparison to Batch (which consumes the same
                // queries) is fair, as in §6.2.
                for q in training {
                    hist.refine(&q.region, |r| table.count_in(r));
                }
                AnyEstimator::SthHoles(hist)
            }
            EstimatorKind::Avi => {
                // Fair budget: the same scalar count the KDE sample uses,
                // spent on histogram boundaries instead.
                let scalars = config.budget.bytes() / config.precision.bytes();
                let buckets = (scalars / dims).saturating_sub(1).max(8);
                AnyEstimator::Avi(AviEstimator::build(sample, dims, buckets))
            }
            EstimatorKind::Sampling => AnyEstimator::Sampling(SampleEstimator::new(sample, dims)),
            EstimatorKind::Exact => {
                AnyEstimator::Exact(ExactScanEstimator::new(device(), &flat_rows(table), dims))
            }
        }
    }

    /// Which kind this estimator is.
    pub fn kind(&self) -> EstimatorKind {
        match self {
            AnyEstimator::Heuristic(_) => EstimatorKind::Heuristic,
            AnyEstimator::Scv(_) => EstimatorKind::Scv,
            AnyEstimator::Batch(_) => EstimatorKind::Batch,
            AnyEstimator::Adaptive { .. } => EstimatorKind::Adaptive,
            AnyEstimator::SthHoles(_) => EstimatorKind::SthHoles,
            AnyEstimator::Avi(_) => EstimatorKind::Avi,
            AnyEstimator::Sampling(_) => EstimatorKind::Sampling,
            AnyEstimator::Exact(_) => EstimatorKind::Exact,
        }
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Estimates the selectivity of `region`.
    pub fn estimate(&mut self, region: &Rect) -> f64 {
        match self {
            AnyEstimator::Heuristic(e) => kdesel_types::SelectivityEstimator::estimate(e, region),
            AnyEstimator::Scv(e) => kdesel_types::SelectivityEstimator::estimate(e, region),
            AnyEstimator::Batch(e) => kdesel_types::SelectivityEstimator::estimate(e, region),
            AnyEstimator::Adaptive { kde, .. } => {
                kdesel_types::SelectivityEstimator::estimate(kde, region)
            }
            AnyEstimator::SthHoles(h) => h.estimate_selectivity(region),
            AnyEstimator::Avi(a) => a.estimate(region),
            AnyEstimator::Sampling(s) => s.estimate(region),
            AnyEstimator::Exact(e) => e.estimate(region),
        }
    }

    /// Delivers post-execution feedback, performing any maintenance the
    /// estimator requires against the live table (Karma replacements for
    /// Adaptive, per-bucket counts for STHoles).
    pub fn handle_feedback<R: Rng + ?Sized>(
        &mut self,
        table: &Table,
        feedback: &QueryFeedback,
        rng: &mut R,
    ) {
        match self {
            AnyEstimator::Heuristic(_)
            | AnyEstimator::Scv(_)
            | AnyEstimator::Batch(_)
            | AnyEstimator::Avi(_)
            | AnyEstimator::Sampling(_)
            | AnyEstimator::Exact(_) => {}
            AnyEstimator::Adaptive { kde, .. } => {
                kdesel_types::SelectivityEstimator::observe(kde, feedback);
                for index in kde.take_pending_replacements() {
                    if let Some(row) = sampling::sample_one(table, rng) {
                        kde.replace_point(index, &row);
                    }
                }
            }
            AnyEstimator::SthHoles(h) => {
                h.refine(&feedback.region, |r| table.count_in(r));
            }
        }
    }

    /// Notifies the estimator of an inserted tuple (§4.2 reservoir path).
    /// Only the adaptive estimator reacts.
    pub fn handle_insert<R: Rng + ?Sized>(&mut self, row: &[f64], rng: &mut R) {
        if let AnyEstimator::Adaptive { kde, reservoir } = self {
            if let ReservoirDecision::Replace(slot) = reservoir.observe(rng) {
                kde.reservoir_replace(slot, row);
            }
        }
    }

    /// Model memory footprint in bytes (f64 storage).
    pub fn memory_bytes(&self) -> usize {
        match self {
            AnyEstimator::Heuristic(e) => kdesel_types::SelectivityEstimator::memory_bytes(e),
            AnyEstimator::Scv(e) => kdesel_types::SelectivityEstimator::memory_bytes(e),
            AnyEstimator::Batch(e) => kdesel_types::SelectivityEstimator::memory_bytes(e),
            AnyEstimator::Adaptive { kde, .. } => {
                kdesel_types::SelectivityEstimator::memory_bytes(kde)
            }
            AnyEstimator::SthHoles(h) => h.memory_bytes(),
            AnyEstimator::Avi(a) => a.memory_bytes(),
            AnyEstimator::Sampling(s) => kdesel_types::SelectivityEstimator::memory_bytes(s),
            AnyEstimator::Exact(e) => e.memory_bytes(),
        }
    }
}

/// Flattens the table's live rows into one row-major buffer for the
/// exact-scan snapshot.
fn flat_rows(table: &Table) -> Vec<f64> {
    let mut flat = Vec::with_capacity(table.row_count() * table.dims());
    for (_, row) in table.rows() {
        flat.extend_from_slice(row);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_data::{generate_workload, WorkloadKind, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_table(seed: u64) -> Table {
        kdesel_data::Dataset::Synthetic.generate_projected(2, 2000, seed)
    }

    #[test]
    fn builds_every_kind_and_estimates() {
        let table = small_table(1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = sampling::sample_rows(&table, 128, &mut rng);
        let training = generate_workload(
            &table,
            WorkloadSpec::paper(WorkloadKind::DataVolume),
            20,
            &mut rng,
        );
        let config = BuildConfig::paper_default(2);
        let region = table.bounding_box().unwrap();
        for kind in EstimatorKind::ALL {
            let mut e = AnyEstimator::build(kind, &table, &sample, &training, &config, &mut rng);
            assert_eq!(e.kind(), kind);
            let v = e.estimate(&region);
            assert!(
                (0.9..=1.0).contains(&v),
                "{}: whole-domain estimate {v}",
                kind.name()
            );
            assert!(e.memory_bytes() > 0);
        }
    }

    #[test]
    fn feedback_drives_adaptive_maintenance() {
        let table = small_table(3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sampling::sample_rows(&table, 64, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = AnyEstimator::build(
            EstimatorKind::Adaptive,
            &table,
            &sample,
            &[],
            &config,
            &mut rng,
        );
        // A far-away empty region containing no data: estimate, then feed
        // back zero. No sample point is there, so nothing to replace — must
        // not panic and must keep estimating.
        let region = Rect::cube(2, 1e6, 1e6 + 1.0);
        let est = e.estimate(&region);
        let fb = QueryFeedback {
            region,
            estimate: est,
            actual: 0.0,
            cardinality: 0,
        };
        e.handle_feedback(&table, &fb, &mut rng);
        assert!(e.estimate(&Rect::cube(2, 0.0, 100.0)) > 0.0);
    }

    #[test]
    fn inserts_flow_through_reservoir() {
        let table = small_table(5);
        let mut rng = StdRng::seed_from_u64(6);
        let sample = sampling::sample_rows(&table, 32, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = AnyEstimator::build(
            EstimatorKind::Adaptive,
            &table,
            &sample,
            &[],
            &config,
            &mut rng,
        );
        // Insert many copies of a far-away tuple; the reservoir must
        // eventually pull some into the sample, shifting estimates there.
        // The probe box spans several Scott bandwidths (h ≈ 17 for this
        // sample) so the smoothed mass of the new points is captured.
        let probe = Rect::cube(2, 900.0, 1100.0);
        let before = e.estimate(&probe);
        for _ in 0..2000 {
            e.handle_insert(&[1000.0, 1000.0], &mut rng);
        }
        let after = e.estimate(&probe);
        assert!(
            after > before + 0.05,
            "reservoir did not refresh sample: {before} -> {after}"
        );
    }

    #[test]
    fn stholes_trains_on_training_workload() {
        let table = small_table(7);
        let mut rng = StdRng::seed_from_u64(8);
        let sample = sampling::sample_rows(&table, 32, &mut rng);
        let training = generate_workload(
            &table,
            WorkloadSpec::paper(WorkloadKind::DataTarget),
            30,
            &mut rng,
        );
        let config = BuildConfig::paper_default(2);
        let mut trained = AnyEstimator::build(
            EstimatorKind::SthHoles,
            &table,
            &sample,
            &training,
            &config,
            &mut rng,
        );
        let mut untrained = AnyEstimator::build(
            EstimatorKind::SthHoles,
            &table,
            &sample,
            &[],
            &config,
            &mut rng,
        );
        // Error over the training queries themselves must be lower for the
        // trained histogram.
        let err = |e: &mut AnyEstimator| {
            training
                .iter()
                .map(|q| (e.estimate(&q.region) - q.selectivity).abs())
                .sum::<f64>()
                / training.len() as f64
        };
        let e_trained = err(&mut trained);
        let e_untrained = err(&mut untrained);
        assert!(
            e_trained < e_untrained,
            "trained {e_trained} vs untrained {e_untrained}"
        );
    }

    #[test]
    fn kind_names_round_trip_through_from_name() {
        for kind in EstimatorKind::FULL {
            assert_eq!(EstimatorKind::from_name(kind.name()), Some(kind));
        }
        for bogus in ["", "kde", "EXACT", "hybrid ", "naru"] {
            assert_eq!(EstimatorKind::from_name(bogus), None, "accepted {bogus:?}");
        }
    }

    #[test]
    fn builds_exact_kind_and_estimates() {
        let table = small_table(9);
        let mut rng = StdRng::seed_from_u64(10);
        let sample = sampling::sample_rows(&table, 128, &mut rng);
        let config = BuildConfig::paper_default(2);
        let region = table.bounding_box().unwrap();
        let kind = EstimatorKind::Exact;
        let mut e = AnyEstimator::build(kind, &table, &sample, &[], &config, &mut rng);
        assert_eq!(e.kind(), kind);
        assert_eq!(EstimatorKind::from_name(e.name()), Some(kind));
        let v = e.estimate(&region);
        assert!(
            (0.8..=1.0).contains(&v),
            "{}: whole-domain estimate {v}",
            kind.name()
        );
        assert!(e.memory_bytes() > 0);
    }

    #[test]
    fn exact_kind_scans_the_full_table() {
        let table = small_table(11);
        let mut rng = StdRng::seed_from_u64(12);
        let sample = sampling::sample_rows(&table, 16, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = AnyEstimator::build(
            EstimatorKind::Exact,
            &table,
            &sample,
            &[],
            &config,
            &mut rng,
        );
        // Truth on an arbitrary box, not just the sample's view of it.
        let region = Rect::cube(2, 10.0, 60.0);
        assert_eq!(e.estimate(&region), table.selectivity(&region));
    }

    #[test]
    fn sample_sizes_follow_paper_budget() {
        let config = BuildConfig::paper_default(8);
        assert_eq!(config.sample_points(8), 1024);
        let config3 = BuildConfig::paper_default(3);
        assert_eq!(config3.sample_points(3), 1024);
        assert!(config3.stholes_buckets(3) >= 300);
    }
}
