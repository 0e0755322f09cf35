//! Estimator construction: every kind of the evaluation, built once and
//! used through [`SelectivityEstimator`] afterwards.

use kdesel_device::{Backend, Device};
use kdesel_estimators::ExactScanEstimator;
use kdesel_hist::{AviEstimator, SampleEstimator, SthConfig, SthHoles};
use kdesel_kde::{
    scv_bandwidth, AdaptiveConfig, AdaptiveKde, BatchConfig, BatchKde, CvConfig, KarmaConfig,
    KdeEstimator, KernelFn,
};
use kdesel_storage::Table;
use kdesel_types::{LabelledQuery, MemoryBudget, Precision, Rect, SelectivityEstimator};
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

    /// Builds an estimator of this kind over `table`, using `sample`
    /// (row-major, as produced by ANALYZE) for the sample-based kinds and
    /// `training` for the workload-driven ones.
    pub fn build<R: Rng + ?Sized>(
        self,
        table: &Table,
        sample: &[f64],
        training: &[LabelledQuery],
        config: &BuildConfig,
        rng: &mut R,
    ) -> Box<dyn SelectivityEstimator> {
        let dims = table.dims();
        let device = || Device::new(config.backend);
        match self {
            EstimatorKind::Heuristic => {
                Box::new(KdeEstimator::new(device(), sample, dims, config.kernel))
            }
            EstimatorKind::Scv => {
                let mut kde = KdeEstimator::new(device(), sample, dims, config.kernel);
                kde.set_bandwidth(scv_bandwidth(sample, dims, &config.cv, rng));
                Box::new(kde)
            }
            EstimatorKind::Batch => Box::new(
                BatchKde::new(
                    device(),
                    sample,
                    dims,
                    config.kernel,
                    training,
                    &config.batch,
                    rng,
                )
                .into_model(),
            ),
            EstimatorKind::Adaptive => Box::new(
                AdaptiveKde::new(
                    device(),
                    sample,
                    dims,
                    config.kernel,
                    config.adaptive.clone(),
                    config.karma.clone(),
                )
                .with_rows_seen(table.row_count() as u64),
            ),
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
                Box::new(hist)
            }
            EstimatorKind::Avi => {
                // Fair budget: the same scalar count the KDE sample uses,
                // spent on histogram boundaries instead.
                let scalars = config.budget.bytes() / config.precision.bytes();
                let buckets = (scalars / dims).saturating_sub(1).max(8);
                Box::new(AviEstimator::build(sample, dims, buckets))
            }
            EstimatorKind::Sampling => Box::new(SampleEstimator::new(sample, dims)),
            EstimatorKind::Exact => {
                Box::new(ExactScanEstimator::new(device(), &flat_rows(table), dims))
            }
        }
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
    use kdesel_storage::sampling;
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
            let mut e = kind.build(&table, &sample, &training, &config, &mut rng);
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
        let mut e = EstimatorKind::Adaptive.build(&table, &sample, &[], &config, &mut rng);
        // A far-away empty region containing no data: estimate, then feed
        // back zero. No sample point is there, so nothing to replace — must
        // not panic and must keep estimating.
        let region = Rect::cube(2, 1e6, 1e6 + 1.0);
        crate::run_query(&table, e.as_mut(), &region, &mut rng);
        assert!(e.estimate(&Rect::cube(2, 0.0, 100.0)) > 0.0);
    }

    #[test]
    fn inserts_flow_through_reservoir() {
        let table = small_table(5);
        let mut rng = StdRng::seed_from_u64(6);
        let sample = sampling::sample_rows(&table, 32, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = EstimatorKind::Adaptive.build(&table, &sample, &[], &config, &mut rng);
        // Insert many copies of a far-away tuple; the reservoir must
        // eventually pull some into the sample, shifting estimates there.
        // The probe box spans several Scott bandwidths (h ≈ 17 for this
        // sample) so the smoothed mass of the new points is captured.
        let probe = Rect::cube(2, 900.0, 1100.0);
        let before = e.estimate(&probe);
        for _ in 0..2000 {
            e.insert(&[1000.0, 1000.0], &mut |n| rng.gen_range(0..n));
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
        let mut trained =
            EstimatorKind::SthHoles.build(&table, &sample, &training, &config, &mut rng);
        let mut untrained = EstimatorKind::SthHoles.build(&table, &sample, &[], &config, &mut rng);
        // Error over the training queries themselves must be lower for the
        // trained histogram.
        let err = |e: &mut dyn SelectivityEstimator| {
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
        let mut e = kind.build(&table, &sample, &[], &config, &mut rng);
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
        let mut e = EstimatorKind::Exact.build(&table, &sample, &[], &config, &mut rng);
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
