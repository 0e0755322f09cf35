//! Ablations of the design choices DESIGN.md calls out.
//!
//! * [`run_log_update_ablation`] — §5.5's claim: "updating the logarithm of
//!   the bandwidth often leads to improved estimates... we observed
//!   improvements over the non-logarithmic case in 68% of all experiments."
//! * [`run_parameter_sweep`] — sensitivity of the adaptive estimator to the
//!   mini-batch size `N` (§4.1 suggests 10), the Karma cap `K_max`
//!   (footnote 3 suggests 4), and the replacement threshold (unspecified in
//!   the paper; −2 is this repository's default).

use crate::estimators::{BuildConfig, EstimatorKind};
use crate::session::run_query;
use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_storage::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration shared by the ablations.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Datasets × workloads to sweep.
    pub datasets: Vec<Dataset>,
    /// Workloads to sweep.
    pub workloads: Vec<WorkloadKind>,
    /// Dimensionality.
    pub dims: usize,
    /// Table rows.
    pub rows: usize,
    /// Feedback queries per run.
    pub queries: usize,
    /// Repetitions per (dataset, workload) cell.
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            datasets: Dataset::ALL.to_vec(),
            workloads: vec![WorkloadKind::DataTarget, WorkloadKind::DataVolume],
            dims: 3,
            rows: 10_000,
            queries: 200,
            repetitions: 5,
            seed: 0xab1a,
        }
    }
}

/// Result of the log-vs-linear ablation.
#[derive(Debug)]
pub struct LogUpdateResult {
    /// (dataset, workload, rep, log error, linear error) per experiment.
    pub experiments: Vec<(Dataset, WorkloadKind, usize, f64, f64)>,
}

impl LogUpdateResult {
    /// Fraction of experiments where logarithmic updates were strictly
    /// better (paper: 68%).
    pub fn log_win_fraction(&self) -> f64 {
        if self.experiments.is_empty() {
            return 0.0;
        }
        let wins = self
            .experiments
            .iter()
            .filter(|(_, _, _, log, lin)| log < lin)
            .count();
        wins as f64 / self.experiments.len() as f64
    }
}

/// Runs one adaptive estimator over a feedback stream and returns the mean
/// absolute error over the second half of the stream (after warm-up).
fn adaptive_error(
    dataset: Dataset,
    workload: WorkloadKind,
    config: &AblationConfig,
    rep: usize,
    configure: impl Fn(&mut BuildConfig),
) -> f64 {
    let table = dataset.generate_projected(config.dims, config.rows, config.seed);
    let mut rng =
        StdRng::seed_from_u64(config.seed + rep as u64 * 131 + workload.name().len() as u64);
    let mut build = BuildConfig::paper_default(config.dims);
    configure(&mut build);
    let sample = sampling::sample_rows(&table, build.sample_points(config.dims), &mut rng);
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(workload),
        config.queries,
        &mut rng,
    );
    let mut estimator = EstimatorKind::Adaptive.build(&table, &sample, &[], &build, &mut rng);
    let half = queries.len() / 2;
    let mut total = 0.0;
    for (i, q) in queries.iter().enumerate() {
        let out = run_query(&table, estimator.as_mut(), &q.region, &mut rng);
        if i >= half {
            total += out.absolute_error();
        }
    }
    total / (queries.len() - half) as f64
}

/// Runs the §5.5 logarithmic-update ablation.
pub fn run_log_update_ablation(config: &AblationConfig) -> LogUpdateResult {
    let mut experiments = Vec::new();
    for &dataset in &config.datasets {
        for &workload in &config.workloads {
            for rep in 0..config.repetitions {
                let log_err = adaptive_error(dataset, workload, config, rep, |b| {
                    b.adaptive.log_updates = true;
                });
                let lin_err = adaptive_error(dataset, workload, config, rep, |b| {
                    b.adaptive.log_updates = false;
                });
                experiments.push((dataset, workload, rep, log_err, lin_err));
            }
        }
    }
    LogUpdateResult { experiments }
}

/// One row of the parameter sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Parameter name.
    pub parameter: &'static str,
    /// Parameter value.
    pub value: f64,
    /// Mean adaptive error at that value.
    pub error: f64,
}

/// Sweeps mini-batch size, Karma cap, and Karma threshold on the synthetic
/// dataset.
pub fn run_parameter_sweep(config: &AblationConfig) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    let mean_over_reps = |configure: &dyn Fn(&mut BuildConfig)| -> f64 {
        let mut total = 0.0;
        for rep in 0..config.repetitions {
            total += adaptive_error(
                Dataset::Synthetic,
                WorkloadKind::DataTarget,
                config,
                rep,
                configure,
            );
        }
        total / config.repetitions as f64
    };
    for n in [1usize, 5, 10, 20] {
        let err = mean_over_reps(&|b: &mut BuildConfig| b.adaptive.mini_batch = n);
        out.push(SweepPoint {
            parameter: "mini_batch",
            value: n as f64,
            error: err,
        });
    }
    for k_max in [1.0, 2.0, 4.0, 8.0] {
        let err = mean_over_reps(&|b: &mut BuildConfig| b.karma.k_max = k_max);
        out.push(SweepPoint {
            parameter: "k_max",
            value: k_max,
            error: err,
        });
    }
    for threshold in [-0.5, -1.0, -2.0, -4.0] {
        let err = mean_over_reps(&|b: &mut BuildConfig| b.karma.threshold = threshold);
        out.push(SweepPoint {
            parameter: "karma_threshold",
            value: threshold,
            error: err,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig {
            datasets: vec![Dataset::Synthetic],
            workloads: vec![WorkloadKind::DataTarget],
            dims: 2,
            rows: 2_000,
            queries: 60,
            repetitions: 2,
            seed: 3,
        }
    }

    #[test]
    fn log_ablation_produces_paired_errors() {
        let result = run_log_update_ablation(&tiny());
        assert_eq!(result.experiments.len(), 2);
        for (_, _, _, log, lin) in &result.experiments {
            assert!(log.is_finite() && lin.is_finite());
            assert!(*log >= 0.0 && *lin >= 0.0);
        }
        let f = result.log_win_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn parameter_sweep_covers_all_parameters() {
        let mut cfg = tiny();
        cfg.repetitions = 1;
        cfg.queries = 40;
        let points = run_parameter_sweep(&cfg);
        let params: Vec<&str> = points.iter().map(|p| p.parameter).collect();
        assert!(params.contains(&"mini_batch"));
        assert!(params.contains(&"k_max"));
        assert!(params.contains(&"karma_threshold"));
        assert_eq!(points.len(), 12);
        assert!(points.iter().all(|p| p.error.is_finite()));
    }
}
