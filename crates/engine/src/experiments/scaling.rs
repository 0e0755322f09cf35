//! Estimation quality vs. model size (paper §6.3, Figure 6).
//!
//! "The experiment was set up like the previous section, using the 8D
//! Forest dataset and the DT workload. Estimators were built based on 100
//! randomly selected queries, the estimation quality — the absolute
//! selectivity estimation error — was measured based on another 100
//! queries. Each experiment was repeated ten times." Sample sizes sweep
//! 1024 … 32768; errors fall roughly as a power law in `s`, and optimized
//! estimators stay ≈2× more accurate than the heuristic at every size.

use crate::estimators::{BuildConfig, EstimatorKind};
use crate::session::run_query;
use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_storage::sampling;
use kdesel_types::{MemoryBudget, Precision, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scaling-experiment configuration.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Dataset (paper: Forest).
    pub dataset: Dataset,
    /// Dimensionality (paper: 8).
    pub dims: usize,
    /// Table rows.
    pub rows: usize,
    /// Workload (paper: DT).
    pub workload: WorkloadKind,
    /// Sample sizes to sweep (paper: 1024, 2048, …, 32768).
    pub sample_sizes: Vec<usize>,
    /// Estimators (paper: Heuristic, Batch, Adaptive).
    pub estimators: Vec<EstimatorKind>,
    /// Training queries (paper: 100).
    pub train_queries: usize,
    /// Test queries (paper: 100).
    pub test_queries: usize,
    /// Repetitions (paper: 10).
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
    /// Use the reduced optimizer budgets (quick profile).
    pub fast_optimizers: bool,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            dataset: Dataset::Forest,
            dims: 8,
            rows: 50_000,
            workload: WorkloadKind::DataTarget,
            sample_sizes: (10..=15).map(|p| 1usize << p).collect(),
            estimators: vec![
                EstimatorKind::Heuristic,
                EstimatorKind::Batch,
                EstimatorKind::Adaptive,
            ],
            train_queries: 100,
            test_queries: 100,
            repetitions: 10,
            seed: 0xf166,
            fast_optimizers: false,
        }
    }
}

/// Result: for each sample size, per-estimator error summaries over reps.
#[derive(Debug)]
pub struct ScalingResult {
    /// Sample sizes swept.
    pub sample_sizes: Vec<usize>,
    /// `series[e][s]` = summary for estimator `e` at size index `s`.
    pub series: Vec<(EstimatorKind, Vec<Summary>)>,
}

/// Runs the Figure 6 sweep.
pub fn run_scaling(config: &ScalingConfig) -> ScalingResult {
    let table = config
        .dataset
        .generate_projected(config.dims, config.rows, config.seed);
    let mut series: Vec<(EstimatorKind, Vec<Summary>)> = config
        .estimators
        .iter()
        .map(|&k| {
            (
                k,
                config.sample_sizes.iter().map(|_| Summary::new()).collect(),
            )
        })
        .collect();

    for (si, &size) in config.sample_sizes.iter().enumerate() {
        // Budget sized to hold exactly `size` f64 points.
        let mut build = BuildConfig::paper_default(config.dims);
        if config.fast_optimizers {
            build = build.with_fast_optimizers();
        }
        build.budget = MemoryBudget::from_bytes(size * config.dims * 8);
        build.precision = Precision::F64;
        for rep in 0..config.repetitions {
            let mut rng =
                StdRng::seed_from_u64(config.seed + (rep as u64) * 7919 + (si as u64) * 104_729);
            let sample = sampling::sample_rows(&table, size, &mut rng);
            let spec = WorkloadSpec::paper(config.workload);
            let train = generate_workload(&table, spec, config.train_queries, &mut rng);
            let test = generate_workload(&table, spec, config.test_queries, &mut rng);
            for (ei, &kind) in config.estimators.iter().enumerate() {
                let mut est_rng =
                    StdRng::seed_from_u64(config.seed ^ (rep as u64) ^ (ei as u64) << 16);
                let mut estimator = kind.build(&table, &sample, &train, &build, &mut est_rng);
                if kind == EstimatorKind::Adaptive {
                    for q in &train {
                        run_query(&table, estimator.as_mut(), &q.region, &mut est_rng);
                    }
                }
                let mut total = 0.0;
                for q in &test {
                    total += run_query(&table, estimator.as_mut(), &q.region, &mut est_rng)
                        .absolute_error();
                }
                series[ei].1[si].add(total / test.len() as f64);
            }
        }
    }
    ScalingResult {
        sample_sizes: config.sample_sizes.clone(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_decreases_with_model_size() {
        let config = ScalingConfig {
            dataset: Dataset::Synthetic,
            dims: 2,
            rows: 5_000,
            sample_sizes: vec![32, 512],
            estimators: vec![EstimatorKind::Heuristic, EstimatorKind::Batch],
            train_queries: 30,
            test_queries: 40,
            repetitions: 3,
            ..Default::default()
        };
        let result = run_scaling(&config);
        assert_eq!(result.sample_sizes, vec![32, 512]);
        for (kind, summaries) in &result.series {
            let small = summaries[0].mean();
            let large = summaries[1].mean();
            assert!(
                large < small,
                "{}: error should shrink with model size ({small} -> {large})",
                kind.name()
            );
        }
    }
}
