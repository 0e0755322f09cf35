//! Static-data estimation quality (paper §6.2, Figures 4 & 5).
//!
//! Protocol, quoting the paper: "We randomly selected 100 training and 300
//! test queries from the selected workload. Then, we initialized the
//! estimators, and — if applicable — optimized their model parameters based
//! on the training queries. Finally, we measured the average absolute
//! selectivity estimation error on the test set. This process was repeated
//! 25 times... During each run, all estimators were given the exact same
//! set of queries... all KDE-based estimators were built using the same
//! random sample... we restricted all estimators to use the same amount of
//! memory (d · 4 kB)."

use crate::estimators::{BuildConfig, EstimatorKind};
use crate::session::run_query;
use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_storage::{sampling, Table};
use kdesel_types::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One (dataset, dimensionality, workload) cell of Figures 4/5.
#[derive(Debug, Clone, Copy)]
pub struct StaticCell {
    /// Evaluated dataset.
    pub dataset: Dataset,
    /// Projection dimensionality (3 or 8 in the paper).
    pub dims: usize,
    /// Query workload family.
    pub workload: WorkloadKind,
}

/// Static-experiment configuration.
#[derive(Debug, Clone)]
pub struct StaticConfig {
    /// Table rows to generate (the paper uses the full datasets; scale down
    /// for quick runs — relative estimator behaviour is row-count-stable).
    pub rows: usize,
    /// Training queries (paper: 100).
    pub train_queries: usize,
    /// Test queries (paper: 300).
    pub test_queries: usize,
    /// Repetitions (paper: 25).
    pub repetitions: usize,
    /// Estimators to compare.
    pub estimators: Vec<EstimatorKind>,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Use the reduced optimizer budgets (quick profile).
    pub fast_optimizers: bool,
}

impl Default for StaticConfig {
    fn default() -> Self {
        Self {
            rows: 20_000,
            train_queries: 100,
            test_queries: 300,
            repetitions: 25,
            estimators: EstimatorKind::ALL.to_vec(),
            seed: 0x5e1ec7,
            fast_optimizers: false,
        }
    }
}

/// Result of one cell: per estimator, the distribution (over repetitions)
/// of the mean absolute selectivity error.
#[derive(Debug)]
pub struct CellResult {
    /// The cell this result belongs to.
    pub cell: StaticCell,
    /// Parallel to `config.estimators`: mean-error summaries over reps.
    pub summaries: Vec<(EstimatorKind, Summary)>,
}

impl CellResult {
    /// Mean error of one estimator across repetitions.
    pub fn mean_error(&self, kind: EstimatorKind) -> Option<f64> {
        self.summaries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s.mean())
    }

    /// Per-repetition errors of one estimator.
    pub fn rep_errors(&self, kind: EstimatorKind) -> Option<&[f64]> {
        self.summaries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s.values())
    }
}

/// Runs one repetition of one cell against a prepared table; returns the
/// mean absolute error per estimator (order matching `config.estimators`).
fn run_repetition(table: &Table, cell: &StaticCell, config: &StaticConfig, rep: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(rep as u64).wrapping_mul(0x9e37));
    let mut build = BuildConfig::paper_default(cell.dims);
    if config.fast_optimizers {
        build = build.with_fast_optimizers();
    }
    let sample_points = build.sample_points(cell.dims);

    // One sample and one query set, shared by all estimators (§6.2).
    let sample = sampling::sample_rows(table, sample_points, &mut rng);
    let spec = WorkloadSpec::paper(cell.workload);
    let train = generate_workload(table, spec, config.train_queries, &mut rng);
    let test = generate_workload(table, spec, config.test_queries, &mut rng);

    config
        .estimators
        .iter()
        .enumerate()
        .map(|(ei, &kind)| {
            let mut est_rng =
                StdRng::seed_from_u64(config.seed ^ (rep as u64) << 8 ^ (ei as u64 + 1) << 32);
            let mut estimator = kind.build(table, &sample, &train, &build, &mut est_rng);
            // The adaptive estimator "trains" by consuming the training
            // stream as feedback.
            if kind == EstimatorKind::Adaptive {
                for q in &train {
                    run_query(table, estimator.as_mut(), &q.region, &mut est_rng);
                }
            }
            // Measure on the test stream. Self-tuning estimators continue
            // to receive feedback — that is their defining property.
            let mut total = 0.0;
            for q in &test {
                let out = run_query(table, estimator.as_mut(), &q.region, &mut est_rng);
                total += out.absolute_error();
            }
            total / test.len() as f64
        })
        .collect()
}

/// Runs all repetitions of one cell.
pub fn run_static_cell(cell: StaticCell, config: &StaticConfig) -> CellResult {
    assert!(config.repetitions > 0 && config.test_queries > 0);
    let table = cell
        .dataset
        .generate_projected(cell.dims, config.rows, config.seed);
    let mut summaries: Vec<(EstimatorKind, Summary)> = config
        .estimators
        .iter()
        .map(|&k| (k, Summary::new()))
        .collect();
    for rep in 0..config.repetitions {
        let errors = run_repetition(&table, &cell, config, rep);
        for ((_, summary), err) in summaries.iter_mut().zip(errors) {
            summary.add(err);
        }
    }
    CellResult { cell, summaries }
}

/// All cells of Figure 4 (3D) or Figure 5 (8D): five datasets × four
/// workloads.
pub fn figure_cells(dims: usize) -> Vec<StaticCell> {
    let mut cells = Vec::new();
    for dataset in Dataset::ALL {
        for workload in WorkloadKind::ALL {
            cells.push(StaticCell {
                dataset,
                dims,
                workload,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> StaticConfig {
        StaticConfig {
            rows: 3000,
            train_queries: 30,
            test_queries: 40,
            repetitions: 2,
            estimators: vec![
                EstimatorKind::Heuristic,
                EstimatorKind::Batch,
                EstimatorKind::SthHoles,
            ],
            seed: 42,
            fast_optimizers: true,
        }
    }

    #[test]
    fn cell_produces_summaries_for_all_estimators() {
        let cell = StaticCell {
            dataset: Dataset::Synthetic,
            dims: 2,
            workload: WorkloadKind::DataTarget,
        };
        let result = run_static_cell(cell, &quick_config());
        assert_eq!(result.summaries.len(), 3);
        for (kind, summary) in &result.summaries {
            assert_eq!(summary.count(), 2, "{}", kind.name());
            assert!(summary.mean() >= 0.0 && summary.mean() <= 1.0);
        }
        assert!(result.mean_error(EstimatorKind::Batch).is_some());
        assert!(result.mean_error(EstimatorKind::Adaptive).is_none());
    }

    #[test]
    fn batch_beats_heuristic_on_clustered_synthetic() {
        // The paper's headline: optimized bandwidth clearly beats Scott's
        // rule on clustered data.
        let cell = StaticCell {
            dataset: Dataset::Synthetic,
            dims: 2,
            workload: WorkloadKind::DataTarget,
        };
        let mut cfg = quick_config();
        cfg.repetitions = 3;
        let result = run_static_cell(cell, &cfg);
        let batch = result.mean_error(EstimatorKind::Batch).unwrap();
        let heuristic = result.mean_error(EstimatorKind::Heuristic).unwrap();
        assert!(
            batch < heuristic,
            "batch {batch} should beat heuristic {heuristic}"
        );
    }

    #[test]
    fn figure_cells_enumerate_twenty() {
        assert_eq!(figure_cells(3).len(), 20);
        assert_eq!(figure_cells(8).len(), 20);
    }
}
