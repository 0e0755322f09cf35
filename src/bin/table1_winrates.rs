//! Table 1: pairwise win-rate matrix across all static experiments.
//!
//! Pools the 3D and 8D runs (Figures 4 and 5) and prints, for every pair of
//! estimators, the percentage of experiments in which the row's estimator
//! produced a lower mean absolute error than the column's.

use kdesel_bench::{emit_winrates, Cli};
use kdesel_engine::experiments::static_quality::{figure_cells, run_static_cell, StaticConfig};
use kdesel_engine::experiments::winrate::WinRateMatrix;
use kdesel_engine::EstimatorKind;

fn main() {
    let cli = Cli::parse();
    // The paper's five, plus the bake-off families: the exact baseline
    // and the hybrid router over it and the self-tuning KDE.
    let mut estimators = EstimatorKind::ALL.to_vec();
    estimators.extend([EstimatorKind::Exact, EstimatorKind::Hybrid]);
    let config = StaticConfig {
        rows: cli.rows_or(6_000, 100_000),
        repetitions: cli.reps_or(2, 25),
        train_queries: if cli.full { 100 } else { 50 },
        test_queries: if cli.full { 300 } else { 100 },
        seed: cli.seed.unwrap_or(0x5e1ec7),
        fast_optimizers: !cli.full,
        estimators,
    };
    eprintln!(
        "# Table 1: win rates over all static experiments (rows={} reps={})",
        config.rows, config.repetitions
    );
    let mut matrix = WinRateMatrix::new(config.estimators.clone());
    for dims in [3usize, 8] {
        for cell in figure_cells(dims) {
            eprintln!(
                "# running {}D {} {} ...",
                dims,
                cell.dataset.name(),
                cell.workload.name()
            );
            let result = run_static_cell(cell, &config);
            matrix.add_cell(&result);
        }
    }
    emit_winrates(
        &cli,
        &matrix,
        "Table 1: win rates, all static experiments (%)",
    );
}
