//! Quickstart: build a KDE selectivity estimator over a table and compare
//! the heuristic (Scott's rule) against the workload-optimized bandwidth.
//!
//! Run with `cargo run --release --example quickstart`.

use kdesel::data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel::device::{Backend, Device};
use kdesel::kde::{BatchConfig, BatchKde, KdeEstimator, KernelFn};
use kdesel::storage::sampling;
use kdesel::{LabelledQuery, SelectivityEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A "database": the paper's synthetic clustered dataset, 3D, 50k rows.
    let table = Dataset::Synthetic.generate_projected(3, 50_000, 7);
    println!(
        "table: {} rows × {} attributes",
        table.row_count(),
        table.dims()
    );

    // 2. ANALYZE: draw the model's data sample (1024 points, the paper's
    //    d·4 KiB budget at f32 accounting).
    let sample = sampling::sample_rows(&table, 1024, &mut rng);

    // 3. A training workload with known true selectivities (query feedback).
    let train = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        100,
        &mut rng,
    );

    // 4. Two models over the *same* sample: Scott's rule, and the
    //    bandwidth optimized over the training workload.
    let mut heuristic =
        KdeEstimator::new(Device::new(Backend::CpuPar), &sample, 3, KernelFn::Gaussian);
    let batch = BatchKde::new(
        Device::new(Backend::CpuPar),
        &sample,
        3,
        KernelFn::Gaussian,
        &train,
        &BatchConfig::default(),
        &mut rng,
    );
    println!("scott bandwidth:     {:?}", heuristic.bandwidth());
    println!(
        "optimized bandwidth: {:?}  (training loss {:.2e})",
        batch.model().bandwidth(),
        batch.training_loss()
    );
    let mut batch = batch.into_model();

    // 5. Compare on fresh test queries.
    let test = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        200,
        &mut rng,
    );
    let err_h = mean_error(&mut heuristic, &test);
    let err_b = mean_error(&mut batch, &test);
    println!("\nmean |error| over {} test queries:", test.len());
    println!("  kde-heuristic: {err_h:.5}");
    println!(
        "  kde-batch:     {err_b:.5}  ({:.1}x better)",
        err_h / err_b
    );

    assert!(err_b < err_h, "optimization should beat the heuristic");
}

/// Mean absolute selectivity error over `queries`, through the estimator
/// interface every family implements.
fn mean_error(estimator: &mut dyn SelectivityEstimator, queries: &[LabelledQuery]) -> f64 {
    queries
        .iter()
        .map(|q| (estimator.estimate(&q.region) - q.selectivity).abs())
        .sum::<f64>()
        / queries.len() as f64
}
