//! Cross-cutting integration tests: determinism under fixed seeds and
//! backend equivalence through the full estimator stack.

use kdesel::data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel::device::{Backend, Device};
use kdesel::kde::{BatchConfig, BatchKde, KdeEstimator, KernelFn};
use kdesel::storage::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every experiment-facing component is seeded; identical seeds must give
/// identical numbers end-to-end (dataset → sample → workload → optimized
/// bandwidth → estimates).
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let table = Dataset::Forest.generate_projected(3, 3_000, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let sample = sampling::sample_rows(&table, 256, &mut rng);
        let train = generate_workload(
            &table,
            WorkloadSpec::paper(WorkloadKind::DataTarget),
            30,
            &mut rng,
        );
        let mut batch = BatchKde::new(
            Device::new(Backend::CpuPar),
            &sample,
            3,
            KernelFn::Gaussian,
            &train,
            &BatchConfig::default(),
            &mut rng,
        )
        .into_model();
        let test = generate_workload(
            &table,
            WorkloadSpec::paper(WorkloadKind::DataTarget),
            20,
            &mut rng,
        );
        test.iter()
            .map(|q| batch.estimate(&q.region))
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(), run());
}

/// The paper's quality results are backend-independent: the same model on
/// CpuSeq, CpuPar and SimGpu returns bit-identical estimates and gradients,
/// even though thread counts differ (pairwise reduction fixes the
/// summation order).
#[test]
fn backends_are_bitwise_equivalent_through_the_stack() {
    let table = Dataset::Power.generate_projected(4, 2_000, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let sample = sampling::sample_rows(&table, 512, &mut rng);
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::UniformVolume),
        25,
        &mut rng,
    );
    let mut all_outputs = Vec::new();
    for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
        let mut est = KdeEstimator::new(Device::new(backend), &sample, 4, KernelFn::Gaussian);
        let mut outputs = Vec::new();
        for q in &queries {
            outputs.push(est.estimate(&q.region));
            outputs.extend(est.estimator_gradient(&q.region));
        }
        all_outputs.push(outputs);
    }
    assert_eq!(all_outputs[0], all_outputs[1], "seq vs par");
    assert_eq!(all_outputs[1], all_outputs[2], "par vs sim-gpu");
}

/// The simulated GPU's modeled time reproduces Figure 7's structure through
/// the public API: flat for small models, linear for large, GPU ~4× CPU
/// asymptotically.
#[test]
fn modeled_costs_reproduce_figure7_shape() {
    let dims = 8;
    let mut rng = StdRng::seed_from_u64(9);
    let table = Dataset::Synthetic.generate_projected(dims, 4_000, 10);
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::UniformVolume),
        10,
        &mut rng,
    );
    let base: Vec<f64> = table.rows().flat_map(|(_, r)| r.to_vec()).collect();
    let cost = |backend: Backend, n: usize| -> f64 {
        // Tile `k` moves every value `k` ulps, so tiling repeats no value:
        // a column repeating each value 16 or more times would be staged
        // dictionary-coded and sweep cheaper than Figure 7's continuous
        // samples.
        let sample: Vec<f64> = base
            .iter()
            .cycle()
            .take(n * dims)
            .enumerate()
            .map(|(i, v)| f64::from_bits(v.to_bits() + (i / base.len()) as u64))
            .collect();
        let mut est = KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
        est.device().reset_timing();
        for q in &queries {
            est.estimate(&q.region);
        }
        est.device().modeled_seconds()
    };
    let gpu_small = cost(Backend::SimGpu, 1 << 10);
    let gpu_mid = cost(Backend::SimGpu, 1 << 14);
    let gpu_large = cost(Backend::SimGpu, 1 << 18);
    let cpu_large = cost(Backend::CpuPar, 1 << 18);

    assert!(
        gpu_mid / gpu_small < 2.5,
        "flat region: {gpu_small} -> {gpu_mid}"
    );
    assert!(
        gpu_large / gpu_mid > 4.0,
        "linear region: {gpu_mid} -> {gpu_large}"
    );
    let ratio = cpu_large / gpu_large;
    assert!((2.0..7.0).contains(&ratio), "GPU speedup {ratio}");
}
