//! Criterion benchmarks for the optimization stack: L-BFGS and multistart
//! on standard test functions, the batch bandwidth objective, and the SCV
//! selector — the compute behind model (re)builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_device::{Backend, Device};
use kdesel_kde::{
    optimize_bandwidth, scv_bandwidth, BatchConfig, CvConfig, KdeEstimator, KernelFn,
};
use kdesel_solver::{lbfgs, multistart, Bounds, LbfgsConfig, MultistartConfig};
use kdesel_storage::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_lbfgs(c: &mut Criterion) {
    let mut g = c.benchmark_group("lbfgs");
    for dims in [2usize, 10, 30] {
        let obj = kdesel_solver::testfns::rosenbrock(dims);
        let start = vec![-1.2; dims];
        let bounds = Bounds::unbounded(dims);
        let cfg = LbfgsConfig {
            max_iterations: 200,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("rosenbrock", dims), &dims, |b, _| {
            b.iter(|| black_box(lbfgs(&obj, &bounds, black_box(&start), &cfg)))
        });
    }
    g.finish();
}

fn bench_multistart(c: &mut Criterion) {
    let obj = kdesel_solver::testfns::rastrigin(2);
    let bounds = Bounds::uniform(2, -5.12, 5.12);
    let cfg = MultistartConfig::default();
    c.bench_function("multistart/rastrigin_2d", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(multistart(&obj, &bounds, &[], &cfg, &mut rng))
        })
    });
}

fn bench_batch_optimize(c: &mut Criterion) {
    let table = Dataset::Synthetic.generate_projected(3, 10_000, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let sample = sampling::sample_rows(&table, 512, &mut rng);
    let train = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        50,
        &mut rng,
    );
    let estimator = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 3, KernelFn::Gaussian);
    let mut cfg = BatchConfig::default();
    cfg.multistart.rounds = 1;
    cfg.multistart.samples_per_round = 4;
    c.bench_function("batch_optimize/3d_512pts_50q", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(optimize_bandwidth(&estimator, &train, &cfg, &mut rng))
        })
    });
}

fn bench_scv_selector(c: &mut Criterion) {
    let table = Dataset::Protein.generate_projected(3, 5_000, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let sample = sampling::sample_rows(&table, 256, &mut rng);
    let cfg = CvConfig {
        max_points: 256,
        ..Default::default()
    };
    c.bench_function("cv/scv_3d_256pts", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(scv_bandwidth(&sample, 3, &cfg, &mut rng))
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let table = Dataset::Synthetic.generate_projected(3, 20_000, 8);
    let mut g = c.benchmark_group("workload_gen");
    for kind in [WorkloadKind::DataTarget, WorkloadKind::UniformVolume] {
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(9);
                black_box(generate_workload(
                    &table,
                    WorkloadSpec::paper(kind),
                    20,
                    &mut rng,
                ))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lbfgs, bench_multistart, bench_batch_optimize,
              bench_scv_selector, bench_workload_generation
}
criterion_main!(benches);
