//! Criterion microbenchmarks for the performance-critical kernels.
//!
//! These complement the Figure 7 binary: where `fig7_performance` models
//! the paper's hardware, these measure this machine's actual throughput of
//! the building blocks (Cody's and the lane erf, the lane exp, estimate,
//! gradient, Karma pass, STHoles estimate, reservoir decisions, CpuPar
//! dispatch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kdesel_device::{Backend, Device, SWEEP_BLOCK_ROWS};
use kdesel_hist::{SthConfig, SthHoles};
use kdesel_kde::{
    KarmaConfig, KarmaMaintenance, KdeEstimator, KernelFn, LossFunction, ReservoirSampler,
};
use kdesel_math::simd::{F64s, LANES};
use kdesel_storage::Table;
use kdesel_types::{QueryFeedback, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn uniform_sample(n: usize, dims: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dims).map(|_| rng.gen_range(0.0..100.0)).collect()
}

fn bench_erf(c: &mut Criterion) {
    let xs: Vec<f64> = (0..1024).map(|i| (i as f64 - 512.0) / 100.0).collect();
    let mut g = c.benchmark_group("erf");
    g.throughput(Throughput::Elements(xs.len() as u64));
    g.bench_function("cody_1024_values", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &xs {
                acc += kdesel_math::erf(black_box(x));
            }
            black_box(acc)
        })
    });
    // The branch-free lane erf the Gaussian sweeps run, a pack at a time.
    g.bench_function("lane_1024_values", |b| {
        b.iter(|| {
            let mut acc = F64s::splat(0.0);
            for pack in black_box(&xs).chunks_exact(LANES) {
                acc = acc + F64s::from_slice(pack).erf();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_exp(c: &mut Criterion) {
    // The lane exp the Gaussian gradient sweeps run, a pack at a time:
    // arguments in [-300, 0], then the same with one lane in eight below
    // the -746 clamp (result +0.0). A lane that reaches zero through the
    // subnormal range costs its whole pack a microcode assist, so a gap
    // between the two rows is an assist.
    let values: Vec<f64> = (0..1024).map(|i| -300.0 * i as f64 / 1023.0).collect();
    let underflow: Vec<f64> = values
        .iter()
        .enumerate()
        .map(|(i, &x)| if i % LANES == 0 { x - 800.0 } else { x })
        .collect();
    let mut g = c.benchmark_group("exp");
    g.throughput(Throughput::Elements(values.len() as u64));
    for (name, xs) in [
        ("lane_1024_values", &values),
        ("lane_1024_underflow", &underflow),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = F64s::splat(0.0);
                for pack in black_box(xs).chunks_exact(LANES) {
                    acc = acc + F64s::from_slice(pack).exp();
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let dims = 8;
    let mut g = c.benchmark_group("kde_estimate");
    for log2 in [10u32, 13, 16] {
        let n = 1usize << log2;
        let sample = uniform_sample(n, dims, 1);
        let query = Rect::cube(dims, 20.0, 60.0);
        for backend in [Backend::CpuSeq, Backend::CpuPar] {
            let mut est =
                KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
            g.throughput(Throughput::Elements(n as u64));
            g.bench_with_input(BenchmarkId::new(backend.name(), n), &n, |b, _| {
                b.iter(|| black_box(est.estimate(black_box(&query))))
            });
        }
    }
    g.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let dims = 8;
    let n = 1 << 13;
    let sample = uniform_sample(n, dims, 2);
    let est = KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    let query = Rect::cube(dims, 20.0, 60.0);
    let mut g = c.benchmark_group("kde_gradient");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("8d_8k_points", |b| {
        b.iter(|| black_box(est.estimator_gradient(black_box(&query))))
    });
    g.finish();
}

fn bench_karma(c: &mut Criterion) {
    let dims = 8;
    let n = 1 << 13;
    let sample = uniform_sample(n, dims, 3);
    let mut est = KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    let mut karma = KarmaMaintenance::new(&est, KarmaConfig::default());
    let query = Rect::cube(dims, 20.0, 60.0);
    let estimate = est.estimate(&query);
    let fb = QueryFeedback {
        region: query,
        estimate,
        actual: estimate * 0.9,
        cardinality: 0,
    };
    let mut g = c.benchmark_group("karma_update");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("8d_8k_points", |b| {
        b.iter(|| black_box(karma.update(black_box(&est), black_box(&fb))))
    });
    g.finish();
}

fn bench_stholes(c: &mut Criterion) {
    // Build a trained histogram, then measure pure estimation.
    let dims = 3;
    let data = uniform_sample(20_000, dims, 4);
    let table = Table::from_rows(dims, &data);
    let mut hist = SthHoles::new(
        table.bounding_box().unwrap(),
        table.row_count() as u64,
        SthConfig { max_buckets: 512 },
    );
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..300 {
        let c0: Vec<f64> = (0..dims).map(|_| rng.gen_range(5.0..95.0)).collect();
        let q = Rect::centered(&c0, &vec![5.0; dims]);
        hist.refine(&q, |r| table.count_in(r));
    }
    let query = Rect::cube(dims, 20.0, 60.0);
    let mut g = c.benchmark_group("stholes");
    g.bench_function(format!("estimate_{}buckets", hist.bucket_count()), |b| {
        b.iter(|| black_box(hist.estimate_selectivity(black_box(&query))))
    });
    g.finish();
}

fn bench_reservoir(c: &mut Criterion) {
    let mut g = c.benchmark_group("reservoir");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("algorithm_r_10k_decisions", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            let mut r = ReservoirSampler::new(1024, 1_000_000);
            let mut hits = 0u32;
            for _ in 0..10_000 {
                if r.observe(&mut |n| rng.gen_range(0..n)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_loss_gradient(c: &mut Criterion) {
    let dims = 8;
    let n = 1 << 12;
    let sample = uniform_sample(n, dims, 7);
    let mut est = KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    let query = Rect::cube(dims, 10.0, 80.0);
    let estimate = est.estimate(&query);
    let mut g = c.benchmark_group("loss_gradient");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("quadratic_8d_4k", |b| {
        b.iter(|| {
            black_box(est.loss_gradient(black_box(&query), estimate, 0.01, LossFunction::Quadratic))
        })
    });
    g.finish();
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    // The adaptive tuner's per-query work: estimate + bandwidth gradient.
    // Fused shares the per-dimension kernel factors (eq. 16) in one sweep;
    // unfused pays two sweeps recomputing the factors.
    let dims = 8;
    let n = 1 << 13;
    let sample = uniform_sample(n, dims, 8);
    let mut est = KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    let query = Rect::cube(dims, 20.0, 60.0);
    let mut g = c.benchmark_group("fusion");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("fused_estimate_with_gradient_8d_8k", |b| {
        b.iter(|| black_box(est.estimate_with_gradient(black_box(&query))))
    });
    g.bench_function("unfused_estimate_then_gradient_8d_8k", |b| {
        b.iter(|| {
            let e = est.estimate(black_box(&query));
            let grad = est.estimator_gradient(black_box(&query));
            black_box((e, grad))
        })
    });
    g.finish();
}

fn bench_batched_vs_looped(c: &mut Criterion) {
    // The batch optimizer's per-iteration work: evaluate the whole
    // workload. Batched traverses the sample once for all B queries.
    let dims = 8;
    let n = 1 << 13;
    let batch = 16;
    let sample = uniform_sample(n, dims, 9);
    let mut est = KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    let queries: Vec<Rect> = (0..batch)
        .map(|i| Rect::cube(dims, 10.0 + i as f64, 50.0 + 2.0 * i as f64))
        .collect();
    let mut g = c.benchmark_group("batching");
    g.throughput(Throughput::Elements((n * batch) as u64));
    g.bench_function("batched_16_queries_8d_8k", |b| {
        b.iter(|| black_box(est.estimate_batch(black_box(&queries))))
    });
    g.bench_function("looped_16_queries_8d_8k", |b| {
        b.iter(|| {
            let out: Vec<f64> = queries.iter().map(|q| est.estimate(q)).collect();
            black_box(out)
        })
    });
    g.finish();
}

fn bench_par_dispatch(c: &mut Criterion) {
    // One Gaussian 8D estimate is one fused `sweep_reduce` launch. Over 1
    // and 64 sweep blocks it runs every block on the caller (`inline`,
    // CpuSeq), under `kdesel_par`'s work-sized rule (`work_sized`, CpuPar:
    // inline for 1 block, the caller plus spawned threads for 64), and
    // on a scoped thread spawned for the launch while the caller waits
    // (`scoped_spawn`). The 1-block gap between `scoped_spawn` and
    // `work_sized` is one spawn-and-join: the cost
    // `kdesel_par::MIN_FLOPS_PER_THREAD` is sized from.
    let dims = 8;
    let query = Rect::cube(dims, 20.0, 60.0);
    let mut g = c.benchmark_group("par_dispatch");
    for blocks in [1usize, 64] {
        let n = blocks * SWEEP_BLOCK_ROWS;
        let sample = uniform_sample(n, dims, 10);
        let build =
            |backend| KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
        let mut inline = build(Backend::CpuSeq);
        let mut work_sized = build(Backend::CpuPar);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("inline", blocks), &blocks, |b, _| {
            b.iter(|| black_box(inline.estimate(black_box(&query))))
        });
        g.bench_with_input(BenchmarkId::new("work_sized", blocks), &blocks, |b, _| {
            b.iter(|| black_box(work_sized.estimate(black_box(&query))))
        });
        g.bench_with_input(BenchmarkId::new("scoped_spawn", blocks), &blocks, |b, _| {
            b.iter(|| {
                std::thread::scope(|s| {
                    s.spawn(|| work_sized.estimate(black_box(&query)))
                        .join()
                        .expect("the estimate thread panicked")
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_erf,
    bench_exp,
    bench_estimate,
    bench_gradient,
    bench_karma,
    bench_stholes,
    bench_reservoir,
    bench_loss_gradient,
    bench_fused_vs_unfused,
    bench_batched_vs_looped,
    bench_par_dispatch
);
criterion_main!(benches);
