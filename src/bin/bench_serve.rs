//! Serving-layer benchmark (BENCH_serve.json).
//!
//! Two measurements over `kdesel-serve`:
//!
//! * **coalescing gate** — B concurrent submissions served by ONE fused
//!   `estimate_batch` launch vs the same B requests served one launch
//!   each (`max_batch = 1`). Modeled seconds come from the simulated GPU
//!   (GTX-460 profile) where they are deterministic; the run fails with
//!   exit 1 unless the coalesced path is at least 2x faster — small
//!   models sit in the paper's latency-bound flat region (Figure 7), so
//!   fusing B launches into one removes (B-1) launch+transfer latencies.
//! * **window sweep** — wall-clock throughput and end-to-end latency
//!   quantiles (nearest-rank p50/p99) for producer threads hammering one
//!   model while the batching window (`max_batch`) grows: the
//!   latency-vs-throughput trade the `ServeConfig` knobs control.
//!
//! Results go to `BENCH_serve.json` (override with `BENCH_SERVE_OUT`).

use kdesel_bench::{emit, Cli};
use kdesel_device::{Backend, Device};
use kdesel_engine::report::{fmt, TextTable};
use kdesel_kde::{KdeEstimator, KernelFn};
use kdesel_serve::{ModelKey, ServeConfig, ServedModel, Service};
use kdesel_types::stats::nearest_rank;
use kdesel_types::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

struct SweepPoint {
    max_batch: usize,
    throughput_rps: f64,
    p50_latency_seconds: f64,
    p99_latency_seconds: f64,
    coalescing_ratio: f64,
    batches: u64,
}

fn make_regions(count: usize, dims: usize, rng: &mut StdRng) -> Vec<Rect> {
    (0..count)
        .map(|_| {
            let intervals: Vec<(f64, f64)> = (0..dims)
                .map(|_| {
                    let lo = rng.gen_range(0.0..70.0);
                    (lo, lo + rng.gen_range(5.0..30.0))
                })
                .collect();
            Rect::from_intervals(&intervals)
        })
        .collect()
}

fn build_service(backend: Backend, sample: &[f64], dims: usize, max_batch: usize) -> Service {
    Service::builder(ServeConfig {
        max_batch,
        max_wait: Duration::from_micros(200),
        ..ServeConfig::default()
    })
    .register(
        ModelKey::new("bench", &["x"]),
        ServedModel::fixed(KdeEstimator::new(
            Device::new(backend),
            sample,
            dims,
            KernelFn::Gaussian,
        )),
    )
    .build()
    .expect("service build")
}

fn main() {
    let cli = Cli::parse();
    let dims = 4;
    let points = cli.rows_or(1 << 10, 1 << 13);
    let producers = if cli.full { 16 } else { 8 };
    let per_producer = cli.reps_or(60, 250);
    let gate_batch = 16;
    let seed = cli.seed.unwrap_or(0x5e4e);
    eprintln!(
        "# serve bench: {points} sample points, {dims}D, {producers} producers x {per_producer} reqs, gate batch {gate_batch}"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<f64> = (0..points * dims)
        .map(|_| rng.gen_range(0.0..100.0))
        .collect();
    let key = ModelKey::new("bench", &["x"]);
    let gate_regions = make_regions(gate_batch, dims, &mut rng);
    let sweep_regions = make_regions(64, dims, &mut rng);

    // --- Coalescing gate (deterministic, SimGpu modeled time). ---
    // Coalesced: B async submissions, one fused launch.
    let service = build_service(Backend::SimGpu, &sample, dims, gate_batch);
    let handle = service.handle();
    let before = handle.report(&key).unwrap();
    let pending: Vec<_> = gate_regions
        .iter()
        .map(|q| handle.submit(&key, q).unwrap())
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
    let after = handle.report(&key).unwrap();
    let coalesced_modeled = after.modeled_seconds - before.modeled_seconds;
    let coalesced_kernels = after.device.kernels - before.device.kernels;
    let coalesced_batches = after.batches;
    service.shutdown().unwrap();

    // One-request-per-launch: the same B requests, max_batch = 1.
    let service = build_service(Backend::SimGpu, &sample, dims, 1);
    let handle = service.handle();
    let before = handle.report(&key).unwrap();
    for q in &gate_regions {
        handle.estimate(&key, q).unwrap();
    }
    let after = handle.report(&key).unwrap();
    let single_modeled = after.modeled_seconds - before.modeled_seconds;
    let single_kernels = after.device.kernels - before.device.kernels;
    service.shutdown().unwrap();

    let modeled_speedup = single_modeled / coalesced_modeled;
    eprintln!(
        "# coalescing gate: {gate_batch} requests — coalesced {coalesced_modeled:.3e}s modeled \
         ({coalesced_kernels} launches, {coalesced_batches} batches) vs single {single_modeled:.3e}s \
         ({single_kernels} launches) → {modeled_speedup:.1}x"
    );

    // --- Window sweep (wall clock, multicore CPU backend).
    let windows: &[usize] = if cli.full {
        &[1, 2, 4, 8, 16, 32, 64]
    } else {
        &[1, 4, 16, 64]
    };
    let mut sweep = Vec::new();
    for &max_batch in windows {
        let service = build_service(Backend::CpuPar, &sample, dims, max_batch);
        let handle = service.handle();
        let started = Instant::now();
        let mut latencies: Vec<f64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..producers)
                .map(|p| {
                    let handle = handle.clone();
                    let key = &key;
                    let regions = &sweep_regions;
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_producer);
                        for i in 0..per_producer {
                            let q = &regions[(p + i * producers) % regions.len()];
                            let t = Instant::now();
                            handle.estimate(key, q).unwrap();
                            lat.push(t.elapsed().as_secs_f64());
                        }
                        lat
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let report = handle.report(&key).unwrap();
        service.shutdown().unwrap();
        latencies.sort_by(f64::total_cmp);
        sweep.push(SweepPoint {
            max_batch,
            throughput_rps: latencies.len() as f64 / wall,
            p50_latency_seconds: nearest_rank(&latencies, 0.50),
            p99_latency_seconds: nearest_rank(&latencies, 0.99),
            coalescing_ratio: report.coalescing_ratio(),
            batches: report.batches,
        });
    }

    // --- Report. ---
    let mut table = TextTable::new([
        "max_batch",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "coalesce_ratio",
        "batches",
    ]);
    for s in &sweep {
        table.row([
            s.max_batch.to_string(),
            fmt(s.throughput_rps),
            fmt(s.p50_latency_seconds * 1e3),
            fmt(s.p99_latency_seconds * 1e3),
            fmt(s.coalescing_ratio),
            s.batches.to_string(),
        ]);
    }
    emit(&cli, &table);

    let sweep_json = sweep
        .iter()
        .map(|s| {
            format!(
                "    {{\"max_batch\": {}, \"throughput_rps\": {:.1}, \"p50_latency_seconds\": {:e}, \"p99_latency_seconds\": {:e}, \"coalescing_ratio\": {:.3}, \"batches\": {}}}",
                s.max_batch,
                s.throughput_rps,
                s.p50_latency_seconds,
                s.p99_latency_seconds,
                s.coalescing_ratio,
                s.batches
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"config\": {{\"points\": {points}, \"dims\": {dims}, \"producers\": {producers}, \"per_producer\": {per_producer}, \"seed\": {seed}}},\n  \"coalescing_gate\": {{\n    \"batch\": {gate_batch},\n    \"coalesced\": {{\"modeled_seconds\": {coalesced_modeled:e}, \"kernels\": {coalesced_kernels}}},\n    \"single\": {{\"modeled_seconds\": {single_modeled:e}, \"kernels\": {single_kernels}}},\n    \"modeled_speedup\": {modeled_speedup:.3}\n  }},\n  \"window_sweep\": [\n{sweep_json}\n  ]\n}}\n"
    );
    let out = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!("# wrote {out}");

    // --- Perf gate: coalescing must pay off at batch >= 16. Modeled
    // seconds are deterministic, so this never flakes on machine noise.
    if modeled_speedup < 2.0 {
        eprintln!(
            "PERF REGRESSION: coalesced serving only {modeled_speedup:.2}x faster than \
             one-request-per-launch (need >= 2x at batch {gate_batch})"
        );
        std::process::exit(1);
    }
    eprintln!("# perf gate ok: coalescing speedup {modeled_speedup:.1}x >= 2x");
}
