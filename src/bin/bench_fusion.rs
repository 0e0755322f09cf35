//! Fusion/batching microbenchmark (BENCH_fusion.json).
//!
//! Measures the two rewired hot paths against their unfused/looped
//! equivalents:
//!
//! * **estimate hot path** — fused `estimate_with_gradient` vs separate
//!   `estimate` + `estimator_gradient` calls (the adaptive tuner's
//!   per-query work, §5.5),
//! * **batch objective** — one `WorkloadObjective` evaluation vs the
//!   per-query loop it replaced (the batch optimizer's per-iteration work),
//! * **batched estimates** — `estimate_batch` vs looped `estimate`.
//!
//! Wall-clock numbers come from the multicore CPU backend; modeled seconds
//! and launch counts from the simulated GPU (GTX-460 profile), where they
//! are deterministic. Results go to `BENCH_fusion.json` (override with
//! `BENCH_FUSION_OUT`). When `BENCH_FUSION_BASELINE` names a previous
//! report, the run fails with exit 1 if the modeled estimate hot path
//! regressed by more than 2x — the perf-smoke gate.

use kdesel_bench::{emit, Cli};
use kdesel_device::{Backend, Device, DeviceStats};
use kdesel_engine::report::{fmt, TextTable};
use kdesel_kde::{KdeEstimator, KernelFn, LossFunction, WorkloadObjective};
use kdesel_solver::Objective;
use kdesel_telemetry::Json;
use kdesel_types::stats::wall_median;
use kdesel_types::{LabelledQuery, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One measured code path.
struct PathReport {
    label: &'static str,
    wall_seconds: f64,
    modeled_seconds: f64,
    kernels: u64,
    transfers: u64,
}

/// Modeled-time + stats snapshot; subtract two to get a delta.
fn snap(device: &Device) -> (f64, DeviceStats) {
    (device.modeled_seconds(), device.stats())
}

/// Modeled seconds and stats deltas between two snapshots.
fn delta(before: (f64, DeviceStats), after: (f64, DeviceStats)) -> (f64, DeviceStats) {
    (after.0 - before.0, after.1.since(&before.1))
}

fn transfers(s: &DeviceStats) -> u64 {
    s.uploads + s.downloads
}

fn json_path(r: &PathReport) -> String {
    format!(
        "{{\"wall_seconds\": {:e}, \"modeled_seconds\": {:e}, \"kernels\": {}, \"transfers\": {}}}",
        r.wall_seconds, r.modeled_seconds, r.kernels, r.transfers
    )
}

fn main() {
    let cli = Cli::parse();
    let dims = 8;
    let points = cli.rows_or(1 << 12, 1 << 16);
    let batch = if cli.full { 64 } else { 16 };
    let reps = cli.reps_or(7, 25);
    let seed = cli.seed.unwrap_or(0xf05e);
    eprintln!(
        "# fusion microbench: {points} sample points, {dims}D, batch of {batch}, {reps} reps"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<f64> = (0..points * dims)
        .map(|_| rng.gen_range(0.0..100.0))
        .collect();
    let queries: Vec<LabelledQuery> = (0..batch)
        .map(|_| {
            let center: Vec<f64> = (0..dims).map(|_| rng.gen_range(20.0..80.0)).collect();
            let extent: Vec<f64> = (0..dims).map(|_| rng.gen_range(10.0..40.0)).collect();
            LabelledQuery::new(Rect::centered(&center, &extent), rng.gen_range(0.0..0.2))
        })
        .collect();
    let regions: Vec<Rect> = queries.iter().map(|q| q.region.clone()).collect();
    let query = &regions[0];

    let make = |backend| KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
    let mut cpu = make(Backend::CpuPar);
    let mut gpu = make(Backend::SimGpu);

    // --- Estimate hot path: fused estimate+gradient vs two sweeps. ---
    let before = snap(gpu.device());
    black_box(gpu.estimate_with_gradient(query));
    let (m_fused, s_fused) = delta(before, snap(gpu.device()));
    let before = snap(gpu.device());
    black_box(gpu.estimate(query));
    black_box(gpu.estimator_gradient(query));
    let (m_unfused, s_unfused) = delta(before, snap(gpu.device()));
    let hot_fused = PathReport {
        label: "estimate_hot_path/fused",
        wall_seconds: wall_median(reps, || {
            black_box(cpu.estimate_with_gradient(query));
        }),
        modeled_seconds: m_fused,
        kernels: s_fused.kernels,
        transfers: transfers(&s_fused),
    };
    let hot_unfused = PathReport {
        label: "estimate_hot_path/unfused",
        wall_seconds: wall_median(reps, || {
            black_box(cpu.estimate(query));
            black_box(cpu.estimator_gradient(query));
        }),
        modeled_seconds: m_unfused,
        kernels: s_unfused.kernels,
        transfers: transfers(&s_unfused),
    };

    // --- Batch objective: one fused batched eval vs the per-query loop. ---
    let h: Vec<f64> = cpu.bandwidth().to_vec();
    let x: Vec<f64> = h.iter().map(|v| v.ln()).collect();
    let cpu_obj = WorkloadObjective::new(&cpu, &queries, LossFunction::Quadratic, true);
    let mut grad = vec![0.0; dims];
    let obj_fused_wall = wall_median(reps, || {
        black_box(cpu_obj.eval(&x, &mut grad));
    });
    let (obj_fused_modeled, obj_fused_stats) = {
        let gpu_obj = WorkloadObjective::new(&gpu, &queries, LossFunction::Quadratic, true);
        let before = snap(gpu.device());
        black_box(gpu_obj.eval(&x, &mut grad));
        delta(before, snap(gpu.device()))
    };
    // The pre-fusion objective: per query, one estimate sweep plus one
    // gradient sweep at the candidate bandwidth, folded on the host.
    let looped_objective = |est: &mut KdeEstimator| {
        let mut value = 0.0;
        let mut g = vec![0.0; dims];
        for q in &queries {
            let e = est.estimate(&q.region);
            let pg = est.estimator_gradient(&q.region);
            value += LossFunction::Quadratic.value(e, q.selectivity);
            let scale = LossFunction::Quadratic.dvalue_destimate(e, q.selectivity);
            for (a, b) in g.iter_mut().zip(&pg) {
                *a += scale * b;
            }
        }
        black_box((value / batch as f64, g));
    };
    let obj_looped_wall = wall_median(reps, || looped_objective(&mut cpu));
    let before = snap(gpu.device());
    looped_objective(&mut gpu);
    let (obj_looped_modeled, obj_looped_stats) = delta(before, snap(gpu.device()));
    let obj_fused = PathReport {
        label: "batch_objective/fused_batched",
        wall_seconds: obj_fused_wall,
        modeled_seconds: obj_fused_modeled,
        kernels: obj_fused_stats.kernels,
        transfers: transfers(&obj_fused_stats),
    };
    let obj_looped = PathReport {
        label: "batch_objective/looped_unfused",
        wall_seconds: obj_looped_wall,
        modeled_seconds: obj_looped_modeled,
        kernels: obj_looped_stats.kernels,
        transfers: transfers(&obj_looped_stats),
    };

    // --- Batched estimates vs looped estimates. ---
    let before = snap(gpu.device());
    black_box(gpu.estimate_batch(&regions));
    let (m_batched, s_batched) = delta(before, snap(gpu.device()));
    let before = snap(gpu.device());
    for q in &regions {
        black_box(gpu.estimate(q));
    }
    let (m_looped, s_looped) = delta(before, snap(gpu.device()));
    let est_batched = PathReport {
        label: "batched_estimates/batched",
        wall_seconds: wall_median(reps, || {
            black_box(cpu.estimate_batch(&regions));
        }),
        modeled_seconds: m_batched,
        kernels: s_batched.kernels,
        transfers: transfers(&s_batched),
    };
    let est_looped = PathReport {
        label: "batched_estimates/looped",
        wall_seconds: wall_median(reps, || {
            for q in &regions {
                black_box(cpu.estimate(q));
            }
        }),
        modeled_seconds: m_looped,
        kernels: s_looped.kernels,
        transfers: transfers(&s_looped),
    };

    // --- Report. ---
    let rows = [
        &hot_fused,
        &hot_unfused,
        &obj_fused,
        &obj_looped,
        &est_batched,
        &est_looped,
    ];
    let mut table = TextTable::new(["path", "wall_ms", "modeled_ms", "kernels", "transfers"]);
    for r in rows {
        table.row([
            r.label.to_string(),
            fmt(r.wall_seconds * 1e3),
            fmt(r.modeled_seconds * 1e3),
            r.kernels.to_string(),
            r.transfers.to_string(),
        ]);
    }
    emit(&cli, &table);
    let speedup = |a: &PathReport, b: &PathReport| b.wall_seconds / a.wall_seconds;
    println!(
        "# wall speedups: estimate_hot_path {:.2}x, batch_objective {:.2}x, batched_estimates {:.2}x",
        speedup(&hot_fused, &hot_unfused),
        speedup(&obj_fused, &obj_looped),
        speedup(&est_batched, &est_looped),
    );

    let json = format!(
        "{{\n  \"config\": {{\"points\": {points}, \"dims\": {dims}, \"batch\": {batch}, \"reps\": {reps}, \"seed\": {seed}}},\n  \"estimate_hot_path\": {{\n    \"fused\": {},\n    \"unfused\": {},\n    \"wall_speedup\": {:.3}\n  }},\n  \"batch_objective\": {{\n    \"fused_batched\": {},\n    \"looped_unfused\": {},\n    \"wall_speedup\": {:.3}\n  }},\n  \"batched_estimates\": {{\n    \"batched\": {},\n    \"looped\": {},\n    \"wall_speedup\": {:.3}\n  }}\n}}\n",
        json_path(&hot_fused),
        json_path(&hot_unfused),
        speedup(&hot_fused, &hot_unfused),
        json_path(&obj_fused),
        json_path(&obj_looped),
        speedup(&obj_fused, &obj_looped),
        json_path(&est_batched),
        json_path(&est_looped),
        speedup(&est_batched, &est_looped),
    );
    let out = std::env::var("BENCH_FUSION_OUT").unwrap_or_else(|_| "BENCH_fusion.json".into());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!("# wrote {out}");

    // --- Perf-smoke gate: modeled estimate hot path vs baseline. ---
    if let Ok(baseline_path) = std::env::var("BENCH_FUSION_BASELINE") {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        };
        let base = Json::parse(&baseline).and_then(|doc| {
            doc.field("estimate_hot_path")?
                .field("fused")?
                .f64("modeled_seconds")
        });
        let base = base.unwrap_or_else(|e| {
            eprintln!("baseline {baseline_path}: estimate_hot_path.fused.modeled_seconds: {e}");
            std::process::exit(2);
        });
        // Modeled seconds are deterministic: a change here means the fused
        // hot path's launch/flop structure changed, not machine noise.
        if hot_fused.modeled_seconds > 2.0 * base {
            eprintln!(
                "PERF REGRESSION: modeled estimate hot path {:.3e}s > 2x baseline {:.3e}s",
                hot_fused.modeled_seconds, base
            );
            std::process::exit(1);
        }
        eprintln!(
            "# perf gate ok: modeled estimate hot path {:.3e}s vs baseline {:.3e}s",
            hot_fused.modeled_seconds, base
        );
    }
}
