//! SIMD/SoA sweep microbenchmark (BENCH_simd.json).
//!
//! Measures the columnar, lane-vectorized sweep kernels against the
//! scalar row-major (AoS) path they replaced, on a single thread:
//!
//! * **estimate sweep** — `KdeEstimator::estimate` (SoA stripes +
//!   `F64s` lanes) vs a host loop over the row-major sample calling
//!   `KernelFn::contribution` per row into a buffer that is kept on the
//!   device and pairwise-summed there — the work of the pre-SoA hot
//!   path,
//! * **fused gradient sweep** — `estimate_with_gradient` vs the same
//!   loop over `contribution_with_gradient`, writing `1 + d` outputs per
//!   row and pairwise-summing the columns.
//!
//! Both kernels run on a uniform sample, whose continuous columns every
//! sweep evaluates row by row. The Gaussian kernel also runs on a Power
//! sample projected to 8D (`gaussian_dict`), whose weekday and
//! sub-metering columns staging dictionary-codes: the sweeps evaluate
//! those columns' factors once per distinct value and read them by code.
//!
//! Both kernels are measured and every estimate sweep is gated:
//! Epanechnikov is pure polynomial arithmetic, and Gaussian runs the
//! branch-free lane `erf`/`exp` of `kdesel_math::simd`, so both vectorize
//! while the scalar baseline calls Cody's `erf` and libm `exp` per
//! point. The vector sweep pre-scales the bandwidth reciprocals
//! (division-free inner loop) and its lane functions approximate the
//! baseline's to a few ulp, so the two agree to `1e-12 · max(|a|, |b|, 1)`
//! rather than bitwise: before timing, the bench checks the estimate and
//! the fused value and every gradient entry against that bound and exits
//! 1 on a mismatch, so a wrong fast path cannot report a speedup.
//!
//! Results go to `BENCH_simd.json` (override with `BENCH_SIMD_OUT`).
//! With `PERF_SMOKE=1` the run fails (exit 1) if any estimate sweep
//! (Epanechnikov, Gaussian, Gaussian on the dictionary-coded sample) is
//! less than 2x faster than the scalar AoS baseline — the perf-smoke
//! gate.

use kdesel_bench::{emit, Cli};
use kdesel_data::Dataset;
use kdesel_device::{Backend, Device, DeviceBuffer};
use kdesel_engine::report::{fmt, TextTable};
use kdesel_kde::{KdeEstimator, KernelFn};
use kdesel_storage::sampling;
use kdesel_types::stats::wall_median;
use kdesel_types::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One scalar-vs-vector comparison.
struct PathReport {
    label: String,
    scalar_seconds: f64,
    simd_seconds: f64,
}

impl PathReport {
    fn speedup(&self) -> f64 {
        self.scalar_seconds / self.simd_seconds
    }
}

/// The scalar row-major baseline: a host loop runs `f` on every
/// `dims`-wide row of `sample`, writing its `width` outputs into one row
/// of a `rows × width` buffer. The buffer is kept on `device` (the
/// retained per-row contributions) and its columns are summed there with
/// the pairwise reduction the sweeps use.
fn row_major_sums(
    device: &Device,
    sample: &[f64],
    dims: usize,
    width: usize,
    f: impl Fn(&[f64], &mut [f64]),
) -> (Vec<f64>, DeviceBuffer) {
    let mut out = vec![0.0; sample.len() / dims * width];
    for (row, o) in sample.chunks_exact(dims).zip(out.chunks_exact_mut(width)) {
        f(row, o);
    }
    let kept = device.upload(&out);
    (device.reduce_sum_columns(&kept, width), kept)
}

/// Exits 1 unless every SoA sweep output agrees with its scalar AoS
/// counterpart to `1e-12 · max(|a|, |b|, 1)` — the bound the sweep
/// pins its pre-scaled results to against the reference kernels.
fn check_agreement(what: &str, scalar: &[f64], simd: &[f64]) {
    for (i, (&a, &b)) in scalar.iter().zip(simd).enumerate() {
        if (a - b).abs() > 1e-12 * a.abs().max(b.abs()).max(1.0) {
            eprintln!("{what}: scalar AoS and SIMD SoA diverged at output {i}: {a} vs {b}");
            std::process::exit(1);
        }
    }
}

fn json_path(r: &PathReport) -> String {
    format!(
        "{{\"scalar_aos_seconds\": {:e}, \"simd_soa_seconds\": {:e}, \"speedup\": {:.3}}}",
        r.scalar_seconds,
        r.simd_seconds,
        r.speedup()
    )
}

/// Runs both sweeps for one kernel and returns the two comparisons,
/// labelled `name/estimate` and `name/fused_gradient`.
fn bench_kernel(
    name: &str,
    kernel: KernelFn,
    sample: &[f64],
    dims: usize,
    region: &Rect,
    reps: usize,
) -> (PathReport, PathReport) {
    // Vectorized side: the estimator itself (SoA staging + lane sweeps).
    let mut est = KdeEstimator::new(Device::new(Backend::CpuSeq), sample, dims, kernel);
    let bw: Vec<f64> = est.bandwidth().to_vec();
    let n = sample.len() / dims;

    // Scalar side: the pre-SoA hot path — the per-row scalar kernel over
    // the row-major sample, with the same bounds transfer and kept
    // per-row contribution buffer the old `estimate` performed.
    let aos_device = Device::new(Backend::CpuSeq);
    let (lo, hi) = (region.lo(), region.hi());
    let scalar_estimate = || {
        let mut bounds = Vec::with_capacity(2 * dims);
        bounds.extend_from_slice(lo);
        bounds.extend_from_slice(hi);
        let _bounds_buf = aos_device.upload(&bounds);
        let (sums, contributions) = row_major_sums(&aos_device, sample, dims, 1, |row, out| {
            out[0] = kernel.contribution(row, lo, hi, &bw);
        });
        black_box(contributions);
        (sums[0] / n as f64).clamp(0.0, 1.0)
    };

    // The SoA sweep multiplies by hoisted bandwidth reciprocals where
    // the scalar kernel divides, so the two agree to ~1 ulp per factor
    // (the estimator pins the same 1e-12 band against its host oracle).
    check_agreement(
        &format!("{name} estimate"),
        &[scalar_estimate()],
        &[est.estimate(region)],
    );

    let estimate = PathReport {
        label: format!("{name}/estimate"),
        scalar_seconds: wall_median(reps, || {
            black_box(scalar_estimate());
        }),
        simd_seconds: wall_median(reps, || {
            black_box(est.estimate(region));
        }),
    };

    // Fused value+gradient sweep (width 1+d), scalar AoS equivalent.
    let width = 1 + dims;
    let scalar_fused = || {
        let (sums, _) = row_major_sums(&aos_device, sample, dims, width, |row, out| {
            out[0] = kernel.contribution_with_gradient(row, lo, hi, &bw, &mut out[1..]);
        });
        sums
    };
    // Checked like the estimate, after `estimate_with_gradient`'s own
    // normalization of the sums.
    let sums = scalar_fused();
    let mut scalar_outputs = vec![(sums[0] / n as f64).clamp(0.0, 1.0)];
    scalar_outputs.extend(sums[1..].iter().map(|g| g * (1.0 / n as f64)));
    let (simd_value, simd_gradient) = est.estimate_with_gradient(region);
    let mut simd_outputs = vec![simd_value];
    simd_outputs.extend(simd_gradient);
    check_agreement(
        &format!("{name} fused value+gradient"),
        &scalar_outputs,
        &simd_outputs,
    );
    let fused = PathReport {
        label: format!("{name}/fused_gradient"),
        scalar_seconds: wall_median(reps, || {
            black_box(scalar_fused());
        }),
        simd_seconds: wall_median(reps, || {
            black_box(est.estimate_with_gradient(region));
        }),
    };
    (estimate, fused)
}

fn main() {
    let cli = Cli::parse();
    let dims = 8;
    let points = cli.rows_or(1 << 14, 1 << 16);
    let reps = cli.reps_or(15, 41);
    let seed = cli.seed.unwrap_or(0x51d0);
    eprintln!("# simd microbench: {points} sample points, {dims}D, {reps} reps, single thread");

    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<f64> = (0..points * dims)
        .map(|_| rng.gen_range(0.0..100.0))
        .collect();
    // A wide query: nearly every point contributes in every dimension, so
    // the scalar path gets no early-exit advantage and the comparison
    // isolates layout + vectorization.
    let center = vec![50.0; dims];
    let extent = vec![80.0; dims];
    let region = Rect::centered(&center, &extent);

    let (epa_est, epa_fused) = bench_kernel(
        "epanechnikov",
        KernelFn::Epanechnikov,
        &sample,
        dims,
        &region,
        reps,
    );
    let (gauss_est, gauss_fused) =
        bench_kernel("gaussian", KernelFn::Gaussian, &sample, dims, &region, reps);

    // The dictionary-coded sample: `points` rows drawn from a Power table
    // projected to 8D, and a box over the middle 80% of every column.
    let table = Dataset::Power.generate_projected(dims, points * 4, seed);
    let power = sampling::sample_rows(&table, points, &mut rng);
    let coded = Device::new(Backend::CpuSeq)
        .stage_rows_soa(&power, dims)
        .dict_columns();
    eprintln!("# gaussian_dict: {coded} of {dims} Power columns dictionary-coded");
    let spans: Vec<(f64, f64)> = (0..dims)
        .map(|j| {
            let col = power.iter().skip(j).step_by(dims).copied();
            let lo = col.clone().fold(f64::INFINITY, f64::min);
            let hi = col.fold(f64::NEG_INFINITY, f64::max);
            (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        })
        .collect();
    let (dict_est, dict_fused) = bench_kernel(
        "gaussian_dict",
        KernelFn::Gaussian,
        &power,
        dims,
        &Rect::from_intervals(&spans),
        reps,
    );

    let rows = [
        &epa_est,
        &epa_fused,
        &gauss_est,
        &gauss_fused,
        &dict_est,
        &dict_fused,
    ];
    let mut table = TextTable::new(["sweep", "scalar_ms", "simd_ms", "speedup"]);
    for r in rows {
        table.row([
            r.label.clone(),
            fmt(r.scalar_seconds * 1e3),
            fmt(r.simd_seconds * 1e3),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    emit(&cli, &table);

    let json = format!(
        "{{\n  \"config\": {{\"points\": {points}, \"dims\": {dims}, \"reps\": {reps}, \"seed\": {seed}}},\n  \"epanechnikov\": {{\n    \"estimate\": {},\n    \"fused_gradient\": {}\n  }},\n  \"gaussian\": {{\n    \"estimate\": {},\n    \"fused_gradient\": {}\n  }},\n  \"gaussian_dict\": {{\n    \"coded_columns\": {coded},\n    \"estimate\": {},\n    \"fused_gradient\": {}\n  }}\n}}\n",
        json_path(&epa_est),
        json_path(&epa_fused),
        json_path(&gauss_est),
        json_path(&gauss_fused),
        json_path(&dict_est),
        json_path(&dict_fused),
    );
    let out = std::env::var("BENCH_SIMD_OUT").unwrap_or_else(|_| "BENCH_simd.json".into());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!("# wrote {out}");

    // --- Perf-smoke gate: every vectorized estimate sweep must hold 2x.
    let gated = std::env::var("PERF_SMOKE").is_ok_and(|v| v == "1");
    let mut regressed = false;
    for r in [&epa_est, &gauss_est, &dict_est] {
        if r.speedup() >= 2.0 {
            eprintln!(
                "# simd gate ok: {} sweep {:.2}x over scalar AoS",
                r.label,
                r.speedup()
            );
        } else if gated {
            eprintln!(
                "PERF REGRESSION: {} sweep speedup {:.2}x < 2x",
                r.label,
                r.speedup()
            );
            regressed = true;
        } else {
            eprintln!(
                "# warning: {} sweep speedup {:.2}x < 2x (gate off)",
                r.label,
                r.speedup()
            );
        }
    }
    if regressed {
        std::process::exit(1);
    }
}
