//! `kdesel-calibrate`: measure a backend, fit its cost model, emit the
//! versioned measured profile.
//!
//! The paper's cost model is calibrated per installation (§6.4): launch
//! latency, transfer bandwidth, and effective throughput are measured on
//! the target device rather than assumed. This binary is that
//! calibration step for the simulated device layer. It runs the
//! structured microbenchmark sweep from `kdesel_device::calibrate`,
//! fits all five `CostProfile` parameters by least squares (via
//! `kdesel-solver` L-BFGS), prints a modeled-vs-measured report, and
//! writes the `MeasuredProfile` JSON that `Device::with_profile` and
//! the serve scheduler's adaptive batching deadline consume.
//!
//! Exit codes: 0 success, 1 fit divergence or residual above `--gate`,
//! 2 usage or IO.

use kdesel_device::calibrate::{calibrate, PointOp};
use kdesel_device::{Backend, CalibrationConfig, MeasuredPoint};
use std::path::PathBuf;

const USAGE: &str = "\
kdesel-calibrate — fit a measured device cost profile

USAGE:
    kdesel-calibrate [--backend NAME] [--quick|--full] [--reps N]
                     [--out FILE] [--gate PCT]

options:
    --backend NAME   cpu-seq | cpu-par | sim-gpu (default cpu-seq)
    --quick          CI-sized sweep (default)
    --full           full (n, intensity, bytes) grid, more reps
    --reps N         wall-time repetitions per point (default 3 quick / 7 full)
    --out FILE       write the MeasuredProfile JSON here
    --gate PCT       fail (exit 1) if median residual exceeds PCT percent
";

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => fail_usage(&format!("{flag} needs a value")),
        })
}

fn describe(point: &MeasuredPoint) -> String {
    match point.op {
        PointOp::Transfer => format!("transfer {:>9} B", point.bytes),
        PointOp::Kernel => format!(
            "kernel   n={:<7} f={:<5}",
            point.items, point.flops_per_item
        ),
        PointOp::Sweep => format!(
            "sweep    n={:<7} f={:<5}",
            point.items, point.flops_per_item
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    for (i, a) in args.iter().enumerate() {
        let is_flag_value = i > 0
            && matches!(
                args[i - 1].as_str(),
                "--backend" | "--reps" | "--out" | "--gate"
            );
        if !is_flag_value
            && !matches!(
                a.as_str(),
                "--backend" | "--quick" | "--full" | "--reps" | "--out" | "--gate"
            )
        {
            fail_usage(&format!("unknown argument {a:?}"));
        }
    }

    let backend_name = arg_value(&args, "--backend").unwrap_or_else(|| "cpu-seq".to_string());
    let backend = Backend::from_name(&backend_name)
        .unwrap_or_else(|| fail_usage(&format!("unknown backend {backend_name:?}")));
    let quick = !args.iter().any(|a| a == "--full");
    let reps = match arg_value(&args, "--reps") {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail_usage(&format!("bad --reps {v:?}"))),
        None => {
            if quick {
                3
            } else {
                7
            }
        }
    };
    let out: Option<PathBuf> = arg_value(&args, "--out").map(PathBuf::from);
    let gate: Option<f64> = arg_value(&args, "--gate").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail_usage(&format!("bad --gate {v:?}")))
    });

    let config = CalibrationConfig { reps, quick };
    eprintln!(
        "calibrating {} ({} sweep, {} reps/point)...",
        backend.name(),
        if quick { "quick" } else { "full" },
        reps
    );
    let (measured, report) = calibrate(backend, &config);

    let p = &measured.profile;
    println!("fitted CostProfile for {}:", measured.backend);
    println!(
        "  kernel_launch_latency  {:>12.3e} s",
        p.kernel_launch_latency
    );
    println!("  transfer_latency       {:>12.3e} s", p.transfer_latency);
    println!(
        "  transfer_bandwidth     {:>12.3e} B/s",
        p.transfer_bandwidth
    );
    println!(
        "  compute_throughput     {:>12.3e} FLOP/s",
        p.compute_throughput
    );
    println!("  vector_width           {:>12.3}", p.vector_width);
    println!(
        "fit: {:?} after {} iterations, objective {:.3e}",
        report.outcome, report.iterations, report.objective
    );
    println!("modeled vs measured per point:");
    for point in &measured.points {
        println!(
            "  {}  measured {:>10.3e}s  modeled {:>10.3e}s  residual {:>6.1}%",
            describe(point),
            point.measured_seconds,
            point.modeled_seconds,
            point.residual * 100.0
        );
    }
    println!("median residual: {:.1}%", measured.median_residual * 100.0);

    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, measured.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    }

    if !report.converged {
        eprintln!(
            "CALIBRATION FAILED: fit did not converge ({:?})",
            report.outcome
        );
        std::process::exit(1);
    }
    if let Some(gate_pct) = gate {
        let measured_pct = measured.median_residual * 100.0;
        if measured_pct > gate_pct {
            eprintln!(
                "CALIBRATION FAILED: median residual {measured_pct:.1}% > gate {gate_pct:.1}%"
            );
            std::process::exit(1);
        }
    }
}
