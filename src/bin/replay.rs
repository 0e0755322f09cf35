//! `kdesel-replay`: workload capture and deterministic replay driver.
//!
//! Two subcommands:
//!
//! * `record` — stands up a mixed-tenant service (a static model, an
//!   adaptive model, and an adaptive model with a Karma tuple-refresh
//!   source, on different backends), drives a seeded estimate+feedback
//!   workload through it with tracing on, and writes the versioned JSONL
//!   capture file.
//! * `run` — loads a capture, verifies every traced request has its
//!   complete `serve.request → serve.batch → serve.launch` span tree
//!   (and `serve.feedback` children), then re-drives the service from
//!   the captured model snapshots and asserts every replayed estimate is
//!   bitwise identical to the recorded one. `--speed 1x` paces
//!   operations to the recorded inter-arrival gaps; `--speed max` (the
//!   default) pushes as fast as the service absorbs them.
//!
//! Exit codes: 0 success, 1 determinism/span failure, 2 usage or IO.

use kdesel_device::{Backend, Device};
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KdeEstimator, KernelFn};
use kdesel_serve::{Capture, ModelKey, ReplaySpeed, ServeConfig, ServedModel, Service};
use kdesel_types::{QueryFeedback, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const USAGE: &str = "\
kdesel-replay — capture and replay kdesel-serve workloads

USAGE:
    kdesel-replay record --out FILE --requests N [--rows N] [--seed N] [--prom FILE]
    kdesel-replay run --capture FILE [--speed max|1x]

record options:
    --out FILE       capture file to write (versioned JSONL)
    --requests N     total estimate requests across the tenant mix
    --rows N         sample rows per model (default 256)
    --seed N         workload seed (default 0xca97)
    --prom FILE      also dump a Prometheus-style metrics snapshot at shutdown

run options:
    --capture FILE   capture file to load
    --speed max|1x   replay pacing (default max)
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

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail_usage(&format!("invalid value {value:?} for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("--help" | "-h") => print!("{USAGE}"),
        other => fail_usage(&format!("unknown subcommand {other:?}")),
    }
}

/// The mixed-tenant registry: three models, three backends, all three
/// served-model kinds.
fn tenants(rows: usize, seed: u64) -> Vec<(ModelKey, ServedModel)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample =
        |dims: usize| -> Vec<f64> { (0..rows * dims).map(|_| rng.gen_range(0.0..1.0)).collect() };
    let static_model = ServedModel::fixed(KdeEstimator::new(
        Device::new(Backend::CpuPar),
        &sample(2),
        2,
        KernelFn::Gaussian,
    ));
    let adaptive = ServedModel::adaptive(AdaptiveKde::new(
        Device::new(Backend::CpuSeq),
        &sample(3),
        3,
        KernelFn::Gaussian,
        AdaptiveConfig::default(),
        KarmaConfig::default(),
    ));
    let refreshed_kde = AdaptiveKde::new(
        Device::new(Backend::SimGpu),
        &sample(2),
        2,
        KernelFn::Gaussian,
        AdaptiveConfig::default(),
        // An eager Karma policy so refresh activity shows up even in
        // short captures.
        KarmaConfig {
            threshold: -0.5,
            ..KarmaConfig::default()
        },
    );
    let mut refresh_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let refreshed = ServedModel::adaptive_with_refresh(
        refreshed_kde,
        Box::new(move |_slot| Some((0..2).map(|_| refresh_rng.gen_range(0.0..1.0)).collect())),
    );
    vec![
        (ModelKey::new("orders", &["price", "qty"]), static_model),
        (ModelKey::new("parts", &["x", "y", "z"]), adaptive),
        (ModelKey::new("lineitem", &["disc", "tax"]), refreshed),
    ]
}

fn random_region(dims: usize, rng: &mut StdRng) -> Rect {
    let intervals: Vec<(f64, f64)> = (0..dims)
        .map(|_| {
            let lo = rng.gen_range(0.0..0.7);
            (lo, lo + rng.gen_range(0.1..0.3))
        })
        .collect();
    Rect::from_intervals(&intervals)
}

fn record(args: &[String]) {
    let out =
        PathBuf::from(arg_value(args, "--out").unwrap_or_else(|| fail_usage("record needs --out")));
    let requests: usize = parse(
        "--requests",
        &arg_value(args, "--requests").unwrap_or_else(|| fail_usage("record needs --requests")),
    );
    let rows: usize = arg_value(args, "--rows").map_or(256, |v| parse("--rows", &v));
    let seed: u64 = arg_value(args, "--seed").map_or(0xca97, |v| parse("--seed", &v));
    let prom = arg_value(args, "--prom").map(PathBuf::from);

    // Telemetry on so the observatory gauges populate alongside the
    // capture; the capture itself does not depend on it.
    kdesel_telemetry::set_enabled(true);
    let service = tenants(rows, seed)
        .into_iter()
        .fold(
            Service::builder(ServeConfig {
                capture: Some(out.clone()),
                ..ServeConfig::default()
            }),
            |builder, (key, model)| builder.register(key, model),
        )
        .build()
        .unwrap_or_else(|e| {
            eprintln!("building service: {e}");
            std::process::exit(2);
        });
    let handle = service.handle();
    let keys = handle.keys();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let mut feedback_sent = 0u64;
    for i in 0..requests {
        let key = &keys[i % keys.len()];
        let dims = handle.dims(key).expect("registered key");
        let region = random_region(dims, &mut rng);
        let pending = handle.submit(key, &region).expect("submit");
        let trace = pending.trace();
        let estimate = pending.wait().expect("estimate");
        // Mixed traffic: roughly half the queries report their true
        // selectivity back, exercising maintenance + Karma + refresh.
        if rng.gen_bool(0.5) {
            let actual = (estimate + rng.gen_range(-0.2..0.4)).clamp(0.0, 1.0);
            let feedback = QueryFeedback {
                region,
                estimate,
                actual,
                cardinality: (actual * 1e6) as u64,
            };
            handle
                .feedback_traced(key, feedback, trace)
                .expect("feedback");
            feedback_sent += 1;
        }
    }
    for key in &keys {
        handle.flush(key).expect("flush");
    }
    service.shutdown().unwrap_or_else(|e| {
        eprintln!("shutdown: {e}");
        std::process::exit(2);
    });
    // Every executor has exited, so the registry holds the final values.
    if let Some(path) = &prom {
        let text = kdesel_telemetry::prometheus_text(kdesel_telemetry::registry());
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("shutdown: writing {}: {e}", path.display());
            std::process::exit(2);
        });
    }
    eprintln!(
        "# recorded {requests} requests ({feedback_sent} with feedback) across {} models -> {}",
        keys.len(),
        out.display()
    );
    if let Some(prom) = prom {
        eprintln!("# metrics snapshot -> {}", prom.display());
    }
}

fn run(args: &[String]) {
    let path = PathBuf::from(
        arg_value(args, "--capture").unwrap_or_else(|| fail_usage("run needs --capture")),
    );
    let speed = match arg_value(args, "--speed").as_deref() {
        None | Some("max") => ReplaySpeed::Max,
        Some("1x") => ReplaySpeed::Realtime,
        Some(other) => fail_usage(&format!("unknown speed {other:?} (use max or 1x)")),
    };

    let capture = Capture::load(&path).unwrap_or_else(|e| {
        eprintln!("loading capture: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "# loaded {}: {} models, {} operations",
        path.display(),
        capture.models.len(),
        capture.ops.len()
    );
    let spans = capture.verify_spans().unwrap_or_else(|e| {
        eprintln!("SPAN TREE INCOMPLETE: {e}");
        std::process::exit(1);
    });
    eprintln!("# span trees verified for {spans} traced operations");
    let started = std::time::Instant::now();
    let outcome = capture.replay(speed).unwrap_or_else(|e| {
        eprintln!("REPLAY DIVERGED: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "# replay ok in {:?}: {} estimates bitwise-identical, {} feedback applied, \
         {} replacements re-installed",
        started.elapsed(),
        outcome.estimates,
        outcome.feedback,
        outcome.replacements
    );
}
