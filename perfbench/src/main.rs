//! The kdesel benchmark: three closed-loop workloads driven through the
//! public serving API, every answer checked.
//!
//! ```text
//! perfbench --workload <plan-probes|selftune-churn|large-model>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run first makes an untraced pass (telemetry off, no event sink):
//! timed set-ups, then a window of `--seconds` of closed-loop load, which
//! yields the end-to-end metrics. With `--trace 1` a second, traced pass
//! repeats the set-up and window with client-side spans around every call
//! into a layer and the service's `serve.*` span events captured in
//! memory; it yields the per-layer metrics and writes its spans to
//! `.bench_out/`. Outputs are then checked, outside every window, on this
//! seed and a second one. Human-readable tables go first; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! the `BENCHMARK.json` metrics of the chosen mode.

mod churn;
mod harness;
mod inputs;
mod pass;
mod procfs;
mod registry;
mod report;
mod statics;
mod stats;
mod trace;

use report::{Metrics, PassOut};
use stats::Accuracy;

/// Where runs write checkpoints and trace files, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics printed as the JSON result with `--trace 0`, in
/// `BENCHMARK.json` order. `estimate_p99_s` and `failed_frac` are printed
/// in the table only: the tail is set by the host's wake-up stalls (its
/// spread between runs exceeds any usable bound), and the failures travel
/// as the result's `attempted` and `failed`.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "estimates_per_s",
    "estimate_p50_s",
    "cpu_s_per_estimate",
    "qerror_p50",
    "qerror_p95",
    "abs_error_mean",
    "rss_peak_mib",
];

/// Per-layer metrics printed as the JSON result with `--trace 1`, in
/// `BENCHMARK.json` order: the ones every workload produces. Layers only
/// some workloads call (`serve.flush_s`, `storage.*`, …) appear in the
/// per-layer table and the trace file, and so do the times read from
/// registry histograms (`kde.estimate_seconds`, `device.kernel.<kind>`),
/// which are bucket midpoints that repeat exactly from run to run.
const PER_LAYER: [&str; 46] = [
    "serve.submit_s.p50",
    "serve.queue_s.p50",
    "serve.queue_s.p99",
    "serve.reply_s.p50",
    "serve.reply_s.p99",
    "serve.share_of_latency.p50",
    "serve.batch_size.mean",
    "serve.batch_size.p99",
    "serve.batches",
    "serve.maintenance_applied",
    "serve.replacements",
    "serve.checkpoints",
    "serve.build_s",
    "cpu.executor_s_per_estimate",
    "cpu.client_s_per_estimate",
    "cpu.other_s_per_estimate",
    "kde.launch_s.p50",
    "kde.launch_s.p99",
    "kde.launch_s_per_query.p50",
    "kde.estimate_seconds.count",
    "kde.karma_updates",
    "kde.karma_flagged",
    "kde.karma_replaced",
    "kde.analyze_s",
    "solver.lbfgs_iterations",
    "solver.multistart_restarts",
    "solver.linesearch_failures",
    "device.kernels_per_estimate",
    "device.bytes_up_per_estimate",
    "device.bytes_down_per_estimate",
    "device.pool_hit_ratio",
    "device.kernel.sweep_multi_reduce.count",
    "device.kernel.upload.count",
    "device.kernel.stage_rows_soa.count",
    "device.kernel.download.count",
    "device.kernel.write_row_soa.count",
    "device.kernel.zip_update_inplace.count",
    "device.kernel.map_rows.count",
    "engine.query_s.p50",
    "engine.query_s.p99",
    "trace.overhead.setup_s",
    "trace.overhead.estimates_per_s",
    "trace.overhead.estimate_p50_s",
    "trace.overhead.estimate_p99_s",
    "trace.overhead.cpu_s_per_estimate",
    "trace.incomplete",
];

/// Everything a workload run hands back for reporting.
pub struct Outcome {
    /// The untraced pass.
    pub untraced: PassOut,
    /// The traced pass, with `--trace 1`.
    pub traced: Option<PassOut>,
    /// Accuracy over the workload's fixed query sequence.
    pub accuracy: Accuracy,
    /// Peak RSS after the untraced pass, MiB.
    pub rss_mib: f64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or failed the check.
    pub failed: u64,
}

/// The seed of the second output check.
pub fn second_seed(seed: u64) -> u64 {
    inputs::derive(seed, 0x0005_ec0d_5eed)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_table(title: &str, metrics: &Metrics) {
    println!("# {title}");
    for m in &metrics.0 {
        println!("{:<40} {:>16.9e} {}", m.name, m.value, m.unit);
    }
}

/// Picks the named metrics, in order, for the JSON result.
fn select(metrics: &Metrics, names: &[&str]) -> Metrics {
    let mut out = Metrics::default();
    for &name in names {
        let m = metrics
            .0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        out.0.push(m.clone());
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan-probes|selftune-churn|large-model> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "plan-probes" => statics::PLAN_PROBES.run(args.seed, args.seconds, args.trace),
        "large-model" => statics::LARGE_MODEL.run(args.seed, args.seconds, args.trace),
        "selftune-churn" => churn::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={} available_parallelism={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut e2e = report::end_to_end(&outcome.untraced, outcome.accuracy, outcome.rss_mib);
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    e2e.push("failed_frac", failed_frac, "ratio");
    print_table(
        &format!(
            "end-to-end, untraced pass ({} set-ups, {} estimates in {:.3} s, {:.1}% of CPU \
             stolen by the host; timings over the {} quietest of {} slices)",
            outcome.untraced.setup_s.len(),
            outcome.untraced.ops.len(),
            outcome.untraced.window_s,
            100.0 * outcome.untraced.steal_share(),
            outcome.untraced.quiet_slices().len(),
            outcome.untraced.slice_steal.len(),
        ),
        &e2e,
    );
    let result = match &outcome.traced {
        Some(traced) => {
            let layers = report::per_layer(&outcome.untraced, traced);
            let t = traced.traced.as_ref().expect("traced records");
            print_table(
                &format!(
                    "per-layer, traced pass ({} estimates in {:.3} s)",
                    traced.ops.len(),
                    traced.window_s
                ),
                &layers,
            );
            // One file per workload, overwritten by its next traced run.
            let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.jsonl", args.workload));
            let mut spans = t.setup_spans.clone();
            spans.extend(t.window_spans.iter().cloned());
            trace::write_jsonl(&path, &spans, &t.events)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("# spans and serve.* events written to {}", path.display());
            select(&layers, &PER_LAYER)
        }
        None => select(&e2e, &END_TO_END),
    };
    println!(
        "{}",
        report::result_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &result
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of `BENCHMARK.json`, in file order.
    fn names_in(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn result_metrics_match_benchmark_json() {
        assert_eq!(names_in("end_to_end"), END_TO_END);
        assert_eq!(names_in("per_layer"), PER_LAYER);
    }
}
