//! Figure 7: estimator runtime with growing model size.
//!
//! 100 UV queries on a synthetic 8D table; Heuristic and Adaptive on the
//! simulated GPU (GTX-460 cost profile) and the multicore CPU (Xeon E5620
//! OpenCL profile), plus STHoles (measured wall-clock, estimation only)
//! and the exact scan over a table of each size (capped at `--rows`; its
//! `model_size` is the rows scanned).
//! "modeled_ms" is the cost-model time the reproduction compares against
//! the paper; "measured_ms" is this machine's actual wall time.

use kdesel_bench::{emit, Cli};
use kdesel_engine::experiments::perf::{run_perf, PerfConfig};
use kdesel_engine::report::{fmt, TextTable};

fn main() {
    let cli = Cli::parse();
    let config = PerfConfig {
        rows: cli.rows_or(100_000, 3_000_000),
        sample_sizes: if cli.full {
            (10..=20).map(|p| 1usize << p).collect()
        } else {
            (10..=17).map(|p| 1usize << p).collect()
        },
        queries: if cli.full { 100 } else { 25 },
        seed: cli.seed.unwrap_or(0xf177),
        ..Default::default()
    };
    eprintln!(
        "# Figure 7: estimation overhead vs model size (synthetic 8D, rows={}, {} UV queries)",
        config.rows, config.queries
    );
    let series = run_perf(&config);
    let mut table = TextTable::new(["series", "model_size", "modeled_ms", "measured_ms"]);
    for s in &series {
        for p in &s.points {
            table.row([
                s.label.clone(),
                p.model_size.to_string(),
                p.modeled_seconds
                    .map(|v| fmt(v * 1e3))
                    .unwrap_or_else(|| "-".to_string()),
                fmt(p.measured_seconds * 1e3),
            ]);
        }
    }
    emit(&cli, &table);
}
