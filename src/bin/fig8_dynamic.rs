//! Figure 8: estimation quality on changing data (cluster churn).
//!
//! Prints the progression of the absolute estimation error (averaged over
//! repetitions and smoothed over windows of queries) for STHoles, Heuristic
//! and Adaptive, together with the live tuple count — the two curves of the
//! paper's Figure 8. Runs the 5D scenario by default; `--full` adds 8D.

use kdesel_bench::{emit, Cli};
use kdesel_engine::experiments::dynamic::{run_dynamic, DynamicConfig};
use kdesel_engine::report::{fmt, TextTable};

fn run_dims(cli: &Cli, dims: usize) {
    let config = DynamicConfig {
        dims,
        cluster_size: if cli.full { 1500 } else { 500 },
        cycles: if cli.full { 10 } else { 6 },
        repetitions: cli.reps_or(2, 10),
        seed: cli.seed.unwrap_or(0xf188),
        ..Default::default()
    };
    eprintln!(
        "# Figure 8 ({dims}D): cluster churn, {} cycles × {} tuples, reps={}",
        config.cycles, config.cluster_size, config.repetitions
    );
    let result = run_dynamic(&config);
    let n = result.table_sizes.len();
    let window = (n / 40).max(1);
    let mut table = TextTable::new(["query_window", "tuples", "stholes", "heuristic", "adaptive"]);
    let series_for = |name: &str| {
        result
            .error_series
            .iter()
            .find(|(k, _)| k.name() == name)
            .map(|(_, v)| v.as_slice())
    };
    let (st, he, ad) = (
        series_for("stholes"),
        series_for("heuristic"),
        series_for("adaptive"),
    );
    let window_mean = |s: Option<&[f64]>, a: usize, b: usize| -> String {
        s.map(|v| fmt(v[a..b].iter().sum::<f64>() / (b - a) as f64))
            .unwrap_or_else(|| "-".to_string())
    };
    let mut start = 0;
    while start < n {
        let end = (start + window).min(n);
        table.row([
            format!("{start}..{end}"),
            result.table_sizes[end - 1].to_string(),
            window_mean(st, start, end),
            window_mean(he, start, end),
            window_mean(ad, start, end),
        ]);
        start = end;
    }
    emit(cli, &table);
}

fn main() {
    let cli = Cli::parse();
    run_dims(&cli, 5);
    if cli.full {
        println!();
        run_dims(&cli, 8);
    }
}
