//! Shared CLI plumbing for the experiment binaries.
//!
//! Every figure/table of the paper has one binary under `src/bin/`. Each
//! accepts:
//!
//! * `--full` — paper-scale parameters (slow; the default is a reduced
//!   "quick" configuration that preserves every qualitative result),
//! * `--rows N`, `--reps N`, `--seed N` — explicit overrides,
//! * `--csv` — machine-readable output instead of aligned text,
//! * `--trace FILE` — write a JSONL telemetry trace (one structured
//!   event per line: per-query outcomes, bandwidth-update steps),
//! * `--metrics` — print a metrics summary (counters, gauges, latency
//!   histograms) after the run,
//! * `--prom FILE` — write a Prometheus-style text exposition of every
//!   touched metric at the end of the run.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;

/// One-line usage text shared by `--help` and parse errors.
pub const USAGE: &str = "options: --full  --rows N  --reps N  --seed N  --csv  --trace FILE  \
     --metrics  --prom FILE";

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Paper-scale run.
    pub full: bool,
    /// Row-count override.
    pub rows: Option<usize>,
    /// Repetition override.
    pub reps: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Emit CSV.
    pub csv: bool,
    /// JSONL trace destination.
    pub trace: Option<PathBuf>,
    /// Print a metrics summary after the run.
    pub metrics: bool,
    /// Prometheus-style text exposition destination.
    pub prom: Option<PathBuf>,
    // Flushes the trace sink and prints the metrics table when the last
    // clone drops (i.e. at the end of `main`). `Arc` so `Clone` stays
    // cheap and the summary prints exactly once.
    reporter: Option<Arc<TelemetryReporter>>,
}

impl Cli {
    /// Parses `std::env::args`, exiting with a usage message on bad
    /// arguments, and activates telemetry when `--trace`/`--metrics`
    /// are present.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        match Self::from_args(args) {
            Ok(mut cli) => {
                cli.activate_telemetry();
                cli
            }
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list. Unknown flags, missing values,
    /// and unparsable numbers are errors, not process exits, so the
    /// rejection paths are unit-testable.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = Self {
            full: false,
            rows: None,
            reps: None,
            seed: None,
            csv: false,
            trace: None,
            metrics: false,
            prom: None,
            reporter: None,
        };
        fn value<I: Iterator<Item = String>>(
            it: &mut I,
            flag: &str,
            what: &str,
        ) -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        }
        fn int<T: std::str::FromStr, I: Iterator<Item = String>>(
            it: &mut I,
            flag: &str,
        ) -> Result<T, String> {
            let raw = value(it, flag, "an integer")?;
            raw.parse()
                .map_err(|_| format!("{flag} needs an integer, got {raw:?}"))
        }
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--csv" => cli.csv = true,
                "--metrics" => cli.metrics = true,
                "--rows" => cli.rows = Some(int(&mut it, "--rows")?),
                "--reps" => cli.reps = Some(int(&mut it, "--reps")?),
                "--seed" => cli.seed = Some(int(&mut it, "--seed")?),
                "--trace" => {
                    cli.trace = Some(PathBuf::from(value(&mut it, "--trace", "a file path")?))
                }
                "--prom" => {
                    cli.prom = Some(PathBuf::from(value(&mut it, "--prom", "a file path")?))
                }
                other => return Err(format!("unknown argument {other}; try --help")),
            }
        }
        Ok(cli)
    }

    /// Turns on the telemetry layer according to the parsed flags:
    /// `--trace` installs a JSONL sink, any of the flags enables metric
    /// collection. Without any of them this is a no-op and the
    /// instrumented code paths stay on their disabled fast path.
    fn activate_telemetry(&mut self) {
        if self.trace.is_none() && !self.metrics && self.prom.is_none() {
            return;
        }
        kdesel_telemetry::set_enabled(true);
        if let Some(path) = &self.trace {
            match kdesel_telemetry::JsonlSink::create(path) {
                Ok(sink) => kdesel_telemetry::set_sink(Some(Arc::new(sink))),
                Err(e) => {
                    eprintln!("cannot open trace file {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        self.reporter = Some(Arc::new(TelemetryReporter {
            metrics: self.metrics,
            prom: self.prom.clone(),
        }));
    }

    /// Picks `full_value` under `--full`, else `quick_value`, unless
    /// overridden.
    pub fn rows_or(&self, quick_value: usize, full_value: usize) -> usize {
        self.rows
            .unwrap_or(if self.full { full_value } else { quick_value })
    }

    /// Repetitions with the same precedence rules.
    pub fn reps_or(&self, quick_value: usize, full_value: usize) -> usize {
        self.reps
            .unwrap_or(if self.full { full_value } else { quick_value })
    }
}

/// End-of-run telemetry duties, attached to [`Cli`] so they run when
/// `main` drops its parsed options.
#[derive(Debug)]
struct TelemetryReporter {
    metrics: bool,
    prom: Option<PathBuf>,
}

impl Drop for TelemetryReporter {
    fn drop(&mut self) {
        kdesel_telemetry::flush_sink();
        if self.metrics {
            print_metrics_summary();
        }
        if let Some(path) = &self.prom {
            let text = kdesel_telemetry::prometheus_text(kdesel_telemetry::registry());
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write metrics exposition {}: {e}", path.display());
            }
        }
    }
}

/// Prints every touched metric from the global registry: counters as
/// integers, gauges as numbers, histograms as quantile summaries.
pub fn print_metrics_summary() {
    use kdesel_engine::report::TextTable;
    use kdesel_telemetry::MetricKind;
    let lines = kdesel_telemetry::registry().lines();
    if lines.is_empty() {
        return;
    }
    let sci = |v: f64| format!("{v:.3e}");
    let mut table = TextTable::new(["metric", "kind", "value", "p50", "p90", "p95", "p99", "max"]);
    for line in &lines {
        let (kind, value, quantiles) = match line.kind {
            MetricKind::Counter => ("counter", line.count.to_string(), None),
            MetricKind::Gauge => ("gauge", format!("{:.6}", line.value), None),
            MetricKind::Histogram => {
                let h = line.histogram.as_ref().expect("histogram summary");
                (
                    "histogram",
                    format!("n={} mean={}s", h.count, sci(h.mean)),
                    Some([sci(h.p50), sci(h.p90), sci(h.p95), sci(h.p99), sci(h.max)]),
                )
            }
        };
        let [p50, p90, p95, p99, max] =
            quantiles.unwrap_or_else(|| std::array::from_fn(|_| "-".to_string()));
        table.row([
            line.name.clone(),
            kind.to_string(),
            value,
            p50,
            p90,
            p95,
            p99,
            max,
        ]);
    }
    println!("\n# metrics");
    print!("{}", table.render());
}

/// Runs the Figure 4/5 protocol at the given dimensionality and prints the
/// per-cell boxplot table plus the dims-restricted win-rate matrix.
pub fn run_static_figure(cli: &Cli, dims: usize, title: &str) {
    use kdesel_engine::experiments::static_quality::{figure_cells, run_static_cell, StaticConfig};
    use kdesel_engine::experiments::winrate::WinRateMatrix;
    use kdesel_engine::report::{fmt, TextTable};

    let config = StaticConfig {
        rows: cli.rows_or(6_000, 100_000),
        repetitions: cli.reps_or(2, 25),
        train_queries: if cli.full { 100 } else { 50 },
        test_queries: if cli.full { 300 } else { 100 },
        seed: cli.seed.unwrap_or(0x5e1ec7),
        fast_optimizers: !cli.full,
        ..Default::default()
    };
    eprintln!(
        "# {title}\n# rows={} reps={} train={} test={}",
        config.rows, config.repetitions, config.train_queries, config.test_queries
    );

    let mut table = TextTable::new([
        "dataset",
        "workload",
        "estimator",
        "mean",
        "min",
        "q1",
        "median",
        "q3",
        "max",
    ]);
    let mut matrix = WinRateMatrix::new(config.estimators.clone());
    for cell in figure_cells(dims) {
        eprintln!(
            "# running {} {} ...",
            cell.dataset.name(),
            cell.workload.name()
        );
        let result = run_static_cell(cell, &config);
        for (kind, summary) in &result.summaries {
            let f = summary.five_numbers();
            table.row([
                cell.dataset.name().to_string(),
                cell.workload.name().to_string(),
                kind.name().to_string(),
                fmt(summary.mean()),
                fmt(f.min),
                fmt(f.q1),
                fmt(f.median),
                fmt(f.q3),
                fmt(f.max),
            ]);
        }
        matrix.add_cell(&result);
    }
    emit(cli, &table);
    println!();
    emit_winrates(
        cli,
        &matrix,
        &format!("win rates over {dims}D experiments (%)"),
    );
}

/// Prints a win-rate matrix in the Table 1 layout.
pub fn emit_winrates(
    cli: &Cli,
    matrix: &kdesel_engine::experiments::winrate::WinRateMatrix,
    title: &str,
) {
    use kdesel_engine::report::TextTable;
    println!("# {title}");
    let mut header: Vec<String> = vec!["row_beats".to_string()];
    header.extend(matrix.estimators().iter().map(|k| k.name().to_string()));
    header.push("all".to_string());
    let mut t = TextTable::new(header);
    for &row in matrix.estimators() {
        let mut cells = vec![row.name().to_string()];
        for &col in matrix.estimators() {
            cells.push(match matrix.rate(row, col) {
                Some(r) => format!("{r:.1}"),
                None => "-".to_string(),
            });
        }
        cells.push(match matrix.rate_against_all(row) {
            Some(r) => format!("{r:.1}"),
            None => "-".to_string(),
        });
        t.row(cells);
    }
    emit(cli, &t);
}

/// Prints a table in the format the CLI selected.
pub fn emit(cli: &Cli, table: &kdesel_engine::report::TextTable) {
    if cli.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string())).expect("valid arguments")
    }

    fn parse_err(args: &[&str]) -> String {
        Cli::from_args(args.iter().map(|s| s.to_string())).expect_err("invalid arguments")
    }

    #[test]
    fn defaults_are_quick() {
        let cli = parse(&[]);
        assert!(!cli.full);
        assert!(!cli.csv);
        assert!(!cli.metrics);
        assert!(cli.trace.is_none());
        assert_eq!(cli.rows_or(10, 100), 10);
        assert_eq!(cli.reps_or(2, 25), 2);
    }

    #[test]
    fn full_switches_scales() {
        let cli = parse(&["--full"]);
        assert_eq!(cli.rows_or(10, 100), 100);
        assert_eq!(cli.reps_or(2, 25), 25);
    }

    #[test]
    fn explicit_overrides_win() {
        let cli = parse(&["--full", "--rows", "42", "--reps", "7", "--seed", "9"]);
        assert_eq!(cli.rows_or(10, 100), 42);
        assert_eq!(cli.reps_or(2, 25), 7);
        assert_eq!(cli.seed, Some(9));
    }

    #[test]
    fn csv_flag_is_recognised() {
        assert!(parse(&["--csv"]).csv);
    }

    #[test]
    fn telemetry_flags_parse() {
        let cli = parse(&[
            "--trace",
            "/tmp/t.jsonl",
            "--metrics",
            "--prom",
            "/tmp/m.prom",
        ]);
        assert_eq!(
            cli.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert!(cli.metrics);
        assert_eq!(
            cli.prom.as_deref(),
            Some(std::path::Path::new("/tmp/m.prom"))
        );
        // Parsing alone must not activate telemetry (that happens in
        // `Cli::parse`, i.e. only in real binaries).
        assert!(cli.reporter.is_none());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let msg = parse_err(&["--bogus"]);
        assert!(msg.contains("--bogus"), "{msg}");
    }

    #[test]
    fn missing_values_are_rejected() {
        assert!(parse_err(&["--rows"]).contains("--rows"));
        assert!(parse_err(&["--trace"]).contains("--trace"));
    }

    #[test]
    fn non_integer_values_are_rejected() {
        let msg = parse_err(&["--seed", "banana"]);
        assert!(msg.contains("--seed") && msg.contains("banana"), "{msg}");
    }
}
