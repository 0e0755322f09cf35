//! Perf-trend history: git-rev-stamped benchmark records and the rolling
//! trend gate.
//!
//! Every `bench_*` binary appends one JSONL line per run to
//! `results/BENCH_history.jsonl` (override with `BENCH_HISTORY_OUT`):
//!
//! ```json
//! {"v":1,"bench":"serve","git":"<rev>","unix_s":1738000000,"metrics":{"modeled_speedup":6.7}}
//! ```
//!
//! A one-number-per-run file beats the full `BENCH_*.json` snapshots for
//! trend questions ("has fusion speedup drifted down over the last ten
//! commits?") because the whole history fits in one grep. The trend gate
//! ([`check_trend`]) compares the current run against the rolling median
//! of the previous runs of the same benchmark and names every metric
//! that regressed, with measured-vs-threshold values — the `perf_smoke.sh`
//! failure report.

use kdesel_telemetry::Json;
use kdesel_types::stats::nearest_rank;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema version of a history line.
pub const HISTORY_VERSION: u64 = 1;

/// Runs of the same benchmark the rolling baseline is computed over.
pub const ROLLING_WINDOW: usize = 5;

/// One benchmark run: which bench, at which commit, measuring what.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Benchmark name (`"fusion"`, `"serve"`, `"simd"`).
    pub bench: String,
    /// Git revision the run was built from (`"unknown"` outside a repo).
    pub git: String,
    /// Seconds since the Unix epoch at record time.
    pub unix_s: u64,
    /// Metric name → value, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl HistoryEntry {
    /// A new entry stamped with the current git revision and wall clock.
    pub fn stamped(bench: &str, metrics: Vec<(String, f64)>) -> Self {
        Self {
            bench: bench.to_string(),
            git: git_rev(),
            unix_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            metrics,
        }
    }

    /// The value of one metric, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn to_json_line(&self) -> String {
        Json::object([
            ("v", Json::from(HISTORY_VERSION)),
            ("bench", Json::from(self.bench.as_str())),
            ("git", Json::from(self.git.as_str())),
            ("unix_s", Json::from(self.unix_s)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::from(*value)))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }
}

/// The history file for this run: `BENCH_HISTORY_OUT` or
/// `results/BENCH_history.jsonl`.
pub fn history_path() -> PathBuf {
    std::env::var("BENCH_HISTORY_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results/BENCH_history.jsonl"))
}

/// The current git revision, read without shelling out: follows
/// `.git/HEAD` one level (symbolic ref or detached hash), walking up
/// from the current directory to find the repository. `"unknown"` when
/// there is no repository or the ref is unreadable.
pub fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let head = dir.join(".git/HEAD");
        if head.is_file() {
            return rev_from_head(&dir.join(".git"), &head);
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn rev_from_head(git_dir: &Path, head: &Path) -> String {
    let Ok(content) = std::fs::read_to_string(head) else {
        return "unknown".to_string();
    };
    let content = content.trim();
    let Some(refname) = content.strip_prefix("ref: ") else {
        return content.to_string(); // detached HEAD: the hash itself
    };
    match std::fs::read_to_string(git_dir.join(refname.trim())) {
        Ok(hash) => hash.trim().to_string(),
        // Ref may live only in packed-refs (fresh clone); scan it.
        Err(_) => std::fs::read_to_string(git_dir.join("packed-refs"))
            .ok()
            .and_then(|packed| {
                packed.lines().find_map(|line| {
                    line.strip_suffix(refname.trim())
                        .map(|hash| hash.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Appends one entry to the history file, creating parent directories as
/// needed. Failure to record history must never fail a benchmark run, so
/// errors come back as strings for the caller to print.
pub fn append(path: &Path, entry: &HistoryEntry) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{}", entry.to_json_line()).map_err(|e| e.to_string())
}

/// Loads every parseable entry; malformed or version-skewed lines are
/// skipped (a history file survives schema evolution and hand edits).
pub fn load(path: &Path) -> Vec<HistoryEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines().filter_map(parse_line).collect()
}

/// Decodes one history line; `None` for malformed or version-skewed
/// lines. A metric written as `null` (non-finite) reads back as NaN.
fn parse_line(line: &str) -> Option<HistoryEntry> {
    let doc = Json::parse(line).ok()?;
    if doc.u64("v").ok()? != HISTORY_VERSION {
        return None;
    }
    let Json::Obj(metrics) = doc.field("metrics").ok()? else {
        return None;
    };
    Some(HistoryEntry {
        bench: doc.str("bench").ok()?.to_string(),
        git: doc.str("git").ok()?.to_string(),
        unix_s: doc.u64("unix_s").ok()?,
        metrics: metrics
            .iter()
            .map(|(name, value)| match value {
                Json::Null => Some((name.clone(), f64::NAN)),
                value => Some((name.clone(), value.as_f64()?)),
            })
            .collect::<Option<_>>()?,
    })
}

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput, speedups: regressing means dropping.
    HigherIsBetter,
    /// Latencies, modeled seconds: regressing means rising.
    LowerIsBetter,
}

/// One metric's trend expectation: direction plus relative tolerance
/// (0.25 = a 25% move against the direction fails the gate).
#[derive(Debug, Clone)]
pub struct TrendSpec {
    /// Metric name as recorded in [`HistoryEntry::metrics`].
    pub metric: String,
    /// Which way regressions point.
    pub direction: Direction,
    /// Allowed relative drift against the rolling median.
    pub tolerance: f64,
}

impl TrendSpec {
    /// Convenience constructor.
    pub fn new(metric: &str, direction: Direction, tolerance: f64) -> Self {
        Self {
            metric: metric.to_string(),
            direction,
            tolerance,
        }
    }
}

/// One gated metric that moved against its direction.
#[derive(Debug, Clone)]
pub struct TrendFailure {
    /// Metric that regressed.
    pub metric: String,
    /// This run's value.
    pub measured: f64,
    /// The pass/fail boundary derived from the baseline and tolerance.
    pub threshold: f64,
    /// Rolling median of the previous runs.
    pub baseline: f64,
}

impl fmt::Display for TrendFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TREND REGRESSION: {} measured {:.4e} vs threshold {:.4e} (rolling median {:.4e})",
            self.metric, self.measured, self.threshold, self.baseline
        )
    }
}

/// Gates `current` against the rolling median of the most recent
/// [`ROLLING_WINDOW`] prior runs of the same benchmark. Metrics without
/// at least two prior samples pass silently (no baseline yet), so a
/// fresh repo never trips the gate.
pub fn check_trend(
    history: &[HistoryEntry],
    current: &HistoryEntry,
    specs: &[TrendSpec],
) -> Vec<TrendFailure> {
    let mut failures = Vec::new();
    for spec in specs {
        let mut prior: Vec<f64> = history
            .iter()
            .filter(|e| e.bench == current.bench)
            .filter_map(|e| e.metric(&spec.metric))
            .collect();
        if prior.len() < 2 {
            continue;
        }
        let tail_start = prior.len().saturating_sub(ROLLING_WINDOW);
        prior = prior.split_off(tail_start);
        prior.sort_by(f64::total_cmp);
        let baseline = nearest_rank(&prior, 0.5);
        let Some(measured) = current.metric(&spec.metric) else {
            continue;
        };
        let (threshold, failed) = match spec.direction {
            Direction::HigherIsBetter => {
                let t = baseline * (1.0 - spec.tolerance);
                (t, measured < t)
            }
            Direction::LowerIsBetter => {
                let t = baseline * (1.0 + spec.tolerance);
                (t, measured > t)
            }
        };
        if failed {
            failures.push(TrendFailure {
                metric: spec.metric.clone(),
                measured,
                threshold,
                baseline,
            });
        }
    }
    failures
}

/// The shared tail of every `bench_*` main: always append this run to
/// the history file, and when `BENCH_TREND=1` gate it against the
/// rolling baseline, printing each failing metric and exiting 1.
pub fn record_and_gate(entry: HistoryEntry, specs: &[TrendSpec]) {
    let path = history_path();
    let history = load(&path);
    let gate = std::env::var("BENCH_TREND").is_ok_and(|v| v == "1");
    if let Err(e) = append(&path, &entry) {
        eprintln!("# warning: cannot append bench history: {e}");
    } else {
        eprintln!("# appended {} run to {}", entry.bench, path.display());
    }
    if !gate {
        return;
    }
    let failures = check_trend(&history, &entry, specs);
    if failures.is_empty() {
        eprintln!(
            "# trend gate ok: {} within tolerance of the rolling baseline ({} prior runs)",
            entry.bench,
            history.iter().filter(|e| e.bench == entry.bench).count()
        );
        return;
    }
    for failure in &failures {
        eprintln!("{failure}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, metrics: &[(&str, f64)]) -> HistoryEntry {
        HistoryEntry {
            bench: bench.to_string(),
            git: "deadbeef".to_string(),
            unix_s: 1_700_000_000,
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let e = entry("serve", &[("modeled_speedup", 6.7), ("rps_16", 3902.0)]);
        let parsed = parse_line(&e.to_json_line()).expect("parse");
        assert_eq!(parsed, e);
    }

    #[test]
    fn append_and_load_round_trip() {
        let path = std::env::temp_dir().join(format!(
            "kdesel-bench-history-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let runs = [
            entry("fusion", &[("hot_path_modeled_s", 1.2e-4)]),
            entry("serve", &[("modeled_speedup", 6.7)]),
        ];
        for r in &runs {
            append(&path, r).expect("append");
        }
        let loaded = load(&path);
        assert_eq!(loaded, runs);
        std::fs::remove_file(&path).unwrap();
    }

    /// The checked-in history must decode and re-encode byte for byte:
    /// the format is pinned by real data, not only by round trips.
    #[test]
    fn checked_in_history_reencodes_byte_identically() {
        let checked_in = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_history.jsonl"
        ));
        let original = std::fs::read_to_string(checked_in).expect("checked-in history");
        let entries = load(checked_in);
        assert_eq!(entries.len(), original.lines().count());
        let path = std::env::temp_dir().join(format!(
            "kdesel-bench-history-pin-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        for entry in &entries {
            append(&path, entry).expect("append");
        }
        let reencoded = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reencoded, original);
    }

    #[test]
    fn malformed_and_skewed_lines_are_skipped() {
        assert!(parse_line("not json").is_none());
        assert!(parse_line("").is_none());
        let skewed = entry("serve", &[("x", 1.0)])
            .to_json_line()
            .replacen("\"v\":1", "\"v\":99", 1);
        assert!(parse_line(&skewed).is_none());
    }

    #[test]
    fn trend_gate_names_the_failing_metric() {
        let history: Vec<HistoryEntry> = (0..4)
            .map(|_| entry("serve", &[("rps", 1000.0), ("p99_s", 2e-3)]))
            .collect();
        let specs = [
            TrendSpec::new("rps", Direction::HigherIsBetter, 0.25),
            TrendSpec::new("p99_s", Direction::LowerIsBetter, 0.5),
        ];
        // Within tolerance: no failures.
        let ok = entry("serve", &[("rps", 900.0), ("p99_s", 2.5e-3)]);
        assert!(check_trend(&history, &ok, &specs).is_empty());
        // Throughput collapses and latency blows up: both named.
        let bad = entry("serve", &[("rps", 500.0), ("p99_s", 8e-3)]);
        let failures = check_trend(&history, &bad, &specs);
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].metric, "rps");
        assert!((failures[0].threshold - 750.0).abs() < 1e-9);
        let text = failures[0].to_string();
        assert!(text.contains("TREND REGRESSION"), "{text}");
        assert!(text.contains("rps"), "{text}");
        // Other benches' runs must not pollute the baseline.
        let foreign: Vec<HistoryEntry> = (0..4).map(|_| entry("simd", &[("rps", 1.0)])).collect();
        assert!(check_trend(&foreign, &bad, &specs).is_empty());
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        let rev = git_rev();
        assert_ne!(rev, "unknown");
        assert!(
            rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()),
            "unexpected rev {rev:?}"
        );
    }
}
