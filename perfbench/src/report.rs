//! Named metrics with units, and the per-layer figures of a traced pass.

use crate::harness::{Cpu, Cycles, Op, Window};
use crate::registry::{self, HistSnap};
use crate::stats::{mean, median, quantile, Accuracy};
use crate::trace::{join_events, split_requests, Captured, ClientRequest, SpanRec};
use kdesel_device::LaunchKind;
use kdesel_serve::WorkerReport;
use std::collections::{BTreeMap, BTreeSet};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The end-to-end timings, the ones a traced pass is compared on.
pub const TIMINGS: [&str; 5] = [
    "setup_s",
    "estimates_per_s",
    "estimate_p50_s",
    "estimate_p99_s",
    "cpu_s_per_estimate",
];

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall seconds of each set-up (ANALYZE until the first estimate).
    pub setup_s: Vec<f64>,
    /// Share of the machine's CPU stolen by the hypervisor during each
    /// set-up.
    pub setup_steal: Vec<f64>,
    /// Wall seconds of the window.
    pub window_s: f64,
    /// Estimates completed in the window (lifecycles on the churn).
    pub ops: Vec<Op>,
    /// Each load thread's closed-loop cycles.
    pub cycles: Vec<Cycles>,
    /// CPU over the window.
    pub cpu: Cpu,
    /// Length of one window slice, seconds.
    pub slice_s: f64,
    /// Process CPU seconds in each slice.
    pub slice_cpu: Vec<f64>,
    /// Machine-wide stolen CPU seconds in each slice.
    pub slice_steal: Vec<f64>,
    /// The traced pass's records; `None` for the untraced pass.
    pub traced: Option<Traced>,
}

impl PassOut {
    /// Window fields of a finished [`Window`], without the per-thread
    /// results.
    pub fn from_window<R>(setup_s: Vec<f64>, setup_steal: Vec<f64>, window: &Window<R>) -> Self {
        Self {
            setup_s,
            setup_steal,
            window_s: window.seconds,
            ops: Vec::new(),
            cycles: Vec::new(),
            cpu: window.cpu,
            slice_s: window.slice_s,
            slice_cpu: window.slice_cpu.clone(),
            slice_steal: window.slice_steal.clone(),
            traced: None,
        }
    }

    /// Indices of the window slices the timings use, in order: the
    /// quarter with the least stolen CPU.
    pub fn quiet_slices(&self) -> Vec<usize> {
        quietest(&self.slice_steal, self.slice_steal.len().div_ceil(4))
    }

    /// The end-to-end timings of this pass, over the quiet slices only:
    /// latency percentiles of the estimates completed in them, CPU per
    /// estimate, and throughput at the median closed-loop cycle (each
    /// load thread's estimates per cycle over its median cycle time,
    /// summed), which a stalled cycle moves no more than any other.
    pub fn timings(&self) -> Metrics {
        assert!(!self.ops.is_empty(), "the window completed no estimate");
        let quiet = self.quiet_slices();
        let is_quiet = |end: f64| {
            let k = ((end / self.slice_s) as usize).min(self.slice_steal.len() - 1);
            quiet.binary_search(&k).is_ok()
        };
        let latencies: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| is_quiet(op.end))
            .map(|op| op.latency)
            .collect();
        let rate: f64 = self
            .cycles
            .iter()
            .filter_map(|c| {
                let durations: Vec<f64> = c
                    .ends
                    .windows(2)
                    .filter(|w| is_quiet(w[1]))
                    .map(|w| w[1] - w[0])
                    .collect();
                (!durations.is_empty()).then(|| c.estimates as f64 / median(&durations))
            })
            .sum();
        let cpu: f64 = quiet.iter().map(|&k| self.slice_cpu[k]).sum();
        let mut m = Metrics::default();
        let setups: Vec<f64> = quietest(&self.setup_steal, self.setup_steal.len().div_ceil(2))
            .into_iter()
            .map(|i| self.setup_s[i])
            .collect();
        m.push("setup_s", median(&setups), "s");
        m.push("estimates_per_s", rate, "1/s");
        m.push("estimate_p50_s", pct(&latencies, 0.50), "s");
        m.push("estimate_p99_s", pct(&latencies, 0.99), "s");
        m.push("cpu_s_per_estimate", cpu / latencies.len() as f64, "s");
        m
    }

    /// Share of the window's machine CPU the hypervisor stole.
    pub fn steal_share(&self) -> f64 {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.slice_steal.iter().sum::<f64>() / (self.window_s * cores)
    }
}

/// Indices, in order, of the `keep` intervals (window slices or set-ups)
/// in which the hypervisor stole the smallest share of the machine's CPU,
/// earlier ones first among equals. On a shared virtual machine stolen
/// time stalls the service's thread hand-offs and its parallel sweeps;
/// timing only the quieter intervals keeps the figures about the program
/// rather than its neighbours.
pub fn quietest(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(keep);
    order.sort_unstable();
    order
}

fn pct(values: &[f64], p: f64) -> f64 {
    quantile(values, p).unwrap_or(0.0)
}

/// The end-to-end metrics of a workload, in `BENCHMARK.json` order.
pub fn end_to_end(pass: &PassOut, accuracy: Accuracy, rss_mib: f64) -> Metrics {
    let mut m = pass.timings();
    m.push("qerror_p50", accuracy.qerror_p50, "ratio");
    m.push("qerror_p95", accuracy.qerror_p95, "ratio");
    m.push("abs_error_mean", accuracy.abs_error_mean, "selectivity");
    m.push("rss_peak_mib", rss_mib, "MiB");
    m
}

/// Counters read from the telemetry registry.
const COUNTERS: [&str; 6] = [
    "kde.karma_updates",
    "kde.karma_flagged",
    "kde.karma_replaced",
    "solver.lbfgs_iterations",
    "solver.multistart_restarts",
    "solver.linesearch_failures",
];

/// One reading of the registry metrics the benchmark reports.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<String, HistSnap>,
}

impl RegSnap {
    /// Reads the counters, `kde.estimate_seconds` and every
    /// `device.kernel.<kind>` histogram.
    pub fn take() -> Self {
        let counters = COUNTERS
            .iter()
            .map(|&c| (c, registry::counter(c)))
            .collect();
        let mut hists = BTreeMap::new();
        hists.insert(
            "kde.estimate_seconds".to_string(),
            registry::hist("kde.estimate_seconds"),
        );
        for kind in LaunchKind::ALL {
            let name = format!("device.kernel.{}", kind.name());
            hists.insert(name.clone(), registry::hist(&name));
        }
        Self { counters, hists }
    }

    fn counter_since(&self, earlier: &RegSnap, name: &str) -> f64 {
        (self.counters[name] - earlier.counters[name]) as f64
    }

    fn hist_since(&self, earlier: &RegSnap, name: &str) -> HistSnap {
        self.hists[name].since(&earlier.hists[name])
    }
}

/// Records of the traced pass.
#[derive(Debug)]
pub struct Traced {
    /// Client-side spans of the set-up.
    pub setup_spans: Vec<SpanRec>,
    /// Client-side spans of the window (load threads and the refresh
    /// source).
    pub window_spans: Vec<SpanRec>,
    /// `serve.*` span events the service emitted.
    pub events: Vec<Captured>,
    /// Worker report before and after the window.
    pub report: (WorkerReport, WorkerReport),
    /// Registry before set-up, after set-up, and after the window.
    pub registry: [RegSnap; 3],
}

/// Per-layer figures of a workload. `untraced` supplies the CPU split
/// (the traced pass's CPU includes the tracing itself); everything else
/// comes from `traced`. Figures of layers the workload never calls are
/// left out; `BENCHMARK.json` lists the ones every workload has.
pub fn per_layer(untraced: &PassOut, traced: &PassOut) -> Metrics {
    let t = traced.traced.as_ref().expect("a traced pass");
    let mut m = Metrics::default();
    let spans_named = |name: &str| -> Vec<f64> {
        t.window_spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .collect()
    };
    let setup_span = |name: &str| -> f64 {
        t.setup_spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .sum()
    };

    // serve: per-request split, joined by trace ID.
    let requests = client_requests(&t.window_spans);
    let (splits, incomplete) = split_requests(&requests, &join_events(&t.events));
    let col = |f: fn(&crate::trace::Split) -> f64| -> Vec<f64> { splits.iter().map(f).collect() };
    m.push("serve.submit_s.p50", median(&col(|s| s.submit_s)), "s");
    let queue = col(|s| s.queue_s);
    m.push("serve.queue_s.p50", pct(&queue, 0.50), "s");
    m.push("serve.queue_s.p99", pct(&queue, 0.99), "s");
    let reply = col(|s| s.reply_s);
    m.push("serve.reply_s.p50", pct(&reply, 0.50), "s");
    m.push("serve.reply_s.p99", pct(&reply, 0.99), "s");
    m.push(
        "serve.share_of_latency.p50",
        median(&col(|s| (s.submit_s + s.queue_s + s.reply_s) / s.latency_s)),
        "ratio",
    );
    let mut batches: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    for s in &splits {
        batches.insert(s.batch.0, (s.batch.1, s.launch_s));
    }
    let sizes: Vec<f64> = batches.values().map(|&(size, _)| size as f64).collect();
    m.push("serve.batch_size.mean", mean(&sizes), "count");
    m.push("serve.batch_size.p99", pct(&sizes, 0.99), "count");
    let (before, after) = &t.report;
    m.push(
        "serve.batches",
        (after.batches - before.batches) as f64,
        "count",
    );
    for name in ["serve.feedback", "serve.flush"] {
        let secs = spans_named(name);
        if !secs.is_empty() {
            m.push(format!("{name}_s.p50"), pct(&secs, 0.50), "s");
            if name == "serve.flush" {
                m.push(format!("{name}_s.p99"), pct(&secs, 0.99), "s");
            }
        }
    }
    m.push(
        "serve.maintenance_applied",
        (after.maintenance_applied - before.maintenance_applied) as f64,
        "count",
    );
    m.push(
        "serve.replacements",
        (after.replacements - before.replacements) as f64,
        "count",
    );
    m.push(
        "serve.checkpoints",
        (after.checkpoints - before.checkpoints) as f64,
        "count",
    );
    m.push("serve.build_s", setup_span("serve.build"), "s");
    let per_op = |v: f64| v / untraced.ops.len() as f64;
    m.push(
        "cpu.executor_s_per_estimate",
        per_op(untraced.cpu.executor),
        "s",
    );
    m.push(
        "cpu.client_s_per_estimate",
        per_op(untraced.cpu.client),
        "s",
    );
    m.push(
        "cpu.other_s_per_estimate",
        per_op(untraced.cpu.other()),
        "s",
    );

    // kde: the fused launch behind each batch, and the registry.
    let launches: Vec<f64> = batches.values().map(|&(_, s)| s).collect();
    m.push("kde.launch_s.p50", pct(&launches, 0.50), "s");
    m.push("kde.launch_s.p99", pct(&launches, 0.99), "s");
    let per_query: Vec<f64> = batches.values().map(|&(n, s)| s / n as f64).collect();
    m.push("kde.launch_s_per_query.p50", pct(&per_query, 0.50), "s");
    let [reg_start, reg_setup, reg_end] = &t.registry;
    let estimate = reg_end.hist_since(reg_setup, "kde.estimate_seconds");
    m.push("kde.estimate_seconds.p50", estimate.quantile(0.5), "s");
    m.push(
        "kde.estimate_seconds.count",
        estimate.count() as f64,
        "count",
    );
    for c in [
        "kde.karma_updates",
        "kde.karma_flagged",
        "kde.karma_replaced",
    ] {
        m.push(c, reg_end.counter_since(reg_setup, c), "count");
    }
    m.push("kde.analyze_s", setup_span("kde.analyze"), "s");

    // solver: set-up only.
    for c in [
        "solver.lbfgs_iterations",
        "solver.multistart_restarts",
        "solver.linesearch_failures",
    ] {
        m.push(c, reg_setup.counter_since(reg_start, c), "count");
    }

    // device: the worker's counters over the window, and launch times by
    // kind. A kind the window launches is reported over the window; one
    // only the set-up launches (columnar staging) over the set-up.
    let (d0, d1) = (&before.device, &after.device);
    let ops = traced.ops.len() as f64;
    m.push(
        "device.kernels_per_estimate",
        (d1.kernels - d0.kernels) as f64 / ops,
        "count",
    );
    m.push(
        "device.bytes_up_per_estimate",
        (d1.bytes_up - d0.bytes_up) as f64 / ops,
        "B",
    );
    m.push(
        "device.bytes_down_per_estimate",
        (d1.bytes_down - d0.bytes_down) as f64 / ops,
        "B",
    );
    let hits = (d1.pool_hits - d0.pool_hits) as f64;
    let lookups = hits + (d1.pool_misses - d0.pool_misses) as f64;
    m.push(
        "device.pool_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    for kind in LaunchKind::ALL {
        let name = format!("device.kernel.{}", kind.name());
        let window = reg_end.hist_since(reg_setup, &name);
        let launched = if window.count() > 0 {
            window
        } else {
            reg_setup.hist_since(reg_start, &name)
        };
        if launched.count() > 0 || REPORTED_KINDS.contains(&kind) {
            m.push(format!("{name}.p50"), launched.quantile(0.50), "s");
            m.push(format!("{name}.p99"), launched.quantile(0.99), "s");
            m.push(format!("{name}.count"), launched.count() as f64, "count");
        }
    }

    // storage and engine: the client's own calls.
    for (span, metric, p99) in [
        ("storage.count_in", "storage.count_in_s", true),
        ("storage.insert", "storage.insert_s", false),
        ("storage.delete", "storage.delete_s", false),
        ("storage.refresh", "storage.refresh_s", false),
    ] {
        let secs = spans_named(span);
        if !secs.is_empty() {
            m.push(format!("{metric}.p50"), pct(&secs, 0.50), "s");
            if p99 {
                m.push(format!("{metric}.p99"), pct(&secs, 0.99), "s");
            }
        }
    }
    let query = spans_named("engine.query");
    m.push("engine.query_s.p50", pct(&query, 0.50), "s");
    m.push("engine.query_s.p99", pct(&query, 0.99), "s");

    // Tracing itself.
    let (plain, with) = (untraced.timings(), traced.timings());
    for name in TIMINGS {
        let delta = with.get(name).expect("timing") - plain.get(name).expect("timing");
        m.push(format!("trace.overhead.{name}"), delta, unit_of(name));
    }
    m.push("trace.incomplete", incomplete as f64, "count");
    m
}

/// Kinds reported on every workload, launched or not: the ones a served
/// estimate or its set-up can launch.
const REPORTED_KINDS: [LaunchKind; 7] = [
    LaunchKind::SweepMultiReduce,
    LaunchKind::Upload,
    LaunchKind::StageRowsSoa,
    LaunchKind::Download,
    LaunchKind::WriteRowSoa,
    LaunchKind::ZipUpdateInplace,
    LaunchKind::MapRows,
];

fn unit_of(timing: &str) -> &'static str {
    if timing == "estimates_per_s" {
        "1/s"
    } else {
        "s"
    }
}

/// The window's requests, from the load threads' `serve.submit` and
/// `serve.wait` spans (paired by trace ID) and `serve.feedback` spans.
pub fn client_requests(spans: &[SpanRec]) -> Vec<ClientRequest> {
    let mut submits: BTreeMap<u64, &SpanRec> = BTreeMap::new();
    let mut feedback: BTreeSet<u64> = BTreeSet::new();
    for s in spans {
        match s.name {
            "serve.submit" => {
                submits.insert(s.trace, s);
            }
            "serve.feedback" => {
                feedback.insert(s.trace);
            }
            _ => {}
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "serve.wait")
        .filter_map(|wait| {
            let submit = submits.get(&wait.trace)?;
            Some(ClientRequest {
                trace: wait.trace,
                submit_s: submit.seconds(),
                latency_s: wait.end - submit.start,
                expects_feedback: feedback.contains(&wait.trace),
            })
        })
        .collect()
}

/// Renders the result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, trace: u64) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            id: 1,
            parent: 0,
            trace,
        }
    }

    #[test]
    fn client_requests_pair_submit_and_wait_by_trace() {
        let spans = [
            span("serve.submit", 1.0, 1.25, 5),
            span("serve.submit", 1.5, 1.75, 6),
            span("serve.wait", 2.0, 3.0, 6),
            span("serve.wait", 2.0, 4.0, 5),
            span("serve.feedback", 4.0, 4.5, 5),
            span("serve.wait", 9.0, 9.5, 99), // submit never recorded
        ];
        let requests = client_requests(&spans);
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].trace, 6);
        assert_eq!(requests[0].latency_s, 1.5);
        assert!(!requests[0].expects_feedback);
        assert_eq!(requests[1].trace, 5);
        assert_eq!(requests[1].submit_s, 0.25);
        assert_eq!(requests[1].latency_s, 3.0);
        assert!(requests[1].expects_feedback);
    }

    #[test]
    fn timings_use_the_quiet_slices_only() {
        let op = |end: f64, latency: f64| Op { end, latency };
        let pass = PassOut {
            setup_s: vec![3.0, 1.0, 2.0, 9.0],
            setup_steal: vec![0.0, 0.1, 0.0, 0.3],
            window_s: 8.0,
            ops: vec![
                op(0.2, 1.0),
                op(0.4, 2.0),
                op(0.6, 3.0),
                op(1.5, 100.0), // stolen slice
                op(2.1, 4.0),
                op(2.3, 5.0),
                op(8.2, 100.0), // after the deadline: last slice, stolen
            ],
            cycles: vec![Cycles {
                estimates: 2,
                ends: vec![0.1, 0.3, 0.5, 1.5, 1.9, 2.2, 2.4, 3.5],
            }],
            cpu: Cpu::default(),
            slice_s: 1.0,
            slice_cpu: vec![1.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0],
            slice_steal: vec![0.0, 0.5, 0.0, 0.5, 0.4, 0.4, 0.4, 0.4],
            traced: None,
        };
        // The quietest quarter of eight slices.
        assert_eq!(pass.quiet_slices(), [0, 2]);
        let m = pass.timings();
        // Quieter set-ups: 3.0 and 2.0.
        assert_eq!(m.get("setup_s"), Some(2.0));
        // Quiet cycle durations 0.2, 0.2, 0.3, 0.2: median 0.2 s for 2
        // estimates.
        assert!((m.get("estimates_per_s").unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(m.get("estimate_p50_s"), Some(3.0));
        assert_eq!(m.get("estimate_p99_s"), Some(5.0));
        assert_eq!(m.get("cpu_s_per_estimate"), Some(0.4));
    }

    #[test]
    fn quietest_breaks_ties_by_order() {
        assert_eq!(quietest(&[0.1, 0.0, 0.1, 0.1, 0.0], 3), [0, 1, 4]);
        assert_eq!(quietest(&[0.5], 1), [0]);
        assert!(quietest(&[], 0).is_empty());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s");
        m.push("estimates_per_s", 1234.5, "1/s");
        let line = result_json(true, 1000, 0, &m);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "estimates_per_s": {"value": 1234.5, "unit": "1/s"}}}"#
        );
    }
}
