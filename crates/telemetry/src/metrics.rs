//! Counters, gauges, and log-linear histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` value (stored as bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (compare-exchange loop; gauges are low-frequency).
    pub fn add(&self, v: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log-linear histogram over positive values (seconds, typically).
///
/// Bucketing uses the top 16 bits of the IEEE-754 representation —
/// the exponent plus the 4 leading mantissa bits — giving 16 linear
/// sub-buckets per power of two (≤ ~4.5% relative width). The tracked
/// range is `[1 ns, ~4100 s]`; values outside clamp to the edge
/// buckets. `min`/`max` are tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in femto-units (1e-15) to keep integer atomics; saturates far
    /// beyond any realistic accumulation of wall-clock seconds.
    sum_femto: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Smallest tracked value (1 ns when values are seconds).
const LOW: f64 = 1e-9;
/// Largest tracked value (≈ 68 min when values are seconds).
const HIGH: f64 = 4096.0;

fn offset() -> usize {
    (LOW.to_bits() >> 48) as usize
}

fn bucket_count() -> usize {
    ((HIGH.to_bits() >> 48) as usize) - offset() + 1
}

fn bucket_of(v: f64) -> usize {
    let clamped = v.clamp(LOW, HIGH);
    ((clamped.to_bits() >> 48) as usize) - offset()
}

/// Midpoint of the bucket's value range.
fn bucket_value(index: usize) -> f64 {
    let lo = f64::from_bits(((offset() + index) as u64) << 48);
    let hi = f64::from_bits(((offset() + index + 1) as u64) << 48);
    0.5 * (lo + hi)
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..bucket_count()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_femto: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation. Negative/NaN values are ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() || v < 0.0 {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_femto
            .fetch_add((v * 1e15) as u64, Ordering::Relaxed);
        // Positive f64 bit patterns order like the values themselves.
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Starts a [`crate::Span`] recording into this histogram (always
    /// active — use [`crate::span`] for the globally gated variant).
    pub fn span(self: &Arc<Self>) -> crate::Span {
        if crate::enabled() {
            crate::Span::active(Arc::clone(self))
        } else {
            crate::Span::noop()
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) from bucket midpoints, except the
    /// exact extremes: `q = 0` returns the true min, `q = 1` the true
    /// max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(f64::from_bits(self.min_bits.load(Ordering::Relaxed)));
        }
        if q >= 1.0 {
            return Some(f64::from_bits(self.max_bits.load(Ordering::Relaxed)));
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                // A bucket midpoint can stray past the exact extremes
                // (e.g. p99 above the true max); clamp so quantiles are
                // always consistent with min/max.
                return Some(bucket_value(i).clamp(min, max));
            }
        }
        Some(max)
    }

    /// Count, mean, and the standard latency quantiles.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum_femto.load(Ordering::Relaxed) as f64 * 1e-15;
        HistogramSummary {
            count,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            p50: self.quantile(0.5).unwrap_or(0.0),
            p90: self.quantile(0.9).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            max: self.quantile(1.0).unwrap_or(0.0),
        }
    }
}

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket midpoint).
    pub p50: f64,
    /// 90th percentile (bucket midpoint).
    pub p90: f64,
    /// 95th percentile (bucket midpoint).
    pub p95: f64,
    /// 99th percentile (bucket midpoint).
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// What kind of metric a [`MetricLine`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Latency distribution.
    Histogram,
}

/// One row of a metrics dump.
#[derive(Debug, Clone)]
pub struct MetricLine {
    /// Metric name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Counter value (counters only).
    pub count: u64,
    /// Gauge value (gauges only).
    pub value: f64,
    /// Distribution summary (histograms only).
    pub histogram: Option<HistogramSummary>,
}

/// Named metric store. Handles are `Arc`s — resolve once, bump forever
/// without re-locking the registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry (the process-global one lives behind
    /// [`crate::registry`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (or creates) a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// Resolves (or creates) a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// Resolves (or creates) a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// All metrics, name-sorted within each kind, skipping never-touched
    /// histograms (zero observations) but keeping zero counters — a zero
    /// kernel count is itself informative.
    pub fn lines(&self) -> Vec<MetricLine> {
        let mut out = Vec::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            out.push(MetricLine {
                name: name.clone(),
                kind: MetricKind::Counter,
                count: c.get(),
                value: 0.0,
                histogram: None,
            });
        }
        for (name, g) in self.gauges.lock().unwrap().iter() {
            out.push(MetricLine {
                name: name.clone(),
                kind: MetricKind::Gauge,
                count: 0,
                value: g.get(),
                histogram: None,
            });
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            let summary = h.summary();
            if summary.count == 0 {
                continue;
            }
            out.push(MetricLine {
                name: name.clone(),
                kind: MetricKind::Histogram,
                count: summary.count,
                value: 0.0,
                histogram: Some(summary),
            });
        }
        out
    }

    /// Zeroes nothing but forgets everything: drops all metric entries.
    /// Existing handles keep working but are no longer listed.
    pub fn clear(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
    }
}

fn resolve<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&created));
    created
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        // The production pattern: one shared handle bumped from several
        // scoped threads at once, as the estimator kernels' threads do.
        // Every increment must land — a plain (non-atomic) counter would
        // drop some. The barrier starts all threads together.
        let counter = crate::registry().counter("test.concurrent_increments");
        let before = counter.get();
        const PER_TASK: u64 = 7;
        const THREADS: usize = 4;
        let n_tasks = 10_000;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for first in 0..THREADS {
                let (counter, start) = (&counter, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in (first..n_tasks).step_by(THREADS) {
                        for _ in 0..PER_TASK {
                            counter.inc();
                        }
                    }
                });
            }
        });
        assert_eq!(counter.get() - before, n_tasks as u64 * PER_TASK);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::default();
        g.set(1.5);
        g.add(0.75);
        assert_eq!(g.get(), 2.25);
    }

    #[test]
    fn histogram_quantiles_on_known_inputs() {
        let h = Histogram::default();
        // 1..=100 ms: p50 ≈ 50 ms, p90 ≈ 90 ms, p99 ≈ 99 ms, max = 100 ms.
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 0.050).abs() / 0.050 < 0.05, "p50 {}", s.p50);
        assert!((s.p90 - 0.090).abs() / 0.090 < 0.05, "p90 {}", s.p90);
        assert!((s.p95 - 0.095).abs() / 0.095 < 0.05, "p95 {}", s.p95);
        assert!((s.p99 - 0.099).abs() / 0.099 < 0.05, "p99 {}", s.p99);
        assert_eq!(s.max, 0.100, "max is exact");
        assert!((s.mean - 0.0505).abs() < 1e-4, "mean {}", s.mean);
        assert_eq!(h.quantile(0.0), Some(0.001), "min is exact");
    }

    #[test]
    fn histogram_single_value_quantiles_collapse() {
        let h = Histogram::default();
        h.record(0.25);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 0.25).abs() / 0.25 < 0.05, "q{q}: {v}");
        }
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h = Histogram::default();
        h.record(1e-12); // below range → lowest bucket
        h.record(1e6); // above range → highest bucket
        h.record(f64::NAN); // dropped
        h.record(-1.0); // dropped
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0).unwrap() <= 1e-9 + 1e-15);
        assert_eq!(h.quantile(1.0), Some(1e6), "true max is exact");
    }

    #[test]
    fn registry_resolves_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lines_skip_empty_histograms_keep_zero_counters() {
        let r = Registry::new();
        r.counter("zero");
        r.histogram("empty");
        r.histogram("used").record(0.5);
        let lines = r.lines();
        assert!(lines.iter().any(|l| l.name == "zero" && l.count == 0));
        assert!(!lines.iter().any(|l| l.name == "empty"));
        assert!(lines.iter().any(|l| l.name == "used"));
    }

    #[test]
    fn bucket_math_is_monotone() {
        let mut last = 0;
        for exp in -25..10 {
            let v = 2.0f64.powi(exp);
            let b = bucket_of(v);
            assert!(b >= last, "bucket regressed at 2^{exp}");
            last = b;
            let mid = bucket_value(b);
            assert!((mid - v).abs() / v < 0.07, "midpoint {mid} far from {v}");
        }
    }
}
