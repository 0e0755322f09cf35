//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the workspace's benches use — groups,
//! `bench_function`, `bench_with_input`, `Throughput`, `BenchmarkId`,
//! and the `criterion_group!`/`criterion_main!` macros — on a simple
//! wall-clock harness: a warm-up pass sizes the iteration count toward a
//! target measurement time, then the median of several measurement
//! batches is reported as ns/iter (plus derived element throughput).
//!
//! No statistical regression machinery, HTML reports, or CLI filtering —
//! run with `cargo bench` and read the table from stdout.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter display value.
    pub fn new<P: std::fmt::Display>(function_name: impl Into<String>, parameter: P) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Passed to benchmark closures; `iter` runs and times the payload.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iterations` calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark driver.
pub struct Criterion {
    /// Target wall time per measurement batch.
    measurement_time: Duration,
    /// Measurement batches per benchmark (median is reported).
    batches: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            measurement_time: Duration::from_millis(400),
            batches: 5,
        }
    }
}

impl Criterion {
    /// Sets the measurement batch count (upstream's statistical sample
    /// size; here the median-of-batches count). Values below 2 are
    /// clamped so a median still exists.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.batches = (n as u32).max(2);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\ngroup: {name}");
        BenchmarkGroup {
            criterion: self,
            throughput: None,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let (ns, _) = run_benchmark(self, f);
        report(&id.to_string(), ns, None);
        self
    }
}

/// A group of related benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let (ns, _) = run_benchmark(self.criterion, f);
        report(&id.to_string(), ns, self.throughput);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let (ns, _) = run_benchmark(self.criterion, |b| f(b, input));
        report(&id.to_string(), ns, self.throughput);
        self
    }

    /// Ends the group (formatting no-op).
    pub fn finish(self) {}
}

/// Runs warm-up, sizes the batch, then returns (median ns/iter, iters).
fn run_benchmark<F: FnMut(&mut Bencher)>(criterion: &Criterion, mut f: F) -> (f64, u64) {
    // Warm-up with one iteration to estimate the per-iter cost.
    let mut bencher = Bencher {
        iterations: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
    let iterations =
        (criterion.measurement_time.as_nanos() / criterion.batches as u128 / per_iter.as_nanos())
            .clamp(1, 1_000_000_000) as u64;

    let mut samples: Vec<f64> = (0..criterion.batches)
        .map(|_| {
            let mut b = Bencher {
                iterations,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iterations as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], iterations)
}

fn report(id: &str, ns_per_iter: f64, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  ({:.1} Melem/s)", n as f64 / ns_per_iter * 1e3)
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  ({:.1} MiB/s)",
                n as f64 / ns_per_iter * 1e9 / (1 << 20) as f64
            )
        }
        None => String::new(),
    };
    println!("  {id:<40} {ns_per_iter:>14.1} ns/iter{rate}");
}

/// Declares a benchmark group runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    // Upstream's configured form.
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_trivial_closure() {
        let mut c = Criterion {
            measurement_time: Duration::from_millis(10),
            batches: 3,
        };
        let mut g = c.benchmark_group("smoke");
        g.throughput(Throughput::Elements(1));
        let mut runs = 0u64;
        g.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        g.finish();
        assert!(runs > 0);
    }

    #[test]
    fn benchmark_id_formats_as_path() {
        assert_eq!(
            BenchmarkId::new("backend", 1024).to_string(),
            "backend/1024"
        );
    }
}
