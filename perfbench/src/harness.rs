//! The closed-loop window: named load threads released together, run to
//! a shared deadline, with CPU time split between the load threads, the
//! model's executor thread and everything else in the process, and the
//! window cut into equal slices so each timing can be reported as the
//! median over slices (a host stall then spoils one slice, not the run).

use crate::procfs;
use std::sync::{Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Name prefix the service gives its executor threads
/// (`kdesel-serve:<key>`, truncated by the kernel to 15 bytes).
pub const EXECUTOR_PREFIX: &str = "kdesel-serve";

/// Target length of a window slice, seconds. Stolen CPU comes in bursts
/// of a few hundred milliseconds, so slices this short can tell quiet
/// stretches from stolen ones.
const SLICE_S: f64 = 0.1;

/// CPU seconds spent during the window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// The whole process, exited threads included.
    pub process: f64,
    /// The model's executor thread.
    pub executor: f64,
    /// The load threads together.
    pub client: f64,
}

impl Cpu {
    /// Process CPU outside the executor and load threads: CpuPar's
    /// per-launch scoped threads, plus the idle main thread.
    pub fn other(&self) -> f64 {
        self.process - self.executor - self.client
    }
}

/// One completed estimate: when it completed (seconds after the window
/// opened) and its client latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Op {
    /// Completion time, seconds since the window opened.
    pub end: f64,
    /// Seconds from `submit` until `wait` returned.
    pub latency: f64,
}

/// An empty op log with `capacity` entries already written once, so the
/// log's memory is resident before the window whatever the throughput
/// (peak RSS must not depend on how many estimates a run completes).
pub fn op_log(capacity: usize) -> Vec<Op> {
    // A non-zero fill, so the allocator cannot hand out untouched zero
    // pages.
    let filler = Op {
        end: -1.0,
        latency: -1.0,
    };
    let mut log = vec![filler; capacity];
    log.clear();
    log
}

/// Completion times of one load thread's closed-loop cycles (a plan of
/// probes, a lifecycle, or a single estimate), seconds since the window
/// opened, pre-touched like [`op_log`].
#[derive(Debug, Clone, Default)]
pub struct Cycles {
    /// Estimates one cycle completes.
    pub estimates: usize,
    /// Completion time of each cycle.
    pub ends: Vec<f64>,
}

impl Cycles {
    /// An empty log for cycles of `estimates` estimates.
    pub fn new(estimates: usize, capacity: usize) -> Self {
        let mut ends = vec![-1.0; capacity];
        ends.clear();
        Self { estimates, ends }
    }
}

/// When the window opened and when it closes.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// The instant the load threads were released.
    pub t0: Instant,
    /// The instant after which no new operation starts.
    pub deadline: Instant,
}

impl Clock {
    /// Whether the window is still open.
    pub fn open(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Seconds since the window opened.
    pub fn since_open(&self, at: Instant) -> f64 {
        at.duration_since(self.t0).as_secs_f64()
    }
}

/// Outcome of one window: each load thread's result, the measured wall
/// time, and the CPU split.
#[derive(Debug)]
pub struct Window<R> {
    /// Per load thread, in spawn order.
    pub results: Vec<R>,
    /// Wall seconds from the release of the load threads until the last
    /// one finished its final operation.
    pub seconds: f64,
    /// CPU seconds over the same interval.
    pub cpu: Cpu,
    /// Length of one slice, seconds.
    pub slice_s: f64,
    /// Process CPU seconds in each slice.
    pub slice_cpu: Vec<f64>,
    /// CPU seconds the hypervisor stole from the machine in each slice.
    pub slice_steal: Vec<f64>,
}

/// The one executor thread serving the benchmark's model. Threads the
/// executor spawns (CpuPar's per-launch scoped threads) inherit its name,
/// and a shut-down service's executor may linger for an instant, so the
/// lookup waits until exactly one such thread is left.
pub fn executor_tid() -> u32 {
    let mut tids = Vec::new();
    for _ in 0..2000 {
        tids = procfs::threads_named(EXECUTOR_PREFIX);
        if tids.len() == 1 {
            return tids[0];
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("expected one executor thread, found {tids:?}");
}

/// Runs `load(state, clock)` on one named thread (`perfbench-load-i`) per
/// state, all released at once. Each thread finishes the operation in
/// progress at the deadline, so every operation counted was completed in
/// full. Meanwhile the calling thread samples process CPU at every slice
/// boundary.
pub fn run<S, R, F>(states: Vec<S>, seconds: f64, executor: u32, load: F) -> Window<R>
where
    S: Send,
    R: Send,
    F: Fn(S, Clock) -> R + Sync,
{
    let threads = states.len();
    let start = Barrier::new(threads + 1);
    let clock: OnceLock<Clock> = OnceLock::new();
    let slices = ((seconds / SLICE_S).round() as usize).max(1);
    let slice_s = seconds / slices as f64;
    thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let (start, clock, load) = (&start, &clock, &load);
                thread::Builder::new()
                    .name(format!("perfbench-load-{i}"))
                    .spawn_scoped(scope, move || {
                        let cpu0 = procfs::current_thread_cpu_seconds();
                        start.wait();
                        let out = load(state, *clock.get().expect("clock set before release"));
                        (out, procfs::current_thread_cpu_seconds() - cpu0)
                    })
                    .expect("spawning a load thread")
            })
            .collect();
        let process0 = procfs::process_cpu_seconds();
        let executor0 = procfs::thread_cpu_seconds(executor);
        let t0 = Instant::now();
        clock
            .set(Clock {
                t0,
                deadline: t0 + Duration::from_secs_f64(seconds),
            })
            .expect("clock set once");
        start.wait();
        let mut slice_cpu = Vec::with_capacity(slices);
        let mut slice_steal = Vec::with_capacity(slices);
        let (mut last_cpu, mut last_steal) = (process0, procfs::steal_seconds());
        for k in 1..=slices {
            let boundary = t0 + Duration::from_secs_f64(slice_s * k as f64);
            thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let (cpu, steal) = (procfs::process_cpu_seconds(), procfs::steal_seconds());
            slice_cpu.push(cpu - last_cpu);
            slice_steal.push(steal - last_steal);
            (last_cpu, last_steal) = (cpu, steal);
        }
        let mut results = Vec::with_capacity(threads);
        let mut client = 0.0;
        for handle in handles {
            let (out, cpu) = handle.join().expect("load thread panicked");
            results.push(out);
            client += cpu;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let cpu = Cpu {
            process: procfs::process_cpu_seconds() - process0,
            executor: procfs::thread_cpu_seconds(executor) - executor0,
            client,
        };
        Window {
            results,
            seconds: elapsed,
            cpu,
            slice_s,
            slice_cpu,
            slice_steal,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_runs_every_thread_to_the_deadline() {
        // The test thread itself stands in for the executor.
        let own: u32 = std::fs::read_link("/proc/thread-self")
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .parse()
            .unwrap();
        let window = run(vec![0, 1], 0.25, own, |i, clock| {
            let mut spins = 0u64;
            while clock.open() {
                spins += 1;
            }
            (i, spins, clock.since_open(Instant::now()))
        });
        assert_eq!(window.results.len(), 2);
        assert_eq!(window.results[0].0, 0);
        assert_eq!(window.results[1].0, 1);
        assert!(window.results.iter().all(|r| r.1 > 0 && r.2 >= 0.25));
        assert!(window.seconds >= 0.25);
        // 0.25 s rounds to 3 slices of ~0.083 s.
        assert_eq!(window.slice_cpu.len(), 3);
        assert_eq!(window.slice_steal.len(), 3);
        assert!((window.slice_s - 0.25 / 3.0).abs() < 1e-12);
        assert!(window.cpu.process >= 0.0 && window.cpu.client >= 0.0);
    }

    #[test]
    fn op_log_keeps_its_capacity() {
        let log = op_log(1000);
        assert!(log.is_empty());
        assert!(log.capacity() >= 1000);
    }
}
