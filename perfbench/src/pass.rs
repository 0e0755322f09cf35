//! What every workload does around its window: the telemetry wiring of a
//! pass, and the repeated, timed set-ups.

use crate::procfs;
use crate::report::{RegSnap, Traced};
use crate::trace::{CaptureSink, SpanRec};
use kdesel_serve::WorkerReport;
use std::sync::Arc;

/// Telemetry state of one pass. The traced pass installs an in-memory
/// event sink, enables telemetry and reads the registry at its start,
/// after the set-up and after the window; the untraced pass asserts that
/// telemetry is disabled and that no sink is installed, before and after.
pub struct Telemetry {
    sink: Option<Arc<CaptureSink>>,
    registry: Vec<RegSnap>,
}

impl Telemetry {
    /// Starts a pass.
    pub fn begin(traced: bool) -> Self {
        let sink = traced.then(|| Arc::new(CaptureSink::default()));
        let mut registry = Vec::new();
        match &sink {
            Some(sink) => {
                kdesel_telemetry::set_sink(Some(sink.clone()));
                kdesel_telemetry::set_enabled(true);
                registry.push(RegSnap::take());
            }
            None => assert_off(),
        }
        Self { sink, registry }
    }

    /// Reads the registry again (traced pass only).
    pub fn mark(&mut self) {
        if self.sink.is_some() {
            self.registry.push(RegSnap::take());
        }
    }

    /// Ends the pass: the traced records, or `None` for the untraced pass.
    pub fn finish(
        self,
        setup_spans: Vec<SpanRec>,
        window_spans: Vec<SpanRec>,
        report: (WorkerReport, WorkerReport),
    ) -> Option<Traced> {
        let Some(sink) = self.sink else {
            assert_off();
            return None;
        };
        kdesel_telemetry::set_enabled(false);
        kdesel_telemetry::set_sink(None);
        let registry: [RegSnap; 3] = self
            .registry
            .try_into()
            .expect("registry read at start, after set-up and after the window");
        Some(Traced {
            setup_spans,
            window_spans,
            events: sink.take(),
            report,
            registry,
        })
    }
}

/// With telemetry off, `tracing()` cannot see a sink, so it is probed by
/// enabling telemetry for an instant while nothing runs.
fn assert_off() {
    assert!(
        !kdesel_telemetry::enabled(),
        "telemetry enabled in the untraced pass"
    );
    kdesel_telemetry::set_enabled(true);
    let sink = kdesel_telemetry::tracing();
    kdesel_telemetry::set_enabled(false);
    assert!(!sink, "an event sink is installed in the untraced pass");
}

/// The outcome of [`timed_setups`].
pub struct Setups<S> {
    /// The service of the last set-up, still running.
    pub last: S,
    /// Wall seconds of each set-up.
    pub seconds: Vec<f64>,
    /// Share of the machine's CPU the hypervisor stole during each one.
    pub steal: Vec<f64>,
    /// Each set-up's first estimate (`None` on an error).
    pub firsts: Vec<Option<f64>>,
}

/// Runs `setup` `count` times, timing each and shutting every service
/// but the last one down. `setup` returns the service, its wall seconds
/// and its first estimate.
pub fn timed_setups<S>(
    count: usize,
    mut setup: impl FnMut() -> (S, f64, Option<f64>),
    mut shutdown: impl FnMut(S),
) -> Setups<S> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (mut seconds, mut steal, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..count {
        if let Some(old) = last.take() {
            shutdown(old);
        }
        let stolen = procfs::steal_seconds();
        let (service, secs, first) = setup();
        steal.push((procfs::steal_seconds() - stolen) / (secs * cores));
        seconds.push(secs);
        firsts.push(first);
        last = Some(service);
    }
    Setups {
        last: last.expect("at least one set-up"),
        seconds,
        steal,
        firsts,
    }
}
