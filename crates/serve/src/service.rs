//! The service: registry construction, executor-thread lifecycle, and the
//! cloneable [`ServeHandle`] callers use from any thread.

use crate::capture::{ModelRecorder, Recorder};
use crate::config::ServeConfig;
use crate::model::{ModelKey, ServedModel};
use crate::oneshot;
use crate::worker::{EstimateRequest, Msg, Worker, WorkerReport};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Errors surfaced to service callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The key was never registered.
    UnknownModel(String),
    /// The submitted region's dimensionality does not match the model's.
    DimensionMismatch {
        /// The registered model's dimensionality.
        expected: usize,
        /// The submitted region's dimensionality.
        got: usize,
    },
    /// The executor thread is gone (service shut down or worker died).
    Disconnected(String),
    /// Snapshot persistence failed (IO, malformed JSON, invalid contents).
    Snapshot(String),
    /// The same key was registered twice.
    DuplicateModel(String),
    /// Invalid [`ServeConfig`].
    Config(String),
    /// Workload capture or metrics-dump IO failed.
    Capture(String),
    /// A request carried a value the model must never see (e.g. a
    /// feedback selectivity that is NaN or outside `[0, 1]`).
    InvalidInput(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel(key) => write!(f, "no model registered for {key}"),
            Self::DimensionMismatch { expected, got } => {
                write!(f, "region has {got} dims, model expects {expected}")
            }
            Self::Disconnected(key) => write!(f, "serving thread for {key} is gone"),
            Self::Snapshot(what) => write!(f, "snapshot error: {what}"),
            Self::DuplicateModel(key) => write!(f, "model {key} registered twice"),
            Self::Config(what) => write!(f, "invalid serve config: {what}"),
            Self::Capture(what) => write!(f, "capture error: {what}"),
            Self::InvalidInput(what) => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

struct Port {
    tx: Sender<Msg>,
    dims: usize,
}

/// Cloneable, thread-safe entry point: resolves a [`ModelKey`] and talks
/// to that model's executor thread over its channel.
#[derive(Clone)]
pub struct ServeHandle {
    ports: Arc<BTreeMap<ModelKey, Port>>,
    queue_depth: Arc<kdesel_telemetry::Gauge>,
}

/// An in-flight estimate submitted with [`ServeHandle::submit`]; redeem
/// with [`PendingEstimate::wait`].
#[must_use = "a pending estimate does nothing until waited on"]
pub struct PendingEstimate {
    rx: oneshot::Receiver<f64>,
    key: String,
    trace: u64,
}

impl PendingEstimate {
    /// The trace ID minted for this request at submission. Pass it to
    /// [`ServeHandle::feedback_traced`] so the eventual feedback joins
    /// this request's span tree.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Blocks until the batch containing this request is served.
    pub fn wait(self) -> Result<f64, ServeError> {
        self.rx
            .recv()
            .map_err(|_| ServeError::Disconnected(self.key))
    }
}

impl ServeHandle {
    fn port(&self, key: &ModelKey) -> Result<&Port, ServeError> {
        self.ports
            .get(key)
            .ok_or_else(|| ServeError::UnknownModel(key.to_string()))
    }

    /// Registered keys, in sorted order.
    pub fn keys(&self) -> Vec<ModelKey> {
        self.ports.keys().cloned().collect()
    }

    /// Dimensionality of the model registered under `key`.
    pub fn dims(&self, key: &ModelKey) -> Result<usize, ServeError> {
        Ok(self.port(key)?.dims)
    }

    /// Enqueues an estimate without blocking; the scheduler may fuse it
    /// with concurrent submissions into one launch. A fresh trace ID is
    /// minted here — the service's front door — and rides with the
    /// request through batching, launch, and (via
    /// [`feedback_traced`](Self::feedback_traced)) feedback application.
    pub fn submit(
        &self,
        key: &ModelKey,
        region: &kdesel_types::Rect,
    ) -> Result<PendingEstimate, ServeError> {
        let port = self.port(key)?;
        if region.dims() != port.dims {
            return Err(ServeError::DimensionMismatch {
                expected: port.dims,
                got: region.dims(),
            });
        }
        let (reply, rx) = oneshot::channel();
        let telemetry = kdesel_telemetry::enabled();
        if telemetry {
            self.queue_depth.add(1.0);
        }
        let trace = kdesel_telemetry::next_trace_id();
        let sent = port.tx.send(Msg::Estimate(EstimateRequest {
            region: region.clone(),
            submitted: Instant::now(),
            trace,
            reply,
        }));
        if sent.is_err() {
            if telemetry {
                self.queue_depth.add(-1.0);
            }
            return Err(ServeError::Disconnected(key.to_string()));
        }
        Ok(PendingEstimate {
            rx,
            key: key.to_string(),
            trace,
        })
    }

    /// Synchronous estimate: submit and wait.
    pub fn estimate(&self, key: &ModelKey, region: &kdesel_types::Rect) -> Result<f64, ServeError> {
        self.submit(key, region)?.wait()
    }

    /// Queues true-selectivity feedback for background maintenance. Never
    /// blocks on model work — the executor applies it between batches.
    /// The feedback is untraced; to tie it to the request it answers, use
    /// [`feedback_traced`](Self::feedback_traced).
    pub fn feedback(
        &self,
        key: &ModelKey,
        feedback: kdesel_types::QueryFeedback,
    ) -> Result<(), ServeError> {
        self.feedback_traced(key, feedback, 0)
    }

    /// Like [`feedback`](Self::feedback), but joins the span tree of the
    /// request whose trace ID is `trace` (from
    /// [`PendingEstimate::trace`]), closing the loop the paper's §4
    /// feedback cycle describes: the `serve.feedback` span becomes a
    /// child of that request's root span.
    ///
    /// Feedback whose `estimate` or `actual` is NaN or outside `[0, 1]`
    /// is rejected with [`ServeError::InvalidInput`] and never reaches
    /// the executor.
    pub fn feedback_traced(
        &self,
        key: &ModelKey,
        feedback: kdesel_types::QueryFeedback,
        trace: u64,
    ) -> Result<(), ServeError> {
        let port = self.port(key)?;
        if feedback.region.dims() != port.dims {
            return Err(ServeError::DimensionMismatch {
                expected: port.dims,
                got: feedback.region.dims(),
            });
        }
        // A selectivity outside [0, 1] is a caller bug, and a single NaN
        // would turn the adaptive tuner's RMSprop state NaN for good,
        // freezing the bandwidth: reject both before the executor sees
        // them.
        for (name, value) in [("estimate", feedback.estimate), ("actual", feedback.actual)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ServeError::InvalidInput(format!(
                    "feedback {name} {value} is not a selectivity in [0, 1]"
                )));
            }
        }
        port.tx
            .send(Msg::Feedback { feedback, trace })
            .map_err(|_| ServeError::Disconnected(key.to_string()))
    }

    /// Blocks until all feedback queued before this call has been applied
    /// — the barrier that makes serving a strict drop-in for the
    /// synchronous estimate→execute→observe loop.
    pub fn flush(&self, key: &ModelKey) -> Result<(), ServeError> {
        let (reply, rx) = oneshot::channel();
        self.port(key)?
            .tx
            .send(Msg::Flush(reply))
            .map_err(|_| ServeError::Disconnected(key.to_string()))?;
        rx.recv()
            .map_err(|_| ServeError::Disconnected(key.to_string()))
    }

    /// Writes a checkpoint now (requires a configured checkpoint policy).
    pub fn checkpoint(&self, key: &ModelKey) -> Result<(), ServeError> {
        let (reply, rx) = oneshot::channel();
        self.port(key)?
            .tx
            .send(Msg::Checkpoint(reply))
            .map_err(|_| ServeError::Disconnected(key.to_string()))?;
        rx.recv()
            .map_err(|_| ServeError::Disconnected(key.to_string()))?
            .map_err(ServeError::Snapshot)
    }

    /// Renders the current telemetry registry as a Prometheus-style text
    /// exposition — the observatory's on-demand snapshot (per-model
    /// q-error quantiles, bandwidth gauges, scheduler histograms).
    pub fn prometheus(&self) -> String {
        kdesel_telemetry::prometheus_text(kdesel_telemetry::registry())
    }

    /// Snapshots the worker's counters and model state.
    pub fn report(&self, key: &ModelKey) -> Result<WorkerReport, ServeError> {
        let (reply, rx) = oneshot::channel();
        self.port(key)?
            .tx
            .send(Msg::Report(reply))
            .map_err(|_| ServeError::Disconnected(key.to_string()))?;
        rx.recv()
            .map_err(|_| ServeError::Disconnected(key.to_string()))
    }
}

/// Builder: register models, then [`build`](ServiceBuilder::build) to
/// restore snapshots and spawn the executor threads.
pub struct ServiceBuilder {
    config: ServeConfig,
    models: Vec<(ModelKey, ServedModel)>,
}

impl ServiceBuilder {
    /// Starts a builder with the given knobs.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            models: Vec::new(),
        }
    }

    /// Registers `model` under `key`. Duplicate keys fail at build time.
    pub fn register(mut self, key: ModelKey, model: ServedModel) -> Self {
        self.models.push((key, model));
        self
    }

    /// Validates the configuration, restores snapshots (when the policy
    /// asks for it), opens the workload capture (when configured — model
    /// records reflect post-restore state), and spawns one executor
    /// thread per model.
    pub fn build(mut self) -> Result<Service, ServeError> {
        self.config.validate().map_err(ServeError::Config)?;
        for i in 0..self.models.len() {
            let (before, rest) = self.models.split_at_mut(i);
            let (key, model) = &mut rest[0];
            if before.iter().any(|(other, _)| other == key) {
                return Err(ServeError::DuplicateModel(key.to_string()));
            }
            if let Some(policy) = &self.config.checkpoint {
                if policy.restore {
                    match crate::snapshot::load(&policy.dir, key) {
                        Ok(Some(snapshot)) => model
                            .restore_in_place(&snapshot)
                            .map_err(|e| ServeError::Snapshot(format!("{key}: {e}")))?,
                        Ok(None) => {}
                        Err(e) => return Err(ServeError::Snapshot(format!("{key}: {e}"))),
                    }
                }
            }
        }
        let recorder = match &self.config.capture {
            Some(path) => Some(Arc::new(
                Recorder::create(path, &self.models).map_err(ServeError::Capture)?,
            )),
            None => None,
        };
        let mut ports = BTreeMap::new();
        let mut workers = Vec::with_capacity(self.models.len());
        for (key, model) in self.models {
            let (tx, rx) = mpsc::channel();
            let dims = model.dims();
            let capture = recorder.as_ref().map(|recorder| ModelRecorder {
                id: recorder.model_id(&key),
                recorder: Arc::clone(recorder),
            });
            let worker = Worker::new(key.clone(), model, self.config.clone(), rx, capture);
            let thread = std::thread::Builder::new()
                .name(format!("kdesel-serve:{key}"))
                .spawn(move || worker.run())
                .expect("spawning executor thread");
            ports.insert(key.clone(), Port { tx, dims });
            workers.push((key, thread));
        }
        Ok(Service {
            handle: ServeHandle {
                ports: Arc::new(ports),
                queue_depth: kdesel_telemetry::gauge("serve.queue_depth"),
            },
            workers,
            recorder,
            metrics_dump: self.config.metrics_dump,
        })
    }
}

/// A running service. Owns the executor threads; dropping it performs a
/// best-effort graceful shutdown (prefer [`Service::shutdown`] to see
/// errors).
pub struct Service {
    handle: ServeHandle,
    workers: Vec<(ModelKey, JoinHandle<Result<(), String>>)>,
    recorder: Option<Arc<Recorder>>,
    metrics_dump: Option<std::path::PathBuf>,
}

impl Service {
    /// Starts a builder with the given knobs.
    pub fn builder(config: ServeConfig) -> ServiceBuilder {
        ServiceBuilder::new(config)
    }

    /// A cloneable handle; share freely across producer threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: each worker drains queued estimates, applies its
    /// full feedback backlog, writes a final checkpoint (when configured),
    /// and exits. Returns the first failure, if any.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), ServeError> {
        for port in self.handle.ports.values() {
            let _ = port.tx.send(Msg::Shutdown);
        }
        let mut first_err = None;
        for (key, thread) in self.workers.drain(..) {
            let outcome = match thread.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(ServeError::Snapshot(e)),
                Err(_) => Some(ServeError::Disconnected(format!("{key}: worker panicked"))),
            };
            if first_err.is_none() {
                first_err = outcome;
            }
        }
        // All workers have exited: the capture is complete, seal it.
        if let Some(recorder) = self.recorder.take() {
            recorder.finish();
        }
        if let Some(path) = self.metrics_dump.take() {
            let text = kdesel_telemetry::prometheus_text(kdesel_telemetry::registry());
            let written = std::fs::write(&path, text)
                .map_err(|e| ServeError::Capture(format!("writing {}: {e}", path.display())));
            if let (None, Err(e)) = (&first_err, written) {
                first_err = Some(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}
