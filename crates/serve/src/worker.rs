//! The per-model executor thread: coalescing scheduler, background
//! maintenance, and checkpointing.
//!
//! Each registry entry is owned by exactly one worker thread — no
//! `RwLock` around the estimator, no contention on the hot path. The
//! worker's loop has three priorities:
//!
//! 1. **Serve**: the first queued [`EstimateRequest`] opens a batch; the
//!    scheduler drains companions (up to `max_batch`, waiting at most
//!    `max_wait` for stragglers) and issues ONE fused `estimate_batch`
//!    launch for the group, replying through per-request oneshots.
//! 2. **Maintain**: between batches, apply at most `maintenance_chunk`
//!    queued feedback items (Karma + RMSprop + tuple refresh), so tuning
//!    cost never lands on a caller's critical path.
//! 3. **Checkpoint**: on the periodic deadline, on demand, and on
//!    shutdown, persist a [`ModelSnapshot`](kdesel_kde::ModelSnapshot).
//!
//! Shutdown (explicit message or all senders dropped) drains queued
//! estimates, applies the full feedback backlog, writes a final
//! checkpoint, and exits.

use crate::capture::ModelRecorder;
use crate::config::ServeConfig;
use crate::model::{ModelKey, ServedModel};
use crate::observatory::Observatory;
use crate::oneshot;
use kdesel_device::DeviceStats;
use kdesel_telemetry::{Event, SpanContext};
use kdesel_types::{QueryFeedback, Rect};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured fused-launch wall times kept for the adaptive batching
/// deadline — enough history to smooth scheduler jitter, short enough to
/// track a model whose per-launch cost drifts (sample growth, backend
/// warm-up).
const LAUNCH_WINDOW: usize = 32;

/// One selectivity probe in flight, tagged with the trace ID minted at
/// the front door.
pub(crate) struct EstimateRequest {
    pub region: Rect,
    pub submitted: Instant,
    pub trace: u64,
    pub reply: oneshot::Sender<f64>,
}

/// Messages a [`ServeHandle`](crate::ServeHandle) sends its worker.
pub(crate) enum Msg {
    Estimate(EstimateRequest),
    Feedback {
        feedback: QueryFeedback,
        /// Trace of the request this feedback answers (0 = untraced).
        trace: u64,
    },
    /// Replied to once the feedback backlog is empty — the barrier
    /// `run_query_via` uses to reproduce strict Listing-1 ordering.
    Flush(oneshot::Sender<()>),
    Checkpoint(oneshot::Sender<Result<(), String>>),
    Report(oneshot::Sender<WorkerReport>),
    Shutdown,
}

/// Point-in-time view of one worker, for tests and operators.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Estimate requests served.
    pub requests: u64,
    /// Fused launches issued; `requests / batches` is the coalescing ratio.
    pub batches: u64,
    /// Largest batch fused so far.
    pub max_batch_seen: usize,
    /// Feedback items applied by the maintenance path.
    pub maintenance_applied: u64,
    /// Sample tuples replaced via the refresh source.
    pub replacements: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Feedback items still queued.
    pub backlog: usize,
    /// Current bandwidth (moves under adaptive maintenance).
    pub bandwidth: Vec<f64>,
    /// Device transfer/launch counters for the model's device.
    pub device: DeviceStats,
    /// Modeled device-seconds consumed (SimGpu cost model; zero elsewhere).
    pub modeled_seconds: f64,
}

/// Telemetry instruments, resolved once per worker.
struct Meters {
    queue_depth: Arc<kdesel_telemetry::Gauge>,
    backlog_depth: Arc<kdesel_telemetry::Gauge>,
    batch_size: Arc<kdesel_telemetry::Histogram>,
    request_seconds: Arc<kdesel_telemetry::Histogram>,
    requests: Arc<kdesel_telemetry::Counter>,
    batches: Arc<kdesel_telemetry::Counter>,
    coalesced: Arc<kdesel_telemetry::Counter>,
    maintenance: Arc<kdesel_telemetry::Counter>,
    replacements: Arc<kdesel_telemetry::Counter>,
    checkpoints: Arc<kdesel_telemetry::Counter>,
    checkpoint_errors: Arc<kdesel_telemetry::Counter>,
    pool_hit_rate: Arc<kdesel_telemetry::Gauge>,
}

impl Meters {
    fn resolve() -> Self {
        Self {
            queue_depth: kdesel_telemetry::gauge("serve.queue_depth"),
            backlog_depth: kdesel_telemetry::gauge("serve.maintenance_backlog"),
            batch_size: kdesel_telemetry::histogram("serve.batch_size"),
            request_seconds: kdesel_telemetry::histogram("serve.request_seconds"),
            requests: kdesel_telemetry::counter("serve.requests"),
            batches: kdesel_telemetry::counter("serve.batches"),
            coalesced: kdesel_telemetry::counter("serve.coalesced_requests"),
            maintenance: kdesel_telemetry::counter("serve.maintenance_applied"),
            replacements: kdesel_telemetry::counter("serve.replacements"),
            checkpoints: kdesel_telemetry::counter("serve.checkpoints"),
            checkpoint_errors: kdesel_telemetry::counter("serve.checkpoint_errors"),
            pool_hit_rate: kdesel_telemetry::gauge("serve.pool_hit_rate"),
        }
    }
}

pub(crate) struct Worker {
    key: ModelKey,
    model: ServedModel,
    config: ServeConfig,
    rx: Receiver<Msg>,
    backlog: VecDeque<(QueryFeedback, u64)>,
    /// Rolling window of measured fused-launch wall times, feeding the
    /// adaptive straggler deadline (`ServeConfig::adaptive_wait`).
    launch_window: VecDeque<f64>,
    pending_flushes: Vec<oneshot::Sender<()>>,
    meters: Meters,
    observatory: Observatory,
    capture: Option<ModelRecorder>,
    last_checkpoint: Instant,
    shutting_down: bool,
    drained: bool,
    // Lifetime counters mirrored into WorkerReport.
    requests: u64,
    batches: u64,
    max_batch_seen: usize,
    maintenance_applied: u64,
    replacements: u64,
    checkpoints: u64,
}

impl Worker {
    pub(crate) fn new(
        key: ModelKey,
        model: ServedModel,
        config: ServeConfig,
        rx: Receiver<Msg>,
        capture: Option<ModelRecorder>,
    ) -> Self {
        Self {
            observatory: Observatory::new(&key),
            key,
            model,
            config,
            rx,
            backlog: VecDeque::new(),
            launch_window: VecDeque::new(),
            capture,
            pending_flushes: Vec::new(),
            meters: Meters::resolve(),
            last_checkpoint: Instant::now(),
            shutting_down: false,
            drained: false,
            requests: 0,
            batches: 0,
            max_batch_seen: 0,
            maintenance_applied: 0,
            replacements: 0,
            checkpoints: 0,
        }
    }

    /// The executor loop. Returns `Err` only when the final shutdown
    /// checkpoint fails — mid-flight checkpoint errors are reported to the
    /// requester (explicit) or counted (periodic) without killing serving.
    pub(crate) fn run(mut self) -> Result<(), String> {
        loop {
            match self.next_msg() {
                Some(Msg::Estimate(first)) => self.serve_batch(first),
                Some(other) => self.dispatch(other),
                None => {}
            }
            self.run_maintenance(self.config.maintenance_chunk);
            self.settle_flushes();
            self.maybe_periodic_checkpoint();
            if self.drained {
                break;
            }
        }
        // Graceful drain: every queued estimate was already answered (the
        // drain loop above keeps serving until the channel is empty); now
        // finish the backlog and persist.
        self.run_maintenance(usize::MAX);
        self.settle_flushes();
        if self.config.checkpoint.is_some() {
            self.checkpoint_now()
                .map_err(|e| format!("final checkpoint for {}: {e}", self.key))?;
        }
        Ok(())
    }

    /// Pulls the next message. Blocks only when there is nothing else to
    /// do; with a backlog pending (or during shutdown) it polls so the
    /// loop can fall through to maintenance / drain.
    fn next_msg(&mut self) -> Option<Msg> {
        if self.shutting_down || !self.backlog.is_empty() {
            return match self.rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) => {
                    if self.shutting_down {
                        self.drained = true;
                    }
                    None
                }
                Err(TryRecvError::Disconnected) => {
                    self.shutting_down = true;
                    self.drained = true;
                    None
                }
            };
        }
        let timeout = self
            .until_next_checkpoint()
            .unwrap_or(Duration::from_millis(50));
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                self.shutting_down = true;
                self.drained = true;
                None
            }
        }
    }

    fn dispatch(&mut self, msg: Msg) {
        match msg {
            Msg::Estimate(first) => self.serve_batch(first),
            Msg::Feedback { feedback, trace } => self.backlog.push_back((feedback, trace)),
            Msg::Flush(reply) => self.pending_flushes.push(reply),
            Msg::Checkpoint(reply) => reply.send(self.checkpoint_now()),
            Msg::Report(reply) => reply.send(self.report()),
            Msg::Shutdown => self.shutting_down = true,
        }
    }

    /// Rolling median of this worker's measured fused-launch wall times;
    /// the adaptive policy's estimate of "what one more launch costs".
    fn launch_p50(&self) -> Option<f64> {
        if self.launch_window.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.launch_window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[sorted.len() / 2])
    }

    /// How long the gatherer may wait for ONE more straggler:
    /// `clamp(fraction × launch_p50, min_wait, remaining)` under the
    /// adaptive policy, the whole remaining window under the fixed one.
    fn straggler_gap(&self, remaining: Duration) -> Duration {
        let Some(adaptive) = &self.config.adaptive_wait else {
            return remaining;
        };
        let launch = self
            .launch_p50()
            .or(adaptive.seed_launch_seconds)
            .unwrap_or(0.0);
        Duration::from_secs_f64(adaptive.fraction * launch)
            .max(adaptive.min_wait)
            .min(remaining)
    }

    /// Opens a batch with `first`, gathers companions under the
    /// max-batch/max-wait policy (per-straggler deadline when
    /// `adaptive_wait` is set), and serves the group with one fused
    /// launch.
    fn serve_batch(&mut self, first: EstimateRequest) {
        let mut batch = vec![first];
        let deadline = Instant::now() + self.config.max_wait;
        while batch.len() < self.config.max_batch {
            match self.rx.try_recv() {
                Ok(Msg::Estimate(req)) => batch.push(req),
                Ok(other) => self.dispatch_non_estimate(other),
                Err(TryRecvError::Disconnected) => {
                    self.shutting_down = true;
                    break;
                }
                Err(TryRecvError::Empty) => {
                    if self.shutting_down {
                        break; // no new producers can appear
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match self.rx.recv_timeout(self.straggler_gap(deadline - now)) {
                        Ok(Msg::Estimate(req)) => batch.push(req),
                        Ok(other) => self.dispatch_non_estimate(other),
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => {
                            self.shutting_down = true;
                            break;
                        }
                    }
                }
            }
        }

        let regions: Vec<Rect> = batch.iter().map(|r| r.region.clone()).collect();
        let traced = kdesel_telemetry::tracing() || self.capture.is_some();
        let stats_before = traced.then(|| self.model.estimator().device().stats());
        let started = Instant::now();
        let estimates = self.model.estimate_batch(&regions);
        let launch_seconds = started.elapsed().as_secs_f64();
        self.launch_window.push_back(launch_seconds);
        if self.launch_window.len() > LAUNCH_WINDOW {
            self.launch_window.pop_front();
        }
        self.batches += 1;
        self.requests += batch.len() as u64;
        self.max_batch_seen = self.max_batch_seen.max(batch.len());
        if let Some(before) = stats_before {
            let device = self.model.estimator().device();
            let launch_stats = device.stats().since(&before);
            let profile = device.profile();
            self.emit_request_spans(&batch, &estimates, launch_seconds, &launch_stats, &profile);
        }
        if kdesel_telemetry::enabled() {
            self.meters.batches.inc();
            self.meters.requests.add(batch.len() as u64);
            if batch.len() > 1 {
                self.meters.coalesced.add(batch.len() as u64 - 1);
            }
            self.meters.batch_size.record(batch.len() as f64);
            self.meters.queue_depth.add(-(batch.len() as f64));
            for req in &batch {
                self.meters
                    .request_seconds
                    .record(req.submitted.elapsed().as_secs_f64());
            }
            let stats = self.model.estimator().device().stats();
            let lookups = stats.pool_hits + stats.pool_misses;
            if lookups > 0 {
                self.meters
                    .pool_hit_rate
                    .set(stats.pool_hits as f64 / lookups as f64);
            }
        }
        for (req, estimate) in batch.into_iter().zip(estimates) {
            req.reply.send(estimate);
        }
    }

    /// `serve_batch`'s sieve: everything that is not an estimate keeps its
    /// usual handling while a batch is being gathered.
    fn dispatch_non_estimate(&mut self, msg: Msg) {
        debug_assert!(!matches!(msg, Msg::Estimate(_)));
        self.dispatch(msg);
    }

    /// Routes one span event to the workload capture (always, when
    /// configured) and to the global telemetry sink (when tracing).
    fn emit(&self, event: Event) {
        if let Some(capture) = &self.capture {
            capture.recorder.record(event.clone());
        }
        kdesel_telemetry::emit_event(event);
    }

    /// Stamps each event with the capture-internal model ID when a
    /// capture is active (trace-only events identify the model by key).
    fn tag_model(&self, event: Event) -> Event {
        match &self.capture {
            Some(capture) => event.u64("m", capture.id),
            None => event.str("model", self.key.to_string()),
        }
    }

    /// Emits the per-request span trees for one fused launch: for every
    /// request in the batch, a `serve.request` root span, a `serve.batch`
    /// child recording how the scheduler grouped it, and a `serve.launch`
    /// grandchild carrying the device-side cost of the shared launch.
    fn emit_request_spans(
        &self,
        batch: &[EstimateRequest],
        estimates: &[f64],
        launch_seconds: f64,
        launch_stats: &DeviceStats,
        profile: &kdesel_device::DeviceProfile,
    ) {
        for (req, &estimate) in batch.iter().zip(estimates) {
            let root = SpanContext::root_of(req.trace);
            self.emit(
                self.tag_model(Event::new("serve.request").ctx(&root))
                    .f64_slice("lo", req.region.lo())
                    .f64_slice("hi", req.region.hi())
                    .f64("estimate", estimate)
                    .f64("wait_s", req.submitted.elapsed().as_secs_f64()),
            );
            let batch_span = root.child();
            self.emit(
                Event::new("serve.batch")
                    .ctx(&batch_span)
                    .u64("seq", self.batches)
                    .u64("size", batch.len() as u64),
            );
            self.emit(
                Event::new("serve.launch")
                    .ctx(&batch_span.child())
                    .f64("launch_s", launch_seconds)
                    .u64("kernels", launch_stats.kernels)
                    .u64("uploads", launch_stats.uploads)
                    .u64("bytes_up", launch_stats.bytes_up)
                    .u64("downloads", launch_stats.downloads)
                    .u64("bytes_down", launch_stats.bytes_down)
                    .u64("pool_hits", launch_stats.pool_hits)
                    .u64("pool_misses", launch_stats.pool_misses)
                    .f64("kernel_p50_s", profile.kernel_p50_ceiling())
                    .f64("kernel_p95_s", profile.kernel_p95_ceiling()),
            );
        }
    }

    fn run_maintenance(&mut self, limit: usize) {
        for _ in 0..limit {
            let Some((feedback, trace)) = self.backlog.pop_front() else {
                break;
            };
            let replaced = self.model.apply_feedback(&feedback);
            self.maintenance_applied += 1;
            self.replacements += replaced.len() as u64;
            if kdesel_telemetry::tracing() || self.capture.is_some() {
                let mut slots = String::new();
                let mut rows = Vec::new();
                for (slot, row) in &replaced {
                    if !slots.is_empty() {
                        slots.push(' ');
                    }
                    slots.push_str(&slot.to_string());
                    rows.extend_from_slice(row);
                }
                self.emit(
                    self.tag_model(
                        Event::new("serve.feedback").ctx(&SpanContext::root_of(trace).child()),
                    )
                    .f64_slice("lo", feedback.region.lo())
                    .f64_slice("hi", feedback.region.hi())
                    .f64("estimate", feedback.estimate)
                    .f64("actual", feedback.actual)
                    .u64("cardinality", feedback.cardinality)
                    .str("slots", slots)
                    .f64_slice("rows", &rows),
                );
            }
            if kdesel_telemetry::enabled() {
                self.meters.maintenance.inc();
                self.meters.replacements.add(replaced.len() as u64);
                let bandwidth = self.model.estimator().bandwidth().to_vec();
                self.observatory
                    .observe(&feedback, &bandwidth, replaced.len());
            }
        }
        if kdesel_telemetry::enabled() {
            self.meters.backlog_depth.set(self.backlog.len() as f64);
        }
    }

    /// Answers pending flush barriers once the backlog is empty.
    fn settle_flushes(&mut self) {
        if self.backlog.is_empty() {
            for reply in self.pending_flushes.drain(..) {
                reply.send(());
            }
        }
    }

    fn checkpoint_now(&mut self) -> Result<(), String> {
        let Some(policy) = &self.config.checkpoint else {
            return Err("no checkpoint directory configured".to_string());
        };
        let snapshot = self.model.snapshot();
        crate::snapshot::write_atomic(&policy.dir, &self.key, &snapshot)?;
        self.checkpoints += 1;
        self.last_checkpoint = Instant::now();
        if kdesel_telemetry::enabled() {
            self.meters.checkpoints.inc();
        }
        Ok(())
    }

    fn maybe_periodic_checkpoint(&mut self) {
        let due = self
            .config
            .checkpoint
            .as_ref()
            .and_then(|p| p.every)
            .is_some_and(|every| self.last_checkpoint.elapsed() >= every);
        if due && self.checkpoint_now().is_err() && kdesel_telemetry::enabled() {
            self.meters.checkpoint_errors.inc();
        }
    }

    fn until_next_checkpoint(&self) -> Option<Duration> {
        let every = self.config.checkpoint.as_ref()?.every?;
        Some(every.saturating_sub(self.last_checkpoint.elapsed()))
    }

    fn report(&self) -> WorkerReport {
        let device = self.model.estimator().device();
        WorkerReport {
            requests: self.requests,
            batches: self.batches,
            max_batch_seen: self.max_batch_seen,
            maintenance_applied: self.maintenance_applied,
            replacements: self.replacements,
            checkpoints: self.checkpoints,
            backlog: self.backlog.len(),
            bandwidth: self.model.estimator().bandwidth().to_vec(),
            device: device.stats(),
            modeled_seconds: device.modeled_seconds(),
        }
    }
}

impl WorkerReport {
    /// Requests served per fused launch (1.0 = no coalescing).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}
