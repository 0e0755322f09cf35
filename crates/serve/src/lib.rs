//! `kdesel-serve`: a concurrent estimator service with request
//! coalescing, background maintenance, and warm-restart snapshots.
//!
//! The paper's estimator lives inside a query optimizer that answers many
//! concurrent selectivity probes; this crate provides the serving layer
//! the synchronous `engine::session` loop lacks — built entirely on std
//! threads and channels (zero external dependencies):
//!
//! ```text
//!  callers (any thread)                 one executor thread per model
//!  ────────────────────                 ─────────────────────────────
//!  ServeHandle::estimate ──┐
//!  ServeHandle::submit  ───┼─ mpsc ──▶ coalescing scheduler
//!  ServeHandle::feedback ──┘             │  drain ≤ max_batch, wait ≤ max_wait
//!                                        ▼
//!                                      ONE fused estimate_batch launch
//!                                        │  per-request oneshot replies
//!                                        ▼
//!                                      maintenance (between batches)
//!                                        │  Karma + RMSprop + tuple refresh
//!                                        ▼
//!                                      checkpointer (periodic / shutdown)
//!                                           ModelSnapshot JSON on disk
//! ```
//!
//! * **Registry** — [`ModelKey`] (table, column set) → [`ServedModel`].
//!   Each entry is owned by exactly one executor thread: no locks around
//!   the estimator, and the device command stream per model stays
//!   single-threaded (see the thread-ownership contract in
//!   `kdesel-device`'s crate docs).
//! * **Coalescing scheduler** — concurrent submissions fuse into one
//!   `estimate_batch` launch (bit-identical per query to sequential
//!   `estimate` calls), amortizing per-launch latency exactly as the
//!   paper's GPU offloading amortizes transfer cost.
//! * **Background maintenance** — true-selectivity feedback queues into a
//!   backlog applied between batches: serving latency never pays the
//!   Karma/RMSprop tuning cost. [`ServeHandle::flush`] is a barrier for
//!   callers that need strict Listing-1 ordering
//!   (`engine::session::run_query_via` uses it).
//! * **Warm restart** — periodic, on-demand, and on-shutdown
//!   [`ModelSnapshot`](kdesel_kde::ModelSnapshot) JSON checkpoints per
//!   registry entry, restored on the next [`ServiceBuilder::build`].
//! * **Observability** — every request carries a trace ID minted at the
//!   front door ([`ServeHandle::submit`]); workers emit a
//!   `serve.request → serve.batch → serve.launch` span tree per traced
//!   request (plus a `serve.feedback` child when the loop closes), an
//!   optional JSONL workload capture ([`ServeConfig::capture`]) replays
//!   bit-for-bit through [`replay`], and the per-model q-error drift
//!   gauges of [`observatory`] feed the telemetry registry's
//!   Prometheus-style exposition ([`kdesel_telemetry::prometheus_text`]).
//!
//! Latency-vs-throughput knobs live in [`ServeConfig`]; instrumentation
//! (queue-depth gauge, batch-size and end-to-end latency histograms,
//! coalescing-ratio counters) is registered under `serve.*` in
//! `kdesel-telemetry`.

#![deny(unsafe_code)]

pub mod capture;
pub mod config;
pub mod model;
pub mod observatory;
mod oneshot;
pub mod replay;
pub mod service;
pub mod snapshot;
mod worker;

pub use config::{CheckpointPolicy, ServeConfig};
pub use model::{ModelKey, RefreshFn, ServedModel};
pub use replay::{Capture, ReplayOutcome, ReplaySpeed};
pub use service::{PendingEstimate, ServeError, ServeHandle, Service, ServiceBuilder};
pub use worker::WorkerReport;

/// Compile-time audit of the thread contract this crate relies on (the
/// satellite of the `Send`/`Sync` audit documented in `kdesel-device`):
/// estimators move onto executor threads, handles are shared everywhere.
#[allow(dead_code)]
fn thread_contract_audit() {
    fn moves_onto_executor_thread<T: Send>() {}
    fn shared_across_threads<T: Send + Sync>() {}
    moves_onto_executor_thread::<kdesel_kde::KdeEstimator>();
    moves_onto_executor_thread::<kdesel_kde::AdaptiveKde>();
    moves_onto_executor_thread::<ServedModel>();
    shared_across_threads::<kdesel_device::Device>();
    shared_across_threads::<kdesel_device::DeviceBuffer>();
    shared_across_threads::<ServeHandle>();
    shared_across_threads::<Service>();
}
