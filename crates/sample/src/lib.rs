//! Sample maintenance under insert streams.
//!
//! For insert-only workloads the paper keeps the GPU-resident sample fresh
//! with reservoir sampling (§4.2): "Reservoir sampling adds newly inserted
//! data to the sample with probability |S|/|R|, replacing a random point in
//! the process. It is optimal with regard to transfers, as all decisions are
//! made independently by the host and only points that will end up in the
//! sample are transferred to the graphics card."
//!
//! * [`ReservoirSampler`] — the per-insert decision procedure (Vitter's
//!   Algorithm R), returning *which slot to overwrite* so the caller can
//!   schedule a single transfer,
//! * [`SkipSampler`] — Vitter's Algorithm Z, which draws the number of
//!   stream records to skip between replacements in O(1) expected time,
//! * [`StreamSampler`] — an owning convenience wrapper that materializes a
//!   uniform sample from any stream (used by tests and dataset tooling).

#![deny(unsafe_code)]

pub mod estimator;
pub mod reservoir;

pub use estimator::SampleEstimator;
pub use reservoir::{ReservoirDecision, ReservoirSampler, SkipSampler, StreamSampler};
