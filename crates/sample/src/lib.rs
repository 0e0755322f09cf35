//! Sample maintenance under insert streams.
//!
//! For insert-only workloads the paper keeps the GPU-resident sample fresh
//! with reservoir sampling (§4.2): "Reservoir sampling adds newly inserted
//! data to the sample with probability |S|/|R|, replacing a random point in
//! the process. It is optimal with regard to transfers, as all decisions are
//! made independently by the host and only points that will end up in the
//! sample are transferred to the graphics card."
//!
//! [`ReservoirSampler`] is the per-insert decision procedure (Vitter's
//! Algorithm R), returning *which slot to overwrite* so the caller can
//! schedule a single transfer.

#![deny(unsafe_code)]

pub mod estimator;
pub mod reservoir;

pub use estimator::SampleEstimator;
pub use reservoir::{ReservoirDecision, ReservoirSampler};
