//! Integration layer: the "database" side of the paper's system.
//!
//! The paper integrates its estimator into Postgres; this crate provides
//! the equivalent wiring over the in-memory substrate:
//!
//! * [`estimators`] — a unified [`AnyEstimator`](estimators::AnyEstimator)
//!   over every technique in the evaluation (§6.1.1), including the
//!   feedback plumbing each one needs (Karma replacements sampled from the
//!   live table, reservoir decisions for inserts, exact per-bucket counts
//!   for STHoles),
//! * [`session`] — the query lifecycle of Figure 3: estimate → execute →
//!   feed back,
//! * [`experiments`] — the §6 evaluation protocols (static quality, win
//!   rates, model-size scaling, performance, dynamic data),
//! * [`report`] — plain-text/CSV table formatting for the bench binaries.

#![deny(unsafe_code)]

pub mod database;
pub mod estimators;
pub mod experiments;
pub mod join;
pub mod report;
pub mod session;

pub use database::Database;
pub use estimators::{AnyEstimator, EstimatorKind};
pub use session::{run_query, QueryOutcome};
