//! Core vocabulary types for the `kdesel` selectivity-estimation workspace.
//!
//! This crate defines the shared, dependency-light types used across the
//! reproduction of *Heimel, Kiefer, Markl: Self-Tuning, GPU-Accelerated
//! Kernel Density Models for Multidimensional Selectivity Estimation*
//! (SIGMOD 2015):
//!
//! * [`Rect`] — a hyper-rectangular query region `Ω = (l₁,u₁) × … × (l_d,u_d)`
//!   (§2.1 of the paper),
//! * [`QueryFeedback`] — the (region, estimate, true selectivity) triple that
//!   drives both bandwidth learning (§4.1) and sample maintenance (§4.2),
//! * [`SelectivityEstimator`] — the one estimator interface, implemented by
//!   every estimator in the evaluation (§6.1.1), and [`Relation`], the live
//!   table it maintains itself against,
//! * error metrics and summary statistics used by the experiments (§6.2).

#![deny(unsafe_code)]

pub mod budget;
pub mod error_metrics;
pub mod estimator;
pub mod feedback;
pub mod rect;
pub mod stats;

pub use budget::{MemoryBudget, Precision};
pub use error_metrics::{ErrorMetric, QERROR_SMOOTHING};
pub use estimator::{Relation, SelectivityEstimator};
pub use feedback::{LabelledQuery, QueryFeedback};
pub use rect::Rect;
pub use stats::{FiveNumberSummary, Summary};
