//! The paper's primary contribution: self-tuning, device-accelerated
//! Kernel Density Models for multidimensional selectivity estimation.
//!
//! Module map (with the paper sections they implement):
//!
//! * [`kernel`] — Gaussian & Epanechnikov product kernels; the closed-form
//!   per-dimension range factor (eq. 13) and its bandwidth derivative
//!   (eq. 17's inner factor),
//! * [`estimator`] — the device-resident KDE model, staged as SoA
//!   stripes on one device: estimate (eq. 2), estimator gradient
//!   (eqs. 15-17), single-transfer point replacement (§5.1), retained
//!   contribution buffer (§5.4),
//! * [`loss`] — differentiable loss functions and their derivatives
//!   (Appendix C.1),
//! * [`bandwidth`] — Scott's rule (eq. 3), batch optimization over query
//!   feedback (problem 5, §3.4), the adaptive RMSprop tuner (§4.1,
//!   Listing 1, with Appendix D's logarithmic updates), and the
//!   cross-validation selectors standing in for the `ks::Hscv.diag`
//!   baseline,
//! * [`karma`] — Karma-based sample maintenance (eqs. 6-8) with the
//!   empty-region shortcut (Appendix E, eq. 20),
//! * [`estimators`] — the `SelectivityEstimator` wrappers evaluated in §6:
//!   Heuristic, SCV, Batch, and Adaptive KDE,
//! * [`persist`] — model snapshots for checkpoint and warm restart.
//!
//! Of the §8 outlook, discrete attributes need no separate model: the
//! batch optimizer already drives a discrete dimension's bandwidth toward
//! counting (pinned by a test in [`bandwidth::batch`]).

#![deny(unsafe_code)]

pub mod bandwidth;
pub mod estimator;
pub mod estimators;
pub mod karma;
pub mod kernel;
pub mod loss;
pub mod persist;
pub(crate) mod sweep;

pub use bandwidth::adaptive::{AdaptiveConfig, AdaptiveTuner};
pub use bandwidth::batch::{optimize_bandwidth, BatchConfig, WorkloadObjective};
pub use bandwidth::cv::{scv_bandwidth, CvConfig};
pub use bandwidth::scott::scott_bandwidth;
pub use estimator::{KdeEstimator, MIN_BANDWIDTH};
pub use estimators::{AdaptiveKde, BatchKde, HeuristicKde, ScvKde};
pub use karma::{KarmaConfig, KarmaMaintenance};
pub use kdesel_solver::online::RmsPropConfig;
pub use kernel::KernelFn;
pub use loss::LossFunction;
pub use persist::ModelSnapshot;
