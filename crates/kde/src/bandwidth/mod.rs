//! Bandwidth selection: the heart of the paper.
//!
//! Four selectors, matching the estimators compared in §6.1.1:
//!
//! * [`scott`] — the rule-of-thumb initialization (eq. 3), used by the
//!   *Heuristic* estimator and as the starting point for everything else,
//! * [`batch`] — workload-driven numerical optimization (problem 5, §3.4):
//!   MLSL-style global phase + projected L-BFGS refinement in log-space,
//! * [`adaptive`] — the online RMSprop tuner (§4.1, Listing 1) with
//!   logarithmic updates (Appendix D),
//! * [`cv`] — the data-driven diagonal smoothed-cross-validation (SCV)
//!   selector, standing in for the R `ks::Hscv.diag` baseline.

pub mod adaptive;
pub mod batch;
pub mod cv;
pub mod scott;
