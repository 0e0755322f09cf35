//! Numerical optimization stack for bandwidth selection.
//!
//! The paper (§3.4, §5.3) plugs its bandwidth objective into NLopt: a coarse
//! global pass (MLSL) followed by local refinement (L-BFGS-B). This crate
//! provides the same contract from scratch:
//!
//! * [`Objective`] / [`Bounds`] — the problem interface,
//! * [`lbfgs`] — projected-gradient L-BFGS for box-constrained problems,
//!   the one local method (multistart refines each start with it; the
//!   line searches live in [`linesearch`]),
//! * [`multistart`] — an MLSL-style clustered-multistart global phase,
//! * [`online`] — the Rprop/RMSprop adaptive updaters driving the
//!   self-tuning bandwidth loop (paper §4.1, Listing 1),
//! * [`testfns`] — standard optimization test functions used by the test
//!   suite and benches.

pub mod lbfgs;
pub mod linesearch;
pub mod multistart;
pub mod online;
pub mod problem;
pub mod testfns;

pub use lbfgs::{lbfgs, LbfgsConfig};
pub use multistart::{multistart, MultistartConfig};
pub use online::{RmsProp, RmsPropConfig, Rprop, RpropConfig};
pub use problem::{Bounds, FnObjective, Objective, OptOutcome, OptResult};
