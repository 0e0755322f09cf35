//! Integration layer: the "database" side of the paper's system.
//!
//! The paper integrates its estimator into Postgres; this crate provides
//! the equivalent wiring over the in-memory substrate:
//!
//! * [`estimators`] — [`EstimatorKind::build`] constructs every technique
//!   in the evaluation (§6.1.1) as one
//!   `Box<dyn kdesel_types::SelectivityEstimator>`; nothing in the engine
//!   looks at the family after that,
//! * [`session`] — the query lifecycle of Figure 3: estimate → execute →
//!   feed back, with the live table handed to the estimator's maintenance
//!   as its `kdesel_types::Relation` (exact counts for STHoles, fresh
//!   tuples for Karma refills),
//! * [`join`] — PK-FK join-result sampling for a KDE over a join (§8),
//! * [`experiments`] — the §6 evaluation protocols (static quality, win
//!   rates, model-size scaling, performance, dynamic data),
//! * [`report`] — plain-text/CSV table formatting for the bench binaries.

#![deny(unsafe_code)]

pub mod estimators;
pub mod experiments;
pub mod join;
pub mod report;
pub mod session;

pub use estimators::EstimatorKind;
pub use session::{run_query, QueryOutcome};
