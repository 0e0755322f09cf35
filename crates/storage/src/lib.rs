//! Miniature in-memory relational substrate.
//!
//! The paper integrates its estimator into Postgres 9.3.1, using the host
//! database for exactly three things: collecting random samples (`ANALYZE`,
//! §5.2), observing the update stream (reservoir sampling & Karma
//! maintenance, §4.2/§5.6), and producing true selectivities as query
//! feedback (§4.1). This crate provides those three interfaces over an
//! in-memory table of real-valued attributes:
//!
//! * [`Table`] — row-major storage with insert/delete/update, full-scan
//!   range counting, and tombstone-based row identity,
//! * [`sampling`] — uniform random sampling of live rows (standing in for
//!   Postgres' `ANALYZE` row sampling).
//!
//! The table keeps no change log: its caller observes the update stream.
//! `kdesel_engine::Database::insert` hands each inserted row to the
//! estimator's reservoir path in the same call, and deletions reach the
//! model through query feedback (Karma, §4.2).

pub mod sampling;
pub mod table;

pub use table::{RowId, Table};
