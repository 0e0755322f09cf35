//! The non-KDE estimators of the evaluation: STHoles, the workload-aware
//! multidimensional histogram the paper compares against, and the two §2
//! baselines, [`avi`] (per-dimension histograms multiplied under the
//! attribute-value-independence assumption) and [`sample`] (counting the
//! sample points inside the query). Each implements
//! `kdesel_types::SelectivityEstimator`.
//!
//! From-scratch implementation of Bruno, Chaudhuri & Gravano's STHoles
//! [SIGMOD 2001], the self-tuning histogram the paper uses "as a proxy to
//! compare our estimator against the quality of state-of-the-art
//! multidimensional histograms" (§6.1.1).
//!
//! STHoles maintains a tree of nested rectangular buckets. Each bucket `b`
//! stores a frequency `f(b)` for its *exclusive* region — its box minus its
//! children's boxes. Query feedback drives refinement: the intersection of
//! a query with a bucket becomes a candidate *hole*; exact tuple counts for
//! the candidate (obtained from the executed query's tuple stream — here,
//! from a counting callback supplied by the engine) are drilled in as new
//! child buckets. When the bucket budget is exceeded, the pair of buckets
//! whose merge changes the histogram the least (parent-child or
//! sibling-sibling, chosen by penalty) is merged. The engine hands the
//! counting callback in as the live `kdesel_types::Relation`.

#![deny(unsafe_code)]

pub mod avi;
pub mod sample;
pub mod stholes;

pub use avi::{AviEstimator, EquiDepthHistogram};
pub use sample::SampleEstimator;
pub use stholes::{SthConfig, SthHoles};
