//! Datasets and query workloads for the evaluation (paper §6.1.2, §6.1.3).
//!
//! # Datasets
//!
//! The paper evaluates on four UCI datasets (Bike, Forest, Power, Protein)
//! plus the synthetic cluster generator of Gunopulos et al. The UCI data is
//! not redistributable here, so [`datasets`] provides *simulacra*: seeded
//! generators reproducing each dataset's documented size, dimensionality and
//! statistical character (correlation structure, multi-modality, skew,
//! discreteness). The synthetic generator follows the paper's description
//! exactly: "randomly placing hyper-rectangular clusters with a uniform
//! interior distribution, and then adding uniformly distributed noise".
//!
//! # Workloads
//!
//! [`workload`] implements the STHoles-paper methodology the authors adopt
//! (§6.1.3): a workload is a distribution of query *centers* (data-following
//! or uniform) plus a target measure (selectivity or volume):
//!
//! | name | centers | target |
//! |------|---------|--------|
//! | DT   | data    | 1% selectivity |
//! | DV   | data    | 1% volume |
//! | UT   | uniform | 1% selectivity |
//! | UV   | uniform | 1% volume |

#![deny(unsafe_code)]

pub mod datasets;
pub mod workload;

pub use datasets::{synthetic, Dataset};
pub use workload::{generate_workload, WorkloadKind, WorkloadSpec};
