//! # kdesel — self-tuning kernel density models for selectivity estimation
//!
//! Umbrella crate re-exporting the full public API of the workspace: a Rust
//! reproduction of *Heimel, Kiefer, Markl: Self-Tuning, GPU-Accelerated
//! Kernel Density Models for Multidimensional Selectivity Estimation*
//! (SIGMOD 2015).
//!
//! See the individual crates for details; `examples/` and the README walk
//! through typical usage.
//!
//! ```
//! use kdesel::device::{Backend, Device};
//! use kdesel::kde::{KdeEstimator, KernelFn};
//! use kdesel::{Rect, SelectivityEstimator};
//!
//! // A 2-D sample (row-major) and a Scott's-rule KDE model over it, used
//! // through the one estimator interface every family implements.
//! let sample = vec![0.1, 0.2, 0.4, 0.4, 0.6, 0.5, 0.9, 0.8];
//! let mut model: Box<dyn SelectivityEstimator> = Box::new(KdeEstimator::new(
//!     Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian));
//!
//! let everything = model.estimate(&Rect::cube(2, -10.0, 10.0));
//! assert!((everything - 1.0).abs() < 1e-6);
//! let nothing = model.estimate(&Rect::cube(2, 100.0, 101.0));
//! assert!(nothing < 1e-9);
//! ```

#![deny(unsafe_code)]

pub use kdesel_data as data;
pub use kdesel_device as device;
pub use kdesel_engine as engine;
pub use kdesel_estimators as estimators;
pub use kdesel_hist as hist;
pub use kdesel_kde as kde;
pub use kdesel_math as math;
pub use kdesel_serve as serve;
pub use kdesel_solver as solver;
pub use kdesel_storage as storage;
pub use kdesel_telemetry as telemetry;
pub use kdesel_types as types;

pub use kdesel_types::{
    ErrorMetric, LabelledQuery, MemoryBudget, Precision, QueryFeedback, Rect, SelectivityEstimator,
    Summary,
};
