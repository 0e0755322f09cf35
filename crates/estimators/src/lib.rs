//! The exact-scan baseline beside the paper's estimators.
//!
//! The paper evaluates KDE against four classical baselines
//! (heuristics, STHoles, AVI, sampling). This crate adds the exact
//! baseline a modern comparison needs: [`exact`] —
//! [`ExactScanEstimator`], a scan of the staged table (*Exact
//! Selectivity Computation*, PAPERS.md) through one fused
//! `sweep_reduce` launch per query. Figure 7 measures its wall time
//! against the KDE's as the table grows, and Table 1 ranks it with
//! the others.
//!
//! The crate sits between `kdesel-kde` and the engine harness in the
//! dependency order. Its manifest still names `kdesel-kde`,
//! `kdesel-solver` and `kdesel-telemetry`, and `kdesel-serve` still
//! names this crate, though none of those edges is used: the benchmark
//! harness's lockfile records them (DESIGN §2).

#![deny(unsafe_code)]

pub mod exact;

pub use exact::ExactScanEstimator;
