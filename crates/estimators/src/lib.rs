//! Estimator bake-off: an exact baseline beside the KDE, behind a hybrid
//! cost/error router.
//!
//! The paper evaluates KDE against four classical baselines
//! (heuristics, STHoles, AVI, sampling). This crate adds the exact
//! family a modern comparison needs and the router that arbitrates
//! between it and the self-tuning KDE:
//!
//! * [`exact`] — an exact-scan estimator (*Exact Selectivity
//!   Computation*, PAPERS.md) sweeping the SoA stripes through one
//!   fused `sweep_reduce` launch, costed through the calibrated
//!   [`CostProfile`](kdesel_device::CostProfile) so the router can
//!   price it honestly,
//! * [`router`] — [`HybridRouter`]: per query, pick the family whose
//!   rolling q-error window (shaped like the serving drift
//!   observatory's), penalized by its modeled latency against the
//!   budget, looks best,
//! * [`hybrid`] — [`HybridEstimator`]: KDE + exact behind one router,
//!   with feedback attributed to whichever family answered.
//!
//! The crate sits between `kdesel-kde` and `kdesel-serve` in the
//! dependency order: it may use devices and KDE models, but knows
//! nothing about serving or the engine harness.

pub mod exact;
pub mod hybrid;
pub mod router;

pub use exact::ExactScanEstimator;
pub use hybrid::{HybridConfig, HybridEstimator};
pub use router::{Family, HybridRouter, RouterConfig};
