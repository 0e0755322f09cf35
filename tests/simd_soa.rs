//! SoA/SIMD sweep pins: the columnar staging plus vectorized kernel
//! sweeps must be one formulation shared by every backend and every
//! estimate path.
//!
//! Two layers of guarantee, matching `crates/kde/src/sweep.rs`:
//!
//! * **Bitwise across backends and paths.** CpuSeq, CpuPar and SimGpu
//!   run the identical lane arithmetic (CpuPar only changes how row
//!   blocks are scheduled, SimGpu only adds modeled cost), so
//!   estimates, fused gradients, batched estimates and the retained
//!   per-point contributions must agree bit-for-bit.
//! * **Tolerance against the row-major reference.** The sweeps hoist
//!   bandwidth reciprocals out of the inner loop (division-free SIMD
//!   body), so they agree with the scalar AoS reference
//!   (`KdeEstimator::estimate_host`, which divides per point) to
//!   ~1 ulp per factor — pinned here at the estimator's own 1e-12
//!   band.

// The proptest inputs are 4-tuples, which trips clippy's type-complexity
// threshold inside the macro expansion.
#![allow(clippy::type_complexity)]

use kdesel::device::{Backend, Device};
use kdesel::kde::{KdeEstimator, KernelFn};
use kdesel::Rect;
use proptest::prelude::*;

const BACKENDS: [Backend; 3] = [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu];

/// Strategy: dimensionality, a flat row-major sample over [0, 100)^d
/// (row count not a multiple of the lane width more often than not, so
/// the scalar tails are exercised), a kernel, and a query box.
///
/// Most of the box's intervals overlap the sample. The others reach the
/// kernels' guarded and saturated lanes: a `-∞` lower and/or `+∞` upper
/// bound (the non-finite select of the Gaussian bandwidth derivative),
/// or an interval 300 to 3000 units from the sample — at least 10
/// bandwidths under Scott's rule for these samples (h ≤ ~22), where
/// every lane's range factor is an exact zero, in vector groups and
/// tails alike, and the Gaussian derivative's `exp` runs into the
/// subnormal range and underflow.
fn scenario_strategy() -> impl Strategy<Value = (usize, Vec<f64>, KernelFn, Rect)> {
    (1usize..5).prop_flat_map(|d| {
        (
            Just(d),
            proptest::collection::vec(0.0f64..100.0, 11 * d..140 * d).prop_map(move |mut v| {
                v.truncate(v.len() / d * d);
                v
            }),
            (0usize..2).prop_map(|k| {
                if k == 0 {
                    KernelFn::Gaussian
                } else {
                    KernelFn::Epanechnikov
                }
            }),
            proptest::collection::vec(
                (0usize..8, -10.0f64..110.0, 0.0f64..70.0, 400.0f64..3000.0),
                d..d + 1,
            )
            .prop_map(|intervals| {
                let spans: Vec<(f64, f64)> = intervals
                    .iter()
                    .map(|&(kind, a, w, far)| match kind {
                        4 => (f64::NEG_INFINITY, a + w),
                        5 => (a, f64::INFINITY),
                        6 => (f64::NEG_INFINITY, f64::INFINITY),
                        7 if a < 50.0 => (-far - w, -far),
                        7 => (far, far + w),
                        _ => (a, a + w),
                    })
                    .collect();
                Rect::from_intervals(&spans)
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every backend produces bitwise-identical results on every SoA
    /// path: plain estimate, fused value+gradient, batched estimates,
    /// and the retained per-point contributions (the Karma input).
    #[test]
    fn soa_paths_are_bitwise_identical_across_backends(
        (dims, sample, kernel, query) in scenario_strategy(),
    ) {
        let grown = query.inflated(5.0);
        let queries = [query.clone(), grown];
        let mut reference: Option<(f64, Vec<f64>, Vec<f64>, Vec<f64>)> = None;
        for backend in BACKENDS {
            let mut est = KdeEstimator::new(Device::new(backend), &sample, dims, kernel);
            let value = est.estimate(&query);
            let contributions = est
                .device()
                .download(est.last_contributions().expect("estimate retains"));
            let (_, gradient) = est.estimate_with_gradient(&query);
            let batch = est.estimate_batch(&queries);
            prop_assert_eq!(batch.len(), queries.len());
            match &reference {
                None => reference = Some((value, gradient, batch, contributions)),
                Some((v0, g0, b0, c0)) => {
                    prop_assert_eq!(value.to_bits(), v0.to_bits(), "{backend:?} estimate");
                    for (a, b) in gradient.iter().zip(g0) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} gradient");
                    }
                    for (a, b) in batch.iter().zip(b0) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} batch");
                    }
                    prop_assert_eq!(contributions.len(), c0.len());
                    for (a, b) in contributions.iter().zip(c0) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} contributions");
                    }
                }
            }
        }
    }

    /// The vectorized SoA estimate stays within 1e-12 of the scalar
    /// row-major reference, and the batch sweep reproduces the
    /// per-query sweep bitwise.
    #[test]
    fn soa_estimate_matches_aos_reference(
        (dims, sample, kernel, query) in scenario_strategy(),
    ) {
        let mut est = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, dims, kernel);
        let soa = est.estimate(&query);
        let aos = KdeEstimator::estimate_host(&sample, dims, est.bandwidth(), kernel, &query);
        prop_assert!(
            (soa - aos).abs() <= 1e-12,
            "SoA {soa} vs AoS reference {aos}"
        );
        let batch = est.estimate_batch(std::slice::from_ref(&query));
        prop_assert_eq!(batch[0].to_bits(), soa.to_bits(), "batch vs per-query");
    }
}
