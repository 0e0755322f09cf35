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

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64, so the pinned inputs depend on nothing but this file.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Special arguments for the lane-function grids: signed zeros and
/// infinities, NaN of both signs, erf's saturation and rational switch
/// points, and subnormals.
const SPECIAL_ARGS: [f64; 16] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    6.0,
    -6.0,
    0.46875,
    -0.46875,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
];

/// `SPECIAL_ARGS` followed by `2^13` evenly spaced points over `[lo, hi]`.
fn lane_grid(lo: f64, hi: f64) -> Vec<f64> {
    let steps = 1 << 13;
    let mut args = SPECIAL_ARGS.to_vec();
    args.extend((0..steps).map(|i| lo + (hi - lo) * f64::from(i) / f64::from(steps - 1)));
    args
}

/// Scalar and pack hashes of a lane function over `args`.
fn lane_hashes(
    args: &[f64],
    scalar: fn(f64) -> f64,
    pack: fn(kdesel::math::simd::F64s) -> kdesel::math::simd::F64s,
) -> (u64, u64) {
    use kdesel::math::simd::{F64s, LANES};
    assert_eq!(args.len() % LANES, 0);
    let packed = args
        .chunks_exact(LANES)
        .flat_map(|c| pack(F64s::from_slice(c)).to_array());
    (
        bits_hash(args.iter().map(|&x| scalar(x))),
        bits_hash(packed),
    )
}

/// Every output bit of `estimate_batch`, `estimate_with_gradient` and
/// `estimate_batch_with_gradients_at` on one seeded model.
fn estimator_hash(kernel: KernelFn, dims: usize, rows: usize, seed: u64) -> u64 {
    let mut rng = SplitMix(seed);
    let sample: Vec<f64> = (0..rows * dims).map(|_| rng.next_f64(0.0, 100.0)).collect();
    let mut queries: Vec<Rect> = (0..3)
        .map(|_| {
            let spans: Vec<(f64, f64)> = (0..dims)
                .map(|_| {
                    let a = rng.next_f64(-10.0, 90.0);
                    (a, a + rng.next_f64(5.0, 70.0))
                })
                .collect();
            Rect::from_intervals(&spans)
        })
        .collect();
    // An unbounded lower edge (the guarded Gaussian derivative) and an
    // interval far outside the sample (exact-zero factors, `exp` in the
    // subnormal range and underflow).
    let mut spans: Vec<(f64, f64)> = (0..dims).map(|_| (20.0, 80.0)).collect();
    spans[0] = (f64::NEG_INFINITY, 50.0);
    spans[dims - 1] = (-900.0, -850.0);
    queries.push(Rect::from_intervals(&spans));
    let mut est = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, dims, kernel);
    let mut bits = est.estimate_batch(&queries);
    for q in &queries {
        let (value, gradient) = est.estimate_with_gradient(q);
        bits.push(value);
        bits.extend(gradient);
    }
    let candidate: Vec<f64> = est.bandwidth().iter().map(|h| h * 0.7).collect();
    for (value, gradient) in est.estimate_batch_with_gradients_at(&candidate, &queries) {
        bits.push(value);
        bits.extend(gradient);
    }
    bits_hash(bits)
}

const ERF_BITS: u64 = 0xa89f_188a_7b71_8870;
const EXP_BITS: u64 = 0x7a6b_2592_3d89_799e;
const GAUSSIAN_8D_BITS: u64 = 0xf765_e14d_da2b_178d;
const EPANECHNIKOV_3D_BITS: u64 = 0xeb2d_0baa_414a_6638;

/// Bit pins against constants computed before the lane pack had an
/// AVX-512 arm: the scalar and pack lane `erf`/`exp` over grids with
/// special values, and the seeded estimate, gradient and batched
/// objective outputs of a Gaussian 8D and an Epanechnikov 3D model. Both
/// `F64s` arms must reproduce every bit.
#[test]
fn lane_functions_and_sweeps_keep_their_pinned_bits() {
    use kdesel::math::simd::{self, F64s};
    let erf_args = lane_grid(-8.0, 8.0);
    let (scalar, pack) = lane_hashes(&erf_args, simd::erf, F64s::erf);
    let exp_args = lane_grid(-760.0, 720.0);
    let (exp_scalar, exp_pack) = lane_hashes(&exp_args, simd::exp, F64s::exp);
    let gauss = estimator_hash(KernelFn::Gaussian, 8, 517, 0x6a05);
    let epan = estimator_hash(KernelFn::Epanechnikov, 3, 777, 0xe3a);
    assert_eq!(
        (scalar, pack),
        (ERF_BITS, ERF_BITS),
        "lane erf (scalar, pack)"
    );
    assert_eq!(
        (exp_scalar, exp_pack),
        (EXP_BITS, EXP_BITS),
        "lane exp (scalar, pack)"
    );
    assert_eq!(gauss, GAUSSIAN_8D_BITS, "Gaussian 8D estimator outputs");
    assert_eq!(
        epan, EPANECHNIKOV_3D_BITS,
        "Epanechnikov 3D estimator outputs"
    );
}

/// Every output bit of the five sweep entry points — `estimate`,
/// `estimate_with_gradient`, `estimator_gradient`, `estimate_batch` and
/// `estimate_batch_with_gradients_at` — of a model over `sample` on
/// `backend`.
fn entry_points_hash(
    backend: Backend,
    kernel: KernelFn,
    sample: &[f64],
    dims: usize,
    queries: &[Rect],
) -> u64 {
    let mut est = KdeEstimator::new(Device::new(backend), sample, dims, kernel);
    let mut bits = Vec::new();
    for q in queries {
        bits.push(est.estimate(q));
        let (value, gradient) = est.estimate_with_gradient(q);
        bits.push(value);
        bits.extend(gradient);
        bits.extend(est.estimator_gradient(q));
    }
    bits.extend(est.estimate_batch(queries));
    let candidate: Vec<f64> = est.bandwidth().iter().map(|h| h * 0.7).collect();
    for (value, gradient) in est.estimate_batch_with_gradients_at(&candidate, queries) {
        bits.push(value);
        bits.extend(gradient);
    }
    bits_hash(bits)
}

/// Three seeded boxes over `sample`'s value range, and one whose edges
/// are `-∞` in dimension 0, `+∞` in dimension 1, zero-width on a sample
/// value in the middle dimensions and far below the sample in the last.
fn pin_queries(sample: &[f64], dims: usize, rng: &mut SplitMix) -> Vec<Rect> {
    let range = |j: usize| {
        let col = sample.iter().skip(j).step_by(dims);
        let lo = col.clone().copied().fold(f64::INFINITY, f64::min);
        (lo, col.copied().fold(f64::NEG_INFINITY, f64::max))
    };
    let mut queries: Vec<Rect> = (0..3)
        .map(|_| {
            let spans: Vec<(f64, f64)> = (0..dims)
                .map(|j| {
                    let (lo, hi) = range(j);
                    let a = rng.next_f64(lo, hi);
                    (a, a + rng.next_f64(0.0, 0.6) * (hi - lo))
                })
                .collect();
            Rect::from_intervals(&spans)
        })
        .collect();
    let row = &sample[dims * 7..][..dims];
    let mut spans: Vec<(f64, f64)> = row.iter().map(|&v| (v, v)).collect();
    spans[0].0 = f64::NEG_INFINITY;
    spans[1].1 = f64::INFINITY;
    let (lo, hi) = range(dims - 1);
    spans[dims - 1] = (lo - 50.0 * (hi - lo + 1.0), lo - 40.0 * (hi - lo + 1.0));
    queries.push(Rect::from_intervals(&spans));
    queries
}

/// The first 2,085 rows of the Power table projected to 8D, whose
/// weekday and sub-metering columns have few distinct values, and its
/// pin queries.
fn power_8d() -> (Vec<f64>, Vec<Rect>) {
    let table = kdesel::data::Dataset::Power.generate_projected(8, 2_085, 0x9e3);
    let sample: Vec<f64> = table.rows().flat_map(|(_, r)| r.to_vec()).collect();
    let queries = pin_queries(&sample, 8, &mut SplitMix(0x5eed));
    (sample, queries)
}

/// 1,100 rows of three integer-valued columns (0..12, 0..50, and -2..=2
/// with both zeros) and their pin queries.
fn integers_3d() -> (Vec<f64>, Vec<Rect>) {
    let mut rng = SplitMix(0x1e7);
    let sample: Vec<f64> = (0..1_100)
        .flat_map(|_| {
            let zeros = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0];
            [
                rng.next_f64(0.0, 12.0).floor(),
                rng.next_f64(0.0, 50.0).floor(),
                zeros[rng.next_f64(0.0, 6.0) as usize],
            ]
        })
        .collect();
    let queries = pin_queries(&sample, 3, &mut rng);
    (sample, queries)
}

const POWER_8D_GAUSSIAN_BITS: u64 = 0x9731_686a_1362_beaf;
const INTEGERS_3D_EPANECHNIKOV_BITS: u64 = 0xb2fb_c512_15a5_7da5;

/// Bit pins of dictionary-coded models against constants computed before
/// samples had dictionaries: a Gaussian model of a Power 8D sample and an
/// Epanechnikov model of integer-valued columns (row counts off both the
/// lane width and the sweep block), over all five sweep entry points, on
/// CpuSeq and CpuPar. Reading coded columns' factors from per-query
/// tables must reproduce every bit of evaluating every row.
#[test]
fn dictionary_coded_models_keep_their_pinned_bits() {
    let (power, power_queries) = power_8d();
    let (integers, integer_queries) = integers_3d();
    let staging = Device::new(Backend::CpuSeq);
    assert_eq!(staging.stage_rows_soa(&power, 8).dict_columns(), 3);
    assert_eq!(staging.stage_rows_soa(&integers, 3).dict_columns(), 3);
    for backend in [Backend::CpuSeq, Backend::CpuPar] {
        let gauss = entry_points_hash(backend, KernelFn::Gaussian, &power, 8, &power_queries);
        let epan = entry_points_hash(
            backend,
            KernelFn::Epanechnikov,
            &integers,
            3,
            &integer_queries,
        );
        assert_eq!(gauss, POWER_8D_GAUSSIAN_BITS, "{backend:?} Power 8D");
        assert_eq!(
            epan, INTEGERS_3D_EPANECHNIKOV_BITS,
            "{backend:?} integers 3D"
        );
    }
}
