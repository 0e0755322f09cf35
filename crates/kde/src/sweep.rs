//! Vectorized columnar kernel sweeps.
//!
//! These are the SoA counterparts of the scalar per-row kernels in
//! [`crate::kernel`]: each function consumes a [`ColsView`] — one
//! unit-stride stripe per dimension, as staged by
//! `Device::stage_rows_soa` — and processes [`LANES`] sample points per
//! step with [`F64s`] elementwise arithmetic: one AVX-512 register per
//! pack where the build enables `avx512f`, else an aligned array whose
//! branch-free loops LLVM lowers to the target's packed instructions.
//!
//! # Pre-scaled bandwidths
//!
//! The sweeps hoist every bandwidth-derived divisor out of the
//! per-point loop: [`DimParams`] precomputes `1/h` (Epanechnikov),
//! `1/(√2·h)`, `1/(2h²)` and `1/(√2·√π·h²)` (Gaussian) once per
//! dimension per sweep, and the inner loops multiply. Division has a
//! fraction of multiply throughput on both the scalar and the packed
//! units, so the scalar kernels' `(lo − t)/h` form is division-bound;
//! replacing it with `(lo − t)·(1/h)` makes the Epanechnikov sweep pure
//! mul/add/min/max and is the same pre-scaling a GPU kernel performs
//! before launching over the sample. The reciprocal is rounded once, so
//! sweep results differ from the reference kernels in
//! [`crate::kernel`] by ~1 ulp per factor — well inside the 1e-12 band
//! the estimator pins its device-vs-host tests to.
//!
//! # Gaussian transcendentals
//!
//! The Gaussian factors and derivatives call the branch-free lane
//! functions of [`kdesel_math::simd`] — `erf` within 2 ulp of Cody's
//! oracle, `exp` within 1 ulp of libm — not the oracles the reference
//! kernels call. A pack of them vectorizes (eight erf arguments take a
//! few packed rational evaluations instead of eight branchy scalar
//! calls), and the difference stays inside the same 1e-12 band.
//!
//! # Bit-identity across device paths
//!
//! What stays *bitwise* exact is agreement between every device sweep
//! path — that is the contract the fusion/batch/backend pins rely on:
//!
//! * Vector body and scalar tail evaluate the identical IEEE-754
//!   operation sequence: the tail helpers ([`factor_scalar`],
//!   [`dfactor_scalar`]) are the per-lane expressions of
//!   [`factor_lanes`]/[`dfactor_lanes`] verbatim, [`F64s`] never
//!   reassociates or fuses, and `F64s::erf`/`F64s::exp` and the tails'
//!   `simd::erf`/`simd::exp` are one generic lane-function source.
//! * [`DimParams::new`] is deterministic, so recomputing it in a tail
//!   helper yields the same bits as the hoisted copy.
//! * Range factors are always `≥ +0.0` (they are probabilities; both
//!   kernels produce an exact `+0.0` when the mass vanishes — clamping
//!   and `erf` saturation survive the pre-scaling), so the scalar
//!   early-exit-on-zero product equals the full ordered product.
//! * All product loops multiply factors in ascending-dimension order,
//!   in both the vector groups and the tails.
//!
//! High dimensionalities (`d >` [`MAX_STACK_DIMS`]) run the scalar tail
//! helpers over every row (heap scratch), which keeps the same
//! formulation and therefore the same bits as a hypothetical vector
//! pass.

use crate::kernel::KernelFn;
use kdesel_device::ColsView;
use kdesel_math::simd::{self, F64s, LANES};
use kdesel_math::{SQRT_2, SQRT_PI};

/// Largest dimensionality served by the stack-scratch vector path;
/// matches the scalar kernels' stack-factor limit. Beyond it the sweep
/// falls back to the scalar tail helpers (heap scratch).
const MAX_STACK_DIMS: usize = 32;

/// Per-dimension sweep constants, computed once per sweep call so the
/// per-point loops are division-free.
#[derive(Clone, Copy, Default)]
struct DimParams {
    lo: f64,
    hi: f64,
    /// Epanechnikov: `1/h`. Gaussian: `1/(√2·h)` (the erf argument scale).
    inv: f64,
    /// Gaussian derivative normalizer `1/(√2·√π·h²)`; unused otherwise.
    dnorm: f64,
    /// Gaussian exponent scale `1/(2h²)`; unused otherwise.
    inv_2h2: f64,
}

impl DimParams {
    #[inline]
    fn new(kernel: KernelFn, lo: f64, hi: f64, h: f64) -> Self {
        match kernel {
            KernelFn::Gaussian => {
                let h2 = h * h;
                Self {
                    lo,
                    hi,
                    inv: 1.0 / (SQRT_2 * h),
                    dnorm: 1.0 / (SQRT_2 * SQRT_PI * h2),
                    inv_2h2: 1.0 / (2.0 * h2),
                }
            }
            KernelFn::Epanechnikov => Self {
                lo,
                hi,
                inv: 1.0 / h,
                dnorm: 0.0,
                inv_2h2: 0.0,
            },
        }
    }
}

/// [`LANES`] range factors of one dimension: the pre-scaled vector form
/// of [`KernelFn::range_factor`]. Always inlined, so its packs stay in
/// vector registers instead of passing through stack slots.
#[inline(always)]
fn factor_lanes(kernel: KernelFn, t: F64s, p: DimParams) -> F64s {
    match kernel {
        KernelFn::Gaussian => {
            let e_hi = ((F64s::splat(p.hi) - t) * p.inv).erf();
            let e_lo = ((F64s::splat(p.lo) - t) * p.inv).erf();
            (e_hi - e_lo) * 0.5
        }
        KernelFn::Epanechnikov => {
            let a = ((F64s::splat(p.lo) - t) * p.inv).clamp(-1.0, 1.0);
            let b = ((F64s::splat(p.hi) - t) * p.inv).clamp(-1.0, 1.0);
            epa_cdf_lanes(b) - epa_cdf_lanes(a)
        }
    }
}

/// Per-lane expression of [`factor_lanes`] — the scalar-tail twin. Must
/// stay textually in sync so tails and vector groups agree bitwise.
#[inline]
fn factor_scalar(kernel: KernelFn, t: f64, p: DimParams) -> f64 {
    match kernel {
        KernelFn::Gaussian => {
            let e_hi = simd::erf((p.hi - t) * p.inv);
            let e_lo = simd::erf((p.lo - t) * p.inv);
            (e_hi - e_lo) * 0.5
        }
        KernelFn::Epanechnikov => {
            let a = ((p.lo - t) * p.inv).clamp(-1.0, 1.0);
            let b = ((p.hi - t) * p.inv).clamp(-1.0, 1.0);
            epa_cdf(b) - epa_cdf(a)
        }
    }
}

/// Elementwise Epanechnikov CDF `0.25·(3u − u³) + 0.5`.
#[inline(always)]
fn epa_cdf_lanes(u: F64s) -> F64s {
    (u * 3.0 - u * u * u) * 0.25 + 0.5
}

/// Scalar twin of [`epa_cdf_lanes`] (same operation order).
#[inline]
fn epa_cdf(u: f64) -> f64 {
    (u * 3.0 - u * u * u) * 0.25 + 0.5
}

/// [`LANES`] bandwidth derivatives of one dimension: the pre-scaled
/// vector form of [`KernelFn::range_factor_dh`]. Guarded terms
/// (infinite bounds, compact support) are branch-free: every lane
/// computes unconditionally and the out-of-support lanes are zeroed,
/// matching the scalar `else { 0.0 }` arms. Always inlined, like
/// [`factor_lanes`].
#[inline(always)]
fn dfactor_lanes(kernel: KernelFn, t: F64s, p: DimParams) -> F64s {
    match kernel {
        KernelFn::Gaussian => {
            // `d·exp(−d²/2h²)`; the lanes of an infinite bound (where it
            // is `∞·0`) are zeroed, like the scalar `else { 0.0 }` arm.
            let term = |d: F64s| -> F64s {
                (d * (-d * d * p.inv_2h2).exp()).zero_unless_within(d, f64::MIN, f64::MAX)
            };
            let t_lo = term(F64s::splat(p.lo) - t);
            let t_hi = term(F64s::splat(p.hi) - t);
            (t_lo - t_hi) * p.dnorm
        }
        KernelFn::Epanechnikov => {
            let u_lo = (F64s::splat(p.lo) - t) * p.inv;
            let u_hi = (F64s::splat(p.hi) - t) * p.inv;
            // `epa_pdf(u)·(−u/h)` with both divisions pre-scaled away;
            // lanes outside the support (including NaN from ±∞ bounds)
            // are zeroed by the mask.
            let term = |u: F64s| -> F64s {
                ((F64s::splat(1.0) - u * u) * 0.75 * (-u * p.inv)).zero_unless_within(u, -1.0, 1.0)
            };
            term(u_hi) - term(u_lo)
        }
    }
}

/// Per-lane expression of [`dfactor_lanes`] — the scalar-tail twin.
#[inline]
fn dfactor_scalar(kernel: KernelFn, t: f64, p: DimParams) -> f64 {
    match kernel {
        KernelFn::Gaussian => {
            let term = |d: f64| -> f64 {
                if d.is_finite() {
                    d * simd::exp(-d * d * p.inv_2h2)
                } else {
                    0.0
                }
            };
            (term(p.lo - t) - term(p.hi - t)) * p.dnorm
        }
        KernelFn::Epanechnikov => {
            let term = |u: f64| -> f64 {
                let v = (1.0 - u * u) * 0.75 * (-u * p.inv);
                // NaN `u` (±∞ bounds) fails the containment test → 0.0,
                // like the vector mask.
                if (-1.0..=1.0).contains(&u) {
                    v
                } else {
                    0.0
                }
            };
            term((p.hi - t) * p.inv) - term((p.lo - t) * p.inv)
        }
    }
}

/// Scalar-tail contribution of row `r`, reading column-wise — the
/// per-lane operation sequence of the vector sweep, with the scalar
/// early-exit on an exact-zero partial product (equivalent because
/// factors are `≥ +0.0`; see the module notes).
#[inline]
fn contribution_at(
    kernel: KernelFn,
    cols: &ColsView<'_>,
    lo: &[f64],
    hi: &[f64],
    bandwidth: &[f64],
    r: usize,
) -> f64 {
    let mut p = 1.0;
    for j in 0..cols.dims() {
        let dp = DimParams::new(kernel, lo[j], hi[j], bandwidth[j]);
        p *= factor_scalar(kernel, cols.col(j)[r], dp);
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

/// Writes the per-point contributions (eq. 13) of every row into the
/// contiguous `out` (`out.len() == cols.rows()`). Dimension-major: each
/// dimension streams its unit-stride stripe once, initializing
/// (dimension 0) or multiplying into (dimensions 1..) the running
/// products — the same ascending-dimension order as the scalar path.
pub(crate) fn contributions_into(
    kernel: KernelFn,
    cols: &ColsView<'_>,
    lo: &[f64],
    hi: &[f64],
    bandwidth: &[f64],
    out: &mut [f64],
) {
    let n = cols.rows();
    let d = cols.dims();
    debug_assert_eq!(out.len(), n);
    let main = n - n % LANES;
    for j in 0..d {
        let col = cols.col(j);
        let p = DimParams::new(kernel, lo[j], hi[j], bandwidth[j]);
        let mut r = 0;
        while r < main {
            let f = factor_lanes(kernel, F64s::from_slice(&col[r..]), p);
            if j == 0 {
                f.write_to(&mut out[r..]);
            } else {
                (F64s::from_slice(&out[r..]) * f).write_to(&mut out[r..]);
            }
            r += LANES;
        }
    }
    for (r, slot) in out.iter_mut().enumerate().skip(main) {
        *slot = contribution_at(kernel, cols, lo, hi, bandwidth, r);
    }
}

/// Fills `params` (stack for `d ≤` [`MAX_STACK_DIMS`], else heap) with
/// the hoisted per-dimension constants for one sweep call.
#[inline]
fn hoist_params<'a>(
    kernel: KernelFn,
    lo: &[f64],
    hi: &[f64],
    bandwidth: &[f64],
    stack: &'a mut [DimParams; MAX_STACK_DIMS],
    heap: &'a mut Vec<DimParams>,
) -> &'a [DimParams] {
    let d = lo.len();
    if d <= MAX_STACK_DIMS {
        for j in 0..d {
            stack[j] = DimParams::new(kernel, lo[j], hi[j], bandwidth[j]);
        }
        &stack[..d]
    } else {
        heap.extend((0..d).map(|j| DimParams::new(kernel, lo[j], hi[j], bandwidth[j])));
        heap
    }
}

/// Writes the per-point contributions of one query at column `offset`
/// of each `width`-wide output row: `out[r·width + offset]`. The
/// strided form used by the batched sweeps, where `B` queries interleave
/// per row so the device's column reduction returns all sums at once.
pub(crate) fn contributions_strided_into(
    kernel: KernelFn,
    cols: &ColsView<'_>,
    lo: &[f64],
    hi: &[f64],
    bandwidth: &[f64],
    out: &mut [f64],
    width: usize,
    offset: usize,
) {
    let n = cols.rows();
    debug_assert_eq!(out.len(), n * width);
    let mut params_stack = [DimParams::default(); MAX_STACK_DIMS];
    let mut params_heap = Vec::new();
    let params = hoist_params(
        kernel,
        lo,
        hi,
        bandwidth,
        &mut params_stack,
        &mut params_heap,
    );
    let main = n - n % LANES;
    let mut r = 0;
    while r < main {
        let mut acc = factor_lanes(kernel, F64s::from_slice(&cols.col(0)[r..]), params[0]);
        for (j, &p) in params.iter().enumerate().skip(1) {
            acc = acc * factor_lanes(kernel, F64s::from_slice(&cols.col(j)[r..]), p);
        }
        for (l, v) in acc.to_array().iter().enumerate() {
            out[(r + l) * width + offset] = *v;
        }
        r += LANES;
    }
    for r in main..n {
        out[r * width + offset] = contribution_at(kernel, cols, lo, hi, bandwidth, r);
    }
}

/// Fused value + bandwidth gradient of one query for every row,
/// strided: the value lands at `out[r·width + offset]` and the gradient
/// at the `d` columns after it (the §5.5 factor-sharing layout). With
/// `with_value == false` the value column is omitted and the gradient
/// starts at `offset` — the unfused [`KernelFn::contribution_gradient`]
/// shape.
///
/// Vector path: per [`LANES`]-row group, all `d` factors and
/// `d` derivative factors are computed once into stack scratch, then the
/// value product and the `d` gradient products are formed in
/// ascending-dimension order. The scalar tail repeats the identical
/// sequence per row via the scalar twins.
#[allow(clippy::too_many_arguments)] // mirrors the scalar kernel signature plus the stride pair
pub(crate) fn fused_strided_into(
    kernel: KernelFn,
    cols: &ColsView<'_>,
    lo: &[f64],
    hi: &[f64],
    bandwidth: &[f64],
    out: &mut [f64],
    width: usize,
    offset: usize,
    with_value: bool,
) {
    let n = cols.rows();
    let d = cols.dims();
    debug_assert_eq!(out.len(), n * width);
    let mut params_stack = [DimParams::default(); MAX_STACK_DIMS];
    let mut params_heap = Vec::new();
    let params = hoist_params(
        kernel,
        lo,
        hi,
        bandwidth,
        &mut params_stack,
        &mut params_heap,
    );
    let mut point_stack = [0.0f64; MAX_STACK_DIMS];
    let mut grad_stack = [0.0f64; MAX_STACK_DIMS];
    let mut point_heap = Vec::new();
    let mut grad_heap = Vec::new();
    let (point, grad): (&mut [f64], &mut [f64]) = if d <= MAX_STACK_DIMS {
        (&mut point_stack[..d], &mut grad_stack[..d])
    } else {
        point_heap.resize(d, 0.0);
        grad_heap.resize(d, 0.0);
        (&mut point_heap, &mut grad_heap)
    };
    let main = if d <= MAX_STACK_DIMS {
        n - n % LANES
    } else {
        0 // scalar fallback handles everything
    };
    let mut factors = [F64s::splat(0.0); MAX_STACK_DIMS];
    let mut dfactors = [F64s::splat(0.0); MAX_STACK_DIMS];
    let gbase = offset + usize::from(with_value);
    let mut r = 0;
    while r < main {
        for (j, &p) in params.iter().enumerate() {
            let t = F64s::from_slice(&cols.col(j)[r..]);
            factors[j] = factor_lanes(kernel, t, p);
            dfactors[j] = dfactor_lanes(kernel, t, p);
        }
        if with_value {
            let mut acc = factors[0];
            for &f in &factors[1..d] {
                acc = acc * f;
            }
            for (l, v) in acc.to_array().iter().enumerate() {
                out[(r + l) * width + offset] = *v;
            }
        }
        for i in 0..d {
            let mut acc = dfactors[i];
            for (j, &f) in factors[..d].iter().enumerate() {
                if j != i {
                    acc = acc * f;
                }
            }
            for (l, v) in acc.to_array().iter().enumerate() {
                out[(r + l) * width + gbase + i] = *v;
            }
        }
        r += LANES;
    }
    // Scalar tail (and the d > MAX_STACK_DIMS whole-range fallback):
    // evaluate the scalar twins per dimension, then form the value and
    // gradient products in the vector path's exact order. `point` holds
    // the row's factors, `grad` its derivative factors.
    for r in main..n {
        for (j, &p) in params.iter().enumerate() {
            let t = cols.col(j)[r];
            point[j] = factor_scalar(kernel, t, p);
            grad[j] = dfactor_scalar(kernel, t, p);
        }
        let base = r * width;
        if with_value {
            let mut acc = point[0];
            for &f in &point[1..d] {
                acc *= f;
            }
            out[base + offset] = acc;
        }
        for i in 0..d {
            let mut acc = grad[i];
            for (j, &f) in point[..d].iter().enumerate() {
                if j != i {
                    acc *= f;
                }
            }
            out[base + gbase + i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::{Backend, Device};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KERNELS: [KernelFn; 2] = [KernelFn::Gaussian, KernelFn::Epanechnikov];

    fn sample_rows(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.gen_range(-1.0..2.0)).collect()
    }

    /// Asserts the pre-scaled sweep result agrees with the reference
    /// kernels' division form: exact zeros must match exactly (support
    /// tests are value-preserving), everything else to ~1 ulp per
    /// factor.
    fn assert_close(got: f64, want: f64, ctx: &str) {
        if want == 0.0 {
            assert_eq!(got, want, "{ctx}: expected exact zero");
        } else {
            let tol = 1e-12 * want.abs().max(got.abs()).max(1.0);
            assert!((got - want).abs() <= tol, "{ctx}: {got} vs {want}");
        }
    }

    /// Runs `f` against the full-sample ColsView of a staged sample.
    fn with_cols<R: Send>(rows: &[f64], d: usize, f: impl Fn(ColsView<'_>) -> R + Sync) -> R {
        let device = Device::new(Backend::CpuSeq);
        let staged = device.stage_rows_soa(rows, d);
        let cell = std::sync::Mutex::new(None);
        let n = staged.rows();
        // sweep_multi hands the callback block-sized windows; use a
        // 1-wide sweep only to borrow its view plumbing when the sample
        // fits one block, else construct via the public sweep API per
        // block — tests below keep n within one block.
        assert!(n <= kdesel_device::SWEEP_BLOCK_ROWS);
        let _ = device.sweep_multi(&staged, 1, 1.0, |view, _out| {
            *cell.lock().unwrap() = Some(f(view));
        });
        cell.into_inner().unwrap().unwrap()
    }

    #[test]
    fn contributions_match_scalar_reference_including_tail() {
        for kernel in KERNELS {
            for (n, d) in [(1, 3), (LANES, 2), (LANES * 5 + 3, 4), (97, 1)] {
                let rows = sample_rows(n, d, 7 + n as u64);
                let lo = vec![-0.25; d];
                let hi: Vec<f64> = (0..d).map(|j| 0.3 + 0.2 * j as f64).collect();
                let bw: Vec<f64> = (0..d).map(|j| 0.2 + 0.1 * j as f64).collect();
                let got = with_cols(&rows, d, |view| {
                    let mut out = vec![0.0; n];
                    contributions_into(kernel, &view, &lo, &hi, &bw, &mut out);
                    out
                });
                // Vector groups and scalar tail must agree with the
                // sweep's own scalar formulation bitwise...
                let twin: Vec<f64> = rows
                    .chunks_exact(d)
                    .map(|row| {
                        let mut p = 1.0;
                        for j in 0..d {
                            let dp = DimParams::new(kernel, lo[j], hi[j], bw[j]);
                            p *= factor_scalar(kernel, row[j], dp);
                            if p == 0.0 {
                                return 0.0;
                            }
                        }
                        p
                    })
                    .collect();
                assert_eq!(got, twin, "{} n={n} d={d}", kernel.name());
                // ...and with the reference kernels to ~1 ulp.
                for (r, row) in rows.chunks_exact(d).enumerate() {
                    let want = kernel.contribution(row, &lo, &hi, &bw);
                    assert_close(
                        got[r],
                        want,
                        &format!("{} n={n} d={d} r={r}", kernel.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn strided_contributions_match_contiguous_bitwise() {
        let (n, d, width) = (LANES * 3 + 5, 3, 4);
        let rows = sample_rows(n, d, 11);
        let lo = [-0.5, 0.0, 0.1];
        let hi = [0.5, 0.9, 1.4];
        let bw = [0.3, 0.25, 0.4];
        for kernel in KERNELS {
            let (strided, contiguous) = with_cols(&rows, d, |view| {
                let mut strided = vec![f64::NAN; n * width];
                for q in 0..width {
                    contributions_strided_into(
                        kernel,
                        &view,
                        &lo,
                        &hi,
                        &bw,
                        &mut strided,
                        width,
                        q,
                    );
                }
                let mut contiguous = vec![0.0; n];
                contributions_into(kernel, &view, &lo, &hi, &bw, &mut contiguous);
                (strided, contiguous)
            });
            for (r, row) in rows.chunks_exact(d).enumerate() {
                let want = kernel.contribution(row, &lo, &hi, &bw);
                assert_close(contiguous[r], want, &format!("{} r={r}", kernel.name()));
                for q in 0..width {
                    // Every stride offset must reproduce the contiguous
                    // sweep exactly — the batch paths rely on it.
                    assert_eq!(
                        strided[r * width + q].to_bits(),
                        contiguous[r].to_bits(),
                        "{} r={r} q={q}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_sweep_matches_scalar_reference() {
        for kernel in KERNELS {
            for (n, d) in [(LANES * 4 + 6, 3), (LANES - 1, 5), (200, 2)] {
                let rows = sample_rows(n, d, 23 + d as u64);
                // Epanechnikov's compact support makes exact-zero factors
                // common with these bounds, exercising the ±0.0 cases.
                let lo: Vec<f64> = (0..d).map(|j| -0.2 + 0.1 * j as f64).collect();
                let hi: Vec<f64> = (0..d).map(|j| 0.4 + 0.1 * j as f64).collect();
                let bw = vec![0.21; d];
                let width = 1 + d;
                let (fused, grads_only, values) = with_cols(&rows, d, |view| {
                    let mut fused = vec![f64::NAN; n * width];
                    fused_strided_into(kernel, &view, &lo, &hi, &bw, &mut fused, width, 0, true);
                    let mut grads_only = vec![f64::NAN; n * d];
                    fused_strided_into(kernel, &view, &lo, &hi, &bw, &mut grads_only, d, 0, false);
                    let mut values = vec![0.0; n];
                    contributions_into(kernel, &view, &lo, &hi, &bw, &mut values);
                    (fused, grads_only, values)
                });
                let mut grad = vec![0.0; d];
                for (r, row) in rows.chunks_exact(d).enumerate() {
                    // The fused value column is the estimate sweep's
                    // contribution, bitwise — the §5.5 fusion pin.
                    assert_eq!(
                        fused[r * width].to_bits(),
                        values[r].to_bits(),
                        "{} r={r}",
                        kernel.name()
                    );
                    // Fused and unfused gradients are bitwise equal.
                    assert_eq!(
                        &fused[r * width + 1..][..d],
                        &grads_only[r * d..][..d],
                        "{} unfused r={r}",
                        kernel.name()
                    );
                    // Both agree with the reference kernels to ~1 ulp.
                    let value = kernel.contribution_with_gradient(row, &lo, &hi, &bw, &mut grad);
                    assert_close(fused[r * width], value, &format!("{} r={r}", kernel.name()));
                    for i in 0..d {
                        assert_close(
                            fused[r * width + 1 + i],
                            grad[i],
                            &format!("{} r={r} grad {i}", kernel.name()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn high_dimensional_fallback_matches_scalar() {
        // d > MAX_STACK_DIMS exercises the heap-scratch scalar path.
        let d = MAX_STACK_DIMS + 1;
        let n = LANES + 3;
        let rows = sample_rows(n, d, 31);
        let lo = vec![-0.4; d];
        let hi = vec![0.6; d];
        let bw = vec![0.5; d];
        let kernel = KernelFn::Gaussian;
        let width = 1 + d;
        let fused = with_cols(&rows, d, |view| {
            let mut out = vec![f64::NAN; n * width];
            fused_strided_into(kernel, &view, &lo, &hi, &bw, &mut out, width, 0, true);
            out
        });
        let mut grad = vec![0.0; d];
        for (r, row) in rows.chunks_exact(d).enumerate() {
            let value = kernel.contribution_with_gradient(row, &lo, &hi, &bw, &mut grad);
            assert_close(fused[r * width], value, &format!("r={r}"));
            for i in 0..d {
                assert_close(
                    fused[r * width + 1 + i],
                    grad[i],
                    &format!("r={r} grad {i}"),
                );
            }
        }
    }

    #[test]
    fn infinite_bounds_stay_finite_in_vector_path() {
        // Unbounded predicates (lo = −∞) hit the guarded Gaussian dh term.
        let (n, d) = (LANES * 2, 2);
        let rows = sample_rows(n, d, 41);
        let lo = [f64::NEG_INFINITY, 0.0];
        let hi = [0.5, f64::INFINITY];
        let bw = [0.3, 0.4];
        let kernel = KernelFn::Gaussian;
        let fused = with_cols(&rows, d, |view| {
            let mut out = vec![f64::NAN; n * (1 + d)];
            fused_strided_into(kernel, &view, &lo, &hi, &bw, &mut out, 1 + d, 0, true);
            out
        });
        let mut grad = vec![0.0; d];
        for (r, row) in rows.chunks_exact(d).enumerate() {
            let value = kernel.contribution_with_gradient(row, &lo, &hi, &bw, &mut grad);
            assert_close(fused[r * (1 + d)], value, &format!("r={r}"));
            for i in 0..d {
                assert_close(
                    fused[r * (1 + d) + 1 + i],
                    grad[i],
                    &format!("r={r} grad {i}"),
                );
            }
            assert!(fused[r * (1 + d)..][..1 + d].iter().all(|v| v.is_finite()));
        }
    }
}
