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
//! dimension per query per launch ([`Plan::fill`], before the device
//! fans the sweep out), and the inner loops multiply. Division has a
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
//! calls), and the difference stays inside the same 1e-12 band. A
//! factor's two `erf`s, and a derivative's two `exp`s, run as one
//! interleaved pair (`F64s::erf_pair`, `F64s::exp_pair`), whose lanes
//! are bitwise those of two single packs.
//!
//! # Dictionary-coded columns
//!
//! A staged column with few distinct values (at most one per
//! [`kdesel_device::DICT_ROWS_PER_VALUE`] rows) carries a dictionary:
//! its distinct values and one `u16` code per row. For such a column
//! [`Plan::fill`] evaluates the range factor (and, for the gradient
//! sweeps, its bandwidth derivative) once per distinct value per query,
//! with the same lane functions a row would run, and the block kernels
//! read each row's factor from that table by its code. Plain columns
//! are evaluated on the stripe as before, and every product still runs
//! in ascending-dimension order. Which way a column is read depends on
//! its data alone.
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
//!   reassociates or fuses, and `F64s::erf_pair`/`F64s::exp_pair` and
//!   the tails' `simd::erf`/`simd::exp` are one generic lane-function
//!   source.
//! * A table entry is [`factor_lanes`]/[`dfactor_lanes`] (or, on the
//!   table's tail, their scalar twins) of the distinct value with the
//!   query's [`DimParams`], and a value's code reproduces its bits
//!   exactly (the dictionary keys values by bits, so `-0.0` and `+0.0`
//!   are separate entries). A factor read by code is therefore the
//!   factor the row's own lane would have computed, bit for bit.
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
use kdesel_device::{ColsView, SoaBuffer};
use kdesel_math::simd::{self, F64s, LANES};
use kdesel_math::{SQRT_2, SQRT_PI};
use kdesel_types::Rect;

/// Largest dimensionality served by the stack-scratch vector path;
/// matches the scalar kernels' stack-factor limit. Beyond it the sweep
/// falls back to the scalar tail helpers (heap scratch).
const MAX_STACK_DIMS: usize = 32;

/// Per-dimension sweep constants, computed once per query per launch so
/// the per-point loops are division-free.
#[derive(Clone, Copy)]
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
            let [e_hi, e_lo] = F64s::erf_pair([
                (F64s::splat(p.hi) - t) * p.inv,
                (F64s::splat(p.lo) - t) * p.inv,
            ]);
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
            let (d_lo, d_hi) = (F64s::splat(p.lo) - t, F64s::splat(p.hi) - t);
            let [e_lo, e_hi] = F64s::exp_pair([-d_lo * d_lo * p.inv_2h2, -d_hi * d_hi * p.inv_2h2]);
            let t_lo = (d_lo * e_lo).zero_unless_within(d_lo, f64::MIN, f64::MAX);
            let t_hi = (d_hi * e_hi).zero_unless_within(d_hi, f64::MIN, f64::MAX);
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

/// Floats of one [`DimParams`] in a query record.
const PARAMS: usize = 5;

impl DimParams {
    fn store(self, out: &mut [f64]) {
        out[..PARAMS].copy_from_slice(&[self.lo, self.hi, self.inv, self.dnorm, self.inv_2h2]);
    }

    /// Dimension `j`'s parameters from a query record.
    #[inline(always)]
    fn load(record: &[f64], j: usize) -> Self {
        let p = &record[j * PARAMS..][..PARAMS];
        Self {
            lo: p[0],
            hi: p[1],
            inv: p[2],
            dnorm: p[3],
            inv_2h2: p[4],
        }
    }
}

/// The hoisted constants of one sweep launch, laid out by the sample's
/// dictionaries. Each query gets one record of `record` floats: every
/// dimension's [`DimParams`], then, for each dictionary-coded column in
/// ascending order, its range factor at every distinct value and, in a
/// gradient launch, its bandwidth derivative at every distinct value.
/// [`Plan::fill`] computes the records once per launch on the calling
/// thread, before the device fans the sweep out; the block kernels
/// ([`values_into`], [`fused_into`]) read them.
pub(crate) struct Plan<'a> {
    kernel: KernelFn,
    sample: &'a SoaBuffer,
    /// Whether records carry derivative tables (the gradient sweeps).
    gradient: bool,
    /// Dictionary-coded columns, and their distinct values in total.
    coded: usize,
    entries: usize,
    /// Floats per query record.
    record: usize,
}

impl<'a> Plan<'a> {
    pub(crate) fn new(kernel: KernelFn, sample: &'a SoaBuffer, gradient: bool) -> Self {
        let dicts = (0..sample.dims()).filter_map(|j| sample.dict(j));
        let (coded, entries) = dicts.fold((0, 0), |(c, e), dict| (c + 1, e + dict.values.len()));
        Self {
            kernel,
            sample,
            gradient,
            coded,
            entries,
            record: sample.dims() * PARAMS + entries * (1 + usize::from(gradient)),
        }
    }

    /// Floats of constants a launch over `queries` queries needs.
    pub(crate) fn len(&self, queries: usize) -> usize {
        self.record * queries
    }

    /// Writes one record per region, at `bandwidth`, into `consts`
    /// (`len(regions.len())` floats). Each table entry is the lane
    /// function the sweep would have run on a row holding that value,
    /// so reading it by code moves no bit.
    pub(crate) fn fill(&self, consts: &mut [f64], regions: &[Rect], bandwidth: &[f64]) {
        debug_assert_eq!(consts.len(), self.len(regions.len()));
        let kernel = self.kernel;
        let d = self.sample.dims();
        for (record, region) in consts.chunks_exact_mut(self.record).zip(regions) {
            let (params, mut tables) = record.split_at_mut(d * PARAMS);
            for j in 0..d {
                let p = DimParams::new(kernel, region.lo()[j], region.hi()[j], bandwidth[j]);
                p.store(&mut params[j * PARAMS..]);
                let Some(dict) = self.sample.dict(j) else {
                    continue;
                };
                let n = dict.values.len();
                let (factors, rest) = std::mem::take(&mut tables).split_at_mut(n);
                tabulate(
                    dict.values,
                    factors,
                    |t| factor_lanes(kernel, t, p),
                    |t| factor_scalar(kernel, t, p),
                );
                tables = rest;
                if self.gradient {
                    let (dfactors, rest) = std::mem::take(&mut tables).split_at_mut(n);
                    tabulate(
                        dict.values,
                        dfactors,
                        |t| dfactor_lanes(kernel, t, p),
                        |t| dfactor_scalar(kernel, t, p),
                    );
                    tables = rest;
                }
            }
        }
    }

    /// Claimed FLOPs per sample row of a launch over `queries` queries,
    /// for its `Launch::flops`: per query, a plain column's kernel factor
    /// (and derivative) on every row, a coded column's one read per row
    /// per table plus its tables' factor evaluations, and in a gradient
    /// launch the `d²` products of eq. 16.
    pub(crate) fn flops_per_row(&self, queries: usize) -> f64 {
        let d = self.sample.dims();
        let per_factor = self.kernel.flops_per_factor();
        let plain = d - self.coded;
        let rows = self.sample.rows() as f64;
        let per_query = if self.gradient {
            per_factor * (plain * 2) as f64
                + (d * d) as f64
                + (self.coded * 2) as f64
                + per_factor * (self.entries * 2) as f64 / rows
        } else {
            per_factor * plain as f64 + self.coded as f64 + per_factor * self.entries as f64 / rows
        };
        per_query * queries as f64
    }

    /// Where each dimension of the query whose record is `record` reads
    /// its factors in the window `cols`, in dimension order.
    fn sources<'c>(
        &self,
        cols: ColsView<'c>,
        record: &'c [f64],
    ) -> impl Iterator<Item = Source<'c>> + 'c {
        let gradient = self.gradient;
        let mut tables = &record[cols.dims() * PARAMS..];
        (0..cols.dims()).map(move |j| match cols.dict(j) {
            Some(dict) => {
                let n = dict.values.len();
                let (factors, rest) = tables.split_at(n);
                let (dfactors, rest) = rest.split_at(if gradient { n } else { 0 });
                tables = rest;
                Source::Table {
                    codes: dict.codes,
                    factors,
                    dfactors,
                }
            }
            None => Source::Stripe(cols.col(j), DimParams::load(record, j)),
        })
    }
}

/// `out[i] = f(values[i])`, by lane groups with the scalar twin on the
/// tail.
fn tabulate(
    values: &[f64],
    out: &mut [f64],
    lanes: impl Fn(F64s) -> F64s,
    scalar: impl Fn(f64) -> f64,
) {
    let main = values.len() - values.len() % LANES;
    for (v, o) in values[..main]
        .chunks_exact(LANES)
        .zip(out.chunks_exact_mut(LANES))
    {
        lanes(F64s::from_slice(v)).write_to(o);
    }
    for (&v, o) in values[main..].iter().zip(&mut out[main..]) {
        *o = scalar(v);
    }
}

/// Where one dimension of one query reads its factors in a sweep
/// window.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Evaluate the kernel on the stripe.
    Stripe(&'a [f64], DimParams),
    /// Read the query's factor (and derivative) tables by code.
    Table {
        codes: &'a [u16],
        factors: &'a [f64],
        dfactors: &'a [f64],
    },
}

impl Source<'_> {
    const EMPTY: Source<'static> = Source::Table {
        codes: &[],
        factors: &[],
        dfactors: &[],
    };
}

/// `table[codes[l]]` for each of the first [`LANES`] codes.
#[inline(always)]
fn gather(table: &[f64], codes: &[u16]) -> F64s {
    let mut lanes = [0.0; LANES];
    for (lane, &code) in lanes.iter_mut().zip(&codes[..LANES]) {
        *lane = table[usize::from(code)];
    }
    F64s::from_array(lanes)
}

/// The range factors of rows `r..r + LANES`.
#[inline(always)]
fn factor_group(kernel: KernelFn, source: Source<'_>, r: usize) -> F64s {
    match source {
        Source::Stripe(col, p) => factor_lanes(kernel, F64s::from_slice(&col[r..]), p),
        Source::Table { codes, factors, .. } => gather(factors, &codes[r..]),
    }
}

/// The range factors and bandwidth derivatives of rows `r..r + LANES`.
#[inline(always)]
fn factor_pair_group(kernel: KernelFn, source: Source<'_>, r: usize) -> (F64s, F64s) {
    match source {
        Source::Stripe(col, p) => {
            let t = F64s::from_slice(&col[r..]);
            (factor_lanes(kernel, t, p), dfactor_lanes(kernel, t, p))
        }
        Source::Table {
            codes,
            factors,
            dfactors,
        } => (gather(factors, &codes[r..]), gather(dfactors, &codes[r..])),
    }
}

/// Scalar-tail contribution of row `r`, reading the stripes — the
/// per-lane operation sequence of the vector sweep, with the scalar
/// early exit on an exact-zero partial product (equivalent because
/// factors are `≥ +0.0`; see the module notes).
#[inline]
fn contribution_at(kernel: KernelFn, cols: &ColsView<'_>, record: &[f64], r: usize) -> f64 {
    let mut p = 1.0;
    for j in 0..cols.dims() {
        p *= factor_scalar(kernel, cols.col(j)[r], DimParams::load(record, j));
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

/// Initializes (`first`) or multiplies into `out[..main]` one
/// dimension's factors, [`LANES`] rows at a time.
#[inline(always)]
fn fold_column(kernel: KernelFn, source: Source<'_>, first: bool, main: usize, out: &mut [f64]) {
    if first {
        for r in (0..main).step_by(LANES) {
            factor_group(kernel, source, r).write_to(&mut out[r..]);
        }
    } else {
        for r in (0..main).step_by(LANES) {
            (F64s::from_slice(&out[r..]) * factor_group(kernel, source, r)).write_to(&mut out[r..]);
        }
    }
}

/// A kernel fixed at compile time. The block kernels are instantiated
/// once per kernel, so each of their loops carries one kernel's
/// arithmetic and tests no kernel per lane group: with the kernel a
/// runtime value, the one-query Epanechnikov sweep kept that test in its
/// loop and ran about 1.3x slower (16,384 rows, 8D, one thread).
trait FixedKernel {
    const KERNEL: KernelFn;
}

struct Gaussian;
struct Epanechnikov;

impl FixedKernel for Gaussian {
    const KERNEL: KernelFn = KernelFn::Gaussian;
}

impl FixedKernel for Epanechnikov {
    const KERNEL: KernelFn = KernelFn::Epanechnikov;
}

/// Writes every query's per-point contributions (eq. 13) for the rows
/// of one window: with `B` queries in the launch, query `q`'s lands at
/// `out[r·B + q]`, so the device's column reduction returns all `B`
/// sums at once (`B = 1` is the plain estimate's contiguous output).
///
/// Vector path: each dimension's factors come from its [`Source`] and
/// multiply in ascending-dimension order. One query streams dimension
/// by dimension, initializing then multiplying into its contiguous
/// output; a batch goes [`LANES`]-row group by group, keeping each
/// group's product in a register and scattering it to the query's
/// column. The scalar tail (and the `d >` [`MAX_STACK_DIMS`] fallback)
/// evaluates the stripes row by row with the scalar twins.
pub(crate) fn values_into(plan: &Plan<'_>, consts: &[f64], cols: &ColsView<'_>, out: &mut [f64]) {
    match plan.kernel {
        KernelFn::Gaussian => values_block::<Gaussian>(plan, consts, cols, out),
        KernelFn::Epanechnikov => values_block::<Epanechnikov>(plan, consts, cols, out),
    }
}

fn values_block<K: FixedKernel>(
    plan: &Plan<'_>,
    consts: &[f64],
    cols: &ColsView<'_>,
    out: &mut [f64],
) {
    let (n, d) = (cols.rows(), cols.dims());
    let b = consts.len() / plan.record;
    debug_assert_eq!(out.len(), n * b);
    let kernel = K::KERNEL;
    let main = if d <= MAX_STACK_DIMS {
        n - n % LANES
    } else {
        0
    };
    if b == 1 {
        if main > 0 {
            for (j, source) in plan.sources(*cols, consts).enumerate() {
                fold_column(kernel, source, j == 0, main, out);
            }
        }
        for (r, slot) in out.iter_mut().enumerate().skip(main) {
            *slot = contribution_at(kernel, cols, consts, r);
        }
        return;
    }
    let mut sources = [Source::EMPTY; MAX_STACK_DIMS];
    for (q, record) in consts.chunks_exact(plan.record).enumerate() {
        if main > 0 {
            let sources = &mut sources[..d];
            for (slot, source) in sources.iter_mut().zip(plan.sources(*cols, record)) {
                *slot = source;
            }
            for r in (0..main).step_by(LANES) {
                let mut acc = factor_group(kernel, sources[0], r);
                for &s in &sources[1..] {
                    acc = acc * factor_group(kernel, s, r);
                }
                for (l, v) in acc.to_array().iter().enumerate() {
                    out[(r + l) * b + q] = *v;
                }
            }
        }
        for r in main..n {
            out[r * b + q] = contribution_at(kernel, cols, record, r);
        }
    }
}

/// Fused value + bandwidth gradient of every query for the rows of one
/// window: with `B` queries, query `q`'s value lands at
/// `out[r·W + q·(1+d)]` and its gradient at the `d` columns after it
/// (the §5.5 factor-sharing layout), `W = B·(1+d)`. With
/// `with_value == false` the value columns are omitted and query `q`'s
/// gradient starts at `q·d` — the unfused
/// [`KernelFn::contribution_gradient`] shape.
///
/// Vector path: per [`LANES`]-row group, all `d` factors and `d`
/// derivative factors are read or computed once into stack scratch,
/// then the value product and the `d` gradient products are formed in
/// ascending-dimension order. The scalar tail repeats the identical
/// sequence per row via the scalar twins.
pub(crate) fn fused_into(
    plan: &Plan<'_>,
    consts: &[f64],
    cols: &ColsView<'_>,
    out: &mut [f64],
    with_value: bool,
) {
    match plan.kernel {
        KernelFn::Gaussian => fused_block::<Gaussian>(plan, consts, cols, out, with_value),
        KernelFn::Epanechnikov => {
            fused_block::<Epanechnikov>(plan, consts, cols, out, with_value);
        }
    }
}

fn fused_block<K: FixedKernel>(
    plan: &Plan<'_>,
    consts: &[f64],
    cols: &ColsView<'_>,
    out: &mut [f64],
    with_value: bool,
) {
    debug_assert!(plan.gradient, "a fused sweep reads derivative tables");
    let (n, d) = (cols.rows(), cols.dims());
    let b = consts.len() / plan.record;
    let per_query = d + usize::from(with_value);
    let width = b * per_query;
    debug_assert_eq!(out.len(), n * width);
    let kernel = K::KERNEL;
    let main = if d <= MAX_STACK_DIMS {
        n - n % LANES
    } else {
        0
    };
    let mut sources = [Source::EMPTY; MAX_STACK_DIMS];
    let mut factors = [F64s::splat(0.0); MAX_STACK_DIMS];
    let mut dfactors = [F64s::splat(0.0); MAX_STACK_DIMS];
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
    for (q, record) in consts.chunks_exact(plan.record).enumerate() {
        let offset = q * per_query;
        let gbase = offset + usize::from(with_value);
        let mut r = 0;
        if main > 0 {
            let sources = &mut sources[..d];
            for (slot, source) in sources.iter_mut().zip(plan.sources(*cols, record)) {
                *slot = source;
            }
            while r < main {
                for (j, &s) in sources.iter().enumerate() {
                    (factors[j], dfactors[j]) = factor_pair_group(kernel, s, r);
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
        }
        // Scalar tail (and the d > MAX_STACK_DIMS whole-range fallback):
        // evaluate the scalar twins per dimension, then form the value
        // and gradient products in the vector path's exact order. `point`
        // holds the row's factors, `grad` its derivative factors.
        for r in r..n {
            for j in 0..d {
                let (t, p) = (cols.col(j)[r], DimParams::load(record, j));
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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Which kernel a test sweep runs: the values kernel, or the fused
    /// kernel with or without its value columns.
    #[derive(Clone, Copy)]
    enum Sweep {
        Values,
        Fused,
        Gradient,
    }

    impl Sweep {
        fn per_query(self, d: usize) -> usize {
            match self {
                Sweep::Values => 1,
                Sweep::Fused => 1 + d,
                Sweep::Gradient => d,
            }
        }
    }

    /// Stages `rows` on a CpuSeq device, hoists the constants of
    /// `regions` at `bw` and runs `sweep` over the whole sample as one
    /// window (`rows` fit one block), returning the `n × B·w` output.
    fn run(
        kernel: KernelFn,
        rows: &[f64],
        d: usize,
        regions: &[Rect],
        bw: &[f64],
        sweep: Sweep,
    ) -> Vec<f64> {
        let device = Device::new(Backend::CpuSeq);
        let staged = device.stage_rows_soa(rows, d);
        run_staged(&device, &staged, kernel, regions, bw, sweep)
    }

    fn run_staged(
        device: &Device,
        staged: &SoaBuffer,
        kernel: KernelFn,
        regions: &[Rect],
        bw: &[f64],
        sweep: Sweep,
    ) -> Vec<f64> {
        let n = staged.rows();
        assert!(n <= kdesel_device::SWEEP_BLOCK_ROWS);
        let plan = Plan::new(kernel, staged, !matches!(sweep, Sweep::Values));
        let mut consts = vec![f64::NAN; plan.len(regions.len())];
        plan.fill(&mut consts, regions, bw);
        let width = regions.len() * sweep.per_query(staged.dims());
        let out = device.sweep_multi(staged, width, 1.0, |view, out| match sweep {
            Sweep::Values => values_into(&plan, &consts, &view, out),
            Sweep::Fused => fused_into(&plan, &consts, &view, out, true),
            Sweep::Gradient => fused_into(&plan, &consts, &view, out, false),
        });
        device.download(&out)
    }

    /// The per-row scalar twin of the sweeps: each row's factors and
    /// derivative factors by [`factor_scalar`]/[`dfactor_scalar`] from
    /// its own values, the value as the early-exit product and the
    /// gradient as eq. 16's products, all in ascending-dimension order.
    fn twin(kernel: KernelFn, row: &[f64], region: &Rect, bw: &[f64]) -> (f64, Vec<f64>) {
        let d = row.len();
        let params: Vec<DimParams> = (0..d)
            .map(|j| DimParams::new(kernel, region.lo()[j], region.hi()[j], bw[j]))
            .collect();
        let point: Vec<f64> = (0..d)
            .map(|j| factor_scalar(kernel, row[j], params[j]))
            .collect();
        let dpoint: Vec<f64> = (0..d)
            .map(|j| dfactor_scalar(kernel, row[j], params[j]))
            .collect();
        let mut value = 1.0;
        for &f in &point {
            value *= f;
            if value == 0.0 {
                break;
            }
        }
        let grad = (0..d)
            .map(|i| {
                let mut acc = dpoint[i];
                for (j, &f) in point.iter().enumerate() {
                    if j != i {
                        acc *= f;
                    }
                }
                acc
            })
            .collect();
        (value, grad)
    }

    /// Checks every output of every sweep kind over `regions` against
    /// the per-row twin, bit for bit.
    fn assert_sweeps_equal_twin(
        kernel: KernelFn,
        rows: &[f64],
        d: usize,
        regions: &[Rect],
        bw: &[f64],
    ) {
        let b = regions.len();
        let values = run(kernel, rows, d, regions, bw, Sweep::Values);
        let fused = run(kernel, rows, d, regions, bw, Sweep::Fused);
        let grads = run(kernel, rows, d, regions, bw, Sweep::Gradient);
        for (r, row) in rows.chunks_exact(d).enumerate() {
            for (q, region) in regions.iter().enumerate() {
                let (value, grad) = twin(kernel, row, region, bw);
                let ctx = format!("{} r={r} q={q}", kernel.name());
                assert_eq!(values[r * b + q].to_bits(), value.to_bits(), "{ctx} value");
                let f = &fused[(r * b + q) * (1 + d)..][..1 + d];
                assert_eq!(f[0].to_bits(), value.to_bits(), "{ctx} fused value");
                assert_eq!(bits(&f[1..]), bits(&grad), "{ctx} fused gradient");
                assert_eq!(
                    bits(&grads[(r * b + q) * d..][..d]),
                    bits(&grad),
                    "{ctx} gradient"
                );
            }
        }
    }

    #[test]
    fn contributions_match_scalar_reference_including_tail() {
        for kernel in KERNELS {
            for (n, d) in [(1, 3), (LANES, 2), (LANES * 5 + 3, 4), (97, 1)] {
                let rows = sample_rows(n, d, 7 + n as u64);
                let lo = vec![-0.25; d];
                let hi: Vec<f64> = (0..d).map(|j| 0.3 + 0.2 * j as f64).collect();
                let bw: Vec<f64> = (0..d).map(|j| 0.2 + 0.1 * j as f64).collect();
                let region = Rect::new(lo.clone(), hi.clone());
                // Vector groups and scalar tail must agree with the
                // sweep's own scalar formulation bitwise...
                assert_sweeps_equal_twin(kernel, &rows, d, std::slice::from_ref(&region), &bw);
                // ...and with the reference kernels to ~1 ulp.
                let got = run(kernel, &rows, d, &[region], &bw, Sweep::Values);
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
    fn batched_outputs_match_single_query_outputs_bitwise() {
        // Every query of a batched launch reproduces its own one-query
        // launch exactly — the batch paths rely on it.
        let (n, d) = (LANES * 3 + 5, 3);
        let rows = sample_rows(n, d, 11);
        let regions = [
            Rect::new(vec![-0.5, 0.0, 0.1], vec![0.5, 0.9, 1.4]),
            Rect::new(vec![0.0, -1.0, 0.5], vec![1.5, 0.2, 0.6]),
            Rect::new(vec![-2.0, 0.3, -0.2], vec![2.0, 0.4, 0.9]),
            Rect::new(vec![0.7, 0.7, 0.7], vec![1.9, 1.9, 1.9]),
        ];
        let bw = [0.3, 0.25, 0.4];
        let b = regions.len();
        for kernel in KERNELS {
            for sweep in [Sweep::Values, Sweep::Fused, Sweep::Gradient] {
                let w = sweep.per_query(d);
                let batched = run(kernel, &rows, d, &regions, &bw, sweep);
                for (q, region) in regions.iter().enumerate() {
                    let single = run(kernel, &rows, d, std::slice::from_ref(region), &bw, sweep);
                    for r in 0..n {
                        assert_eq!(
                            bits(&batched[(r * b + q) * w..][..w]),
                            bits(&single[r * w..][..w]),
                            "{} r={r} q={q} width {w}",
                            kernel.name()
                        );
                    }
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
                let region = Rect::new(lo.clone(), hi.clone());
                // The fused value column is the estimate sweep's
                // contribution and the fused and unfused gradients are
                // equal, bitwise — the §5.5 fusion pin.
                assert_sweeps_equal_twin(kernel, &rows, d, std::slice::from_ref(&region), &bw);
                // Both agree with the reference kernels to ~1 ulp.
                let fused = run(kernel, &rows, d, &[region], &bw, Sweep::Fused);
                let mut grad = vec![0.0; d];
                for (r, row) in rows.chunks_exact(d).enumerate() {
                    let value = kernel.contribution_with_gradient(row, &lo, &hi, &bw, &mut grad);
                    let width = 1 + d;
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
        let region = Rect::new(lo.clone(), hi.clone());
        assert_sweeps_equal_twin(kernel, &rows, d, std::slice::from_ref(&region), &bw);
        let width = 1 + d;
        let fused = run(kernel, &rows, d, &[region], &bw, Sweep::Fused);
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
        let region = Rect::new(lo.to_vec(), hi.to_vec());
        let fused = run(kernel, &rows, d, &[region], &bw, Sweep::Fused);
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

    /// A ragged sample whose columns 0, 2 and 3 are dictionary-coded:
    /// column 0 holds `±0.0`, `±1.0` and `2.5`, column 2 the integers
    /// `0..20`, column 3 `±0.0` and `5.0`; column 1 is continuous.
    fn coded_rows(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeros_ones = [0.0, -0.0, 1.0, -1.0, 2.5];
        (0..n)
            .flat_map(|_| {
                [
                    zeros_ones[rng.gen_range(0..zeros_ones.len())],
                    rng.gen_range(-1.0..2.0),
                    f64::from(rng.gen_range(0..20u8)),
                    [0.0, -0.0, 5.0][rng.gen_range(0..3)],
                ]
            })
            .collect()
    }

    #[test]
    fn dictionary_sweeps_match_the_per_row_twin_bitwise() {
        let d = 4;
        // Regions at every edge the tables must reproduce: signed zero
        // and zero-width bounds on the coded values, ±∞ bounds, bounds
        // far away (exact-zero factors) and an ordinary box.
        let regions = [
            Rect::new(vec![-0.0, 0.0, 3.0, -0.0], vec![0.0, 1.0, 3.0, 0.0]),
            Rect::new(
                vec![f64::NEG_INFINITY, -0.5, f64::NEG_INFINITY, 0.0],
                vec![1.0, f64::INFINITY, 7.5, f64::INFINITY],
            ),
            Rect::new(vec![2.5, 0.2, -90.0, 5.0], vec![2.5, 0.9, -80.0, 5.0]),
            Rect::new(vec![-1.5, -0.2, 4.0, -1.0], vec![1.5, 1.7, 15.0, 6.0]),
        ];
        for kernel in KERNELS {
            // Row counts off the lane width, within one sweep block.
            for n in [LANES * 40 + 5, 1021] {
                let rows = coded_rows(n, 5 + n as u64);
                let device = Device::new(Backend::CpuSeq);
                let staged = device.stage_rows_soa(&rows, d);
                let coded: Vec<bool> = (0..d).map(|j| staged.dict(j).is_some()).collect();
                assert_eq!(coded, [true, false, true, true], "n={n}");
                for bw in [[0.3, 0.2, 0.9, 0.5], [1e-3, 0.05, 2.0, 40.0]] {
                    assert_sweeps_equal_twin(kernel, &rows, d, &regions, &bw);
                }
            }
        }
    }

    #[test]
    fn tables_hold_the_lane_factor_of_each_distinct_value() {
        // The hoisted record: parameters first, then each coded column's
        // factor and derivative tables, each entry the twin's bits.
        let (n, d) = (LANES * 20 + 3, 4);
        let rows = coded_rows(n, 3);
        let device = Device::new(Backend::CpuSeq);
        let staged = device.stage_rows_soa(&rows, d);
        let region = Rect::new(vec![-0.1, 0.0, 2.0, -0.0], vec![1.2, 0.7, 9.0, 5.0]);
        let bw = [0.4, 0.3, 1.5, 0.8];
        for kernel in KERNELS {
            let plan = Plan::new(kernel, &staged, true);
            let mut record = vec![f64::NAN; plan.len(1)];
            plan.fill(&mut record, std::slice::from_ref(&region), &bw);
            let mut at = d * PARAMS;
            for (j, &h) in bw.iter().enumerate() {
                let p = DimParams::new(kernel, region.lo()[j], region.hi()[j], h);
                let Some(dict) = staged.dict(j) else {
                    continue;
                };
                let k = dict.values.len();
                let want: Vec<f64> = dict
                    .values
                    .iter()
                    .map(|&t| factor_scalar(kernel, t, p))
                    .collect();
                let dwant: Vec<f64> = dict
                    .values
                    .iter()
                    .map(|&t| dfactor_scalar(kernel, t, p))
                    .collect();
                assert_eq!(bits(&record[at..][..k]), bits(&want), "column {j}");
                assert_eq!(bits(&record[at + k..][..k]), bits(&dwant), "column {j}");
                at += 2 * k;
            }
            assert_eq!(at, record.len());
        }
    }

    #[test]
    fn dictionary_columns_claim_their_tables_and_one_read_per_row() {
        let (n, d) = (1000, 4);
        let rows = coded_rows(n, 9);
        let device = Device::new(Backend::CpuSeq);
        let staged = device.stage_rows_soa(&rows, d);
        let entries: usize = (0..d)
            .filter_map(|j| staged.dict(j))
            .map(|c| c.values.len())
            .sum();
        let plain = device.stage_rows_soa(&sample_rows(n, d, 1), d);
        for kernel in KERNELS {
            let f = kernel.flops_per_factor();
            let values = Plan::new(kernel, &staged, false).flops_per_row(3);
            let want = (f * 1.0 + 3.0 + f * entries as f64 / n as f64) * 3.0;
            assert!((values - want).abs() <= 1e-9 * want, "{values} vs {want}");
            let fused = Plan::new(kernel, &staged, true).flops_per_row(1);
            let want = f * 2.0 + 16.0 + 6.0 + f * (2 * entries) as f64 / n as f64;
            assert!((fused - want).abs() <= 1e-9 * want, "{fused} vs {want}");
            // With no coded column the claims are the plain sweeps' own.
            assert_eq!(
                Plan::new(kernel, &plain, false).flops_per_row(5),
                f * 4.0 * 5.0
            );
            assert_eq!(
                Plan::new(kernel, &plain, true).flops_per_row(1),
                f * 8.0 + 16.0
            );
        }
    }
}
