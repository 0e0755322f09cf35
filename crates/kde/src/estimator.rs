//! The device-resident KDE model.
//!
//! Mirrors the paper's implementation structure (Figure 3): the sample
//! lives in a device buffer; an estimate transfers the query bounds to the
//! device (1), computes per-point contributions in parallel (2), reduces
//! them (3), and returns the scalar (4). The contribution buffer is
//! *retained* until the next estimate so the Karma maintenance can reuse it
//! (§5.4: "we do not discard the temporary buffer that stores the
//! individual contributions until after the query returns").

use crate::bandwidth::scott::scott_bandwidth;
use crate::kernel::KernelFn;
use crate::loss::LossFunction;
use crate::sweep;
use kdesel_device::{Device, DeviceBuffer, SoaBuffer};
use kdesel_types::Rect;

/// The smallest bandwidth a model accepts: `2⁻⁵¹¹ = √f64::MIN_POSITIVE ≈
/// 1.49e-154`, the smallest `h` whose square is a normal `f64`. Below it
/// the Gaussian sweep's `1/(2h²)` and `1/(√2·√π·h²)` overflow and every
/// bandwidth gradient is NaN, which would stop a tuner without a trace.
pub const MIN_BANDWIDTH: f64 = f64::from_bits(512 << 52);

/// A kernel density model over a fixed-size data sample.
///
/// The device-resident sample uses the columnar (SoA) layout — one
/// contiguous stripe per dimension — so the estimate/gradient sweeps in
/// [`crate::sweep`] stream unit-stride memory and vectorize; results are
/// bit-identical to the row-major scalar path.
#[derive(Debug)]
pub struct KdeEstimator {
    device: Device,
    /// The sample staged on `device`, swept by every estimate and
    /// gradient.
    sample: SoaBuffer,
    /// Host mirror of the sample. The host produced the sample in the first
    /// place (ANALYZE), so the mirror costs no transfers; the batch/CV
    /// optimizers iterate over it without touching the device timing.
    host_sample: Vec<f64>,
    dims: usize,
    size: usize,
    kernel: KernelFn,
    bandwidth: Vec<f64>,
    /// Contributions of the most recent estimate, retained for maintenance.
    last_contributions: Option<DeviceBuffer>,
    /// Gradient produced by the most recent fused
    /// [`estimate_with_gradient`](Self::estimate_with_gradient) call,
    /// keyed by its query region; invalidated when the model changes.
    last_gradient: Option<(Rect, Vec<f64>)>,
    /// Latency histogram handle, resolved once (hot-path telemetry).
    estimate_seconds: std::sync::Arc<kdesel_telemetry::Histogram>,
}

impl KdeEstimator {
    /// Builds a model from a row-major sample, initializing the bandwidth
    /// with Scott's rule (the paper's §5.2 initialization).
    ///
    /// # Panics
    /// Panics on an empty or ragged sample.
    pub fn new(device: Device, sample: &[f64], dims: usize, kernel: KernelFn) -> Self {
        assert!(dims > 0, "zero-dimensional model");
        assert!(!sample.is_empty(), "empty sample");
        assert_eq!(sample.len() % dims, 0, "ragged sample");
        let staged = device.stage_rows_soa(sample, dims);
        let bandwidth = scott_bandwidth(sample, dims);
        Self {
            device,
            sample: staged,
            host_sample: sample.to_vec(),
            dims,
            size: sample.len() / dims,
            kernel,
            bandwidth,
            last_contributions: None,
            last_gradient: None,
            estimate_seconds: kdesel_telemetry::registry().histogram("kde.estimate_seconds"),
        }
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sample size `s` (the model size).
    pub fn sample_size(&self) -> usize {
        self.size
    }

    /// The kernel in use.
    pub fn kernel(&self) -> KernelFn {
        self.kernel
    }

    /// Current bandwidth vector (diagonal of `H`).
    pub fn bandwidth(&self) -> &[f64] {
        &self.bandwidth
    }

    /// Replaces the bandwidth.
    ///
    /// # Panics
    /// Panics unless every component is positive and finite (the constraint
    /// of optimization problem 5) and at least [`MIN_BANDWIDTH`].
    pub fn set_bandwidth(&mut self, bandwidth: Vec<f64>) {
        assert_eq!(bandwidth.len(), self.dims);
        assert!(
            bandwidth
                .iter()
                .all(|&h| h >= MIN_BANDWIDTH && h.is_finite()),
            "bandwidth must be positive and finite, at least {MIN_BANDWIDTH:e}: {bandwidth:?}"
        );
        self.bandwidth = bandwidth;
        self.last_gradient = None;
    }

    /// The device this model's sample is staged on. Bounds uploads,
    /// result readbacks, retained contributions, and the Karma ledger
    /// all live here.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Host view of the sample (row-major).
    pub fn host_sample(&self) -> &[f64] {
        &self.host_sample
    }

    /// One sample point.
    pub fn sample_point(&self, index: usize) -> &[f64] {
        &self.host_sample[index * self.dims..(index + 1) * self.dims]
    }

    /// Estimates the selectivity of `region` (paper eq. 2 with eq. 13).
    ///
    /// Fused hot path: one launch computes the per-point contributions and
    /// tree-reduces them in place; only the query bounds go up and the
    /// scalar estimate comes down. The contribution buffer stays
    /// device-resident for later maintenance use (§5.4).
    pub fn estimate(&mut self, region: &Rect) -> f64 {
        assert_eq!(region.dims(), self.dims, "query dimensionality mismatch");
        let _span = self.estimate_seconds.span();
        // (1) Transfer the query bounds.
        let mut bounds = Vec::with_capacity(2 * self.dims);
        bounds.extend_from_slice(region.lo());
        bounds.extend_from_slice(region.hi());
        let _bounds_buf = self.device.upload(&bounds);
        // Return the previous retained buffer to the pool *before* the
        // sweep acquires its replacement, so steady-state loops recycle
        // the same storage instead of missing the pool every round.
        self.last_contributions = None;
        // (2)+(3)+(4) Map, reduce, and download the scalar — one kernel.
        let regions = std::slice::from_ref(region);
        let (sum, contributions) =
            self.with_plan(&self.bandwidth, regions, false, |plan, consts| {
                self.device
                    .sweep_reduce(&self.sample, plan.flops_per_row(1), true, |view, out| {
                        sweep::values_into(plan, consts, &view, out);
                    })
            });
        self.last_contributions = contributions;
        (sum / self.size as f64).clamp(0.0, 1.0)
    }

    /// Fused estimate + bandwidth gradient (§5.5): one launch produces
    /// both `p̂_H(Ω)` and `∂p̂_H(Ω)/∂h`, sharing the per-dimension kernel
    /// factors between the two outputs (eq. 16). Bit-identical to calling
    /// [`estimate`](Self::estimate) and
    /// [`estimator_gradient`](Self::estimator_gradient) separately, in
    /// half the sample sweeps. Retains the contribution buffer exactly as
    /// `estimate` does and caches the gradient for
    /// [`cached_gradient`](Self::cached_gradient), so a feedback-driven
    /// tuner pays no second sweep.
    pub fn estimate_with_gradient(&mut self, region: &Rect) -> (f64, Vec<f64>) {
        assert_eq!(region.dims(), self.dims, "query dimensionality mismatch");
        let _span = self.estimate_seconds.span();
        let mut bounds = Vec::with_capacity(2 * self.dims);
        bounds.extend_from_slice(region.lo());
        bounds.extend_from_slice(region.hi());
        let _bounds_buf = self.device.upload(&bounds);
        // As in `estimate`: recycle the stale retained buffer first.
        self.last_contributions = None;
        let regions = std::slice::from_ref(region);
        let (sums, contributions) =
            self.with_plan(&self.bandwidth, regions, true, |plan, consts| {
                let flops = plan.flops_per_row(1);
                self.device.sweep_multi_reduce(
                    &self.sample,
                    1 + self.dims,
                    flops,
                    true,
                    |view, out| {
                        sweep::fused_into(plan, consts, &view, out, true);
                    },
                )
            });
        self.last_contributions = contributions;
        let estimate = (sums[0] / self.size as f64).clamp(0.0, 1.0);
        let inv_s = 1.0 / self.size as f64;
        let grad: Vec<f64> = sums[1..].iter().map(|g| g * inv_s).collect();
        self.last_gradient = Some((region.clone(), grad.clone()));
        (estimate, grad)
    }

    /// The estimator gradient cached by the most recent
    /// [`estimate_with_gradient`](Self::estimate_with_gradient) call, if
    /// it was for the same `region` and the model has not changed since
    /// (a bandwidth update or sample-point replacement invalidates it).
    pub fn cached_gradient(&self, region: &Rect) -> Option<&[f64]> {
        match &self.last_gradient {
            Some((r, g)) if r == region => Some(g),
            _ => None,
        }
    }

    /// Estimates the selectivity of every region in one fused launch: the
    /// query bounds travel in a single upload, the sample is traversed
    /// once for all `B` queries, and one `B`-scalar download returns the
    /// sums. Each estimate is bit-identical to a separate
    /// [`estimate`](Self::estimate) call. Does not retain contributions —
    /// the batched path serves optimizers and bulk evaluation, not the
    /// per-query Karma feedback loop.
    pub fn estimate_batch(&self, regions: &[Rect]) -> Vec<f64> {
        if regions.is_empty() {
            return Vec::new();
        }
        for r in regions {
            assert_eq!(r.dims(), self.dims, "query dimensionality mismatch");
        }
        let _span = self.estimate_seconds.span();
        let _bounds_buf = self.stage_bounds(regions);
        let b = regions.len();
        let sums = self.with_plan(&self.bandwidth, regions, false, |plan, consts| {
            self.device
                .sweep_batch(&self.sample, b, plan.flops_per_row(b), |view, out| {
                    sweep::values_into(plan, consts, &view, out);
                })
        });
        sums.iter()
            .map(|sum| (sum / self.size as f64).clamp(0.0, 1.0))
            .collect()
    }

    /// Uploads a workload's query bounds in one transfer — the staging
    /// step for repeated
    /// [`estimate_batch_with_gradients_at`](Self::estimate_batch_with_gradients_at)
    /// calls, whose bounds never change across solver iterations.
    pub fn stage_bounds(&self, regions: &[Rect]) -> DeviceBuffer {
        let mut bounds = Vec::with_capacity(2 * self.dims * regions.len());
        for r in regions {
            bounds.extend_from_slice(r.lo());
            bounds.extend_from_slice(r.hi());
        }
        self.device.upload(&bounds)
    }

    /// Batched objective evaluation for the bandwidth optimizers: one
    /// fused launch evaluates — at the *candidate* bandwidth `bandwidth`,
    /// not the model's current one — the estimate and its bandwidth
    /// gradient for every region, sharing each per-dimension kernel
    /// factor between the two outputs (eq. 16). Only the candidate
    /// bandwidth crosses PCIe per call (stage the bounds once with
    /// [`stage_bounds`](Self::stage_bounds)), and one `B·(1+d)`-scalar
    /// download returns the reduced sums — so a solver iteration costs
    /// O(1) kernel launches regardless of the workload size. Each
    /// per-query result is bit-identical to what
    /// [`estimate`](Self::estimate) /
    /// [`estimator_gradient`](Self::estimator_gradient) would return with
    /// the model's bandwidth set to `bandwidth`.
    pub fn estimate_batch_with_gradients_at(
        &self,
        bandwidth: &[f64],
        regions: &[Rect],
    ) -> Vec<(f64, Vec<f64>)> {
        assert_eq!(bandwidth.len(), self.dims);
        if regions.is_empty() {
            return Vec::new();
        }
        for r in regions {
            assert_eq!(r.dims(), self.dims, "query dimensionality mismatch");
        }
        let _h_buf = self.device.upload(bandwidth);
        let b = regions.len();
        let width = 1 + self.dims;
        let (sums, _) = self.with_plan(bandwidth, regions, true, |plan, consts| {
            let flops = plan.flops_per_row(b);
            self.device
                .sweep_multi_reduce(&self.sample, b * width, flops, false, |view, out| {
                    sweep::fused_into(plan, consts, &view, out, true);
                })
        });
        let inv_s = 1.0 / self.size as f64;
        sums.chunks_exact(width)
            .map(|chunk| {
                let estimate = (chunk[0] / self.size as f64).clamp(0.0, 1.0);
                let grad: Vec<f64> = chunk[1..].iter().map(|g| g * inv_s).collect();
                (estimate, grad)
            })
            .collect()
    }

    /// Hoists one launch's constants into pooled device scratch — every
    /// region's kernel parameters at `bandwidth`, and the factor tables
    /// (with `gradient`, also the derivative tables) of the sample's
    /// dictionary-coded columns — then runs `launch` with them. The
    /// tables are computed here, once per query, before the device fans
    /// the sweep out.
    fn with_plan<T>(
        &self,
        bandwidth: &[f64],
        regions: &[Rect],
        gradient: bool,
        launch: impl FnOnce(&sweep::Plan<'_>, &[f64]) -> T,
    ) -> T {
        let plan = sweep::Plan::new(self.kernel, &self.sample, gradient);
        self.device.with_scratch(plan.len(regions.len()), |consts| {
            plan.fill(consts, regions, bandwidth);
            launch(&plan, consts)
        })
    }

    /// The retained contribution buffer of the most recent estimate.
    pub fn last_contributions(&self) -> Option<&DeviceBuffer> {
        self.last_contributions.as_ref()
    }

    /// Gradient of the estimator with respect to the bandwidth,
    /// `∂p̂_H(Ω)/∂h` (paper eqs. 15-17). Computed on the device, parallel
    /// over sample points, reduced per dimension.
    ///
    /// This is the *unfused* reference path (separate map and column
    /// reduction); the hot paths use
    /// [`estimate_with_gradient`](Self::estimate_with_gradient), which is
    /// asserted bit-identical to it.
    pub fn estimator_gradient(&self, region: &Rect) -> Vec<f64> {
        assert_eq!(region.dims(), self.dims);
        // Gradient needs all d factors plus d derivative terms per point.
        let d = self.dims;
        let regions = std::slice::from_ref(region);
        let partials = self.with_plan(&self.bandwidth, regions, true, |plan, consts| {
            self.device
                .sweep_multi(&self.sample, d, plan.flops_per_row(1), |view, out| {
                    sweep::fused_into(plan, consts, &view, out, false);
                })
        });
        let mut grad = self.device.reduce_sum_columns(&partials, d);
        let inv_s = 1.0 / self.size as f64;
        for g in &mut grad {
            *g *= inv_s;
        }
        grad
    }

    /// Gradient of a loss at observed feedback, `∂L/∂h = ∂L/∂p̂ · ∂p̂/∂h`
    /// (paper eq. 14). `estimate` is the value previously returned for
    /// `region`; `actual` is the true selectivity from query feedback.
    pub fn loss_gradient(
        &self,
        region: &Rect,
        estimate: f64,
        actual: f64,
        loss: LossFunction,
    ) -> Vec<f64> {
        let scale = loss.dvalue_destimate(estimate, actual);
        let mut grad = self.estimator_gradient(region);
        for g in &mut grad {
            *g *= scale;
        }
        grad
    }

    /// Replaces sample point `index` with `row` in a single device transfer
    /// (§5.1). Invalidates the retained contribution buffer.
    ///
    /// # Panics
    /// Panics on index/arity mismatch or NaN attributes.
    pub fn replace_point(&mut self, index: usize, row: &[f64]) {
        assert!(index < self.size, "sample index {index} out of range");
        assert_eq!(row.len(), self.dims);
        assert!(row.iter().all(|v| !v.is_nan()), "NaN attribute");
        let offset = index * self.dims;
        self.device.write_row_soa(&mut self.sample, index, row);
        self.host_sample[offset..offset + self.dims].copy_from_slice(row);
        self.last_contributions = None;
        self.last_gradient = None;
    }

    /// Model memory footprint: the sample buffer plus the bandwidth vector
    /// (the quantities the paper's d·4 KiB budget constrains).
    pub fn memory_bytes(&self) -> usize {
        (self.host_sample.len() + self.bandwidth.len()) * std::mem::size_of::<f64>()
    }

    /// Reference host-side estimate over an arbitrary sample — the oracle
    /// the device path is tested against, also used by the batch/CV
    /// objectives where device timing must not be polluted.
    pub fn estimate_host(
        sample: &[f64],
        dims: usize,
        bandwidth: &[f64],
        kernel: KernelFn,
        region: &Rect,
    ) -> f64 {
        assert_eq!(sample.len() % dims, 0);
        let s = sample.len() / dims;
        if s == 0 {
            return 0.0;
        }
        let sum: f64 = sample
            .chunks_exact(dims)
            .map(|row| kernel.contribution(row, region.lo(), region.hi(), bandwidth))
            .sum();
        (sum / s as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::Backend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_sample(n: usize, dims: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    fn make(backend: Backend, n: usize, dims: usize) -> KdeEstimator {
        let sample = uniform_sample(n, dims, 42);
        KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian)
    }

    #[test]
    fn estimate_of_everything_is_one() {
        let mut e = make(Backend::CpuSeq, 256, 3);
        let est = e.estimate(&Rect::cube(3, -100.0, 101.0));
        assert!((est - 1.0).abs() < 1e-9, "estimate {est}");
    }

    #[test]
    fn estimate_of_far_away_region_is_zero() {
        let mut e = make(Backend::CpuSeq, 256, 3);
        let est = e.estimate(&Rect::cube(3, 500.0, 501.0));
        assert!(est < 1e-12, "estimate {est}");
    }

    #[test]
    fn estimate_tracks_uniform_selectivity() {
        // Uniform sample on [0,1]²: a query of volume v should estimate ≈ v.
        let mut e = make(Backend::CpuPar, 4096, 2);
        let q = Rect::from_intervals(&[(0.2, 0.7), (0.1, 0.5)]);
        let est = e.estimate(&q);
        assert!((est - 0.2).abs() < 0.05, "estimate {est} for volume 0.2");
    }

    #[test]
    fn backends_agree_bitwise() {
        let sample = uniform_sample(1000, 4, 7);
        let q = Rect::from_intervals(&[(0.1, 0.6), (0.3, 0.9), (0.0, 0.4), (0.5, 1.0)]);
        let mut results = Vec::new();
        for b in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let mut e = KdeEstimator::new(Device::new(b), &sample, 4, KernelFn::Gaussian);
            results.push((e.estimate(&q), e.estimator_gradient(&q)));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn device_path_matches_host_reference() {
        let sample = uniform_sample(512, 3, 9);
        let mut e = KdeEstimator::new(Device::new(Backend::SimGpu), &sample, 3, KernelFn::Gaussian);
        let q = Rect::from_intervals(&[(0.2, 0.8), (0.0, 0.5), (0.4, 0.9)]);
        let dev = e.estimate(&q);
        let host = KdeEstimator::estimate_host(&sample, 3, e.bandwidth(), KernelFn::Gaussian, &q);
        assert!((dev - host).abs() < 1e-12, "{dev} vs {host}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let sample = uniform_sample(200, 2, 3);
        let e = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let q = Rect::from_intervals(&[(0.3, 0.6), (0.2, 0.9)]);
        let grad = e.estimator_gradient(&q);
        let bw = e.bandwidth().to_vec();
        for i in 0..2 {
            let eps = 1e-7;
            let mut bp = bw.clone();
            bp[i] += eps;
            let mut bm = bw.clone();
            bm[i] -= eps;
            let fp = KdeEstimator::estimate_host(&sample, 2, &bp, KernelFn::Gaussian, &q);
            let fm = KdeEstimator::estimate_host(&sample, 2, &bm, KernelFn::Gaussian, &q);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-6,
                "dim {i}: fd {fd} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn loss_gradient_is_scaled_estimator_gradient() {
        let mut e = make(Backend::CpuSeq, 128, 2);
        let q = Rect::from_intervals(&[(0.1, 0.4), (0.2, 0.8)]);
        let est = e.estimate(&q);
        let actual = 0.05;
        let lg = e.loss_gradient(&q, est, actual, LossFunction::Quadratic);
        let eg = e.estimator_gradient(&q);
        let scale = 2.0 * (est - actual);
        for (l, g) in lg.iter().zip(&eg) {
            assert!((l - scale * g).abs() < 1e-12);
        }
    }

    #[test]
    fn contributions_are_retained_and_sized() {
        let mut e = make(Backend::CpuSeq, 64, 2);
        assert!(e.last_contributions().is_none());
        e.estimate(&Rect::cube(2, 0.0, 1.0));
        let c = e.last_contributions().expect("retained");
        assert_eq!(c.len(), 64);
    }

    #[test]
    fn replace_point_changes_estimates_and_invalidates_contributions() {
        let sample = vec![0.0, 0.0, 0.1, 0.1, 0.2, 0.2, 0.15, 0.05];
        let mut e = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        e.set_bandwidth(vec![0.01, 0.01]);
        let near_origin = Rect::cube(2, -0.5, 0.5);
        let est_before = e.estimate(&near_origin);
        assert!((est_before - 1.0).abs() < 1e-6);
        // Move every point far away.
        for i in 0..4 {
            e.replace_point(i, &[100.0, 100.0]);
        }
        assert!(e.last_contributions().is_none());
        let est_after = e.estimate(&near_origin);
        assert!(est_after < 1e-9, "estimate {est_after}");
        assert_eq!(e.sample_point(2), &[100.0, 100.0]);
    }

    #[test]
    fn estimate_uses_few_transfers() {
        // Paper §2.4 footnote: "the only required transfers are the query
        // bounds and the computed estimate".
        let mut e = make(Backend::SimGpu, 1024, 4);
        let stats0 = e.device().stats();
        e.estimate(&Rect::cube(4, 0.0, 0.5));
        let stats1 = e.device().stats();
        assert_eq!(stats1.uploads - stats0.uploads, 1, "one bounds upload");
        assert_eq!(
            stats1.downloads - stats0.downloads,
            1,
            "one result download"
        );
        // Uploaded bytes: 2·d·8 = 64.
        assert_eq!(stats1.bytes_up - stats0.bytes_up, 64);
    }

    #[test]
    fn fused_estimate_with_gradient_is_bit_identical_to_separate_calls() {
        let sample = uniform_sample(700, 3, 11);
        let queries = [
            Rect::from_intervals(&[(0.1, 0.6), (0.3, 0.9), (0.0, 0.4)]),
            Rect::from_intervals(&[(-0.2, 0.2), (0.5, 1.5), (0.1, 0.3)]),
        ];
        for b in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let mut e = KdeEstimator::new(Device::new(b), &sample, 3, KernelFn::Gaussian);
            for q in &queries {
                let est = e.estimate(q);
                let grad = e.estimator_gradient(q);
                let retained = e.device().download(e.last_contributions().unwrap());
                let (fused_est, fused_grad) = e.estimate_with_gradient(q);
                assert_eq!(fused_est, est, "{}", b.name());
                assert_eq!(fused_grad, grad, "{}", b.name());
                // The fused path retains the same contribution buffer.
                let fused_retained = e.device().download(e.last_contributions().unwrap());
                assert_eq!(fused_retained, retained, "{}", b.name());
            }
        }
    }

    #[test]
    fn batched_estimates_match_per_query_estimates_bitwise() {
        let sample = uniform_sample(600, 2, 13);
        let regions: Vec<Rect> = (0..7)
            .map(|i| {
                let a = i as f64 * 0.1;
                Rect::from_intervals(&[(a, a + 0.4), (0.2 - a, 1.0)])
            })
            .collect();
        for b in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let mut e = KdeEstimator::new(Device::new(b), &sample, 2, KernelFn::Gaussian);
            let batched = e.estimate_batch(&regions);
            let looped: Vec<f64> = regions.iter().map(|q| e.estimate(q)).collect();
            assert_eq!(batched, looped, "{}", b.name());
        }
    }

    #[test]
    fn batched_gradients_match_per_query_paths_bitwise() {
        let sample = uniform_sample(300, 2, 17);
        let regions: Vec<Rect> = (0..5)
            .map(|i| {
                let a = i as f64 * 0.15;
                Rect::from_intervals(&[(a, a + 0.5), (0.0, 0.6 + a)])
            })
            .collect();
        let candidate = vec![0.21, 0.34];
        for b in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let mut e = KdeEstimator::new(Device::new(b), &sample, 2, KernelFn::Gaussian);
            let batched = e.estimate_batch_with_gradients_at(&candidate, &regions);
            e.set_bandwidth(candidate.clone());
            for (q, (est, grad)) in regions.iter().zip(&batched) {
                assert_eq!(*est, e.estimate(q), "{}", b.name());
                assert_eq!(*grad, e.estimator_gradient(q), "{}", b.name());
            }
        }
    }

    #[test]
    fn fused_estimate_with_gradient_uses_one_kernel_and_one_download() {
        let mut e = make(Backend::SimGpu, 1024, 4);
        let q = Rect::cube(4, 0.1, 0.7);
        let s0 = e.device().stats();
        let _ = e.estimate_with_gradient(&q);
        let s1 = e.device().stats();
        assert_eq!(s1.kernels - s0.kernels, 1, "one fused launch");
        assert_eq!(s1.uploads - s0.uploads, 1, "one bounds upload");
        assert_eq!(s1.downloads - s0.downloads, 1, "one result download");
        // (1+d)·8 = 40 bytes come back: the estimate and the gradient.
        assert_eq!(s1.bytes_down - s0.bytes_down, 40);
    }

    #[test]
    fn batched_objective_evaluation_uses_constant_launches() {
        let e = make(Backend::SimGpu, 512, 3);
        let regions: Vec<Rect> = (0..24)
            .map(|i| Rect::cube(3, 0.01 * i as f64, 0.5 + 0.01 * i as f64))
            .collect();
        let _bounds = e.stage_bounds(&regions);
        let s0 = e.device().stats();
        let _ = e.estimate_batch_with_gradients_at(&[0.2, 0.2, 0.2], &regions);
        let s1 = e.device().stats();
        // O(1) in |workload|: one bandwidth upload, one fused kernel, one
        // download of the 24·(1+3) reduced sums.
        assert_eq!(s1.kernels - s0.kernels, 1);
        assert_eq!(s1.uploads - s0.uploads, 1);
        assert_eq!(s1.downloads - s0.downloads, 1);
        assert_eq!(s1.bytes_down - s0.bytes_down, 24 * 4 * 8);
        // And the single-shot batched estimate is also one launch.
        let _ = e.estimate_batch(&regions);
        let s2 = e.device().stats();
        assert_eq!(s2.kernels - s1.kernels, 1);
    }

    #[test]
    fn gradient_cache_hits_same_region_and_invalidates_on_change() {
        let mut e = make(Backend::CpuSeq, 128, 2);
        let q = Rect::from_intervals(&[(0.1, 0.5), (0.2, 0.8)]);
        assert!(e.cached_gradient(&q).is_none());
        let (_, grad) = e.estimate_with_gradient(&q);
        assert_eq!(e.cached_gradient(&q).unwrap(), grad.as_slice());
        let other = Rect::from_intervals(&[(0.0, 0.5), (0.2, 0.8)]);
        assert!(e.cached_gradient(&other).is_none());
        e.set_bandwidth(vec![0.3, 0.3]);
        assert!(e.cached_gradient(&q).is_none(), "bandwidth change");
        let (_, _) = e.estimate_with_gradient(&q);
        e.replace_point(0, &[0.5, 0.5]);
        assert!(e.cached_gradient(&q).is_none(), "sample change");
    }

    /// Asserts `values[codes[r]]` equals row `r` of the staged stripe,
    /// bitwise, in every dictionary-coded column.
    fn assert_codes_match_stripes(e: &KdeEstimator) {
        let d = e.dims;
        let copy = e.device.sweep_multi(&e.sample, d, 0.0, |cols, out| {
            for j in 0..d {
                for (o, &v) in out[j..].iter_mut().step_by(d).zip(cols.col(j)) {
                    *o = v;
                }
            }
        });
        let stripes = e.device.download(&copy);
        for j in 0..d {
            let Some(dict) = e.sample.dict(j) else {
                continue;
            };
            for (r, &code) in dict.codes.iter().enumerate() {
                assert_eq!(
                    dict.values[usize::from(code)].to_bits(),
                    stripes[r * d + j].to_bits(),
                    "column {j} row {r}"
                );
            }
        }
    }

    /// Every output bit of the estimate, fused-gradient and batched
    /// sweeps over `regions`.
    fn output_bits(e: &mut KdeEstimator, regions: &[Rect]) -> Vec<u64> {
        let mut out = e.estimate_batch(regions);
        for q in regions {
            out.push(e.estimate(q));
            let (value, grad) = e.estimate_with_gradient(q);
            out.push(value);
            out.extend(grad);
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn replacements_keep_dictionaries_and_outputs_in_step() {
        // 480 rows: at most 30 distinct values per coded column. Column 0
        // (6 values) and column 1 (25) are coded, column 2 is not.
        let (n, d) = (480, 3);
        let mut rng = StdRng::seed_from_u64(77);
        let sample: Vec<f64> = (0..n)
            .flat_map(|_| {
                [
                    f64::from(rng.gen_range(0..6u8)),
                    f64::from(rng.gen_range(0..25u8)) * 0.5,
                    rng.gen_range(0.0..10.0),
                ]
            })
            .collect();
        let regions = [
            Rect::from_intervals(&[(1.0, 3.0), (2.0, 8.0), (2.0, 7.5)]),
            Rect::from_intervals(&[(f64::NEG_INFINITY, 0.0), (0.5, 0.5), (-1.0, 4.0)]),
            Rect::from_intervals(&[(-0.0, 6.0), (20.0, f64::INFINITY), (0.0, 10.0)]),
        ];
        for kernel in [KernelFn::Gaussian, KernelFn::Epanechnikov] {
            let mut e = KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, d, kernel);
            assert_eq!(e.sample.dict_columns(), 2);
            for step in 0..40u8 {
                // Column 0 writes values its dictionary holds; column 1
                // a new value every third step, passing its cap at the
                // sixth; column 2 fresh continuous values.
                let coded = if step % 3 == 0 {
                    f64::from(50 + step)
                } else {
                    f64::from(rng.gen_range(0..25u8)) * 0.5
                };
                let row = [
                    f64::from(rng.gen_range(0..6u8)),
                    coded,
                    rng.gen_range(0.0..10.0),
                ];
                e.replace_point(rng.gen_range(0..n), &row);
                assert_codes_match_stripes(&e);
                assert_eq!(e.sample.dict(1).is_some(), step < 15, "step {step}");
                let mut fresh =
                    KdeEstimator::new(Device::new(Backend::CpuSeq), e.host_sample(), d, kernel);
                fresh.set_bandwidth(e.bandwidth().to_vec());
                assert_eq!(
                    output_bits(&mut e, &regions),
                    output_bits(&mut fresh, &regions),
                    "{} step {step}",
                    kernel.name()
                );
            }
            assert!(e.sample.dict(0).is_some());
        }
    }

    #[test]
    fn epanechnikov_estimates_are_sane() {
        let sample = uniform_sample(2048, 2, 5);
        let mut e = KdeEstimator::new(
            Device::new(Backend::CpuPar),
            &sample,
            2,
            KernelFn::Epanechnikov,
        );
        let q = Rect::from_intervals(&[(0.25, 0.75), (0.25, 0.75)]);
        let est = e.estimate(&q);
        assert!((est - 0.25).abs() < 0.05, "estimate {est}");
    }

    #[test]
    fn memory_accounting() {
        let e = make(Backend::CpuSeq, 100, 3);
        assert_eq!(e.memory_bytes(), (300 + 3) * 8);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        KdeEstimator::new(Device::new(Backend::CpuSeq), &[], 2, KernelFn::Gaussian);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_bandwidth_rejected() {
        let mut e = make(Backend::CpuSeq, 16, 2);
        e.set_bandwidth(vec![1.0, 0.0]);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn estimates_are_selectivities(
                seed in 0u64..1000,
                a in -0.5f64..1.0,
                w in 0.0f64..1.5
            ) {
                let sample = uniform_sample(128, 2, seed);
                let mut e = KdeEstimator::new(
                    Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
                let q = Rect::from_intervals(&[(a, a + w), (a, a + w)]);
                let est = e.estimate(&q);
                prop_assert!((0.0..=1.0).contains(&est));
            }

            #[test]
            fn monotone_under_region_growth(
                seed in 0u64..1000,
                a in -0.5f64..0.5,
                w in 0.1f64..1.0,
                extra in 0.0f64..1.0
            ) {
                let sample = uniform_sample(128, 2, seed);
                let mut e = KdeEstimator::new(
                    Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
                let small = e.estimate(&Rect::from_intervals(&[(a, a + w), (a, a + w)]));
                let large = e.estimate(&Rect::from_intervals(
                    &[(a - extra, a + w + extra), (a - extra, a + w + extra)]));
                prop_assert!(large >= small - 1e-12);
            }
        }
    }
}
