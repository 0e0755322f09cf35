//! Analytical device cost model.
//!
//! Charges per-operation costs with four parameters: kernel-launch latency,
//! transfer latency, transfer bandwidth, and effective arithmetic
//! throughput. The *shape* of the paper's Figure 7 falls out of this
//! structure: total estimation overhead is flat while latency dominates
//! (`n · flops / throughput ≪ per-op latencies`) and linear once compute
//! dominates; the GPU's higher launch/transfer latency but ~4× higher
//! throughput reproduces the CPU/GPU crossover the paper reports.

/// Cost-model parameters for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Seconds of fixed latency per kernel launch.
    pub kernel_launch_latency: f64,
    /// Seconds of fixed latency per host↔device transfer.
    pub transfer_latency: f64,
    /// Transfer bandwidth in bytes/second.
    pub transfer_bandwidth: f64,
    /// Effective arithmetic throughput in FLOP/s for this workload.
    pub compute_throughput: f64,
    /// Per-lane width multiplier applied to *vectorized* kernels
    /// ([`CostModel::kernel_vectorized`]): a sweep written against the
    /// columnar SoA layout retires `vector_width` lanes per modeled FLOP
    /// slot. The calibrated paper profiles keep this at `1.0` because
    /// their `compute_throughput` numbers already describe fully
    /// SIMT/SIMD-occupied kernels — so the modeled Figure-7 curves are
    /// unchanged by the layout rewire — but a profile can raise it to
    /// model a device whose scalar ALU path and vector path differ.
    pub vector_width: f64,
}

impl CostProfile {
    /// Calibrated to the paper's NVIDIA GTX-460 over PCIe 2.0 (§6.4):
    /// estimates on 128 K-point models complete "in under 1 ms", the
    /// overhead curve is flat until ≈32 K points, and large-model throughput
    /// is ≈4× the CPU's.
    pub fn gtx460() -> Self {
        Self {
            kernel_launch_latency: 25e-6,
            transfer_latency: 25e-6,
            transfer_bandwidth: 6e9,
            compute_throughput: 120e9,
            vector_width: 1.0,
        }
    }

    /// Calibrated to the paper's quad-core Xeon E5620 under the Intel
    /// OpenCL SDK (§6.4): ≈1 ms per estimate at 32 K points, flat until
    /// ≈16 K points (the OpenCL runtime's scheduling latency), ≈4× slower
    /// than the GPU asymptotically.
    pub fn xeon_e5620_opencl() -> Self {
        Self {
            kernel_launch_latency: 80e-6,
            transfer_latency: 10e-6,
            transfer_bandwidth: 10e9,
            compute_throughput: 30e9,
            vector_width: 1.0,
        }
    }

    /// A zero-cost profile for backends whose time is *measured* rather
    /// than modeled (native CPU execution).
    pub fn free() -> Self {
        Self {
            kernel_launch_latency: 0.0,
            transfer_latency: 0.0,
            transfer_bandwidth: f64::INFINITY,
            compute_throughput: f64::INFINITY,
            vector_width: 1.0,
        }
    }
}

/// Accumulates modeled cost.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: CostProfile,
}

impl CostModel {
    /// Creates a model with the given profile.
    pub fn new(profile: CostProfile) -> Self {
        Self { profile }
    }

    /// The profile in use.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Modeled seconds for one host↔device transfer of `bytes`.
    pub fn transfer(&self, bytes: usize) -> f64 {
        self.profile.transfer_latency + bytes as f64 / self.profile.transfer_bandwidth
    }

    /// Modeled seconds for one kernel over `items` items at `flops_per_item`.
    pub fn kernel(&self, items: usize, flops_per_item: f64) -> f64 {
        self.profile.kernel_launch_latency
            + items as f64 * flops_per_item / self.profile.compute_throughput
    }

    /// Modeled seconds for one *vectorized* kernel over `items` items:
    /// the launch latency is unchanged but the compute term retires
    /// [`CostProfile::vector_width`] lanes per cycle. With the default
    /// `vector_width = 1.0` this equals [`CostModel::kernel`], keeping
    /// the calibrated GTX-460 / Xeon curves intact when the columnar
    /// sweeps replace the row-major maps.
    pub fn kernel_vectorized(&self, items: usize, flops_per_item: f64) -> f64 {
        self.profile.kernel_launch_latency
            + items as f64 * flops_per_item
                / (self.profile.compute_throughput * self.profile.vector_width)
    }

    /// Modeled seconds for a parallel binary-reduction of `items` values:
    /// two launch rounds (tree reduction then final pass, following the
    /// paper's reduction scheme \[19\]) plus ~4 FLOP per element.
    pub fn reduction(&self, items: usize) -> f64 {
        2.0 * self.profile.kernel_launch_latency
            + items as f64 * 4.0 / self.profile.compute_throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let m = CostModel::new(CostProfile::gtx460());
        let small = m.transfer(8);
        let large = m.transfer(8_000_000);
        assert!(large > small);
        // Latency floor dominates tiny transfers.
        assert!((small - 25e-6) / 25e-6 < 0.01);
        // Bandwidth dominates large ones: 8 MB at 6 GB/s ≈ 1.33 ms.
        assert!((large - 8e6 / 6e9 - 25e-6).abs() < 1e-9);
    }

    #[test]
    fn kernel_cost_flat_then_linear() {
        let m = CostModel::new(CostProfile::gtx460());
        let flops = 480.0;
        let tiny = m.kernel(128, flops);
        let small = m.kernel(1024, flops);
        // Latency-bound region: 8x more items, nearly same cost.
        assert!(small / tiny < 1.5);
        let big = m.kernel(1 << 20, flops);
        let bigger = m.kernel(1 << 21, flops);
        // Compute-bound region: doubling items roughly doubles cost.
        assert!((bigger / big - 2.0).abs() < 0.1);
    }

    #[test]
    fn gpu_beats_cpu_asymptotically_by_about_4x() {
        let gpu = CostModel::new(CostProfile::gtx460());
        let cpu = CostModel::new(CostProfile::xeon_e5620_opencl());
        let flops = 480.0;
        let n = 1 << 20;
        let ratio = cpu.kernel(n, flops) / gpu.kernel(n, flops);
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cpu_beats_gpu_on_latency() {
        let gpu = CostModel::new(CostProfile::gtx460());
        let cpu = CostModel::new(CostProfile::xeon_e5620_opencl());
        assert!(cpu.transfer(8) < gpu.transfer(8));
    }

    #[test]
    fn free_profile_costs_nothing() {
        let m = CostModel::new(CostProfile::free());
        assert_eq!(m.transfer(1 << 30), 0.0);
        assert_eq!(m.kernel(1 << 30, 1000.0), 0.0);
        assert_eq!(m.reduction(1 << 30), 0.0);
    }

    #[test]
    fn vectorized_kernel_scales_compute_by_lane_width() {
        let base = CostProfile::gtx460();
        let m1 = CostModel::new(base);
        // Default width 1.0: vectorized and scalar kernels cost the same,
        // so swapping the sweeps in changes no calibrated number.
        assert_eq!(
            m1.kernel_vectorized(1 << 20, 480.0),
            m1.kernel(1 << 20, 480.0)
        );
        let m4 = CostModel::new(CostProfile {
            vector_width: 4.0,
            ..base
        });
        // Width 4: compute term shrinks 4x, launch latency does not.
        let scalar = m4.kernel(1 << 20, 480.0) - base.kernel_launch_latency;
        let vector = m4.kernel_vectorized(1 << 20, 480.0) - base.kernel_launch_latency;
        assert!(
            (scalar / vector - 4.0).abs() < 1e-9,
            "ratio {}",
            scalar / vector
        );
        assert_eq!(m4.kernel_vectorized(1, 0.0), base.kernel_launch_latency);
    }

    #[test]
    fn reduction_has_two_launches() {
        let m = CostModel::new(CostProfile::gtx460());
        assert!(m.reduction(1) >= 2.0 * 25e-6);
    }
}
