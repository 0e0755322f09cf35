//! Cost-model calibration: end-to-end fit quality plus properties the
//! analytical model must keep for the calibrated parameters to mean
//! anything.
//!
//! The wall-clock test drives the full `kdesel-calibrate` pipeline
//! (microbenchmark sweep → log-space least-squares fit) against the
//! sequential CPU backend and pins the acceptance criterion: the fit
//! converges and the median relative residual between modeled and
//! measured time stays within 20%. The property tests pin the shape of
//! the model itself — monotonicity in work, and the existence of the
//! paper's CPU/GPU crossover (§6.4, Figure 7) for the published device
//! profiles.

use kdesel::device::calibrate::{calibrate, CalibrationConfig};
use kdesel::device::{Backend, CostModel, CostProfile};
use proptest::prelude::*;

/// Acceptance criterion: a quick CpuSeq calibration converges and models
/// its own measurements to within 20% median relative residual.
///
/// Wall-clock sensitive; `reps: 5` keeps each point's fastest
/// repetition, so a concurrently scheduled test or process stealing the
/// core for some repetitions does not fail the gate.
#[test]
fn cpu_seq_calibration_fits_within_twenty_percent() {
    let config = CalibrationConfig {
        reps: 5,
        quick: true,
    };
    let (measured, report) = calibrate(Backend::CpuSeq, &config);
    assert!(
        report.converged,
        "fit did not converge: {:?} after {} iterations (objective {})",
        report.outcome, report.iterations, report.objective
    );
    assert!(
        measured.median_residual <= 0.20,
        "median residual {:.1}% exceeds the 20% acceptance bound",
        measured.median_residual * 100.0
    );
    // The fitted parameters are physical: positive latencies, positive
    // finite rates.
    let p = &measured.profile;
    assert!(p.kernel_launch_latency > 0.0 && p.kernel_launch_latency.is_finite());
    assert!(p.transfer_latency > 0.0 && p.transfer_latency.is_finite());
    assert!(p.transfer_bandwidth > 0.0 && p.transfer_bandwidth.is_finite());
    assert!(p.compute_throughput > 0.0 && p.compute_throughput.is_finite());
    assert!(p.vector_width > 0.0 && p.vector_width.is_finite());
    // Every sweep point carries its own residual, and the JSON survives a
    // round trip bit-exactly (what `kdesel-calibrate --out` writes is what
    // `Device::with_profile` / the serve scheduler will read back).
    assert!(!measured.points.is_empty());
    for pt in &measured.points {
        assert!(pt.residual.is_finite() && pt.residual >= 0.0);
    }
    let reparsed = kdesel::device::MeasuredProfile::from_json(&measured.to_json())
        .expect("calibration JSON round-trips");
    assert_eq!(reparsed.profile, measured.profile);
}

/// Strategy: a physically plausible cost profile spanning embedded-CPU to
/// datacenter-GPU regimes.
fn profile_strategy() -> impl Strategy<Value = CostProfile> {
    (
        1e-7f64..1e-3, // kernel launch latency (s)
        1e-7f64..1e-3, // transfer latency (s)
        1e8f64..1e12,  // transfer bandwidth (B/s)
        1e8f64..1e13,  // compute throughput (FLOP/s)
        1.0f64..16.0,  // vector width (lanes)
    )
        .prop_map(|(kl, tl, bw, ct, vw)| CostProfile {
            kernel_launch_latency: kl,
            transfer_latency: tl,
            transfer_bandwidth: bw,
            compute_throughput: ct,
            vector_width: vw,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// More items can never be modeled as cheaper, for any profile: the
    /// calibrated scheduler relies on this to pick batch windows.
    #[test]
    fn kernel_cost_is_monotone_in_items(
        profile in profile_strategy(),
        items in 1usize..1 << 22,
        extra in 1usize..1 << 22,
        flops in 1.0f64..1e4,
    ) {
        let m = CostModel::new(profile);
        prop_assert!(m.kernel(items + extra, flops) >= m.kernel(items, flops));
        prop_assert!(
            m.kernel_vectorized(items + extra, flops) >= m.kernel_vectorized(items, flops)
        );
    }

    /// More work per item can never be modeled as cheaper.
    #[test]
    fn kernel_cost_is_monotone_in_flops(
        profile in profile_strategy(),
        items in 1usize..1 << 22,
        flops in 1.0f64..1e4,
        extra_flops in 0.0f64..1e4,
    ) {
        let m = CostModel::new(profile);
        prop_assert!(m.kernel(items, flops + extra_flops) >= m.kernel(items, flops));
        prop_assert!(
            m.kernel_vectorized(items, flops + extra_flops)
                >= m.kernel_vectorized(items, flops)
        );
    }

    /// The vectorized kernel is never modeled slower than the scalar one
    /// (vector_width ≥ 1), and collapses to it exactly at width 1.
    #[test]
    fn vectorized_kernel_never_slower_than_scalar(
        profile in profile_strategy(),
        items in 1usize..1 << 22,
        flops in 1.0f64..1e4,
    ) {
        let m = CostModel::new(profile);
        prop_assert!(m.kernel_vectorized(items, flops) <= m.kernel(items, flops) + 1e-15);
        let unit = CostModel::new(CostProfile { vector_width: 1.0, ..profile });
        prop_assert!((unit.kernel_vectorized(items, flops) - unit.kernel(items, flops)).abs() < 1e-15);
    }

    /// For the paper's published profiles there is a CPU/GPU crossover in
    /// model size (Figure 7): any estimation mix with at least a few
    /// transfers per kernel starts CPU-cheaper (the GTX-460 pays 25 µs per
    /// PCIe hop vs the Xeon's 10 µs) and ends GPU-cheaper (4× the
    /// arithmetic throughput), and the cost difference is monotone in n —
    /// so the crossover point is unique.
    #[test]
    fn gtx460_xeon_crossover_exists_and_is_unique(
        transfers_per_kernel in 4usize..16,
        flops in 16.0f64..1024.0,
        bytes in 8usize..4096,
    ) {
        let gpu = CostModel::new(CostProfile::gtx460());
        let cpu = CostModel::new(CostProfile::xeon_e5620_opencl());
        // One estimation step: `transfers_per_kernel` small host↔device
        // hops (query bounds, result readback, ...) plus one kernel over
        // the n-point model.
        let mix = |m: &CostModel, n: usize| {
            m.transfer(bytes) * transfers_per_kernel as f64 + m.kernel(n, flops)
        };
        // Latency regime: the fixed per-op costs dominate and the CPU's
        // cheaper transfers win.
        prop_assert!(mix(&cpu, 1) < mix(&gpu, 1), "CPU must win tiny models");
        // Compute regime: 4x throughput wins.
        let huge = 1 << 26;
        prop_assert!(mix(&gpu, huge) < mix(&cpu, huge), "GPU must win huge models");
        // The difference cpu - gpu is strictly increasing in n (the
        // per-item compute gap 1/30e9 - 1/120e9 > 0 is the only n-term),
        // so exactly one sign change exists: binary-search it.
        let diff = |n: usize| mix(&cpu, n) - mix(&gpu, n);
        let (mut lo, mut hi) = (1usize, huge);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if diff(mid) < 0.0 { lo = mid } else { hi = mid }
        }
        // `lo` is the last CPU-cheaper size, `hi` the first GPU-cheaper
        // one; monotonicity of the difference makes this crossover unique.
        prop_assert!(diff(lo) < 0.0 && diff(hi) >= 0.0);
        for step in [2usize, 4, 16, 256] {
            if let Some(n) = hi.checked_mul(step) {
                prop_assert!(diff(n) > diff(hi), "difference must keep growing past the crossover");
            }
        }
    }
}
