//! Estimation overhead vs. model size (paper §6.4, Figure 7).
//!
//! "We measured the total estimation overhead for 100 random UV queries on
//! a synthetic 8D table with three million rows" for Heuristic and
//! Adaptive on both CPU and GPU, plus STHoles. KDE overheads are *modeled*
//! by the device cost profiles (calibrated to the paper's GTX-460 / Xeon
//! E5620, see `kdesel-device`); measured wall time is reported alongside,
//! as the median of 5 timed passes over the queries after one discarded
//! warm-up pass (the modeled seconds come from the warm-up pass:
//! they do not depend on the host). STHoles estimation is measured
//! wall-clock over the fully-built histogram, excluding maintenance,
//! exactly as in the paper.
//!
//! Beyond the paper, the exact scan (*Exact Selectivity Computation*,
//! PAPERS.md) runs the same queries over a table of `size` rows (capped
//! at the table, and reported as the rows scanned) on both backends, so
//! its measured wall time answers the question the paper leaves open: at
//! what table size a KDE of a given sample size is cheaper than the
//! truth.
//!
//! For Adaptive, §5.5 hides the gradient/Karma computation behind the
//! query's own execution: "the only measurable performance impact of
//! Adaptive \[is\] the latency penalties incurred by the additional kernel
//! calls and data transfers." The bandwidth gradient rides the fused
//! estimate sweep (`estimate_with_gradient`), so the modeled Adaptive
//! overhead is the plain estimate's cost plus only the *latency* portion
//! of every additional launch and transfer.

use kdesel_data::{generate_workload, synthetic, WorkloadKind, WorkloadSpec};
use kdesel_device::{Backend, Device};
use kdesel_estimators::ExactScanEstimator;
use kdesel_hist::{SthConfig, SthHoles};
use kdesel_kde::{KarmaConfig, KarmaMaintenance, KdeEstimator, KernelFn};
use kdesel_storage::{sampling, Table};
use kdesel_types::stats::wall_median;
use kdesel_types::{QueryFeedback, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timed passes per measured cell, after one discarded warm-up pass.
const TIMED_PASSES: usize = 5;

/// Performance-experiment configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Dimensionality (paper: 8).
    pub dims: usize,
    /// Table rows (paper: 3,000,000).
    pub rows: usize,
    /// Model sizes to sweep (paper: 1K … 1M points).
    pub sample_sizes: Vec<usize>,
    /// Queries per measurement (paper: 100 UV queries).
    pub queries: usize,
    /// STHoles bucket counts matched byte-for-byte to each sample size.
    pub include_stholes: bool,
    /// Base seed.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self {
            dims: 8,
            rows: 200_000,
            sample_sizes: (10..=20).map(|p| 1usize << p).collect(),
            queries: 100,
            include_stholes: true,
            seed: 0xf177,
        }
    }
}

/// One backend's overhead at one model size.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Model size (sample points, the byte-equivalent bucket count for
    /// STHoles, or the rows an exact scan read).
    pub model_size: usize,
    /// Modeled seconds for the whole query batch (KDE backends).
    pub modeled_seconds: Option<f64>,
    /// Measured wall seconds for the whole query batch.
    pub measured_seconds: f64,
}

/// A labelled overhead series.
#[derive(Debug, Clone)]
pub struct PerfSeries {
    /// e.g. "heuristic/sim-gpu", "adaptive/cpu-par", "stholes".
    pub label: String,
    /// One point per swept model size.
    pub points: Vec<PerfPoint>,
}

/// Runs the Figure 7 sweep.
pub fn run_perf(config: &PerfConfig) -> Vec<PerfSeries> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let table_cfg = synthetic::SyntheticConfig::paper_default(config.dims, config.rows);
    let table = synthetic::generate(&table_cfg, config.seed);
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::UniformVolume),
        config.queries,
        &mut rng,
    );
    let regions: Vec<Rect> = queries.iter().map(|q| q.region.clone()).collect();
    let actuals: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();

    let mut series = Vec::new();
    for backend in [Backend::SimGpu, Backend::CpuPar] {
        for adaptive in [false, true] {
            let label = format!(
                "{}/{}",
                if adaptive { "adaptive" } else { "heuristic" },
                backend.name()
            );
            let mut points = Vec::new();
            for &size in &config.sample_sizes {
                points.push(measure_kde(
                    &table,
                    &regions,
                    &actuals,
                    backend,
                    adaptive,
                    size,
                    config.seed,
                ));
            }
            series.push(PerfSeries { label, points });
        }
    }
    if config.include_stholes {
        let mut points = Vec::new();
        for &size in &config.sample_sizes {
            points.push(measure_stholes(&table, &regions, size, config.seed));
        }
        series.push(PerfSeries {
            label: "stholes".to_string(),
            points,
        });
    }
    for backend in [Backend::SimGpu, Backend::CpuPar] {
        series.push(PerfSeries {
            label: format!("exact/{}", backend.name()),
            points: config
                .sample_sizes
                .iter()
                .map(|&size| measure_exact(&table, &regions, backend, size, config.seed))
                .collect(),
        });
    }
    series
}

/// Measures the KDE estimation overhead at one (backend, variant, size).
fn measure_kde(
    table: &Table,
    regions: &[Rect],
    actuals: &[f64],
    backend: Backend,
    adaptive: bool,
    size: usize,
    seed: u64,
) -> PerfPoint {
    let mut rng = StdRng::seed_from_u64(seed ^ size as u64);
    let sample = sized_sample(table, size, &mut rng);
    let mut estimator = KdeEstimator::new(
        Device::new(backend),
        &sample,
        table.dims(),
        KernelFn::Gaussian,
    );
    let mut karma = KarmaMaintenance::new(&estimator, KarmaConfig::default());

    let profile = *estimator.device().cost_model().profile();
    // Estimate-equivalent critical-path cost of one query: bounds upload,
    // one fused map+reduce launch, scalar download — what the heuristic
    // path charges. The adaptive path folds the gradient into the same
    // sweep (estimate_with_gradient), so only this cost plus the *latency*
    // of any additional operations lands on the query's critical path.
    let dims = table.dims();
    let estimate_flops = KernelFn::Gaussian.flops_per_factor() * dims as f64 + 4.0;
    let estimate_equivalent = {
        let cost = estimator.device().cost_model();
        cost.transfer(2 * dims * 8) + cost.kernel(size, estimate_flops) + cost.transfer(8)
    };
    estimator.device().reset_timing();
    let mut pass = || {
        let mut modeled = 0.0;
        for (region, &actual) in regions.iter().zip(actuals) {
            if adaptive {
                // Gradient and Karma maintenance run concurrently with query
                // execution (§5.5): "the only measurable performance impact
                // of Adaptive [is] the latency penalties incurred by the
                // additional kernel calls and data transfers." The fused
                // sweep itself bills as a plain estimate; every
                // launch/transfer beyond the estimate's own (1 kernel, 2
                // transfers) adds its latency only.
                let s0 = estimator.device().stats();
                let (estimate, _grad) = estimator.estimate_with_gradient(region);
                let feedback = QueryFeedback {
                    region: region.clone(),
                    estimate,
                    actual,
                    cardinality: 0,
                };
                let _flagged = karma.update(&estimator, &feedback);
                let s1 = estimator.device().stats();
                let launches = (s1.kernels - s0.kernels).saturating_sub(1) as f64;
                let transfers = (s1.uploads - s0.uploads + s1.downloads - s0.downloads)
                    .saturating_sub(2) as f64;
                modeled += estimate_equivalent
                    + launches * profile.kernel_launch_latency
                    + transfers * profile.transfer_latency;
            } else {
                let t0 = estimator.device().modeled_seconds();
                let _estimate = estimator.estimate(region);
                let t1 = estimator.device().modeled_seconds();
                modeled += t1 - t0;
            }
        }
        modeled
    };
    let modeled = pass();
    PerfPoint {
        model_size: size,
        modeled_seconds: Some(modeled),
        measured_seconds: wall_median(TIMED_PASSES, || {
            pass();
        }),
    }
}

/// A `size`-point row-major sample. Sampling with replacement beyond
/// the table size would distort the model; the paper's 3M-row table
/// always exceeds the sample. Cap at the table size and tile if
/// oversized, moving every value of tile `k` by `k` ulps: repeated
/// values would let staging dictionary-code a column (at 16 or more
/// rows per distinct value), and a coded column sweeps cheaper than the
/// continuous sample Figure 7 times.
fn sized_sample(table: &Table, size: usize, rng: &mut StdRng) -> Vec<f64> {
    let base = sampling::sample_rows(table, size.min(table.row_count()), rng);
    base.iter()
        .cycle()
        .take(size * table.dims())
        .enumerate()
        .map(|(i, v)| f64::from_bits(v.to_bits() + (i / base.len()) as u64))
        .collect()
}

/// Measures the exact scan over a `size`-row staged snapshot, capped at
/// the table (an exact scan never duplicates rows); the point reports
/// the rows scanned.
fn measure_exact(
    table: &Table,
    regions: &[Rect],
    backend: Backend,
    size: usize,
    seed: u64,
) -> PerfPoint {
    let scanned = size.min(table.row_count());
    let mut rng = StdRng::seed_from_u64(seed ^ size as u64 ^ 0xe4ac);
    let rows = sampling::sample_rows(table, scanned, &mut rng);
    let est = ExactScanEstimator::new(Device::new(backend), &rows, table.dims());
    let pass = || {
        let sink: f64 = regions.iter().map(|region| est.estimate(region)).sum();
        std::hint::black_box(sink);
    };
    let t0 = est.device().modeled_seconds();
    pass();
    PerfPoint {
        model_size: scanned,
        modeled_seconds: Some(est.device().modeled_seconds() - t0),
        measured_seconds: wall_median(TIMED_PASSES, pass),
    }
}

/// Measures STHoles estimation time over a histogram built to the same
/// memory footprint as `size` KDE points (§6.4: "we report the runtime
/// overhead for the full STHoles model, which was constructed over a
/// large-enough training workload... we only measured estimation time").
fn measure_stholes(table: &Table, regions: &[Rect], size: usize, seed: u64) -> PerfPoint {
    let dims = table.dims();
    // Byte parity: size·d f32 scalars vs (2d+2) f32 scalars per bucket.
    // Capped: in high dimensions a 1%-selectivity query box is wide enough
    // to intersect most buckets, so each feedback refinement touches O(B)
    // buckets and histogram construction beyond a few thousand buckets is
    // impractical (the same engineering reality the STHoles paper's
    // multi-second maintenance times reflect, §6.4). Estimation time is
    // linear in the bucket count, so the trend past the cap extrapolates,
    // and the paper's conclusion ("slower for large models") is already
    // visible at the cap.
    let buckets = (size * dims / (2 * dims + 2)).clamp(4, 4_096);
    let domain = table.bounding_box().expect("non-empty table");
    let mut hist = SthHoles::new(
        domain,
        table.row_count() as u64,
        SthConfig {
            max_buckets: buckets,
        },
    );
    // Fill the budget with a training workload (maintenance excluded from
    // timing). Training size scales with the bucket budget; counting runs
    // against a subsample for speed — build cost is not what Fig. 7 times.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let count_table = Table::from_rows(
        dims,
        &sampling::sample_rows(table, 2_000.min(table.row_count()), &mut rng),
    );
    let scale = table.row_count() as f64 / count_table.row_count() as f64;
    // DT-style narrow queries keep refinement local (UV queries in high d
    // span half the domain per side and touch every bucket).
    let train = generate_workload(
        table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        (buckets / 8).clamp(50, 150),
        &mut rng,
    );
    for q in &train {
        hist.refine(&q.region, |r| {
            (count_table.count_in(r) as f64 * scale) as u64
        });
    }
    let pass = || {
        let sink: f64 = regions
            .iter()
            .map(|region| hist.estimate_selectivity(region))
            .sum();
        std::hint::black_box(sink);
    };
    pass();
    PerfPoint {
        model_size: size,
        modeled_seconds: None,
        measured_seconds: wall_median(TIMED_PASSES, pass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_shapes_match_paper() {
        let config = PerfConfig {
            dims: 4,
            rows: 5_000,
            sample_sizes: vec![1 << 10, 1 << 14, 1 << 18],
            queries: 20,
            include_stholes: false,
            seed: 1,
        };
        let series = run_perf(&config);
        assert_eq!(series.len(), 6);

        let get = |label: &str| {
            series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"))
        };
        let hg = get("heuristic/sim-gpu");
        let hc = get("heuristic/cpu-par");
        let ag = get("adaptive/sim-gpu");

        // Flat-then-linear: 1K → 16K grows far less than 16K → 128K.
        let m = |s: &PerfSeries, i: usize| s.points[i].modeled_seconds.unwrap();
        assert!(
            m(hg, 1) / m(hg, 0) < 3.0,
            "GPU should be latency-bound early"
        );
        assert!(
            m(hg, 2) / m(hg, 1) > 3.0,
            "GPU should be compute-bound late"
        );

        // GPU beats CPU at the largest size by roughly the paper's factor.
        let ratio = m(hc, 2) / m(hg, 2);
        assert!((2.0..7.0).contains(&ratio), "GPU/CPU ratio {ratio}");

        // Adaptive costs a roughly constant extra over Heuristic.
        let gap_small = m(ag, 0) - m(hg, 0);
        let gap_large = m(ag, 2) - m(hg, 2);
        assert!(gap_small > 0.0);
        assert!(
            (gap_large / gap_small) < 2.0,
            "adaptive gap should be ~constant: {gap_small} vs {gap_large}"
        );
    }

    #[test]
    fn exact_series_join_the_sweep() {
        let config = PerfConfig {
            dims: 3,
            rows: 3_000,
            sample_sizes: vec![1 << 7, 1 << 10, 1 << 12],
            queries: 10,
            include_stholes: false,
            seed: 3,
        };
        let series = run_perf(&config);
        for label in ["exact/sim-gpu", "exact/cpu-par"] {
            let s = series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"));
            // A size past the table scans, and reports, the whole table.
            let sizes: Vec<usize> = s.points.iter().map(|p| p.model_size).collect();
            assert_eq!(sizes, [1 << 7, 1 << 10, 3_000], "{label}");
            for p in &s.points {
                let m = p.modeled_seconds.expect("exact series are modeled");
                assert!(m > 0.0, "{label}: modeled {m}");
            }
        }
        // The exact scan's per-query cost grows with the snapshot.
        let m = |label: &str, i: usize| {
            series.iter().find(|s| s.label == label).unwrap().points[i]
                .modeled_seconds
                .unwrap()
        };
        assert!(m("exact/cpu-par", 1) > m("exact/cpu-par", 0));
    }

    #[test]
    fn stholes_measured_time_grows_with_model() {
        let config = PerfConfig {
            dims: 3,
            rows: 4_000,
            sample_sizes: vec![1 << 8, 1 << 13],
            queries: 50,
            include_stholes: true,
            seed: 2,
        };
        let series = run_perf(&config);
        let st = series.iter().find(|s| s.label == "stholes").unwrap();
        assert!(st.points[0].modeled_seconds.is_none());
        assert!(
            st.points[1].measured_seconds > st.points[0].measured_seconds,
            "larger histogram should be slower: {:?}",
            st.points
        );
    }
}
