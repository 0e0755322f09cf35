//! Cross-crate property tests: invariants that must hold through the whole
//! stack, exercised with randomized inputs.

use kdesel::device::calibrate::PointOp;
use kdesel::device::{Backend, CostProfile, Device, MeasuredPoint, MeasuredProfile};
use kdesel::estimators::ExactScanEstimator;
use kdesel::hist::{SthConfig, SthHoles};
use kdesel::kde::{
    AdaptiveConfig, AdaptiveKde, KarmaConfig, KdeEstimator, KernelFn, ModelSnapshot,
};
use kdesel::serve::snapshot;
use kdesel::storage::Table;
use kdesel::{QueryFeedback, Rect, SelectivityEstimator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small random 2D table with values in [0, 100).
fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..120).prop_map(|points| {
        let mut data = Vec::with_capacity(points.len() * 2);
        for (x, y) in points {
            data.push(x);
            data.push(y);
        }
        Table::from_rows(2, &data)
    })
}

/// Strategy: a random query box over roughly the same domain.
fn rect_strategy() -> impl Strategy<Value = Rect> {
    (-10.0f64..110.0, -10.0f64..110.0, 0.0f64..60.0, 0.0f64..60.0)
        .prop_map(|(x, y, w, h)| Rect::from_intervals(&[(x, x + w), (y, y + h)]))
}

/// Strategy: any finite f64, drawn from its bit pattern so subnormals,
/// -0.0 and extreme exponents all appear.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        // An all-ones exponent is ±inf or NaN; flipping its top bit lands
        // on a finite value.
        let exponent_all_ones = (bits >> 52) & 0x7ff == 0x7ff;
        f64::from_bits(if exponent_all_ones {
            bits ^ (1 << 62)
        } else {
            bits
        })
    })
}

fn snapshot_strategy() -> impl Strategy<Value = ModelSnapshot> {
    (
        proptest::collection::vec(finite_f64(), 0..40),
        1usize..9,
        0usize..3,
        proptest::collection::vec(finite_f64(), 0..9),
    )
        .prop_map(|(sample, dims, kernel, bandwidth)| ModelSnapshot {
            sample,
            dims,
            kernel: ["gaussian", "epanechnikov", "we\"ird\\ \u{1}σ"][kernel].to_string(),
            bandwidth,
        })
}

fn profile_strategy() -> impl Strategy<Value = MeasuredProfile> {
    let point = (
        0usize..3,
        0u64..u64::MAX,
        0u64..u64::MAX,
        proptest::collection::vec(finite_f64(), 4),
    )
        .prop_map(|(op, items, bytes, f)| MeasuredPoint {
            op: [PointOp::Transfer, PointOp::Kernel, PointOp::Sweep][op],
            items,
            flops_per_item: f[0],
            bytes,
            measured_seconds: f[1],
            modeled_seconds: f[2],
            residual: f[3],
        });
    (
        proptest::collection::vec(finite_f64(), 6),
        proptest::collection::vec(point, 0..6),
    )
        .prop_map(|(f, points)| MeasuredProfile {
            version: kdesel::device::calibrate::MEASURED_PROFILE_VERSION,
            backend: "sim-gpu".to_string(),
            profile: CostProfile {
                kernel_launch_latency: f[0],
                transfer_latency: f[1],
                transfer_bandwidth: f[2],
                compute_throughput: f[3],
                vector_width: f[4],
            },
            points,
            median_residual: f[5],
        })
}

/// Strategy: one feedback interval over the adaptive model's `[0, 1)²`
/// sample domain. Each end is ±∞, a domain edge (0 or 1), a point outside
/// the domain (-3 or 4) or a uniform draw; a third of the intervals are
/// zero-width.
fn feedback_interval() -> impl Strategy<Value = (f64, f64)> {
    (0usize..7, 0usize..7, -0.5f64..1.5, -0.5f64..1.5, 0usize..3).prop_map(
        |(a, b, ua, ub, flat)| {
            let end = |code: usize, u: f64| {
                [f64::NEG_INFINITY, f64::INFINITY, 0.0, 1.0, -3.0, 4.0, u][code]
            };
            let (x, y) = (end(a, ua), end(b, ub));
            let (lo, hi) = (x.min(y), x.max(y));
            (lo, if flat == 0 { lo } else { hi })
        },
    )
}

/// Strategy: a selectivity that is exactly 0, exactly 1, or uniform.
fn feedback_selectivity() -> impl Strategy<Value = f64> {
    (0usize..3, 0.0f64..1.0).prop_map(|(code, u)| [0.0, 1.0, u][code])
}

/// Strategy: one feedback step — an index into the case's region pool
/// (so regions repeat), whether the feedback carries the model's own
/// estimate of the region, and the generated estimate and actual.
fn feedback_step() -> impl Strategy<Value = (usize, usize, f64, f64)> {
    (
        0usize..4,
        0usize..2,
        feedback_selectivity(),
        feedback_selectivity(),
    )
}

/// Every strict prefix of `json` (at a char boundary) fails `decode`.
fn assert_prefixes_rejected<T>(json: &str, decode: impl Fn(&str) -> Result<T, String>) {
    for (end, _) in json.char_indices() {
        assert!(
            decode(&json[..end]).is_err(),
            "accepted prefix {:?}",
            &json[..end]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The persisted formats round-trip bit for bit through the JSON
    /// codec, and no truncated encoding decodes. `{:?}` prints each
    /// finite float in its unique shortest round-trip form (-0.0
    /// included), so equal Debug output means equal bits.
    #[test]
    fn persisted_formats_roundtrip_bit_exactly(
        snapshot in snapshot_strategy(),
        profile in profile_strategy(),
    ) {
        let json = snapshot.to_json();
        let back = ModelSnapshot::from_json(&json).expect("snapshot decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{snapshot:?}"));
        assert_prefixes_rejected(&json, ModelSnapshot::from_json);

        let json = profile.to_json();
        let back = MeasuredProfile::from_json(&json).expect("profile decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{profile:?}"));
        assert_prefixes_rejected(&json, MeasuredProfile::from_json);
    }

    /// The KDE estimate is always a valid selectivity and is monotone under
    /// query growth, for any sample and any query.
    #[test]
    fn kde_estimates_are_valid_and_monotone(
        table in table_strategy(),
        q in rect_strategy(),
        grow in 0.0f64..20.0,
    ) {
        let sample: Vec<f64> = table.rows().flat_map(|(_, r)| r.to_vec()).collect();
        let mut est = KdeEstimator::new(
            Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let small = est.estimate(&q);
        let large = est.estimate(&q.inflated(grow));
        prop_assert!((0.0..=1.0).contains(&small));
        prop_assert!(large >= small - 1e-12);
    }

    /// True table selectivity is monotone under query growth and bounded by
    /// the estimate of the whole domain.
    #[test]
    fn table_selectivity_is_monotone(
        table in table_strategy(),
        q in rect_strategy(),
        grow in 0.0f64..20.0,
    ) {
        let small = table.selectivity(&q);
        let large = table.selectivity(&q.inflated(grow));
        prop_assert!(large >= small);
        prop_assert!((0.0..=1.0).contains(&small));
    }

    /// STHoles never breaks its structural invariants, whatever the query
    /// stream, and its estimates remain selectivities.
    #[test]
    fn stholes_invariants_hold_under_random_refinement(
        table in table_strategy(),
        queries in proptest::collection::vec(rect_strategy(), 1..15),
    ) {
        let mut hist = SthHoles::new(
            table.bounding_box().expect("non-empty"),
            table.row_count() as u64,
            SthConfig { max_buckets: 12 },
        );
        for q in &queries {
            let est = hist.estimate_selectivity(q);
            prop_assert!((0.0..=1.0).contains(&est));
            hist.refine(q, |r| table.count_in(r));
            prop_assert!(hist.bucket_count() <= 12);
            if let Err(e) = hist.check_invariants() {
                return Err(TestCaseError::fail(e));
            }
        }
    }

    /// A refined STHoles histogram answers the refining query (when
    /// repeated immediately) with low error.
    #[test]
    fn stholes_repeated_query_is_accurate(
        table in table_strategy(),
        q in rect_strategy(),
    ) {
        let mut hist = SthHoles::new(
            table.bounding_box().expect("non-empty"),
            table.row_count() as u64,
            SthConfig { max_buckets: 64 },
        );
        hist.refine(&q, |r| table.count_in(r));
        let est = hist.estimate_selectivity(&q);
        let truth = table.selectivity(&q);
        // One refinement drills exact counts; small residue can remain when
        // the candidate was shrunk around pre-existing children (none here,
        // fresh histogram), so this must be nearly exact.
        prop_assert!((est - truth).abs() < 1e-6, "est {} truth {}", est, truth);
    }

    /// No feedback sequence breaks the adaptive model: after every
    /// `observe` each bandwidth is finite and positive, and the model's
    /// checkpoint passes the serving layer's validation and round-trips
    /// through JSON bit for bit. The feedback covers zero-width and
    /// out-of-domain boxes, infinite bounds, selectivities of exactly 0
    /// and 1, and repeated regions; half of it carries the model's own
    /// estimate (the cached-gradient path), the rest a generated one
    /// against whatever the model last estimated (the recompute path).
    #[test]
    fn adaptive_feedback_keeps_the_model_valid(
        (seed, kernel, log_updates, mini_batch) in (0u64..1000, 0usize..2, 0usize..2, 1usize..4),
        regions in proptest::collection::vec(
            proptest::collection::vec(feedback_interval(), 2), 4),
        steps in proptest::collection::vec(feedback_step(), 1..40),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample: Vec<f64> = (0..32 * 2).map(|_| rng.gen_range(0.0..1.0)).collect();
        let kernel = [KernelFn::Gaussian, KernelFn::Epanechnikov][kernel];
        let adaptive = AdaptiveConfig {
            mini_batch,
            log_updates: log_updates == 1,
            ..AdaptiveConfig::default()
        };
        let mut model = AdaptiveKde::new(
            Device::new(Backend::CpuSeq), &sample, 2, kernel, adaptive, KarmaConfig::default());
        let regions: Vec<Rect> = regions.iter().map(|r| Rect::from_intervals(r)).collect();
        for (i, &(region, own, estimate, actual)) in steps.iter().enumerate() {
            let region = regions[region].clone();
            let estimate = if own == 1 { model.estimate(&region) } else { estimate };
            model.observe(&QueryFeedback {
                region,
                estimate,
                actual,
                cardinality: (actual * 32.0).round() as u64,
            });
            let bandwidth = model.model().bandwidth();
            prop_assert!(
                bandwidth.iter().all(|h| h.is_finite() && *h > 0.0),
                "step {i}: bandwidth {bandwidth:?}"
            );
            let snap = ModelSnapshot::of(model.model());
            prop_assert_eq!(snapshot::validate(&snap), Ok(()), "step {i}");
            let back = ModelSnapshot::from_json(&snap.to_json()).expect("snapshot decodes");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back.bandwidth), bits(&snap.bandwidth), "step {i}");
            prop_assert_eq!(bits(&back.sample), bits(&snap.sample), "step {i}");
            prop_assert_eq!((back.dims, &back.kernel), (snap.dims, &snap.kernel));
        }
    }

    /// The exact scan's fused device sweep is bitwise equal to the
    /// scalar host loop on every backend, including adversarial
    /// rectangles whose bounds sit exactly on data coordinates (the
    /// 0/1 containment indicator admits no rounding slack).
    #[test]
    fn exact_scan_matches_scalar_reference_bitwise(
        points in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0), 1..160),
        bounds in proptest::collection::vec((-10.0f64..110.0, -10.0f64..110.0), 3),
        snap_mask in 0u8..8,
        snap_index in 0usize..usize::MAX,
    ) {
        let dims = 3;
        let mut data = Vec::with_capacity(points.len() * dims);
        for (x, y, z) in &points {
            data.extend_from_slice(&[*x, *y, *z]);
        }
        let intervals: Vec<(f64, f64)> = (0..dims)
            .map(|d| {
                let (a, b) = bounds[d];
                let (mut lo, mut hi) = (a.min(b), a.max(b));
                if snap_mask & (1 << d) != 0 {
                    // Pin this dimension's bounds to an actual data
                    // coordinate: a zero-width boundary-equality box.
                    let row = snap_index % points.len();
                    lo = data[row * dims + d];
                    hi = lo;
                }
                (lo, hi)
            })
            .collect();
        let region = Rect::from_intervals(&intervals);
        let want = ExactScanEstimator::scalar_reference(&data, dims, &region);
        for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let est = ExactScanEstimator::new(Device::new(backend), &data, dims);
            let got = est.estimate(&region);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{:?}: {} vs {}", backend, got, want);
        }
    }

    /// The device layer is a pure executor: uploading and downloading any
    /// buffer roundtrips exactly on every backend.
    #[test]
    fn device_buffers_roundtrip(
        data in proptest::collection::vec(-1e9f64..1e9, 0..200),
    ) {
        for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let d = Device::new(backend);
            let buf = d.upload(&data);
            prop_assert_eq!(d.download(&buf), data.clone());
        }
    }
}
