//! End-to-end tests for the estimator bake-off subsystem: router
//! determinism (a choice is a pure function of router state and modeled
//! costs), exact-scan bitwise equality with the scalar reference over
//! adversarial rectangles, and the hybrid estimator served behind
//! `kdesel-serve` with checkpoint round-trips and Prometheus counters.

use kdesel::device::{Backend, CostProfile, Device};
use kdesel::estimators::router::qerror;
use kdesel::estimators::{
    ExactScanEstimator, Family, HybridConfig, HybridEstimator, HybridRouter, RouterConfig,
};
use kdesel::serve::{CheckpointPolicy, ModelKey, ServeConfig, ServedModel, Service};
use kdesel::types::SelectivityEstimator;
use kdesel::{QueryFeedback, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn sample(points: usize, dims: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..points * dims)
        .map(|_| rng.gen_range(0.0..100.0))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdesel-bakeoff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A router decision is a pure function of (router state, modeled
    /// costs): two routers fed the same observation stream agree on
    /// every choice, and a third restored from a state snapshot picks
    /// up with the identical next choice.
    #[test]
    fn router_choice_is_a_pure_function_of_state_and_costs(
        observations in proptest::collection::vec(
            (0usize..2, 1.0f64..1e4, 0u8..2), 0..120),
        kde_cost in 1e-6f64..1e-2,
        exact_cost in 1e-6f64..1e-2,
    ) {
        let costs = [kde_cost, exact_cost];
        let config = RouterConfig { window: 16, ..RouterConfig::default() };
        let mut a = HybridRouter::new(config.clone());
        let mut b = HybridRouter::new(config.clone());
        for &(family, error, choose) in &observations {
            let family = Family::ALL[family];
            a.record(family, error);
            b.record(family, error);
            if choose == 1 {
                prop_assert_eq!(a.choose(&costs), b.choose(&costs));
            }
        }
        // A restored replica continues exactly where the original is.
        let mut c = HybridRouter::new(config);
        c.restore(&a.state()).expect("state round-trip");
        prop_assert_eq!(c.choose(&costs), a.choose(&costs));
        prop_assert_eq!(c.state(), a.state());
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

    /// The whole hybrid routes identically on every backend when the
    /// devices share one cost profile: estimates are bitwise equal and
    /// the decision streams match (the determinism the replay layer
    /// depends on).
    #[test]
    fn hybrid_routing_is_deterministic_across_backends(
        seed in 0u64..1_000,
        queries in proptest::collection::vec(
            (0.0f64..90.0, 0.0f64..90.0, 1.0f64..40.0), 1..12),
    ) {
        let dims = 2;
        let sample = sample(64, dims, seed);
        let config = HybridConfig::default();
        let profile = CostProfile::gtx460();
        let mut runs: Vec<(Vec<u64>, Vec<Family>)> = Vec::new();
        for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let device = Device::with_profile(backend, profile);
            let mut hybrid = HybridEstimator::from_sample(device, &sample, dims, &config);
            let mut estimates = Vec::new();
            let mut families = Vec::new();
            for &(x, y, w) in &queries {
                let region = Rect::from_intervals(&[(x, x + w), (y, y + w)]);
                let (estimate, family) = hybrid.estimate_routed(&region);
                estimates.push(estimate.to_bits());
                families.push(family);
                hybrid.observe(&QueryFeedback {
                    region,
                    estimate,
                    actual: (estimate * 0.5).min(1.0),
                    cardinality: 0,
                });
            }
            runs.push((estimates, families));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }
}

/// Serve a hybrid model, checkpoint it, restart from disk: the restored
/// service resumes the router state and the tuned KDE member, answering
/// follow-up queries bitwise identically to an in-process hybrid that
/// went through the same snapshot/restore cycle.
#[test]
fn hybrid_snapshot_roundtrip_through_serve() {
    let dims = 2;
    let sample = sample(96, dims, 11);
    let config = HybridConfig::default();
    let dir = temp_dir("roundtrip");
    let key = ModelKey::new("orders", &["price", "qty"]);
    let policy = CheckpointPolicy::in_dir(&dir);
    let build_service = || {
        Service::builder(ServeConfig {
            checkpoint: Some(policy.clone()),
            ..ServeConfig::default()
        })
        .register(
            key.clone(),
            ServedModel::hybrid(HybridEstimator::from_sample(
                Device::new(Backend::CpuSeq),
                &sample,
                dims,
                &config,
            )),
        )
        .build()
        .unwrap()
    };
    let mut rng = StdRng::seed_from_u64(12);
    let phase1: Vec<Rect> = (0..24)
        .map(|_| {
            let lo: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..60.0)).collect();
            Rect::from_intervals(&lo.iter().map(|&l| (l, l + 25.0)).collect::<Vec<_>>())
        })
        .collect();
    let phase2: Vec<Rect> = (0..12)
        .map(|_| {
            let lo: Vec<f64> = (0..dims).map(|_| rng.gen_range(10.0..70.0)).collect();
            Rect::from_intervals(&lo.iter().map(|&l| (l, l + 15.0)).collect::<Vec<_>>())
        })
        .collect();
    // Feedback that skews against whoever answered, so the router's
    // windows (and hence its post-restore choices) carry real signal.
    let truth =
        |estimate: f64, i: usize| (estimate * if i.is_multiple_of(3) { 0.2 } else { 0.9 }).min(1.0);

    // First life: serve phase 1 with feedback, then shut down (which
    // writes the checkpoint).
    let service = build_service();
    let handle = service.handle();
    for (i, region) in phase1.iter().enumerate() {
        let estimate = handle.estimate(&key, region).unwrap();
        handle
            .feedback(
                &key,
                QueryFeedback {
                    region: region.clone(),
                    estimate,
                    actual: truth(estimate, i),
                    cardinality: 0,
                },
            )
            .unwrap();
    }
    handle.flush(&key).unwrap();
    service.shutdown().unwrap();

    // Control: the same history driven directly through a hybrid, then
    // through its own snapshot/restore — exactly what the second life's
    // restore performs.
    let mut control =
        HybridEstimator::from_sample(Device::new(Backend::CpuSeq), &sample, dims, &config);
    for (i, region) in phase1.iter().enumerate() {
        let (estimate, _) = control.estimate_routed(region);
        control.observe(&QueryFeedback {
            region: region.clone(),
            estimate,
            actual: truth(estimate, i),
            cardinality: 0,
        });
    }
    let snapshot = control.snapshot();
    control.restore_from_snapshot(&snapshot).unwrap();
    let expected: Vec<u64> = phase2
        .iter()
        .map(|r| control.estimate_routed(r).0.to_bits())
        .collect();

    // Second life: a freshly registered hybrid is restored from disk and
    // must continue exactly where the control does.
    let service = build_service();
    let handle = service.handle();
    for (region, want) in phase2.iter().zip(&expected) {
        let got = handle.estimate(&key, region).unwrap();
        assert_eq!(
            got.to_bits(),
            *want,
            "restored hybrid diverged: {got} vs {}",
            f64::from_bits(*want)
        );
    }
    service.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The router's decision counters surface through the Prometheus text
/// exposition, per family, and feed the serve handle's snapshot.
#[test]
fn router_decision_counters_reach_prometheus() {
    kdesel::telemetry::set_enabled(true);
    let dims = 2;
    let sample = sample(64, dims, 21);
    let key = ModelKey::new("t", &["a", "b"]);
    let service = Service::builder(ServeConfig::default())
        .register(
            key.clone(),
            ServedModel::hybrid(HybridEstimator::from_sample(
                Device::new(Backend::CpuSeq),
                &sample,
                dims,
                &HybridConfig::default(),
            )),
        )
        .build()
        .unwrap();
    let handle = service.handle();
    for i in 0..20 {
        let lo = f64::from(i) * 2.0;
        handle
            .estimate(
                &key,
                &Rect::from_intervals(&[(lo, lo + 20.0), (lo, lo + 20.0)]),
            )
            .unwrap();
    }
    let text = handle.prometheus();
    service.shutdown().unwrap();
    kdesel::telemetry::set_enabled(false);
    assert!(
        text.contains("router_decisions_"),
        "no router decision counters in exposition:\n{text}"
    );
    // Every decision lands in exactly one per-family counter; at least
    // one of them must have counted the 20 estimates above.
    let total: u64 = ["kde", "exact"]
        .iter()
        .filter_map(|family| {
            text.lines()
                .find(|l| l.starts_with(&format!("kdesel_router_decisions_{family}")))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum();
    assert!(total >= 20, "decision counters sum {total} < 20");
}

/// Smoothed q-error sanity on the public helper: symmetric, ≥ 1, and
/// exactly 1 on perfect estimates (the gate metric of `bench_bakeoff`).
#[test]
fn qerror_is_symmetric_and_grounded() {
    assert_eq!(qerror(0.25, 0.25), 1.0);
    let over = qerror(0.5, 0.05);
    let under = qerror(0.05, 0.5);
    assert!((over - under).abs() < 1e-12);
    assert!(over > 1.0);
    assert!(qerror(0.0, 0.0) == 1.0);
}
