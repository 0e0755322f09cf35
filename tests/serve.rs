//! End-to-end tests for `kdesel-serve`: coalescing correctness (concurrent
//! results bit-identical to sequential estimates on every backend), launch
//! amortization (B requests → 1 fused launch), and warm-restart snapshot
//! round-trips.

use kdesel::device::{Backend, Device};
use kdesel::kde::{
    AdaptiveConfig, AdaptiveKde, KarmaConfig, KdeEstimator, KernelFn, ModelSnapshot,
};
use kdesel::serve::{
    CheckpointPolicy, ModelKey, ServeConfig, ServeError, ServeHandle, ServedModel, Service,
};
use kdesel::{QueryFeedback, Rect, SelectivityEstimator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Duration;

fn sample(points: usize, dims: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..points * dims)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect()
}

fn regions(count: usize, dims: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let intervals: Vec<(f64, f64)> = (0..dims)
                .map(|_| {
                    let lo = rng.gen_range(-0.2..0.9);
                    (lo, lo + rng.gen_range(0.05..0.6))
                })
                .collect();
            Rect::from_intervals(&intervals)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdesel-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// N producer threads hammering one model must each get results bitwise
/// equal to a sequential `estimate` loop — on every backend.
#[test]
fn concurrent_estimates_are_bit_identical_to_sequential() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 24;
    let dims = 3;
    let sample = sample(128, dims, 1);
    let queries = regions(PRODUCERS * PER_PRODUCER, dims, 2);
    for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
        // Sequential reference on a private model.
        let mut reference =
            KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
        let expected: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();

        let key = ModelKey::new("t", &["a", "b", "c"]);
        let service = Service::builder(ServeConfig::default())
            .register(
                key.clone(),
                ServedModel::fixed(KdeEstimator::new(
                    Device::new(backend),
                    &sample,
                    dims,
                    KernelFn::Gaussian,
                )),
            )
            .build()
            .unwrap();
        let handle = service.handle();
        let got: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let handle = handle.clone();
                    let key = &key;
                    let queries = &queries;
                    scope.spawn(move || {
                        (p * PER_PRODUCER..(p + 1) * PER_PRODUCER)
                            .map(|i| (i, handle.estimate(key, &queries[i]).unwrap()))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, value) in got.into_iter().flatten() {
            assert_eq!(
                value.to_bits(),
                expected[i].to_bits(),
                "{backend:?}: query {i} diverged ({value} vs {})",
                expected[i]
            );
        }
        let report = handle.report(&key).unwrap();
        assert_eq!(report.requests, (PRODUCERS * PER_PRODUCER) as u64);
        service.shutdown().unwrap();
    }
}

/// B asynchronous submissions with `max_batch == B` fuse into exactly one
/// `estimate_batch` launch: one bounds upload, one kernel, one download.
#[test]
fn coalesced_batch_is_one_fused_launch() {
    const B: usize = 16;
    let dims = 2;
    let sample = sample(256, dims, 3);
    let queries = regions(B, dims, 4);
    let key = ModelKey::new("t", &["a", "b"]);
    let service = Service::builder(ServeConfig {
        max_batch: B,
        max_wait: Duration::from_secs(5), // hold the batch until all B arrive
        ..ServeConfig::default()
    })
    .register(
        key.clone(),
        ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::SimGpu),
            &sample,
            dims,
            KernelFn::Gaussian,
        )),
    )
    .build()
    .unwrap();
    let handle = service.handle();
    let before = handle.report(&key).unwrap().device;
    let pending: Vec<_> = queries
        .iter()
        .map(|q| handle.submit(&key, q).unwrap())
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
    let report = handle.report(&key).unwrap();
    let delta_kernels = report.device.kernels - before.kernels;
    let delta_uploads = report.device.uploads - before.uploads;
    let delta_downloads = report.device.downloads - before.downloads;
    assert_eq!(delta_kernels, 1, "{B} requests must fuse into 1 launch");
    assert_eq!(delta_uploads, 1, "one bounds upload for the whole batch");
    assert_eq!(
        delta_downloads, 1,
        "one result download for the whole batch"
    );
    assert_eq!(report.batches, 1);
    assert_eq!(report.requests, B as u64);
    assert_eq!(report.max_batch_seen, B);
    assert!((report.coalescing_ratio() - B as f64).abs() < 1e-12);
    service.shutdown().unwrap();
}

/// The fixed gather: a worker whose producers cannot fill `max_batch`
/// holds every batch open for the whole `max_wait` window, so a lone
/// sequential caller waits out `max_wait` on each request.
#[test]
fn starved_batches_wait_out_max_wait() {
    let dims = 2;
    let sample = sample(128, dims, 9);
    let queries = regions(6, dims, 10);
    let key = ModelKey::new("t", &["a", "b"]);
    let max_wait = Duration::from_millis(40);
    let service = Service::builder(ServeConfig {
        max_batch: 16, // far above what one sequential caller can fill
        max_wait,
        ..ServeConfig::default()
    })
    .register(
        key.clone(),
        ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::CpuSeq),
            &sample,
            dims,
            KernelFn::Gaussian,
        )),
    )
    .build()
    .unwrap();
    let handle = service.handle();
    let started = std::time::Instant::now();
    for q in &queries {
        handle.estimate(&key, q).unwrap();
    }
    let elapsed = started.elapsed();
    service.shutdown().unwrap();
    assert!(
        elapsed >= max_wait * (queries.len() as u32 - 1),
        "each starved batch should be held for max_wait ({elapsed:?})"
    );
}

/// Serve a workload, checkpoint, restart from disk: the restored service
/// must produce bit-identical estimates. Covers both the explicit
/// checkpoint and the implicit shutdown checkpoint.
#[test]
fn snapshot_round_trip_preserves_estimates_bitwise() {
    let dims = 2;
    let sample = sample(128, dims, 5);
    let queries = regions(32, dims, 6);
    let dir = temp_dir("roundtrip");
    let key = ModelKey::new("orders", &["price", "qty"]);
    let policy = CheckpointPolicy::in_dir(&dir);
    let build = |tuned_bandwidth: Option<Vec<f64>>| {
        let mut estimator = KdeEstimator::new(
            Device::new(Backend::CpuPar),
            &sample,
            dims,
            KernelFn::Gaussian,
        );
        if let Some(bw) = tuned_bandwidth {
            estimator.set_bandwidth(bw);
        }
        Service::builder(ServeConfig {
            checkpoint: Some(policy.clone()),
            ..ServeConfig::default()
        })
        .register(key.clone(), ServedModel::fixed(estimator))
        .build()
        .unwrap()
    };

    // First life: a hand-tuned bandwidth stands in for adaptive tuning.
    let tuned = vec![0.123_456_789, 0.987_654_321];
    let service = build(Some(tuned.clone()));
    let handle = service.handle();
    let first_life: Vec<f64> = queries
        .iter()
        .map(|q| handle.estimate(&key, q).unwrap())
        .collect();
    handle.checkpoint(&key).unwrap();
    service.shutdown().unwrap(); // also writes the shutdown checkpoint

    // Second life: registered with the UNtuned default bandwidth; restore
    // must bring back the tuned one from disk.
    let service = build(None);
    let handle = service.handle();
    let report = handle.report(&key).unwrap();
    assert_eq!(report.bandwidth, tuned, "restored bandwidth");
    for (q, expected) in queries.iter().zip(&first_life) {
        let restored = handle.estimate(&key, q).unwrap();
        assert_eq!(
            restored.to_bits(),
            expected.to_bits(),
            "restored estimate diverged"
        );
    }
    service.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serve an adaptive model with feedback, checkpoint it at shutdown and
/// restart from disk: the restored service continues bit for bit where an
/// in-process model does that saw the same history and went through the
/// same snapshot/restore cycle — on estimates and on the bandwidth its
/// feedback tunes.
#[test]
fn adaptive_snapshot_roundtrip_through_serve() {
    let dims = 2;
    let sample = sample(96, dims, 11);
    let dir = temp_dir("adaptive-roundtrip");
    let key = ModelKey::new("orders", &["price", "qty"]);
    let policy = CheckpointPolicy::in_dir(&dir);
    let model = || {
        AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample,
            dims,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        )
    };
    let build_service = || {
        Service::builder(ServeConfig {
            checkpoint: Some(policy.clone()),
            ..ServeConfig::default()
        })
        .register(key.clone(), ServedModel::adaptive(model()))
        .build()
        .unwrap()
    };
    let phase1 = regions(24, dims, 12);
    let phase2 = regions(24, dims, 13);
    // Feedback that skews against the estimate, so tuning moves the
    // bandwidth.
    let feedback = |region: &Rect, estimate: f64, i: usize| QueryFeedback {
        region: region.clone(),
        estimate,
        actual: (estimate * if i.is_multiple_of(3) { 0.2 } else { 0.9 }).min(1.0),
        cardinality: 0,
    };
    // The served loop: estimate, feed back, and wait until the feedback
    // is applied, so the executor interleaves exactly like `control`.
    let serve = |handle: &ServeHandle, region: &Rect, i: usize| {
        let estimate = handle.estimate(&key, region).unwrap();
        handle
            .feedback(&key, feedback(region, estimate, i))
            .unwrap();
        handle.flush(&key).unwrap();
        estimate
    };
    // The same loop in process, with the serve executor's feedback step:
    // re-prime the fused sweep for the region, observe, and drop the
    // slots Karma flags (there is no refresh source).
    let control_step = |control: &mut AdaptiveKde, region: &Rect, i: usize| {
        let estimate = control.estimate(region);
        let feedback = feedback(region, estimate, i);
        let _ = control.estimate(&feedback.region);
        control.observe(&feedback);
        let _ = control.take_pending_replacements();
        estimate
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // First life: serve phase 1 with feedback, then shut down (which
    // writes the checkpoint).
    let service = build_service();
    let handle = service.handle();
    for (i, region) in phase1.iter().enumerate() {
        serve(&handle, region, i);
    }
    service.shutdown().unwrap();

    // Control: the same history in process, then the restore the second
    // life performs.
    let mut control = model();
    for (i, region) in phase1.iter().enumerate() {
        control_step(&mut control, region, i);
    }
    let snapshot = ModelSnapshot::of(control.model());
    let mut control = AdaptiveKde::from_estimator(
        snapshot.restore(Device::new(Backend::CpuSeq)),
        AdaptiveConfig::default(),
        KarmaConfig::default(),
    );

    // Second life: a freshly registered model is restored from disk with
    // the tuned bandwidth and must continue exactly where the control
    // does.
    let service = build_service();
    let handle = service.handle();
    let restored = handle.report(&key).unwrap().bandwidth;
    assert_eq!(bits(&restored), bits(control.model().bandwidth()));
    assert_ne!(
        bits(&restored),
        bits(model().model().bandwidth()),
        "phase 1 must tune the bandwidth off its default"
    );
    for (i, region) in phase2.iter().enumerate() {
        let got = serve(&handle, region, i);
        let want = control_step(&mut control, region, i);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "query {i}: restored model diverged: {got} vs {want}"
        );
        assert_eq!(
            bits(&handle.report(&key).unwrap().bandwidth),
            bits(control.model().bandwidth()),
            "query {i}: bandwidth diverged"
        );
    }
    service.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint must fail the build loudly (never a silent cold
/// start), and `ModelSnapshot::from_json` must reject malformed JSON.
#[test]
fn malformed_snapshots_are_rejected() {
    let dims = 2;
    let sample = sample(32, dims, 7);
    let dir = temp_dir("malformed");
    let key = ModelKey::new("orders", &["price", "qty"]);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        kdesel::serve::snapshot::snapshot_path(&dir, &key),
        "{\"sample\":[0.1,0.2],\"dims\":1,", // truncated mid-object
    )
    .unwrap();
    let result = Service::builder(ServeConfig {
        checkpoint: Some(CheckpointPolicy::in_dir(&dir)),
        ..ServeConfig::default()
    })
    .register(
        key.clone(),
        ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::CpuSeq),
            &sample,
            dims,
            KernelFn::Gaussian,
        )),
    )
    .build();
    match result {
        Err(ServeError::Snapshot(what)) => {
            assert!(what.contains("malformed"), "unexpected message {what:?}")
        }
        Err(other) => panic!("wrong error for malformed checkpoint: {other}"),
        Ok(_) => panic!("malformed checkpoint accepted"),
    }
    // The same classes of corruption via the JSON API directly.
    for bad in [
        "",
        "{",
        "{\"dims\":2}",
        "{\"sample\":[1.0],\"dims\":1,\"kernel\":\"gaussian\",\"bandwidth\":[1.0]}trailing",
        "{\"mystery\":1}",
        "{\"sample\":[0.1,0.2,0.3,0.4],\"dims\":2.9,\"kernel\":\"gaussian\",\"bandwidth\":[0.5,0.6]}",
        // A checkpoint carrying the retired hybrid router's state.
        "{\"sample\":[0.1,0.2],\"dims\":1,\"kernel\":\"gaussian\",\"bandwidth\":[0.5],\"router\":{\"families\":[\"kde\",\"exact\"],\"windows\":[[1.5],[]],\"decisions\":[1,0],\"last\":\"kde\"}}",
    ] {
        assert!(ModelSnapshot::from_json(bad).is_err(), "accepted {bad:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submitting through the service must error cleanly (not hang, not panic)
/// on unknown keys and dimension mismatches.
#[test]
fn request_validation_errors_are_clean() {
    let dims = 2;
    let sample = sample(32, dims, 8);
    let key = ModelKey::new("t", &["a", "b"]);
    let service = Service::builder(ServeConfig::default())
        .register(
            key.clone(),
            ServedModel::fixed(KdeEstimator::new(
                Device::new(Backend::CpuSeq),
                &sample,
                dims,
                KernelFn::Gaussian,
            )),
        )
        .build()
        .unwrap();
    let handle = service.handle();
    let unknown = ModelKey::new("nope", &["a"]);
    assert!(matches!(
        handle.estimate(&unknown, &Rect::cube(2, 0.0, 1.0)),
        Err(ServeError::UnknownModel(_))
    ));
    assert!(matches!(
        handle.estimate(&key, &Rect::cube(3, 0.0, 1.0)),
        Err(ServeError::DimensionMismatch {
            expected: 2,
            got: 3
        })
    ));
    assert_eq!(handle.dims(&key).unwrap(), 2);
    assert_eq!(handle.keys(), vec![key.clone()]);
    service.shutdown().unwrap();
    // After shutdown the handle reports Disconnected instead of hanging.
    assert!(matches!(
        handle.estimate(&key, &Rect::cube(2, 0.0, 1.0)),
        Err(ServeError::Disconnected(_))
    ));
}

/// Feedback whose selectivities are NaN, infinite or outside `[0, 1]`
/// is refused at the front door with a typed error. One NaN reaching the
/// adaptive tuner would make its RMSprop state NaN, after which every step
/// is zero and healthy feedback never moves the bandwidth again.
#[test]
fn invalid_feedback_is_rejected_and_tuning_continues() {
    let dims = 2;
    let key = ModelKey::new("t", &["a", "b"]);
    let service = Service::builder(ServeConfig::default())
        .register(
            key.clone(),
            ServedModel::adaptive(AdaptiveKde::new(
                Device::new(Backend::CpuSeq),
                &sample(512, dims, 41),
                dims,
                KernelFn::Gaussian,
                AdaptiveConfig::default(),
                KarmaConfig::default(),
            )),
        )
        .build()
        .unwrap();
    let handle = service.handle();
    let region = Rect::from_intervals(&[(0.1, 0.4), (0.1, 0.4)]);
    let feedback = |estimate: f64, actual: f64| QueryFeedback {
        region: region.clone(),
        estimate,
        actual,
        cardinality: 0,
    };
    let initial = handle.report(&key).unwrap().bandwidth;

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.5] {
        for rejected in [feedback(bad, 0.3), feedback(0.05, bad)] {
            assert!(
                matches!(
                    handle.feedback(&key, rejected),
                    Err(ServeError::InvalidInput(_))
                ),
                "feedback with {bad} accepted"
            );
        }
    }
    handle.flush(&key).unwrap();
    assert_eq!(handle.report(&key).unwrap().bandwidth, initial);

    for _ in 0..3 * AdaptiveConfig::default().mini_batch {
        let estimate = handle.estimate(&key, &region).unwrap();
        handle
            .feedback(&key, feedback(estimate, (estimate + 0.3).min(1.0)))
            .unwrap();
        handle.flush(&key).unwrap();
    }
    let tuned = handle.report(&key).unwrap().bandwidth;
    assert!(tuned.iter().all(|h| h.is_finite() && *h > 0.0), "{tuned:?}");
    let moved = tuned.iter().zip(&initial).map(|(t, h)| (t / h).ln().abs());
    assert!(
        moved.fold(0.0, f64::max) > 0.1,
        "healthy feedback must still step the bandwidth: {initial:?} -> {tuned:?}"
    );
    service.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized coalescing correctness: arbitrary sample, arbitrary
    /// query set, three backends, concurrent producers — always bitwise
    /// equal to the sequential loop.
    #[test]
    fn serve_matches_sequential_for_random_workloads(
        seed in 0u64..1000,
        points in 16usize..64,
        query_count in 4usize..24,
        max_batch in 1usize..9,
    ) {
        let dims = 2;
        let sample = sample(points, dims, seed);
        let queries = regions(query_count, dims, seed.wrapping_add(1));
        for backend in [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu] {
            let mut reference =
                KdeEstimator::new(Device::new(backend), &sample, dims, KernelFn::Gaussian);
            let expected: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();
            let key = ModelKey::new("t", &["a", "b"]);
            let service = Service::builder(ServeConfig {
                max_batch,
                max_wait: Duration::from_micros(50),
                ..ServeConfig::default()
            })
            .register(
                key.clone(),
                ServedModel::fixed(KdeEstimator::new(
                    Device::new(backend),
                    &sample,
                    dims,
                    KernelFn::Gaussian,
                )),
            )
            .build()
            .unwrap();
            let handle = service.handle();
            let got: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..3)
                    .map(|p| {
                        let handle = handle.clone();
                        let key = &key;
                        let queries = &queries;
                        scope.spawn(move || {
                            queries
                                .iter()
                                .enumerate()
                                .skip(p)
                                .step_by(3)
                                .map(|(i, q)| (i, handle.estimate(key, q).unwrap()))
                                .collect()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for (i, value) in got.into_iter().flatten() {
                prop_assert_eq!(
                    value.to_bits(),
                    expected[i].to_bits(),
                    "{:?} max_batch={}: query {} diverged",
                    backend, max_batch, i
                );
            }
            service.shutdown().unwrap();
        }
    }
}
