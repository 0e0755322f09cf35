//! Release-mode threaded stress test, run by `scripts/check.sh` via
//! `cargo test --release -- --ignored`. Many producers, mixed
//! estimate/feedback traffic, mid-flight checkpoints and reports — the
//! service must stay correct (every reply in [0, 1], every request
//! answered) and drain cleanly.

use kdesel_device::{Backend, Device};
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KdeEstimator, KernelFn};
use kdesel_serve::{CheckpointPolicy, ModelKey, ServeConfig, ServedModel, Service};
use kdesel_types::{QueryFeedback, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

#[test]
#[ignore = "heavy: run explicitly (check.sh runs it in release mode)"]
fn mixed_traffic_stress_drains_cleanly() {
    const PRODUCERS: usize = 16;
    const OPS_PER_PRODUCER: usize = 400;
    let dims = 3;
    let mut rng = StdRng::seed_from_u64(42);
    let sample: Vec<f64> = (0..512 * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
    let dir = std::env::temp_dir().join(format!("kdesel-serve-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fixed_key = ModelKey::new("fixed", &["a", "b", "c"]);
    let adaptive_key = ModelKey::new("adaptive", &["a", "b", "c"]);
    let service = Service::builder(ServeConfig {
        max_batch: 32,
        max_wait: Duration::from_micros(100),
        checkpoint: Some(CheckpointPolicy::in_dir(&dir).every(Duration::from_millis(20))),
        ..ServeConfig::default()
    })
    .register(
        fixed_key.clone(),
        ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::CpuPar),
            &sample,
            dims,
            KernelFn::Gaussian,
        )),
    )
    .register(
        adaptive_key.clone(),
        ServedModel::adaptive(AdaptiveKde::new(
            Device::new(Backend::SimGpu),
            &sample,
            dims,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        )),
    )
    .build()
    .unwrap();
    let handle = service.handle();

    let answered: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let handle = handle.clone();
                let fixed_key = &fixed_key;
                let adaptive_key = &adaptive_key;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + p as u64);
                    let mut answered = 0u64;
                    for op in 0..OPS_PER_PRODUCER {
                        let key = if op % 2 == 0 { fixed_key } else { adaptive_key };
                        let intervals: Vec<(f64, f64)> = (0..3)
                            .map(|_| {
                                let lo = rng.gen_range(-0.1..0.8);
                                (lo, lo + rng.gen_range(0.05..0.5))
                            })
                            .collect();
                        let region = Rect::from_intervals(&intervals);
                        let estimate = handle.estimate(key, &region).unwrap();
                        assert!(
                            (0.0..=1.0).contains(&estimate),
                            "estimate {estimate} out of range"
                        );
                        answered += 1;
                        // A third of the traffic feeds back; some producers
                        // interleave reports and explicit checkpoints.
                        if op % 3 == 0 {
                            handle
                                .feedback(
                                    key,
                                    QueryFeedback {
                                        region,
                                        estimate,
                                        actual: rng.gen_range(0.0..1.0),
                                        cardinality: 0,
                                    },
                                )
                                .unwrap();
                        }
                        if p == 0 && op % 100 == 0 {
                            handle.checkpoint(key).unwrap();
                        }
                        if p == 1 && op % 50 == 0 {
                            let _ = handle.report(key).unwrap();
                        }
                    }
                    answered
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(answered, (PRODUCERS * OPS_PER_PRODUCER) as u64);

    for key in [&fixed_key, &adaptive_key] {
        handle.flush(key).unwrap();
        let report = handle.report(key).unwrap();
        assert_eq!(report.requests, answered / 2);
        assert_eq!(report.backlog, 0, "flush left a backlog");
        assert!(report.batches <= report.requests);
    }
    // The adaptive model must actually have consumed feedback.
    let adaptive_report = handle.report(&adaptive_key).unwrap();
    assert!(
        adaptive_report.maintenance_applied > 0,
        "no maintenance ran"
    );

    service.shutdown().unwrap();
    // Shutdown checkpoints exist for both models and are restorable.
    for key in [&fixed_key, &adaptive_key] {
        let snap = kdesel_serve::snapshot::load(&dir, key)
            .unwrap()
            .expect("shutdown checkpoint missing");
        assert_eq!(snap.dims, dims);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
