//! The accuracy-drift observatory: per-model online quality metrics.
//!
//! The paper's self-tuning claim (§4, Figure 8) is that feedback drives
//! the model *toward* the live workload; the observatory is how an
//! operator checks that on a deployed service. Every applied feedback
//! item yields one q-error observation — the standard multiplicative
//! error `max(p̂/p, p/p̂)` (smoothed like the paper's loss functions,
//! footnote 6) — tracked two ways per model:
//!
//! * a log-linear **histogram** (`serve.model.<label>.qerror`) over the
//!   model's lifetime, and
//! * **rolling-window gauges** (`…qerror_p50` / `p95` / `p99`) over the
//!   most recent [`WINDOW`] items, which is what reveals *drift*: the
//!   lifetime histogram stays flattering long after a workload shift,
//!   the window percentiles do not.
//!
//! Alongside accuracy, the observatory tracks the self-tuning machinery
//! itself: the bandwidth-vector L2 norm (`…bandwidth_l2`, the trajectory
//! RMSprop is steering) and Karma activity (`…feedback_total`,
//! `…replacements_total`). All metrics live in the global telemetry
//! registry, so they appear in `--metrics` tables and in the
//! Prometheus-style exposition snapshot.

use crate::model::ModelKey;
use kdesel_types::stats::nearest_rank;
use kdesel_types::{QueryFeedback, QERROR_SMOOTHING};
use std::collections::VecDeque;
use std::sync::Arc;

/// Rolling-window length for the drift percentiles.
pub const WINDOW: usize = 256;

/// Multiplicative q-error between an estimate and the observed truth,
/// smoothed so empty regions stay finite: `max((λ+p̂)/(λ+p), (λ+p)/(λ+p̂))`.
pub fn qerror(estimate: f64, actual: f64) -> f64 {
    let e = QERROR_SMOOTHING + estimate.max(0.0);
    let a = QERROR_SMOOTHING + actual.max(0.0);
    (e / a).max(a / e)
}

/// Per-model accuracy tracker, owned by the model's executor thread.
#[derive(Debug)]
pub(crate) struct Observatory {
    window: VecDeque<f64>,
    qerror_hist: Arc<kdesel_telemetry::Histogram>,
    p50: Arc<kdesel_telemetry::Gauge>,
    p95: Arc<kdesel_telemetry::Gauge>,
    p99: Arc<kdesel_telemetry::Gauge>,
    bandwidth_l2: Arc<kdesel_telemetry::Gauge>,
    feedback_total: Arc<kdesel_telemetry::Counter>,
    replacements_total: Arc<kdesel_telemetry::Counter>,
}

impl Observatory {
    pub(crate) fn new(key: &ModelKey) -> Self {
        let label = key.metric_label();
        let metric = |suffix: &str| format!("serve.model.{label}.{suffix}");
        Self {
            window: VecDeque::with_capacity(WINDOW),
            qerror_hist: kdesel_telemetry::histogram(&metric("qerror")),
            p50: kdesel_telemetry::gauge(&metric("qerror_p50")),
            p95: kdesel_telemetry::gauge(&metric("qerror_p95")),
            p99: kdesel_telemetry::gauge(&metric("qerror_p99")),
            bandwidth_l2: kdesel_telemetry::gauge(&metric("bandwidth_l2")),
            feedback_total: kdesel_telemetry::counter(&metric("feedback_total")),
            replacements_total: kdesel_telemetry::counter(&metric("replacements_total")),
        }
    }

    /// Folds one applied feedback item (and the post-update model state)
    /// into the metrics. Call gated on `kdesel_telemetry::enabled()` —
    /// the window percentile refresh sorts up to [`WINDOW`] floats.
    pub(crate) fn observe(&mut self, feedback: &QueryFeedback, bandwidth: &[f64], replaced: usize) {
        let q = qerror(feedback.estimate, feedback.actual);
        self.qerror_hist.record(q);
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(q);
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
        self.p50.set(nearest_rank(&sorted, 0.5));
        self.p95.set(nearest_rank(&sorted, 0.95));
        self.p99.set(nearest_rank(&sorted, 0.99));
        self.bandwidth_l2
            .set(bandwidth.iter().map(|h| h * h).sum::<f64>().sqrt());
        self.feedback_total.inc();
        self.replacements_total.add(replaced as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_types::Rect;

    fn feedback(estimate: f64, actual: f64) -> QueryFeedback {
        QueryFeedback {
            region: Rect::cube(1, 0.0, 1.0),
            estimate,
            actual,
            cardinality: 0,
        }
    }

    #[test]
    fn qerror_is_symmetric_and_at_least_one() {
        assert_eq!(qerror(0.5, 0.5), 1.0);
        let over = qerror(0.4, 0.1);
        let under = qerror(0.1, 0.4);
        assert_eq!(over, under);
        assert!((over - 4.0).abs() < 1e-4, "≈4x error, got {over}");
        // Empty regions stay finite thanks to smoothing.
        assert!(qerror(0.3, 0.0).is_finite());
        assert!(qerror(0.0, 0.0) >= 1.0);
    }

    #[test]
    fn window_percentiles_track_recent_accuracy() {
        kdesel_telemetry::registry().clear();
        let key = ModelKey::new("obs_test", &["x"]);
        let mut obs = Observatory::new(&key);
        // Accurate phase: q ≈ 1.
        for _ in 0..WINDOW {
            obs.observe(&feedback(0.2, 0.2), &[1.0, 2.0], 0);
        }
        let p99_before = kdesel_telemetry::gauge("serve.model.obs_test_x.qerror_p99").get();
        assert!(p99_before < 1.01, "accurate phase p99 {p99_before}");
        // Drift: the estimator is now 5x off. The window must notice.
        for _ in 0..WINDOW {
            obs.observe(&feedback(0.5, 0.1), &[1.0, 2.0], 1);
        }
        let p50 = kdesel_telemetry::gauge("serve.model.obs_test_x.qerror_p50").get();
        assert!((p50 - 5.0).abs() < 0.01, "drifted p50 {p50}");
        let l2 = kdesel_telemetry::gauge("serve.model.obs_test_x.bandwidth_l2").get();
        assert!((l2 - 5.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(
            kdesel_telemetry::registry()
                .counter("serve.model.obs_test_x.feedback_total")
                .get(),
            2 * WINDOW as u64
        );
        assert_eq!(
            kdesel_telemetry::registry()
                .counter("serve.model.obs_test_x.replacements_total")
                .get(),
            WINDOW as u64
        );
    }
}
