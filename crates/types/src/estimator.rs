//! The common estimator interface implemented by every technique compared in
//! the paper's evaluation (§6.1.1): the heuristic/SCV/batch/adaptive KDE
//! variants and the STHoles histogram.

use crate::feedback::QueryFeedback;
use crate::rect::Rect;

/// A multidimensional range-selectivity estimator.
///
/// The lifecycle mirrors the paper's query pipeline (Figure 3):
///
/// 1. the optimizer calls [`estimate`](Self::estimate) before execution,
/// 2. the executor runs the query and produces the true selectivity,
/// 3. the engine calls [`observe`](Self::observe) with the resulting
///    [`QueryFeedback`], which self-tuning estimators use to refine their
///    model (STHoles drills holes, the adaptive KDE updates its bandwidth
///    and Karma scores). Static estimators ignore it.
pub trait SelectivityEstimator {
    /// Estimates the fraction of tuples falling into `region`, in `[0, 1]`.
    fn estimate(&mut self, region: &Rect) -> f64;

    /// Delivers post-execution feedback for a query previously estimated.
    ///
    /// Implementations must tolerate feedback for queries they never saw
    /// (e.g. after a model rebuild).
    fn observe(&mut self, feedback: &QueryFeedback);

    /// Approximate model size in bytes, used to enforce the evaluation's
    /// `d · 4 KiB` fairness budget (§6.2).
    fn memory_bytes(&self) -> usize;

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &str;
}

/// Blanket impl so `Box<dyn SelectivityEstimator>` composes transparently.
impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    fn estimate(&mut self, region: &Rect) -> f64 {
        (**self).estimate(region)
    }
    fn observe(&mut self, feedback: &QueryFeedback) {
        (**self).observe(feedback)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Trivial estimator that always predicts a constant selectivity.
///
/// Useful as a control in tests and as the "no statistics" fallback a real
/// optimizer would use (Postgres defaults to a fixed fraction for range
/// predicates without statistics).
#[derive(Debug, Clone)]
pub struct ConstantEstimator {
    value: f64,
    name: String,
}

impl ConstantEstimator {
    /// Creates a constant estimator clamped to `[0, 1]`.
    pub fn new(value: f64) -> Self {
        Self {
            value: value.clamp(0.0, 1.0),
            name: format!("constant({value})"),
        }
    }
}

impl SelectivityEstimator for ConstantEstimator {
    fn estimate(&mut self, _region: &Rect) -> f64 {
        self.value
    }
    fn observe(&mut self, _feedback: &QueryFeedback) {}
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_estimator_is_constant_and_clamped() {
        let mut e = ConstantEstimator::new(2.0);
        assert_eq!(e.estimate(&Rect::cube(3, 0.0, 1.0)), 1.0);
        let mut e = ConstantEstimator::new(0.005);
        assert_eq!(e.estimate(&Rect::cube(1, -5.0, 5.0)), 0.005);
    }

    #[test]
    fn boxed_estimator_dispatches() {
        let mut e: Box<dyn SelectivityEstimator> = Box::new(ConstantEstimator::new(0.5));
        assert_eq!(e.estimate(&Rect::cube(2, 0.0, 1.0)), 0.5);
        assert_eq!(e.memory_bytes(), 8);
        e.observe(&QueryFeedback {
            region: Rect::cube(2, 0.0, 1.0),
            estimate: 0.5,
            actual: 0.5,
            cardinality: 1,
        });
        assert!(e.name().starts_with("constant"));
    }
}
