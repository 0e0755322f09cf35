//! The one estimator interface the engine dispatches through, implemented
//! by every technique compared in the paper's evaluation (§6.1.1): the
//! static and self-tuning KDE models, STHoles, and the §2 baselines.

use crate::feedback::QueryFeedback;
use crate::rect::Rect;

/// A multidimensional range-selectivity estimator.
///
/// The lifecycle mirrors the paper's query pipeline (Figure 3):
///
/// 1. the optimizer calls [`estimate`](Self::estimate) before execution,
/// 2. the executor runs the query and produces the true selectivity,
/// 3. the engine calls [`maintain`](Self::maintain) with the resulting
///    [`QueryFeedback`] and the live [`Relation`], which self-tuning
///    estimators use to refine their model (STHoles drills holes with
///    exact counts, the adaptive KDE updates its bandwidth and Karma
///    scores and refills flagged slots with fresh tuples). Static
///    estimators ignore it.
///
/// Inserted tuples reach the model through [`insert`](Self::insert), the
/// §4.2 reservoir path; only the adaptive KDE reacts.
pub trait SelectivityEstimator {
    /// Estimates the fraction of tuples falling into `region`, in `[0, 1]`.
    fn estimate(&mut self, region: &Rect) -> f64;

    /// Delivers post-execution feedback for a query previously estimated,
    /// with the relation it ran against.
    ///
    /// Implementations must tolerate feedback for queries they never saw
    /// (e.g. after a model rebuild).
    fn maintain(&mut self, _feedback: &QueryFeedback, _relation: &mut dyn Relation) {}

    /// Notifies the model of a tuple inserted into the relation.
    /// `draw(n)` returns a uniform draw from `0..n`, the reservoir's one
    /// random decision per insert.
    fn insert(&mut self, _row: &[f64], _draw: &mut dyn FnMut(u64) -> u64) {}

    /// Approximate model size in bytes, used to enforce the evaluation's
    /// `d · 4 KiB` fairness budget (§6.2).
    fn memory_bytes(&self) -> usize;
}

/// The host relation an estimator maintains itself against: the two roles
/// the paper takes from Postgres during maintenance.
pub trait Relation {
    /// Exact number of live tuples inside `region` (STHoles' per-hole
    /// counts, taken from the executed query's tuple stream).
    fn count_in(&mut self, region: &Rect) -> u64;

    /// One uniformly drawn live tuple, or `None` when the relation is
    /// empty (Karma's replacement tuples, §4.2).
    fn sample_row(&mut self) -> Option<Vec<f64>>;
}

/// Blanket impl so `Box<dyn SelectivityEstimator>` composes transparently.
impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    fn estimate(&mut self, region: &Rect) -> f64 {
        (**self).estimate(region)
    }
    fn maintain(&mut self, feedback: &QueryFeedback, relation: &mut dyn Relation) {
        (**self).maintain(feedback, relation)
    }
    fn insert(&mut self, row: &[f64], draw: &mut dyn FnMut(u64) -> u64) {
        (**self).insert(row, draw)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Estimates the sum of what its maintenance calls handed it.
    struct Counting(u64);

    impl SelectivityEstimator for Counting {
        fn estimate(&mut self, _region: &Rect) -> f64 {
            self.0 as f64
        }
        fn maintain(&mut self, feedback: &QueryFeedback, relation: &mut dyn Relation) {
            self.0 += relation.count_in(&feedback.region);
        }
        fn insert(&mut self, _row: &[f64], draw: &mut dyn FnMut(u64) -> u64) {
            self.0 += draw(10);
        }
        fn memory_bytes(&self) -> usize {
            8
        }
    }

    struct Fixed;

    impl Relation for Fixed {
        fn count_in(&mut self, _region: &Rect) -> u64 {
            3
        }
        fn sample_row(&mut self) -> Option<Vec<f64>> {
            None
        }
    }

    fn feedback() -> QueryFeedback {
        QueryFeedback {
            region: Rect::cube(2, 0.0, 1.0),
            estimate: 0.5,
            actual: 0.5,
            cardinality: 1,
        }
    }

    #[test]
    fn boxed_estimator_dispatches() {
        let region = Rect::cube(2, 0.0, 1.0);
        let mut e: Box<dyn SelectivityEstimator> = Box::new(Counting(0));
        assert_eq!(e.memory_bytes(), 8);
        e.maintain(&feedback(), &mut Fixed);
        e.insert(&[1.0, 2.0], &mut |n| n - 1);
        assert_eq!(e.estimate(&region), 12.0);
        // A box of a box forwards through both.
        let mut outer = Box::new(e);
        outer.maintain(&feedback(), &mut Fixed);
        assert_eq!(outer.estimate(&region), 15.0);
    }

    #[test]
    fn static_estimators_ignore_maintenance() {
        struct Static;
        impl SelectivityEstimator for Static {
            fn estimate(&mut self, _region: &Rect) -> f64 {
                0.25
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let mut e = Static;
        e.maintain(&feedback(), &mut Fixed);
        e.insert(&[0.0], &mut |_| panic!("a static model draws nothing"));
        assert_eq!(e.estimate(&Rect::cube(1, 0.0, 1.0)), 0.25);
    }
}
