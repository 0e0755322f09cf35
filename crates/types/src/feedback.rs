//! Query feedback records.
//!
//! After the database executes a range query, the estimator receives the
//! *true* selectivity alongside its own prediction. This triple drives both
//! self-tuning mechanisms of the paper: adaptive bandwidth learning (§4.1)
//! and Karma-based sample maintenance (§4.2).

use crate::rect::Rect;

/// Feedback for one executed range query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeedback {
    /// The queried region `Ω`.
    pub region: Rect,
    /// The selectivity the estimator predicted before execution, in `[0, 1]`.
    pub estimate: f64,
    /// The true selectivity `|σ_{x∈Ω}(R)| / |R|` observed after execution.
    pub actual: f64,
    /// Absolute number of qualifying tuples (redundant with `actual` given
    /// `|R|`, kept because STHoles consumes raw counts).
    pub cardinality: u64,
}

impl QueryFeedback {
    /// Signed estimation error `p̂(Ω) − p(Ω)`.
    #[inline]
    pub fn signed_error(&self) -> f64 {
        self.estimate - self.actual
    }

    /// Absolute selectivity estimation error — the paper's headline quality
    /// metric (Figures 4, 5, 6, 8).
    #[inline]
    pub fn absolute_error(&self) -> f64 {
        self.signed_error().abs()
    }
}

/// A labelled training/test query: region plus true selectivity. Used by the
/// batch bandwidth optimizer (§3.4) where the estimate is recomputed during
/// optimization and only the ground truth matters.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledQuery {
    /// The queried region `Ω`.
    pub region: Rect,
    /// True selectivity of the region.
    pub selectivity: f64,
}

impl LabelledQuery {
    /// Creates a labelled query.
    ///
    /// # Panics
    /// Panics if selectivity is outside `[0, 1]`.
    pub fn new(region: Rect, selectivity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&selectivity),
            "selectivity {selectivity} out of [0,1]"
        );
        Self {
            region,
            selectivity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_error_is_symmetric() {
        let feedback = |estimate| QueryFeedback {
            region: Rect::cube(1, 0.0, 1.0),
            estimate,
            actual: 0.3,
            cardinality: 30,
        };
        let (a, b) = (feedback(0.2), feedback(0.4));
        assert!((a.absolute_error() - b.absolute_error()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn labelled_query_validates() {
        LabelledQuery::new(Rect::cube(1, 0.0, 1.0), 1.5);
    }
}
