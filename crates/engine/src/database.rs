//! A small database facade: table + attached estimator + feedback loop.
//!
//! Packages the paper's Figure 3 lifecycle behind the interface a
//! downstream user actually wants: `analyze()` (collect the sample and
//! build the model, like Postgres' `ANALYZE`), `query()` (estimate →
//! execute → feed back), and mutation methods that keep the estimator's
//! maintenance machinery informed.

use crate::estimators::{AnyEstimator, BuildConfig, EstimatorKind};
use crate::session::{run_query, QueryOutcome};
use kdesel_storage::{sampling, Table};
use kdesel_types::{LabelledQuery, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A relation with an attached, self-maintaining selectivity estimator.
pub struct Database {
    table: Table,
    estimator: Option<AnyEstimator>,
    config: BuildConfig,
    kind: EstimatorKind,
    rng: StdRng,
}

impl Database {
    /// Creates an empty database with `dims` attributes. The estimator is
    /// built on the first [`analyze`](Self::analyze).
    pub fn new(dims: usize, kind: EstimatorKind, seed: u64) -> Self {
        Self {
            table: Table::new(dims),
            estimator: None,
            config: BuildConfig::paper_default(dims),
            kind,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Wraps an existing table.
    pub fn from_table(table: Table, kind: EstimatorKind, seed: u64) -> Self {
        let dims = table.dims();
        Self {
            table,
            estimator: None,
            config: BuildConfig::paper_default(dims),
            kind,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying relation.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Whether statistics exist.
    pub fn has_statistics(&self) -> bool {
        self.estimator.is_some()
    }

    /// Collects a fresh sample and (re)builds the estimator — the ANALYZE
    /// entry point (§5.2). `training` feeds workload-driven estimators
    /// (Batch, STHoles); pass `&[]` when none is available.
    ///
    /// # Panics
    /// Panics on an empty relation.
    pub fn analyze(&mut self, training: &[LabelledQuery]) {
        assert!(!self.table.is_empty(), "ANALYZE on an empty relation");
        let dims = self.table.dims();
        let points = self.config.sample_points(dims);
        let sample = sampling::sample_rows(&self.table, points, &mut self.rng);
        self.estimator = Some(AnyEstimator::build(
            self.kind,
            &self.table,
            &sample,
            training,
            &self.config,
            &mut self.rng,
        ));
    }

    /// Estimated selectivity without executing (the optimizer's view).
    ///
    /// # Panics
    /// Panics before the first [`analyze`](Self::analyze).
    pub fn estimate(&mut self, region: &Rect) -> f64 {
        self.estimator
            .as_mut()
            .expect("no statistics: run analyze() first")
            .estimate(region)
    }

    /// Runs a range query through the full lifecycle: estimate, execute,
    /// feed the truth back into the estimator.
    ///
    /// # Panics
    /// Panics before the first [`analyze`](Self::analyze).
    pub fn query(&mut self, region: &Rect) -> QueryOutcome {
        let estimator = self
            .estimator
            .as_mut()
            .expect("no statistics: run analyze() first");
        run_query(&self.table, estimator, region, &mut self.rng)
    }

    /// Inserts a row, notifying the estimator's reservoir path (§4.2).
    pub fn insert(&mut self, row: &[f64]) -> usize {
        let id = self.table.insert(row);
        if let Some(est) = self.estimator.as_mut() {
            est.handle_insert(row, &mut self.rng);
        }
        id
    }

    /// Deletes a row. The estimator learns about stale regions through
    /// subsequent query feedback (the Karma path) — exactly the paper's
    /// transfer-efficient design.
    pub fn delete(&mut self, row: usize) -> bool {
        self.table.delete(row)
    }

    /// Model memory in bytes (0 before analyze).
    pub fn statistics_bytes(&self) -> usize {
        self.estimator.as_ref().map_or(0, |e| e.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(kind: EstimatorKind) -> Database {
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 2_000, 1);
        let mut db = Database::from_table(table, kind, 7);
        db.analyze(&[]);
        db
    }

    #[test]
    fn analyze_then_query_lifecycle() {
        let mut db = loaded(EstimatorKind::Adaptive);
        assert!(db.has_statistics());
        assert!(db.statistics_bytes() > 0);
        let region = db.table().bounding_box().unwrap();
        let out = db.query(&region);
        assert_eq!(out.actual, 1.0);
        assert!(out.absolute_error() < 0.1);
    }

    #[test]
    fn inserts_and_deletes_flow_through() {
        let mut db = loaded(EstimatorKind::Adaptive);
        // Probe spans several bandwidths around the insertion point so the
        // kernel-smoothed mass is visible.
        let probe = Rect::cube(2, 460.0, 540.0);
        assert!(db.query(&probe).estimate < 0.01);
        let mut ids = Vec::new();
        for _ in 0..4000 {
            ids.push(db.insert(&[500.0, 500.0]));
        }
        // Reservoir refreshes the sample → the new mass becomes visible.
        let est_after_inserts = db.query(&probe).estimate;
        assert!(
            est_after_inserts > 0.2,
            "estimate {est_after_inserts} after mass insert"
        );
        for id in ids {
            assert!(db.delete(id));
        }
        // Karma-driven recovery through repeated feedback.
        let mut estimate = 1.0;
        for _ in 0..120 {
            estimate = db.query(&probe).estimate;
            if estimate < 0.02 {
                break;
            }
        }
        assert!(estimate < 0.02, "estimate {estimate} after delete+feedback");
    }

    #[test]
    fn reanalyze_rebuilds_statistics() {
        let mut db = loaded(EstimatorKind::Heuristic);
        // After re-ANALYZE the table is bimodal (clusters near [0,100]² and
        // the inserted mass at (500,500)), so Scott's bandwidth grows to
        // ≈75; the probe must span a few bandwidths around the new mode.
        let probe = Rect::cube(2, 300.0, 700.0);
        for _ in 0..3000 {
            db.insert(&[500.0, 500.0]);
        }
        // Heuristic has no maintenance: still stale...
        let stale = db.query(&probe).estimate;
        assert!(stale < 0.05, "estimate {stale}");
        // ...until ANALYZE rebuilds from a fresh sample.
        db.analyze(&[]);
        let fresh = db.query(&probe).estimate;
        assert!(fresh > 0.3, "estimate {fresh} after re-analyze");
    }

    #[test]
    #[should_panic(expected = "no statistics")]
    fn querying_without_statistics_panics() {
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 100, 2);
        let mut db = Database::from_table(table, EstimatorKind::Heuristic, 3);
        db.estimate(&Rect::cube(2, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "empty relation")]
    fn analyze_on_empty_relation_panics() {
        let mut db = Database::new(2, EstimatorKind::Heuristic, 4);
        db.analyze(&[]);
    }
}
