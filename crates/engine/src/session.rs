//! The query lifecycle (paper Figure 3 / Listing 1 lines 5-9).

use kdesel_storage::{sampling, Table};
use kdesel_telemetry::Event;
use kdesel_types::{QueryFeedback, Rect, Relation, SelectivityEstimator};
use rand::Rng;

/// Outcome of one estimated-then-executed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The estimator's prediction.
    pub estimate: f64,
    /// True selectivity from execution.
    pub actual: f64,
    /// Qualifying tuple count.
    pub cardinality: u64,
}

impl QueryOutcome {
    /// Absolute selectivity estimation error — the paper's headline metric.
    pub fn absolute_error(&self) -> f64 {
        (self.estimate - self.actual).abs()
    }
}

/// The live table as an estimator's maintenance sees it: exact counts,
/// and uniform draws of fresh tuples from the session's rng.
struct LiveTable<'a, R: ?Sized> {
    table: &'a Table,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> Relation for LiveTable<'_, R> {
    fn count_in(&mut self, region: &Rect) -> u64 {
        self.table.count_in(region)
    }

    fn sample_row(&mut self) -> Option<Vec<f64>> {
        sampling::sample_one(self.table, self.rng)
    }
}

/// Runs one query through the full lifecycle: estimate, execute (full
/// scan), feed back. Self-tuning estimators update themselves inside
/// [`SelectivityEstimator::maintain`], against `table` and with fresh
/// tuples drawn by `rng`.
pub fn run_query<R: Rng + ?Sized>(
    table: &Table,
    estimator: &mut dyn SelectivityEstimator,
    region: &Rect,
    rng: &mut R,
) -> QueryOutcome {
    let span = kdesel_telemetry::span("engine.query_seconds");
    let estimate = estimator.estimate(region);
    let cardinality = table.count_in(region);
    let actual = if table.row_count() == 0 {
        0.0
    } else {
        cardinality as f64 / table.row_count() as f64
    };
    let feedback = QueryFeedback {
        region: region.clone(),
        estimate,
        actual,
        cardinality,
    };
    estimator.maintain(&feedback, &mut LiveTable { table, rng });
    drop(span);
    if kdesel_telemetry::tracing() {
        kdesel_telemetry::emit_event(
            Event::new("query")
                .f64("estimate", estimate)
                .f64("actual", actual)
                .f64("abs_error", (estimate - actual).abs())
                .u64("cardinality", cardinality),
        );
    }
    QueryOutcome {
        estimate,
        actual,
        cardinality,
    }
}

/// Runs one query through a [`kdesel_serve::ServeHandle`] instead of a
/// locally-owned estimator — the serving layer as a drop-in for the
/// synchronous loop above. The estimate may be coalesced with concurrent
/// submissions (bit-identical results either way); the trailing
/// [`flush`](kdesel_serve::ServeHandle::flush) barrier waits for the
/// maintenance worker to apply this query's feedback, reproducing strict
/// Listing-1 ordering. Callers that prefer throughput over strict
/// ordering should use the handle directly and skip the flush.
pub fn run_query_via(
    table: &Table,
    serve: &kdesel_serve::ServeHandle,
    key: &kdesel_serve::ModelKey,
    region: &Rect,
) -> Result<QueryOutcome, kdesel_serve::ServeError> {
    let span = kdesel_telemetry::span("engine.query_seconds");
    // Keep the trace ID from submission so the feedback joins the same
    // span tree (front door → batch → launch → feedback).
    let pending = serve.submit(key, region)?;
    let trace = pending.trace();
    let estimate = pending.wait()?;
    let cardinality = table.count_in(region);
    let actual = if table.row_count() == 0 {
        0.0
    } else {
        cardinality as f64 / table.row_count() as f64
    };
    serve.feedback_traced(
        key,
        QueryFeedback {
            region: region.clone(),
            estimate,
            actual,
            cardinality,
        },
        trace,
    )?;
    serve.flush(key)?;
    drop(span);
    if kdesel_telemetry::tracing() {
        kdesel_telemetry::emit_event(
            Event::new("query")
                .f64("estimate", estimate)
                .f64("actual", actual)
                .f64("abs_error", (estimate - actual).abs())
                .u64("cardinality", cardinality)
                .u64("trace", trace)
                .str("via", "serve"),
        );
    }
    Ok(QueryOutcome {
        estimate,
        actual,
        cardinality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{BuildConfig, EstimatorKind};
    use kdesel_kde::AdaptiveKde;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lifecycle_produces_consistent_feedback() {
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 1000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = sampling::sample_rows(&table, 64, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = EstimatorKind::Heuristic.build(&table, &sample, &[], &config, &mut rng);
        // Inflate the region by a few bandwidths so kernel mass leaking
        // past the data's bounding box stays inside the query.
        let region = table.bounding_box().unwrap().inflated(60.0);
        let outcome = run_query(&table, &mut e, &region, &mut rng);
        assert_eq!(outcome.cardinality, 1000);
        assert_eq!(outcome.actual, 1.0);
        assert!(outcome.absolute_error() < 0.05);
    }

    #[test]
    fn run_query_emits_one_consistent_trace_event() {
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 500, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = sampling::sample_rows(&table, 32, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut e = EstimatorKind::Heuristic.build(&table, &sample, &[], &config, &mut rng);
        let ring = std::sync::Arc::new(kdesel_telemetry::RingSink::with_capacity(16));
        kdesel_telemetry::set_sink(Some(ring.clone()));
        kdesel_telemetry::set_enabled(true);
        let region = table.bounding_box().unwrap().inflated(1.0);
        let outcome = run_query(&table, &mut e, &region, &mut rng);
        kdesel_telemetry::set_enabled(false);
        kdesel_telemetry::set_sink(None);

        let events: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|ev| ev.name == "query")
            .collect();
        assert_eq!(events.len(), 1, "exactly one query event per run_query");
        let ev = &events[0];
        assert_eq!(ev.get_f64("estimate"), Some(outcome.estimate));
        assert_eq!(ev.get_f64("actual"), Some(outcome.actual));
        assert_eq!(ev.get_f64("abs_error"), Some(outcome.absolute_error()));
        assert_eq!(ev.get_u64("cardinality"), Some(outcome.cardinality));
    }

    #[test]
    fn run_query_via_serve_is_a_drop_in_for_static_models() {
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 1200, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let sample = sampling::sample_rows(&table, 64, &mut rng);
        let config = BuildConfig::paper_default(2);
        let mut sync = EstimatorKind::Heuristic.build(&table, &sample, &[], &config, &mut rng);
        let served = kdesel_kde::KdeEstimator::new(
            kdesel_device::Device::new(config.backend),
            &sample,
            2,
            config.kernel,
        );
        let key = kdesel_serve::ModelKey::new("synthetic", &["x", "y"]);
        let service = kdesel_serve::Service::builder(kdesel_serve::ServeConfig::default())
            .register(key.clone(), kdesel_serve::ServedModel::fixed(served))
            .build()
            .unwrap();
        let handle = service.handle();
        let queries = kdesel_data::generate_workload(
            &table,
            kdesel_data::WorkloadSpec::paper(kdesel_data::WorkloadKind::DataTarget),
            25,
            &mut rng,
        );
        for q in &queries {
            let direct = run_query(&table, &mut sync, &q.region, &mut rng);
            let via = run_query_via(&table, &handle, &key, &q.region).unwrap();
            assert_eq!(
                via.estimate, direct.estimate,
                "estimates must be bitwise equal"
            );
            assert_eq!(via.actual, direct.actual);
            assert_eq!(via.cardinality, direct.cardinality);
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn run_query_via_serve_is_a_drop_in_for_the_adaptive_loop() {
        // The serving path must reproduce the synchronous Listing-1 loop
        // bit-for-bit: same estimates, same bandwidth trajectory, same
        // Karma replacements — with maintenance running on the executor
        // thread instead of the caller's.
        let table = kdesel_data::Dataset::Synthetic.generate_projected(2, 1500, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let sample = sampling::sample_rows(&table, 64, &mut rng);
        let config = BuildConfig::paper_default(2);
        let new_kde = || {
            AdaptiveKde::new(
                kdesel_device::Device::new(config.backend),
                &sample,
                2,
                config.kernel,
                config.adaptive.clone(),
                config.karma.clone(),
            )
        };
        let mut sync = new_kde();
        let kde = new_kde();
        // Both loops draw replacement tuples from identically-seeded rngs,
        // so Karma replacements install identical rows.
        let replacement_seed = 77;
        let mut sync_rng = StdRng::seed_from_u64(replacement_seed);
        let refresh_table = std::sync::Arc::new(table.clone());
        let mut refresh_rng = StdRng::seed_from_u64(replacement_seed);
        let refresh: kdesel_serve::RefreshFn =
            Box::new(move |_slot| sampling::sample_one(&refresh_table, &mut refresh_rng));
        let key = kdesel_serve::ModelKey::new("synthetic", &["x", "y"]);
        let service = kdesel_serve::Service::builder(kdesel_serve::ServeConfig::default())
            .register(
                key.clone(),
                kdesel_serve::ServedModel::adaptive_with_refresh(kde, refresh),
            )
            .build()
            .unwrap();
        let handle = service.handle();
        let queries = kdesel_data::generate_workload(
            &table,
            kdesel_data::WorkloadSpec::paper(kdesel_data::WorkloadKind::DataTarget),
            40,
            &mut rng,
        );
        for q in &queries {
            let direct = run_query(&table, &mut sync, &q.region, &mut sync_rng);
            let via = run_query_via(&table, &handle, &key, &q.region).unwrap();
            assert_eq!(
                via.estimate, direct.estimate,
                "estimates must be bitwise equal"
            );
        }
        let report = handle.report(&key).unwrap();
        assert_eq!(
            report.bandwidth,
            sync.model().bandwidth(),
            "bandwidth trajectories must match bitwise"
        );
        assert_eq!(report.maintenance_applied, queries.len() as u64);
        service.shutdown().unwrap();
    }

    #[test]
    fn adaptive_improves_over_a_query_stream() {
        // Clustered table; DT-style queries. The adaptive estimator's error
        // over the last quarter of the stream must beat its first quarter.
        let table = kdesel_data::Dataset::Synthetic.generate_projected(3, 3000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sampling::sample_rows(&table, 256, &mut rng);
        let config = BuildConfig::paper_default(3);
        let mut e = EstimatorKind::Adaptive.build(&table, &sample, &[], &config, &mut rng);
        let queries = kdesel_data::generate_workload(
            &table,
            kdesel_data::WorkloadSpec::paper(kdesel_data::WorkloadKind::DataTarget),
            240,
            &mut rng,
        );
        let mut errors = Vec::new();
        for q in &queries {
            let out = run_query(&table, &mut e, &q.region, &mut rng);
            errors.push(out.absolute_error());
        }
        let first: f64 = errors[..60].iter().sum::<f64>() / 60.0;
        let last: f64 = errors[180..].iter().sum::<f64>() / 60.0;
        assert!(
            last < first,
            "no improvement: first quarter {first}, last quarter {last}"
        );
    }
}
