//! Integration tests for the self-tuning machinery (§4) across crates:
//! reservoir sampling + Karma maintenance + adaptive bandwidth, driven
//! through the engine against a live, mutating table.

use kdesel::engine::estimators::{BuildConfig, EstimatorKind};
use kdesel::engine::run_query;
use kdesel::storage::{sampling, Table};
use kdesel::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clustered_table(
    centers: &[[f64; 2]],
    per_cluster: usize,
    seed: u64,
) -> (Table, Vec<Vec<usize>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = Table::new(2);
    let mut rows = Vec::new();
    for c in centers {
        let ids: Vec<usize> = (0..per_cluster)
            .map(|_| {
                table.insert(&[
                    c[0] + rng.gen_range(-2.0..2.0),
                    c[1] + rng.gen_range(-2.0..2.0),
                ])
            })
            .collect();
        rows.push(ids);
    }
    (table, rows)
}

/// Karma maintenance must purge sample points belonging to deleted data
/// once queries reveal the region is empty, restoring estimation quality.
#[test]
fn karma_recovers_after_bulk_delete() {
    let (mut table, cluster_rows) = clustered_table(&[[20.0, 20.0], [80.0, 80.0]], 800, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, build.sample_points(2), &mut rng);
    let mut adaptive = EstimatorKind::Adaptive.build(&table, &sample, &[], &build, &mut rng);

    // Delete the first cluster entirely.
    for &row in &cluster_rows[0] {
        table.delete(row);
    }
    let deleted_region = Rect::centered(&[20.0, 20.0], &[4.0, 4.0]);
    let first = run_query(&table, &mut adaptive, &deleted_region, &mut rng);
    assert!(
        first.estimate > 0.05,
        "stale sample should initially overestimate: {}",
        first.estimate
    );
    // Repeated queries on the emptied region trigger Karma replacement.
    let mut last = first.clone();
    for _ in 0..100 {
        last = run_query(&table, &mut adaptive, &deleted_region, &mut rng);
        if last.estimate < 0.01 {
            break;
        }
    }
    assert!(
        last.estimate < 0.01,
        "estimate should converge to ~0 after replacement, got {}",
        last.estimate
    );
}

/// The static heuristic model cannot recover in the same scenario — the
/// contrast that motivates §4.2.
#[test]
fn heuristic_stays_stale_after_bulk_delete() {
    let (mut table, cluster_rows) = clustered_table(&[[20.0, 20.0], [80.0, 80.0]], 800, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, build.sample_points(2), &mut rng);
    let mut heuristic = EstimatorKind::Heuristic.build(&table, &sample, &[], &build, &mut rng);
    for &row in &cluster_rows[0] {
        table.delete(row);
    }
    let deleted_region = Rect::centered(&[20.0, 20.0], &[4.0, 4.0]);
    let mut estimate = 0.0;
    for _ in 0..30 {
        estimate = run_query(&table, &mut heuristic, &deleted_region, &mut rng).estimate;
    }
    assert!(
        estimate > 0.05,
        "heuristic should stay stale (got {estimate})"
    );
}

/// Reservoir sampling keeps the adaptive model tracking insert-only growth
/// into a new region (§4.2's first scenario).
#[test]
fn reservoir_tracks_insert_only_growth() {
    let (mut table, _) = clustered_table(&[[30.0, 30.0]], 1000, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, build.sample_points(2), &mut rng);
    let mut adaptive = EstimatorKind::Adaptive.build(&table, &sample, &[], &build, &mut rng);

    // Insert a new, equally sized cluster far away.
    for _ in 0..1000 {
        let t = vec![
            70.0 + rng.gen_range(-2.0..2.0),
            70.0 + rng.gen_range(-2.0..2.0),
        ];
        table.insert(&t);
        adaptive.insert(&t, &mut |n| rng.gen_range(0..n));
    }
    let new_region = Rect::centered(&[70.0, 70.0], &[4.0, 4.0]);
    let out = run_query(&table, &mut adaptive, &new_region, &mut rng);
    // True selectivity is ~0.5; a model with no maintenance would say ~0.
    assert!(
        out.estimate > 0.2,
        "reservoir should surface the new cluster: estimate {}",
        out.estimate
    );
}

/// STHoles tracks the same churn through feedback-driven refinement.
#[test]
fn stholes_adapts_through_feedback() {
    let (mut table, cluster_rows) = clustered_table(&[[20.0, 20.0], [80.0, 80.0]], 600, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, 64, &mut rng);
    let mut sth = EstimatorKind::SthHoles.build(&table, &sample, &[], &build, &mut rng);
    for &row in &cluster_rows[0] {
        table.delete(row);
    }
    let deleted_region = Rect::centered(&[20.0, 20.0], &[4.0, 4.0]);
    // First query may be wrong; refinement makes the repeat nearly exact.
    run_query(&table, &mut sth, &deleted_region, &mut rng);
    let second = run_query(&table, &mut sth, &deleted_region, &mut rng);
    assert!(
        second.absolute_error() < 1e-6,
        "stholes should be exact on a repeated query: {}",
        second.absolute_error()
    );
}
