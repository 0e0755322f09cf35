//! Self-tuning under database churn (the paper's §6.5 scenario, condensed).
//!
//! An evolving table: clusters of tuples appear and old ones are archived.
//! A static (heuristic) KDE model goes stale; the adaptive model follows
//! the changes through reservoir sampling, Karma-based sample maintenance,
//! and online bandwidth learning.
//!
//! Run with `cargo run --release --example adaptive_workload`.

use kdesel::engine::estimators::{BuildConfig, EstimatorKind};
use kdesel::engine::run_query;
use kdesel::storage::{sampling, Table};
use kdesel::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cluster_tuple(center: &[f64; 2], rng: &mut StdRng) -> Vec<f64> {
    vec![
        center[0] + rng.gen_range(-3.0..3.0),
        center[1] + rng.gen_range(-3.0..3.0),
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut table = Table::new(2);
    let mut clusters: Vec<([f64; 2], Vec<usize>)> = Vec::new();

    // Initial load: three clusters.
    for _ in 0..3 {
        let center = [rng.gen_range(10.0..90.0), rng.gen_range(10.0..90.0)];
        let rows = (0..600)
            .map(|_| table.insert(&cluster_tuple(&center, &mut rng)))
            .collect();
        clusters.push((center, rows));
    }

    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, build.sample_points(2), &mut rng);
    let mut heuristic = EstimatorKind::Heuristic.build(&table, &sample, &[], &build, &mut rng);
    let mut adaptive = EstimatorKind::Adaptive.build(&table, &sample, &[], &build, &mut rng);

    println!("cycle  tuples  heuristic_err  adaptive_err");
    for cycle in 0..8 {
        // A new cluster appears...
        let center = [rng.gen_range(10.0..90.0), rng.gen_range(10.0..90.0)];
        let rows: Vec<usize> = (0..600)
            .map(|_| {
                let t = cluster_tuple(&center, &mut rng);
                let id = table.insert(&t);
                heuristic.insert(&t, &mut |n| rng.gen_range(0..n));
                adaptive.insert(&t, &mut |n| rng.gen_range(0..n));
                id
            })
            .collect();
        clusters.push((center, rows));
        // ...and the oldest one is archived.
        let (_, old_rows) = clusters.remove(0);
        for row in old_rows {
            table.delete(row);
        }

        // Users query recent clusters.
        let mut err_h = 0.0;
        let mut err_a = 0.0;
        let queries = 40;
        for _ in 0..queries {
            let pick = clusters.len() - 1 - rng.gen_range(0..2.min(clusters.len()));
            let (c, _) = &clusters[pick];
            let center = [
                c[0] + rng.gen_range(-2.0..2.0),
                c[1] + rng.gen_range(-2.0..2.0),
            ];
            let region = Rect::centered(&center, &[4.0, 4.0]);
            err_h += run_query(&table, &mut heuristic, &region, &mut rng).absolute_error();
            err_a += run_query(&table, &mut adaptive, &region, &mut rng).absolute_error();
        }
        println!(
            "{cycle:>5}  {:>6}  {:>13.5}  {:>12.5}",
            table.row_count(),
            err_h / queries as f64,
            err_a / queries as f64
        );
    }
    println!("\nThe adaptive estimator keeps its error low as the data drifts;");
    println!("the static heuristic model degrades (its sample no longer exists).");
}
