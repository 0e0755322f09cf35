//! Estimation quality on changing data (paper §6.5, Figure 8).
//!
//! "The workload starts by loading 4500 tuples, evenly distributed among
//! three random clusters. Afterwards the workload features ten cycles of
//! slowly creating a new cluster by gradually inserting 1500 tuples into
//! it, followed by deleting all tuples belonging to one of the old
//! clusters. These dataset changes are interleaved with a DT query workload
//! that queries older clusters less frequently than newer ones."
//!
//! The change/query script is generated once per repetition and replayed
//! identically for every estimator, so all estimators see the exact same
//! evolving database.

use crate::estimators::{BuildConfig, EstimatorKind};
use crate::session::run_query;
use kdesel_storage::{sampling, Table};
use kdesel_types::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dynamic-experiment configuration.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Dimensionality (paper: 5 and 8).
    pub dims: usize,
    /// Tuples per cluster (paper: 1500).
    pub cluster_size: usize,
    /// Initial clusters (paper: 3).
    pub initial_clusters: usize,
    /// Insert/delete cycles (paper: 10).
    pub cycles: usize,
    /// Queries interleaved per cycle.
    pub queries_per_cycle: usize,
    /// Insert batches per cycle (tuples arrive gradually).
    pub batches_per_cycle: usize,
    /// Target selectivity of the DT queries (paper: 1%).
    pub target_selectivity: f64,
    /// Recency bias: cluster of age `a` is queried with weight `γ^a`.
    pub recency_decay: f64,
    /// Estimators to compare (paper: STHoles, Heuristic, Adaptive).
    pub estimators: Vec<EstimatorKind>,
    /// Repetitions (paper: 10).
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            dims: 5,
            cluster_size: 1500,
            initial_clusters: 3,
            cycles: 10,
            queries_per_cycle: 60,
            batches_per_cycle: 6,
            target_selectivity: 0.01,
            recency_decay: 0.5,
            estimators: vec![
                EstimatorKind::SthHoles,
                EstimatorKind::Heuristic,
                EstimatorKind::Adaptive,
            ],
            repetitions: 10,
            seed: 0xf188,
        }
    }
}

/// One scripted event.
enum Event {
    /// Insert a tuple (tagged with its cluster index).
    Insert(Vec<f64>, usize),
    /// Delete every live tuple of a cluster.
    DeleteCluster(usize),
    /// Run a query.
    Query(Rect),
}

/// Result: per estimator, the absolute error of every query in script
/// order, averaged across repetitions, plus the table size at each query.
#[derive(Debug)]
pub struct DynamicResult {
    /// Mean absolute error per query index, per estimator.
    pub error_series: Vec<(EstimatorKind, Vec<f64>)>,
    /// Live tuple count at each query index (identical across estimators).
    pub table_sizes: Vec<usize>,
}

impl DynamicResult {
    /// Mean error of one estimator over a range of query indices.
    pub fn mean_error_in(&self, kind: EstimatorKind, range: std::ops::Range<usize>) -> f64 {
        let series = &self
            .error_series
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("estimator present")
            .1;
        let slice = &series[range];
        slice.iter().sum::<f64>() / slice.len() as f64
    }
}

/// Generates cluster-box tuples around `center` with half-width `spread`.
fn cluster_tuple<R: Rng + ?Sized>(center: &[f64], spread: f64, rng: &mut R) -> Vec<f64> {
    center
        .iter()
        .map(|&c| c + rng.gen_range(-spread..spread))
        .collect()
}

/// Builds the event script for one repetition, simulating the table as it
/// goes so query boxes can target the live selectivity.
fn build_script(config: &DynamicConfig, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = config.dims;
    let domain = 100.0;
    let spread = 2.5;
    let mut script = Vec::new();
    let mut table = Table::new(dims);
    // cluster id → (center, live row ids)
    let mut clusters: Vec<(Vec<f64>, Vec<usize>)> = Vec::new();
    let new_center = |rng: &mut StdRng| -> Vec<f64> {
        (0..dims)
            .map(|_| rng.gen_range(10.0..domain - 10.0))
            .collect()
    };

    // Initial load.
    for c in 0..config.initial_clusters {
        let center = new_center(&mut rng);
        let mut rows = Vec::new();
        for _ in 0..config.cluster_size {
            let t = cluster_tuple(&center, spread, &mut rng);
            rows.push(table.insert(&t));
            script.push(Event::Insert(t, c));
        }
        clusters.push((center, rows));
    }

    let emit_queries = |script: &mut Vec<Event>,
                        table: &Table,
                        clusters: &[(Vec<f64>, Vec<usize>)],
                        rng: &mut StdRng,
                        count: usize| {
        let live: Vec<usize> = (0..clusters.len())
            .filter(|&c| !clusters[c].1.is_empty())
            .collect();
        if live.is_empty() {
            return;
        }
        // Recency weights: newest cluster has age 0.
        let newest = *live.last().expect("non-empty");
        let weights: Vec<f64> = live
            .iter()
            .map(|&c| config.recency_decay.powi((newest - c) as i32))
            .collect();
        let total_w: f64 = weights.iter().sum();
        for _ in 0..count {
            let mut pick = rng.gen_range(0.0..total_w);
            let mut chosen = live[0];
            for (&c, &w) in live.iter().zip(&weights) {
                if pick < w {
                    chosen = c;
                    break;
                }
                pick -= w;
            }
            let rows = &clusters[chosen].1;
            let row_id = rows[rng.gen_range(0..rows.len())];
            let center = table.row(row_id).expect("live row").to_vec();
            // Bisect a box around the center to the target selectivity.
            let target = config.target_selectivity;
            let mut hi = 0.5;
            while table.selectivity(&Rect::centered(&center, &vec![hi; dims])) < target
                && hi < domain
            {
                hi *= 2.0;
            }
            let mut lo = 0.0;
            for _ in 0..20 {
                let mid = 0.5 * (lo + hi);
                if table.selectivity(&Rect::centered(&center, &vec![mid; dims])) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            script.push(Event::Query(Rect::centered(&center, &vec![hi; dims])));
        }
    };

    // Warm-up queries on the initial data.
    emit_queries(
        &mut script,
        &table,
        &clusters,
        &mut rng,
        config.queries_per_cycle,
    );

    for cycle in 0..config.cycles {
        let new_id = clusters.len();
        let center = new_center(&mut rng);
        clusters.push((center.clone(), Vec::new()));
        let per_batch = config.cluster_size / config.batches_per_cycle;
        let queries_per_batch = config.queries_per_cycle / (config.batches_per_cycle + 1);
        for _ in 0..config.batches_per_cycle {
            for _ in 0..per_batch {
                let t = cluster_tuple(&center, spread, &mut rng);
                let id = table.insert(&t);
                clusters[new_id].1.push(id);
                script.push(Event::Insert(t, new_id));
            }
            emit_queries(&mut script, &table, &clusters, &mut rng, queries_per_batch);
        }
        // Delete the oldest still-populated cluster.
        let oldest = (0..clusters.len())
            .find(|&c| !clusters[c].1.is_empty() && c != new_id)
            .unwrap_or(cycle);
        for &row in &clusters[oldest].1 {
            table.delete(row);
        }
        clusters[oldest].1.clear();
        script.push(Event::DeleteCluster(oldest));
        emit_queries(&mut script, &table, &clusters, &mut rng, queries_per_batch);
    }
    script
}

/// Runs the Figure 8 experiment.
pub fn run_dynamic(config: &DynamicConfig) -> DynamicResult {
    assert!(config.repetitions > 0);
    let mut error_acc: Vec<Vec<f64>> = vec![Vec::new(); config.estimators.len()];
    let mut sizes: Vec<usize> = Vec::new();

    for rep in 0..config.repetitions {
        let script = build_script(config, config.seed + rep as u64 * 65_537);
        for (ei, &kind) in config.estimators.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(config.seed ^ (rep as u64) << 4 ^ (ei as u64));
            // Replay: rebuild the initial table state (insert events up to
            // the first query), then construct the estimator.
            let mut table = Table::new(config.dims);
            let mut cluster_rows: Vec<Vec<usize>> = Vec::new();
            let mut idx = 0;
            while let Some(Event::Insert(row, c)) = script.get(idx) {
                let id = table.insert(row);
                if *c >= cluster_rows.len() {
                    cluster_rows.resize(c + 1, Vec::new());
                }
                cluster_rows[*c].push(id);
                idx += 1;
            }
            let build = BuildConfig::paper_default(config.dims);
            let sample = sampling::sample_rows(&table, build.sample_points(config.dims), &mut rng);
            let mut estimator = kind.build(&table, &sample, &[], &build, &mut rng);

            let mut errors = Vec::new();
            let mut query_sizes = Vec::new();
            for event in &script[idx..] {
                match event {
                    Event::Insert(row, c) => {
                        let id = table.insert(row);
                        if *c >= cluster_rows.len() {
                            cluster_rows.resize(c + 1, Vec::new());
                        }
                        cluster_rows[*c].push(id);
                        estimator.insert(row, &mut |n| rng.gen_range(0..n));
                    }
                    Event::DeleteCluster(c) => {
                        for &row in &cluster_rows[*c] {
                            table.delete(row);
                        }
                        cluster_rows[*c].clear();
                    }
                    Event::Query(region) => {
                        let out = run_query(&table, estimator.as_mut(), region, &mut rng);
                        errors.push(out.absolute_error());
                        query_sizes.push(table.row_count());
                    }
                }
            }
            if error_acc[ei].is_empty() {
                error_acc[ei] = errors;
            } else {
                for (acc, e) in error_acc[ei].iter_mut().zip(errors) {
                    *acc += e;
                }
            }
            if ei == 0 && rep == 0 {
                sizes = query_sizes;
            }
        }
    }
    let reps = config.repetitions as f64;
    DynamicResult {
        error_series: config
            .estimators
            .iter()
            .zip(error_acc)
            .map(|(&k, mut errs)| {
                for e in &mut errs {
                    *e /= reps;
                }
                (k, errs)
            })
            .collect(),
        table_sizes: sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> DynamicConfig {
        DynamicConfig {
            dims: 2,
            cluster_size: 300,
            initial_clusters: 3,
            cycles: 4,
            queries_per_cycle: 35,
            batches_per_cycle: 4,
            estimators: vec![EstimatorKind::Heuristic, EstimatorKind::Adaptive],
            repetitions: 2,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn adaptive_tracks_churn_better_than_heuristic() {
        let config = quick_config();
        let result = run_dynamic(&config);
        let n = result.table_sizes.len();
        assert!(n > 50, "expected a long query series, got {n}");
        // After several churn cycles the static model is stale; compare the
        // last third of the stream.
        let tail = (2 * n / 3)..n;
        let heuristic = result.mean_error_in(EstimatorKind::Heuristic, tail.clone());
        let adaptive = result.mean_error_in(EstimatorKind::Adaptive, tail);
        assert!(
            adaptive < heuristic,
            "adaptive {adaptive} should beat stale heuristic {heuristic}"
        );
    }

    #[test]
    fn table_sizes_follow_the_cycle_pattern() {
        let config = quick_config();
        let result = run_dynamic(&config);
        let max = *result.table_sizes.iter().max().unwrap();
        let min = *result.table_sizes.iter().min().unwrap();
        // Inserting a cluster before deleting one swings the size by about
        // one cluster around the 3-cluster baseline.
        assert!(max > min, "sizes should vary: {min}..{max}");
        assert!(max <= config.cluster_size * (config.initial_clusters + 1));
        assert!(min >= config.cluster_size * (config.initial_clusters - 1));
    }
}
