//! Seeded inputs: tables, query sequences and the churn script. The
//! service only ever sees what these functions generate, and the same
//! seed always generates the same inputs.

use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_storage::Table;
use kdesel_types::{LabelledQuery, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent stream seed from the run seed (SplitMix64
/// finaliser), so each input draws from its own generator.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream numbers passed to [`derive`].
pub mod stream {
    /// The query sequence (or churn script).
    pub const QUERIES: u64 = 2;
    /// ANALYZE: the sample drawn from the table.
    pub const ANALYZE: u64 = 3;
    /// Bandwidth optimisation (multistart draws).
    pub const SOLVER: u64 = 4;
    /// Replacement tuples for Karma-flagged sample slots.
    pub const REFRESH: u64 = 5;
    /// The training log for the batch bandwidth.
    pub const TRAINING: u64 = 6;
}

/// Seed of everything the static workloads build their model from: the
/// generated table, the ANALYZE sample, the training log and the
/// bandwidth search. The database and its statistics are fixed, like the
/// paper's real datasets; the run seed draws the requests the optimizer
/// sends. (A seeded model would add the variation between models, e.g.
/// a 0.14–2.6 s spread in the bandwidth search, to every figure.)
pub const MODEL_SEED: u64 = 0x6b64_6573_656c;

/// A static model's inputs: its table and the labelled queries it serves.
#[derive(Debug, Clone)]
pub struct StaticInputs {
    /// The base table ANALYZE samples from.
    pub table: Table,
    /// The served query sequence, labelled with exact selectivities.
    pub queries: Vec<LabelledQuery>,
    /// The DT training log for the batch bandwidth (empty when the model
    /// keeps Scott's rule).
    pub training: Vec<LabelledQuery>,
}

/// `plan-probes`: Forest projected to 3D, a DT training log, DV probes.
pub fn plan_probes(seed: u64, rows: usize, probes: usize, training: usize) -> StaticInputs {
    let table = Dataset::Forest.generate_projected(3, rows, MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(derive(MODEL_SEED, stream::TRAINING));
    let training = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        training,
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::QUERIES));
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataVolume),
        probes,
        &mut rng,
    );
    StaticInputs {
        table,
        queries,
        training,
    }
}

/// `large-model`: Power projected to 8D, DT queries.
pub fn large_model(seed: u64, rows: usize, queries: usize) -> StaticInputs {
    let table = Dataset::Power.generate_projected(8, rows, MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::QUERIES));
    let queries = generate_workload(
        &table,
        WorkloadSpec::paper(WorkloadKind::DataTarget),
        queries,
        &mut rng,
    );
    StaticInputs {
        table,
        queries,
        training: Vec::new(),
    }
}

/// One step of the churn script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Insert a tuple into cluster `.1`.
    Insert(Vec<f64>, usize),
    /// Delete every tuple of a cluster.
    DeleteCluster(usize),
    /// One query lifecycle over the region.
    Query(Rect),
}

/// Shape of the Fig. 8 churn script.
#[derive(Debug, Clone)]
pub struct ChurnShape {
    /// Attributes per tuple.
    pub dims: usize,
    /// Tuples per cluster.
    pub cluster_size: usize,
    /// Clusters loaded before the first query.
    pub initial_clusters: usize,
    /// Insert batches per cycle (a new cluster arrives gradually).
    pub batches_per_cycle: usize,
    /// Queries after each insert batch and after each delete.
    pub queries_per_batch: usize,
    /// Queries on the initial data, before the first cycle.
    pub warmup_queries: usize,
    /// Stop generating once the script holds this many queries.
    pub max_queries: usize,
    /// Target selectivity of the DT queries.
    pub target: f64,
    /// A cluster of age `a` is queried with weight `decay^a`.
    pub decay: f64,
}

impl ChurnShape {
    /// The paper's Fig. 8 set-up in 5D (1500-tuple clusters, three loaded
    /// up front, 1% DT queries biased towards recent clusters), capped at
    /// `max_queries` lifecycles.
    pub fn fig8(max_queries: usize) -> Self {
        Self {
            dims: 5,
            cluster_size: 1500,
            initial_clusters: 3,
            batches_per_cycle: 6,
            queries_per_batch: 40,
            warmup_queries: 60,
            max_queries,
            target: 0.01,
            decay: 0.5,
        }
    }
}

/// The churn script: the initial load, then cycles that insert a new
/// cluster in batches with queries in between and finally delete the
/// oldest live cluster. Queries weight *every* cluster ever created by
/// recency, so some land on clusters that are already deleted — the
/// ranges whose stale sample points Karma must flag.
#[derive(Debug, Clone)]
pub struct ChurnScript {
    /// Attributes per tuple.
    pub dims: usize,
    /// Steps of the initial load (all inserts), before ANALYZE.
    pub initial: usize,
    /// Every step, the initial load first.
    pub steps: Vec<Step>,
}

/// Generates the churn script for `seed`.
///
/// Query boxes are cubes centred on a tuple of the chosen cluster. Their
/// half-width is the Chebyshev distance to the `k`-th nearest tuple of
/// that cluster, with `k` the target share of the rows live at that
/// moment: exact for a live cluster (clusters are far apart), and the
/// same box shape over an emptied range once the cluster is gone.
pub fn churn(seed: u64, shape: &ChurnShape) -> ChurnScript {
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::QUERIES));
    let dims = shape.dims;
    let (domain, spread) = (100.0, 2.5);
    let mut steps = Vec::new();
    // Per cluster: every tuple ever inserted, and whether it is live.
    let mut clusters: Vec<(Vec<Vec<f64>>, bool)> = Vec::new();
    let mut live_rows = 0usize;
    let mut queries = 0usize;

    let insert = |steps: &mut Vec<Step>,
                  clusters: &mut Vec<(Vec<Vec<f64>>, bool)>,
                  live_rows: &mut usize,
                  rng: &mut StdRng,
                  cluster: usize,
                  count: usize| {
        for _ in 0..count {
            let center = &clusters[cluster].0[0];
            let tuple: Vec<f64> = center
                .iter()
                .map(|&c| c + rng.gen_range(-spread..spread))
                .collect();
            clusters[cluster].0.push(tuple.clone());
            steps.push(Step::Insert(tuple, cluster));
            *live_rows += 1;
        }
    };
    let new_cluster = |clusters: &mut Vec<(Vec<Vec<f64>>, bool)>, rng: &mut StdRng| {
        // Slot 0 holds the centre; it is never inserted into the table.
        let center: Vec<f64> = (0..dims)
            .map(|_| rng.gen_range(10.0..domain - 10.0))
            .collect();
        clusters.push((vec![center], true));
        clusters.len() - 1
    };
    let query = |steps: &mut Vec<Step>,
                 clusters: &[(Vec<Vec<f64>>, bool)],
                 live_rows: usize,
                 rng: &mut StdRng,
                 queries: &mut usize,
                 count: usize| {
        let newest = clusters.len() - 1;
        let weights: Vec<f64> = (0..clusters.len())
            .map(|c| shape.decay.powi((newest - c) as i32))
            .collect();
        let total: f64 = weights.iter().sum();
        for _ in 0..count {
            if *queries >= shape.max_queries {
                return;
            }
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = newest;
            for (c, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = c;
                    break;
                }
                pick -= w;
            }
            let tuples = &clusters[chosen].0[1..];
            if tuples.is_empty() {
                continue;
            }
            let center = &tuples[rng.gen_range(0..tuples.len())];
            let mut distances: Vec<f64> = tuples
                .iter()
                .map(|t| {
                    t.iter()
                        .zip(center)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max)
                })
                .collect();
            let k = ((shape.target * live_rows as f64).round() as usize).clamp(1, distances.len());
            let (_, kth, _) = distances.select_nth_unstable_by(k - 1, f64::total_cmp);
            let half = *kth;
            steps.push(Step::Query(Rect::centered(center, &vec![half; dims])));
            *queries += 1;
        }
    };

    for _ in 0..shape.initial_clusters {
        let c = new_cluster(&mut clusters, &mut rng);
        insert(
            &mut steps,
            &mut clusters,
            &mut live_rows,
            &mut rng,
            c,
            shape.cluster_size,
        );
    }
    let initial = steps.len();
    query(
        &mut steps,
        &clusters,
        live_rows,
        &mut rng,
        &mut queries,
        shape.warmup_queries,
    );
    let per_batch = shape.cluster_size / shape.batches_per_cycle;
    'cycles: while queries < shape.max_queries {
        let c = new_cluster(&mut clusters, &mut rng);
        for _ in 0..shape.batches_per_cycle {
            insert(
                &mut steps,
                &mut clusters,
                &mut live_rows,
                &mut rng,
                c,
                per_batch,
            );
            query(
                &mut steps,
                &clusters,
                live_rows,
                &mut rng,
                &mut queries,
                shape.queries_per_batch,
            );
            if queries >= shape.max_queries {
                break 'cycles;
            }
        }
        let oldest = clusters
            .iter()
            .position(|(_, live)| *live)
            .expect("a live cluster");
        clusters[oldest].1 = false;
        live_rows -= clusters[oldest].0.len() - 1;
        steps.push(Step::DeleteCluster(oldest));
        query(
            &mut steps,
            &clusters,
            live_rows,
            &mut rng,
            &mut queries,
            shape.queries_per_batch,
        );
    }
    ChurnScript {
        dims,
        initial,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_queries(a: &[LabelledQuery], b: &[LabelledQuery]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.region == y.region && x.selectivity.to_bits() == y.selectivity.to_bits()
            })
    }

    fn same_table(a: &Table, b: &Table) -> bool {
        a.row_count() == b.row_count() && a.rows().zip(b.rows()).all(|(x, y)| x == y)
    }

    #[test]
    fn one_seed_generates_identical_inputs_twice() {
        let a = plan_probes(11, 4000, 64, 16);
        let b = plan_probes(11, 4000, 64, 16);
        assert!(same_table(&a.table, &b.table));
        assert!(same_queries(&a.queries, &b.queries));
        assert!(same_queries(&a.training, &b.training));

        let a = large_model(11, 4000, 32);
        let b = large_model(11, 4000, 32);
        assert!(same_table(&a.table, &b.table));
        assert!(same_queries(&a.queries, &b.queries));

        let shape = ChurnShape::fig8(700);
        let a = churn(11, &shape);
        let b = churn(11, &shape);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        let a = plan_probes(11, 4000, 64, 16);
        let b = plan_probes(12, 4000, 64, 16);
        assert!(!same_queries(&a.queries, &b.queries));
        let shape = ChurnShape::fig8(100);
        assert_ne!(churn(11, &shape).steps, churn(12, &shape).steps);
    }

    #[test]
    fn churn_script_follows_the_fig8_cycle() {
        let shape = ChurnShape::fig8(700);
        let script = churn(5, &shape);
        assert_eq!(script.initial, shape.initial_clusters * shape.cluster_size);
        assert!(script.steps[..script.initial]
            .iter()
            .all(|s| matches!(s, Step::Insert(..))));
        let queries = script
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Query(_)))
            .count();
        assert_eq!(queries, 700);
        let deletes: Vec<usize> = script
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::DeleteCluster(c) => Some(*c),
                _ => None,
            })
            .collect();
        // 60 warm-up queries, then 280 per cycle: the script is in its
        // third cycle at 700 queries, after two deletes of the oldest.
        assert_eq!(deletes, [0, 1]);
    }

    #[test]
    fn churn_queries_target_one_percent_of_live_rows() {
        let shape = ChurnShape::fig8(60);
        let script = churn(3, &shape);
        let mut table = Table::new(shape.dims);
        for step in &script.steps[..script.initial] {
            if let Step::Insert(row, _) = step {
                table.insert(row);
            }
        }
        let target = (shape.target * table.row_count() as f64).round() as u64;
        for step in &script.steps[script.initial..] {
            let Step::Query(region) = step else {
                panic!("warm-up holds only queries")
            };
            // Boxes around a live cluster capture at least the target.
            // (The box edge may round the k-th tuple out by one ulp.)
            assert!(
                table.count_in(region) + 1 >= target,
                "{}",
                table.count_in(region)
            );
        }
    }
}
