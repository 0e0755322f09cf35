//! Bit pins on the engine's query lifecycle: estimate, execute, feed back,
//! and the table changes in between. Every error below is compared by its
//! bit pattern, so a change to how any family is built, dispatched or
//! maintained (rng draw order, Karma refills, reservoir decisions, STHoles
//! drilling) shows here even when the figures' rounded tables do not.

use kdesel::data::{Dataset, WorkloadKind};
use kdesel::engine::estimators::BuildConfig;
use kdesel::engine::experiments::dynamic::{run_dynamic, DynamicConfig};
use kdesel::engine::experiments::static_quality::{run_static_cell, StaticCell, StaticConfig};
use kdesel::engine::{run_query, EstimatorKind};
use kdesel::storage::{sampling, Table};
use kdesel::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_bits(label: &str, values: &[f64], pinned: &[u64]) {
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, pinned, "{label}: values moved; now {bits:#x?}");
}

/// A miniature Figure 8: three clusters of 150 rows, two insert/delete
/// cycles, STHoles, Heuristic and Adaptive on one replayed script. The
/// script inserts 300 rows (reservoir draws into the adaptive sample),
/// deletes two clusters (the models learn of them only through feedback)
/// and runs 24 queries (the adaptive tuner steps and STHoles drills a
/// hole per query).
#[test]
fn dynamic_lifecycle_keeps_its_pinned_bits() {
    let config = DynamicConfig {
        dims: 2,
        cluster_size: 150,
        initial_clusters: 3,
        cycles: 2,
        queries_per_cycle: 8,
        batches_per_cycle: 3,
        repetitions: 1,
        seed: 11,
        ..Default::default()
    };
    let result = run_dynamic(&config);
    let pinned: [(EstimatorKind, &[u64]); 3] = [
        (EstimatorKind::SthHoles, &STHOLES_DYNAMIC),
        (EstimatorKind::Heuristic, &HEURISTIC_DYNAMIC),
        (EstimatorKind::Adaptive, &ADAPTIVE_DYNAMIC),
    ];
    assert_eq!(result.error_series.len(), pinned.len());
    for ((kind, errors), (pinned_kind, bits)) in result.error_series.iter().zip(pinned) {
        assert_eq!(*kind, pinned_kind);
        assert_bits(kind.name(), errors, bits);
    }
}

/// A miniature Figure 4 cell over every kind the engine builds: one
/// repetition, fast optimizers, 12 training and 10 test queries.
#[test]
fn static_cell_keeps_its_pinned_bits() {
    let cell = StaticCell {
        dataset: Dataset::Synthetic,
        dims: 2,
        workload: WorkloadKind::DataTarget,
    };
    let config = StaticConfig {
        rows: 1_500,
        train_queries: 12,
        test_queries: 10,
        repetitions: 1,
        estimators: EstimatorKind::FULL.to_vec(),
        seed: 5,
        fast_optimizers: true,
    };
    let result = run_static_cell(cell, &config);
    let errors: Vec<f64> = EstimatorKind::FULL
        .iter()
        .map(|&kind| result.rep_errors(kind).expect("every kind ran")[0])
        .collect();
    assert_bits("static cell", &errors, &STATIC_CELL);
}

/// Karma refills. `run_dynamic` centers every query on a live row, so its
/// script never asks about an emptied region and Karma never flags a slot
/// there. Here an adaptive model's first cluster is deleted, 40 rows are
/// inserted elsewhere (reservoir draws), and the emptied box is queried:
/// the empty-region shortcut flags the stale slots, and each refill draws
/// a live row from the table through the engine.
#[test]
fn karma_refills_keep_their_pinned_bits() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut table = Table::new(2);
    let mut first_cluster = Vec::new();
    for center in [20.0, 80.0] {
        for _ in 0..300 {
            let row = [
                center + rng.gen_range(-2.0..2.0),
                center + rng.gen_range(-2.0..2.0),
            ];
            let id = table.insert(&row);
            if center == 20.0 {
                first_cluster.push(id);
            }
        }
    }
    let build = BuildConfig::paper_default(2);
    let sample = sampling::sample_rows(&table, build.sample_points(2), &mut rng);
    let mut adaptive = EstimatorKind::Adaptive.build(&table, &sample, &[], &build, &mut rng);
    for id in first_cluster {
        table.delete(id);
    }
    for _ in 0..40 {
        let row = [
            50.0 + rng.gen_range(-2.0..2.0),
            50.0 + rng.gen_range(-2.0..2.0),
        ];
        table.insert(&row);
        adaptive.insert(&row, &mut |n| rng.gen_range(0..n));
    }
    let emptied = Rect::centered(&[20.0, 20.0], &[4.0, 4.0]);
    let live = Rect::centered(&[80.0, 80.0], &[4.0, 4.0]);
    let estimates: Vec<f64> = (0..12)
        .map(|i| {
            let region = if i % 3 == 2 { &live } else { &emptied };
            run_query(&table, &mut adaptive, region, &mut rng).estimate
        })
        .collect();
    assert_bits("karma refills", &estimates, &KARMA_REFILLS);
}

const KARMA_REFILLS: [u64; 12] = [
    0x3fa5992b3c244b5f,
    0x3ecf8c18747d7ab1,
    0x3fb433b4e5c42245,
    0x3ecf8c18747d7ab1,
    0x3ecf8c18747d7ab1,
    0x3fb433b4e5c42245,
    0x3ecf8c18747d7ab1,
    0x3ecf8c18747d7ab1,
    0x3fb433b4e5c42245,
    0x3ecf8c18747d7ab1,
    0x3e48a915c7978e2b,
    0x3fc2096fa589cb8f,
];
const STHOLES_DYNAMIC: [u64; 24] = [
    0x3f8377e29340a465,
    0x3f85753304ec12fe,
    0x3f861af89c7a3718,
    0x3f855a593df00961,
    0x3f85b5b2bdd70a26,
    0x3f868f49064dfe8f,
    0x3f85d3c4a6eb8afe,
    0x3f7852386fc65cc0,
    0x3f83ae9ef7074e7b,
    0x3f824a5ce30845a9,
    0x3f72c68a648bf92d,
    0x3f8524ffe36844cb,
    0x3f83e91afd0cf9f7,
    0x3f7339765a6a309b,
    0x3f82120befe0829b,
    0x3f84ef6d243e784d,
    0x3f52ca9828806980,
    0x3f847ae147ae147b,
    0x3f85ff9d74ed4ba3,
    0x3f85cd3f09783cee,
    0x3f83f980512d74a4,
    0x3f82b5cc867516db,
    0x3f839d2b6ad21aeb,
    0x3f8306691e8075d8,
];
const HEURISTIC_DYNAMIC: [u64; 24] = [
    0x3f80494d0ba27828,
    0x3f8395329899b176,
    0x3f855d1f18f7c834,
    0x3f8386960f05e4d0,
    0x3f843cc004aa94dc,
    0x3f8654672aec2948,
    0x3f849f88e4612dba,
    0x3f84555a2f32e6ae,
    0x3f82867b85254612,
    0x3f83e5de0d0b1af8,
    0x3f812d08e2c23765,
    0x3f83912a18f65c59,
    0x3f82feacd38a8453,
    0x3f7c992668bb222e,
    0x3f85c3f3edc3c9cf,
    0x3f841b2ac0d2cfa9,
    0x3f837d691eb07233,
    0x3f847ae147ae1266,
    0x3f85f9cdb9c9476f,
    0x3f86578165781625,
    0x3f81ccafe8c111d2,
    0x3f847ae147ae146d,
    0x3f86c16c16c169bf,
    0x3f8589ec357d7805,
];
const ADAPTIVE_DYNAMIC: [u64; 24] = [
    0x3f80494d0ba27828,
    0x3f8395329899b175,
    0x3f855d1f18f7c833,
    0x3f8386960f05e4cf,
    0x3f843cc004aa94dc,
    0x3f8654672aec2948,
    0x3f849f88e4612dba,
    0x3f84555a2f32e6ae,
    0x3f82c5db7f7dd152,
    0x3f825ca8783a8130,
    0x3f7ede12e7258523,
    0x3f82b1b700610060,
    0x3f8230e5830e20fc,
    0x3f731c281a691bb7,
    0x3f7efbd995421461,
    0x3f833df1a9e44db7,
    0x3f7bafb69d8c9182,
    0x3f813bbc6630009b,
    0x3f83f734348b76e7,
    0x3f81a160bb2fd189,
    0x3f80d07a50e7cf36,
    0x3f8073c8156dbd36,
    0x3f7c163644730d86,
    0x3f84a94e0b044ba4,
];
/// In `EstimatorKind::FULL` order: AVI, sampling, STHoles, heuristic,
/// SCV, batch, adaptive, exact.
const STATIC_CELL: [u64; 8] = [
    0x3f77dd6051edeb5e,
    0x3f5c083126e978d6,
    0x3f85f882d835743e,
    0x3f79fa33ea92a1d5,
    0x3f76b2b52387dbed,
    0x3f564cbe3cc834fb,
    0x3f762985ec709cca,
    0x0,
];
