//! Estimator bake-off benchmark (BENCH_bakeoff.json).
//!
//! Runs the two bake-off families — the self-tuning KDE and the exact
//! scan — plus the hybrid router over a mixed workload engineered so no
//! single family wins everywhere:
//!
//! * **small** — a 1.5K-row 3D table, where the exact scan is both
//!   cheap and perfect;
//! * **highdim** — an 8D table, the KDE's home turf (the paper's §6.2
//!   setting) with uniform-volume queries;
//! * **shifting** — a 4D table whose distribution shifts mid-segment
//!   via inserts. The KDE member follows through the reservoir and
//!   Karma; the exact snapshot goes deliberately stale, and the router
//!   has to catch it drifting through its q-error window.
//!
//! Every family answers every query and receives the true selectivity
//! as feedback; q-errors use the observatory's smoothed metric. The
//! headline gate — enforced under `PERF_SMOKE=1`, which
//! `scripts/check.sh` always sets for this bench — is the bake-off's
//! acceptance criterion: the hybrid router's q-error p95 over the whole
//! mixed workload must not exceed the best single family's.
//!
//! Results go to `BENCH_bakeoff.json` (override with
//! `BENCH_BAKEOFF_OUT`).

use kdesel_bench::history::{record_and_gate, Direction, HistoryEntry, TrendSpec};
use kdesel_bench::{emit, Cli};
use kdesel_data::{generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_engine::estimators::BuildConfig;
use kdesel_engine::report::{fmt, TextTable};
use kdesel_engine::{AnyEstimator, EstimatorKind};
use kdesel_estimators::router::qerror;
use kdesel_estimators::Family;
use kdesel_storage::sampling;
use kdesel_types::{QueryFeedback, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bake-off participants: the two single families, then the router.
const KINDS: [EstimatorKind; 3] = [
    EstimatorKind::Adaptive,
    EstimatorKind::Exact,
    EstimatorKind::Hybrid,
];
/// Report names aligned with the router's family vocabulary.
const NAMES: [&str; 3] = ["kde", "exact", "hybrid"];

struct Segment {
    label: &'static str,
    dims: usize,
    rows: usize,
    workload: WorkloadKind,
    /// Insert a shifted cluster halfway through the segment.
    shift: bool,
}

struct SegmentOutcome {
    label: &'static str,
    /// Per family (KINDS order), one q-error per query.
    qerrors: [Vec<f64>; 3],
    /// The hybrid's router decisions within this segment.
    decisions: [u64; 2],
}

fn run_segment(segment: &Segment, queries: usize, seed: u64) -> SegmentOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = Dataset::Synthetic.generate_projected(segment.dims, segment.rows, seed);
    let mut build = BuildConfig::paper_default(segment.dims).with_fast_optimizers();
    // A shifting workload rewards a reactive router: a shorter q-error
    // window evicts pre-shift scores faster, and sparser probes keep
    // the tail clean while still auditing the benched families.
    build.router.window = 32;
    build.router.probe_every = 32;
    let sample = sampling::sample_rows(&table, build.sample_points(segment.dims), &mut rng);
    let mut estimators: Vec<AnyEstimator> = KINDS
        .iter()
        .map(|&kind| AnyEstimator::build(kind, &table, &sample, &[], &build, &mut rng))
        .collect();

    let mut qerrors: [Vec<f64>; 3] = Default::default();
    let phases = if segment.shift { 2 } else { 1 };
    for phase in 0..phases {
        if phase == 1 {
            // The shift: a same-shape cluster displaced by +60 per
            // dimension (several bandwidths for this data). The table
            // and the KDE's reservoir see every insert; the exact
            // snapshot does not — that staleness is the point.
            let extra =
                Dataset::Synthetic.generate_projected(segment.dims, segment.rows / 2, seed ^ 0x5f);
            for (_, row) in extra.rows() {
                let shifted: Vec<f64> = row.iter().map(|v| v + 60.0).collect();
                table.insert(&shifted);
                for e in &mut estimators {
                    e.handle_insert(&shifted, &mut rng);
                }
            }
        }
        let batch = generate_workload(
            &table,
            WorkloadSpec::paper(segment.workload),
            queries / phases,
            &mut rng,
        );
        for q in &batch {
            // Ground truth against the *live* table, so post-shift
            // queries punish stale snapshots.
            let actual = table.selectivity(&q.region);
            for (i, e) in estimators.iter_mut().enumerate() {
                let estimate = e.estimate(&q.region);
                qerrors[i].push(qerror(estimate, actual));
                let feedback = QueryFeedback {
                    region: q.region.clone(),
                    estimate,
                    actual,
                    cardinality: 0,
                };
                e.handle_feedback(&table, &feedback, &mut rng);
            }
        }
    }

    let decisions = match &estimators[2] {
        AnyEstimator::Hybrid { hybrid, .. } => hybrid.router().decisions(),
        _ => unreachable!("KINDS[2] is Hybrid"),
    };
    SegmentOutcome {
        label: segment.label,
        qerrors,
        decisions,
    }
}

fn p(values: &[f64], q: f64) -> f64 {
    let mut s = Summary::new();
    for &v in values {
        s.add(v);
    }
    s.quantile(q)
}

fn main() {
    let cli = Cli::parse();
    let queries = cli.rows_or(120, 300);
    let seed = cli.seed.unwrap_or(0xba6e);
    let segments = [
        Segment {
            label: "small",
            dims: 3,
            rows: 1_500,
            workload: WorkloadKind::DataVolume,
            shift: false,
        },
        Segment {
            label: "highdim",
            dims: 8,
            rows: if cli.full { 20_000 } else { 8_000 },
            workload: WorkloadKind::UniformVolume,
            shift: false,
        },
        Segment {
            label: "shifting",
            dims: 4,
            rows: 8_000,
            workload: WorkloadKind::DataTarget,
            shift: true,
        },
    ];
    eprintln!("# bake-off bench: {queries} queries per segment, seed {seed:#x}");

    let outcomes: Vec<SegmentOutcome> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| {
            eprintln!("# segment {} ({}D, {} rows)...", s.label, s.dims, s.rows);
            run_segment(s, queries, seed.wrapping_add(i as u64))
        })
        .collect();

    // Pool q-errors across segments, per family.
    let pooled: Vec<Vec<f64>> = (0..3)
        .map(|i| {
            outcomes
                .iter()
                .flat_map(|o| o.qerrors[i].iter().copied())
                .collect()
        })
        .collect();
    let total_queries = pooled[0].len();

    // Win rates among the single families: every family matching the
    // per-query minimum q-error gets the win (exact ties at 1.0 are real,
    // not noise).
    let mut wins = [0usize; 2];
    for (&kde, &exact) in pooled[0].iter().zip(&pooled[1]) {
        let errs = [kde, exact];
        let best = errs.iter().cloned().fold(f64::INFINITY, f64::min);
        for (w, &e) in wins.iter_mut().zip(&errs) {
            if e <= best * (1.0 + 1e-12) {
                *w += 1;
            }
        }
    }

    let p50: Vec<f64> = pooled.iter().map(|v| p(v, 0.50)).collect();
    let p95: Vec<f64> = pooled.iter().map(|v| p(v, 0.95)).collect();
    let (best_single, best_p95) = (0..2)
        .map(|i| (i, p95[i]))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two single families");
    let hybrid_p95 = p95[2];

    let mut decisions = [0u64; 2];
    for o in &outcomes {
        for (total, d) in decisions.iter_mut().zip(o.decisions) {
            *total += d;
        }
    }

    let mut table = TextTable::new(["family", "qerr_p50", "qerr_p95", "win_rate"]);
    for i in 0..3 {
        table.row([
            NAMES[i].to_string(),
            fmt(p50[i]),
            fmt(p95[i]),
            if i < 2 {
                format!("{:.2}", wins[i] as f64 / total_queries as f64)
            } else {
                "-".to_string()
            },
        ]);
    }
    emit(&cli, &table);
    eprintln!(
        "# router decisions: kde {} / exact {}; best single: {}",
        decisions[0], decisions[1], NAMES[best_single]
    );

    let family_json = |i: usize| {
        format!(
            "{{\"qerr_p50\": {:.4}, \"qerr_p95\": {:.4}, \"win_rate\": {:.4}}}",
            p50[i],
            p95[i],
            wins[i] as f64 / total_queries as f64
        )
    };
    let segment_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let per_family: Vec<String> = (0..3)
                .map(|i| format!("\"{}\": {:.4}", NAMES[i], p(&o.qerrors[i], 0.95)))
                .collect();
            format!(
                "    {{\"segment\": \"{}\", \"qerr_p95\": {{{}}}, \"router_decisions\": [{}, {}]}}",
                o.label,
                per_family.join(", "),
                o.decisions[0],
                o.decisions[1]
            )
        })
        .collect();
    let gate_ok = hybrid_p95 <= best_p95;
    let json = format!(
        "{{\n  \"config\": {{\"queries_per_segment\": {queries}, \"segments\": {}, \"seed\": {seed}}},\n  \"families\": {{\n    \"kde\": {},\n    \"exact\": {}\n  }},\n  \"hybrid\": {{\"qerr_p50\": {:.4}, \"qerr_p95\": {:.4}, \"decisions\": {{\"kde\": {}, \"exact\": {}}}}},\n  \"segments\": [\n{}\n  ],\n  \"gate\": {{\"hybrid_p95\": {:.4}, \"best_single\": \"{}\", \"best_single_p95\": {:.4}, \"ok\": {}}}\n}}\n",
        segments.len(),
        family_json(0),
        family_json(1),
        p50[2],
        hybrid_p95,
        decisions[Family::Kde.index()],
        decisions[Family::Exact.index()],
        segment_json.join(",\n"),
        hybrid_p95,
        NAMES[best_single],
        best_p95,
        gate_ok,
    );
    let out = std::env::var("BENCH_BAKEOFF_OUT").unwrap_or_else(|_| "BENCH_bakeoff.json".into());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!("# wrote {out}");

    // --- Perf-smoke gate: the router must not lose to its best member.
    let gated = std::env::var("PERF_SMOKE").is_ok_and(|v| v == "1");
    if gate_ok {
        eprintln!(
            "# bakeoff gate ok: hybrid p95 {hybrid_p95:.3} <= best single ({}) {best_p95:.3}",
            NAMES[best_single]
        );
    } else {
        eprintln!(
            "PERF REGRESSION: hybrid p95 {hybrid_p95:.3} > best single ({}) {best_p95:.3}",
            NAMES[best_single]
        );
        if gated {
            std::process::exit(1);
        }
    }

    // --- Perf-trend history: stamp this run; gate when BENCH_TREND=1.
    record_and_gate(
        HistoryEntry::stamped(
            "bakeoff",
            vec![
                ("hybrid_p95".to_string(), hybrid_p95),
                ("hybrid_vs_best".to_string(), hybrid_p95 / best_p95),
            ],
        ),
        &[
            TrendSpec::new("hybrid_p95", Direction::LowerIsBetter, 0.3),
            TrendSpec::new("hybrid_vs_best", Direction::LowerIsBetter, 0.25),
        ],
    );
}
