//! `selftune-churn`: the paper's Listing-1 lifecycle through the serving
//! API against an adaptive model, while a Fig. 8 script inserts and
//! deletes clusters underneath it. The served estimate sequence is
//! checked bit for bit against the same loop run in-process.

use crate::harness::{self, Clock, Cycles, Op};
use crate::inputs::{self, derive, stream, ChurnScript, ChurnShape, Step};
use crate::pass::{self, Telemetry};
use crate::report::PassOut;
use crate::statics::Check;
use crate::stats::Accuracy;
use crate::trace::Spans;
use kdesel_device::{Backend, Device};
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KernelFn};
use kdesel_serve::{
    CheckpointPolicy, ModelKey, RefreshFn, ServeConfig, ServeHandle, ServedModel, Service,
};
use kdesel_storage::{sampling, RowId, Table};
use kdesel_types::{QueryFeedback, SelectivityEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Model dimensionality (the paper's 5D Fig. 8 run).
const DIMS: usize = 5;
/// The paper's `d · 4 KiB` budget at f32: 1024 sample points.
const SAMPLE_POINTS: usize = 1024;
/// Lifecycles the accuracy metrics cover: the 60 warm-up queries and ten
/// full cycles, as in Fig. 8. Runs that end the window earlier finish
/// the prefix untimed, so the accuracy figures repeat exactly per seed.
const ACCURACY_PREFIX: usize = 2860;
/// Script length per second of window: well above the lifecycle rate of
/// the serving path, so the window ends before the script does.
const LIFECYCLES_PER_SECOND: f64 = 4000.0;
/// Lifecycles served on the second seed for the output check.
const CHECK_LIFECYCLES: usize = 300;
/// Set-ups timed per untraced pass.
const SETUPS: usize = 15;
/// Periodic checkpoint interval.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);

fn key() -> ModelKey {
    ModelKey::new("selftune-churn", &["c0", "c1", "c2", "c3", "c4"])
}

/// The table after the script's initial load, and the row IDs of each
/// cluster.
fn initial_table(script: &ChurnScript) -> (Table, Vec<Vec<RowId>>) {
    let mut table = Table::new(script.dims);
    let mut rows = Vec::new();
    for step in &script.steps[..script.initial] {
        let Step::Insert(row, cluster) = step else {
            unreachable!("the initial load holds only inserts")
        };
        insert(&mut table, &mut rows, row, *cluster);
    }
    (table, rows)
}

fn insert(table: &mut Table, rows: &mut Vec<Vec<RowId>>, row: &[f64], cluster: usize) {
    if cluster >= rows.len() {
        rows.resize(cluster + 1, Vec::new());
    }
    rows[cluster].push(table.insert(row));
}

/// ANALYZE and the adaptive estimator build, as every set-up and the
/// in-process reference run them.
fn build_model(table: &Table, seed: u64, spans: &mut Spans, parent: u64) -> AdaptiveKde {
    let sample = spans.span("storage.sample_rows", parent, || {
        let mut rng = StdRng::seed_from_u64(derive(seed, stream::ANALYZE));
        sampling::sample_rows(table, SAMPLE_POINTS, &mut rng)
    });
    spans.span("kde.analyze", parent, || {
        AdaptiveKde::new(
            Device::new(Backend::CpuPar),
            &sample,
            DIMS,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        )
    })
}

fn actual(cardinality: u64, rows: usize) -> f64 {
    if rows == 0 {
        0.0
    } else {
        cardinality as f64 / rows as f64
    }
}

/// The synchronous Listing-1 loop on the same script: estimate, execute,
/// feed back, refresh flagged sample slots from the live table. Returns
/// the first `lifecycles` estimates.
fn reference(script: &ChurnScript, seed: u64, lifecycles: usize) -> Vec<f64> {
    let (mut table, mut rows) = initial_table(script);
    let mut kde = build_model(&table, seed, &mut Spans::new(false, Instant::now()), 0);
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::REFRESH));
    let mut estimates = Vec::with_capacity(lifecycles);
    for step in &script.steps[script.initial..] {
        if estimates.len() == lifecycles {
            break;
        }
        match step {
            Step::Insert(row, cluster) => insert(&mut table, &mut rows, row, *cluster),
            Step::DeleteCluster(cluster) => {
                for row in rows[*cluster].drain(..) {
                    table.delete(row);
                }
            }
            Step::Query(region) => {
                let estimate = SelectivityEstimator::estimate(&mut kde, region);
                let cardinality = table.count_in(region);
                kde.observe(&QueryFeedback {
                    region: region.clone(),
                    estimate,
                    actual: actual(cardinality, table.row_count()),
                    cardinality,
                });
                for slot in kde.take_pending_replacements() {
                    if let Some(row) = sampling::sample_one(&table, &mut rng) {
                        kde.replace_point(slot, &row);
                    }
                }
                estimates.push(estimate);
            }
        }
    }
    assert_eq!(
        estimates.len(),
        lifecycles,
        "script shorter than the served run"
    );
    estimates
}

/// The optimizer-side client: walks the script, applying inserts and
/// deletes to the live table and running one lifecycle per query.
struct Client<'a> {
    script: &'a ChurnScript,
    pos: usize,
    rows: Vec<Vec<RowId>>,
    table: Arc<RwLock<Table>>,
    spans: Spans,
    /// Served estimate per lifecycle; `None` when a call failed.
    estimates: Vec<Option<f64>>,
    /// `(estimate, actual, live rows)` per lifecycle.
    outcomes: Vec<(f64, f64, usize)>,
    /// Lifecycles completed in the window, while a clock is set: their
    /// estimates and their ends.
    ops: Vec<Op>,
    cycles: Cycles,
    clock: Option<Clock>,
}

impl<'a> Client<'a> {
    /// A client at the end of the script's initial load, with room for
    /// `window_lifecycles` lifecycles in its window logs.
    fn new(
        script: &'a ChurnScript,
        rows: Vec<Vec<RowId>>,
        table: Arc<RwLock<Table>>,
        spans: Spans,
        window_lifecycles: usize,
    ) -> Self {
        Self {
            script,
            pos: script.initial,
            rows,
            table,
            spans,
            estimates: Vec::with_capacity(ACCURACY_PREFIX),
            outcomes: Vec::with_capacity(ACCURACY_PREFIX),
            ops: harness::op_log(window_lifecycles),
            cycles: Cycles::new(1, window_lifecycles),
            clock: None,
        }
    }

    /// Executes the next script step; `false` once the script is done.
    fn step(&mut self, handle: &ServeHandle, key: &ModelKey) -> bool {
        let Some(step) = self.script.steps.get(self.pos) else {
            return false;
        };
        self.pos += 1;
        match step {
            Step::Insert(row, cluster) => {
                let mut table = self.table.write().expect("table lock");
                let table = &mut *table;
                let rows = &mut self.rows;
                self.spans
                    .span("storage.insert", 0, || insert(table, rows, row, *cluster));
            }
            Step::DeleteCluster(cluster) => {
                let mut table = self.table.write().expect("table lock");
                for row in self.rows[*cluster].drain(..) {
                    self.spans.span("storage.delete", 0, || table.delete(row));
                }
            }
            Step::Query(region) => {
                let estimate = self.lifecycle(handle, key, region);
                self.estimates.push(estimate);
            }
        }
        true
    }

    /// One query, with the calls `engine::session::run_query_via` makes,
    /// in its order.
    fn lifecycle(
        &mut self,
        handle: &ServeHandle,
        key: &ModelKey,
        region: &kdesel_types::Rect,
    ) -> Option<f64> {
        let query = self.spans.open();
        let submitted = Instant::now();
        let open = self.spans.open();
        let pending = handle.submit(key, region).ok()?;
        let trace = pending.trace();
        self.spans.close(open, "serve.submit", query.id(), trace);
        let open = self.spans.open();
        let estimate = pending.wait().ok()?;
        let done = Instant::now();
        self.spans.close(open, "serve.wait", query.id(), trace);
        if let Some(clock) = &self.clock {
            self.ops.push(Op {
                end: clock.since_open(done),
                latency: done.duration_since(submitted).as_secs_f64(),
            });
        }
        let (cardinality, rows) = self.spans.span("storage.count_in", query.id(), || {
            let table = self.table.read().expect("table lock");
            (table.count_in(region), table.row_count())
        });
        let feedback = QueryFeedback {
            region: region.clone(),
            estimate,
            actual: actual(cardinality, rows),
            cardinality,
        };
        self.outcomes.push((estimate, feedback.actual, rows));
        let open = self.spans.open();
        handle.feedback_traced(key, feedback, trace).ok()?;
        self.spans.close(open, "serve.feedback", query.id(), trace);
        let open = self.spans.open();
        handle.flush(key).ok()?;
        self.spans.close(open, "serve.flush", query.id(), trace);
        self.spans.close(query, "engine.query", 0, trace);
        if let Some(clock) = &self.clock {
            self.cycles.ends.push(clock.since_open(Instant::now()));
        }
        Some(estimate)
    }
}

/// What one pass served, beyond its [`PassOut`].
struct Served {
    estimates: Vec<Option<f64>>,
    outcomes: Vec<(f64, f64, usize)>,
}

/// Checkpoint directory of this process, inside the working directory.
fn checkpoint_dir() -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("checkpoints-{}", std::process::id()))
}

/// One set-up on `table`: ANALYZE, the adaptive build with a refresh
/// source sampling the live table, the service with periodic
/// checkpoints, and the first estimate (the first script query, without
/// feedback, which leaves the model untouched).
fn setup(
    script: &ChurnScript,
    table: &Arc<RwLock<Table>>,
    seed: u64,
    spans: &mut Spans,
    refresh_spans: &Arc<Mutex<Spans>>,
) -> (Service, ServeHandle, f64, Option<f64>) {
    let started = Instant::now();
    let root = spans.open();
    let kde = build_model(&table.read().expect("table lock"), seed, spans, root.id());
    let refresh: RefreshFn = {
        let table = Arc::clone(table);
        let spans = Arc::clone(refresh_spans);
        let mut rng = StdRng::seed_from_u64(derive(seed, stream::REFRESH));
        Box::new(move |_slot| {
            let table = table.read().expect("table lock");
            let mut spans = spans.lock().expect("refresh spans");
            spans.span("storage.refresh", 0, || {
                sampling::sample_one(&table, &mut rng)
            })
        })
    };
    let config = ServeConfig {
        checkpoint: Some(CheckpointPolicy {
            dir: checkpoint_dir(),
            every: Some(CHECKPOINT_EVERY),
            restore: false,
        }),
        ..ServeConfig::default()
    };
    let service = spans
        .span("serve.build", root.id(), || {
            Service::builder(config)
                .register(key(), ServedModel::adaptive_with_refresh(kde, refresh))
                .build()
        })
        .expect("building the service");
    let handle = service.handle();
    let first_query = script.steps[script.initial..]
        .iter()
        .find_map(|s| match s {
            Step::Query(r) => Some(r),
            _ => None,
        })
        .expect("a query in the script");
    let first = {
        let open = spans.open();
        let pending = handle.submit(&key(), first_query).ok();
        let trace = pending.as_ref().map_or(0, |p| p.trace());
        spans.close(open, "serve.submit", root.id(), trace);
        let open = spans.open();
        let reply = pending.and_then(|p| p.wait().ok());
        spans.close(open, "serve.wait", root.id(), trace);
        reply
    };
    let seconds = started.elapsed().as_secs_f64();
    spans.close(root, "perfbench.setup", 0, 0);
    (service, handle, seconds, first)
}

/// One pass: timed set-ups (traced: one), the window, then untimed
/// lifecycles until the accuracy prefix is served.
fn pass(
    script: &ChurnScript,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (PassOut, Served, Vec<Option<f64>>) {
    let epoch = Instant::now();
    let (table, rows) = initial_table(script);
    let table = Arc::new(RwLock::new(table));
    let refresh_spans = Arc::new(Mutex::new(Spans::new(traced, epoch)));
    let mut telemetry = Telemetry::begin(traced);
    let mut setup_spans = Spans::new(traced, epoch);
    let setups = pass::timed_setups(
        if traced { 1 } else { SETUPS },
        || {
            let (service, handle, secs, first) =
                setup(script, &table, seed, &mut setup_spans, &refresh_spans);
            ((service, handle), secs, first)
        },
        |(service, _)| shutdown(service),
    );
    let (service, handle) = setups.last;
    let key = key();
    telemetry.mark();
    let report_before = handle.report(&key).expect("worker report");

    let client = Client::new(
        script,
        rows,
        Arc::clone(&table),
        Spans::new(traced, epoch),
        (seconds * LIFECYCLES_PER_SECOND) as usize,
    );
    let executor = harness::executor_tid();
    let mut window = harness::run(vec![client], seconds, executor, |mut client, clock| {
        client.clock = Some(clock);
        while clock.open() && client.step(&handle, &key) {}
        client.clock = None;
        client
    });
    let report_after = handle.report(&key).expect("worker report");
    telemetry.mark();
    let mut client = window.results.pop().expect("the load thread's client");
    if client.pos == script.steps.len() {
        eprintln!("perfbench: the churn script ran out before the window ended");
    }
    let mut window_spans =
        std::mem::replace(&mut client.spans, Spans::new(false, epoch)).into_vec();
    while client.estimates.len() < ACCURACY_PREFIX && client.step(&handle, &key) {}
    shutdown(service);

    let mut out = PassOut::from_window(setups.seconds, setups.steal, &window);
    out.ops = client.ops;
    out.cycles.push(client.cycles);
    let refresh = std::mem::replace(
        &mut *refresh_spans.lock().expect("refresh spans"),
        Spans::new(false, epoch),
    );
    window_spans.extend(refresh.into_vec());
    out.traced = telemetry.finish(
        setup_spans.into_vec(),
        window_spans,
        (report_before, report_after),
    );
    let served = Served {
        estimates: client.estimates,
        outcomes: client.outcomes,
    };
    (out, served, setups.firsts)
}

fn shutdown(service: Service) {
    service.shutdown().expect("service shutdown");
}

/// Runs the workload: the untraced pass, the traced pass when asked,
/// then the output check on this seed and a second one.
pub fn run(seed: u64, seconds: f64, trace: bool) -> crate::Outcome {
    let max_queries = ((seconds * LIFECYCLES_PER_SECOND) as usize).max(ACCURACY_PREFIX);
    let script = inputs::churn(seed, &ChurnShape::fig8(max_queries));
    let (untraced, served, firsts) = pass(&script, seed, seconds, false);
    let rss = crate::procfs::vm_hwm_mib();
    let accuracy = Accuracy::of(&served.outcomes[..ACCURACY_PREFIX]);
    let mut runs = vec![(served.estimates, firsts)];
    let traced = trace.then(|| {
        let (pass, served, firsts) = pass(&script, seed, seconds, true);
        runs.push((served.estimates, firsts));
        pass
    });
    let _ = std::fs::remove_dir_all(checkpoint_dir());

    // Output check, outside every timed window.
    let mut check = Check::default();
    let longest = runs.iter().map(|(e, _)| e.len()).max().unwrap_or(0);
    let expected = reference(&script, seed, longest);
    for (estimates, firsts) in &runs {
        check_sequence(&mut check, estimates, firsts, &expected);
    }
    let second = crate::second_seed(seed);
    let script2 = inputs::churn(second, &ChurnShape::fig8(CHECK_LIFECYCLES));
    let (table, rows) = initial_table(&script2);
    let table = Arc::new(RwLock::new(table));
    let epoch = Instant::now();
    let no_spans = Arc::new(Mutex::new(Spans::new(false, epoch)));
    let (service, handle, _, first) = setup(
        &script2,
        &table,
        second,
        &mut Spans::new(false, epoch),
        &no_spans,
    );
    let mut client = Client::new(&script2, rows, table, Spans::new(false, epoch), 0);
    while client.step(&handle, &key()) {}
    shutdown(service);
    let _ = std::fs::remove_dir_all(checkpoint_dir());
    check_sequence(
        &mut check,
        &client.estimates,
        &[first],
        &reference(&script2, second, CHECK_LIFECYCLES),
    );

    crate::Outcome {
        untraced,
        traced,
        accuracy,
        rss_mib: rss,
        attempted: check.attempted,
        failed: check.failed,
    }
}

/// Checks a served estimate sequence, and the set-up estimates of the
/// first script query, against the in-process reference.
fn check_sequence(
    check: &mut Check,
    served: &[Option<f64>],
    firsts: &[Option<f64>],
    expected: &[f64],
) {
    for (&estimate, &want) in served.iter().zip(expected) {
        check.reply(estimate, want);
    }
    for &first in firsts {
        check.reply(first, expected[0]);
    }
}
