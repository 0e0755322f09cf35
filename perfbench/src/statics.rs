//! `plan-probes` and `large-model`: one static model serving a fixed,
//! seeded query sequence in closed loop, every reply checked bit for bit
//! against a twin estimator built the same way and evaluated directly.

use crate::harness::{self, Cycles, Op};
use crate::inputs::{self, derive, stream, StaticInputs, MODEL_SEED};
use crate::pass::{self, Telemetry};
use crate::report::PassOut;
use crate::stats::Accuracy;
use crate::trace::{SpanRec, Spans};
use kdesel_device::{Backend, Device};
use kdesel_kde::{BatchConfig, BatchKde, KdeEstimator, KernelFn};
use kdesel_serve::{ModelKey, ServeConfig, ServeHandle, ServedModel, Service};
use kdesel_storage::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Shape of a static-model workload.
#[derive(Debug, Clone)]
pub struct StaticSpec {
    /// Workload name.
    pub name: &'static str,
    /// Model dimensionality.
    pub dims: usize,
    /// Kernel.
    pub kernel: KernelFn,
    /// Sample points ANALYZE draws.
    pub sample_points: usize,
    /// Whether the bandwidth is optimised over a DT training log
    /// (`BatchKde`) rather than kept at Scott's rule.
    pub batch_bandwidth: bool,
    /// Concurrent optimizer sessions.
    pub sessions: usize,
    /// Probes a session submits before waiting for all of them.
    pub plan: usize,
    /// Rows of the base table.
    pub rows: usize,
    /// Distinct queries in the served sequence.
    pub queries: usize,
    /// Training-log queries (batch bandwidth only).
    pub training: usize,
    /// Queries of the second seed served for the output check.
    pub check_queries: usize,
    /// Set-ups timed per untraced pass.
    pub setups: usize,
    /// Estimates per second the op log is sized for, all sessions
    /// together (well above the measured rate).
    pub max_rate: f64,
}

/// Two optimizer sessions, each planning with 8 DV probes at a time
/// against an Epanechnikov model whose sweep is cheap, so the serving
/// path dominates latency.
pub const PLAN_PROBES: StaticSpec = StaticSpec {
    name: "plan-probes",
    dims: 3,
    kernel: KernelFn::Epanechnikov,
    sample_points: 1024,
    batch_bandwidth: true,
    sessions: 2,
    plan: 8,
    rows: 100_000,
    queries: 4096,
    training: 100,
    check_queries: 64,
    setups: 5,
    max_rate: 60_000.0,
};

/// One client issuing single estimates against a 65 536-point 8D
/// Gaussian model (4 MiB of stripes, beyond one core's L2), so the sweep
/// dominates latency.
pub const LARGE_MODEL: StaticSpec = StaticSpec {
    name: "large-model",
    dims: 8,
    kernel: KernelFn::Gaussian,
    sample_points: 65_536,
    batch_bandwidth: false,
    sessions: 1,
    plan: 1,
    rows: 131_072,
    queries: 384,
    training: 0,
    check_queries: 16,
    setups: 9,
    max_rate: 500.0,
};

/// A running service with its one model.
pub struct Served {
    service: Service,
    handle: ServeHandle,
    key: ModelKey,
}

/// What one load thread saw.
#[derive(Debug)]
struct SessionOut {
    spans: Vec<SpanRec>,
    ops: Vec<Op>,
    cycles: Cycles,
    replies: Vec<Digest>,
}

/// Every reply one session got for one query index, folded so the record
/// has a fixed size: the first reply, and how many later replies differed
/// from it or came back as errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest {
    first: Option<u64>,
    count: u64,
    differed: u64,
    errors: u64,
}

impl Digest {
    fn record(&mut self, reply: Option<f64>) {
        self.count += 1;
        match (reply.map(f64::to_bits), self.first) {
            (None, _) => self.errors += 1,
            (Some(bits), None) => self.first = Some(bits),
            (Some(bits), Some(first)) if bits != first => self.differed += 1,
            _ => {}
        }
    }
}

impl StaticSpec {
    /// The seeded inputs.
    pub fn inputs(&self, seed: u64) -> StaticInputs {
        if self.batch_bandwidth {
            inputs::plan_probes(seed, self.rows, self.queries, self.training)
        } else {
            inputs::large_model(seed, self.rows, self.queries)
        }
    }

    fn key(&self) -> ModelKey {
        let columns: Vec<String> = (0..self.dims).map(|i| format!("c{i}")).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        ModelKey::new(self.name, &columns)
    }

    /// ANALYZE and the estimator build, exactly as every set-up and the
    /// twin run them. The model is the same for every run seed (see
    /// [`inputs::MODEL_SEED`]).
    fn build_model(&self, inputs: &StaticInputs, spans: &mut Spans, parent: u64) -> KdeEstimator {
        let sample = spans.span("storage.sample_rows", parent, || {
            let mut rng = StdRng::seed_from_u64(derive(MODEL_SEED, stream::ANALYZE));
            sampling::sample_rows(&inputs.table, self.sample_points, &mut rng)
        });
        spans.span("kde.analyze", parent, || {
            let device = Device::new(Backend::CpuPar);
            if self.batch_bandwidth {
                let mut rng = StdRng::seed_from_u64(derive(MODEL_SEED, stream::SOLVER));
                BatchKde::new(
                    device,
                    &sample,
                    self.dims,
                    self.kernel,
                    &inputs.training,
                    &BatchConfig::default(),
                    &mut rng,
                )
                .into_model()
            } else {
                KdeEstimator::new(device, &sample, self.dims, self.kernel)
            }
        })
    }

    /// One set-up, timed from ANALYZE until the first estimate is
    /// answered. The first estimate is checked like every other reply.
    fn setup(&self, inputs: &StaticInputs, spans: &mut Spans) -> (Served, f64, Option<f64>) {
        let started = Instant::now();
        let root = spans.open();
        let model = self.build_model(inputs, spans, root.id());
        let key = self.key();
        let service = spans
            .span("serve.build", root.id(), || {
                Service::builder(ServeConfig::default())
                    .register(key.clone(), ServedModel::fixed(model))
                    .build()
            })
            .expect("building the service");
        let handle = service.handle();
        let first = estimate(&handle, &key, &inputs.queries[0].region, spans, root.id());
        let seconds = started.elapsed().as_secs_f64();
        spans.close(root, "perfbench.setup", 0, 0);
        (
            Served {
                service,
                handle,
                key,
            },
            seconds,
            first,
        )
    }

    /// The closed loop: session `s` runs plans `s, s+S, s+2S, …` of
    /// `plan` consecutive queries, submitting a whole plan before waiting
    /// on any of it.
    fn window(
        &self,
        served: &Served,
        inputs: &StaticInputs,
        seconds: f64,
        traced: bool,
        epoch: Instant,
    ) -> harness::Window<SessionOut> {
        let executor = harness::executor_tid();
        let plans = inputs.queries.len() / self.plan;
        let capacity = (seconds * self.max_rate / self.sessions as f64) as usize;
        let sessions = (0..self.sessions)
            .map(|session| {
                let out = SessionOut {
                    spans: Vec::new(),
                    ops: harness::op_log(capacity),
                    cycles: Cycles::new(self.plan, capacity / self.plan),
                    replies: vec![Digest::default(); inputs.queries.len()],
                };
                (session, out)
            })
            .collect();
        harness::run(sessions, seconds, executor, |(session, mut out), clock| {
            let mut spans = Spans::new(traced, epoch);
            let mut plan = session;
            let mut pending = Vec::with_capacity(self.plan);
            while clock.open() {
                let query = spans.open();
                let first = (plan % plans) * self.plan;
                for index in first..first + self.plan {
                    let submitted = Instant::now();
                    let open = spans.open();
                    match served
                        .handle
                        .submit(&served.key, &inputs.queries[index].region)
                    {
                        Ok(p) => {
                            spans.close(open, "serve.submit", query.id(), p.trace());
                            pending.push((index, submitted, p));
                        }
                        Err(_) => out.replies[index].record(None),
                    }
                }
                for (index, submitted, p) in pending.drain(..) {
                    let trace = p.trace();
                    let open = spans.open();
                    let reply = p.wait();
                    let done = Instant::now();
                    spans.close(open, "serve.wait", query.id(), trace);
                    out.ops.push(Op {
                        end: clock.since_open(done),
                        latency: done.duration_since(submitted).as_secs_f64(),
                    });
                    out.replies[index].record(reply.ok());
                }
                spans.close(query, "engine.query", 0, 0);
                out.cycles.ends.push(clock.since_open(Instant::now()));
                plan += self.sessions;
            }
            out.spans = spans.into_vec();
            out
        })
    }

    /// One pass: `setups` timed set-ups (traced: one), then the window.
    /// Returns the pass, the set-up estimates and the window's replies.
    fn pass(
        &self,
        inputs: &StaticInputs,
        seconds: f64,
        traced: bool,
    ) -> (PassOut, Vec<Option<f64>>, Vec<Vec<Digest>>) {
        let epoch = Instant::now();
        let mut telemetry = Telemetry::begin(traced);
        let mut setup_spans = Spans::new(traced, epoch);
        let setups = pass::timed_setups(
            if traced { 1 } else { self.setups },
            || self.setup(inputs, &mut setup_spans),
            shutdown,
        );
        let served = setups.last;
        telemetry.mark();
        let report_before = served.handle.report(&served.key).expect("worker report");
        let window = self.window(&served, inputs, seconds, traced, epoch);
        let report_after = served.handle.report(&served.key).expect("worker report");
        telemetry.mark();
        shutdown(served);
        let mut window_spans = Vec::new();
        let mut replies = Vec::new();
        let mut out = PassOut::from_window(setups.seconds, setups.steal, &window);
        for session in window.results {
            out.ops.extend(session.ops);
            out.cycles.push(session.cycles);
            window_spans.extend(session.spans);
            replies.push(session.replies);
        }
        out.traced = telemetry.finish(
            setup_spans.into_vec(),
            window_spans,
            (report_before, report_after),
        );
        (out, setups.firsts, replies)
    }

    /// Runs the workload: the untraced pass, the traced pass when asked,
    /// then the output check on this seed and a second one.
    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> crate::Outcome {
        let inputs = self.inputs(seed);
        let (untraced, firsts, replies) = self.pass(&inputs, seconds, false);
        let rss = crate::procfs::vm_hwm_mib();
        let mut runs = vec![(firsts, replies)];
        let traced = trace.then(|| {
            let (pass, firsts, replies) = self.pass(&inputs, seconds, true);
            runs.push((firsts, replies));
            pass
        });

        // Output check, outside every timed window.
        let expected = self.twin_estimates(&inputs, inputs.queries.len());
        let mut check = Check::default();
        for (firsts, sessions) in &runs {
            for first in firsts {
                check.reply(*first, expected[0]);
            }
            for digests in sessions {
                check.digests(digests, &expected);
            }
        }
        let second = crate::second_seed(seed);
        let inputs2 = self.inputs(second);
        let (served, _, first) = self.setup(&inputs2, &mut Spans::new(false, Instant::now()));
        let mut replies2 = vec![first];
        for q in &inputs2.queries[..self.check_queries] {
            replies2.push(served.handle.estimate(&served.key, &q.region).ok());
        }
        shutdown(served);
        let expected2 = self.twin_estimates(&inputs2, self.check_queries);
        check.reply(replies2[0], expected2[0]);
        for (reply, &want) in replies2[1..].iter().zip(&expected2) {
            check.reply(*reply, want);
        }

        let outcomes: Vec<(f64, f64, usize)> = inputs
            .queries
            .iter()
            .zip(&expected)
            .map(|(q, &est)| (est, q.selectivity, inputs.table.row_count()))
            .collect();
        crate::Outcome {
            untraced,
            traced,
            accuracy: Accuracy::of(&outcomes),
            rss_mib: rss,
            attempted: check.attempted,
            failed: check.failed,
        }
    }

    /// The twin: the same ANALYZE and build, queried directly one region
    /// at a time (not through the fused batch path the service uses).
    fn twin_estimates(&self, inputs: &StaticInputs, count: usize) -> Vec<f64> {
        let mut twin = self.build_model(inputs, &mut Spans::new(false, Instant::now()), 0);
        inputs.queries[..count]
            .iter()
            .map(|q| twin.estimate(&q.region))
            .collect()
    }
}

/// Submit-and-wait of one estimate inside spans.
fn estimate(
    handle: &ServeHandle,
    key: &ModelKey,
    region: &kdesel_types::Rect,
    spans: &mut Spans,
    parent: u64,
) -> Option<f64> {
    let open = spans.open();
    let pending = handle.submit(key, region).ok()?;
    let trace = pending.trace();
    spans.close(open, "serve.submit", parent, trace);
    let open = spans.open();
    let reply = pending.wait().ok();
    spans.close(open, "serve.wait", parent, trace);
    reply
}

fn shutdown(served: Served) {
    served.service.shutdown().expect("service shutdown");
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or disagreed with the reference.
    pub failed: u64,
}

impl Check {
    /// Checks one reply against its reference estimate.
    pub fn reply(&mut self, reply: Option<f64>, expected: f64) {
        self.attempted += 1;
        if reply.map(f64::to_bits) != Some(expected.to_bits()) {
            self.failed += 1;
        }
    }

    /// Checks every reply folded into `digests` (indexed like `expected`).
    /// Replies that differed from the first are failures whichever was
    /// right; when the first is wrong, so is every reply equal to it.
    fn digests(&mut self, digests: &[Digest], expected: &[f64]) {
        for (d, want) in digests.iter().zip(expected) {
            self.attempted += d.count;
            self.failed += d.errors + d.differed;
            if d.first.is_some_and(|bits| bits != want.to_bits()) {
                self.failed += d.count - d.errors - d.differed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_count_every_wrong_reply() {
        let expected = [1.0, 2.0, 3.0];
        let mut right = Digest::default();
        for _ in 0..3 {
            right.record(Some(1.0));
        }
        let mut wrong = Digest::default();
        wrong.record(Some(2.5));
        wrong.record(Some(2.5));
        wrong.record(Some(2.0)); // differs from the first
        wrong.record(None);
        let never = Digest::default();
        let mut check = Check::default();
        check.digests(&[right, wrong, never], &expected);
        assert_eq!(check.attempted, 7);
        assert_eq!(check.failed, 4);
        check.reply(Some(3.0), 3.0);
        check.reply(None, 3.0);
        assert_eq!((check.attempted, check.failed), (9, 5));
    }
}
