//! Capture loading and deterministic replay.
//!
//! A capture file (see [`crate::capture`]) holds everything needed to
//! re-drive the service: the post-restore state and tuning configuration
//! of every model, and every estimate/feedback the service processed, in
//! per-model execution order. [`Capture::load`] parses and integrity-checks
//! the file; [`Capture::replay`] rebuilds the registry from the recorded
//! snapshots and pushes the recorded operations back through a fresh
//! service, asserting that every replayed estimate is **bitwise identical**
//! to the recorded one.
//!
//! Why bitwise equality is attainable: estimates never mutate model state;
//! the fused `estimate_batch` path is pinned bit-identical per query to
//! sequential estimates regardless of batch shape; feedback application is
//! deterministic given the model state and the replacement rows the refresh
//! source installed — and those rows are in the capture, so replay scripts
//! a refresh source that re-installs exactly them. The per-model record
//! order in the file is the order the single executor thread actually
//! applied them, which replay reproduces with a flush barrier after every
//! feedback.
//!
//! The loader is deliberately strict: it rejects records whose `"v"` schema
//! version is missing or unexpected, and it treats an unparsable final line
//! or a missing/inconsistent `capture.end` footer as a truncated capture —
//! the failure mode of a crashed or killed service whose sink never
//! flushed its tail.

use crate::capture::COLUMN_SEPARATOR;
use crate::config::ServeConfig;
use crate::model::{ModelKey, ServedModel};
use crate::service::Service;
use kdesel_device::{Backend, Device};
use kdesel_estimators::{ExactScanEstimator, HybridEstimator, RouterConfig};
use kdesel_kde::{
    AdaptiveConfig, AdaptiveKde, KarmaConfig, LossFunction, ModelSnapshot, RmsPropConfig,
};
use kdesel_telemetry::{Json, JSONL_SCHEMA_VERSION};
use kdesel_types::{QueryFeedback, Rect};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How fast [`Capture::replay`] pushes operations at the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySpeed {
    /// As fast as the service absorbs them (determinism smoke-testing).
    Max,
    /// Paced to the recorded inter-arrival gaps (load reproduction).
    Realtime,
}

/// One registry entry reconstructed from a `capture.model` record.
#[derive(Debug)]
pub struct CapturedModel {
    /// Capture-internal model ID (the `m` field of operation records).
    pub id: u64,
    /// Registry key.
    pub key: ModelKey,
    backend: Backend,
    snapshot: ModelSnapshot,
    kind: CapturedKind,
}

#[derive(Debug)]
enum CapturedKind {
    Static,
    Adaptive {
        refresh: bool,
        adaptive: AdaptiveConfig,
        karma: KarmaConfig,
    },
    Hybrid {
        refresh: bool,
        adaptive: AdaptiveConfig,
        karma: KarmaConfig,
        router: RouterConfig,
    },
}

/// One recorded service operation, in capture-file order.
#[derive(Debug)]
pub enum Op {
    /// A served estimate (`serve.request` root span).
    Estimate {
        /// Capture-internal model ID.
        model: u64,
        /// Trace minted at the original front door.
        trace: u64,
        /// Queried region.
        region: Rect,
        /// The estimate the original run produced — replay must match it
        /// bit for bit.
        estimate: f64,
        /// Seconds since the original run's telemetry epoch.
        at: f64,
    },
    /// An applied feedback item (`serve.feedback` span).
    Feedback {
        /// Capture-internal model ID.
        model: u64,
        /// Trace of the request this answered (0 = untraced).
        trace: u64,
        /// The feedback triple.
        feedback: QueryFeedback,
        /// Replacement tuples the refresh source installed, in order.
        replacements: Vec<(usize, Vec<f64>)>,
        /// Seconds since the original run's telemetry epoch.
        at: f64,
    },
}

impl Op {
    fn at(&self) -> f64 {
        match self {
            Op::Estimate { at, .. } | Op::Feedback { at, .. } => *at,
        }
    }
}

/// One span's identity, kept for tree verification.
#[derive(Debug)]
struct SpanRecord {
    name: String,
    trace: u64,
    span: u64,
    parent: u64,
}

/// Counts returned by a successful [`Capture::replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Estimates replayed (all bitwise identical to the capture).
    pub estimates: u64,
    /// Feedback items re-applied.
    pub feedback: u64,
    /// Karma replacement tuples re-installed from the capture script.
    pub replacements: u64,
}

/// A loaded, integrity-checked workload capture.
#[derive(Debug)]
pub struct Capture {
    /// Registry entries, in capture-ID order.
    pub models: Vec<CapturedModel>,
    /// Operations in file order (= per-model execution order).
    pub ops: Vec<Op>,
    spans: Vec<SpanRecord>,
}

impl Capture {
    /// Parses and integrity-checks a capture file. Fails on schema-version
    /// mismatch, malformed records, and truncation (unparsable last line,
    /// or a missing/inconsistent `capture.end` footer).
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading capture {}: {e}", path.display()))?;
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err("empty capture file".to_string());
        }
        let mut models: Vec<CapturedModel> = Vec::new();
        let mut ops = Vec::new();
        let mut spans = Vec::new();
        let mut declared_models = None;
        let mut footer: Option<(usize, u64)> = None;
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let record = match Json::parse(line) {
                Ok(record) => record,
                Err(e) if last => {
                    return Err(format!("truncated capture: unparsable final line: {e}"))
                }
                Err(e) => return Err(format!("malformed capture line {}: {e}", i + 1)),
            };
            match record.u64("v") {
                Ok(v) if v == u64::from(JSONL_SCHEMA_VERSION) => {}
                Ok(v) => {
                    return Err(format!(
                        "capture schema version {v} (expected {JSONL_SCHEMA_VERSION})"
                    ))
                }
                Err(_) => return Err(format!("line {}: missing schema version field", i + 1)),
            }
            let mut apply = || -> Result<(), String> {
                match record.str("event")? {
                    "capture.header" => declared_models = Some(record.u64("models")?),
                    "capture.model" => models.push(parse_model(&record)?),
                    "serve.request" => {
                        spans.push(span_record(&record)?);
                        ops.push(Op::Estimate {
                            model: record.u64("m")?,
                            trace: record.u64("trace")?,
                            region: region(&record)?,
                            estimate: record.f64("estimate")?,
                            at: record.f64("t")?,
                        });
                    }
                    "serve.batch" | "serve.launch" => spans.push(span_record(&record)?),
                    "serve.feedback" => {
                        spans.push(span_record(&record)?);
                        let model = record.u64("m")?;
                        let dims = models
                            .iter()
                            .find(|m| m.id == model)
                            .map(|m| m.snapshot.dims)
                            .ok_or_else(|| format!("feedback for undeclared model {model}"))?;
                        ops.push(Op::Feedback {
                            model,
                            trace: record.u64("trace")?,
                            feedback: QueryFeedback {
                                region: region(&record)?,
                                estimate: record.f64("estimate")?,
                                actual: record.f64("actual")?,
                                cardinality: record.u64("cardinality")?,
                            },
                            replacements: parse_replacements(&record, dims)?,
                            at: record.f64("t")?,
                        });
                    }
                    "capture.end" => footer = Some((i, record.u64("records")?)),
                    _ => {} // forward compatibility: unknown record kinds are skipped
                }
                Ok(())
            };
            apply().map_err(|e| format!("capture line {}: {e}", i + 1))?;
        }
        match footer {
            None => Err("truncated capture: no capture.end footer".to_string()),
            Some((index, _)) if index + 1 != lines.len() => {
                Err("corrupt capture: records after the capture.end footer".to_string())
            }
            Some((index, declared)) if declared != index as u64 => Err(format!(
                "truncated capture: footer declares {declared} records, file has {index}"
            )),
            Some(_) => {
                if let Some(declared) = declared_models {
                    if declared != models.len() as u64 {
                        return Err(format!(
                            "truncated capture: header declares {declared} models, found {}",
                            models.len()
                        ));
                    }
                }
                Ok(Self { models, ops, spans })
            }
        }
    }

    /// Verifies that every traced operation has its complete span tree:
    /// per estimate, a `serve.request` root (span == trace, parent == 0),
    /// a `serve.batch` child of the root, and a `serve.launch` child of
    /// that batch span; per traced feedback, a `serve.feedback` child of
    /// the root. Returns the number of verified trees.
    pub fn verify_spans(&self) -> Result<u64, String> {
        let mut verified = 0;
        for op in &self.ops {
            match op {
                Op::Estimate { trace, .. } => {
                    let root = self
                        .spans
                        .iter()
                        .find(|s| s.name == "serve.request" && s.trace == *trace)
                        .ok_or_else(|| format!("trace {trace}: dropped serve.request span"))?;
                    if root.span != *trace || root.parent != 0 {
                        return Err(format!("trace {trace}: serve.request is not a root span"));
                    }
                    let batch = self
                        .spans
                        .iter()
                        .find(|s| {
                            s.name == "serve.batch" && s.trace == *trace && s.parent == *trace
                        })
                        .ok_or_else(|| format!("trace {trace}: dropped serve.batch span"))?;
                    self.spans
                        .iter()
                        .find(|s| {
                            s.name == "serve.launch" && s.trace == *trace && s.parent == batch.span
                        })
                        .ok_or_else(|| format!("trace {trace}: dropped serve.launch span"))?;
                    verified += 1;
                }
                Op::Feedback { trace, .. } if *trace != 0 => {
                    self.spans
                        .iter()
                        .find(|s| {
                            s.name == "serve.feedback" && s.trace == *trace && s.parent == *trace
                        })
                        .ok_or_else(|| format!("trace {trace}: dropped serve.feedback span"))?;
                    verified += 1;
                }
                Op::Feedback { .. } => {}
            }
        }
        Ok(verified)
    }

    /// Rebuilds the registry from the captured snapshots and re-drives
    /// every recorded operation through a fresh service, failing on the
    /// first estimate that is not bitwise identical to the capture.
    ///
    /// Coalescing is disabled (`max_batch == 1`) so the replayed launch
    /// sequence is fully determined by the op order — legitimate because
    /// batch shape provably never changes per-query results.
    pub fn replay(&self, speed: ReplaySpeed) -> Result<ReplayOutcome, String> {
        // Scripted refresh state, one per model: the queue of recorded
        // replacements tagged with their op index, and a cursor the driver
        // advances so a flagged slot can only consume replacements that
        // the *current* feedback op actually installed.
        type Script = Arc<(Mutex<VecDeque<(usize, usize, Vec<f64>)>>, AtomicUsize)>;
        fn scripted_refresh(script: &Script) -> crate::model::RefreshFn {
            let script = Arc::clone(script);
            Box::new(move |slot| {
                let (queue, cursor) = &*script;
                let mut queue = queue.lock().expect("script lock");
                match queue.front() {
                    Some((op, s, _)) if *op == cursor.load(Ordering::SeqCst) && *s == slot => {
                        queue.pop_front().map(|(_, _, row)| row)
                    }
                    _ => None,
                }
            })
        }
        let mut scripts: Vec<Script> = Vec::new();
        for model in &self.models {
            let queue = self
                .ops
                .iter()
                .enumerate()
                .filter_map(|(i, op)| match op {
                    Op::Feedback {
                        model: m,
                        replacements,
                        ..
                    } if *m == model.id => Some((i, replacements)),
                    _ => None,
                })
                .flat_map(|(i, replacements)| {
                    replacements
                        .iter()
                        .map(move |(slot, row)| (i, *slot, row.clone()))
                })
                .collect();
            scripts.push(Arc::new((Mutex::new(queue), AtomicUsize::new(0))));
        }

        let mut builder = Service::builder(ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        });
        for (model, script) in self.models.iter().zip(&scripts) {
            crate::snapshot::validate(&model.snapshot)
                .map_err(|e| format!("captured model {}: {e}", model.key))?;
            let estimator = model.snapshot.restore(Device::new(model.backend));
            let served = match &model.kind {
                CapturedKind::Static => ServedModel::fixed(estimator),
                CapturedKind::Adaptive {
                    refresh,
                    adaptive,
                    karma,
                } => {
                    let kde =
                        AdaptiveKde::from_estimator(estimator, adaptive.clone(), karma.clone());
                    if *refresh {
                        ServedModel::adaptive_with_refresh(kde, scripted_refresh(script))
                    } else {
                        ServedModel::adaptive(kde)
                    }
                }
                CapturedKind::Hybrid {
                    refresh,
                    adaptive,
                    karma,
                    router,
                } => {
                    let kde =
                        AdaptiveKde::from_estimator(estimator, adaptive.clone(), karma.clone());
                    let exact = ExactScanEstimator::new(
                        Device::new(model.backend),
                        &model.snapshot.sample,
                        model.snapshot.dims,
                    );
                    let hybrid = HybridEstimator::new(kde, exact, router.clone());
                    if *refresh {
                        ServedModel::hybrid_with_refresh(hybrid, scripted_refresh(script))
                    } else {
                        ServedModel::hybrid(hybrid)
                    }
                }
            };
            builder = builder.register(model.key.clone(), served);
        }
        let service = builder.build().map_err(|e| e.to_string())?;
        let handle = service.handle();

        let key_of = |id: u64| -> Result<&ModelKey, String> {
            self.models
                .iter()
                .find(|m| m.id == id)
                .map(|m| &m.key)
                .ok_or_else(|| format!("operation for undeclared model {id}"))
        };
        let script_of = |id: u64| {
            let index = self
                .models
                .iter()
                .position(|m| m.id == id)
                .expect("key_of ran");
            &scripts[index]
        };
        let mut outcome = ReplayOutcome {
            estimates: 0,
            feedback: 0,
            replacements: 0,
        };
        let started = Instant::now();
        let epoch = self.ops.first().map_or(0.0, Op::at);
        for (i, op) in self.ops.iter().enumerate() {
            if speed == ReplaySpeed::Realtime {
                let offset = Duration::from_secs_f64((op.at() - epoch).max(0.0));
                if let Some(sleep) = offset.checked_sub(started.elapsed()) {
                    std::thread::sleep(sleep);
                }
            }
            match op {
                Op::Estimate {
                    model,
                    region,
                    estimate,
                    ..
                } => {
                    let got = handle
                        .estimate(key_of(*model)?, region)
                        .map_err(|e| e.to_string())?;
                    if got.to_bits() != estimate.to_bits() {
                        return Err(format!(
                            "estimate mismatch at op {i} (model {}): capture {estimate:?}, \
                             replay {got:?}",
                            key_of(*model)?
                        ));
                    }
                    outcome.estimates += 1;
                }
                Op::Feedback {
                    model,
                    trace,
                    feedback,
                    replacements,
                    ..
                } => {
                    let key = key_of(*model)?;
                    script_of(*model).1.store(i, Ordering::SeqCst);
                    handle
                        .feedback_traced(key, feedback.clone(), *trace)
                        .map_err(|e| e.to_string())?;
                    // Barrier: the original executor applied this item
                    // before recording anything later for this model.
                    handle.flush(key).map_err(|e| e.to_string())?;
                    outcome.feedback += 1;
                    outcome.replacements += replacements.len() as u64;
                }
            }
        }
        service.shutdown().map_err(|e| e.to_string())?;
        for (model, script) in self.models.iter().zip(&scripts) {
            let leftover = script.0.lock().expect("script lock").len();
            if leftover > 0 {
                return Err(format!(
                    "replay diverged: {leftover} captured replacement(s) for model {} were \
                     never requested by Karma",
                    model.key
                ));
            }
        }
        Ok(outcome)
    }
}

fn parse_model(record: &Json) -> Result<CapturedModel, String> {
    let columns: Vec<String> = record
        .str("columns")?
        .split(COLUMN_SEPARATOR)
        .map(str::to_string)
        .collect();
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let backend = match record.str("backend")? {
        "cpu-seq" => Backend::CpuSeq,
        "cpu-par" => Backend::CpuPar,
        "sim-gpu" => Backend::SimGpu,
        other => return Err(format!("unknown backend {other:?}")),
    };
    let snapshot = ModelSnapshot {
        sample: f64_slice(record, "sample")?,
        dims: record.usize("dims")?,
        kernel: record.str("kernel")?.to_string(),
        bandwidth: f64_slice(record, "bandwidth")?,
        router: None,
    };
    // The model constructors assert these ranges; checking them here turns
    // an out-of-range field into a load error instead of a replay panic.
    fn parse_tuning(record: &Json) -> Result<(AdaptiveConfig, KarmaConfig), String> {
        let adaptive = AdaptiveConfig {
            loss: parse_loss(record.str("loss")?)?,
            mini_batch: record.usize("mini_batch")?,
            log_updates: record.u64("log_updates")? != 0,
            rmsprop: RmsPropConfig {
                smoothing: record.f64("rms_smoothing")?,
                rate_init: record.f64("rms_rate_init")?,
                rate_min: record.f64("rms_rate_min")?,
                rate_max: record.f64("rms_rate_max")?,
                rate_inc: record.f64("rms_rate_inc")?,
                rate_dec: record.f64("rms_rate_dec")?,
                epsilon: record.f64("rms_epsilon")?,
            },
        };
        let karma = KarmaConfig {
            loss: parse_loss(record.str("karma_loss")?)?,
            k_max: record.f64("karma_k_max")?,
            threshold: record.f64("karma_threshold")?,
            empty_region_shortcut: record.u64("karma_shortcut")? != 0,
        };
        adaptive.validate()?;
        karma.validate()?;
        Ok((adaptive, karma))
    }
    let kind = match record.str("kind")? {
        "static" => CapturedKind::Static,
        "adaptive" => {
            let (adaptive, karma) = parse_tuning(record)?;
            CapturedKind::Adaptive {
                refresh: record.u64("refresh")? != 0,
                adaptive,
                karma,
            }
        }
        "hybrid" => {
            let (adaptive, karma) = parse_tuning(record)?;
            let router = RouterConfig {
                window: record.usize("router_window")?,
                latency_budget: record.f64("router_budget")?,
                probe_every: record.u64("router_probe")?,
            };
            router.validate()?;
            CapturedKind::Hybrid {
                refresh: record.u64("refresh")? != 0,
                adaptive,
                karma,
                router,
            }
        }
        other => return Err(format!("unknown model kind {other:?}")),
    };
    Ok(CapturedModel {
        id: record.u64("m")?,
        key: ModelKey::new(record.str("table")?, &column_refs),
        backend,
        snapshot,
        kind,
    })
}

fn parse_loss(name: &str) -> Result<LossFunction, String> {
    LossFunction::ALL
        .iter()
        .copied()
        .find(|l| l.name() == name)
        .ok_or_else(|| format!("unknown loss function {name:?}"))
}

/// Decodes the `slots` (space-separated indices) and `rows` (flattened
/// row-major floats) fields back into `(slot, row)` pairs.
fn parse_replacements(record: &Json, dims: usize) -> Result<Vec<(usize, Vec<f64>)>, String> {
    let slots: Vec<usize> = record
        .str("slots")?
        .split(' ')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<usize>().map_err(|e| format!("slot {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let rows = f64_slice(record, "rows")?;
    if rows.len() != slots.len() * dims {
        return Err(format!(
            "{} replacement slots but {} row values for dims {dims}",
            slots.len(),
            rows.len()
        ));
    }
    Ok(slots
        .into_iter()
        .zip(rows.chunks_exact(dims.max(1)))
        .map(|(slot, row)| (slot, row.to_vec()))
        .collect())
}

/// Decodes a space-separated float-slice field (see
/// `kdesel_telemetry::EventBuilder::f64_slice`). Elements were written
/// with round-trip (`{:?}`) formatting and Rust's float parser is
/// correctly rounded, so each decodes bit-identically.
fn f64_slice(record: &Json, key: &str) -> Result<Vec<f64>, String> {
    record
        .str(key)?
        .split(' ')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|e| format!("key {key:?} element {s:?}: {e}"))
        })
        .collect()
}

/// The queried region of a `serve.request` / `serve.feedback` record.
fn region(record: &Json) -> Result<Rect, String> {
    Rect::try_new(f64_slice(record, "lo")?, f64_slice(record, "hi")?)
}

fn span_record(record: &Json) -> Result<SpanRecord, String> {
    Ok(SpanRecord {
        name: record.str("event")?.to_string(),
        trace: record.u64("trace")?,
        span: record.u64("span")?,
        parent: record.u64("parent")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_slices_decode_bit_exactly() {
        let values = [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0];
        let joined = values
            .iter()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
            .join(" ");
        let line = format!(r#"{{"v":1,"event":"x","t":0.5,"xs":"{joined}","n":42}}"#);
        let record = Json::parse(&line).unwrap();
        let decoded = f64_slice(&record, "xs").unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} vs {b:?}");
        }
        assert_eq!(record.u64("n").unwrap(), 42);
        assert_eq!(record.f64("t").unwrap(), 0.5);
    }

    fn write_lines(tag: &str, lines: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kdesel-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    const HEADER: &str = r#"{"v":1,"event":"capture.header","t":0.0,"models":0}"#;

    #[test]
    fn load_detects_missing_footer() {
        let path = write_lines("nofooter", &[HEADER]);
        let err = Capture::load(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn load_detects_torn_final_line() {
        let path = write_lines("torn", &[HEADER, r#"{"v":1,"event":"capture.end","rec"#]);
        let err = Capture::load(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn load_detects_record_count_mismatch() {
        // Footer claims 5 records but only the header precedes it.
        let path = write_lines(
            "count",
            &[
                HEADER,
                r#"{"v":1,"event":"capture.end","t":0.0,"records":5}"#,
            ],
        );
        let err = Capture::load(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn load_rejects_wrong_schema_version() {
        let path = write_lines(
            "version",
            &[
                r#"{"v":99,"event":"capture.header","t":0.0,"models":0}"#,
                r#"{"v":99,"event":"capture.end","t":0.0,"records":1}"#,
            ],
        );
        let err = Capture::load(&path).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn load_rejects_mistyped_fields() {
        // Well-formed JSON, but `models` is a string: rejected with the
        // line and the key named, not coerced.
        let path = write_lines(
            "mistyped",
            &[
                r#"{"v":1,"event":"capture.header","t":0.0,"models":"0"}"#,
                r#"{"v":1,"event":"capture.end","t":0.0,"records":1}"#,
            ],
        );
        let err = Capture::load(&path).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("\"models\""),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_invalid_regions_without_panicking() {
        for (tag, lo, hi) in [
            ("inverted", "1.0 0.0", "0.0 1.0"),
            ("nan", "NaN 0.0", "1.0 1.0"),
            ("ragged", "0.0 0.0", "1.0"),
        ] {
            let request = format!(
                r#"{{"v":1,"event":"serve.request","t":0.0,"trace":1,"span":1,"parent":0,"m":0,"lo":"{lo}","hi":"{hi}","estimate":0.5}}"#
            );
            let path = write_lines(
                tag,
                &[
                    HEADER,
                    &request,
                    r#"{"v":1,"event":"capture.end","t":0.0,"records":2}"#,
                ],
            );
            let err = Capture::load(&path).unwrap_err();
            assert!(err.contains("line 2"), "{tag}: {err}");
        }
    }

    /// Replaces the value of one top-level `"key":value` field of a
    /// capture line.
    fn set_field(line: &str, key: &str, value: &str) -> String {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag).expect("field present") + tag.len();
        let end = start + line[start..].find([',', '}']).expect("value ends");
        format!("{}{value}{}", &line[..start], &line[end..])
    }

    #[test]
    fn load_rejects_out_of_range_tuning_without_panicking() {
        use crate::capture::Recorder;
        use kdesel_estimators::HybridConfig;
        use kdesel_kde::KernelFn;

        let sample: Vec<f64> = (0..32).map(|i| f64::from(i) * 0.5).collect();
        let models = vec![
            (
                ModelKey::new("orders", &["price"]),
                ServedModel::adaptive(AdaptiveKde::new(
                    Device::new(Backend::CpuSeq),
                    &sample,
                    1,
                    KernelFn::Gaussian,
                    AdaptiveConfig::default(),
                    KarmaConfig::default(),
                )),
            ),
            (
                ModelKey::new("parts", &["size"]),
                ServedModel::hybrid(HybridEstimator::from_sample(
                    Device::new(Backend::CpuSeq),
                    &sample,
                    1,
                    &HybridConfig::default(),
                )),
            ),
        ];
        let dir = std::env::temp_dir().join(format!("kdesel-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recorded = dir.join("tuning-recorded.jsonl");
        Recorder::create(&recorded, &models).unwrap().finish();
        let text = std::fs::read_to_string(&recorded).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        Capture::load(&recorded).expect("the recorded capture loads");

        // (line, capture field, value the model constructors reject, the
        // config field the error names); karma_threshold stays at -2.
        for (line, key, value, field) in [
            (2, "mini_batch", "0", "mini_batch"),
            (2, "rms_smoothing", "1.5", "smoothing"),
            (2, "karma_k_max", "-3.0", "k_max"),
            (3, "router_window", "0", "window"),
        ] {
            let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            edited[line - 1] = set_field(&edited[line - 1], key, value);
            let refs: Vec<&str> = edited.iter().map(String::as_str).collect();
            let path = write_lines(&format!("tuning-{key}"), &refs);
            let err = Capture::load(&path).unwrap_err();
            assert!(
                err.contains(&format!("capture line {line}:")) && err.contains(field),
                "{key}={value}: {err}"
            );
        }
    }

    #[test]
    fn load_accepts_minimal_clean_capture() {
        let path = write_lines(
            "clean",
            &[
                HEADER,
                r#"{"v":1,"event":"capture.end","t":0.0,"records":1}"#,
            ],
        );
        let capture = Capture::load(&path).unwrap();
        assert!(capture.models.is_empty());
        assert!(capture.ops.is_empty());
        assert_eq!(capture.verify_spans().unwrap(), 0);
    }
}
