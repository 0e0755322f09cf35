//! Workload capture: a versioned JSONL record of everything the service
//! did, detailed enough to re-drive it bit-for-bit.
//!
//! When [`ServeConfig::capture`](crate::ServeConfig) names a file, the
//! service appends one JSON object per line (through the telemetry
//! [`JsonlSink`], so every line carries the `"v"` schema-version field):
//!
//! * one `capture.header` line, then one `capture.model` line per
//!   registered model — key, backend, full state snapshot, and (for
//!   adaptive models) the complete tuning configuration, so replay can
//!   reconstruct the registry without the original build code;
//! * one `serve.request` line per served estimate (the root span of its
//!   trace, carrying the queried rectangle and the produced estimate),
//!   with `serve.batch` and `serve.launch` child spans;
//! * one `serve.feedback` line per applied feedback item (a child span
//!   of the request's root), carrying the true selectivity and every
//!   Karma replacement `(slot, row)` the refresh source installed;
//! * one final `capture.end` line with the total record count, so the
//!   replay loader can tell a clean capture from one whose tail was
//!   lost.
//!
//! The same span events are mirrored to the global telemetry sink when
//! tracing is on — the capture is a superset of the trace, not a rival
//! format. Workers write their own operations in execution order, so the
//! per-model subsequence of a capture is exactly the order in which that
//! model's state evolved; `crate::replay` relies on this.

use crate::model::{ModelKey, ServedModel};
use kdesel_telemetry::{Event, EventSink, JsonlSink};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Separator joining column names into one string field (chosen because
/// it cannot appear in sane identifiers and survives JSON escaping).
pub(crate) const COLUMN_SEPARATOR: char = '\u{1f}';

/// Shared recorder appending capture records to one JSONL file. Cheap to
/// clone behind an [`Arc`]; workers from all models write through the
/// same sink, whose internal lock keeps lines whole.
pub struct Recorder {
    sink: JsonlSink,
    ids: BTreeMap<ModelKey, u64>,
    records: AtomicU64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("models", &self.ids.len())
            .finish_non_exhaustive()
    }
}

/// A worker's view of the shared recorder: the recorder plus the
/// worker's own model ID.
#[derive(Clone, Debug)]
pub(crate) struct ModelRecorder {
    pub(crate) id: u64,
    pub(crate) recorder: Arc<Recorder>,
}

impl Recorder {
    /// Creates (truncating) the capture file and writes the header and
    /// one model record per registry entry. Model IDs are assigned in
    /// iteration order, starting at 0.
    pub(crate) fn create(path: &Path, models: &[(ModelKey, ServedModel)]) -> Result<Self, String> {
        let sink = JsonlSink::create(path)
            .map_err(|e| format!("creating capture file {}: {e}", path.display()))?;
        let recorder = Self {
            sink,
            ids: models
                .iter()
                .enumerate()
                .map(|(i, (key, _))| (key.clone(), i as u64))
                .collect(),
            records: AtomicU64::new(0),
        };
        recorder.record(Event::new("capture.header").u64("models", models.len() as u64));
        for (i, (key, model)) in models.iter().enumerate() {
            recorder.record(model_record(i as u64, key, model));
        }
        Ok(recorder)
    }

    /// The capture-internal ID of `key` (present for every registered
    /// model by construction).
    pub(crate) fn model_id(&self, key: &ModelKey) -> u64 {
        self.ids[key]
    }

    /// Appends one record.
    pub(crate) fn record(&self, event: Event) {
        self.records.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(&event);
    }

    /// Writes the `capture.end` footer and flushes. Call once, after all
    /// workers have exited.
    pub(crate) fn finish(&self) {
        let records = self.records.load(Ordering::Relaxed);
        self.sink
            .emit(&Event::new("capture.end").u64("records", records));
        self.sink.flush();
    }
}

/// The per-model configuration record: everything `crate::replay` needs
/// to rebuild this registry entry from scratch.
fn model_record(id: u64, key: &ModelKey, model: &ServedModel) -> Event {
    let snapshot = model.snapshot();
    let mut columns = String::new();
    for (i, column) in key.columns().iter().enumerate() {
        if i > 0 {
            columns.push(COLUMN_SEPARATOR);
        }
        columns.push_str(column);
    }
    let event = Event::new("capture.model")
        .u64("m", id)
        .str("table", key.table())
        .str("columns", columns)
        .str("backend", model.estimator().device().backend().name())
        .u64("dims", snapshot.dims as u64)
        .str("kernel", &snapshot.kernel)
        .f64_slice("sample", &snapshot.sample)
        .f64_slice("bandwidth", &snapshot.bandwidth);
    match model {
        ServedModel::Static(_) => event.str("kind", "static"),
        ServedModel::Adaptive { kde, refresh } => {
            let (adaptive, karma) = (kde.adaptive_config(), kde.karma_config());
            event
                .str("kind", "adaptive")
                .u64("refresh", u64::from(refresh.is_some()))
                .str("loss", adaptive.loss.name())
                .u64("mini_batch", adaptive.mini_batch as u64)
                .u64("log_updates", u64::from(adaptive.log_updates))
                .f64("rms_smoothing", adaptive.rmsprop.smoothing)
                .f64("rms_rate_init", adaptive.rmsprop.rate_init)
                .f64("rms_rate_min", adaptive.rmsprop.rate_min)
                .f64("rms_rate_max", adaptive.rmsprop.rate_max)
                .f64("rms_rate_inc", adaptive.rmsprop.rate_inc)
                .f64("rms_rate_dec", adaptive.rmsprop.rate_dec)
                .f64("rms_epsilon", adaptive.rmsprop.epsilon)
                .str("karma_loss", karma.loss.name())
                .f64("karma_k_max", karma.k_max)
                .f64("karma_threshold", karma.threshold)
                .u64("karma_shortcut", u64::from(karma.empty_region_shortcut))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::{Backend, Device};
    use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KdeEstimator, KernelFn};

    fn sample() -> Vec<f64> {
        (0..32).map(|i| i as f64 * 0.06).collect()
    }

    #[test]
    fn capture_file_has_header_models_and_footer() {
        let dir = std::env::temp_dir().join(format!("kdesel-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.jsonl");
        let models = vec![
            (
                ModelKey::new("orders", &["price", "qty"]),
                ServedModel::fixed(KdeEstimator::new(
                    Device::new(Backend::CpuSeq),
                    &sample(),
                    2,
                    KernelFn::Gaussian,
                )),
            ),
            (
                ModelKey::new("parts", &["size"]),
                ServedModel::adaptive(AdaptiveKde::new(
                    Device::new(Backend::SimGpu),
                    &sample(),
                    1,
                    KernelFn::Gaussian,
                    AdaptiveConfig::default(),
                    KarmaConfig::default(),
                )),
            ),
        ];
        let recorder = Recorder::create(&path, &models).unwrap();
        assert_eq!(recorder.model_id(&models[0].0), 0);
        assert_eq!(recorder.model_id(&models[1].0), 1);
        recorder.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 models + footer:\n{text}");
        assert!(lines[0].contains("\"capture.header\"") && lines[0].contains("\"models\":2"));
        assert!(lines[1].contains("\"kind\":\"static\"") && lines[1].contains("\"m\":0"));
        assert!(lines[2].contains("\"kind\":\"adaptive\"") && lines[2].contains("\"karma_k_max\""));
        assert!(lines[3].contains("\"capture.end\"") && lines[3].contains("\"records\":3"));
        for line in &lines {
            assert!(line.starts_with("{\"v\":1,"), "unversioned line {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
