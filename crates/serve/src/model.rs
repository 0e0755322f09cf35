//! Registry keys and the served model variants.

use kdesel_device::Device;
use kdesel_kde::{AdaptiveKde, KdeEstimator, ModelSnapshot};
use kdesel_types::{QueryFeedback, Rect, SelectivityEstimator};
use std::fmt;

/// Registry key: which table and column set a model covers. A production
/// optimizer keys its statistics the same way (Postgres: `pg_statistic`
/// rows per attribute set).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey {
    table: String,
    columns: Vec<String>,
}

impl ModelKey {
    /// Builds a key from a table name and its estimated column set.
    pub fn new(table: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            table: table.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Column names, in registration order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Stable, filesystem-safe stem for this key's checkpoint file:
    /// sanitized names plus an FNV-1a hash of the exact identifiers, so
    /// distinct keys that sanitize identically still get distinct files.
    pub fn file_stem(&self) -> String {
        fn sanitize(out: &mut String, name: &str) {
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
        }
        let mut stem = String::new();
        sanitize(&mut stem, &self.table);
        for column in &self.columns {
            stem.push('-');
            sanitize(&mut stem, column);
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.table.as_bytes());
        for column in &self.columns {
            eat(&[0]); // separator: ("ab","c") != ("a","bc")
            eat(column.as_bytes());
        }
        format!("{stem}-{hash:016x}")
    }

    /// Human-readable, metrics-safe label for this key
    /// (`orders_price_qty`): sanitized like [`file_stem`](Self::file_stem)
    /// but without the hash suffix, so per-model metric names stay
    /// legible on dashboards. Distinct keys that sanitize identically
    /// share a label — acceptable for metrics, not for files.
    pub fn metric_label(&self) -> String {
        fn sanitize(out: &mut String, name: &str) {
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
        }
        let mut label = String::new();
        sanitize(&mut label, &self.table);
        for column in &self.columns {
            label.push('_');
            sanitize(&mut label, column);
        }
        label
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.table, self.columns.join(","))
    }
}

/// Source of replacement tuples for Karma-flagged sample slots: given the
/// slot index, returns a fresh row sampled from the base table (or `None`
/// if the source is exhausted). Owned by the executor thread, so it may
/// capture an rng and a table handle without synchronization.
pub type RefreshFn = Box<dyn FnMut(usize) -> Option<Vec<f64>> + Send>;

/// A registry entry: a static estimator (heuristic/SCV/batch bandwidth,
/// no feedback consumption) or the paper's self-tuning adaptive estimator
/// with an optional tuple-refresh source.
pub enum ServedModel {
    /// Fixed-bandwidth model; feedback is accepted and discarded.
    Static(Box<KdeEstimator>),
    /// Self-tuning model (§4): feedback drives RMSprop bandwidth steps and
    /// Karma sample maintenance between batches.
    Adaptive {
        /// The adaptive estimator.
        kde: Box<AdaptiveKde>,
        /// Replacement-tuple source for Karma-flagged slots; without one,
        /// flagged slots are dropped (bandwidth tuning still applies).
        refresh: Option<RefreshFn>,
    },
}

impl fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Static(e) => f.debug_tuple("Static").field(e).finish(),
            Self::Adaptive { kde, refresh } => f
                .debug_struct("Adaptive")
                .field("kde", kde)
                .field("refresh", &refresh.is_some())
                .finish(),
        }
    }
}

impl ServedModel {
    /// Wraps a fixed-bandwidth estimator.
    pub fn fixed(estimator: KdeEstimator) -> Self {
        Self::Static(Box::new(estimator))
    }

    /// Wraps an adaptive estimator without a tuple-refresh source.
    pub fn adaptive(kde: AdaptiveKde) -> Self {
        Self::Adaptive {
            kde: Box::new(kde),
            refresh: None,
        }
    }

    /// Wraps an adaptive estimator with a tuple-refresh source for Karma
    /// replacements.
    pub fn adaptive_with_refresh(kde: AdaptiveKde, refresh: RefreshFn) -> Self {
        Self::Adaptive {
            kde: Box::new(kde),
            refresh: Some(refresh),
        }
    }

    /// Dimensionality of the estimated column set.
    pub fn dims(&self) -> usize {
        self.estimator().dims()
    }

    /// The underlying KDE model.
    pub fn estimator(&self) -> &KdeEstimator {
        match self {
            Self::Static(e) => e,
            Self::Adaptive { kde, .. } => kde.model(),
        }
    }

    /// Serves one batch with ONE fused launch for the whole group —
    /// per-query results are bit-identical to sequential `estimate` calls
    /// (pinned by tests in `kdesel-kde` and re-pinned end-to-end in
    /// `tests/serve.rs`).
    pub(crate) fn estimate_batch(&self, regions: &[Rect]) -> Vec<f64> {
        self.estimator().estimate_batch(regions)
    }

    /// Applies one feedback item off the hot path. For adaptive models
    /// this primes the fused estimate+gradient sweep (Karma consumes the
    /// retained per-point contributions; the tuner reuses the cached
    /// gradient), observes the feedback, then installs replacement tuples
    /// from the refresh source. Returns the installed replacements as
    /// `(slot, row)` pairs, so the worker can count them and the workload
    /// capture can script an identical refresh during replay.
    pub(crate) fn apply_feedback(&mut self, feedback: &QueryFeedback) -> Vec<(usize, Vec<f64>)> {
        match self {
            Self::Static(_) => Vec::new(),
            Self::Adaptive { kde, refresh } => {
                // `estimate_batch` (the serving path) does not retain
                // per-point contributions, so re-run the fused single-query
                // sweep for this region: identical launches and state to
                // the synchronous Listing-1 loop, just off the hot path.
                let _ = SelectivityEstimator::estimate(kde.as_mut(), &feedback.region);
                kde.observe(feedback);
                let mut replaced = Vec::new();
                let flagged = kde.take_pending_replacements();
                if let Some(refresh) = refresh {
                    for index in flagged {
                        if let Some(row) = refresh(index) {
                            kde.replace_point(index, &row);
                            replaced.push((index, row));
                        }
                    }
                }
                replaced
            }
        }
    }

    /// Captures the model state for warm restart.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::of(self.estimator())
    }

    /// Replaces the model state with `snapshot`, preserving the backend
    /// and (for adaptive models) the tuning configuration and refresh
    /// source. Warm restart covers the sample and the tuned bandwidth;
    /// transient tuner/Karma state restarts fresh, exactly as the paper's
    /// estimator would after a server restart.
    pub(crate) fn restore_in_place(&mut self, snapshot: &ModelSnapshot) -> Result<(), String> {
        crate::snapshot::validate(snapshot)?;
        if snapshot.dims != self.dims() {
            return Err(format!(
                "snapshot dims {} do not match registered model dims {}",
                snapshot.dims,
                self.dims()
            ));
        }
        let backend = self.estimator().device().backend();
        match self {
            Self::Static(e) => **e = snapshot.restore(Device::new(backend)),
            Self::Adaptive { kde, .. } => {
                let adaptive = kde.adaptive_config().clone();
                let karma = kde.karma_config().clone();
                **kde = AdaptiveKde::from_estimator(
                    snapshot.restore(Device::new(backend)),
                    adaptive,
                    karma,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::Backend;
    use kdesel_kde::{AdaptiveConfig, KarmaConfig, KernelFn};

    fn sample() -> Vec<f64> {
        (0..64).map(|i| (i as f64) * 0.031).collect()
    }

    fn fixed_model() -> ServedModel {
        ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::CpuSeq),
            &sample(),
            2,
            KernelFn::Gaussian,
        ))
    }

    #[test]
    fn key_display_and_accessors() {
        let key = ModelKey::new("orders", &["price", "qty"]);
        assert_eq!(key.to_string(), "orders(price,qty)");
        assert_eq!(key.table(), "orders");
        assert_eq!(key.columns(), ["price", "qty"]);
    }

    #[test]
    fn file_stem_is_sanitized_and_collision_resistant() {
        let a = ModelKey::new("t/x", &["c.1"]);
        let stem = a.file_stem();
        assert!(
            stem.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "unsafe stem {stem:?}"
        );
        // Same sanitized text, different identifiers → different stems.
        let b = ModelKey::new("t.x", &["c/1"]);
        assert_ne!(a.file_stem(), b.file_stem());
        // Column-boundary ambiguity resolved by the separator byte.
        let c = ModelKey::new("t", &["ab", "c"]);
        let d = ModelKey::new("t", &["a", "bc"]);
        assert_ne!(c.file_stem(), d.file_stem());
        // Deterministic.
        assert_eq!(a.file_stem(), ModelKey::new("t/x", &["c.1"]).file_stem());
    }

    #[test]
    fn static_model_ignores_feedback() {
        let mut model = fixed_model();
        let region = Rect::cube(2, 0.0, 1.0);
        let before = model.estimate_batch(std::slice::from_ref(&region));
        let replaced = model.apply_feedback(&QueryFeedback {
            region: region.clone(),
            estimate: before[0],
            actual: 0.9,
            cardinality: 9,
        });
        assert!(replaced.is_empty());
        assert_eq!(model.estimate_batch(&[region]), before);
    }

    #[test]
    fn adaptive_feedback_moves_bandwidth_off_the_hot_path() {
        let kde = AdaptiveKde::new(
            Device::new(Backend::CpuSeq),
            &sample(),
            2,
            KernelFn::Gaussian,
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        let mut model = ServedModel::adaptive(kde);
        let bw_before = model.estimator().bandwidth().to_vec();
        let region = Rect::from_intervals(&[(0.1, 0.9), (0.1, 0.9)]);
        let estimate = model.estimate_batch(std::slice::from_ref(&region))[0];
        for _ in 0..AdaptiveConfig::default().mini_batch {
            model.apply_feedback(&QueryFeedback {
                region: region.clone(),
                estimate,
                actual: (estimate + 0.3).min(1.0),
                cardinality: 0,
            });
        }
        assert_ne!(
            model.estimator().bandwidth(),
            bw_before.as_slice(),
            "a full mini-batch of feedback must step the bandwidth"
        );
    }

    #[test]
    fn restore_rejects_dimension_mismatch() {
        let mut model = fixed_model();
        let snapshot = ModelSnapshot {
            sample: vec![0.0, 1.0, 2.0],
            dims: 3,
            kernel: "gaussian".to_string(),
            bandwidth: vec![1.0, 1.0, 1.0],
        };
        let err = model.restore_in_place(&snapshot).unwrap_err();
        assert!(err.contains("dims"), "unexpected error {err:?}");
    }

    #[test]
    fn restore_preserves_backend_and_bandwidth() {
        let mut model = ServedModel::fixed(KdeEstimator::new(
            Device::new(Backend::SimGpu),
            &sample(),
            2,
            KernelFn::Gaussian,
        ));
        let mut snapshot = model.snapshot();
        snapshot.bandwidth = vec![0.25, 0.75];
        model.restore_in_place(&snapshot).unwrap();
        assert_eq!(model.estimator().device().backend(), Backend::SimGpu);
        assert_eq!(model.estimator().bandwidth(), [0.25, 0.75]);
    }
}
