//! Warm-restart persistence: one `ModelSnapshot` JSON file per registry
//! entry, written atomically (temp file + rename) so a crash mid-write
//! never leaves a torn checkpoint behind.

use crate::model::ModelKey;
use kdesel_kde::{ModelSnapshot, MIN_BANDWIDTH};
use std::fs;
use std::path::{Path, PathBuf};

/// Checkpoint file for `key` inside `dir`.
pub fn snapshot_path(dir: &Path, key: &ModelKey) -> PathBuf {
    dir.join(format!("{}.kdesnap.json", key.file_stem()))
}

/// Writes the snapshot atomically: serialize to `<path>.tmp`, then rename
/// over the final path. Creates `dir` if needed. Returns the final path.
pub fn write_atomic(
    dir: &Path,
    key: &ModelKey,
    snapshot: &ModelSnapshot,
) -> Result<PathBuf, String> {
    fs::create_dir_all(dir)
        .map_err(|e| format!("creating checkpoint dir {}: {e}", dir.display()))?;
    let path = snapshot_path(dir, key);
    let tmp = path.with_extension("json.tmp");
    let json = snapshot.to_json();
    // Observatory gauges: how stale was the checkpoint this write replaces
    // (0 on the first write — nothing was at risk yet), and how large the
    // on-disk state is. Sampled on every write, so a stuck checkpointer
    // shows up as a monotonically aging snapshot in the metrics dump.
    if kdesel_telemetry::enabled() {
        let age = fs::metadata(&path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .map_or(0.0, |d| d.as_secs_f64());
        kdesel_telemetry::gauge("serve.snapshot_age_s").set(age);
        kdesel_telemetry::gauge("serve.snapshot_bytes").set(json.len() as f64);
    }
    fs::write(&tmp, &json).map_err(|e| format!("writing checkpoint {}: {e}", tmp.display()))?;
    fs::rename(&tmp, &path)
        .map_err(|e| format!("publishing checkpoint {}: {e}", path.display()))?;
    Ok(path)
}

/// Loads the checkpoint for `key`, if one exists. `Ok(None)` when the file
/// is absent (cold start); `Err` on IO failure, malformed JSON, or a
/// snapshot that fails [`validate`].
pub fn load(dir: &Path, key: &ModelKey) -> Result<Option<ModelSnapshot>, String> {
    let path = snapshot_path(dir, key);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading checkpoint {}: {e}", path.display())),
    };
    let snapshot = ModelSnapshot::from_json(&text)
        .map_err(|e| format!("malformed checkpoint {}: {e}", path.display()))?;
    validate(&snapshot).map_err(|e| format!("invalid checkpoint {}: {e}", path.display()))?;
    Ok(Some(snapshot))
}

/// Structural validation beyond JSON well-formedness, so restoring never
/// trips `KdeEstimator::new`'s assertions on attacker-editable files.
pub fn validate(snapshot: &ModelSnapshot) -> Result<(), String> {
    if snapshot.dims == 0 {
        return Err("dims must be positive".to_string());
    }
    if snapshot.sample.is_empty() {
        return Err("sample is empty".to_string());
    }
    if !snapshot.sample.len().is_multiple_of(snapshot.dims) {
        return Err(format!(
            "sample length {} is not a multiple of dims {}",
            snapshot.sample.len(),
            snapshot.dims
        ));
    }
    if snapshot.bandwidth.len() != snapshot.dims {
        return Err(format!(
            "bandwidth has {} entries for dims {}",
            snapshot.bandwidth.len(),
            snapshot.dims
        ));
    }
    if !snapshot
        .bandwidth
        .iter()
        .all(|h| h.is_finite() && *h >= MIN_BANDWIDTH)
    {
        return Err(format!(
            "bandwidth entries must be finite and at least {MIN_BANDWIDTH:e}"
        ));
    }
    if !snapshot.sample.iter().all(|v| v.is_finite()) {
        return Err("sample entries must be finite".to_string());
    }
    if !matches!(snapshot.kernel.as_str(), "gaussian" | "epanechnikov") {
        return Err(format!("unknown kernel {:?}", snapshot.kernel));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ModelSnapshot {
        ModelSnapshot {
            sample: vec![0.1, 0.2, 0.3, 0.4],
            dims: 2,
            kernel: "gaussian".to_string(),
            bandwidth: vec![0.5, 0.6],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kdesel-serve-snapshot-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let key = ModelKey::new("orders", &["price"]);
        let snap = snapshot();
        let path = write_atomic(&dir, &key, &snap).unwrap();
        assert!(path.starts_with(&dir));
        assert_eq!(load(&dir, &key).unwrap(), Some(snap));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_sets_observatory_gauges() {
        let dir = temp_dir("gauges");
        let key = ModelKey::new("orders", &["price"]);
        let snap = snapshot();
        kdesel_telemetry::set_enabled(true);
        write_atomic(&dir, &key, &snap).unwrap();
        kdesel_telemetry::set_enabled(false);
        let bytes = kdesel_telemetry::gauge("serve.snapshot_bytes").get();
        assert_eq!(bytes, snap.to_json().len() as f64);
        // First write: there was no previous checkpoint to age.
        assert_eq!(kdesel_telemetry::gauge("serve.snapshot_age_s").get(), 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_cold_start() {
        let dir = temp_dir("missing");
        let key = ModelKey::new("orders", &["price"]);
        assert_eq!(load(&dir, &key).unwrap(), None);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_cold_start() {
        let dir = temp_dir("malformed");
        let key = ModelKey::new("orders", &["price"]);
        fs::create_dir_all(&dir).unwrap();
        fs::write(snapshot_path(&dir, &key), "{not json").unwrap();
        let err = load(&dir, &key).unwrap_err();
        assert!(err.contains("malformed"), "unexpected error {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_structural_corruption() {
        type Corrupt = fn(&mut ModelSnapshot);
        let cases: Vec<(&str, Corrupt)> = vec![
            ("zero dims", |s| s.dims = 0),
            ("empty sample", |s| s.sample.clear()),
            ("ragged sample", |s| s.sample.push(1.0)),
            ("bandwidth arity", |s| {
                s.bandwidth.pop();
            }),
            ("negative bandwidth", |s| s.bandwidth[0] = -1.0),
            ("nan bandwidth", |s| s.bandwidth[0] = f64::NAN),
            ("bandwidth below the floor", |s| s.bandwidth[0] = 1e-160),
            ("nan sample", |s| s.sample[0] = f64::NAN),
            ("unknown kernel", |s| s.kernel = "triangular".to_string()),
        ];
        for (what, corrupt) in cases {
            let mut snap = snapshot();
            corrupt(&mut snap);
            assert!(validate(&snap).is_err(), "accepted {what}");
        }
        assert!(validate(&snapshot()).is_ok());
    }
}
