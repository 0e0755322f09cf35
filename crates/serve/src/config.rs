//! Service configuration: the latency-vs-throughput knobs.
//!
//! Coalescing trades tail latency for launch amortization. The scheduler
//! holds the first request of a batch for at most [`ServeConfig::max_wait`]
//! while it gathers up to [`ServeConfig::max_batch`] companions, then
//! issues one fused `estimate_batch` launch for the whole group. With
//! `max_batch == 1` the service degenerates to one-request-per-launch —
//! the baseline `bench_serve` compares against.

use std::path::PathBuf;
use std::time::Duration;

/// Tuning knobs for one serving instance (shared by all registered models).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest number of requests fused into one `estimate_batch` launch.
    /// `1` disables coalescing entirely.
    pub max_batch: usize,
    /// Longest time the scheduler holds an admitted request while waiting
    /// for companions. Zero means "batch only what is already queued".
    pub max_wait: Duration,
    /// Warm-restart checkpointing; `None` disables persistence.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Workload capture: when set, every registered model and every served
    /// request/feedback (with its trace-span tree) is appended to this
    /// versioned JSONL file, replayable with `kdesel-replay`.
    pub capture: Option<PathBuf>,
    /// When set, a Prometheus-style text snapshot of the metrics registry
    /// is written here at shutdown (requires telemetry to be enabled for
    /// the metrics to carry values).
    pub metrics_dump: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            checkpoint: None,
            capture: None,
            metrics_dump: None,
        }
    }
}

impl ServeConfig {
    /// Validates the knobs; returns a human-readable complaint otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Where and how often [`ModelSnapshot`](kdesel_kde::ModelSnapshot)
/// checkpoints are written, and whether startup restores from them.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding one `<key>.kdesnap.json` file per registry entry.
    pub dir: PathBuf,
    /// Periodic checkpoint interval; `None` checkpoints only on shutdown
    /// and on explicit [`ServeHandle::checkpoint`](crate::ServeHandle)
    /// requests.
    pub every: Option<Duration>,
    /// Restore each registered model from its snapshot (if present) when
    /// the service is built.
    pub restore: bool,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` on shutdown/demand, restoring on startup.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: None,
            restore: true,
        }
    }

    /// Adds a periodic checkpoint interval.
    pub fn every(mut self, interval: Duration) -> Self {
        self.every = Some(interval);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_batch_rejected() {
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn policy_builder_sets_fields() {
        let policy = CheckpointPolicy::in_dir("/tmp/snaps").every(Duration::from_secs(5));
        assert_eq!(policy.dir, PathBuf::from("/tmp/snaps"));
        assert_eq!(policy.every, Some(Duration::from_secs(5)));
        assert!(policy.restore);
    }
}
