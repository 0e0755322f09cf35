//! Window deltas of the process-global telemetry registry.
//!
//! Counters subtract directly. Histograms keep only bucket counts, so a
//! snapshot recovers each bucket's count by inverting
//! [`Histogram::quantile`]; two snapshots then subtract bucket by bucket,
//! which isolates the timed window from the set-up that shares the
//! registry.

use crate::stats::quantile_sorted;
use kdesel_telemetry::Histogram;
use std::collections::BTreeMap;

/// Bucket key of a value: the top 16 bits of its IEEE-754 pattern, the
/// same log-linear bucketing `Histogram` records with.
fn bucket_key(value: f64) -> u64 {
    value.to_bits() >> 48
}

/// Midpoint of a bucket's value range.
fn bucket_mid(key: u64) -> f64 {
    0.5 * (f64::from_bits(key << 48) + f64::from_bits((key + 1) << 48))
}

/// Observation counts per bucket at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnap {
    buckets: BTreeMap<u64, u64>,
}

impl HistSnap {
    /// Recovers the bucket counts of `hist`. The `k`-th smallest
    /// observation lies in the bucket `quantile((k − ½)/n)` reports, and
    /// equal answers form one contiguous run of `k`, so a binary search
    /// per distinct bucket finds each run's length.
    pub fn of(hist: &Histogram) -> Self {
        let n = hist.count();
        let at = |k: u64| {
            let q = (k as f64 - 0.5) / n as f64;
            bucket_key(hist.quantile(q).expect("non-empty histogram"))
        };
        let mut buckets = BTreeMap::new();
        let mut k = 1;
        while k <= n {
            let key = at(k);
            let (mut lo, mut hi) = (k, n);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if at(mid) == key {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            buckets.insert(key, lo - k + 1);
            k = lo + 1;
        }
        Self { buckets }
    }

    /// Observations recorded since `earlier` (a snapshot of the same
    /// histogram).
    pub fn since(&self, earlier: &HistSnap) -> HistSnap {
        let buckets = self
            .buckets
            .iter()
            .filter_map(|(&key, &count)| {
                let delta = count.saturating_sub(earlier.buckets.get(&key).copied().unwrap_or(0));
                (delta > 0).then_some((key, delta))
            })
            .collect();
        HistSnap { buckets }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Nearest-rank quantile at bucket-midpoint resolution; `0.0` when
    /// empty.
    pub fn quantile(&self, p: f64) -> f64 {
        let values: Vec<f64> = self
            .buckets
            .iter()
            .flat_map(|(&key, &count)| std::iter::repeat_n(bucket_mid(key), count as usize))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            quantile_sorted(&values, p)
        }
    }
}

/// Snapshot of a named histogram of the global registry.
pub fn hist(name: &str) -> HistSnap {
    HistSnap::of(&kdesel_telemetry::histogram(name))
}

/// Current value of a named counter of the global registry.
pub fn counter(name: &str) -> u64 {
    kdesel_telemetry::counter(name).get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_recovers_bucket_counts() {
        let h = Histogram::default();
        for v in [1e-6, 1e-6, 2e-6, 5e-3, 5e-3, 5e-3] {
            h.record(v);
        }
        let snap = HistSnap::of(&h);
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.buckets.len(), 3);
        assert_eq!(snap.buckets[&bucket_key(5e-3)], 3);
        assert_eq!(snap.buckets[&bucket_key(1e-6)], 2);
        assert_eq!(HistSnap::of(&Histogram::default()).count(), 0);
    }

    #[test]
    fn window_delta_excludes_earlier_observations() {
        let h = Histogram::default();
        // "Set-up": a few slow launches.
        for _ in 0..50 {
            h.record(1e-2);
        }
        let before = HistSnap::of(&h);
        // "Window": many fast launches.
        for i in 0..1000 {
            h.record(1e-5 * (1.0 + (i % 10) as f64 * 0.01));
        }
        let window = HistSnap::of(&h).since(&before);
        assert_eq!(window.count(), 1000);
        let p99 = window.quantile(0.99);
        assert!(p99 < 2e-5, "set-up launches leaked into the window: {p99}");
        let p50 = window.quantile(0.5);
        assert!((p50 / 1.05e-5 - 1.0).abs() < 0.05, "{p50}");
        assert_eq!(HistSnap::default().quantile(0.5), 0.0);
    }
}
