//! Karma-based sample maintenance (paper §4.2, §5.6, Appendix E).
//!
//! Each sample point carries a cumulative *Karma* score measuring its net
//! effect on estimation quality. After every query, the retained per-point
//! contributions are combined with the query feedback: removing point `i`
//! from the estimate gives the leave-one-out estimate (eq. 6); the change
//! in loss is the point's Karma for this query (eq. 7); scores accumulate
//! with a saturation cap `K_max` (eq. 8, `K_max = 4` per footnote 3).
//! Points whose Karma falls below a threshold are flagged for replacement.
//!
//! Two accelerations from the paper are implemented:
//!
//! * the **empty-region shortcut** (Appendix E): when the true selectivity
//!   is zero, any point whose contribution exceeds the bound of eq. 20 is
//!   provably inside the query region, hence outdated, and is flagged
//!   immediately;
//! * the **bitmap protocol** (§5.6): the per-point flags travel to the host
//!   as one bitmap transfer; only the replacement points travel back.

use crate::estimator::KdeEstimator;
use crate::kernel::KernelFn;
use crate::loss::LossFunction;
use kdesel_device::DeviceBuffer;
use kdesel_math::{erf, SQRT_2};
use kdesel_types::QueryFeedback;

/// Karma-maintenance configuration.
#[derive(Debug, Clone)]
pub struct KarmaConfig {
    /// Loss used in the Karma definition (eq. 7).
    pub loss: LossFunction,
    /// Saturation cap `K_max` (eq. 8). Paper: 4.
    pub k_max: f64,
    /// Replacement threshold: a point is flagged when its cumulative Karma
    /// drops below this. The paper leaves the value open; −2 (half the cap,
    /// mirrored) is the repository default and is swept in the ablation
    /// bench.
    pub threshold: f64,
    /// Enable the Appendix E empty-region shortcut (Gaussian kernel only).
    pub empty_region_shortcut: bool,
}

impl Default for KarmaConfig {
    fn default() -> Self {
        Self {
            loss: LossFunction::Absolute,
            k_max: 4.0,
            threshold: -2.0,
            empty_region_shortcut: true,
        }
    }
}

impl KarmaConfig {
    /// Checks the condition [`KarmaMaintenance::new`] requires: the
    /// saturation cap lies above the replacement threshold.
    pub fn validate(&self) -> Result<(), String> {
        if self.k_max > self.threshold {
            Ok(())
        } else {
            Err(format!(
                "karma k_max {} must exceed threshold {}",
                self.k_max, self.threshold
            ))
        }
    }
}

/// Karma state for one estimator's sample.
#[derive(Debug)]
pub struct KarmaMaintenance {
    config: KarmaConfig,
    karma: DeviceBuffer,
    size: usize,
}

impl KarmaMaintenance {
    /// Creates zeroed Karma state for `estimator`'s sample.
    ///
    /// # Panics
    /// Panics if `config` fails [`KarmaConfig::validate`].
    pub fn new(estimator: &KdeEstimator, config: KarmaConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let size = estimator.sample_size();
        Self {
            karma: estimator.device().alloc_zeroed(size),
            size,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KarmaConfig {
        &self.config
    }

    /// Processes feedback for the estimator's most recent estimate and
    /// returns the indices of sample points flagged for replacement.
    ///
    /// Requires the contribution buffer retained by
    /// [`KdeEstimator::estimate`]; returns an empty list when it is absent
    /// (e.g. right after a replacement).
    pub fn update(&mut self, estimator: &KdeEstimator, feedback: &QueryFeedback) -> Vec<usize> {
        let Some(contributions) = estimator.last_contributions() else {
            return Vec::new();
        };
        debug_assert_eq!(contributions.len(), self.size);
        let s = self.size as f64;
        let actual = feedback.actual;
        let estimate = feedback.estimate;
        let loss = self.config.loss;
        let full_loss = loss.value(estimate, actual);
        let k_max = self.config.k_max;
        let threshold = self.config.threshold;

        // Empty-region shortcut bound (eq. 20), valid for the Gaussian.
        let inside_bound = if self.config.empty_region_shortcut
            && actual == 0.0
            && estimator.kernel() == KernelFn::Gaussian
        {
            Some(empty_region_bound(
                feedback.region.lo(),
                feedback.region.hi(),
                estimator.bandwidth(),
            ))
        } else {
            None
        };

        // One pass over the sample (kernel 9 in Figure 3): leave-one-out
        // estimate, Karma delta, saturated accumulation — and the shortcut.
        let device = estimator.device();
        device.zip_update_inplace(&mut self.karma, contributions, 12.0, |_i, karma, c| {
            if let Some(bound) = inside_bound {
                if c >= bound {
                    // Provably inside an empty region: force replacement.
                    return f64::NEG_INFINITY;
                }
            }
            // Eq. 6: estimate without this point.
            let loo = ((estimate * s - c) / (s - 1.0)).clamp(0.0, 1.0);
            // Eq. 7: positive when the point helped.
            let delta = loss.value(loo, actual) - full_loss;
            // Eq. 8.
            (karma + delta).min(k_max)
        });

        // Bitmap pass + single host transfer (§5.6).
        let flags = device.map_rows(&self.karma, 1, 2.0, |k| {
            if k[0] < threshold {
                1.0
            } else {
                0.0
            }
        });
        let bitmap = device.download(&flags);
        let flagged: Vec<usize> = bitmap
            .iter()
            .enumerate()
            .filter(|(_, &f)| f != 0.0)
            .map(|(i, _)| i)
            .collect();
        if kdesel_telemetry::enabled() {
            kdesel_telemetry::counter("kde.karma_updates").inc();
            kdesel_telemetry::counter("kde.karma_flagged").add(flagged.len() as u64);
        }
        flagged
    }

    /// Resets the Karma of a replaced point (single device write).
    pub fn reset_point(&mut self, estimator: &KdeEstimator, index: usize) {
        assert!(index < self.size);
        estimator.device().write_at(&mut self.karma, index, &[0.0]);
        if kdesel_telemetry::enabled() {
            kdesel_telemetry::counter("kde.karma_replaced").inc();
        }
    }

    /// Downloads the Karma scores (diagnostics/tests; charges a transfer).
    pub fn karma_values(&self, estimator: &KdeEstimator) -> Vec<f64> {
        estimator.device().download(&self.karma)
    }

    /// Memory the Karma state occupies on the device.
    pub fn memory_bytes(&self) -> usize {
        self.size * std::mem::size_of::<f64>()
    }
}

/// The containment bound of Appendix E (eq. 20): a Gaussian-kernel point
/// whose contribution to `Ω` is at least this value must lie inside `Ω`.
pub fn empty_region_bound(lo: &[f64], hi: &[f64], bandwidth: &[f64]) -> f64 {
    let d = lo.len();
    // Eq. 19: the center point's contribution (maximum possible).
    let mut p_max = 1.0;
    for j in 0..d {
        let w = hi[j] - lo[j];
        p_max *= erf(w / (2.0 * SQRT_2 * bandwidth[j]));
    }
    // Eq. 20: worst-case boundary point over all exit dimensions.
    let mut worst_ratio = 0.0f64;
    for j in 0..d {
        let w = hi[j] - lo[j];
        let num = erf(w / (SQRT_2 * bandwidth[j]));
        let den = erf(w / (2.0 * SQRT_2 * bandwidth[j]));
        if den > 0.0 {
            worst_ratio = worst_ratio.max(num / den);
        }
    }
    0.5 * p_max * worst_ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::{Backend, Device};
    use kdesel_types::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * 2).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    fn estimator_with(sample: &[f64]) -> KdeEstimator {
        KdeEstimator::new(Device::new(Backend::CpuSeq), sample, 2, KernelFn::Gaussian)
    }

    fn feedback(region: Rect, estimate: f64, actual: f64) -> QueryFeedback {
        QueryFeedback {
            region,
            estimate,
            actual,
            cardinality: 0,
        }
    }

    #[test]
    fn leave_one_out_identity() {
        // Eq. 6 must reconstruct the estimate over the sample minus point i.
        let sample = uniform_sample(32, 1);
        let mut e = estimator_with(&sample);
        let q = Rect::from_intervals(&[(0.2, 0.7), (0.1, 0.8)]);
        let est = e.estimate(&q);
        let contributions = e.device().download(e.last_contributions().unwrap());
        let s = 32.0;
        for (i, &contribution) in contributions.iter().enumerate() {
            let loo = (est * s - contribution) / (s - 1.0);
            // Direct recomputation without point i.
            let mut reduced = sample.clone();
            reduced.drain(i * 2..i * 2 + 2);
            let direct =
                KdeEstimator::estimate_host(&reduced, 2, e.bandwidth(), KernelFn::Gaussian, &q);
            assert!((loo - direct).abs() < 1e-12, "point {i}: {loo} vs {direct}");
        }
    }

    #[test]
    fn harmful_points_accumulate_negative_karma_and_get_flagged() {
        // 31 points in a tight cluster + 1 stray point far away. Queries on
        // the cluster with perfectly matching feedback make the stray point
        // look harmless; queries *around the stray point* with actual = 0
        // (it was deleted from the DB) drive its karma down.
        let mut sample = Vec::new();
        for i in 0..31 {
            sample.extend_from_slice(&[0.5 + (i as f64) * 1e-3, 0.5]);
        }
        sample.extend_from_slice(&[10.0, 10.0]); // index 31: stray/outdated
        let mut e = estimator_with(&sample);
        e.set_bandwidth(vec![0.05, 0.05]);
        let mut karma = KarmaMaintenance::new(
            &e,
            KarmaConfig {
                empty_region_shortcut: false, // force the slow path
                ..Default::default()
            },
        );
        let stray_region = Rect::from_intervals(&[(9.0, 11.0), (9.0, 11.0)]);
        let mut flagged = Vec::new();
        for _ in 0..80 {
            let est = e.estimate(&stray_region);
            assert!(est > 0.0);
            flagged = karma.update(&e, &feedback(stray_region.clone(), est, 0.0));
            if !flagged.is_empty() {
                break;
            }
        }
        assert_eq!(flagged, vec![31], "stray point must be flagged");
        let scores = karma.karma_values(&e);
        assert!(scores[31] < karma.config().threshold);
        // Cluster points were unaffected by these queries.
        assert!(scores[..31].iter().all(|&k| k > karma.config().threshold));
    }

    #[test]
    fn empty_region_shortcut_flags_immediately() {
        let mut sample = uniform_sample(31, 2);
        sample.extend_from_slice(&[50.0, 50.0]); // point inside the empty query
        let mut e = estimator_with(&sample);
        e.set_bandwidth(vec![0.1, 0.1]);
        let mut karma = KarmaMaintenance::new(&e, KarmaConfig::default());
        let region = Rect::from_intervals(&[(49.0, 51.0), (49.0, 51.0)]);
        let est = e.estimate(&region);
        let flagged = karma.update(&e, &feedback(region, est, 0.0));
        assert_eq!(flagged, vec![31], "shortcut must flag on first query");
    }

    #[test]
    fn shortcut_bound_guarantees_containment() {
        // Property of eq. 20: contribution ≥ bound ⟹ point ∈ Ω.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let lo = [rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)];
            let hi = [
                lo[0] + rng.gen_range(0.1..4.0),
                lo[1] + rng.gen_range(0.1..4.0),
            ];
            let bw = [rng.gen_range(0.05..2.0), rng.gen_range(0.05..2.0)];
            let bound = empty_region_bound(&lo, &hi, &bw);
            let point = [rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)];
            let c = KernelFn::Gaussian.contribution(&point, &lo, &hi, &bw);
            if c >= bound {
                let inside =
                    (lo[0]..=hi[0]).contains(&point[0]) && (lo[1]..=hi[1]).contains(&point[1]);
                assert!(
                    inside,
                    "point {point:?} with contribution {c} ≥ bound {bound} \
                     must be inside [{lo:?}, {hi:?}] (bw {bw:?})"
                );
            }
        }
    }

    #[test]
    fn karma_saturates_at_k_max() {
        let sample = uniform_sample(16, 4);
        let mut e = estimator_with(&sample);
        let mut karma = KarmaMaintenance::new(&e, KarmaConfig::default());
        // Perfect feedback over and over: helpful points keep gaining, but
        // must cap at k_max.
        let region = Rect::from_intervals(&[(0.0, 1.0), (0.0, 1.0)]);
        for _ in 0..200 {
            let est = e.estimate(&region);
            // Slightly wrong actual so helping points exist.
            karma.update(&e, &feedback(region.clone(), est, (est - 0.2).max(0.0)));
        }
        let scores = karma.karma_values(&e);
        for (i, &k) in scores.iter().enumerate() {
            assert!(k <= karma.config().k_max + 1e-12, "point {i} karma {k}");
        }
    }

    #[test]
    fn update_without_contributions_is_noop() {
        let sample = uniform_sample(8, 5);
        let e = estimator_with(&sample); // no estimate() call yet
        let mut karma = KarmaMaintenance::new(&e, KarmaConfig::default());
        let region = Rect::cube(2, 0.0, 1.0);
        assert!(karma.update(&e, &feedback(region, 0.5, 0.5)).is_empty());
    }

    #[test]
    fn reset_point_clears_karma() {
        let mut sample = uniform_sample(15, 6);
        sample.extend_from_slice(&[50.0, 50.0]);
        let mut e = estimator_with(&sample);
        e.set_bandwidth(vec![0.1, 0.1]);
        let mut karma = KarmaMaintenance::new(&e, KarmaConfig::default());
        let region = Rect::from_intervals(&[(49.0, 51.0), (49.0, 51.0)]);
        let est = e.estimate(&region);
        let flagged = karma.update(&e, &feedback(region, est, 0.0));
        assert_eq!(flagged, vec![15]);
        karma.reset_point(&e, 15);
        let scores = karma.karma_values(&e);
        assert_eq!(scores[15], 0.0);
    }

    #[test]
    fn bitmap_travels_as_one_download() {
        let sample = uniform_sample(64, 7);
        let mut e = estimator_with(&sample);
        let mut karma = KarmaMaintenance::new(&e, KarmaConfig::default());
        let region = Rect::cube(2, 0.0, 0.5);
        let est = e.estimate(&region);
        let before = e.device().stats();
        karma.update(&e, &feedback(region, est, 0.3));
        let after = e.device().stats();
        assert_eq!(after.downloads - before.downloads, 1, "one bitmap transfer");
        assert_eq!(after.uploads, before.uploads, "no upload needed");
    }
}
