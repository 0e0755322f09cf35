//! The hybrid estimator: KDE + exact behind one router.
//!
//! [`HybridEstimator`] bundles the paper's self-tuning [`AdaptiveKde`]
//! and the [`ExactScanEstimator`], and routes every query through a
//! [`HybridRouter`]. Costs are modeled per query through the devices'
//! calibrated [`CostModel`](kdesel_device::CostModel), so the router
//! prices both families in the same modeled-seconds currency.
//!
//! **Feedback attribution.** The observatory loop delivers
//! [`QueryFeedback`] after execution, potentially out of order. Each
//! routed estimate remembers `(rect hash, family)` in a bounded FIFO;
//! when feedback arrives, the newest matching attribution is popped,
//! the q-error lands in *that* family's window, and — only when the
//! KDE answered — the feedback also drives the adaptive bandwidth/Karma
//! update. Before the KDE observes, the fused single-query sweep is
//! re-run for the feedback's region (the same re-prime `kdesel-serve`
//! performs) so Karma consumes the contribution buffer of exactly this
//! query even when other KDE-routed estimates ran in between.
//!
//! The exact snapshot is deliberately *not* maintained under inserts:
//! it decays exactly like a stale optimizer statistic would, and the
//! router's rolling windows are how the system notices and shifts
//! traffic back to the self-tuning KDE.

use crate::exact::ExactScanEstimator;
use crate::router::{qerror, Family, HybridRouter, RouterConfig};
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KernelFn, ModelSnapshot};
use kdesel_types::{QueryFeedback, Rect, RouterState, SelectivityEstimator};
use std::collections::VecDeque;

/// FNV-1a over the query rectangle's bit pattern: the key that matches
/// feedback to the family that answered its query.
fn rect_seed(region: &Rect) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &v in region.lo() {
        mix(v);
    }
    for &v in region.hi() {
        mix(v);
    }
    h
}

/// Everything needed to build a [`HybridEstimator`] from a sample.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Routing policy.
    pub router: RouterConfig,
    /// Adaptive bandwidth-tuning configuration for the KDE member.
    pub adaptive: AdaptiveConfig,
    /// Karma sample-maintenance configuration for the KDE member.
    pub karma: KarmaConfig,
    /// Kernel for the KDE member.
    pub kernel: KernelFn,
}

/// Two estimator families behind one cost/error router.
pub struct HybridEstimator {
    kde: AdaptiveKde,
    exact: ExactScanEstimator,
    router: HybridRouter,
    /// `(rect hash, family)` of routed estimates still awaiting
    /// feedback, oldest first.
    attributions: VecDeque<(u64, Family)>,
}

impl HybridEstimator {
    /// Bundles pre-built members. Both must share one dimensionality.
    pub fn new(kde: AdaptiveKde, exact: ExactScanEstimator, router: RouterConfig) -> Self {
        assert_eq!(
            exact.dims(),
            kde.model().dims(),
            "exact member dimensionality mismatch"
        );
        Self {
            kde,
            exact,
            router: HybridRouter::new(router),
            attributions: VecDeque::new(),
        }
    }

    /// Builds both members over the same staged sample: the KDE
    /// estimates from it and the exact member scans it. Used where the
    /// sample is all that is available (serving); harness builds that
    /// hold the full table should stage the exact member over the table
    /// instead and use [`new`](Self::new).
    pub fn from_sample(
        device: kdesel_device::Device,
        sample: &[f64],
        dims: usize,
        config: &HybridConfig,
    ) -> Self {
        // Devices own their timing ledgers, so the exact member gets a
        // sibling with the same backend and cost profile — identical
        // modeled charges, separate measured clocks.
        let sibling =
            kdesel_device::Device::with_profile(device.backend(), *device.cost_model().profile());
        let kde = AdaptiveKde::new(
            device,
            sample,
            dims,
            config.kernel,
            config.adaptive.clone(),
            config.karma.clone(),
        );
        let exact = ExactScanEstimator::new(sibling, sample, dims);
        Self::new(kde, exact, config.router.clone())
    }

    /// Captures the model for a warm restart: the KDE member's snapshot
    /// plus the router's adaptive state. The exact member is derived
    /// from the sample, so it is not stored — restore restages it.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::of(self.kde.model()).with_router(self.router_state())
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) in
    /// place: the KDE member is rebuilt from the snapshot (backend and
    /// cost profile preserved, tuner/Karma state fresh — the same warm
    /// restart semantics as a plain adaptive model), the exact member
    /// restages the snapshot's sample, and the router resumes from the
    /// embedded state (or fresh when the snapshot carries none). Pending
    /// feedback attributions are dropped — they refer to queries
    /// answered by the old model.
    pub fn restore_from_snapshot(&mut self, snapshot: &ModelSnapshot) -> Result<(), String> {
        let dims = self.kde.model().dims();
        if snapshot.dims != dims {
            return Err(format!(
                "snapshot dims {} do not match hybrid model dims {dims}",
                snapshot.dims
            ));
        }
        let device = self.kde.model().device();
        let (backend, profile) = (device.backend(), *device.cost_model().profile());
        let adaptive = self.kde.adaptive_config().clone();
        let karma = self.kde.karma_config().clone();
        self.kde = AdaptiveKde::from_estimator(
            snapshot.restore(kdesel_device::Device::with_profile(backend, profile)),
            adaptive,
            karma,
        );
        self.exact = ExactScanEstimator::new(
            kdesel_device::Device::with_profile(backend, profile),
            &snapshot.sample,
            dims,
        );
        let config = self.router.config().clone();
        self.router = HybridRouter::new(config);
        if let Some(state) = &snapshot.router {
            self.router.restore(state)?;
        }
        self.attributions.clear();
        Ok(())
    }

    /// Modeled device seconds one KDE estimate costs: bounds upload,
    /// one kernel pass over the sample, scalar download (the Fig. 7
    /// estimate-equivalent).
    pub fn kde_query_cost(&self) -> f64 {
        let model = self.kde.model();
        let cost = model.device().cost_model();
        let dims = model.dims();
        let flops = model.kernel().flops_per_factor() * dims as f64 + 4.0;
        cost.transfer(2 * dims * std::mem::size_of::<f64>())
            + cost.kernel(model.sample_size(), flops)
            + cost.transfer(std::mem::size_of::<f64>())
    }

    /// Modeled per-query cost of each family, indexed like
    /// [`Family::ALL`].
    pub fn query_costs(&self) -> [f64; 2] {
        [self.kde_query_cost(), self.exact.query_cost()]
    }

    /// Routes one query and answers it, returning the estimate and the
    /// family that produced it.
    pub fn estimate_routed(&mut self, region: &Rect) -> (f64, Family) {
        let costs = self.query_costs();
        let family = self.router.choose(&costs);
        let estimate = match family {
            Family::Kde => SelectivityEstimator::estimate(&mut self.kde, region),
            Family::Exact => self.exact.estimate(region),
        };
        // Bound the attribution FIFO: feedback older than a few windows
        // is routing ancient history anyway.
        if self.attributions.len() >= 4 * self.router.config().window.max(1) {
            self.attributions.pop_front();
        }
        self.attributions.push_back((rect_seed(region), family));
        (estimate, family)
    }

    /// Pops the newest pending attribution matching `region`, if any.
    fn take_attribution(&mut self, region: &Rect) -> Option<Family> {
        let key = rect_seed(region);
        let pos = self.attributions.iter().rposition(|(k, _)| *k == key)?;
        self.attributions.remove(pos).map(|(_, family)| family)
    }

    /// The router (windows, decision counters).
    pub fn router(&self) -> &HybridRouter {
        &self.router
    }

    /// Captures the router's adaptive state for a warm restart.
    pub fn router_state(&self) -> RouterState {
        self.router.state()
    }

    /// The KDE member.
    pub fn kde(&self) -> &AdaptiveKde {
        &self.kde
    }

    /// The exact-scan member.
    pub fn exact(&self) -> &ExactScanEstimator {
        &self.exact
    }

    /// Sample slots the KDE member flagged as outdated (Karma).
    pub fn take_pending_replacements(&mut self) -> Vec<usize> {
        self.kde.take_pending_replacements()
    }

    /// Installs a fresh tuple in the KDE member's sample. The exact
    /// member keeps its stale snapshot by design.
    pub fn replace_point(&mut self, index: usize, row: &[f64]) {
        self.kde.replace_point(index, row);
    }

    /// Reservoir-sampling insert hook, forwarded to the KDE member.
    pub fn reservoir_replace(&mut self, slot: usize, row: &[f64]) {
        self.kde.reservoir_replace(slot, row);
    }
}

impl SelectivityEstimator for HybridEstimator {
    fn estimate(&mut self, region: &Rect) -> f64 {
        self.estimate_routed(region).0
    }

    fn observe(&mut self, feedback: &QueryFeedback) {
        // The router's q-error window is scored per family: only the
        // member that answered is judged by this feedback.
        let family = self.take_attribution(&feedback.region);
        if let Some(family) = family {
            self.router
                .record(family, qerror(feedback.estimate, feedback.actual));
        }
        // Model maintenance is a different matter: the self-tuning KDE
        // adapts from *every* observed truth, exactly as it would
        // standalone — starving it while another family answers would
        // leave it cold when the router needs to fall back to it. Its
        // own estimate re-primes the fused sweep for exactly this
        // region so Karma consumes this query's contribution buffer.
        let estimate = SelectivityEstimator::estimate(&mut self.kde, &feedback.region);
        let kde_feedback = QueryFeedback {
            region: feedback.region.clone(),
            estimate,
            actual: feedback.actual,
            cardinality: feedback.cardinality,
        };
        self.kde.observe(&kde_feedback);
    }

    fn memory_bytes(&self) -> usize {
        self.kde.memory_bytes() + self.exact.memory_bytes()
    }

    fn name(&self) -> &str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdesel_device::{Backend, Device};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample(n: usize, dims: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims).map(|_| rng.gen_range(0.0..100.0)).collect()
    }

    fn hybrid(n: usize, dims: usize, seed: u64) -> HybridEstimator {
        let data = sample(n, dims, seed);
        HybridEstimator::from_sample(
            Device::new(Backend::CpuSeq),
            &data,
            dims,
            &HybridConfig::default(),
        )
    }

    #[test]
    fn estimates_stay_in_unit_interval_across_families() {
        let mut est = hybrid(256, 2, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..40 {
            let lo: f64 = rng.gen_range(0.0..80.0);
            let hi = lo + rng.gen_range(0.0..20.0);
            let (p, _) = est.estimate_routed(&Rect::cube(2, lo, hi));
            assert!((0.0..=1.0).contains(&p), "estimate {p} out of range");
        }
        let d = est.router().decisions();
        assert_eq!(d.iter().sum::<u64>(), 40);
    }

    #[test]
    fn feedback_lands_in_the_answering_family_window() {
        let mut est = hybrid(128, 2, 3);
        let region = Rect::cube(2, 10.0, 60.0);
        let (p, family) = est.estimate_routed(&region);
        est.observe(&QueryFeedback {
            region,
            estimate: p,
            actual: (p + 0.3).min(1.0),
            cardinality: 0,
        });
        let state = est.router_state();
        let idx = Family::ALL
            .iter()
            .position(|f| *f == family)
            .expect("family in ALL");
        assert_eq!(state.windows[idx].len(), 1, "window of {}", family.name());
        for (i, w) in state.windows.iter().enumerate() {
            if i != idx {
                assert!(w.is_empty(), "stray q-error in {}", Family::ALL[i].name());
            }
        }
        assert!(est.attributions.is_empty());
    }

    #[test]
    fn feedback_for_unseen_queries_is_tolerated() {
        let mut est = hybrid(128, 2, 4);
        est.observe(&QueryFeedback {
            region: Rect::cube(2, 0.0, 1.0),
            estimate: 0.5,
            actual: 0.1,
            cardinality: 0,
        });
        let state = est.router_state();
        assert!(state.windows.iter().all(Vec::is_empty));
    }

    #[test]
    fn error_pressure_moves_routing_between_families() {
        // Free device: no cost penalty, routing is purely error-driven.
        let data = sample(256, 2, 5);
        let mut config = HybridConfig::default();
        config.router.probe_every = 0;
        let mut est = HybridEstimator::from_sample(Device::new(Backend::CpuSeq), &data, 2, &config);
        // Poison KDE's window; exact stays pristine.
        for _ in 0..8 {
            est.router.record(Family::Kde, 40.0);
            est.router.record(Family::Exact, 1.0);
        }
        let (_, family) = est.estimate_routed(&Rect::cube(2, 20.0, 50.0));
        assert_eq!(family, Family::Exact);
    }

    #[test]
    fn snapshot_restore_resumes_router_and_model() {
        let mut est = hybrid(192, 2, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..24 {
            let lo: f64 = rng.gen_range(0.0..70.0);
            let region = Rect::cube(2, lo, lo + 20.0);
            let (p, _) = est.estimate_routed(&region);
            est.observe(&QueryFeedback {
                region,
                estimate: p,
                actual: (p * 1.3).min(1.0),
                cardinality: 0,
            });
        }
        let snapshot = est.snapshot();
        assert!(snapshot.router.is_some());
        // JSON round-trip, then restore into a differently-seeded model.
        let back = ModelSnapshot::from_json(&snapshot.to_json()).expect("parse");
        let mut restored = hybrid(192, 2, 999);
        restored.restore_from_snapshot(&back).unwrap();
        assert_eq!(restored.router_state(), est.router_state());
        assert_eq!(
            restored.kde().model().bandwidth(),
            est.kde().model().bandwidth()
        );
        // Same state + same costs => the restored model keeps routing
        // exactly where the original left off.
        let region = Rect::cube(2, 15.0, 40.0);
        let (pr, fr) = restored.estimate_routed(&region);
        let (po, fo) = est.estimate_routed(&region);
        assert_eq!(fr, fo);
        assert_eq!(pr.to_bits(), po.to_bits());
        // Dimension mismatches are rejected.
        let mut wrong = hybrid(64, 3, 1);
        assert!(wrong.restore_from_snapshot(&back).is_err());
    }
}
