//! The hybrid cost/error router.
//!
//! Per query, [`HybridRouter`] picks one of the two estimator families
//! — KDE and exact — from two signals:
//!
//! * the **modeled cost** of answering with each family (the calibrated
//!   [`CostModel`](kdesel_device::CostModel) charge for a KDE or exact
//!   sweep), and
//! * a **rolling q-error window** per family (the PR 6 observatory
//!   shape: the most recent [`RouterConfig::window`] multiplicative
//!   errors, summarized by their nearest-rank p95).
//!
//! The score of a family is `p95_qerror × (1 + cost / latency_budget)`
//! — accuracy first, latency as a soft penalty measured in units of the
//! caller's budget — and the cheapest score wins, ties broken in
//! [`Family::ALL`] order. A family with no observations yet scores the
//! optimistic `1.0`, so every family gets tried early.
//!
//! Because feedback is routed only to the family that answered, a
//! permanently-unchosen family would never refresh its window and a
//! workload shift could go unnoticed. Every
//! [`RouterConfig::probe_every`]-th decision therefore *probes*: it is
//! routed to the family with the fewest lifetime decisions instead of
//! the best score. The probe schedule is a pure function of the decision
//! counters, so routing stays deterministic — same state, same costs,
//! same choice, on every backend (pinned by proptest).
//!
//! The adaptive state (windows, decision counters, last family) is
//! captured by [`RouterState`](kdesel_types::RouterState) for warm
//! restarts; see `kdesel-serve`'s checkpoint integration.

use kdesel_telemetry::Event;
use kdesel_types::{RouterState, QERROR_SMOOTHING};
use std::collections::VecDeque;
use std::sync::Arc;

/// The two estimator families the router arbitrates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Kernel density estimation (the paper's self-tuning estimator).
    Kde,
    /// The exact-scan estimator over a staged snapshot.
    Exact,
}

impl Family {
    /// All families, in router (and tie-break) order.
    pub const ALL: [Family; 2] = [Family::Kde, Family::Exact];

    /// Metric/report name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Kde => "kde",
            Family::Exact => "exact",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Position in [`ALL`](Self::ALL) — indexes the router's per-family
    /// arrays ([`HybridRouter::decisions`] and friends).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Multiplicative q-error between an estimate and the observed truth,
/// smoothed so empty regions stay finite (the observatory's metric):
/// `max((λ+p̂)/(λ+p), (λ+p)/(λ+p̂))`.
pub fn qerror(estimate: f64, actual: f64) -> f64 {
    let e = QERROR_SMOOTHING + estimate.max(0.0);
    let a = QERROR_SMOOTHING + actual.max(0.0);
    (e / a).max(a / e)
}

/// Routing policy parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Rolling q-error observations kept per family.
    pub window: usize,
    /// Modeled seconds per query the caller tolerates; a family costing
    /// exactly this much has its error score doubled.
    pub latency_budget: f64,
    /// Every Nth decision probes the least-used family instead of the
    /// best-scoring one, keeping all windows fresh. `0` disables probing.
    pub probe_every: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            window: 64,
            latency_budget: 2e-3,
            probe_every: 16,
        }
    }
}

impl RouterConfig {
    /// Checks the conditions [`HybridRouter::new`] requires: a non-empty
    /// window and a positive latency budget.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("router window must be positive".to_string());
        }
        if self.latency_budget > 0.0 {
            Ok(())
        } else {
            Err(format!(
                "router latency_budget must be positive, got {}",
                self.latency_budget
            ))
        }
    }
}

/// Per-query arbiter over the two families.
#[derive(Debug)]
pub struct HybridRouter {
    config: RouterConfig,
    windows: [VecDeque<f64>; 2],
    decisions: [u64; 2],
    last: Option<Family>,
    meters: [Arc<kdesel_telemetry::Counter>; 2],
    switches: Arc<kdesel_telemetry::Counter>,
}

impl HybridRouter {
    /// A fresh router with empty windows.
    ///
    /// # Panics
    /// Panics if `config` fails [`RouterConfig::validate`].
    pub fn new(config: RouterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            config,
            windows: std::array::from_fn(|_| VecDeque::new()),
            decisions: [0; 2],
            last: None,
            meters: std::array::from_fn(|i| {
                kdesel_telemetry::counter(&format!("router.decisions.{}", Family::ALL[i].name()))
            }),
            switches: kdesel_telemetry::counter("router.switches"),
        }
    }

    /// The policy in use.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Nearest-rank p95 of one family's rolling window; `1.0` (the best
    /// possible q-error) while the window is empty, so unexplored
    /// families look attractive.
    pub fn window_p95(&self, family: Family) -> f64 {
        let window = &self.windows[family.index()];
        if window.is_empty() {
            return 1.0;
        }
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
        let idx = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    /// The score [`choose`](Self::choose) minimizes: windowed p95
    /// q-error, penalized by modeled cost in units of the latency budget.
    pub fn score(&self, family: Family, cost: f64) -> f64 {
        self.window_p95(family) * (1.0 + cost.max(0.0) / self.config.latency_budget)
    }

    /// Picks the family for the next query given each family's modeled
    /// per-query cost (indexed like [`Family::ALL`]). Deterministic in
    /// (state, costs); increments the per-family decision counter and
    /// emits a `router.switch` event when the choice changes family.
    pub fn choose(&mut self, costs: &[f64; 2]) -> Family {
        let total: u64 = self.decisions.iter().sum();
        let probing = self.config.probe_every > 0
            && total > 0
            && total.is_multiple_of(self.config.probe_every);
        let choice = if probing {
            // Probe: the family with the fewest lifetime decisions, ties
            // in ALL order. Keeps every window fresh under any workload.
            Family::ALL
                .into_iter()
                .min_by_key(|f| self.decisions[f.index()])
                .expect("two families")
        } else {
            Family::ALL
                .into_iter()
                .min_by(|a, b| {
                    self.score(*a, costs[a.index()])
                        .partial_cmp(&self.score(*b, costs[b.index()]))
                        .expect("scores are finite")
                })
                .expect("two families")
        };
        self.decisions[choice.index()] += 1;
        if kdesel_telemetry::enabled() {
            self.meters[choice.index()].inc();
        }
        if self.last.is_some_and(|prev| prev != choice) {
            if kdesel_telemetry::enabled() {
                self.switches.inc();
            }
            if kdesel_telemetry::tracing() {
                kdesel_telemetry::emit_event(
                    Event::new("router.switch")
                        .str("from", self.last.expect("checked").name())
                        .str("to", choice.name())
                        .u64("decision", total),
                );
            }
        }
        self.last = Some(choice);
        choice
    }

    /// Folds one observed q-error into `family`'s rolling window.
    pub fn record(&mut self, family: Family, qerror: f64) {
        if !qerror.is_finite() || qerror < 1.0 {
            return; // never poison the window with a malformed observation
        }
        let window = &mut self.windows[family.index()];
        if window.len() == self.config.window {
            window.pop_front();
        }
        window.push_back(qerror);
    }

    /// Lifetime decisions per family, indexed like [`Family::ALL`].
    pub fn decisions(&self) -> [u64; 2] {
        self.decisions
    }

    /// Captures the adaptive state for a warm restart.
    pub fn state(&self) -> RouterState {
        RouterState {
            families: Family::ALL.iter().map(|f| f.name().to_string()).collect(),
            windows: self
                .windows
                .iter()
                .map(|w| w.iter().copied().collect())
                .collect(),
            decisions: self.decisions.to_vec(),
            last: self.last.map(|f| f.name().to_string()),
        }
    }

    /// Restores the adaptive state captured by [`state`](Self::state).
    /// The state's family set must match this router's (any order).
    pub fn restore(&mut self, state: &RouterState) -> Result<(), String> {
        state.validate()?;
        let mut windows: [VecDeque<f64>; 2] = std::array::from_fn(|_| VecDeque::new());
        let mut decisions = [0u64; 2];
        let mut seen = [false; 2];
        for (i, name) in state.families.iter().enumerate() {
            let family = Family::from_name(name)
                .ok_or_else(|| format!("router state names unknown family {name:?}"))?;
            if seen[family.index()] {
                return Err(format!("router state repeats family {name:?}"));
            }
            seen[family.index()] = true;
            let keep = state.windows[i]
                .iter()
                .copied()
                .skip(state.windows[i].len().saturating_sub(self.config.window));
            windows[family.index()] = keep.collect();
            decisions[family.index()] = state.decisions[i];
        }
        if !seen.iter().all(|&s| s) {
            return Err(format!(
                "router state covers {} of {} families",
                seen.iter().filter(|&&s| s).count(),
                Family::ALL.len()
            ));
        }
        self.windows = windows;
        self.decisions = decisions;
        self.last = state
            .last
            .as_ref()
            .map(|name| Family::from_name(name).expect("validated against families"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal costs, no probes: the router is a pure argmin over windows.
    fn plain(window: usize) -> HybridRouter {
        HybridRouter::new(RouterConfig {
            window,
            latency_budget: 1e-3,
            probe_every: 0,
        })
    }

    #[test]
    fn empty_windows_prefer_tie_break_order() {
        let mut router = plain(8);
        assert_eq!(router.choose(&[0.0; 2]), Family::Kde);
    }

    #[test]
    fn accuracy_dominates_when_costs_are_equal() {
        let mut router = plain(8);
        for _ in 0..8 {
            router.record(Family::Kde, 4.0);
            router.record(Family::Exact, 2.0);
        }
        // The better window wins even against tie-break order...
        assert_eq!(router.choose(&[1e-4; 2]), Family::Exact);
        // ...and the choice follows the windows when they swap.
        for _ in 0..8 {
            router.record(Family::Exact, 8.0);
        }
        assert_eq!(router.choose(&[1e-4; 2]), Family::Kde);
    }

    #[test]
    fn cost_penalty_breaks_accuracy_ties() {
        let mut router = plain(8);
        for _ in 0..8 {
            router.record(Family::Kde, 1.5);
            router.record(Family::Exact, 1.5);
        }
        // Same accuracy, but exact costs 10x the budget: pick KDE.
        assert_eq!(router.choose(&[1e-4, 1e-2]), Family::Kde);
        // Flip the costs and the choice flips with them.
        assert_eq!(router.choose(&[1e-2, 1e-4]), Family::Exact);
    }

    #[test]
    fn probes_rotate_through_starved_families() {
        let mut router = HybridRouter::new(RouterConfig {
            window: 8,
            latency_budget: 1e-3,
            probe_every: 4,
        });
        for _ in 0..8 {
            router.record(Family::Exact, 1.0); // exact looks perfect
            router.record(Family::Kde, 9.0);
        }
        let picks: Vec<Family> = (0..12).map(|_| router.choose(&[0.0; 2])).collect();
        // Decisions 4 and 8 probe the starved KDE; every other decision
        // follows the windows.
        for (i, pick) in picks.iter().enumerate() {
            let want = if i > 0 && i % 4 == 0 {
                Family::Kde
            } else {
                Family::Exact
            };
            assert_eq!(*pick, want, "decision {i}: {picks:?}");
        }
    }

    #[test]
    fn window_is_rolling() {
        let mut router = plain(4);
        for _ in 0..4 {
            router.record(Family::Kde, 100.0);
        }
        for _ in 0..4 {
            router.record(Family::Kde, 1.0); // evicts the bad era
        }
        assert_eq!(router.window_p95(Family::Kde), 1.0);
    }

    #[test]
    fn malformed_observations_are_dropped() {
        let mut router = plain(4);
        router.record(Family::Kde, f64::NAN);
        router.record(Family::Kde, 0.5);
        router.record(Family::Kde, f64::INFINITY);
        assert_eq!(router.state().windows[0], Vec::<f64>::new());
    }

    #[test]
    fn state_roundtrips_and_validates() {
        let mut router = plain(8);
        for q in [2.0, 3.0, 5.0] {
            router.record(Family::Exact, q);
        }
        router.choose(&[0.0; 2]);
        let state = router.state();
        assert_eq!(state.validate(), Ok(()));
        let mut other = plain(8);
        other.restore(&state).unwrap();
        assert_eq!(other.state(), state);
        assert_eq!(other.decisions(), router.decisions());
    }

    #[test]
    fn restore_truncates_to_window_and_rejects_bad_states() {
        let mut donor = plain(16);
        for i in 0..16 {
            donor.record(Family::Kde, 1.0 + i as f64);
        }
        let mut small = plain(4);
        small.restore(&donor.state()).unwrap();
        // Only the newest 4 observations survive.
        assert_eq!(small.state().windows[0], vec![13.0, 14.0, 15.0, 16.0]);

        let mut bad = donor.state();
        bad.families[1] = "stholes".to_string();
        assert!(small.restore(&bad).is_err());
        let mut missing = donor.state();
        missing.families[1] = "kde".to_string(); // duplicate, exact missing
        assert!(small.restore(&missing).is_err());
        // A three-family state from before the learned family was removed
        // (what an older hybrid checkpoint carries) is rejected, not
        // truncated to the families this router knows.
        let legacy = RouterState {
            families: vec!["kde".into(), "learned".into(), "exact".into()],
            windows: vec![vec![2.0], vec![3.0], vec![1.0]],
            decisions: vec![5, 1, 4],
            last: Some("exact".into()),
        };
        assert_eq!(legacy.validate(), Ok(()));
        assert!(small.restore(&legacy).is_err());
    }

    #[test]
    fn decision_counters_reach_telemetry() {
        kdesel_telemetry::registry().clear();
        kdesel_telemetry::set_enabled(true);
        let mut router = HybridRouter::new(RouterConfig::default());
        for _ in 0..3 {
            router.record(Family::Exact, 5.0);
            router.choose(&[0.0; 2]);
        }
        kdesel_telemetry::set_enabled(false);
        assert!(
            kdesel_telemetry::registry()
                .counter("router.decisions.kde")
                .get()
                > 0
        );
    }
}
