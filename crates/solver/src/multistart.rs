//! MLSL-style clustered multistart for global optimization.
//!
//! The paper's batch bandwidth optimization "first run\[s\] a coarse global
//! optimization algorithm (e.g. MLSL) to get us into the right neighborhood,
//! followed by a local optimization algorithm" (§3.4). Multi-Level Single
//! Linkage [Rinnooy Kan & Timmer 1987] samples candidate starting points,
//! and launches a local search from a candidate only if no already-sampled
//! point with a *better* objective value lies within a critical distance
//! `r_k` that shrinks as the sample grows — clustering the starts so each
//! basin of attraction is searched roughly once.
//!
//! The paper also notes the bandwidth objective typically has "only one or
//! two" minima, so a modest sampling budget suffices.

use crate::lbfgs::{lbfgs, LbfgsConfig};
use crate::problem::{Bounds, Objective, OptResult};
use kdesel_math::vecops::dist_sq;
use rand::Rng;

/// Multistart configuration.
#[derive(Debug, Clone)]
pub struct MultistartConfig {
    /// Sampling rounds.
    pub rounds: usize,
    /// Candidate points sampled per round.
    pub samples_per_round: usize,
    /// Fraction of the best-valued points considered as start candidates
    /// each round (the "reduced sample" of MLSL).
    pub reduced_fraction: f64,
    /// Scale constant of the critical clustering radius.
    pub radius_scale: f64,
    /// Local-search configuration.
    pub local: LbfgsConfig,
}

impl Default for MultistartConfig {
    fn default() -> Self {
        Self {
            rounds: 4,
            samples_per_round: 16,
            reduced_fraction: 0.25,
            radius_scale: 0.5,
            local: LbfgsConfig::default(),
        }
    }
}

/// Globally minimizes `obj` over `bounds`.
///
/// `extra_starts` are always used as local-search seeds (the KDE optimizer
/// passes Scott's-rule bandwidth here so the heuristic solution is never
/// lost). Returns the best local-search result.
pub fn multistart<O: Objective, R: Rng + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    extra_starts: &[Vec<f64>],
    config: &MultistartConfig,
    rng: &mut R,
) -> OptResult {
    let dims = obj.dims();
    assert_eq!(bounds.dims(), dims);

    let mut best: Option<OptResult> = None;
    let consider = |cand: OptResult, best: &mut Option<OptResult>| {
        if best.as_ref().is_none_or(|b| cand.f < b.f) {
            *best = Some(cand);
        }
    };
    // Every local search beyond the first is a "restart" in the MLSL sense.
    let mut local_runs: u64 = 0;
    let mut run_local = |start: &[f64], best: &mut Option<OptResult>| {
        local_runs += 1;
        let res = lbfgs(obj, bounds, start, &config.local);
        consider(res, best);
    };

    // Deterministic seeds first.
    for start in extra_starts {
        run_local(start, &mut best);
    }

    // Sampled points across all rounds: (x, f).
    let mut sampled: Vec<(Vec<f64>, f64)> = Vec::new();
    let diameter = bounds.diameter().max(1e-12);

    for round in 1..=config.rounds {
        for _ in 0..config.samples_per_round {
            let x = bounds.sample(rng);
            let f = obj.value(&x);
            if f.is_finite() {
                sampled.push((x, f));
            }
        }
        if sampled.is_empty() {
            continue;
        }
        sampled.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite objective values"));

        // MLSL critical radius: shrinks like (ln k / k)^(1/d).
        let k = sampled.len() as f64;
        let radius =
            config.radius_scale * diameter * ((k.ln().max(1.0)) / k).powf(1.0 / dims as f64);
        let radius_sq = radius * radius;

        let reduced = ((sampled.len() as f64 * config.reduced_fraction).ceil() as usize)
            .clamp(1, sampled.len());
        // Collect starts first (borrow of `sampled` ends before local runs).
        let starts: Vec<Vec<f64>> = sampled[..reduced]
            .iter()
            .enumerate()
            .filter(|(i, (xi, _))| {
                // Single-linkage rule: skip if a strictly better point lies
                // within the critical radius.
                !sampled[..*i]
                    .iter()
                    .any(|(xj, _)| dist_sq(xi, xj) < radius_sq)
            })
            .map(|(_, (x, _))| x.clone())
            .collect();

        for start in starts {
            run_local(&start, &mut best);
        }
        // Early exit once the remaining rounds cannot plausibly help: the
        // paper's objective has few minima, so two rounds agreeing on the
        // incumbent is a strong signal.
        if round >= 2 {
            if let Some(b) = &best {
                let best_sample = sampled.first().map(|(_, f)| *f).unwrap_or(f64::INFINITY);
                if b.f <= best_sample {
                    break;
                }
            }
        }
    }

    if kdesel_telemetry::enabled() && local_runs > 1 {
        kdesel_telemetry::counter("solver.multistart_restarts").add(local_runs - 1);
    }

    best.unwrap_or_else(|| {
        // Pathological case: every sampled value was non-finite and no extra
        // starts were given. Fall back to the box center.
        let mut x: Vec<f64> = bounds
            .lo()
            .iter()
            .zip(bounds.hi())
            .map(|(&l, &h)| 0.5 * (l.max(-1e3) + h.min(1e3)))
            .collect();
        bounds.project(&mut x);
        lbfgs(obj, bounds, &x, &config.local)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_global_minimum_of_double_well() {
        // Local search from +1 basin stays local; multistart must find −1.
        // The separable 2D double well has four local minima, so a start
        // must land in the (−,−) quadrant basin for both coordinates to
        // finish negative. Sample generously: the default 3×12 budget
        // leaves a nontrivial chance (for an unlucky RNG stream) that no
        // start hits that quadrant, which would test the seed, not the
        // algorithm.
        let obj = testfns::double_well(2);
        let bounds = Bounds::uniform(2, -3.0, 3.0);
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = MultistartConfig {
            rounds: 6,
            samples_per_round: 40,
            ..Default::default()
        };
        let res = multistart(&obj, &bounds, &[vec![1.0, 1.0]], &cfg, &mut rng);
        for v in &res.x {
            assert!(
                *v < 0.0,
                "should land in the global (negative) well: {:?}",
                res.x
            );
        }
    }

    #[test]
    fn rastrigin_2d_global_minimum() {
        let obj = testfns::rastrigin(2);
        let bounds = Bounds::uniform(2, -5.12, 5.12);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MultistartConfig {
            rounds: 10,
            samples_per_round: 60,
            ..Default::default()
        };
        let res = multistart(&obj, &bounds, &[], &cfg, &mut rng);
        // Global optimum is 0 at origin; demanding < 1.0 means we found the
        // central basin (nearest local minima have value ≈ 1.0).
        assert!(res.f < 1.0, "f = {} at {:?}", res.f, res.x);
    }

    #[test]
    fn extra_starts_are_honoured() {
        // With zero sampling rounds, only the provided start is used.
        let obj = testfns::sphere(2);
        let bounds = Bounds::uniform(2, -10.0, 10.0);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MultistartConfig {
            rounds: 0,
            ..Default::default()
        };
        let res = multistart(&obj, &bounds, &[vec![5.0, 5.0]], &cfg, &mut rng);
        assert!(res.f < 1e-10);
    }

    #[test]
    fn no_starts_no_rounds_still_returns_a_point() {
        let obj = testfns::sphere(2);
        let bounds = Bounds::uniform(2, -1.0, 3.0);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MultistartConfig {
            rounds: 0,
            ..Default::default()
        };
        let res = multistart(&obj, &bounds, &[], &cfg, &mut rng);
        assert!(bounds.contains(&res.x));
        assert!(res.f < 1e-8);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let obj = testfns::rastrigin(2);
        let bounds = Bounds::uniform(2, -5.0, 5.0);
        let cfg = MultistartConfig::default();
        let r1 = multistart(&obj, &bounds, &[], &cfg, &mut StdRng::seed_from_u64(3));
        let r2 = multistart(&obj, &bounds, &[], &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.f, r2.f);
    }

    #[test]
    fn result_stays_in_bounds() {
        let obj = testfns::rosenbrock(2);
        // Exclude the true minimum (1,1) from the box.
        let bounds = Bounds::uniform(2, -2.0, 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        let res = multistart(&obj, &bounds, &[], &MultistartConfig::default(), &mut rng);
        assert!(bounds.contains(&res.x), "{:?}", res.x);
    }
}
