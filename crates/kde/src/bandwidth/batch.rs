//! Batch bandwidth optimization over query feedback (paper §3.3-3.4).
//!
//! Solves optimization problem (5): minimize the mean loss over a training
//! workload of labelled queries, subject to positive bandwidths. Following
//! §3.4 and §5.3, a coarse MLSL-style global phase is followed by projected
//! L-BFGS refinement; following Appendix D, the search runs in log-space by
//! default (which also absorbs the positivity constraint). Scott's-rule
//! bandwidth is always included as a deterministic starting point, so the
//! optimizer never does worse than the heuristic on the training set.
//!
//! The objective runs through the device's fused batched kernel (§5.5-style
//! batching): one solver iteration is one launch over all workload queries,
//! not `|workload|` separate estimate/gradient sweeps.

use crate::estimator::KdeEstimator;
use crate::loss::LossFunction;
use kdesel_device::DeviceBuffer;
use kdesel_solver::{multistart, Bounds, LbfgsConfig, MultistartConfig, Objective};
use kdesel_types::{LabelledQuery, Rect};
use rand::Rng;

/// Batch-optimizer configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Loss to minimize (problem 5's `L`).
    pub loss: LossFunction,
    /// Optimize `ln h` instead of `h` (Appendix D; the paper found this
    /// better in 68% of experiments).
    pub log_space: bool,
    /// Log-space search half-width around the Scott initialization: the
    /// box is `ln h⁰ ± search_span`.
    pub search_span: f64,
    /// Global-phase configuration.
    pub multistart: MultistartConfig,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            loss: LossFunction::Quadratic,
            log_space: true,
            search_span: (200.0f64).ln(),
            multistart: MultistartConfig {
                rounds: 3,
                samples_per_round: 12,
                local: LbfgsConfig {
                    max_iterations: 80,
                    gradient_tolerance: 1e-10,
                    value_tolerance: 1e-12,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

/// Result of a batch optimization.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The optimized bandwidth (linear scale, strictly positive).
    pub bandwidth: Vec<f64>,
    /// Mean training loss at the optimum.
    pub training_loss: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

/// The workload objective of problem (5), evaluated through the device.
///
/// One objective+gradient evaluation is a *single* fused batched launch
/// ([`KdeEstimator::estimate_batch_with_gradients_at`]) instead of
/// `|workload|` separate estimate-plus-gradient pairs: the query bounds are
/// staged on the device once at construction, and each solver iteration
/// uploads only the candidate bandwidth. Per-query losses and the chain
/// rule through the loss are folded on the host, which is O(|workload|·d)
/// scalar work against the O(|sample|·|workload|·d) kernel evaluation.
pub struct WorkloadObjective<'a> {
    estimator: &'a KdeEstimator,
    regions: Vec<Rect>,
    selectivities: Vec<f64>,
    loss: LossFunction,
    log_space: bool,
    /// Query rectangles staged device-side once for the whole optimization
    /// (held so the resident-footprint accounting reflects the staging).
    _bounds: DeviceBuffer,
}

impl<'a> WorkloadObjective<'a> {
    /// Stages the workload's query bounds on `estimator`'s device and
    /// builds the objective.
    ///
    /// # Panics
    /// Panics on an empty training workload or query dimensionality
    /// mismatch.
    pub fn new(
        estimator: &'a KdeEstimator,
        queries: &[LabelledQuery],
        loss: LossFunction,
        log_space: bool,
    ) -> Self {
        assert!(!queries.is_empty(), "empty training workload");
        let dims = estimator.dims();
        for q in queries {
            assert_eq!(q.region.dims(), dims, "query dimensionality mismatch");
        }
        let regions: Vec<Rect> = queries.iter().map(|q| q.region.clone()).collect();
        let selectivities: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
        let bounds = estimator.stage_bounds(&regions);
        Self {
            estimator,
            regions,
            selectivities,
            loss,
            log_space,
            _bounds: bounds,
        }
    }

    /// Mean loss and its gradient with respect to the *linear* bandwidth.
    /// One call = one fused batched kernel launch, regardless of workload
    /// size.
    fn eval_linear(&self, h: &[f64], grad_out: &mut [f64]) -> f64 {
        let q = self.regions.len() as f64;
        let results = self
            .estimator
            .estimate_batch_with_gradients_at(h, &self.regions);
        for g in grad_out.iter_mut() {
            *g = 0.0;
        }
        let mut total_loss = 0.0;
        for ((estimate, grad), &sel) in results.iter().zip(&self.selectivities) {
            total_loss += self.loss.value(*estimate, sel);
            let lscale = self.loss.dvalue_destimate(*estimate, sel);
            for (o, &g) in grad_out.iter_mut().zip(grad) {
                *o += lscale * g;
            }
        }
        for o in grad_out.iter_mut() {
            *o /= q;
        }
        total_loss / q
    }
}

impl Objective for WorkloadObjective<'_> {
    fn dims(&self) -> usize {
        self.estimator.dims()
    }

    fn eval(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        if self.log_space {
            let h: Vec<f64> = x.iter().map(|&v| v.exp()).collect();
            let value = self.eval_linear(&h, grad);
            // Chain rule (Appendix D, eq. 18): ∂L/∂(ln h) = ∂L/∂h · h.
            for (g, &hi) in grad.iter_mut().zip(&h) {
                *g *= hi;
            }
            value
        } else {
            self.eval_linear(x, grad)
        }
    }
}

/// Solves problem (5) for `estimator`'s sample, returning the optimized
/// bandwidth. The estimator itself is not modified; callers apply the
/// result with [`KdeEstimator::set_bandwidth`].
///
/// # Panics
/// Panics on an empty training workload or query dimensionality mismatch.
pub fn optimize_bandwidth<R: Rng + ?Sized>(
    estimator: &KdeEstimator,
    queries: &[LabelledQuery],
    config: &BatchConfig,
    rng: &mut R,
) -> BatchResult {
    let objective = WorkloadObjective::new(estimator, queries, config.loss, config.log_space);
    let initial = estimator.bandwidth().to_vec();

    let (bounds, start) = if config.log_space {
        let log0: Vec<f64> = initial.iter().map(|&h| h.ln()).collect();
        let lo: Vec<f64> = log0.iter().map(|&v| v - config.search_span).collect();
        let hi: Vec<f64> = log0.iter().map(|&v| v + config.search_span).collect();
        (Bounds::new(lo, hi), log0)
    } else {
        let lo: Vec<f64> = initial
            .iter()
            .map(|&h| h * (-config.search_span).exp())
            .collect();
        let hi: Vec<f64> = initial
            .iter()
            .map(|&h| h * config.search_span.exp())
            .collect();
        (Bounds::new(lo, hi), initial.clone())
    };

    let result = multistart(&objective, &bounds, &[start], &config.multistart, rng);
    let bandwidth: Vec<f64> = if config.log_space {
        result.x.iter().map(|&v| v.exp()).collect()
    } else {
        // Linear mode can return boundary values; enforce positivity.
        result.x.iter().map(|&v| v.max(1e-12)).collect()
    };
    BatchResult {
        bandwidth,
        training_loss: result.f,
        evaluations: result.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFn;
    use kdesel_device::{Backend, Device};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two tight clusters; Scott's rule (global σ) over-smooths badly.
    fn clustered_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n * 2);
        for i in 0..n {
            let center = if i % 2 == 0 { 0.0 } else { 100.0 };
            out.push(center + rng.gen_range(-0.5..0.5));
            out.push(center + rng.gen_range(-0.5..0.5));
        }
        out
    }

    fn training_queries(sample: &[f64], estimator_sample: &[f64]) -> Vec<LabelledQuery> {
        // Queries around sampled points with the exact selectivity computed
        // over `sample` (here the sample doubles as the "database").
        let dims = 2;
        let n = sample.len() / dims;
        let mut queries = Vec::new();
        let mut k = 0;
        while queries.len() < 40 {
            let p = &estimator_sample[(k % (estimator_sample.len() / dims)) * dims..][..dims];
            let region = Rect::centered(p, &[1.0, 1.0]);
            let count = sample
                .chunks_exact(dims)
                .filter(|r| region.contains(r))
                .count();
            queries.push(LabelledQuery::new(region, count as f64 / n as f64));
            k += 1;
        }
        queries
    }

    #[test]
    fn objective_gradient_matches_finite_differences() {
        let sample = clustered_sample(64, 1);
        let queries = training_queries(&sample, &sample);
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        for log_space in [false, true] {
            let obj =
                WorkloadObjective::new(&estimator, &queries, LossFunction::Quadratic, log_space);
            let x = if log_space {
                vec![0.5f64.ln(), 2.0f64.ln()]
            } else {
                vec![0.5, 2.0]
            };
            let mut grad = vec![0.0; 2];
            obj.eval(&x, &mut grad);
            for i in 0..2 {
                let eps = 1e-6;
                let mut xp = x.clone();
                xp[i] += eps;
                let mut xm = x.clone();
                xm[i] -= eps;
                let mut tmp = vec![0.0; 2];
                let fd = (obj.eval(&xp, &mut tmp) - obj.eval(&xm, &mut tmp)) / (2.0 * eps);
                assert!(
                    (fd - grad[i]).abs() < 1e-6 * grad[i].abs().max(1.0),
                    "log={log_space} dim {i}: fd {fd} vs {}",
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn optimization_beats_scott_on_clustered_data() {
        let sample = clustered_sample(128, 2);
        let queries = training_queries(&sample, &sample);
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let scott = estimator.bandwidth().to_vec();
        let mut rng = StdRng::seed_from_u64(3);
        let result = optimize_bandwidth(&estimator, &queries, &BatchConfig::default(), &mut rng);

        // Mean training loss of Scott vs optimized.
        let mean_loss = |h: &[f64]| {
            queries
                .iter()
                .map(|q| {
                    let est =
                        KdeEstimator::estimate_host(&sample, 2, h, KernelFn::Gaussian, &q.region);
                    LossFunction::Quadratic.value(est, q.selectivity)
                })
                .sum::<f64>()
                / queries.len() as f64
        };
        let scott_loss = mean_loss(&scott);
        let opt_loss = mean_loss(&result.bandwidth);
        assert!(
            opt_loss < scott_loss * 0.5,
            "optimized {opt_loss} vs scott {scott_loss}"
        );
        assert!((result.training_loss - opt_loss).abs() < 1e-9);
        // On two tight clusters the optimal bandwidth is far below the
        // global-σ Scott value (σ ≈ 50 here).
        assert!(result.bandwidth[0] < scott[0] * 0.2);
    }

    #[test]
    fn linear_space_also_optimizes() {
        let sample = clustered_sample(64, 4);
        let queries = training_queries(&sample, &sample);
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = BatchConfig {
            log_space: false,
            ..Default::default()
        };
        let result = optimize_bandwidth(&estimator, &queries, &cfg, &mut rng);
        assert!(result.bandwidth.iter().all(|&h| h > 0.0));
        assert!(result.training_loss.is_finite());
    }

    #[test]
    fn deterministic_under_seed() {
        let sample = clustered_sample(64, 6);
        let queries = training_queries(&sample, &sample);
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let r1 = optimize_bandwidth(
            &estimator,
            &queries,
            &BatchConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let r2 = optimize_bandwidth(
            &estimator,
            &queries,
            &BatchConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(r1.bandwidth, r2.bandwidth);
    }

    #[test]
    fn objective_evaluation_is_one_fused_launch_per_iteration() {
        // ISSUE acceptance: one objective+gradient evaluation performs O(1)
        // kernel launches instead of O(|workload|).
        let sample = clustered_sample(64, 9);
        let queries = training_queries(&sample, &sample);
        assert!(queries.len() >= 40);
        let estimator =
            KdeEstimator::new(Device::new(Backend::SimGpu), &sample, 2, KernelFn::Gaussian);
        let obj = WorkloadObjective::new(&estimator, &queries, LossFunction::Quadratic, true);
        let before = estimator.device().stats();
        let mut grad = vec![0.0; 2];
        let value = obj.eval(&[0.4f64.ln(), 0.4f64.ln()], &mut grad);
        assert!(value.is_finite());
        let after = estimator.device().stats();
        // One candidate-bandwidth upload, one fused batched kernel, one
        // download of the per-query sums — independent of |workload|.
        assert_eq!(after.kernels - before.kernels, 1);
        assert_eq!(after.uploads - before.uploads, 1);
        assert_eq!(after.downloads - before.downloads, 1);
    }

    #[test]
    #[should_panic(expected = "empty training workload")]
    fn empty_workload_rejected() {
        let sample = clustered_sample(16, 8);
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let mut rng = StdRng::seed_from_u64(0);
        optimize_bandwidth(&estimator, &[], &BatchConfig::default(), &mut rng);
    }

    /// The §8 claim on the *published* estimator: the batch optimizer drives
    /// a discrete attribute's Gaussian bandwidth toward a very small value,
    /// degrading to counting.
    #[test]
    fn batch_optimizer_shrinks_bandwidth_on_discrete_attribute() {
        use crate::bandwidth::batch::{optimize_bandwidth, BatchConfig};
        use crate::estimator::KdeEstimator;
        use kdesel_device::{Backend, Device};
        use kdesel_types::LabelledQuery;

        let mut rng = StdRng::seed_from_u64(7);
        // dim 0 continuous, dim 1 binary {0, 10}.
        let rows = 4000;
        let mut data = Vec::new();
        for _ in 0..rows {
            data.push(rng.gen_range(0.0f64..100.0));
            data.push(if rng.gen_bool(0.5) { 0.0 } else { 10.0 });
        }
        let sample: Vec<f64> = data[..2 * 256].to_vec();
        let estimator =
            KdeEstimator::new(Device::new(Backend::CpuSeq), &sample, 2, KernelFn::Gaussian);
        let scott = estimator.bandwidth().to_vec();

        // Training queries that isolate single categories.
        let mut train = Vec::new();
        for i in 0..60 {
            let cat = if i % 2 == 0 { 0.0 } else { 10.0 };
            let c0: f64 = rng.gen_range(10.0..90.0);
            let region = Rect::from_intervals(&[(c0 - 10.0, c0 + 10.0), (cat - 1.0, cat + 1.0)]);
            let sel =
                data.chunks_exact(2).filter(|r| region.contains(r)).count() as f64 / rows as f64;
            train.push(LabelledQuery::new(region, sel));
        }
        let result = optimize_bandwidth(&estimator, &train, &BatchConfig::default(), &mut rng);
        // The discrete dimension's bandwidth must shrink far below Scott's
        // (categories are 10 apart; anything ≲ 1 behaves like counting).
        assert!(
            result.bandwidth[1] < scott[1] * 0.5,
            "discrete bw {} vs scott {}",
            result.bandwidth[1],
            scott[1]
        );
        assert!(result.bandwidth[1] < 2.0, "bw {}", result.bandwidth[1]);
    }
}
