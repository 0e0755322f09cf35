//! Online (stochastic) first-order updaters.
//!
//! The paper's adaptive bandwidth loop (§4.1, Listing 1) updates the model
//! after each mini-batch of query feedback with RMSprop [Tieleman & Hinton
//! 2012], "the mini-batch variant of the earlier Rprop": per-dimension
//! learning rates grow when consecutive mini-batch gradients agree in sign
//! and shrink when they disagree, and the gradient is normalized by a
//! running average of its squared magnitude before being applied. Both
//! Rprop and RMSprop are implemented; the paper's parameter choices are the
//! defaults.

/// RMSprop configuration. Defaults are the paper's (§4.1): smoothing
/// `α = 0.9`, rates clamped to `[10⁻⁶, 50]`, multiplicative adjustment
/// `×1.2 / ×0.5`.
#[derive(Debug, Clone)]
pub struct RmsPropConfig {
    /// Smoothing rate `α` of the running squared-gradient average.
    pub smoothing: f64,
    /// Initial per-dimension learning rate.
    pub rate_init: f64,
    /// Smallest allowed learning rate `λ_min`.
    pub rate_min: f64,
    /// Largest allowed learning rate `λ_max`.
    pub rate_max: f64,
    /// Multiplicative increase `λ_inc` on sign agreement.
    pub rate_inc: f64,
    /// Multiplicative decrease `λ_dec` on sign disagreement.
    pub rate_dec: f64,
    /// Numerical floor inside the √ of the normalizer.
    pub epsilon: f64,
}

impl Default for RmsPropConfig {
    fn default() -> Self {
        Self {
            smoothing: 0.9,
            rate_init: 1.0,
            rate_min: 1e-6,
            rate_max: 50.0,
            rate_inc: 1.2,
            rate_dec: 0.5,
            epsilon: 1e-12,
        }
    }
}

impl RmsPropConfig {
    /// Checks the conditions [`RmsProp::new`] requires: an ordered rate
    /// range and a smoothing rate in `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.smoothing) {
            return Err(format!(
                "rmsprop smoothing {} is outside [0, 1)",
                self.smoothing
            ));
        }
        if self.rate_min <= self.rate_max {
            Ok(())
        } else {
            Err(format!(
                "rmsprop rate_min {} exceeds rate_max {}",
                self.rate_min, self.rate_max
            ))
        }
    }
}

/// RMSprop state.
#[derive(Debug, Clone)]
pub struct RmsProp {
    config: RmsPropConfig,
    rates: Vec<f64>,
    mean_sq: Vec<f64>,
    prev_grad: Vec<f64>,
    steps: u64,
}

impl RmsProp {
    /// Creates an updater for `dims` parameters.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `config` fails
    /// [`RmsPropConfig::validate`].
    pub fn new(dims: usize, config: RmsPropConfig) -> Self {
        assert!(dims > 0);
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            rates: vec![config.rate_init.clamp(config.rate_min, config.rate_max); dims],
            mean_sq: vec![0.0; dims],
            prev_grad: vec![0.0; dims],
            steps: 0,
            config,
        }
    }

    /// Consumes one (mini-batch-averaged) gradient and returns the update
    /// vector `Δ` to be **added** to the parameters (the negative scaled
    /// gradient).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn step(&mut self, grad: &[f64]) -> Vec<f64> {
        assert_eq!(grad.len(), self.rates.len());
        self.steps += 1;
        let c = &self.config;
        let mut delta = Vec::with_capacity(grad.len());
        #[allow(clippy::needless_range_loop)] // parallel indexing of state arrays
        for i in 0..grad.len() {
            let g = grad[i];
            // Running average of squared magnitudes (Listing 1, line 14).
            self.mean_sq[i] = c.smoothing * self.mean_sq[i] + (1.0 - c.smoothing) * g * g;
            // Rprop-style rate adaptation on sign agreement (lines 15-16).
            let agreement = g * self.prev_grad[i];
            if agreement > 0.0 {
                self.rates[i] = (self.rates[i] * c.rate_inc).min(c.rate_max);
            } else if agreement < 0.0 {
                self.rates[i] = (self.rates[i] * c.rate_dec).max(c.rate_min);
            }
            self.prev_grad[i] = g;
            // Scaled update (line 17).
            let norm = (self.mean_sq[i] + c.epsilon).sqrt();
            let d = if norm > 0.0 {
                -self.rates[i] * g / norm
            } else {
                0.0
            };
            delta.push(d);
        }
        delta
    }

    /// Per-dimension learning rates (for diagnostics/ablations).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of updates performed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Resets adaptation state (used after model rebuilds).
    pub fn reset(&mut self) {
        let dims = self.rates.len();
        let init = self
            .config
            .rate_init
            .clamp(self.config.rate_min, self.config.rate_max);
        self.rates = vec![init; dims];
        self.mean_sq = vec![0.0; dims];
        self.prev_grad = vec![0.0; dims];
        self.steps = 0;
    }
}

/// Rprop configuration [Riedmiller & Braun 1993].
#[derive(Debug, Clone)]
pub struct RpropConfig {
    /// Initial step size.
    pub step_init: f64,
    /// Smallest step size.
    pub step_min: f64,
    /// Largest step size.
    pub step_max: f64,
    /// Multiplicative increase on sign agreement (`η⁺`).
    pub step_inc: f64,
    /// Multiplicative decrease on sign change (`η⁻`).
    pub step_dec: f64,
}

impl Default for RpropConfig {
    fn default() -> Self {
        Self {
            step_init: 0.1,
            step_min: 1e-8,
            step_max: 50.0,
            step_inc: 1.2,
            step_dec: 0.5,
        }
    }
}

/// Rprop state (iRprop⁻ variant: on sign change the step shrinks and the
/// update is skipped for that dimension).
#[derive(Debug, Clone)]
pub struct Rprop {
    config: RpropConfig,
    steps_sizes: Vec<f64>,
    prev_grad: Vec<f64>,
}

impl Rprop {
    /// Creates an updater for `dims` parameters.
    pub fn new(dims: usize, config: RpropConfig) -> Self {
        assert!(dims > 0);
        Self {
            steps_sizes: vec![config.step_init; dims],
            prev_grad: vec![0.0; dims],
            config,
        }
    }

    /// Consumes one gradient, returns the update `Δ` to add to parameters.
    pub fn step(&mut self, grad: &[f64]) -> Vec<f64> {
        assert_eq!(grad.len(), self.steps_sizes.len());
        let c = &self.config;
        let mut delta = Vec::with_capacity(grad.len());
        #[allow(clippy::needless_range_loop)] // parallel indexing of state arrays
        for i in 0..grad.len() {
            let g = grad[i];
            let agreement = g * self.prev_grad[i];
            if agreement > 0.0 {
                self.steps_sizes[i] = (self.steps_sizes[i] * c.step_inc).min(c.step_max);
                delta.push(-g.signum() * self.steps_sizes[i]);
                self.prev_grad[i] = g;
            } else if agreement < 0.0 {
                self.steps_sizes[i] = (self.steps_sizes[i] * c.step_dec).max(c.step_min);
                // iRprop⁻: skip the update, forget the gradient sign.
                delta.push(0.0);
                self.prev_grad[i] = 0.0;
            } else {
                delta.push(-g.signum() * self.steps_sizes[i]);
                self.prev_grad[i] = g;
            }
        }
        delta
    }
}

/// Accumulates per-query gradients into mini-batches (§4.1: "we average the
/// gradients from a small number of queries before updating the model";
/// `N = 10` in the paper).
#[derive(Debug, Clone)]
pub struct GradientBatch {
    sum: Vec<f64>,
    count: usize,
    batch_size: usize,
}

impl GradientBatch {
    /// Creates an accumulator that releases an averaged gradient every
    /// `batch_size` submissions.
    pub fn new(dims: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        Self {
            sum: vec![0.0; dims],
            count: 0,
            batch_size,
        }
    }

    /// Adds one gradient. Returns the averaged mini-batch gradient when the
    /// batch fills, resetting the accumulator.
    pub fn push(&mut self, grad: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(grad.len(), self.sum.len());
        for (s, &g) in self.sum.iter_mut().zip(grad) {
            *s += g;
        }
        self.count += 1;
        if self.count == self.batch_size {
            let avg: Vec<f64> = self
                .sum
                .iter()
                .map(|&s| s / self.batch_size as f64)
                .collect();
            self.sum.iter_mut().for_each(|s| *s = 0.0);
            self.count = 0;
            Some(avg)
        } else {
            None
        }
    }

    /// Observations in the current (partial) batch.
    pub fn pending(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs an updater against the 2D quadratic `f(x) = ½‖x − t‖²`.
    fn run_quadratic<F: FnMut(&[f64]) -> Vec<f64>>(
        mut step: F,
        start: [f64; 2],
        target: [f64; 2],
        iters: usize,
    ) -> [f64; 2] {
        let mut x = start;
        for _ in 0..iters {
            let grad = [x[0] - target[0], x[1] - target[1]];
            let d = step(&grad);
            x[0] += d[0];
            x[1] += d[1];
        }
        x
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let mut opt = RmsProp::new(
            2,
            RmsPropConfig {
                rate_init: 0.1,
                ..Default::default()
            },
        );
        let x = run_quadratic(|g| opt.step(g), [5.0, -3.0], [1.0, 2.0], 500);
        assert!((x[0] - 1.0).abs() < 0.05, "{x:?}");
        assert!((x[1] - 2.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn rprop_converges_on_quadratic() {
        let mut opt = Rprop::new(2, RpropConfig::default());
        let x = run_quadratic(|g| opt.step(g), [5.0, -3.0], [1.0, 2.0], 300);
        assert!((x[0] - 1.0).abs() < 0.05, "{x:?}");
        assert!((x[1] - 2.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn rmsprop_rates_grow_on_agreement_and_shrink_on_flip() {
        let mut opt = RmsProp::new(1, RmsPropConfig::default());
        let r0 = opt.rates()[0];
        opt.step(&[1.0]);
        opt.step(&[1.0]); // same sign → rate grows
        let grown = opt.rates()[0];
        assert!(grown > r0, "{grown} <= {r0}");
        opt.step(&[-1.0]); // flip → rate shrinks
        assert!(opt.rates()[0] < grown);
    }

    #[test]
    fn rmsprop_rates_respect_clamps() {
        let cfg = RmsPropConfig {
            rate_init: 1.0,
            rate_min: 0.5,
            rate_max: 2.0,
            ..Default::default()
        };
        let mut opt = RmsProp::new(1, cfg);
        for _ in 0..50 {
            opt.step(&[1.0]);
        }
        assert!(opt.rates()[0] <= 2.0);
        for i in 0..50 {
            opt.step(&[if i % 2 == 0 { 1.0 } else { -1.0 }]);
        }
        assert!(opt.rates()[0] >= 0.5);
    }

    #[test]
    fn rmsprop_normalizes_gradient_scale() {
        // Whatever the gradient magnitude, the normalized step magnitude
        // approaches rate·|g|/√mean(g²) = rate for a constant gradient.
        for scale in [1e-3, 1.0, 1e6] {
            let mut opt = RmsProp::new(
                1,
                RmsPropConfig {
                    rate_init: 0.1,
                    rate_inc: 1.0, // freeze rate adaptation
                    ..Default::default()
                },
            );
            let mut last = 0.0;
            for _ in 0..200 {
                last = opt.step(&[scale])[0];
            }
            assert!(
                (last.abs() - 0.1).abs() < 0.01,
                "scale {scale}: step {last}"
            );
        }
    }

    #[test]
    fn rmsprop_zero_gradient_is_noop() {
        let mut opt = RmsProp::new(3, RmsPropConfig::default());
        let d = opt.step(&[0.0, 0.0, 0.0]);
        assert_eq!(d, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut opt = RmsProp::new(2, RmsPropConfig::default());
        opt.step(&[1.0, -1.0]);
        opt.step(&[1.0, 1.0]);
        opt.reset();
        assert_eq!(opt.steps(), 0);
        assert!(opt.rates().iter().all(|&r| (r - 1.0).abs() < 1e-12));
    }

    #[test]
    fn gradient_batch_averages() {
        let mut batch = GradientBatch::new(2, 3);
        assert!(batch.push(&[3.0, 0.0]).is_none());
        assert!(batch.push(&[0.0, 3.0]).is_none());
        assert_eq!(batch.pending(), 2);
        let avg = batch.push(&[3.0, 3.0]).expect("batch full");
        assert_eq!(avg, vec![2.0, 2.0]);
        assert_eq!(batch.pending(), 0);
        // The accumulator must be clean for the next batch.
        assert!(batch.push(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn rprop_skips_update_on_sign_change() {
        let mut opt = Rprop::new(1, RpropConfig::default());
        opt.step(&[1.0]);
        let d = opt.step(&[-1.0]);
        assert_eq!(d[0], 0.0);
    }
}
