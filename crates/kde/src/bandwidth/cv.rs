//! Smoothed-cross-validation bandwidth selector.
//!
//! Stand-in for the paper's *KDE SCV* baseline (§6.1.1), which used the
//! diagonal smoothed-cross-validation selector `Hscv.diag` from the R `ks`
//! package [Duong & Hazelton 2005], for diagonal-bandwidth product-Gaussian
//! models. SCV replaces the raw pairwise differences of least-squares CV
//! with pilot-smoothed ones,
//! `SCV(h) = R(φ)/(n·Πh_d) + n⁻² Σ_{i≠j} T(xᵢ−xⱼ)` with
//! `T = φ_{√(2h²+2g²)} − 2·φ_{√(h²+2g²)} + φ_{√(2g²)}` and a
//! Scott's-rule pilot `g` — the Hall–Marron–Park criterion in its
//! diagonal form.
//!
//! The criterion is minimized in log-bandwidth space with the same solver
//! stack as the batch optimizer. Unlike the batch optimizer this selector
//! is *workload-oblivious*: it only sees the sample — which is exactly
//! why the paper's Batch estimator beats it (§6.2).

use crate::bandwidth::scott::scott_bandwidth;
use crate::estimator::MIN_BANDWIDTH;
use kdesel_math::simd::{F64s, LANES};
use kdesel_math::FRAC_1_SQRT_2PI;
use kdesel_solver::{multistart, Bounds, LbfgsConfig, MultistartConfig, Objective};
use rand::Rng;

/// CV-selector configuration.
#[derive(Debug, Clone)]
pub struct CvConfig {
    /// Log-space search half-width around the Scott initialization.
    pub search_span: f64,
    /// Largest sample size fed to the O(n²) criterion; larger samples are
    /// uniformly subsampled first (the selected bandwidth is rescaled by
    /// Scott's s^(−1/(d+4)) law to account for the size difference).
    pub max_points: usize,
    /// Global-phase configuration (CV criteria are smooth; a light global
    /// phase suffices).
    pub multistart: MultistartConfig,
}

impl Default for CvConfig {
    fn default() -> Self {
        Self {
            search_span: (50.0f64).ln(),
            max_points: 2048,
            multistart: MultistartConfig {
                rounds: 2,
                samples_per_round: 6,
                local: LbfgsConfig {
                    max_iterations: 60,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

/// Gaussian density with scale `a`: `φ_a(u) = exp(−u²/2a²)/(√(2π)·a)`.
#[inline]
fn phi(u: f64, a: f64) -> f64 {
    FRAC_1_SQRT_2PI / a * (-0.5 * (u / a) * (u / a)).exp()
}

/// A sum-of-product-Gaussian term over all ordered pairs `i ≠ j`, with
/// per-scale coefficients. For the pair difference `u = xᵢ − xⱼ` each
/// addend is `coeff_k · Π_d φ_{a_k(h_d, g_d)}(u_d)`; the gradient with
/// respect to `h_d` multiplies the product by `(u_d² − a²)·α·h_d / a⁴`
/// where `a² = α·h_d² + β·g_d²`.
struct PairTerm {
    /// Coefficient of the addend.
    coeff: f64,
    /// `α`: weight of `h²` in the scale.
    alpha: f64,
    /// `β`: weight of the pilot `g²` in the scale.
    beta: f64,
}

/// Evaluates `Σ_k coeff_k Σ_{i≠j} Π_d φ_{a_k}(u_d)` and its gradient wrt
/// `h` in one traversal of the O(n²) pairs.
fn pair_sums(
    sample: &[f64],
    dims: usize,
    h: &[f64],
    pilot: &[f64],
    terms: &[PairTerm],
) -> (f64, Vec<f64>) {
    let n = sample.len() / dims;
    // Pre-compute scales per term per dim.
    let scales: Vec<Vec<f64>> = terms
        .iter()
        .map(|t| {
            (0..dims)
                .map(|d| (t.alpha * h[d] * h[d] + t.beta * pilot[d] * pilot[d]).sqrt())
                .collect()
        })
        .collect();

    // One columnar transpose up front: the O(n²) inner loops then stream
    // unit-stride per-dimension stripes (`cols[d·n..][..n]`) and process
    // `LANES` partners per step — the same SoA discipline as the device
    // sweeps, applied host-side.
    let mut cols = vec![0.0; sample.len()];
    for (r, row) in sample.chunks_exact(dims).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            cols[d * n + r] = v;
        }
    }
    let cols = &cols;
    // Claimed work for `kdesel_par`'s dispatch rule: about 30 FLOPs (an
    // `exp`, two divisions and the gradient factor) per pair, term and
    // dimension.
    let flops = (n * n * terms.len() * dims) as f64 * 30.0;

    kdesel_par::par_map_combine(
        n,
        flops,
        || (0.0, vec![0.0; dims]),
        |i| accumulate_pairs(cols, dims, i, terms, &scales, h),
        |(mut va, mut ga), (vb, gb)| {
            va += vb;
            for (x, y) in ga.iter_mut().zip(&gb) {
                *x += y;
            }
            (va, ga)
        },
    )
}

/// Elementwise `φ_a(u)` with the prefactor `1/(√(2π)·a)` hoisted — the
/// per-lane operation sequence of [`phi`] exactly.
#[inline]
fn phi_lanes(u: F64s, prefactor: f64, a: f64) -> F64s {
    let w = u / a;
    (w * -0.5 * w).map(f64::exp) * prefactor
}

/// Accumulates the pair sums for anchor point `i` over all partners
/// `j ≠ i`, vectorized `LANES` partners at a time over the columnar
/// stripes.
///
/// Bit-identical to the scalar j-at-a-time loop it replaces: lane
/// arithmetic mirrors the scalar operation order; the scalar skips
/// (`prod == 0`, `alpha == 0`, the diagonal) become additions of exact
/// `±0.0` lane values, which cannot change an accumulator that is never
/// `-0.0` (it starts at `+0.0`, and IEEE-754 round-to-nearest sums only
/// produce `-0.0` from two `-0.0` operands); and the per-block
/// accumulation drain runs in the scalar path's ascending `(j, term)`
/// order.
fn accumulate_pairs(
    cols: &[f64],
    dims: usize,
    i: usize,
    terms: &[PairTerm],
    scales: &[Vec<f64>],
    h: &[f64],
) -> (f64, Vec<f64>) {
    let n = cols.len() / dims;
    let mut v = 0.0;
    let mut g = vec![0.0; dims];
    // Per-term per-dim constants, each computed exactly as the scalar
    // expressions compute them: the scale a, the φ prefactor, a²,
    // a³ = (a·a)·a, and the gradient scale s = α·h_d/a.
    type TermConsts = Vec<Vec<(f64, f64, f64, f64, f64)>>;
    let consts: TermConsts = terms
        .iter()
        .zip(scales)
        .map(|(t, sc)| {
            sc.iter()
                .zip(h)
                .map(|(&a, &hd)| (a, FRAC_1_SQRT_2PI / a, a * a, a * a * a, t.alpha * hd / a))
                .collect()
        })
        .collect();
    let tcount = terms.len();
    let main = n - n % LANES;
    let mut us: Vec<F64s> = vec![F64s::splat(0.0); dims];
    let mut prods: Vec<[f64; LANES]> = vec![[0.0; LANES]; tcount];
    let mut gcons: Vec<[f64; LANES]> = vec![[0.0; LANES]; tcount * dims];
    let mut j0 = 0;
    while j0 < main {
        // u_d = x_i[d] − x_j[d] for the whole lane block, one stripe per
        // dimension (the columnar payoff: unit-stride loads).
        for (d, u) in us.iter_mut().enumerate() {
            let xi_d = cols[d * n + i];
            *u = F64s::splat(xi_d) - F64s::from_slice(&cols[d * n + j0..]);
        }
        for (t_idx, (t, tc)) in terms.iter().zip(&consts).enumerate() {
            let mut prod = F64s::splat(t.coeff);
            for (u, &(a, pref, _, _, _)) in us.iter().zip(tc) {
                prod = prod * phi_lanes(*u, pref, a);
            }
            prods[t_idx] = prod.to_array();
            for (d, (u, &(_, _, a2, a3, s))) in us.iter().zip(tc).enumerate() {
                let uv = *u;
                let dlog = (uv * uv - F64s::splat(a2)) / a3 * s;
                gcons[t_idx * dims + d] = (prod * dlog).to_array();
            }
        }
        // The diagonal skip: zero that lane's addends (adding an exact
        // +0.0 is a no-op for these accumulators).
        if (j0..j0 + LANES).contains(&i) {
            let lane = i - j0;
            for t_idx in 0..tcount {
                prods[t_idx][lane] = 0.0;
                for d in 0..dims {
                    gcons[t_idx * dims + d][lane] = 0.0;
                }
            }
        }
        // Drain in the scalar path's ascending (j, term) order.
        for lane in 0..LANES {
            for t_idx in 0..tcount {
                v += prods[t_idx][lane];
                for (d, gd) in g.iter_mut().enumerate() {
                    *gd += gcons[t_idx * dims + d][lane];
                }
            }
        }
        j0 += LANES;
    }
    // Scalar tail: the original j-at-a-time loop body, verbatim.
    for j in main..n {
        if i == j {
            continue;
        }
        for (t, sc) in terms.iter().zip(scales) {
            let mut prod = t.coeff;
            for d in 0..dims {
                prod *= phi(cols[d * n + i] - cols[d * n + j], sc[d]);
            }
            if prod == 0.0 {
                continue;
            }
            v += prod;
            for d in 0..dims {
                if t.alpha == 0.0 {
                    continue; // scale independent of h
                }
                let a = sc[d];
                let u = cols[d * n + i] - cols[d * n + j];
                // d/dh_d ln φ_a(u) = (u² − a²)/a³ · da/dh_d,
                // da/dh_d = α·h_d / a.
                let dlog = (u * u - a * a) / (a * a * a) * (t.alpha * h[d] / a);
                g[d] += prod * dlog;
            }
        }
    }
    (v, g)
}

/// The diagonal SCV criterion as a solver objective over `ln h`.
struct ScvObjective<'a> {
    sample: &'a [f64],
    dims: usize,
    pilot: Vec<f64>,
}

impl Objective for ScvObjective<'_> {
    fn dims(&self) -> usize {
        self.dims
    }

    fn eval(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let h: Vec<f64> = x.iter().map(|&v| v.exp()).collect();
        let d = self.dims;
        let n = (self.sample.len() / d) as f64;

        // Roughness term R(φ)/(n Π h_d), R(φ) = (2√π)^(−d).
        let r_phi = (2.0 * kdesel_math::SQRT_PI).powi(-(d as i32));
        let prod_h: f64 = h.iter().product();
        let rough = r_phi / (n * prod_h);

        let terms = [
            PairTerm {
                coeff: 1.0,
                alpha: 2.0,
                beta: 2.0,
            },
            PairTerm {
                coeff: -2.0,
                alpha: 1.0,
                beta: 2.0,
            },
            PairTerm {
                coeff: 1.0,
                alpha: 0.0,
                beta: 2.0,
            },
        ];
        let (sum, gsum) = pair_sums(self.sample, d, &h, &self.pilot, &terms);
        let value = rough + sum / (n * n);
        for i in 0..d {
            let dh = -rough / h[i] + gsum[i] / (n * n);
            grad[i] = dh * h[i];
        }
        value
    }
}

/// Uniformly subsamples `sample` down to `max_points` rows when needed;
/// returns the (possibly borrowed) data and the bandwidth rescale factor
/// `(n_sub / n)^(−1/(d+4))` that maps the subsample-optimal bandwidth back
/// to the full sample size (Scott's rate).
fn subsample_for_cv<'a, R: Rng + ?Sized>(
    sample: &'a [f64],
    dims: usize,
    max_points: usize,
    rng: &mut R,
) -> (std::borrow::Cow<'a, [f64]>, f64) {
    let n = sample.len() / dims;
    if n <= max_points {
        return (std::borrow::Cow::Borrowed(sample), 1.0);
    }
    let mut indices: Vec<usize> = (0..n).collect();
    use rand::seq::SliceRandom;
    indices.shuffle(rng);
    indices.truncate(max_points);
    let mut sub = Vec::with_capacity(max_points * dims);
    for &i in &indices {
        sub.extend_from_slice(&sample[i * dims..(i + 1) * dims]);
    }
    let rescale = (n as f64 / max_points as f64).powf(-1.0 / (dims as f64 + 4.0));
    (std::borrow::Cow::Owned(sub), rescale)
}

fn minimize_cv<O: Objective, R: Rng + ?Sized>(
    objective: &O,
    start_h: &[f64],
    config: &CvConfig,
    rng: &mut R,
) -> Vec<f64> {
    let log0: Vec<f64> = start_h.iter().map(|&h| h.ln()).collect();
    let lo: Vec<f64> = log0.iter().map(|&v| v - config.search_span).collect();
    let hi: Vec<f64> = log0.iter().map(|&v| v + config.search_span).collect();
    let bounds = Bounds::new(lo, hi);
    let result = multistart(objective, &bounds, &[log0], &config.multistart, rng);
    result.x.iter().map(|&v| v.exp()).collect()
}

/// Selects a diagonal bandwidth by smoothed cross-validation with a
/// Scott's-rule pilot — the stand-in for `ks::Hscv.diag`.
///
/// # Panics
/// Panics on an empty/ragged sample or one with fewer than two points.
pub fn scv_bandwidth<R: Rng + ?Sized>(
    sample: &[f64],
    dims: usize,
    config: &CvConfig,
    rng: &mut R,
) -> Vec<f64> {
    assert!(dims > 0);
    assert_eq!(sample.len() % dims, 0, "ragged sample");
    assert!(sample.len() / dims >= 2, "CV needs at least two points");
    let (data, rescale) = subsample_for_cv(sample, dims, config.max_points, rng);
    let start = scott_bandwidth(&data, dims);
    let objective = ScvObjective {
        sample: &data,
        dims,
        pilot: start.clone(),
    };
    let mut h = minimize_cv(&objective, &start, config, rng);
    for v in &mut h {
        *v = (*v * rescale).max(MIN_BANDWIDTH);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_like_normal::normal_sample;

    /// Minimal Box–Muller sampler to avoid a rand_distr dependency here.
    mod rand_like_normal {
        use rand::Rng;
        pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }

    fn normal_data(n: usize, dims: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims).map(|_| normal_sample(&mut rng)).collect()
    }

    fn bimodal_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .flat_map(|i| {
                let c = if i % 2 == 0 { -8.0 } else { 8.0 };
                [c + normal_sample(&mut rng)]
            })
            .collect()
    }

    #[test]
    fn scv_gradient_matches_finite_differences() {
        let sample = normal_data(40, 2, 2);
        let pilot = scott_bandwidth(&sample, 2);
        let obj = ScvObjective {
            sample: &sample,
            dims: 2,
            pilot,
        };
        check_gradient(&obj, &[(0.4f64).ln(), (0.8f64).ln()]);
    }

    fn check_gradient<O: Objective>(obj: &O, x: &[f64]) {
        let mut grad = vec![0.0; x.len()];
        obj.eval(x, &mut grad);
        for i in 0..x.len() {
            let eps = 1e-6;
            let mut xp = x.to_vec();
            xp[i] += eps;
            let mut xm = x.to_vec();
            xm[i] -= eps;
            let mut tmp = vec![0.0; x.len()];
            let fd = (obj.eval(&xp, &mut tmp) - obj.eval(&xm, &mut tmp)) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-6 * grad[i].abs().max(1e-3),
                "dim {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn cv_on_normal_data_lands_near_scott() {
        // Scott's rule is optimal for normal data, so SCV should stay
        // within a small factor of it.
        let sample = normal_data(200, 1, 3);
        let scott = scott_bandwidth(&sample, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let h = scv_bandwidth(&sample, 1, &CvConfig::default(), &mut rng);
        let ratio = h[0] / scott[0];
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cv_undersmooths_relative_to_scott_on_bimodal_data() {
        // On a well-separated mixture, Scott's global σ badly oversmooths;
        // CV must pick a much smaller bandwidth.
        let sample = bimodal_data(200, 5);
        let scott = scott_bandwidth(&sample, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let h_scv = scv_bandwidth(&sample, 1, &CvConfig::default(), &mut rng);
        assert!(
            h_scv[0] < scott[0] * 0.6,
            "scv {} vs scott {}",
            h_scv[0],
            scott[0]
        );
        // The clusters have unit σ, so the result should be O(cluster σ),
        // not O(separation).
        assert!(h_scv[0] < 2.0);
    }

    #[test]
    fn selected_bandwidths_are_positive_and_deterministic() {
        let sample = normal_data(60, 3, 7);
        let cfg = CvConfig::default();
        let a = scv_bandwidth(&sample, 3, &cfg, &mut StdRng::seed_from_u64(8));
        let b = scv_bandwidth(&sample, 3, &cfg, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert!(a.iter().all(|&h| h > 0.0));
    }

    /// SCV's selected bandwidths, bit for bit, on two fixed draws: one
    /// whose 61 rows end in a scalar tail after 7 lane packs, and one
    /// subsampled from 75 to 64 rows before the criterion runs.
    #[test]
    fn scv_bandwidth_keeps_its_pinned_bits() {
        let a = normal_data(61, 3, 31);
        let h = scv_bandwidth(&a, 3, &CvConfig::default(), &mut StdRng::seed_from_u64(131));
        let bits: Vec<u64> = h.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0x3fe6d474566fa0fb, 0x3fe2554e03b3510f, 0x3fe8cc86019039fc]
        );
        let b = normal_data(75, 2, 32);
        let config = CvConfig {
            max_points: 64,
            ..CvConfig::default()
        };
        let h = scv_bandwidth(&b, 2, &config, &mut StdRng::seed_from_u64(132));
        let bits: Vec<u64> = h.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0x3fe696595f831f53, 0x3fe51251799ec9cc]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        scv_bandwidth(&[1.0, 2.0], 2, &CvConfig::default(), &mut rng);
    }
}
