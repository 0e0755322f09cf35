//! Self-calibrating cost model: measure, fit, emit.
//!
//! The paper calibrates its device cost model per installation (§6.4:
//! launch latency, transfer bandwidth, and effective throughput are
//! measured on the target GPU/CPU, not assumed). This module closes the
//! same loop for the simulated device layer:
//!
//! 1. [`microbenchmark`] runs a structured sweep of transfers, scalar
//!    map kernels, and vectorized columnar sweeps over a grid of sizes
//!    (n) and arithmetic intensities, recording the minimum wall time of
//!    each point over its repetitions on a chosen [`Backend`]. Another
//!    process sharing the host can only add time to a repetition, never
//!    take it away, so the fastest one is the closest to the launch's
//!    own cost; a median still moves when a co-tenant holds the core for
//!    half the repetitions.
//! 2. [`fit`] estimates all five [`CostProfile`] parameters by least
//!    squares in log space against those measurements, reusing the
//!    `kdesel-solver` L-BFGS stack the bandwidth optimizer runs on.
//!    Positivity is enforced by optimizing `u = ln θ`; log-space
//!    residuals weigh a 2x error on a 1 µs launch the same as a 2x
//!    error on a 10 ms sweep.
//! 3. The result is a versioned [`MeasuredProfile`] (JSON round-trip
//!    through the workspace's one codec, `kdesel_telemetry::json`,
//!    like `kdesel-kde`'s snapshots) carrying the fitted
//!    profile, every point's modeled-vs-measured residual, and the
//!    median relative error — the number the `kdesel-calibrate` binary
//!    gates on.
//!
//! A fitted profile plugs straight back into the runtime:
//! [`Device::with_profile`](crate::Device::with_profile) accepts it,
//! and `kdesel-serve` derives its adaptive batching deadline from the
//! same measured launch costs.

use crate::cost::CostProfile;
use crate::device::{Backend, Device};
use kdesel_solver::{lbfgs, Bounds, FnObjective, LbfgsConfig, OptOutcome};
use kdesel_telemetry::Json;
use kdesel_types::stats::nearest_rank;
use std::time::Instant;

/// Schema version of the [`MeasuredProfile`] JSON.
pub const MEASURED_PROFILE_VERSION: u64 = 1;

/// Which microbenchmark produced a point; selects the analytical model
/// the fit matches against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOp {
    /// One host→device transfer of `bytes`
    /// (model: `transfer_latency + bytes / transfer_bandwidth`).
    Transfer,
    /// One scalar row-major map kernel
    /// (model: `kernel_launch_latency + items·flops / compute_throughput`).
    Kernel,
    /// One fused columnar sweep + reduction, including its scalar
    /// readback (model: vectorized kernel at `flops + 4` plus an 8-byte
    /// transfer).
    Sweep,
}

impl PointOp {
    /// Stable identifier used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            PointOp::Transfer => "transfer",
            PointOp::Kernel => "kernel",
            PointOp::Sweep => "sweep",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "transfer" => Ok(PointOp::Transfer),
            "kernel" => Ok(PointOp::Kernel),
            "sweep" => Ok(PointOp::Sweep),
            other => Err(format!("unknown point op {other:?}")),
        }
    }
}

/// One microbenchmark measurement, with its post-fit model comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Which hot path ran.
    pub op: PointOp,
    /// Rows/items the launch processed (0 for pure transfers).
    pub items: u64,
    /// Claimed FLOPs per item (what the cost model is charged with).
    pub flops_per_item: f64,
    /// Bytes moved host↔device.
    pub bytes: u64,
    /// Minimum wall seconds over the repetitions (the least disturbed
    /// by other work on the host).
    pub measured_seconds: f64,
    /// Seconds the fitted profile predicts for this point (0 before fit).
    pub modeled_seconds: f64,
    /// Relative residual `|modeled - measured| / measured` (0 before fit).
    pub residual: f64,
}

/// Microbenchmark sweep shape.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Wall-time repetitions per point; the minimum is kept.
    pub reps: usize,
    /// Quick sweep (CI-sized) vs the full grid.
    pub quick: bool,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            reps: 3,
            quick: true,
        }
    }
}

impl CalibrationConfig {
    /// Row counts for the kernel/sweep grid.
    fn kernel_sizes(&self) -> &'static [usize] {
        if self.quick {
            &[4096, 32768]
        } else {
            &[4096, 16384, 65536]
        }
    }

    /// Dimensionalities for the kernel/sweep grid. Arithmetic intensity
    /// per row scales with `d` at a *fixed* chain length per column:
    /// elements are independent across columns and rows, so measured
    /// time stays linear in `n · d` — the linearity the cost model
    /// assumes. (Varying the dependent-chain length instead does NOT
    /// scale linearly: short chains pipeline across rows, long chains
    /// are latency-bound, and the fit cannot absorb that bend.)
    fn dims(&self) -> &'static [usize] {
        if self.quick {
            &[1, 4]
        } else {
            &[1, 4, 16]
        }
    }

    /// Element counts for the transfer grid: one small latency-bound
    /// point plus large DRAM-resident points. Mid sizes that fit L2/L3
    /// are deliberately skipped — their apparent bandwidth is a cache
    /// artifact a single-bandwidth model cannot represent.
    fn transfer_sizes(&self) -> &'static [usize] {
        if self.quick {
            &[512, 524288, 2097152]
        } else {
            &[512, 4096, 524288, 1048576, 2097152]
        }
    }
}

/// Fixed dependent-chain length per element in the microbenchmark
/// kernels; each link is one `mul_add`, claimed as 2 FLOPs.
const CHAIN_LINKS: usize = 32;

/// Outcome diagnostics of one least-squares fit.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Whether the optimizer reached a tolerance (gradient/value), or
    /// stalled at numerical precision (line-search exhaustion at a
    /// minimum counts as converged for calibration purposes).
    pub converged: bool,
    /// Raw optimizer outcome.
    pub outcome: OptOutcome,
    /// L-BFGS iterations.
    pub iterations: usize,
    /// Final sum of squared log residuals.
    pub objective: f64,
}

/// A versioned, serializable calibration result: the fitted profile and
/// the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredProfile {
    /// Schema version ([`MEASURED_PROFILE_VERSION`]).
    pub version: u64,
    /// Backend name the sweep ran on (`Backend::name`).
    pub backend: String,
    /// The fitted cost-model parameters.
    pub profile: CostProfile,
    /// Every microbenchmark point with its modeled-vs-measured residual.
    pub points: Vec<MeasuredPoint>,
    /// Median of the per-point relative residuals.
    pub median_residual: f64,
}

/// The model a fit matches: predicted seconds for `point` under
/// `profile`, mirroring exactly what `Device` charges for the
/// corresponding operation.
pub fn modeled_seconds(point: &MeasuredPoint, profile: &CostProfile) -> f64 {
    let items = point.items as f64;
    match point.op {
        PointOp::Transfer => {
            profile.transfer_latency + point.bytes as f64 / profile.transfer_bandwidth
        }
        PointOp::Kernel => {
            profile.kernel_launch_latency
                + items * point.flops_per_item / profile.compute_throughput
        }
        PointOp::Sweep => {
            profile.kernel_launch_latency
                + items * (point.flops_per_item + 4.0)
                    / (profile.compute_throughput * profile.vector_width)
                + profile.transfer_latency
                + 8.0 / profile.transfer_bandwidth
        }
    }
}

/// A serial dependent chain of `links` fused multiply-adds — real work
/// the optimizer cannot elide, claimed as `2 · links` FLOPs. The chain
/// is dependent within one row but independent across rows, so the
/// columnar sweep variant can vectorize where the row-major map cannot:
/// exactly the contrast `vector_width` models.
#[inline]
fn busy(x: f64, links: usize) -> f64 {
    let mut acc = x;
    for _ in 0..links {
        acc = acc.mul_add(1.000_000_1, 1e-9);
    }
    acc
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    nearest_rank(&samples, 0.5)
}

fn fastest(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Runs the structured (size × intensity) microbenchmark sweep on
/// `backend`, returning one point per grid cell with its minimum wall
/// time over `config.reps` repetitions. Modeled fields are zero until
/// [`fit`] fills them.
pub fn microbenchmark(backend: Backend, config: &CalibrationConfig) -> Vec<MeasuredPoint> {
    assert!(config.reps >= 1, "at least one repetition");
    let device = Device::with_profile(backend, CostProfile::free());
    let mut points = Vec::new();

    // Transfers: upload n elements, time the call alone (the returned
    // buffer drops outside the timed region).
    for &n in config.transfer_sizes() {
        let host = vec![0.5f64; n];
        // Warm the pool so steady-state reuse is what gets measured.
        drop(device.upload(&host));
        let times: Vec<f64> = (0..config.reps)
            .map(|_| {
                let start = Instant::now();
                let buf = device.upload(&host);
                let elapsed = start.elapsed().as_secs_f64();
                drop(buf);
                elapsed
            })
            .collect();
        points.push(MeasuredPoint {
            op: PointOp::Transfer,
            items: 0,
            flops_per_item: 0.0,
            bytes: (n * std::mem::size_of::<f64>()) as u64,
            measured_seconds: fastest(times),
            modeled_seconds: 0.0,
            residual: 0.0,
        });
    }

    // Scalar kernels: a d-wide row-major map, one fixed-length dependent
    // chain per column summed across the row.
    for &n in config.kernel_sizes() {
        for &dims in config.dims() {
            let flops_per_item = (2 * CHAIN_LINKS * dims) as f64;
            let host = vec![0.5f64; n * dims];
            let buf = device.upload(&host);
            let kernel = |row: &[f64]| row.iter().map(|&v| busy(v, CHAIN_LINKS)).sum();
            drop(device.map_rows(&buf, dims, flops_per_item, kernel));
            let times: Vec<f64> = (0..config.reps)
                .map(|_| {
                    let start = Instant::now();
                    let out = device.map_rows(&buf, dims, flops_per_item, kernel);
                    let elapsed = start.elapsed().as_secs_f64();
                    drop(out);
                    elapsed
                })
                .collect();
            points.push(MeasuredPoint {
                op: PointOp::Kernel,
                items: n as u64,
                flops_per_item,
                bytes: 0,
                measured_seconds: fastest(times),
                modeled_seconds: 0.0,
                residual: 0.0,
            });
        }
    }

    // Vectorized sweeps: the same per-column chain over the columnar
    // layout, fused with the tree reduction (one scalar readback rides
    // along).
    for &n in config.kernel_sizes() {
        for &dims in config.dims() {
            let flops_per_item = (2 * CHAIN_LINKS * dims) as f64;
            let host = vec![0.5f64; n * dims];
            let soa = device.stage_rows_soa(&host, dims);
            let kernel = |cols: crate::device::ColsView<'_>, out: &mut [f64]| {
                // Sweep outputs arrive unfilled; this kernel accumulates.
                out.fill(0.0);
                for d in 0..dims {
                    let col = cols.col(d);
                    for (o, &v) in out.iter_mut().zip(col) {
                        *o += busy(v, CHAIN_LINKS);
                    }
                }
            };
            let _ = device.sweep_reduce(&soa, flops_per_item, false, kernel);
            let times: Vec<f64> = (0..config.reps)
                .map(|_| {
                    let start = Instant::now();
                    let _ = device.sweep_reduce(&soa, flops_per_item, false, kernel);
                    start.elapsed().as_secs_f64()
                })
                .collect();
            points.push(MeasuredPoint {
                op: PointOp::Sweep,
                items: n as u64,
                flops_per_item,
                bytes: 8,
                measured_seconds: fastest(times),
                modeled_seconds: 0.0,
                residual: 0.0,
            });
        }
    }

    points
}

/// Parameter order inside the optimizer's `u = ln θ` vector.
const P_LAUNCH: usize = 0;
const P_TRANSFER_LAT: usize = 1;
const P_BANDWIDTH: usize = 2;
const P_THROUGHPUT: usize = 3;
const P_WIDTH: usize = 4;

fn profile_of(u: &[f64]) -> CostProfile {
    CostProfile {
        kernel_launch_latency: u[P_LAUNCH].exp(),
        transfer_latency: u[P_TRANSFER_LAT].exp(),
        transfer_bandwidth: u[P_BANDWIDTH].exp(),
        compute_throughput: u[P_THROUGHPUT].exp(),
        vector_width: u[P_WIDTH].exp(),
    }
}

/// Fits all five [`CostProfile`] parameters to `points` by least squares
/// on log residuals, `Σ (ln modeled − ln measured)²`, with analytic
/// gradients through `θ = exp(u)`. Returns the versioned profile (every
/// point annotated with its residual) plus optimizer diagnostics.
///
/// # Panics
/// Panics on an empty point list or non-positive measured times.
pub fn fit(backend: Backend, points: &[MeasuredPoint]) -> (MeasuredProfile, FitReport) {
    assert!(!points.is_empty(), "no calibration points");
    assert!(
        points.iter().all(|p| p.measured_seconds > 0.0),
        "non-positive measured time"
    );

    let data = points.to_vec();
    let objective = FnObjective::new(5, move |u: &[f64], grad: &mut [f64]| {
        let p = profile_of(u);
        grad.fill(0.0);
        let mut sum = 0.0;
        for point in &data {
            let m = modeled_seconds(point, &p);
            let r = m.ln() - point.measured_seconds.ln();
            sum += r * r;
            // ∂E/∂u_j = 2 r · (θ_j / m) · ∂m/∂θ_j, for each θ the
            // point's model depends on.
            let scale = 2.0 * r / m;
            let items = point.items as f64;
            match point.op {
                PointOp::Transfer => {
                    grad[P_TRANSFER_LAT] += scale * p.transfer_latency;
                    grad[P_BANDWIDTH] += scale * (-(point.bytes as f64) / p.transfer_bandwidth);
                }
                PointOp::Kernel => {
                    grad[P_LAUNCH] += scale * p.kernel_launch_latency;
                    grad[P_THROUGHPUT] +=
                        scale * (-items * point.flops_per_item / p.compute_throughput);
                }
                PointOp::Sweep => {
                    let compute = items * (point.flops_per_item + 4.0)
                        / (p.compute_throughput * p.vector_width);
                    grad[P_LAUNCH] += scale * p.kernel_launch_latency;
                    grad[P_TRANSFER_LAT] += scale * p.transfer_latency;
                    grad[P_BANDWIDTH] += scale * (-8.0 / p.transfer_bandwidth);
                    grad[P_THROUGHPUT] += scale * (-compute);
                    grad[P_WIDTH] += scale * (-compute);
                }
            }
        }
        sum
    });

    // Bounds in u = ln θ: latencies within [1 ns, 100 ms], rates within
    // [10^5, 10^15] per second, lane width within [1/4, 64].
    let bounds = Bounds::new(
        vec![
            (1e-9f64).ln(),
            (1e-9f64).ln(),
            (1e5f64).ln(),
            (1e5f64).ln(),
            (0.25f64).ln(),
        ],
        vec![
            (1e-1f64).ln(),
            (1e-1f64).ln(),
            (1e15f64).ln(),
            (1e15f64).ln(),
            (64.0f64).ln(),
        ],
    );
    let x0 = vec![
        (1e-5f64).ln(),
        (1e-5f64).ln(),
        (1e9f64).ln(),
        (1e9f64).ln(),
        0.0, // vector_width = 1
    ];
    let config = LbfgsConfig {
        max_iterations: 500,
        ..LbfgsConfig::default()
    };
    let result = lbfgs(&objective, &bounds, &x0, &config);
    let profile = profile_of(&result.x);

    let annotated: Vec<MeasuredPoint> = points
        .iter()
        .map(|point| {
            let modeled = modeled_seconds(point, &profile);
            MeasuredPoint {
                modeled_seconds: modeled,
                residual: (modeled - point.measured_seconds).abs() / point.measured_seconds,
                ..point.clone()
            }
        })
        .collect();
    let median_residual = median(annotated.iter().map(|p| p.residual).collect());

    let report = FitReport {
        // Line-search exhaustion at the bottom of a well-scaled
        // least-squares bowl means "already at a minimum to numerical
        // precision" (see `OptOutcome::LineSearchFailed`); calibration
        // treats it as converged and lets the residual gate judge.
        converged: result.converged() || matches!(result.outcome, OptOutcome::LineSearchFailed),
        outcome: result.outcome,
        iterations: result.iterations,
        objective: result.f,
    };
    (
        MeasuredProfile {
            version: MEASURED_PROFILE_VERSION,
            backend: backend.name().to_string(),
            profile,
            points: annotated,
            median_residual,
        },
        report,
    )
}

/// [`microbenchmark`] then [`fit`] in one call.
pub fn calibrate(backend: Backend, config: &CalibrationConfig) -> (MeasuredProfile, FitReport) {
    let points = microbenchmark(backend, config);
    fit(backend, &points)
}

impl MeasuredProfile {
    /// The backend this profile was measured on, if its name is known.
    pub fn backend(&self) -> Option<Backend> {
        Backend::from_name(&self.backend)
    }

    /// Serializes as one JSON object. Floats use round-trip formatting,
    /// so [`MeasuredProfile::from_json`] recovers them bit-exactly.
    pub fn to_json(&self) -> String {
        let p = &self.profile;
        let point = |point: &MeasuredPoint| {
            Json::object([
                ("op", Json::from(point.op.name())),
                ("items", Json::from(point.items)),
                ("flops_per_item", Json::from(point.flops_per_item)),
                ("bytes", Json::from(point.bytes)),
                ("measured_seconds", Json::from(point.measured_seconds)),
                ("modeled_seconds", Json::from(point.modeled_seconds)),
                ("residual", Json::from(point.residual)),
            ])
        };
        Json::object([
            ("v", Json::from(self.version)),
            ("backend", Json::from(self.backend.as_str())),
            ("median_residual", Json::from(self.median_residual)),
            (
                "profile",
                Json::object([
                    ("kernel_launch_latency", Json::from(p.kernel_launch_latency)),
                    ("transfer_latency", Json::from(p.transfer_latency)),
                    ("transfer_bandwidth", Json::from(p.transfer_bandwidth)),
                    ("compute_throughput", Json::from(p.compute_throughput)),
                    ("vector_width", Json::from(p.vector_width)),
                ]),
            ),
            ("points", self.points.iter().map(point).collect()),
        ])
        .to_string()
    }

    /// Parses a profile serialized by [`MeasuredProfile::to_json`]. Keys
    /// may appear in any order; unknown keys and version mismatches are
    /// errors (a newer writer must not be silently misread).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = Json::parse(json)?;
        let version = doc.u64("v")?;
        if version != MEASURED_PROFILE_VERSION {
            return Err(format!(
                "measured-profile version {version} (supported: {MEASURED_PROFILE_VERSION})"
            ));
        }
        doc.check_keys(&["v", "backend", "median_residual", "profile", "points"])?;
        let p = doc.field("profile")?;
        p.check_keys(&[
            "kernel_launch_latency",
            "transfer_latency",
            "transfer_bandwidth",
            "compute_throughput",
            "vector_width",
        ])?;
        let points = doc.array("points")?.iter().map(|point| {
            point.check_keys(&[
                "op",
                "items",
                "flops_per_item",
                "bytes",
                "measured_seconds",
                "modeled_seconds",
                "residual",
            ])?;
            Ok(MeasuredPoint {
                op: PointOp::parse(point.str("op")?)?,
                items: point.u64("items")?,
                flops_per_item: point.f64("flops_per_item")?,
                bytes: point.u64("bytes")?,
                measured_seconds: point.f64("measured_seconds")?,
                modeled_seconds: point.f64("modeled_seconds")?,
                residual: point.f64("residual")?,
            })
        });
        Ok(Self {
            version,
            backend: doc.str("backend")?.to_string(),
            profile: CostProfile {
                kernel_launch_latency: p.f64("kernel_launch_latency")?,
                transfer_latency: p.f64("transfer_latency")?,
                transfer_bandwidth: p.f64("transfer_bandwidth")?,
                compute_throughput: p.f64("compute_throughput")?,
                vector_width: p.f64("vector_width")?,
            },
            points: points.collect::<Result<_, String>>()?,
            median_residual: doc.f64("median_residual")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesizes noiseless measurements from a known profile: the fit
    /// must recover it (near-)exactly, independent of wall-clock noise.
    fn synthetic_points(truth: &CostProfile) -> Vec<MeasuredPoint> {
        let mut points = Vec::new();
        for bytes in [8192u64, 262144, 4194304] {
            points.push(MeasuredPoint {
                op: PointOp::Transfer,
                items: 0,
                flops_per_item: 0.0,
                bytes,
                measured_seconds: 0.0,
                modeled_seconds: 0.0,
                residual: 0.0,
            });
        }
        for items in [4096u64, 65536, 1048576] {
            for flops in [32.0, 256.0] {
                for op in [PointOp::Kernel, PointOp::Sweep] {
                    points.push(MeasuredPoint {
                        op,
                        items,
                        flops_per_item: flops,
                        bytes: if op == PointOp::Sweep { 8 } else { 0 },
                        measured_seconds: 0.0,
                        modeled_seconds: 0.0,
                        residual: 0.0,
                    });
                }
            }
        }
        for p in &mut points {
            p.measured_seconds = modeled_seconds(p, truth);
        }
        points
    }

    #[test]
    fn fit_recovers_a_known_profile_from_noiseless_points() {
        let truth = CostProfile {
            kernel_launch_latency: 40e-6,
            transfer_latency: 12e-6,
            transfer_bandwidth: 8e9,
            compute_throughput: 25e9,
            vector_width: 4.0,
        };
        let points = synthetic_points(&truth);
        let (measured, report) = fit(Backend::CpuSeq, &points);
        assert!(report.converged, "outcome {:?}", report.outcome);
        assert!(
            measured.median_residual < 0.01,
            "median residual {} on noiseless data",
            measured.median_residual
        );
        let f = &measured.profile;
        for (name, got, want) in [
            (
                "launch",
                f.kernel_launch_latency,
                truth.kernel_launch_latency,
            ),
            ("transfer_lat", f.transfer_latency, truth.transfer_latency),
            ("bandwidth", f.transfer_bandwidth, truth.transfer_bandwidth),
            ("throughput", f.compute_throughput, truth.compute_throughput),
            ("width", f.vector_width, truth.vector_width),
        ] {
            assert!(
                (got / want - 1.0).abs() < 0.05,
                "{name}: fitted {got:e} vs true {want:e}"
            );
        }
        // Every point is annotated with the fitted model's prediction.
        assert!(measured.points.iter().all(|p| p.modeled_seconds > 0.0));
    }

    #[test]
    fn measured_profile_json_roundtrips_bit_exactly() {
        let truth = CostProfile::gtx460();
        let points = synthetic_points(&truth);
        let (measured, _) = fit(Backend::SimGpu, &points);
        let json = measured.to_json();
        let back = MeasuredProfile::from_json(&json).expect("parse");
        assert_eq!(measured, back);
        assert_eq!(back.backend(), Some(Backend::SimGpu));
    }

    #[test]
    fn from_json_rejects_garbage_and_version_skew() {
        assert!(MeasuredProfile::from_json("").is_err());
        assert!(MeasuredProfile::from_json("{\"v\":1}").is_err());
        assert!(MeasuredProfile::from_json("not json").is_err());
        let truth = CostProfile::gtx460();
        let (measured, _) = fit(Backend::SimGpu, &synthetic_points(&truth));
        let skewed = measured.to_json().replacen("\"v\":1", "\"v\":2", 1);
        let err = MeasuredProfile::from_json(&skewed).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let fractional = measured.to_json().replacen("\"v\":1", "\"v\":1.5", 1);
        assert!(MeasuredProfile::from_json(&fractional).is_err());
        let unknown = measured
            .to_json()
            .replacen("\"backend\"", "\"surprise\"", 1);
        assert!(MeasuredProfile::from_json(&unknown).is_err());
    }

    #[test]
    fn microbenchmark_covers_all_three_op_families() {
        let config = CalibrationConfig {
            reps: 1,
            quick: true,
        };
        let points = microbenchmark(Backend::CpuSeq, &config);
        for op in [PointOp::Transfer, PointOp::Kernel, PointOp::Sweep] {
            assert!(points.iter().any(|p| p.op == op), "missing {op:?} in sweep");
        }
        assert!(points.iter().all(|p| p.measured_seconds > 0.0));
    }
}
