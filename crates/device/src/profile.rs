//! Measured per-launch profiling of every device hot path.
//!
//! The cost model (`crate::cost`) predicts what an operation *should*
//! cost; this module records what each launch *did* cost. Every charged
//! device operation — transfers, columnar sweeps, the row-major map and
//! in-place update behind Karma's ledger, reductions — is tagged with a
//! [`LaunchKind`] and an attribution record ([`Launch`]: items touched,
//! bytes moved, FLOPs claimed). The profiler keeps, per kind:
//!
//! * lifetime totals (launches, items, bytes, FLOPs, measured and
//!   modeled seconds), and
//! * a rolling window of the most recent per-launch wall times, from
//!   which [`KindProfile::measured_p50`]/[`KindProfile::measured_p95`]
//!   are computed — the live signal the serve scheduler's adaptive
//!   batching window and the calibration fit consume.
//!
//! When telemetry is enabled each launch also lands in a
//! `device.kernel.<kind>` histogram in the global registry, so the
//! per-kind latency distributions show up in `--metrics` tables and the
//! `prometheus_text` exposition without any extra plumbing.

use kdesel_types::stats::nearest_rank;
use std::sync::Arc;

/// Number of distinct launch kinds (the length of [`LaunchKind::ALL`]).
pub const LAUNCH_KIND_COUNT: usize = 11;

/// Identifies which device hot path issued a launch. One variant per
/// charged `Device` operation; the batch entry point `sweep_batch`
/// delegates to `sweep_multi_reduce`'s kind, matching how it is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaunchKind {
    /// Host→device transfer of a fresh buffer.
    Upload,
    /// Host→device partial overwrite (`write_at`).
    WriteAt,
    /// Device→host transfer of a whole buffer.
    Download,
    /// Row-major map kernel.
    MapRows,
    /// Columnar (SoA) staging transfer.
    StageRowsSoa,
    /// Single-row columnar overwrite.
    WriteRowSoa,
    /// Fused columnar sweep + tree reduction.
    SweepReduce,
    /// Columnar multi-output sweep.
    SweepMulti,
    /// Fused columnar multi-output sweep + column reduction (also the
    /// batched entry point `sweep_batch`).
    SweepMultiReduce,
    /// In-place per-element update reading a second buffer.
    ZipUpdateInplace,
    /// Standalone blocked column reduction + vector readback.
    ReduceSumColumns,
}

impl LaunchKind {
    /// Every kind, in declaration order — the index of a kind here equals
    /// `kind as usize`.
    pub const ALL: [LaunchKind; LAUNCH_KIND_COUNT] = [
        LaunchKind::Upload,
        LaunchKind::WriteAt,
        LaunchKind::Download,
        LaunchKind::MapRows,
        LaunchKind::StageRowsSoa,
        LaunchKind::WriteRowSoa,
        LaunchKind::SweepReduce,
        LaunchKind::SweepMulti,
        LaunchKind::SweepMultiReduce,
        LaunchKind::ZipUpdateInplace,
        LaunchKind::ReduceSumColumns,
    ];

    /// Stable snake_case name, used for telemetry metric names
    /// (`device.kernel.<name>`) and calibration reports.
    pub fn name(self) -> &'static str {
        match self {
            LaunchKind::Upload => "upload",
            LaunchKind::WriteAt => "write_at",
            LaunchKind::Download => "download",
            LaunchKind::MapRows => "map_rows",
            LaunchKind::StageRowsSoa => "stage_rows_soa",
            LaunchKind::WriteRowSoa => "write_row_soa",
            LaunchKind::SweepReduce => "sweep_reduce",
            LaunchKind::SweepMulti => "sweep_multi",
            LaunchKind::SweepMultiReduce => "sweep_multi_reduce",
            LaunchKind::ZipUpdateInplace => "zip_update_inplace",
            LaunchKind::ReduceSumColumns => "reduce_sum_columns",
        }
    }

    /// Whether this kind launches compute (a kernel) as opposed to being
    /// a pure host↔device transfer.
    pub fn is_kernel(self) -> bool {
        !matches!(
            self,
            LaunchKind::Upload
                | LaunchKind::WriteAt
                | LaunchKind::Download
                | LaunchKind::StageRowsSoa
                | LaunchKind::WriteRowSoa
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Attribution record for one charged device operation: what ran and how
/// much work it claimed. Constructed at each `Device` call site and
/// consumed by the profiler.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// Which hot path issued the launch.
    pub kind: LaunchKind,
    /// Items processed (rows for maps/sweeps, elements for reductions,
    /// zero for pure transfers).
    pub items: u64,
    /// Bytes moved across the host↔device boundary by this launch.
    pub bytes: u64,
    /// FLOPs attributed by the caller's `flops_per_item` claim (the same
    /// number the cost model charges).
    pub flops: f64,
}

impl Launch {
    /// A pure transfer of `bytes`.
    pub fn transfer(kind: LaunchKind, bytes: usize) -> Self {
        Self {
            kind,
            items: 0,
            bytes: bytes as u64,
            flops: 0.0,
        }
    }

    /// A compute launch over `items` items at `flops_per_item`, moving
    /// `bytes` across PCIe (fused readbacks; zero for pure kernels).
    pub fn kernel(kind: LaunchKind, items: usize, flops_per_item: f64, bytes: usize) -> Self {
        Self {
            kind,
            items: items as u64,
            bytes: bytes as u64,
            flops: items as f64 * flops_per_item,
        }
    }
}

/// Rolling-window capacity per kind: enough samples for stable p50/p95
/// under steady-state serving without remembering cold-start outliers
/// forever.
const WINDOW: usize = 64;

/// Fixed-capacity ring of the most recent per-launch wall times.
#[derive(Debug, Clone)]
struct Window {
    samples: [f64; WINDOW],
    len: usize,
    next: usize,
}

impl Default for Window {
    fn default() -> Self {
        Self {
            samples: [0.0; WINDOW],
            len: 0,
            next: 0,
        }
    }
}

impl Window {
    fn push(&mut self, v: f64) {
        self.samples[self.next] = v;
        self.next = (self.next + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
    }

    /// Nearest-rank quantile over the window; 0.0 when empty.
    fn quantile(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut sorted = self.samples[..self.len].to_vec();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }
}

/// Per-kind accumulator: lifetime totals plus the rolling window.
#[derive(Debug, Clone, Default)]
struct KindAcc {
    launches: u64,
    items: u64,
    bytes: u64,
    flops: f64,
    measured_seconds: f64,
    modeled_seconds: f64,
    window: Window,
}

/// Point-in-time view of one launch kind's profile.
#[derive(Debug, Clone, PartialEq)]
pub struct KindProfile {
    /// Which hot path this row describes.
    pub kind: LaunchKind,
    /// Launches issued since construction / the last reset.
    pub launches: u64,
    /// Total items processed.
    pub items: u64,
    /// Total bytes moved host↔device.
    pub bytes: u64,
    /// Total FLOPs attributed.
    pub flops: f64,
    /// Total measured wall seconds inside the operation.
    pub measured_seconds: f64,
    /// Total modeled seconds charged by the cost model.
    pub modeled_seconds: f64,
    /// Median per-launch wall time over the rolling window (0 when the
    /// kind never ran).
    pub measured_p50: f64,
    /// 95th-percentile per-launch wall time over the rolling window.
    pub measured_p95: f64,
}

/// Snapshot of a device's full launch profile: one [`KindProfile`] per
/// kind that has run at least once, in [`LaunchKind::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceProfile {
    /// Profiles of the kinds that ran, in declaration order.
    pub kinds: Vec<KindProfile>,
}

impl DeviceProfile {
    /// The profile of one kind, if it ever ran.
    pub fn kind(&self, kind: LaunchKind) -> Option<&KindProfile> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// Total launches across all kinds.
    pub fn launches(&self) -> u64 {
        self.kinds.iter().map(|k| k.launches).sum()
    }

    /// Rolling-median wall seconds of the *kernel* kinds combined,
    /// weighted by nothing — the max of the per-kind medians. A cheap,
    /// robust "what does one launch cost right now" signal for
    /// schedulers; 0.0 when no kernel has run.
    pub fn kernel_p50_ceiling(&self) -> f64 {
        self.kinds
            .iter()
            .filter(|k| k.kind.is_kernel())
            .map(|k| k.measured_p50)
            .fold(0.0, f64::max)
    }

    /// Tail counterpart of [`DeviceProfile::kernel_p50_ceiling`]: the max
    /// of the per-kernel-kind rolling p95s; 0.0 when no kernel has run.
    pub fn kernel_p95_ceiling(&self) -> f64 {
        self.kinds
            .iter()
            .filter(|k| k.kind.is_kernel())
            .map(|k| k.measured_p95)
            .fold(0.0, f64::max)
    }
}

/// The accumulator the device's timing ledger embeds. Lives behind the
/// same mutex as the modeled/measured totals, so one lock acquisition
/// per launch covers both.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    kinds: [KindAcc; LAUNCH_KIND_COUNT],
}

impl Profiler {
    pub(crate) fn record(&mut self, launch: Launch, modeled: f64, measured: f64) {
        let acc = &mut self.kinds[launch.kind.index()];
        acc.launches += 1;
        acc.items += launch.items;
        acc.bytes += launch.bytes;
        acc.flops += launch.flops;
        acc.measured_seconds += measured;
        acc.modeled_seconds += modeled;
        acc.window.push(measured);
    }

    pub(crate) fn snapshot(&self) -> DeviceProfile {
        let kinds = LaunchKind::ALL
            .iter()
            .zip(&self.kinds)
            .filter(|(_, acc)| acc.launches > 0)
            .map(|(&kind, acc)| KindProfile {
                kind,
                launches: acc.launches,
                items: acc.items,
                bytes: acc.bytes,
                flops: acc.flops,
                measured_seconds: acc.measured_seconds,
                modeled_seconds: acc.modeled_seconds,
                measured_p50: acc.window.quantile(0.50),
                measured_p95: acc.window.quantile(0.95),
            })
            .collect();
        DeviceProfile { kinds }
    }
}

/// Per-kind telemetry histograms (`device.kernel.<kind>`), resolved once
/// per device so the per-launch cost is one atomic record.
#[derive(Debug)]
pub(crate) struct KindMeters {
    histograms: [Arc<kdesel_telemetry::Histogram>; LAUNCH_KIND_COUNT],
}

impl KindMeters {
    pub(crate) fn new() -> Self {
        let r = kdesel_telemetry::registry();
        Self {
            histograms: std::array::from_fn(|i| {
                r.histogram(&format!("device.kernel.{}", LaunchKind::ALL[i].name()))
            }),
        }
    }

    pub(crate) fn record(&self, kind: LaunchKind, measured_seconds: f64) {
        self.histograms[kind.index()].record(measured_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_kind_in_index_order() {
        for (i, kind) in LaunchKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        // Names are unique (metric names must not collide).
        let mut names: Vec<_> = LaunchKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAUNCH_KIND_COUNT);
    }

    #[test]
    fn transfers_are_not_kernels() {
        assert!(!LaunchKind::Upload.is_kernel());
        assert!(!LaunchKind::StageRowsSoa.is_kernel());
        assert!(LaunchKind::SweepReduce.is_kernel());
        assert!(LaunchKind::ReduceSumColumns.is_kernel());
    }

    #[test]
    fn profiler_accumulates_and_windows() {
        let mut p = Profiler::default();
        for i in 0..100 {
            p.record(
                Launch::kernel(LaunchKind::SweepReduce, 1024, 8.0, 8),
                1e-6,
                (i + 1) as f64 * 1e-6,
            );
        }
        let snap = p.snapshot();
        assert_eq!(snap.kinds.len(), 1);
        let k = snap.kind(LaunchKind::SweepReduce).unwrap();
        assert_eq!(k.launches, 100);
        assert_eq!(k.items, 100 * 1024);
        assert_eq!(k.bytes, 800);
        assert_eq!(k.flops, 100.0 * 1024.0 * 8.0);
        // Window holds the most recent 64 samples: 37µs..100µs.
        assert!(k.measured_p50 >= 37e-6 && k.measured_p50 <= 100e-6);
        assert!(k.measured_p95 >= k.measured_p50);
        assert!(k.measured_p95 <= 100e-6 + 1e-12);
        assert_eq!(snap.launches(), 100);
        assert_eq!(snap.kernel_p50_ceiling(), k.measured_p50);
    }

    #[test]
    fn untouched_kinds_are_omitted() {
        let mut p = Profiler::default();
        p.record(Launch::transfer(LaunchKind::Upload, 64), 0.0, 1e-7);
        let snap = p.snapshot();
        assert_eq!(snap.kinds.len(), 1);
        assert!(snap.kind(LaunchKind::MapRows).is_none());
        // A pure transfer contributes nothing to the kernel ceiling.
        assert_eq!(snap.kernel_p50_ceiling(), 0.0);
    }

    #[test]
    fn window_quantiles_track_recent_samples_only() {
        let mut w = Window::default();
        for _ in 0..WINDOW {
            w.push(1.0);
        }
        for _ in 0..WINDOW {
            w.push(5.0);
        }
        assert_eq!(w.quantile(0.5), 5.0);
        assert_eq!(w.quantile(0.95), 5.0);
        let empty = Window::default();
        assert_eq!(empty.quantile(0.5), 0.0);
    }
}
