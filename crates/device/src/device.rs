//! The device abstraction: buffers, kernels, reductions, timing.

use crate::cost::{CostModel, CostProfile};
use crate::pool::BufferPool;
use crate::profile::{DeviceProfile, KindMeters, Launch, LaunchKind, Profiler};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Sequential CPU execution (reference implementation).
    CpuSeq,
    /// Multi-core CPU execution via `kdesel-par` — the stand-in for the
    /// paper's Intel OpenCL CPU backend.
    CpuPar,
    /// Simulated GPU: parallel CPU execution with the GTX-460 cost model.
    SimGpu,
}

impl Backend {
    /// Display name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::CpuSeq => "cpu-seq",
            Backend::CpuPar => "cpu-par",
            Backend::SimGpu => "sim-gpu",
        }
    }

    /// Inverse of [`Backend::name`]; `None` for unknown names. Used by
    /// `kdesel-calibrate` and the measured-profile loader.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cpu-seq" => Some(Backend::CpuSeq),
            "cpu-par" => Some(Backend::CpuPar),
            "sim-gpu" => Some(Backend::SimGpu),
            _ => None,
        }
    }
}

/// Rows per cache block of a columnar sweep: 1 K rows keeps one block's
/// column stripes plus its outputs L2-resident at the dimensionalities
/// the estimator uses (8 KB per stripe), and fixes block boundaries
/// independently of worker count so every backend produces bit-identical
/// buffers.
pub const SWEEP_BLOCK_ROWS: usize = 1024;

/// Transfer/compute counters for validating transfer-efficiency claims.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Host→device transfers issued.
    pub uploads: u64,
    /// Bytes moved host→device.
    pub bytes_up: u64,
    /// Device→host transfers issued.
    pub downloads: u64,
    /// Bytes moved device→host.
    pub bytes_down: u64,
    /// Kernels launched (including reduction passes).
    pub kernels: u64,
    /// Buffer acquisitions served by recycling pooled storage. A pool
    /// hit charges *nothing*: no transfer (contents are only charged
    /// when they actually change, via `upload`/`write_at`) and no
    /// allocation cost — reuse of resident device memory is free.
    pub pool_hits: u64,
    /// Poolable buffer acquisitions that had to allocate fresh storage.
    /// Tiny buffers that bypass the pool by design (short bound lists,
    /// scalar results) count as neither hit nor miss.
    pub pool_misses: u64,
    /// Bytes parked on the buffer pool's free lists at snapshot time.
    /// Unlike every other field this is a *level*, not a monotone
    /// counter: [`DeviceStats::since`] reports how much it grew during a
    /// span (saturating at zero when buffers were reclaimed instead).
    pub pool_held_bytes: u64,
}

impl DeviceStats {
    /// Field-wise difference `self - earlier`, attributing device
    /// activity to one span of work (e.g. a single fused launch): snapshot
    /// the stats before, again after, and `after.since(&before)` is what
    /// that work cost. Counters are monotonic on one device, so
    /// saturation only guards against mismatched snapshot pairs (and the
    /// `pool_held_bytes` level, which may legitimately shrink).
    ///
    /// Both sides are destructured without `..`, so adding a field to
    /// `DeviceStats` fails to compile here until the new field is
    /// deltaed too — a new counter can never silently read as a lifetime
    /// total inside launch spans.
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        let DeviceStats {
            uploads,
            bytes_up,
            downloads,
            bytes_down,
            kernels,
            pool_hits,
            pool_misses,
            pool_held_bytes,
        } = *self;
        let DeviceStats {
            uploads: e_uploads,
            bytes_up: e_bytes_up,
            downloads: e_downloads,
            bytes_down: e_bytes_down,
            kernels: e_kernels,
            pool_hits: e_pool_hits,
            pool_misses: e_pool_misses,
            pool_held_bytes: e_pool_held_bytes,
        } = *earlier;
        DeviceStats {
            uploads: uploads.saturating_sub(e_uploads),
            bytes_up: bytes_up.saturating_sub(e_bytes_up),
            downloads: downloads.saturating_sub(e_downloads),
            bytes_down: bytes_down.saturating_sub(e_bytes_down),
            kernels: kernels.saturating_sub(e_kernels),
            pool_hits: pool_hits.saturating_sub(e_pool_hits),
            pool_misses: pool_misses.saturating_sub(e_pool_misses),
            pool_held_bytes: pool_held_bytes.saturating_sub(e_pool_held_bytes),
        }
    }
}

#[derive(Debug, Default)]
struct Timing {
    modeled_seconds: f64,
    measured_seconds: f64,
    stats: DeviceStats,
    profile: Profiler,
}

/// A device-resident buffer of `f64` values.
///
/// The handle can only be manipulated through [`Device`] methods, which
/// charge the appropriate transfer/kernel costs; reading data back requires
/// an explicit [`Device::download`]. Deliberately not `Clone`: duplicating
/// device memory is a real device operation, so the only way to copy a
/// buffer is a charged [`Device::download`] and [`Device::upload`].
///
/// Buffers created through a [`Device`] carry a handle to that device's
/// buffer pool; dropping the buffer recycles its storage onto a
/// size-class free list instead of the heap, so steady-state request
/// loops reacquire the same allocations batch after batch.
#[derive(Debug)]
pub struct DeviceBuffer {
    data: Vec<f64>,
    pool: Option<Arc<BufferPool>>,
}

impl DeviceBuffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release(std::mem::take(&mut self.data));
        }
    }
}

/// Rows per distinct value a column must average to be dictionary-coded:
/// a column of `rows` rows gets a dictionary when it holds at most
/// `rows / DICT_ROWS_PER_VALUE` distinct values (and at most 2¹⁶, the
/// `u16` code space). At that ratio a sweep evaluating each distinct
/// value's kernel factor once per query does at most 1/16 of the
/// factor work of evaluating every row.
pub const DICT_ROWS_PER_VALUE: usize = 16;

/// Most distinct values a dictionary of a `rows`-row column may hold.
fn dict_cap(rows: usize) -> usize {
    (rows / DICT_ROWS_PER_VALUE).min(1 << 16)
}

/// A column's dictionary: its distinct values and one `u16` code per
/// row, with `values[codes[r]]` bitwise equal to the stripe's row `r`.
/// Values are keyed by their bits, so `-0.0` and `+0.0` (and NaN
/// payloads) are distinct entries.
#[derive(Debug)]
struct Dict {
    /// Distinct values, in order of first appearance. A value whose last
    /// row was overwritten stays (it only costs its table entry).
    values: Vec<f64>,
    codes: Vec<u16>,
    /// Open-addressing index over the values' bits: `code + 1` per slot,
    /// 0 when empty. A power of two long, at most half full.
    slots: Vec<u32>,
}

impl Dict {
    /// Builds the dictionary of one stripe, or `None` once the stripe
    /// shows more than `cap` distinct values. `slots` and `codes` are
    /// scratch shared by a staging pass's columns: the index is sized for
    /// `cap` values up front, so building never rehashes, and a kept
    /// dictionary takes the codes and a right-sized copy of its index.
    fn build(
        stripe: &[f64],
        cap: usize,
        slots: &mut Vec<u32>,
        codes: &mut Vec<u16>,
    ) -> Option<Self> {
        if cap == 0 {
            return None;
        }
        slots.clear();
        slots.resize((2 * cap).next_power_of_two(), 0);
        codes.clear();
        codes.reserve(stripe.len());
        let mut values = Vec::new();
        for &v in stripe {
            let code = match probe(slots, &values, v.to_bits()) {
                (_, Some(code)) => code,
                (_, None) if values.len() == cap => return None,
                (slot, None) => {
                    values.push(v);
                    slots[slot] = values.len() as u32;
                    values.len() - 1
                }
            };
            codes.push(code as u16);
        }
        let mut dict = Self {
            values,
            codes: std::mem::take(codes),
            slots: Vec::new(),
        };
        dict.reindex();
        Some(dict)
    }

    /// Rebuilds the index at twice the values' count, rounded up to a
    /// power of two.
    fn reindex(&mut self) {
        self.slots.clear();
        let len = (2 * self.values.len()).next_power_of_two().max(16);
        self.slots.resize(len, 0);
        for (code, v) in self.values.iter().enumerate() {
            let (slot, _) = probe(&self.slots, &self.values[..code], v.to_bits());
            self.slots[slot] = code as u32 + 1;
        }
    }

    /// The code of `v`, appending it when new; `None` when a new value
    /// would take the dictionary past `cap` values.
    fn code_of(&mut self, v: f64, cap: usize) -> Option<u16> {
        let slot = match probe(&self.slots, &self.values, v.to_bits()) {
            (_, Some(code)) => return Some(code as u16),
            (_, None) if self.values.len() == cap => return None,
            (slot, None) => slot,
        };
        self.values.push(v);
        self.slots[slot] = self.values.len() as u32;
        if 2 * self.values.len() > self.slots.len() {
            self.reindex();
        }
        Some((self.values.len() - 1) as u16)
    }
}

/// Looks `bits` up in an open-addressing index over `values` (slot =
/// `code + 1`, 0 when empty): the slot holding it with its code, or the
/// empty slot where it would go.
#[inline]
fn probe(slots: &[u32], values: &[f64], bits: u64) -> (usize, Option<usize>) {
    let mask = slots.len() - 1;
    let mut i = slot_hash(bits) & mask;
    loop {
        match slots[i] {
            0 => return (i, None),
            s if values[s as usize - 1].to_bits() == bits => return (i, Some(s as usize - 1)),
            _ => i = (i + 1) & mask,
        }
    }
}

/// Fibonacci hash of a value's bits, folded so the low slot bits depend
/// on the exponent and high mantissa bits that small integers differ in.
fn slot_hash(bits: u64) -> usize {
    let h = (bits ^ (bits >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize
}

/// A dictionary-coded column as a sweep sees it: the column's distinct
/// values and the codes of the rows in view, with `values[codes[r]]`
/// bitwise equal to row `r` of the column's stripe.
#[derive(Debug, Clone, Copy)]
pub struct ColumnDict<'a> {
    /// The column's distinct values.
    pub values: &'a [f64],
    /// One code per row in view.
    pub codes: &'a [u16],
}

/// A device-resident sample staged column-major (structure-of-arrays):
/// one contiguous stripe per dimension, so the per-dimension kernel
/// factor of paper eq. 16 reads memory at unit stride — the CPU-side
/// analogue of the coalesced global-memory access pattern the paper's
/// GPU kernels get from one-thread-per-point layout (§5).
///
/// A column with few distinct values (at most `rows /`
/// [`DICT_ROWS_PER_VALUE`]) also carries a dictionary beside its
/// stripe ([`SoaBuffer::dict`]), so a sweep can evaluate each distinct
/// value's kernel factor once per query and read the rows' factors by
/// code. The stripe itself is the same either way.
///
/// Created by [`Device::stage_rows_soa`]; consumed by the `sweep_*`
/// kernels. Mutation goes through [`Device::write_row_soa`] so every
/// content change is charged as a transfer, like any device buffer.
#[derive(Debug)]
pub struct SoaBuffer {
    buf: DeviceBuffer,
    rows: usize,
    dims: usize,
    /// One entry per dimension: the column's dictionary, if coded.
    dicts: Vec<Option<Dict>>,
    /// Telemetry bookkeeping, set when telemetry was on at staging time
    /// so drop subtracts exactly what staging added.
    staged: Option<StagedGauges>,
}

/// The gauges a staged sample adds to: `device.soa_staged_bytes` (by
/// `bytes`) and `device.soa_dict_columns` (by its coded columns).
#[derive(Debug)]
struct StagedGauges {
    bytes: Arc<kdesel_telemetry::Gauge>,
    staged_bytes: f64,
    dict_columns: Arc<kdesel_telemetry::Gauge>,
}

impl Drop for SoaBuffer {
    fn drop(&mut self) {
        if let Some(g) = self.staged.take() {
            g.bytes.add(-g.staged_bytes);
            g.dict_columns.add(-(self.dict_columns() as f64));
        }
    }
}

impl SoaBuffer {
    /// Dimension `d`'s dictionary (codes for every row), when its column
    /// is dictionary-coded.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    pub fn dict(&self, d: usize) -> Option<ColumnDict<'_>> {
        self.dicts[d].as_ref().map(|dict| ColumnDict {
            values: &dict.values,
            codes: &dict.codes,
        })
    }

    /// Number of dictionary-coded columns.
    pub fn dict_columns(&self) -> usize {
        self.dicts.iter().filter(|d| d.is_some()).count()
    }

    /// Number of staged rows (sample points).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of dimensions (columns).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total staged elements (`rows * dims`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// A borrowed window over a contiguous row range of an [`SoaBuffer`]:
/// what one cache block of a columnar sweep sees. [`ColsView::col`]
/// returns the unit-stride stripe of one dimension restricted to the
/// window's rows.
#[derive(Debug, Clone, Copy)]
pub struct ColsView<'a> {
    data: &'a [f64],
    dicts: &'a [Option<Dict>],
    total_rows: usize,
    dims: usize,
    start: usize,
    len: usize,
}

impl<'a> ColsView<'a> {
    /// Rows in this window.
    pub fn rows(&self) -> usize {
        self.len
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The unit-stride values of dimension `d` for this window's rows.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    pub fn col(&self, d: usize) -> &'a [f64] {
        assert!(d < self.dims, "column {d} out of range");
        &self.data[d * self.total_rows + self.start..][..self.len]
    }

    /// Dimension `d`'s dictionary with the codes of this window's rows,
    /// when its column is dictionary-coded.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    pub fn dict(&self, d: usize) -> Option<ColumnDict<'a>> {
        self.dicts[d].as_ref().map(|dict| ColumnDict {
            values: &dict.values,
            codes: &dict.codes[self.start..][..self.len],
        })
    }
}

/// An execution device with cost accounting.
///
/// All methods take `&self`; timing/statistics use interior mutability so a
/// device can be shared by the estimator components that the paper runs
/// concurrently (estimation vs. gradient pre-computation, §5.5).
/// Telemetry handles, resolved once at device construction so the
/// per-operation cost is a handful of relaxed atomic adds (and zero
/// when telemetry is disabled).
#[derive(Debug)]
struct Meters {
    kernels: Arc<kdesel_telemetry::Counter>,
    uploads: Arc<kdesel_telemetry::Counter>,
    downloads: Arc<kdesel_telemetry::Counter>,
    bytes_up: Arc<kdesel_telemetry::Counter>,
    bytes_down: Arc<kdesel_telemetry::Counter>,
    modeled_us: Arc<kdesel_telemetry::Gauge>,
    measured_us: Arc<kdesel_telemetry::Gauge>,
    /// Bytes currently staged column-major on this device.
    soa_bytes: Arc<kdesel_telemetry::Gauge>,
    /// Dictionary-coded columns in this device's staged samples.
    soa_dicts: Arc<kdesel_telemetry::Gauge>,
    /// Per-launch-kind latency histograms (`device.kernel.<kind>`).
    kinds: KindMeters,
}

impl Meters {
    fn new(backend: Backend) -> Self {
        let r = kdesel_telemetry::registry();
        Self {
            kernels: r.counter("device.kernels"),
            uploads: r.counter("device.uploads"),
            downloads: r.counter("device.downloads"),
            bytes_up: r.counter("device.bytes_up"),
            bytes_down: r.counter("device.bytes_down"),
            modeled_us: r.gauge(&format!("device.modeled_us.{}", backend.name())),
            measured_us: r.gauge(&format!("device.measured_us.{}", backend.name())),
            soa_bytes: r.gauge("device.soa_staged_bytes"),
            soa_dicts: r.gauge("device.soa_dict_columns"),
            kinds: KindMeters::new(),
        }
    }
}

#[derive(Debug)]
pub struct Device {
    backend: Backend,
    cost: CostModel,
    timing: Arc<Mutex<Timing>>,
    meters: Meters,
    pool: Arc<BufferPool>,
}

impl Device {
    /// Creates a device with the default cost profile for the backend:
    /// measured-only (free model) for the CPU backends, GTX-460 for the
    /// simulated GPU.
    pub fn new(backend: Backend) -> Self {
        let profile = match backend {
            Backend::CpuSeq | Backend::CpuPar => CostProfile::xeon_e5620_opencl(),
            Backend::SimGpu => CostProfile::gtx460(),
        };
        Self::with_profile(backend, profile)
    }

    /// Creates a device with an explicit cost profile.
    pub fn with_profile(backend: Backend, profile: CostProfile) -> Self {
        Self {
            backend,
            cost: CostModel::new(profile),
            timing: Arc::new(Mutex::new(Timing::default())),
            meters: Meters::new(backend),
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// Wraps pooled storage in a buffer that recycles itself on drop.
    fn wrap(&self, data: Vec<f64>) -> DeviceBuffer {
        DeviceBuffer {
            data,
            pool: Some(Arc::clone(&self.pool)),
        }
    }

    /// The backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Accumulated modeled seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.timing.lock().unwrap().modeled_seconds
    }

    /// Accumulated measured (wall-clock) seconds inside device operations.
    pub fn measured_seconds(&self) -> f64 {
        self.timing.lock().unwrap().measured_seconds
    }

    /// Transfer/kernel counters, with the buffer pool's hit/miss tallies
    /// and current held bytes merged in.
    pub fn stats(&self) -> DeviceStats {
        let mut stats = self.timing.lock().unwrap().stats;
        stats.pool_hits = self.pool.hits();
        stats.pool_misses = self.pool.misses();
        stats.pool_held_bytes = self.pool.held_bytes();
        stats
    }

    /// Measured launch profile: per-kind lifetime totals and rolling
    /// p50/p95 wall times for every hot path this device has run (see
    /// [`crate::profile`]). The serve scheduler reads this to size its
    /// adaptive batching window; `kdesel-calibrate` reads it to fit a
    /// measured [`CostProfile`].
    pub fn profile(&self) -> DeviceProfile {
        self.timing.lock().unwrap().profile.snapshot()
    }

    /// Bytes currently parked on this device's buffer-pool free lists.
    pub fn pool_held_bytes(&self) -> u64 {
        self.pool.held_bytes()
    }

    /// Resets all accumulated timing and counters (pooled storage itself
    /// is kept — occupancy is state, the counters are a window).
    pub fn reset_timing(&self) {
        *self.timing.lock().unwrap() = Timing::default();
        self.pool.reset_counters();
    }

    fn charge<T>(
        &self,
        launch: Launch,
        modeled: f64,
        mutate: impl FnOnce(&mut DeviceStats),
        run: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = run();
        let measured = start.elapsed().as_secs_f64();
        let mut t = self.timing.lock().unwrap();
        t.modeled_seconds += modeled;
        t.measured_seconds += measured;
        t.profile.record(launch, modeled, measured);
        let before = t.stats;
        mutate(&mut t.stats);
        let after = t.stats;
        drop(t);
        // Mirror the per-device counters into the process-global
        // telemetry registry (the bridge that makes Figure 7's
        // transfer/launch accounting visible in a metrics dump).
        if kdesel_telemetry::enabled() {
            let m = &self.meters;
            m.kernels.add(after.kernels - before.kernels);
            m.uploads.add(after.uploads - before.uploads);
            m.downloads.add(after.downloads - before.downloads);
            m.bytes_up.add(after.bytes_up - before.bytes_up);
            m.bytes_down.add(after.bytes_down - before.bytes_down);
            m.modeled_us.add(modeled * 1e6);
            m.measured_us.add(measured * 1e6);
            m.kinds.record(launch.kind, measured);
        }
        out
    }

    /// Copies host data into a new device buffer (one transfer). The
    /// backing storage comes from the device's buffer pool: a pooled
    /// reuse charges only the transfer (the contents change), never a
    /// second allocation.
    pub fn upload(&self, host: &[f64]) -> DeviceBuffer {
        let bytes = std::mem::size_of_val(host);
        self.charge(
            Launch::transfer(LaunchKind::Upload, bytes),
            self.cost.transfer(bytes),
            |s| {
                s.uploads += 1;
                s.bytes_up += bytes as u64;
            },
            || self.wrap(self.pool.acquire_copy(host)),
        )
    }

    /// Allocates a zero-filled device buffer (no transfer: allocation only).
    pub fn alloc_zeroed(&self, len: usize) -> DeviceBuffer {
        self.wrap(self.pool.acquire_zeroed(len))
    }

    /// Overwrites `buf[offset .. offset+values.len()]` with host data —
    /// one transfer, the paper's single-PCIe-write sample-point replacement
    /// (§5.1).
    ///
    /// # Panics
    /// Panics when the write would exceed the buffer.
    pub fn write_at(&self, buf: &mut DeviceBuffer, offset: usize, values: &[f64]) {
        assert!(offset + values.len() <= buf.data.len(), "device write OOB");
        let bytes = std::mem::size_of_val(values);
        self.charge(
            Launch::transfer(LaunchKind::WriteAt, bytes),
            self.cost.transfer(bytes),
            |s| {
                s.uploads += 1;
                s.bytes_up += bytes as u64;
            },
            || buf.data[offset..offset + values.len()].copy_from_slice(values),
        )
    }

    /// Copies a device buffer back to the host (one transfer).
    pub fn download(&self, buf: &DeviceBuffer) -> Vec<f64> {
        let bytes = std::mem::size_of_val(buf.data.as_slice());
        self.charge(
            Launch::transfer(LaunchKind::Download, bytes),
            self.cost.transfer(bytes),
            |s| {
                s.downloads += 1;
                s.bytes_down += bytes as u64;
            },
            || buf.data.clone(),
        )
    }

    /// Runs a kernel mapping each `dims`-wide row of `buf` to one output
    /// value. `flops_per_row` feeds the cost model.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dims`.
    pub fn map_rows<F>(
        &self,
        buf: &DeviceBuffer,
        dims: usize,
        flops_per_row: f64,
        f: F,
    ) -> DeviceBuffer
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        assert_eq!(buf.data.len() % dims, 0, "ragged device buffer");
        let rows = buf.data.len() / dims;
        let launch = Launch::kernel(LaunchKind::MapRows, rows, flops_per_row, 0);
        self.charge(
            launch,
            self.cost.kernel(rows, flops_per_row),
            |s| s.kernels += 1,
            || {
                let mut out = self.pool.acquire_for_overwrite(rows);
                match self.backend {
                    Backend::CpuSeq => {
                        for (o, row) in out.iter_mut().zip(buf.data.chunks_exact(dims)) {
                            *o = f(row);
                        }
                    }
                    Backend::CpuPar | Backend::SimGpu => {
                        kdesel_par::par_for_each_mut(&mut out, launch.flops, |i, o| {
                            *o = f(&buf.data[i * dims..(i + 1) * dims])
                        });
                    }
                }
                self.wrap(out)
            },
        )
    }

    /// Stages host rows column-major on the device (one transfer): each
    /// dimension becomes one contiguous stripe, so the per-dimension
    /// factor loops of the `sweep_*` kernels read at unit stride — the
    /// layout §5 of the paper gets from coalesced one-thread-per-point
    /// access on the GPU. Charged exactly like [`Device::upload`] of the
    /// same rows; the transpose happens device-side.
    ///
    /// The same pass gives each column that holds at most `rows /`
    /// [`DICT_ROWS_PER_VALUE`] distinct values a dictionary
    /// ([`SoaBuffer::dict`]); a column gives its attempt up as soon as it
    /// shows one value more.
    ///
    /// # Panics
    /// Panics when `dims` is zero or `host_rows` is ragged.
    pub fn stage_rows_soa(&self, host_rows: &[f64], dims: usize) -> SoaBuffer {
        assert!(dims > 0, "zero dims");
        assert_eq!(host_rows.len() % dims, 0, "ragged host rows");
        let rows = host_rows.len() / dims;
        let bytes = std::mem::size_of_val(host_rows);
        let (buf, dicts) = self.charge(
            Launch::transfer(LaunchKind::StageRowsSoa, bytes),
            self.cost.transfer(bytes),
            |s| {
                s.uploads += 1;
                s.bytes_up += bytes as u64;
            },
            || {
                let mut data = self.pool.acquire_for_overwrite(host_rows.len());
                for (r, row) in host_rows.chunks_exact(dims).enumerate() {
                    for (d, &v) in row.iter().enumerate() {
                        data[d * rows + r] = v;
                    }
                }
                let (mut slots, mut codes) = (Vec::new(), Vec::new());
                let dicts: Vec<Option<Dict>> = (0..dims)
                    .map(|d| {
                        let stripe = &data[d * rows..][..rows];
                        Dict::build(stripe, dict_cap(rows), &mut slots, &mut codes)
                    })
                    .collect();
                (self.wrap(data), dicts)
            },
        );
        let mut soa = SoaBuffer {
            buf,
            rows,
            dims,
            dicts,
            staged: None,
        };
        if kdesel_telemetry::enabled() {
            let m = &self.meters;
            m.soa_bytes.add(bytes as f64);
            m.soa_dicts.add(soa.dict_columns() as f64);
            soa.staged = Some(StagedGauges {
                bytes: Arc::clone(&m.soa_bytes),
                staged_bytes: bytes as f64,
                dict_columns: Arc::clone(&m.soa_dicts),
            });
        }
        soa
    }

    /// Overwrites one staged row (one transfer of `dims` values) — the
    /// columnar equivalent of [`Device::write_at`] for the paper's
    /// single-PCIe-write sample-point replacement (§5.1). The write
    /// scatters into the per-dimension stripes device-side and keeps
    /// every dictionary in step: a value the column's dictionary lacks
    /// is appended while the dictionary stays within its cap, and past
    /// the cap the column drops its dictionary.
    ///
    /// # Panics
    /// Panics when `row` is out of range or `values` is not `dims` long.
    pub fn write_row_soa(&self, buf: &mut SoaBuffer, row: usize, values: &[f64]) {
        assert!(
            row < buf.rows && values.len() == buf.dims,
            "device write OOB"
        );
        let bytes = std::mem::size_of_val(values);
        let cap = dict_cap(buf.rows);
        let dropped = self.charge(
            Launch::transfer(LaunchKind::WriteRowSoa, bytes),
            self.cost.transfer(bytes),
            |s| {
                s.uploads += 1;
                s.bytes_up += bytes as u64;
            },
            || {
                let mut dropped = 0u32;
                for (d, &v) in values.iter().enumerate() {
                    buf.buf.data[d * buf.rows + row] = v;
                    let slot = &mut buf.dicts[d];
                    if let Some(dict) = slot {
                        match dict.code_of(v, cap) {
                            Some(code) => dict.codes[row] = code,
                            None => {
                                *slot = None;
                                dropped += 1;
                            }
                        }
                    }
                }
                dropped
            },
        );
        if let Some(g) = &buf.staged {
            g.dict_columns.add(-f64::from(dropped));
        }
    }

    /// Runs `f` on `len` elements of pooled scratch whose prior contents
    /// are unspecified (NaN in debug builds), then returns the storage to
    /// the pool: the home of a launch's hoisted constants, such as the
    /// per-query kernel parameters and factor tables a sweep reads.
    pub fn with_scratch<T>(&self, len: usize, f: impl FnOnce(&mut [f64]) -> T) -> T {
        let mut scratch = self.pool.acquire_for_overwrite(len);
        let out = f(&mut scratch);
        self.pool.release(scratch);
        out
    }

    /// Backend dispatch for a columnar sweep: hands each fixed-size
    /// block of rows to `f` as a [`ColsView`] window plus that block's
    /// `out_width`-wide output chunk. Block boundaries depend only on
    /// [`SWEEP_BLOCK_ROWS`], never on worker count, and blocks write
    /// disjoint output ranges — so CpuSeq/CpuPar/SimGpu all produce
    /// bit-identical buffers. `flops` is the launch's claimed work (its
    /// [`Launch::flops`]); it sizes the parallel backends' fan-out by
    /// `kdesel_par`'s dispatch rule, so a one-block sweep runs on the
    /// calling thread.
    fn run_sweep<F>(&self, sample: &SoaBuffer, out_width: usize, flops: f64, f: &F, out: &mut [f64])
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        assert!(out_width > 0);
        debug_assert_eq!(out.len(), sample.rows * out_width);
        let view = |start: usize, len: usize| ColsView {
            data: &sample.buf.data,
            dicts: &sample.dicts,
            total_rows: sample.rows,
            dims: sample.dims,
            start,
            len,
        };
        let block_elems = SWEEP_BLOCK_ROWS * out_width;
        match self.backend {
            Backend::CpuSeq => {
                for (b, chunk) in out.chunks_mut(block_elems).enumerate() {
                    f(view(b * SWEEP_BLOCK_ROWS, chunk.len() / out_width), chunk);
                }
            }
            Backend::CpuPar | Backend::SimGpu => {
                kdesel_par::par_for_each_block_mut(out, block_elems, flops, |b, chunk| {
                    f(view(b * SWEEP_BLOCK_ROWS, chunk.len() / out_width), chunk);
                });
            }
        }
    }

    /// Columnar fused map + tree-reduce over a staged sample: one
    /// vectorized launch maps every row to one value and pairwise-reduces
    /// the values in place, downloading only the 8-byte scalar. The sum
    /// is bitwise the pairwise sum of the per-row values — the reduction
    /// order is part of the device contract — in one kernel instead of a
    /// map, a two-pass reduction and a readback.
    ///
    /// With `retain`, the per-row values stay device-resident (the
    /// Karma retained-contributions side output).
    ///
    /// `f` must write every element of its output chunk: the chunk's
    /// prior contents are unspecified (NaN in debug builds), so no launch
    /// pays a zero fill. The same holds for every `sweep_*` launch.
    pub fn sweep_reduce<F>(
        &self,
        sample: &SoaBuffer,
        flops_per_row: f64,
        retain: bool,
        f: F,
    ) -> (f64, Option<DeviceBuffer>)
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        let rows = sample.rows;
        let modeled = self.cost.kernel_vectorized(rows, flops_per_row + 4.0)
            + self.cost.transfer(std::mem::size_of::<f64>());
        let launch = Launch::kernel(
            LaunchKind::SweepReduce,
            rows,
            flops_per_row + 4.0,
            std::mem::size_of::<f64>(),
        );
        self.charge(
            launch,
            modeled,
            |s| {
                s.kernels += 1;
                s.downloads += 1;
                s.bytes_down += std::mem::size_of::<f64>() as u64;
            },
            || {
                let mut data = self.pool.acquire_for_overwrite(rows);
                self.run_sweep(sample, 1, launch.flops, &f, &mut data);
                let sum = pairwise_sum(&data);
                if retain {
                    (sum, Some(self.wrap(data)))
                } else {
                    self.pool.release(data);
                    (sum, None)
                }
            },
        )
    }

    /// Columnar multi-output sweep without reduction (one vectorized
    /// launch, no transfer), returning the `rows × out_width` row-major
    /// output buffer device-resident.
    pub fn sweep_multi<F>(
        &self,
        sample: &SoaBuffer,
        out_width: usize,
        flops_per_row: f64,
        f: F,
    ) -> DeviceBuffer
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        let rows = sample.rows;
        let launch = Launch::kernel(LaunchKind::SweepMulti, rows, flops_per_row, 0);
        self.charge(
            launch,
            self.cost.kernel_vectorized(rows, flops_per_row),
            |s| s.kernels += 1,
            || {
                let mut data = self.pool.acquire_for_overwrite(rows * out_width);
                self.run_sweep(sample, out_width, launch.flops, &f, &mut data);
                self.wrap(data)
            },
        )
    }

    /// Columnar fused multi-output sweep + column reduction: one launch
    /// maps each row to `out_width` values and pairwise-reduces each
    /// column, downloading the `out_width` sums. Bit-identical to
    /// [`Device::sweep_multi`] followed by [`Device::reduce_sum_columns`],
    /// in one kernel instead of three — the pattern behind
    /// `estimate_with_gradient` (eq. 16 shares per-dimension factors
    /// between p̂ and ∂p̂/∂h). With `retain_first`, column 0 of the sweep
    /// output is kept device-resident as a contiguous buffer (the Karma
    /// retained contributions).
    ///
    /// # Panics
    /// Panics when `out_width` is zero.
    pub fn sweep_multi_reduce<F>(
        &self,
        sample: &SoaBuffer,
        out_width: usize,
        flops_per_row: f64,
        retain_first: bool,
        f: F,
    ) -> (Vec<f64>, Option<DeviceBuffer>)
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        assert!(out_width > 0);
        let rows = sample.rows;
        let result_bytes = out_width * std::mem::size_of::<f64>();
        let modeled = self
            .cost
            .kernel_vectorized(rows, flops_per_row + 4.0 * out_width as f64)
            + self.cost.transfer(result_bytes);
        let launch = Launch::kernel(
            LaunchKind::SweepMultiReduce,
            rows,
            flops_per_row + 4.0 * out_width as f64,
            result_bytes,
        );
        self.charge(
            launch,
            modeled,
            |s| {
                s.kernels += 1;
                s.downloads += 1;
                s.bytes_down += result_bytes as u64;
            },
            || {
                let mut data = self.pool.acquire_for_overwrite(rows * out_width);
                self.run_sweep(sample, out_width, launch.flops, &f, &mut data);
                let sums = pairwise_sum_columns(&data, out_width);
                let retained = retain_first.then(|| {
                    let mut first = self.pool.acquire_for_overwrite(rows);
                    for (o, row) in first.iter_mut().zip(data.chunks_exact(out_width)) {
                        *o = row[0];
                    }
                    self.wrap(first)
                });
                self.pool.release(data);
                (sums, retained)
            },
        )
    }

    /// Columnar fused batched evaluation: one vectorized launch maps
    /// every staged row to `batch` outputs (one per query rectangle) and
    /// column-reduces them, amortizing launch latency and the sample
    /// traversal `batch`-fold.
    pub fn sweep_batch<F>(
        &self,
        sample: &SoaBuffer,
        batch: usize,
        flops_per_row: f64,
        f: F,
    ) -> Vec<f64>
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        self.sweep_multi_reduce(sample, batch, flops_per_row, false, f)
            .0
    }

    /// Updates each element of `target` in place from its index, its current
    /// value, and the corresponding element of `source` — the Karma
    /// accumulation pass (paper eq. 8) reading the retained per-point
    /// contributions. No host transfer is involved.
    ///
    /// # Panics
    /// Panics when the buffers differ in length.
    pub fn zip_update_inplace<F>(
        &self,
        target: &mut DeviceBuffer,
        source: &DeviceBuffer,
        flops_per_item: f64,
        f: F,
    ) where
        F: Fn(usize, f64, f64) -> f64 + Sync,
    {
        assert_eq!(
            target.data.len(),
            source.data.len(),
            "buffer length mismatch"
        );
        let n = target.data.len();
        let launch = Launch::kernel(LaunchKind::ZipUpdateInplace, n, flops_per_item, 0);
        self.charge(
            launch,
            self.cost.kernel(n, flops_per_item),
            |s| s.kernels += 1,
            || match self.backend {
                Backend::CpuSeq => {
                    for (i, (t, &s)) in target.data.iter_mut().zip(&source.data).enumerate() {
                        *t = f(i, *t, s);
                    }
                }
                Backend::CpuPar | Backend::SimGpu => {
                    let src = source.data.as_slice();
                    kdesel_par::par_for_each_mut(&mut target.data, launch.flops, |i, t| {
                        *t = f(i, *t, src[i])
                    });
                }
            },
        )
    }

    /// Sums each of `width` interleaved columns of `buf` (used for the
    /// `d`-component gradient reduction) and downloads the result vector.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `width`.
    pub fn reduce_sum_columns(&self, buf: &DeviceBuffer, width: usize) -> Vec<f64> {
        assert_eq!(buf.data.len() % width, 0, "ragged device buffer");
        let n = buf.data.len() / width;
        let modeled =
            self.cost.reduction(n * width) + self.cost.transfer(width * std::mem::size_of::<f64>());
        self.charge(
            Launch::kernel(
                LaunchKind::ReduceSumColumns,
                n * width,
                4.0,
                width * std::mem::size_of::<f64>(),
            ),
            modeled,
            |s| {
                s.kernels += 2;
                s.downloads += 1;
                s.bytes_down += (width * std::mem::size_of::<f64>()) as u64;
            },
            || pairwise_sum_columns(&buf.data, width),
        )
    }
}

/// Streaming pairwise accumulator: a binary counter over completed
/// blocks. Pushing the i-th value merges equal-sized blocks bottom-up,
/// which reproduces *exactly* the summation tree of the recursive
/// largest-power-of-two split (the reduction tree layout used by GPU
/// implementations) without recursion or scratch buffers — the stack
/// holds at most `log2(n)+1` partial sums.
#[derive(Clone)]
struct PairwiseAcc {
    /// `(partial sum, level)` pairs; a block at level `k` covers `2^k`
    /// consecutive inputs. Levels are strictly decreasing left to right.
    stack: Vec<(f64, u32)>,
}

impl PairwiseAcc {
    fn new() -> Self {
        Self { stack: Vec::new() }
    }

    // The sums below are spelled `left_block + right_block` (not `+=`) so
    // the code states the tree orientation the bit-identity tests pin.
    #[allow(clippy::assign_op_pattern)]
    fn push(&mut self, value: f64) {
        self.push_block(value, 0);
    }

    /// Inserts a pre-summed aligned subtree covering `2^level` inputs.
    /// Valid only when the number of values pushed so far is a multiple
    /// of `2^level` (the binary counter has no block below `level` in
    /// flight), which the blocked fast paths guarantee by emitting full
    /// blocks first.
    #[allow(clippy::assign_op_pattern)]
    fn push_block(&mut self, value: f64, level: u32) {
        let mut sum = value;
        let mut level = level;
        while let Some(&(top, top_level)) = self.stack.last() {
            if top_level != level {
                break;
            }
            self.stack.pop();
            sum = top + sum;
            level += 1;
        }
        self.stack.push((sum, level));
    }

    #[allow(clippy::assign_op_pattern)]
    fn finish(&self) -> f64 {
        // Leftover blocks shrink left to right; folding right-to-left as
        // `earlier + acc` matches the recursive `sum(left) + sum(right)`
        // association at every level.
        let mut blocks = self.stack.iter().rev();
        let Some(&(mut acc, _)) = blocks.next() else {
            return 0.0;
        };
        for &(block, _) in blocks {
            acc = block + acc;
        }
        acc
    }
}

/// Aligned subtree width for the fast reduction path: full blocks of
/// [`PAIRWISE_BLOCK`] inputs are summed with a branch-free bottom-up
/// binary tree and enter the [`PairwiseAcc`] as one pre-made level-
/// [`PAIRWISE_BLOCK_LEVEL`] carry, skipping the per-element stack walk.
/// Must stay a power of two so each block is an exact subtree of the
/// recursive pairwise split.
const PAIRWISE_BLOCK: usize = 256;
const PAIRWISE_BLOCK_LEVEL: u32 = PAIRWISE_BLOCK.trailing_zeros();

/// Sums one aligned block with the exact adjacent-pairs tree the
/// recursive pairwise split produces over a power-of-two range: level by
/// level, `b[i] = b[2i] + b[2i+1]`. Plain unit-stride loops, so the
/// halving passes vectorize; the association never changes.
#[inline]
fn pairwise_block_sum(block: &[f64; PAIRWISE_BLOCK]) -> f64 {
    let mut buf = *block;
    let mut width = PAIRWISE_BLOCK / 2;
    while width >= 1 {
        for i in 0..width {
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        }
        width /= 2;
    }
    buf[0]
}

/// Pairwise (binary-tree) summation: matches the paper's parallel reduction
/// scheme and keeps the rounding error at `O(log n)` ulps so all backends
/// produce identical results regardless of thread count.
fn pairwise_sum(values: &[f64]) -> f64 {
    let mut acc = PairwiseAcc::new();
    let mut blocks = values.chunks_exact(PAIRWISE_BLOCK);
    for block in &mut blocks {
        let block: &[f64; PAIRWISE_BLOCK] = block.try_into().expect("chunks_exact width");
        acc.push_block(pairwise_block_sum(block), PAIRWISE_BLOCK_LEVEL);
    }
    for &v in blocks.remainder() {
        acc.push(v);
    }
    acc.finish()
}

/// Pairwise-sums each of `width` interleaved columns in a single blocked
/// row-major pass (no per-column full-length strided gather). Each
/// column's result is bit-identical to `pairwise_sum` over that column
/// alone: full [`PAIRWISE_BLOCK`]-row windows are de-interleaved into a
/// stack scratch and take the block fast path, the ragged tail walks
/// element by element.
fn pairwise_sum_columns(data: &[f64], width: usize) -> Vec<f64> {
    let mut accs = vec![PairwiseAcc::new(); width];
    let rows = data.len() / width;
    let main = rows - rows % PAIRWISE_BLOCK;
    let mut scratch = [0.0f64; PAIRWISE_BLOCK];
    for b in (0..main).step_by(PAIRWISE_BLOCK) {
        let window = &data[b * width..][..PAIRWISE_BLOCK * width];
        for (c, acc) in accs.iter_mut().enumerate() {
            for (k, s) in scratch.iter_mut().enumerate() {
                *s = window[k * width + c];
            }
            acc.push_block(pairwise_block_sum(&scratch), PAIRWISE_BLOCK_LEVEL);
        }
    }
    for row in data[main * width..].chunks_exact(width) {
        for (acc, &v) in accs.iter_mut().zip(row) {
            acc.push(v);
        }
    }
    accs.iter().map(PairwiseAcc::finish).collect()
}

/// The original recursive formulation, kept as the executable definition
/// of the summation-tree contract that the iterative [`PairwiseAcc`] must
/// reproduce bit-for-bit.
#[cfg(test)]
fn pairwise_sum_recursive(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        2 => values[0] + values[1],
        n => {
            // Split at the largest power of two below n.
            let mut split = 1;
            while split * 2 < n {
                split *= 2;
            }
            pairwise_sum_recursive(&values[..split]) + pairwise_sum_recursive(&values[split..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [Backend; 3] = [Backend::CpuSeq, Backend::CpuPar, Backend::SimGpu];

    /// Reads a staged sample back row-major through a `dims`-wide copy
    /// sweep: the columnar layout's only readback path.
    fn soa_rows(d: &Device, soa: &SoaBuffer) -> Vec<f64> {
        let dims = soa.dims();
        let out = d.sweep_multi(soa, dims, 0.0, |cols, out| {
            for c in 0..dims {
                for (o, &v) in out[c..].iter_mut().step_by(dims).zip(cols.col(c)) {
                    *o = v;
                }
            }
        });
        d.download(&out)
    }

    #[test]
    fn upload_download_roundtrip() {
        for b in BACKENDS {
            let d = Device::new(b);
            let buf = d.upload(&[1.0, 2.0, 3.0]);
            assert_eq!(d.download(&buf), vec![1.0, 2.0, 3.0], "{}", b.name());
        }
    }

    #[test]
    fn all_backends_produce_identical_results() {
        let host: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let mut outputs = Vec::new();
        for b in BACKENDS {
            let d = Device::new(b);
            let buf = d.upload(&host);
            let mapped = d.map_rows(&buf, 2, 10.0, |row| row[0] * row[1] + 1.0);
            let sum = d.reduce_sum_columns(&mapped, 1);
            outputs.push((d.download(&mapped), sum));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn pairwise_sum_matches_naive_sum() {
        let vals: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&vals), 5050.0);
        // Odd, non-power-of-two lengths.
        let naive: f64 = vals[..97].iter().sum();
        assert!((pairwise_sum(&vals[..97]) - naive).abs() < 1e-9);
        // Empty and singleton.
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[7.5]), 7.5);
    }

    #[test]
    fn reduce_sum_columns_sums_interleaved() {
        let d = Device::new(Backend::CpuPar);
        // rows: (1,10), (2,20), (3,30)
        let buf = d.upload(&[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(d.reduce_sum_columns(&buf, 2), vec![6.0, 60.0]);
    }

    #[test]
    fn write_at_updates_region_with_single_transfer() {
        let d = Device::new(Backend::SimGpu);
        let mut buf = d.upload(&[0.0; 6]);
        let before = d.stats();
        d.write_at(&mut buf, 2, &[9.0, 9.0]);
        let after = d.stats();
        assert_eq!(after.uploads - before.uploads, 1);
        assert_eq!(after.bytes_up - before.bytes_up, 16);
        assert_eq!(d.download(&buf), vec![0.0, 0.0, 9.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "device write OOB")]
    fn write_past_end_panics() {
        let d = Device::new(Backend::CpuSeq);
        let mut buf = d.alloc_zeroed(2);
        d.write_at(&mut buf, 1, &[1.0, 2.0]);
    }

    #[test]
    fn stats_account_every_transfer_and_launch() {
        for b in BACKENDS {
            let name = b.name();
            let d = Device::new(b);
            assert_eq!(d.stats(), DeviceStats::default(), "{name}");

            // Transfers are 8 bytes per f64 element, one transfer each.
            let buf = d.upload(&[1.0; 96]);
            let s = d.stats();
            assert_eq!((s.uploads, s.bytes_up), (1, 96 * 8), "{name}");

            // Each map/update launch is exactly one kernel; allocation
            // charges nothing.
            let mapped = d.map_rows(&buf, 3, 1.0, |r| r[0] + r[1] + r[2]);
            let mut acc = d.alloc_zeroed(32);
            d.zip_update_inplace(&mut acc, &mapped, 1.0, |_, t, src| t + src);
            let s = d.stats();
            assert_eq!(s.kernels, 2, "{name}");
            assert_eq!((s.downloads, s.bytes_down), (0, 0), "{name}");

            // Standalone reductions are multi-pass: two launches plus the
            // readback of the `width` column sums.
            let _ = d.reduce_sum_columns(&buf, 3);
            let s = d.stats();
            assert_eq!(s.kernels, 4, "{name}");
            assert_eq!((s.downloads, s.bytes_down), (1, 24), "{name}");

            // A full download moves the whole buffer.
            let host = d.download(&buf);
            assert_eq!(host.len(), 96);
            let s = d.stats();
            assert_eq!((s.downloads, s.bytes_down), (2, 24 + 96 * 8), "{name}");

            // Partial writes charge only the written region.
            d.write_at(&mut acc, 0, &[5.0; 4]);
            let s = d.stats();
            assert_eq!((s.uploads, s.bytes_up), (2, 96 * 8 + 32), "{name}");
        }
    }

    #[test]
    fn enabled_telemetry_mirrors_stats_deltas() {
        let reg = kdesel_telemetry::registry();
        let kernels = reg.counter("device.kernels");
        let bytes_up = reg.counter("device.bytes_up");
        let (k0, b0) = (kernels.get(), bytes_up.get());
        kdesel_telemetry::set_enabled(true);
        let d = Device::new(Backend::CpuSeq);
        let buf = d.upload(&[1.0; 8]);
        let _ = d.reduce_sum_columns(&buf, 1);
        kdesel_telemetry::set_enabled(false);
        // `>=`: other tests in this binary may run concurrently while the
        // global flag is up; this device alone contributes 2 kernels and
        // 64 bytes.
        assert!(kernels.get() - k0 >= 2);
        assert!(bytes_up.get() - b0 >= 64);
    }

    #[test]
    fn modeled_time_accumulates_and_resets() {
        let d = Device::new(Backend::SimGpu);
        assert_eq!(d.modeled_seconds(), 0.0);
        let buf = d.upload(&vec![0.0; 1024]);
        let after_upload = d.modeled_seconds();
        assert!(after_upload > 0.0);
        let _ = d.map_rows(&buf, 1, 100.0, |r| r[0]);
        assert!(d.modeled_seconds() > after_upload);
        d.reset_timing();
        assert_eq!(d.modeled_seconds(), 0.0);
        // Counters reset; pool occupancy is state, not a window, so the
        // held-bytes level survives (the dropped map output parked its
        // storage on the free list).
        let s = d.stats();
        assert_eq!(
            s,
            DeviceStats {
                pool_held_bytes: s.pool_held_bytes,
                ..DeviceStats::default()
            }
        );
        assert_eq!(d.profile(), crate::profile::DeviceProfile::default());
    }

    #[test]
    fn gpu_kernel_cost_is_flat_for_small_then_linear() {
        let d = Device::new(Backend::SimGpu);
        let cost_of = |n: usize| {
            d.reset_timing();
            let buf = DeviceBuffer {
                data: vec![0.0; n],
                pool: None,
            };
            let _ = d.map_rows(&buf, 1, 480.0, |r| r[0]);
            d.modeled_seconds()
        };
        // A single kernel's latency floor covers ≈6 K rows at 480 FLOP/row;
        // the paper's 16-32 K flat region comes from the ~5 launches and
        // transfers of a full estimate (asserted in the kde crate's tests).
        let c256 = cost_of(1 << 8);
        let c2k = cost_of(1 << 11);
        let c1m = cost_of(1 << 20);
        let c2m = cost_of(1 << 21);
        assert!(c2k / c256 < 1.5, "not flat: {c256} -> {c2k}");
        assert!((c2m / c1m - 2.0).abs() < 0.2, "not linear: {c1m} -> {c2m}");
    }

    #[test]
    fn iterative_pairwise_matches_recursive_tree_exactly() {
        // Ill-conditioned values of wildly varying magnitude: any change
        // in association order would change the rounded result.
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 97, 1000, 4097] {
            let vals: Vec<f64> = (0..n)
                .map(|i| {
                    let m = (i as f64 * 0.7391).sin();
                    m * 10f64.powi((i % 13) as i32 - 6)
                })
                .collect();
            let iterative = pairwise_sum(&vals);
            let recursive = pairwise_sum_recursive(&vals);
            assert!(
                iterative == recursive || (iterative.is_nan() && recursive.is_nan()),
                "n={n}: {iterative} vs {recursive}"
            );
        }
    }

    #[test]
    fn blocked_column_sum_matches_per_column_pairwise() {
        for (rows, width) in [(0usize, 3usize), (1, 4), (97, 3), (4096, 5)] {
            let data: Vec<f64> = (0..rows * width)
                .map(|i| (i as f64 * 1.13).cos() * 10f64.powi((i % 9) as i32 - 4))
                .collect();
            let blocked = pairwise_sum_columns(&data, width);
            let reference: Vec<f64> = (0..width)
                .map(|c| {
                    let col: Vec<f64> = data.iter().skip(c).step_by(width).copied().collect();
                    pairwise_sum_recursive(&col)
                })
                .collect();
            assert_eq!(blocked, reference, "rows={rows} width={width}");
        }
    }

    #[test]
    fn soa_staging_roundtrips_and_charges_one_transfer() {
        for b in BACKENDS {
            let d = Device::new(b);
            let rows: Vec<f64> = (0..SWEEP_BLOCK_ROWS * 3 * 2 + 10)
                .map(|i| (i as f64).sin())
                .collect();
            let s0 = d.stats();
            let soa = d.stage_rows_soa(&rows, 2);
            let s1 = d.stats();
            assert_eq!(s1.uploads - s0.uploads, 1, "{}", b.name());
            assert_eq!(s1.bytes_up - s0.bytes_up, (rows.len() * 8) as u64);
            assert_eq!((soa.rows(), soa.dims()), (rows.len() / 2, 2));
            assert_eq!(soa_rows(&d, &soa), rows, "{}", b.name());
        }
    }

    #[test]
    fn write_row_soa_scatters_one_transfer_of_dims_values() {
        let d = Device::new(Backend::SimGpu);
        let mut soa = d.stage_rows_soa(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        let s0 = d.stats();
        d.write_row_soa(&mut soa, 1, &[7.0, 8.0, 9.0]);
        let s1 = d.stats();
        assert_eq!(s1.uploads - s0.uploads, 1);
        assert_eq!(s1.bytes_up - s0.bytes_up, 24);
        assert_eq!(soa_rows(&d, &soa), vec![1.0, 2.0, 3.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "device write OOB")]
    fn write_row_soa_out_of_range_panics() {
        let d = Device::new(Backend::CpuSeq);
        let mut soa = d.stage_rows_soa(&[0.0; 6], 3);
        d.write_row_soa(&mut soa, 2, &[1.0, 2.0, 3.0]);
    }

    /// Asserts `values[codes[r]]` equals row `r` of the stripe, bitwise,
    /// in every dictionary-coded column.
    fn assert_dicts_match_stripes(d: &Device, soa: &SoaBuffer) {
        let (rows, dims) = (soa_rows(d, soa), soa.dims());
        for j in 0..dims {
            let Some(dict) = soa.dict(j) else {
                continue;
            };
            assert_eq!(dict.codes.len(), soa.rows(), "column {j}");
            for (r, &code) in dict.codes.iter().enumerate() {
                assert_eq!(
                    dict.values[usize::from(code)].to_bits(),
                    rows[r * dims + j].to_bits(),
                    "column {j} row {r}"
                );
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn staging_codes_columns_with_few_distinct_values() {
        // 1,000 rows: a coded column holds at most 62 distinct values.
        let n = 1000;
        let cap = n / DICT_ROWS_PER_VALUE;
        let host: Vec<f64> = (0..n)
            .flat_map(|r| {
                [
                    // Signed zeros are two values.
                    [0.0, -0.0, 1.5][r % 3],
                    (r % cap) as f64,
                    (r % (cap + 1)) as f64,
                    (r as f64 * 0.37).sin(),
                ]
            })
            .collect();
        for b in BACKENDS {
            let d = Device::new(b);
            let soa = d.stage_rows_soa(&host, 4);
            let distinct: Vec<Option<usize>> = (0..4)
                .map(|j| soa.dict(j).map(|c| c.values.len()))
                .collect();
            assert_eq!(distinct, [Some(3), Some(cap), None, None], "{}", b.name());
            assert_eq!(soa.dict_columns(), 2);
            assert_eq!(bits(&soa_rows(&d, &soa)), bits(&host), "{}", b.name());
            assert_dicts_match_stripes(&d, &soa);
        }
        // Fewer than 16 rows leave no room for a dictionary.
        let tiny = Device::new(Backend::CpuSeq).stage_rows_soa(&[1.0; 15], 1);
        assert_eq!(tiny.dict_columns(), 0);
    }

    #[test]
    fn row_writes_keep_dictionaries_in_step() {
        // 160 rows: at most 10 distinct values per coded column.
        let d = Device::new(Backend::CpuSeq);
        let host: Vec<f64> = (0..160).flat_map(|r| [(r % 4) as f64; 2]).collect();
        let mut soa = d.stage_rows_soa(&host, 2);
        assert_eq!(soa.dict_columns(), 2);
        // A value the dictionary holds, then new values up to the cap.
        d.write_row_soa(&mut soa, 5, &[2.0, 2.0]);
        for (i, v) in (4..10).enumerate() {
            d.write_row_soa(&mut soa, 7 * i, &[f64::from(v), -0.0]);
        }
        let distinct = |soa: &SoaBuffer, j| soa.dict(j).map(|c| c.values.len());
        assert_eq!((distinct(&soa, 0), distinct(&soa, 1)), (Some(10), Some(5)));
        assert_dicts_match_stripes(&d, &soa);
        // One value past the cap drops that column's dictionary only,
        // and the stripe still takes the write.
        d.write_row_soa(&mut soa, 3, &[10.0, 1.0]);
        assert_eq!((distinct(&soa, 0), distinct(&soa, 1)), (None, Some(5)));
        assert_dicts_match_stripes(&d, &soa);
        assert_eq!(soa_rows(&d, &soa)[3 * 2..][..2], [10.0, 1.0]);
        // A write to a dropped column stays a plain stripe write.
        d.write_row_soa(&mut soa, 3, &[0.0, 0.0]);
        assert_eq!(distinct(&soa, 0), None);
        assert_dicts_match_stripes(&d, &soa);
    }

    #[test]
    fn scratch_is_pooled() {
        let d = Device::new(Backend::CpuSeq);
        let len = d.with_scratch(300, |s| {
            s.fill(1.0);
            s.len()
        });
        assert_eq!(len, 300);
        let misses = d.stats().pool_misses;
        d.with_scratch(290, |s| assert_eq!(s.len(), 290));
        assert_eq!(
            d.stats().pool_misses,
            misses,
            "a warm scratch is a pool hit"
        );
    }

    #[test]
    fn sweeps_match_row_major_maps_bitwise_across_backends() {
        // Every sweep must reproduce a plain row-major loop that
        // evaluates the same scalar expressions per row and sums with the
        // device's pairwise reduction — bitwise, on every backend, across
        // block boundaries and the ragged tail. The unfused sweep plus
        // `reduce_sum_columns` lands on the same sums as the fused one.
        let n = SWEEP_BLOCK_ROWS * 2 + 77;
        let host: Vec<f64> = (0..n * 3).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let row_f = |row: &[f64]| row[0] * row[1] + row[2].exp().recip();
        let per_row: Vec<f64> = host.chunks_exact(3).map(row_f).collect();
        let per_row_pairs: Vec<f64> = host
            .chunks_exact(3)
            .flat_map(|row| [row_f(row), row[0] - row[2]])
            .collect();
        let sum = pairwise_sum(&per_row);
        let pair_sums = pairwise_sum_columns(&per_row_pairs, 2);

        let col_f = |cols: ColsView<'_>, out: &mut [f64]| {
            let (c0, c1, c2) = (cols.col(0), cols.col(1), cols.col(2));
            for i in 0..cols.rows() {
                out[i] = c0[i] * c1[i] + c2[i].exp().recip();
            }
        };
        let col_g = |cols: ColsView<'_>, out: &mut [f64]| {
            let (c0, c1, c2) = (cols.col(0), cols.col(1), cols.col(2));
            for i in 0..cols.rows() {
                out[2 * i] = c0[i] * c1[i] + c2[i].exp().recip();
                out[2 * i + 1] = c0[i] - c2[i];
            }
        };
        for b in BACKENDS {
            let name = b.name();
            let d = Device::new(b);
            let soa = d.stage_rows_soa(&host, 3);
            let (swept, kept) = d.sweep_reduce(&soa, 10.0, true, col_f);
            assert_eq!(swept.to_bits(), sum.to_bits(), "{name}");
            assert_eq!(d.download(kept.as_ref().unwrap()), per_row, "{name}");

            let (cols, first) = d.sweep_multi_reduce(&soa, 2, 10.0, true, col_g);
            assert_eq!(cols, pair_sums, "{name}");
            assert_eq!(d.download(first.as_ref().unwrap()), per_row, "{name}");
            assert_eq!(d.sweep_batch(&soa, 2, 10.0, col_g), pair_sums, "{name}");

            let unfused = d.sweep_multi(&soa, 2, 10.0, col_g);
            assert_eq!(d.download(&unfused), per_row_pairs, "{name}");
            assert_eq!(d.reduce_sum_columns(&unfused, 2), pair_sums, "{name}");
        }
    }

    #[test]
    fn one_block_batch_sweep_runs_on_the_calling_thread() {
        // A 1024-row, 16-query batch is one sweep block: CpuPar runs its
        // kernel on the calling thread and spawns nothing, whatever work
        // the batch claims.
        let (rows, batch) = (SWEEP_BLOCK_ROWS, 16);
        let host: Vec<f64> = (0..rows * 3).map(|i| i as f64).collect();
        let d = Device::new(Backend::CpuPar);
        let soa = d.stage_rows_soa(&host, 3);
        let ran_on = Mutex::new(Vec::new());
        let sums = d.sweep_batch(&soa, batch, 1e6, |cols, out| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            for (o, &v) in out.chunks_exact_mut(batch).zip(cols.col(0)) {
                o.fill(v);
            }
        });
        assert_eq!(sums.len(), batch);
        assert_eq!(
            ran_on.into_inner().unwrap(),
            vec![std::thread::current().id()]
        );
    }

    #[test]
    fn fanned_out_sweeps_match_cpu_seq_bitwise() {
        // A 65-block sweep claiming enough work to fan out runs on the
        // caller and `kdesel-par-*` threads (on a multi-core host) and
        // lands on CpuSeq's bits.
        let n = SWEEP_BLOCK_ROWS * 64 + 5;
        let host: Vec<f64> = (0..n * 2).map(|i| (i as f64 * 0.37).sin()).collect();
        let caller = std::thread::current().id();
        let spawned = Mutex::new(Vec::new());
        let f = |cols: ColsView<'_>, out: &mut [f64]| {
            let me = std::thread::current();
            if me.id() != caller {
                spawned.lock().unwrap().push(me.name().map(str::to_owned));
            }
            let (c0, c1) = (cols.col(0), cols.col(1));
            for i in 0..cols.rows() {
                out[i] = c0[i].exp() * c1[i];
            }
        };
        let seq = Device::new(Backend::CpuSeq);
        let (want, _) = seq.sweep_reduce(&seq.stage_rows_soa(&host, 2), 1e3, false, f);
        let spawned_by_seq = std::mem::take(&mut *spawned.lock().unwrap());
        assert!(spawned_by_seq.is_empty(), "CpuSeq left the caller");
        let par = Device::new(Backend::CpuPar);
        let (got, _) = par.sweep_reduce(&par.stage_rows_soa(&host, 2), 1e3, false, f);
        assert_eq!(got.to_bits(), want.to_bits());
        let spawned = spawned.into_inner().unwrap();
        assert!(spawned.iter().all(|name| name
            .as_deref()
            .is_some_and(|n| n.starts_with("kdesel-par-"))));
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(spawned.is_empty(), cores == 1, "{cores} cores");
    }

    #[test]
    fn fused_sweeps_charge_one_launch_and_one_download() {
        // Absolute pins: a fused sweep is one kernel plus one readback of
        // its result, never an upload. At vector_width = 1 its modeled
        // cost is one scalar kernel carrying the ~4 FLOP/item reduction
        // per output column, plus the result transfer — the calibrated
        // Figure-7 numbers.
        let host: Vec<f64> = (0..96).map(|i| i as f64).collect();
        let d = Device::new(Backend::SimGpu);
        assert_eq!(d.cost_model().profile().vector_width, 1.0);
        let cost = d.cost_model();
        let soa = d.stage_rows_soa(&host, 3);

        d.reset_timing();
        let _ = d.sweep_reduce(&soa, 5.0, false, |cols, out| {
            out.copy_from_slice(cols.col(0))
        });
        let s = d.stats();
        assert_eq!(
            (s.kernels, s.downloads, s.bytes_down, s.uploads),
            (1, 1, 8, 0)
        );
        assert_eq!(
            d.modeled_seconds(),
            cost.kernel(32, 5.0 + 4.0) + cost.transfer(8)
        );

        d.reset_timing();
        let _ = d.sweep_multi_reduce(&soa, 4, 5.0, false, |cols, out| {
            for (o, &v) in out.chunks_exact_mut(4).zip(cols.col(0)) {
                o.fill(v);
            }
        });
        let s = d.stats();
        assert_eq!(
            (s.kernels, s.downloads, s.bytes_down, s.uploads),
            (1, 1, 32, 0)
        );
        assert_eq!(
            d.modeled_seconds(),
            cost.kernel(32, 5.0 + 4.0 * 4.0) + cost.transfer(32)
        );
    }

    #[test]
    fn wider_vector_width_cheapens_sweeps_not_maps() {
        let base = CostProfile::gtx460();
        let wide = Device::with_profile(
            Backend::SimGpu,
            CostProfile {
                vector_width: 8.0,
                ..base
            },
        );
        let narrow = Device::with_profile(Backend::SimGpu, base);
        let host = vec![0.5; 1 << 20];
        let sweep_cost = |d: &Device| {
            let soa = d.stage_rows_soa(&host, 1);
            d.reset_timing();
            let _ = d.sweep_reduce(&soa, 480.0, false, |cols, out| {
                out.copy_from_slice(&cols.col(0)[..out.len()])
            });
            d.modeled_seconds()
        };
        let map_cost = |d: &Device| {
            let buf = d.upload(&host);
            d.reset_timing();
            let _ = d.map_rows(&buf, 1, 480.0, |r| r[0]);
            d.modeled_seconds()
        };
        assert!(
            sweep_cost(&narrow) / sweep_cost(&wide) > 4.0,
            "vector width must cheapen the sweep's compute term"
        );
        assert_eq!(map_cost(&narrow), map_cost(&wide), "scalar maps unaffected");
    }

    #[test]
    fn pooled_reuse_charges_no_fresh_transfer_or_allocation() {
        let d = Device::new(Backend::SimGpu);
        let host = vec![1.0; 4096];
        let b1 = d.upload(&host);
        let first = d.stats();
        assert_eq!(first.pool_hits, 0);
        assert!(first.pool_misses >= 1);
        drop(b1); // storage parks on the free list
        assert!(d.pool_held_bytes() >= 4096 * 8);
        let modeled_before = d.modeled_seconds();
        let b2 = d.upload(&host);
        let second = d.stats();
        // Reuse is a pool hit, not a second allocation...
        assert_eq!(second.pool_hits, 1);
        assert_eq!(second.pool_misses, first.pool_misses);
        // ...and is charged exactly one transfer (the contents changed),
        // identical to the first upload's modeled cost — no double charge.
        assert_eq!(second.uploads - first.uploads, 1);
        assert_eq!(
            d.modeled_seconds() - modeled_before,
            modeled_before,
            "second upload must cost the same single transfer"
        );
        drop(b2);

        // Steady-state kernel outputs recycle too: after a warmup
        // round, repeated fused sweeps stop missing the pool.
        let soa = d.stage_rows_soa(&host, 4);
        let _ = d.sweep_reduce(&soa, 8.0, false, |cols, out| {
            out.copy_from_slice(&cols.col(0)[..out.len()])
        });
        let warm = d.stats();
        for _ in 0..5 {
            let _ = d.sweep_reduce(&soa, 8.0, false, |cols, out| {
                out.copy_from_slice(&cols.col(0)[..out.len()])
            });
        }
        let after = d.stats();
        assert_eq!(
            after.pool_misses, warm.pool_misses,
            "steady state must not allocate"
        );
        assert!(after.pool_hits > warm.pool_hits);
    }

    #[test]
    fn pairwise_sum_is_deterministic_and_accurate() {
        // Ill-conditioned sum: large + many smalls.
        let mut vals = vec![1e16];
        vals.extend(std::iter::repeat_n(1.0, 4096));
        vals.push(-1e16);
        let s = pairwise_sum(&vals);
        assert_eq!(s, pairwise_sum(&vals));
        // Pairwise keeps enough precision to recover the small terms within
        // a few ulps of 1e16.
        assert!((s - 4096.0).abs() <= 2.0, "sum {s}");
    }

    #[test]
    fn measured_time_is_recorded() {
        let d = Device::new(Backend::CpuPar);
        let buf = d.upload(&vec![1.0; 100_000]);
        let _ = d.map_rows(&buf, 1, 1.0, |r| r[0].sqrt());
        assert!(d.measured_seconds() > 0.0);
    }

    #[test]
    fn since_deltas_every_field() {
        // Both literals spell out every field (no `..`): adding a field
        // to DeviceStats breaks this test until its delta is asserted,
        // complementing the compile-time exhaustive destructure inside
        // `since` itself.
        let earlier = DeviceStats {
            uploads: 2,
            bytes_up: 100,
            downloads: 3,
            bytes_down: 50,
            kernels: 7,
            pool_hits: 4,
            pool_misses: 2,
            pool_held_bytes: 1000,
        };
        let later = DeviceStats {
            uploads: 5,
            bytes_up: 300,
            downloads: 4,
            bytes_down: 90,
            kernels: 17,
            pool_hits: 9,
            pool_misses: 3,
            pool_held_bytes: 1500,
        };
        let delta = later.since(&earlier);
        assert_eq!(
            delta,
            DeviceStats {
                uploads: 3,
                bytes_up: 200,
                downloads: 1,
                bytes_down: 40,
                kernels: 10,
                pool_hits: 5,
                pool_misses: 1,
                pool_held_bytes: 500,
            }
        );
        // Mismatched snapshot pairs (or a shrinking held-bytes level)
        // saturate to zero instead of wrapping.
        assert_eq!(earlier.since(&later), DeviceStats::default());
    }

    #[test]
    fn launch_profile_attributes_every_hot_path() {
        use crate::profile::LaunchKind;
        let d = Device::new(Backend::SimGpu);
        let host: Vec<f64> = (0..96).map(|i| i as f64).collect();
        let buf = d.upload(&host);
        let soa = d.stage_rows_soa(&host, 3);
        let mapped = d.map_rows(&buf, 3, 5.0, |r| r[0]);
        let first_two = |cols: ColsView<'_>, out: &mut [f64]| {
            let (c0, c1) = (cols.col(0), cols.col(1));
            for (o, (&a, &b)) in out.chunks_exact_mut(2).zip(c0.iter().zip(c1)) {
                o[0] = a;
                o[1] = b;
            }
        };
        let _ = d.sweep_multi_reduce(&soa, 2, 5.0, false, first_two);
        let _ = d.sweep_reduce(&soa, 5.0, false, |cols, out| {
            out.copy_from_slice(&cols.col(0)[..out.len()])
        });
        let _ = d.reduce_sum_columns(&mapped, 1);
        let _ = d.download(&mapped);

        let p = d.profile();
        let up = p.kind(LaunchKind::Upload).expect("upload profiled");
        assert_eq!(up.launches, 1);
        assert_eq!(up.bytes, 96 * 8);
        assert_eq!(up.items, 0);
        assert!(up.measured_seconds > 0.0);
        assert!(up.modeled_seconds > 0.0);

        let sweep = p.kind(LaunchKind::SweepReduce).expect("sweep profiled");
        assert_eq!(sweep.launches, 1);
        assert_eq!(sweep.items, 32); // 96 elements / 3 dims
        assert_eq!(sweep.bytes, 8); // the fused scalar readback
        assert_eq!(sweep.flops, 32.0 * 9.0); // flops_per_row + 4 reduce
        assert!(sweep.measured_p50 > 0.0);
        assert!(sweep.measured_p95 >= sweep.measured_p50);

        let mr = p
            .kind(LaunchKind::SweepMultiReduce)
            .expect("fused profiled");
        assert_eq!((mr.launches, mr.items, mr.bytes), (1, 32, 16));
        assert!(p.kind(LaunchKind::MapRows).is_some());
        assert!(p.kind(LaunchKind::ReduceSumColumns).is_some());
        assert!(p.kind(LaunchKind::Download).is_some());
        assert!(p.kind(LaunchKind::StageRowsSoa).is_some());
        // Never ran: omitted rather than zero-filled.
        assert!(p.kind(LaunchKind::WriteRowSoa).is_none());
        assert_eq!(p.launches(), 7);
        assert!(p.kernel_p50_ceiling() > 0.0);

        // Rolling quantiles move with recent samples; totals keep
        // growing past the window.
        for _ in 0..200 {
            let _ = d.sweep_multi_reduce(&soa, 2, 5.0, false, first_two);
        }
        let mr = d.profile();
        let mr = mr.kind(LaunchKind::SweepMultiReduce).unwrap();
        assert_eq!(mr.launches, 201);
        assert_eq!(mr.items, 201 * 32);
    }

    #[test]
    fn kind_histograms_reach_the_registry_when_enabled() {
        kdesel_telemetry::set_enabled(true);
        let d = Device::new(Backend::CpuSeq);
        let buf = d.upload(&[1.0; 32]);
        let _ = d.map_rows(&buf, 2, 4.0, |r| r[0]);
        kdesel_telemetry::set_enabled(false);
        let reg = kdesel_telemetry::registry();
        assert!(reg.histogram("device.kernel.upload").summary().count >= 1);
        assert!(reg.histogram("device.kernel.map_rows").summary().count >= 1);
    }
}
