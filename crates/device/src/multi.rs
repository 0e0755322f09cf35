//! Multi-device execution — the paper's final §8 outlook: "It would also
//! be interesting to investigate how to accelerate KDE estimation across
//! multiple graphics cards."
//!
//! KDE is a sum over sample points, so the natural multi-GPU plan is data
//! parallel — but a *static* split caps the group at the straggler's
//! pace. [`DeviceGroup`] therefore distributes work in **stripe blocks**:
//!
//! * [`DeviceGroup::stage_partitioned_soa`] shards the columnar (SoA)
//!   stripes into blocks of [`SWEEP_BLOCK_ROWS`] rows (a power of two,
//!   multiple of the SIMD lane width, so no device ever sweeps a
//!   misaligned tail). Each member owns a contiguous block range, seeded
//!   proportional to its calibrated `CostProfile` throughput and staged
//!   through its own buffer pool.
//! * Each group sweep spawns one worker thread per member device (the
//!   scoped-threadpool-per-device shape — each worker drives exactly one
//!   `Device`, preserving the crate's Send/Sync thread-ownership
//!   contract). Workers drain a shared queue of block indices: own
//!   blocks pop from the front; an idle worker **steals** from the back
//!   of the fullest victim's deque, so a fast CpuPar member relieves a
//!   latency-bound SimGpu and group throughput tracks aggregate
//!   bandwidth at any backend mix.
//! * **Deterministic combine.** Workers never touch a shared
//!   accumulator. Every full block's partial sum is an *exact aligned
//!   subtree* of the global pairwise reduction (a full block has
//!   `SWEEP_BLOCK_ROWS = 2^10` rows and starts at a multiple of it), so
//!   partials land in a block-indexed slot array and the host folds them
//!   *in block order* into the same [`PairwiseAcc`] binary counter the
//!   single-device sweeps use — `push_block(sum, 10)` per full block,
//!   element/256-window pushes for the single ragged tail block. The
//!   result is bitwise-identical to single-device `CpuSeq` regardless of
//!   which device executed which block in which order.
//!
//! Modeled time charges each participating device **one** launch per
//! group sweep (the persistent-kernel model: blocks are claimed inside
//! one kernel invocation, not one launch per block) covering the rows it
//! executed, plus peer-transfer bandwidth for stolen blocks. Modeled
//! wall time of the group is the maximum over members
//! ([`DeviceGroup::modeled_seconds_parallel`]) — the same structural
//! behaviour real multi-GPU setups show.
//!
//! Because `SimGpu` executes at real CPU speed and is only slow in
//! *modeled* time, stealing decisions based on wall clock alone would
//! never see the modeled imbalance. [`DeviceGroup::with_pace`] runs
//! workers against a virtual clock (wall seconds per modeled second) so
//! benches and stress tests can make block claims track modeled
//! throughput; estimates are bitwise-unchanged by pacing — only the
//! interleaving moves.

use crate::cost::CostProfile;
use crate::device::{
    pairwise_block_sum, pairwise_sum, pairwise_sum_columns, Backend, ColsView, Device,
    DeviceBuffer, DeviceStats, PairwiseAcc, SoaBuffer, PAIRWISE_BLOCK, PAIRWISE_BLOCK_LEVEL,
    SWEEP_BLOCK_LEVEL, SWEEP_BLOCK_ROWS,
};
use crate::profile::{Launch, LaunchKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-wide group id source: every [`DeviceGroup`] gets a distinct
/// tag, stamped onto the buffers it stages so cross-group use fails
/// loudly instead of silently sweeping the wrong device's memory.
static NEXT_GROUP_ID: AtomicU64 = AtomicU64::new(1);

/// Telemetry handles for the group scheduler, resolved once at
/// construction (mirroring the per-device `Meters`).
#[derive(Debug)]
struct GroupMeters {
    steals: Arc<kdesel_telemetry::Counter>,
    blocks: Arc<kdesel_telemetry::Counter>,
    imbalance: Arc<kdesel_telemetry::Gauge>,
}

impl GroupMeters {
    fn new() -> Self {
        let r = kdesel_telemetry::registry();
        Self {
            steals: r.counter("device.group.steals"),
            blocks: r.counter("device.group.blocks_executed"),
            imbalance: r.gauge("device.group.imbalance"),
        }
    }
}

/// Cumulative scheduler counters (behind the group's mutex).
#[derive(Debug, Default)]
struct GroupCounters {
    steals: u64,
    blocks_executed: u64,
    per_device_blocks: Vec<u64>,
    imbalance: f64,
}

/// Point-in-time view of the group scheduler: how many stripe blocks ran
/// where, how many were stolen, and how skewed the last sweep's shares
/// were. Surfaced on `serve.launch` spans when a group backs a model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Blocks executed by a device other than their seeded owner.
    pub steals: u64,
    /// Total stripe blocks executed across all sweeps.
    pub blocks_executed: u64,
    /// Last sweep's max/mean executed-block share across devices (1.0 is
    /// perfectly balanced; `len()` means one device ran everything).
    pub imbalance: f64,
    /// Lifetime blocks executed per member device, in member order.
    pub per_device_blocks: Vec<u64>,
}

/// How [`DeviceGroup::stage_partitioned_soa_with`] seeds the initial
/// contiguous block ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Blocks proportional to each member's calibrated
    /// `compute_throughput × vector_width` (largest-remainder rounding),
    /// so stealing starts near-balanced.
    Profile,
    /// Equal block counts regardless of member speed — the static-split
    /// baseline the work-stealing bench measures against.
    Equal,
}

/// A group of devices executing one logical kernel data-parallel over a
/// work-stealing stripe-block queue.
#[derive(Debug)]
pub struct DeviceGroup {
    devices: Vec<Device>,
    id: u64,
    /// Wall seconds per modeled second for the worker virtual clock;
    /// `None` (default) claims blocks at real speed.
    pace: Option<f64>,
    /// Whether idle workers steal blocks (on by default).
    steal: bool,
    meters: GroupMeters,
    counters: Mutex<GroupCounters>,
}

/// One member device's contiguous slice of the sharded sample: the SoA
/// stripes of its seeded block range, staged on that device.
#[derive(Debug)]
struct Shard {
    soa: SoaBuffer,
    first_block: usize,
    n_blocks: usize,
}

impl Shard {
    /// Global row index of the shard's first row.
    fn first_row(&self) -> usize {
        self.first_block * SWEEP_BLOCK_ROWS
    }
}

/// A sample sharded column-major across the group in stripe blocks of
/// [`SWEEP_BLOCK_ROWS`] rows. Created by
/// [`DeviceGroup::stage_partitioned_soa`]; consumed by the group sweeps.
#[derive(Debug)]
pub struct PartitionedSoa {
    group_id: u64,
    shards: Vec<Shard>,
    rows: usize,
    dims: usize,
    blocks: usize,
}

impl PartitionedSoa {
    /// Total staged rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensions per row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stripe blocks (`ceil(rows / SWEEP_BLOCK_ROWS)`).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Rows staged on each member device, in member order.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.soa.rows()).collect()
    }

    /// Which shard owns global `row` (for single-row writes).
    fn shard_of_row(&self, row: usize) -> usize {
        self.shards
            .iter()
            .position(|s| row >= s.first_row() && row < s.first_row() + s.soa.rows())
            .expect("row out of range")
    }

    /// Global row range `(start, len)` of stripe block `block`.
    fn block_rows(&self, block: usize) -> (usize, usize) {
        let start = block * SWEEP_BLOCK_ROWS;
        (start, SWEEP_BLOCK_ROWS.min(self.rows - start))
    }
}

/// Splits `total` blocks across members proportional to `weights`, using
/// largest-remainder rounding (deterministic: ties break toward the
/// lower device index). Every block lands in exactly one share; a slow
/// enough member can receive zero.
fn apportion_blocks(weights: &[f64], total: usize) -> Vec<usize> {
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 || !wsum.is_finite() {
        return apportion_blocks(&vec![1.0; weights.len()], total);
    }
    let quotas: Vec<f64> = weights.iter().map(|w| w / wsum * total as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().cycle().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// What one worker produced for one stripe block. Full blocks carry the
/// per-column level-[`SWEEP_BLOCK_LEVEL`] pairwise sums; the single
/// ragged tail block carries its raw `rows × width` output so the host
/// can replicate the element-wise tail of the global reduction.
struct BlockResult {
    index: usize,
    /// Per-column aligned-subtree sums (empty for the tail block).
    sums: Vec<f64>,
    /// Raw interleaved output (tail block only).
    raw: Vec<f64>,
    /// Per-row column-0 values when the caller retains contributions.
    retained: Vec<f64>,
}

/// One worker's tally of a group sweep.
#[derive(Default)]
struct WorkerOut {
    blocks: Vec<BlockResult>,
    executed_rows: usize,
    executed_blocks: u64,
    stolen_blocks: u64,
    stolen_rows: usize,
    /// Wall seconds inside kernels only (pacing sleeps excluded), so the
    /// profiler's measured times stay meaningful under a virtual clock.
    compute_seconds: f64,
}

/// Pops the next block for worker `me`: own deque front first, then the
/// back of the fullest victim (ties toward the lower index). Returns the
/// block and the shard that owns its data.
fn claim_block(
    queue: &Mutex<Vec<VecDeque<usize>>>,
    me: usize,
    steal: bool,
) -> Option<(usize, usize)> {
    let mut q = queue.lock().unwrap();
    if let Some(b) = q[me].pop_front() {
        return Some((b, me));
    }
    if !steal {
        return None;
    }
    let victim = (0..q.len())
        .filter(|&i| i != me && !q[i].is_empty())
        .max_by_key(|&i| (q[i].len(), std::cmp::Reverse(i)))?;
    let b = q[victim].pop_back().expect("victim checked non-empty");
    Some((b, victim))
}

impl DeviceGroup {
    /// Creates a group. The first device is the **primary**: it fronts
    /// the host (result readback, retained-contribution gather) and is
    /// what [`DeviceGroup::primary`] exposes to single-device consumers.
    ///
    /// # Panics
    /// Panics on an empty device list.
    pub fn new(devices: Vec<Device>) -> Self {
        assert!(!devices.is_empty(), "empty device group");
        let n = devices.len();
        Self {
            devices,
            id: NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed),
            pace: None,
            steal: true,
            meters: GroupMeters::new(),
            counters: Mutex::new(GroupCounters {
                per_device_blocks: vec![0; n],
                ..GroupCounters::default()
            }),
        }
    }

    /// Creates a group of `count` identical devices sharing one cost
    /// profile — the natural constructor for a profile produced by
    /// calibration (`MeasuredProfile::profile`), where every member of
    /// the group is the same physical device class.
    ///
    /// # Panics
    /// Panics when `count` is zero.
    pub fn homogeneous(backend: Backend, profile: CostProfile, count: usize) -> Self {
        assert!(count > 0, "empty device group");
        Self::new(
            (0..count)
                .map(|_| Device::with_profile(backend, profile))
                .collect(),
        )
    }

    /// Runs workers against a virtual clock: each worker sleeps until
    /// `wall ≥ modeled-compute-so-far × pace` before claiming another
    /// block, so block claims track *modeled* throughput (a `SimGpu`
    /// that is only slow on paper claims fewer blocks, and fast members
    /// steal the difference). Estimates are bitwise-unchanged.
    ///
    /// # Panics
    /// Panics unless `pace` is positive and finite.
    pub fn with_pace(mut self, pace: f64) -> Self {
        assert!(pace > 0.0 && pace.is_finite(), "invalid pace {pace}");
        self.pace = Some(pace);
        self
    }

    /// Enables or disables work stealing (on by default). With stealing
    /// off, every block runs on the device that staged it — the static
    /// split the bench uses as its baseline.
    pub fn with_stealing(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The member devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The primary device (member 0): fronts result readback and hosts
    /// gathered retained contributions, so single-device consumers (the
    /// Karma ledger, serve telemetry) keep working against a group.
    pub fn primary(&self) -> &Device {
        &self.devices[0]
    }

    /// Scheduler counters: steals, blocks executed, last-sweep imbalance.
    pub fn stats(&self) -> GroupStats {
        let c = self.counters.lock().unwrap();
        GroupStats {
            steals: c.steals,
            blocks_executed: c.blocks_executed,
            imbalance: c.imbalance,
            per_device_blocks: c.per_device_blocks.clone(),
        }
    }

    /// Shards a row-major sample column-major across the group in stripe
    /// blocks, seeding each member's contiguous block range from its
    /// calibrated cost profile ([`Partition::Profile`]).
    ///
    /// # Panics
    /// Panics on ragged data or zero dims.
    pub fn stage_partitioned_soa(&self, sample: &[f64], dims: usize) -> PartitionedSoa {
        self.stage_partitioned_soa_with(sample, dims, Partition::Profile)
    }

    /// [`DeviceGroup::stage_partitioned_soa`] with an explicit seeding
    /// policy.
    ///
    /// # Panics
    /// Panics on ragged data or zero dims.
    pub fn stage_partitioned_soa_with(
        &self,
        sample: &[f64],
        dims: usize,
        partition: Partition,
    ) -> PartitionedSoa {
        assert!(dims > 0, "zero dims");
        assert_eq!(sample.len() % dims, 0, "ragged sample");
        let rows = sample.len() / dims;
        let blocks = rows.div_ceil(SWEEP_BLOCK_ROWS);
        let weights: Vec<f64> = match partition {
            Partition::Equal => vec![1.0; self.devices.len()],
            Partition::Profile => self
                .devices
                .iter()
                .map(|d| {
                    let p = d.cost_model().profile();
                    p.compute_throughput * p.vector_width
                })
                .collect(),
        };
        let counts = apportion_blocks(&weights, blocks);
        let mut shards = Vec::with_capacity(self.devices.len());
        let mut first_block = 0;
        for (device, &n_blocks) in self.devices.iter().zip(&counts) {
            // Both ends clamp: the last block is usually partial, and a
            // shard seeded zero blocks starts past the sample entirely.
            let start = rows.min(first_block * SWEEP_BLOCK_ROWS);
            let end = rows.min((first_block + n_blocks) * SWEEP_BLOCK_ROWS);
            shards.push(Shard {
                soa: device.stage_rows_soa(&sample[start * dims..end * dims], dims),
                first_block,
                n_blocks,
            });
            first_block += n_blocks;
        }
        PartitionedSoa {
            group_id: self.id,
            shards,
            rows,
            dims,
            blocks,
        }
    }

    /// Overwrites one staged row (one transfer of `dims` values on the
    /// shard that owns it) — the group counterpart of
    /// `Device::write_row_soa` for the paper's §5.1 point replacement.
    ///
    /// # Panics
    /// Panics on a foreign sample, an out-of-range row, or a
    /// wrong-length value vector.
    pub fn write_row_soa(&self, part: &mut PartitionedSoa, row: usize, values: &[f64]) {
        self.check_soa(part);
        assert!(row < part.rows, "row {row} out of range");
        let s = part.shard_of_row(row);
        let local = row - part.shards[s].first_row();
        self.devices[s].write_row_soa(&mut part.shards[s].soa, local, values);
    }

    fn check_soa(&self, part: &PartitionedSoa) {
        assert_eq!(
            part.group_id, self.id,
            "partitioned sample was staged on device group #{}, not this group #{}",
            part.group_id, self.id
        );
    }

    /// Group counterpart of `Device::sweep_reduce`: one work-stolen
    /// stripe-block sweep over the sharded sample, host-combined in
    /// block order — bitwise-identical to the single-device sweep. With
    /// `retain`, the per-row values are gathered onto the primary device
    /// (charged as device-to-device traffic there).
    ///
    /// # Panics
    /// Panics when `part` was staged on a different group.
    pub fn sweep_reduce<F>(
        &self,
        part: &PartitionedSoa,
        flops_per_row: f64,
        retain: bool,
        f: F,
    ) -> (f64, Option<DeviceBuffer>)
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        let (sums, retained) = self.group_sweep(
            part,
            1,
            flops_per_row,
            retain,
            LaunchKind::GroupSweepReduce,
            &f,
        );
        (sums[0], retained.map(|r| self.primary().adopt(r)))
    }

    /// Group counterpart of `Device::sweep_multi_reduce`: `out_width`
    /// outputs per row, column-reduced in block order. With
    /// `retain_first`, column 0 is gathered onto the primary device.
    ///
    /// # Panics
    /// Panics when `out_width` is zero or `part` is foreign.
    pub fn sweep_multi_reduce<F>(
        &self,
        part: &PartitionedSoa,
        out_width: usize,
        flops_per_row: f64,
        retain_first: bool,
        f: F,
    ) -> (Vec<f64>, Option<DeviceBuffer>)
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        assert!(out_width > 0);
        let (sums, retained) = self.group_sweep(
            part,
            out_width,
            flops_per_row,
            retain_first,
            LaunchKind::GroupSweepMultiReduce,
            &f,
        );
        (sums, retained.map(|r| self.primary().adopt(r)))
    }

    /// Group counterpart of `Device::sweep_batch`: `batch` outputs per
    /// row, column-reduced, nothing retained.
    pub fn sweep_batch<F>(
        &self,
        part: &PartitionedSoa,
        batch: usize,
        flops_per_row: f64,
        f: F,
    ) -> Vec<f64>
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        self.sweep_multi_reduce(part, batch, flops_per_row, false, f)
            .0
    }

    /// The stripe-block engine behind every group sweep. Returns the
    /// per-column sums and, when retaining, the host-assembled per-row
    /// column-0 values in global row order.
    fn group_sweep<F>(
        &self,
        part: &PartitionedSoa,
        out_width: usize,
        flops_per_row: f64,
        retain_first: bool,
        kind: LaunchKind,
        f: &F,
    ) -> (Vec<f64>, Option<Vec<f64>>)
    where
        F: Fn(ColsView<'_>, &mut [f64]) + Sync,
    {
        self.check_soa(part);
        if part.rows == 0 {
            return (vec![0.0; out_width], retain_first.then(Vec::new));
        }
        let n = self.devices.len();
        let queue: Mutex<Vec<VecDeque<usize>>> = Mutex::new(
            part.shards
                .iter()
                .map(|s| (s.first_block..s.first_block + s.n_blocks).collect())
                .collect(),
        );
        let flops = flops_per_row + 4.0 * out_width as f64;
        let mut outs: Vec<WorkerOut> = (0..n).map(|_| WorkerOut::default()).collect();
        std::thread::scope(|scope| {
            for (me, out) in outs.iter_mut().enumerate() {
                let queue = &queue;
                scope.spawn(move || {
                    let profile = *self.devices[me].cost_model().profile();
                    let modeled_row_seconds =
                        flops / (profile.compute_throughput * profile.vector_width);
                    let t0 = Instant::now();
                    let mut vclock = 0.0f64;
                    let mut buf: Vec<f64> = Vec::new();
                    loop {
                        if let Some(pace) = self.pace {
                            loop {
                                let ahead = vclock * pace - t0.elapsed().as_secs_f64();
                                if ahead <= 0.0 {
                                    break;
                                }
                                std::thread::sleep(std::time::Duration::from_secs_f64(ahead));
                            }
                        }
                        let Some((block, owner)) = claim_block(queue, me, self.steal) else {
                            break;
                        };
                        let shard = &part.shards[owner];
                        let (start, len) = part.block_rows(block);
                        let view = shard.soa.view(start - shard.first_row(), len);
                        buf.clear();
                        buf.resize(len * out_width, 0.0);
                        let t = Instant::now();
                        f(view, &mut buf);
                        // Full blocks reduce to their exact aligned
                        // pairwise subtree on the worker; the single
                        // ragged tail block ships raw values.
                        let full = len == SWEEP_BLOCK_ROWS;
                        let sums = if !full {
                            Vec::new()
                        } else if out_width == 1 {
                            vec![pairwise_sum(&buf)]
                        } else {
                            pairwise_sum_columns(&buf, out_width)
                        };
                        out.compute_seconds += t.elapsed().as_secs_f64();
                        let retained = if retain_first {
                            buf.iter().step_by(out_width).copied().collect()
                        } else {
                            Vec::new()
                        };
                        out.blocks.push(BlockResult {
                            index: block,
                            sums,
                            raw: if full { Vec::new() } else { buf.clone() },
                            retained,
                        });
                        out.executed_rows += len;
                        out.executed_blocks += 1;
                        if owner != me {
                            out.stolen_blocks += 1;
                            out.stolen_rows += len;
                        }
                        vclock += len as f64 * modeled_row_seconds;
                    }
                });
            }
        });

        // --- Deterministic combine: slot array, folded in block order.
        let mut slots: Vec<Option<BlockResult>> = (0..part.blocks).map(|_| None).collect();
        for out in &mut outs {
            for r in out.blocks.drain(..) {
                let i = r.index;
                assert!(slots[i].is_none(), "stripe block {i} executed twice");
                slots[i] = Some(r);
            }
        }
        let mut accs: Vec<PairwiseAcc> = vec![PairwiseAcc::new(); out_width];
        let mut retained_all = retain_first.then(|| Vec::with_capacity(part.rows));
        let mut scratch = [0.0f64; PAIRWISE_BLOCK];
        for slot in &slots {
            let r = slot.as_ref().expect("stripe block never executed");
            if !r.sums.is_empty() {
                for (acc, &s) in accs.iter_mut().zip(&r.sums) {
                    acc.push_block(s, SWEEP_BLOCK_LEVEL);
                }
            } else {
                // Tail block: replicate the single-device reduction's
                // tail exactly — full 256-row windows as level-8 aligned
                // subtrees (the tail starts at a multiple of
                // SWEEP_BLOCK_ROWS, so alignment holds), then element
                // pushes for the ragged remainder.
                let rows = r.raw.len() / out_width;
                let main = rows - rows % PAIRWISE_BLOCK;
                for b in (0..main).step_by(PAIRWISE_BLOCK) {
                    let window = &r.raw[b * out_width..][..PAIRWISE_BLOCK * out_width];
                    for (c, acc) in accs.iter_mut().enumerate() {
                        for (k, s) in scratch.iter_mut().enumerate() {
                            *s = window[k * out_width + c];
                        }
                        acc.push_block(pairwise_block_sum(&scratch), PAIRWISE_BLOCK_LEVEL);
                    }
                }
                for row in r.raw[main * out_width..].chunks_exact(out_width) {
                    for (acc, &v) in accs.iter_mut().zip(row) {
                        acc.push(v);
                    }
                }
            }
            if let Some(ret) = retained_all.as_mut() {
                ret.extend_from_slice(&r.retained);
            }
        }
        let sums: Vec<f64> = accs.iter().map(PairwiseAcc::finish).collect();

        self.charge_sweep(part, &outs, out_width, flops, retain_first, kind);
        (sums, retained_all)
    }

    /// Charges each participating device one launch for its share of the
    /// sweep (persistent-kernel model: block claims happen inside one
    /// launch), and updates the scheduler counters/telemetry.
    fn charge_sweep(
        &self,
        part: &PartitionedSoa,
        outs: &[WorkerOut],
        out_width: usize,
        flops: f64,
        retain_first: bool,
        kind: LaunchKind,
    ) {
        let result_bytes = out_width * std::mem::size_of::<f64>();
        for (i, (device, w)) in self.devices.iter().zip(outs).enumerate() {
            let primary = i == 0;
            if w.executed_blocks == 0 && !primary {
                continue;
            }
            let p = *device.cost_model().profile();
            let mut modeled = device
                .cost_model()
                .kernel_vectorized(w.executed_rows, flops);
            // Stolen blocks read the victim shard's memory: peer
            // bandwidth, no extra launch (claims pipeline inside the
            // persistent kernel).
            let stolen_bytes = w.stolen_rows * part.dims * std::mem::size_of::<f64>();
            modeled += stolen_bytes as f64 / p.transfer_bandwidth;
            // The primary fronts the host: result readback, plus the
            // retained-contribution gather from every member.
            let gather_bytes = if primary && retain_first {
                part.rows * std::mem::size_of::<f64>()
            } else {
                0
            };
            modeled += gather_bytes as f64 / p.transfer_bandwidth;
            let launch_bytes = if primary { result_bytes } else { 0 };
            if primary {
                modeled += device.cost_model().transfer(result_bytes);
            }
            device.charge_recorded(
                Launch::kernel(kind, w.executed_rows, flops, launch_bytes),
                modeled,
                w.compute_seconds,
                |s: &mut DeviceStats| {
                    s.kernels += 1;
                    if primary {
                        s.downloads += 1;
                        s.bytes_down += result_bytes as u64;
                    }
                    if stolen_bytes > 0 {
                        s.d2d_copies += 1;
                        s.bytes_d2d += stolen_bytes as u64;
                    }
                    if gather_bytes > 0 {
                        s.d2d_copies += 1;
                        s.bytes_d2d += gather_bytes as u64;
                    }
                },
            );
        }
        let total_blocks: u64 = outs.iter().map(|w| w.executed_blocks).sum();
        let total_steals: u64 = outs.iter().map(|w| w.stolen_blocks).sum();
        let max = outs.iter().map(|w| w.executed_blocks).max().unwrap_or(0);
        let mean = total_blocks as f64 / self.devices.len() as f64;
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        {
            let mut c = self.counters.lock().unwrap();
            c.steals += total_steals;
            c.blocks_executed += total_blocks;
            for (pc, w) in c.per_device_blocks.iter_mut().zip(outs) {
                *pc += w.executed_blocks;
            }
            c.imbalance = imbalance;
        }
        if kdesel_telemetry::enabled() {
            self.meters.steals.add(total_steals);
            self.meters.blocks.add(total_blocks);
            self.meters.imbalance.set(imbalance);
        }
    }

    /// Modeled wall time of the group under concurrent execution: the
    /// slowest device's accumulated modeled time.
    pub fn modeled_seconds_parallel(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.modeled_seconds())
            .fold(0.0, f64::max)
    }

    /// Resets every member's timing and the group scheduler counters.
    pub fn reset_timing(&self) {
        for d in &self.devices {
            d.reset_timing();
        }
        let mut c = self.counters.lock().unwrap();
        let n = c.per_device_blocks.len();
        *c = GroupCounters {
            per_device_blocks: vec![0; n],
            ..GroupCounters::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Backend;

    fn group(n: usize) -> DeviceGroup {
        DeviceGroup::new((0..n).map(|_| Device::new(Backend::SimGpu)).collect())
    }

    /// A copy sweep over column 0, the kernel of the scaling tests.
    fn copy_col0(view: ColsView<'_>, out: &mut [f64]) {
        out.copy_from_slice(view.col(0));
    }

    #[test]
    fn distributed_sum_matches_single_device() {
        let sample: Vec<f64> = (0..4000).map(|i| (i as f64).sin()).collect();
        let single = group(1);
        let quad = group(4);
        let p1 = single.stage_partitioned_soa(&sample, 2);
        let p4 = quad.stage_partitioned_soa(&sample, 2);
        let f = |view: ColsView<'_>, out: &mut [f64]| {
            for (o, (&x, &y)) in out.iter_mut().zip(view.col(0).iter().zip(view.col(1))) {
                *o = x * x + y;
            }
        };
        let (s1, _) = single.sweep_reduce(&p1, 10.0, false, f);
        let (s4, _) = quad.sweep_reduce(&p4, 10.0, false, f);
        assert_eq!(s1.to_bits(), s4.to_bits(), "{s1} vs {s4}");
    }

    #[test]
    fn four_devices_approach_4x_speedup_when_compute_bound() {
        let rows = 1 << 20;
        let sample: Vec<f64> = vec![1.0; rows];
        let single = group(1).with_stealing(false);
        let quad = group(4).with_stealing(false);
        let p1 = single.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        let p4 = quad.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        single.reset_timing();
        quad.reset_timing();
        let _ = single.sweep_reduce(&p1, 480.0, false, copy_col0);
        let _ = quad.sweep_reduce(&p4, 480.0, false, copy_col0);
        let speedup = single.modeled_seconds_parallel() / quad.modeled_seconds_parallel();
        assert!((3.0..4.2).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn latency_floor_does_not_shrink_with_more_devices() {
        // Tiny model: adding devices cannot beat the per-device latency.
        let sample: Vec<f64> = vec![1.0; 64];
        let single = group(1).with_stealing(false);
        let quad = group(4).with_stealing(false);
        let p1 = single.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        let p4 = quad.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        single.reset_timing();
        quad.reset_timing();
        let _ = single.sweep_reduce(&p1, 480.0, false, copy_col0);
        let _ = quad.sweep_reduce(&p4, 480.0, false, copy_col0);
        assert!(
            quad.modeled_seconds_parallel() >= single.modeled_seconds_parallel() * 0.95,
            "latency-bound work should not speed up: {} vs {}",
            quad.modeled_seconds_parallel(),
            single.modeled_seconds_parallel()
        );
    }

    #[test]
    fn more_devices_than_rows_is_fine() {
        let g = group(4).with_stealing(false);
        // 2 rows, 4 devices.
        let part = g.stage_partitioned_soa_with(&[1.0, 2.0], 1, Partition::Equal);
        assert_eq!(part.rows(), 2);
        let (s, _) = g.sweep_reduce(&part, 1.0, false, copy_col0);
        assert_eq!(s, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty device group")]
    fn empty_group_rejected() {
        DeviceGroup::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "not this group")]
    fn cross_group_partitioned_soa_rejected() {
        let a = group(2);
        let b = group(2);
        let part = a.stage_partitioned_soa(&[1.0, 2.0, 3.0, 4.0], 1);
        let _ = b.sweep_reduce(&part, 1.0, false, |view, out| {
            out.copy_from_slice(view.col(0));
        });
    }

    #[test]
    fn apportionment_assigns_every_block_exactly_once() {
        for (weights, total) in [
            (vec![1.0, 1.0, 1.0], 10usize),
            (vec![3.0, 1.0], 7),
            (vec![1.0, 100.0, 1.0, 1.0], 5),
            (vec![0.0, 0.0], 4), // degenerate → equal fallback
            (vec![2.5], 0),
        ] {
            let counts = apportion_blocks(&weights, total);
            assert_eq!(counts.iter().sum::<usize>(), total, "{weights:?}/{total}");
        }
        // Proportional seeding: a 3:1 throughput ratio lands 3:1 blocks.
        assert_eq!(apportion_blocks(&[3.0, 1.0], 8), vec![6, 2]);
    }

    #[test]
    fn profile_seeded_shards_cover_the_sample_exactly_once() {
        let fast = Device::new(Backend::SimGpu); // 120 GFLOP/s
        let slow = Device::new(Backend::SimGpu).fission(0.25); // 30 GFLOP/s
        let g = DeviceGroup::new(vec![fast, slow]);
        let rows = 5 * SWEEP_BLOCK_ROWS + 100;
        let dims = 3;
        let sample: Vec<f64> = (0..rows * dims).map(|i| i as f64).collect();
        let part = g.stage_partitioned_soa(&sample, dims);
        assert_eq!(part.rows(), rows);
        assert_eq!(part.blocks(), 6);
        // 120:30 throughput over 6 blocks seeds 5:1 (the slow member's
        // single block is the partial tail).
        assert_eq!(part.shard_rows()[0], 5 * SWEEP_BLOCK_ROWS);
        assert_eq!(part.shard_rows()[1], 100);
        // Staging charged exactly the sample bytes, split across members.
        let staged: u64 = g.devices().iter().map(|d| d.stats().bytes_up).sum();
        assert_eq!(staged as usize, rows * dims * std::mem::size_of::<f64>());
        for d in g.devices() {
            assert_eq!(d.stats().uploads, 1);
        }
    }

    /// The sharded sweep must be bitwise-identical to one device running
    /// the same kernel over the same rows — the deterministic-combine
    /// contract, independent of steal interleaving.
    #[test]
    fn group_sweep_reduce_is_bitwise_identical_to_single_device() {
        for rows in [1usize, 100, 1024, 1500, 4096, 5000] {
            let dims = 2;
            let sample: Vec<f64> = (0..rows * dims).map(|i| (i as f64 * 0.37).sin()).collect();
            let device = Device::new(Backend::CpuSeq);
            let soa = device.stage_rows_soa(&sample, dims);
            let kernel = |view: ColsView<'_>, out: &mut [f64]| {
                let (a, b) = (view.col(0), view.col(1));
                for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
                    *o = x * y + x;
                }
            };
            let (single, _) = device.sweep_reduce(&soa, 3.0, false, kernel);

            let g = DeviceGroup::new(vec![
                Device::new(Backend::CpuSeq),
                Device::new(Backend::CpuPar),
                Device::new(Backend::SimGpu),
            ]);
            let part = g.stage_partitioned_soa(&sample, dims);
            let (grouped, _) = g.sweep_reduce(&part, 3.0, false, kernel);
            assert_eq!(single.to_bits(), grouped.to_bits(), "rows={rows}");
        }
    }

    #[test]
    fn group_multi_reduce_and_retained_match_single_device() {
        let rows = 3000;
        let dims = 2;
        let width = 3;
        let sample: Vec<f64> = (0..rows * dims).map(|i| (i as f64 * 0.11).cos()).collect();
        let kernel = |view: ColsView<'_>, out: &mut [f64]| {
            let (a, b) = (view.col(0), view.col(1));
            for (o, (&x, &y)) in out.chunks_exact_mut(width).zip(a.iter().zip(b)) {
                o[0] = x + y;
                o[1] = x * y;
                o[2] = x - y;
            }
        };
        let device = Device::new(Backend::CpuSeq);
        let soa = device.stage_rows_soa(&sample, dims);
        let (single, single_ret) = device.sweep_multi_reduce(&soa, width, 3.0, true, kernel);

        let g = group(3);
        let part = g.stage_partitioned_soa(&sample, dims);
        let (grouped, grouped_ret) = g.sweep_multi_reduce(&part, width, 3.0, true, kernel);
        for (s, q) in single.iter().zip(&grouped) {
            assert_eq!(s.to_bits(), q.to_bits());
        }
        let a = device.download(&single_ret.unwrap());
        let b = g.primary().download(&grouped_ret.unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Force steals with a paced, lopsided group: the slow member's
    /// virtual clock makes it claim almost nothing, the fast member
    /// steals the difference, and the estimate is still bit-exact.
    #[test]
    fn pacing_forces_steals_without_changing_the_sum() {
        let rows = 16 * SWEEP_BLOCK_ROWS;
        let sample: Vec<f64> = (0..rows).map(|i| (i as f64).sqrt()).collect();
        let kernel = |view: ColsView<'_>, out: &mut [f64]| out.copy_from_slice(view.col(0));
        let device = Device::new(Backend::CpuSeq);
        let soa = device.stage_rows_soa(&sample, 1);
        let (single, _) = device.sweep_reduce(&soa, 1.0, false, kernel);

        let fast = Device::new(Backend::SimGpu);
        let slow = Device::new(Backend::SimGpu).fission(0.01);
        // Equal split despite the 100x modeled gap; pacing exposes it.
        let g = DeviceGroup::new(vec![fast, slow]).with_pace(2000.0);
        let part = g.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        let (grouped, _) = g.sweep_reduce(&part, 1.0, false, kernel);
        assert_eq!(single.to_bits(), grouped.to_bits());
        let stats = g.stats();
        assert_eq!(stats.blocks_executed, 16);
        assert!(stats.steals > 0, "paced lopsided group never stole");
        assert!(stats.imbalance > 1.0);
    }

    #[test]
    fn stealing_disabled_keeps_blocks_on_their_owners() {
        let rows = 8 * SWEEP_BLOCK_ROWS;
        let sample: Vec<f64> = vec![1.0; rows];
        let g = group(2).with_stealing(false);
        let part = g.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        let (sum, _) = g.sweep_reduce(&part, 1.0, false, |view, out| {
            out.copy_from_slice(view.col(0))
        });
        assert_eq!(sum, rows as f64);
        let stats = g.stats();
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.per_device_blocks, vec![4, 4]);
    }

    #[test]
    fn empty_steal_victims_are_skipped() {
        // 2 blocks over 4 devices: two shards are empty from the start;
        // idle workers must terminate and the sweep must still cover
        // every row exactly once.
        let rows = SWEEP_BLOCK_ROWS + 7;
        let sample: Vec<f64> = vec![2.0; rows];
        let g = group(4);
        let part = g.stage_partitioned_soa(&sample, 1);
        let (sum, _) = g.sweep_reduce(&part, 1.0, false, |view, out| {
            out.copy_from_slice(view.col(0))
        });
        assert_eq!(sum, 2.0 * rows as f64);
        assert_eq!(g.stats().blocks_executed, 2);
    }

    #[test]
    fn group_sweep_charges_one_launch_per_participant() {
        let rows = 4 * SWEEP_BLOCK_ROWS;
        let sample: Vec<f64> = vec![1.0; rows];
        // Stealing off so both members deterministically participate (a
        // fast worker could otherwise drain every block before its peer
        // even starts on these tiny kernels).
        let g = group(2).with_stealing(false);
        let part = g.stage_partitioned_soa_with(&sample, 1, Partition::Equal);
        g.reset_timing();
        let _ = g.sweep_reduce(&part, 480.0, false, |view, out| {
            out.copy_from_slice(view.col(0))
        });
        let s0 = g.devices()[0].stats();
        let s1 = g.devices()[1].stats();
        // One persistent launch each; only the primary reads back.
        assert_eq!(s0.kernels, 1);
        assert_eq!(s1.kernels, 1);
        assert_eq!(s0.downloads, 1);
        assert_eq!(s0.bytes_down, 8);
        assert_eq!(s1.downloads, 0);
        // Modeled group time beats a single device on the same work.
        let single = Device::new(Backend::SimGpu);
        let soa = single.stage_rows_soa(&sample, 1);
        single.reset_timing();
        let _ = single.sweep_reduce(&soa, 480.0, false, |view, out| {
            out.copy_from_slice(view.col(0))
        });
        assert!(g.modeled_seconds_parallel() < single.modeled_seconds());
    }
}
