//! Execution devices for the KDE kernels.
//!
//! The paper offloads every major estimator operation — estimation, model
//! optimization, sample maintenance — to an OpenCL device (§5), keeping the
//! sample resident on the GPU and transferring only query bounds, gradients
//! and replacement points over PCI Express. Mature GPU-compute crates are
//! not available to this port, so the device layer reproduces the paper's
//! *execution model* instead of its silicon:
//!
//! * [`Backend::CpuSeq`] — sequential reference execution,
//! * [`Backend::CpuPar`] — data-parallel execution on all cores
//!   (`kdesel-par`), the analogue of the paper's Intel OpenCL CPU backend,
//! * [`Backend::SimGpu`] — executes the same kernels (in parallel on the
//!   CPU, so all numeric results are identical) while charging an
//!   analytical *cost model* for every kernel launch, PCIe transfer and
//!   reduction pass. The model constants are calibrated to the paper's
//!   GTX-460 / Xeon E5620 measurements (Figure 7), reproducing the
//!   latency-bound flat region for small models, the throughput-bound
//!   linear region for large ones, and the ~4× GPU/CPU asymptotic ratio.
//!
//! Every [`Device`] tracks both *modeled* time (from the cost model) and
//! *measured* wall time, plus transfer-volume counters used to validate the
//! paper's transfer-efficiency claims for sample maintenance (§4.2).
//!
//! # One staging layout
//!
//! A sample is staged one way: column-major stripes ([`SoaBuffer`], via
//! [`Device::stage_rows_soa`]), read by the `sweep_*` kernels. A column
//! with at most one distinct value per [`DICT_ROWS_PER_VALUE`] rows also
//! carries a dictionary beside its stripe ([`SoaBuffer::dict`]), which
//! staging builds and [`Device::write_row_soa`] keeps in step, so a
//! sweep can evaluate each distinct value's kernel factor once per query
//! and read the rows' factors by code. The
//! estimate, the fused estimate+gradient and the batched estimate are
//! sweeps; the unfused gradient is [`Device::sweep_multi`] plus
//! [`Device::reduce_sum_columns`]. Row-major [`DeviceBuffer`]s remain
//! for what is not a sample: query bounds, the per-point contributions a
//! sweep retains, and Karma's ledger, which [`Device::zip_update_inplace`]
//! accumulates and [`Device::map_rows`] flags.
//!
//! # Thread-ownership contract
//!
//! The serving layer (`kdesel-serve`) moves estimators — and therefore
//! their devices and buffers — onto dedicated executor threads. The types
//! in this crate uphold the following contract, pinned by
//! `thread_contract` below so a regression fails to compile:
//!
//! * [`Device`] is `Send + Sync`. All of its methods take `&self`; the
//!   timing ledger sits behind a `Mutex` and the telemetry meters are
//!   atomics, so stats reads ([`Device::stats`],
//!   [`Device::modeled_seconds`]) are safe from any thread while another
//!   thread launches kernels. The *command stream* of one model, however,
//!   is expected to stay on a single owner thread — exactly one executor
//!   per model, like one OpenCL command queue per context in the paper's
//!   implementation. Nothing unsafe happens if two threads launch on one
//!   device concurrently; they only contend on the timing mutex and
//!   interleave counter updates.
//! * [`DeviceBuffer`] is `Send + Sync` as plain owned memory, but it is
//!   deliberately *not* `Clone`: all mutation flows through `Device`
//!   methods (`upload`, `write_at`, `zip_update_inplace`, …) on the
//!   owning thread, mirroring device memory that host threads cannot
//!   alias.
//! * The parallel backends run a launch on the calling thread, joined by
//!   `kdesel-par`'s *scoped* `kdesel-par-<i>` threads only when the
//!   launch's claimed FLOPs pay for them (a one-block sweep never
//!   spawns). Block and chunk boundaries are fixed, so results are
//!   deterministic and identical no matter which thread — or how many
//!   sibling executors — issue the launch.
//!
//! Consequently an estimator (`kdesel_kde::KdeEstimator`) composed of a
//! `Device` plus `DeviceBuffer`s is `Send`: it may be built on one thread
//! and handed to an executor thread wholesale. `kdesel-serve` relies on
//! exactly that and adds its own compile-time audit for the estimator
//! types.

#![deny(unsafe_code)]

pub mod calibrate;
pub mod cost;
pub mod device;
mod pool;
pub mod profile;

pub use calibrate::{CalibrationConfig, FitReport, MeasuredPoint, MeasuredProfile};
pub use cost::{CostModel, CostProfile};
pub use device::{
    Backend, ColsView, ColumnDict, Device, DeviceBuffer, DeviceStats, SoaBuffer,
    DICT_ROWS_PER_VALUE, SWEEP_BLOCK_ROWS,
};
pub use profile::{DeviceProfile, KindProfile, Launch, LaunchKind};

/// Compile-time pin of the thread-ownership contract documented above.
/// If a field change makes any of these types lose `Send`/`Sync`, this
/// stops compiling — the serving layer's executor threads depend on it.
#[allow(dead_code)]
fn thread_contract() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Device>();
    send_and_sync::<DeviceBuffer>();
    send_and_sync::<DeviceStats>();
    send_and_sync::<SoaBuffer>();
    send_and_sync::<DeviceProfile>();
    send_and_sync::<MeasuredProfile>();
}
