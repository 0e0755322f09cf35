//! Zero-allocation steady state: once the device buffer pool is warm,
//! a serve-style batch loop must perform no further large heap
//! allocations — every per-batch device buffer (staged bounds, strided
//! contribution matrix, retained contributions) is recycled through the
//! pool's size-class free lists.
//!
//! Pinned with a counting global allocator: allocations at or above
//! [`LARGE`] bytes are counted, small transients (result vectors of a
//! few hundred bytes, query bookkeeping) are ignored since they never
//! touch the device data plane. The device's own `pool_hits` /
//! `pool_misses` counters are cross-checked so a pass can't come from
//! the loop silently bypassing the pool.

use kdesel::device::{Backend, Device};
use kdesel::kde::{KdeEstimator, KernelFn};
use kdesel::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes count as "large" — device
/// buffers at n=1024 are two orders of magnitude above it, per-batch
/// host transients stay well below.
const LARGE: usize = 4096;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting large allocations.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_batches_reuse_pooled_buffers_without_allocating() {
    let (n, dims, batch) = (1024, 4, 16);
    let mut rng = StdRng::seed_from_u64(0x9001);
    let sample: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(0.0..100.0)).collect();
    let mut est = KdeEstimator::new(
        Device::new(Backend::SimGpu),
        &sample,
        dims,
        KernelFn::Gaussian,
    );
    // The same sample with its first two columns rounded to integers, so
    // staging dictionary-codes them (at most 64 distinct values each):
    // its launches also read per-query factor tables, which must come
    // from the pool too.
    let coded: Vec<f64> = sample
        .chunks_exact(dims)
        .flat_map(|row| {
            let mut row = row.to_vec();
            row[0] = (row[0] / 5.0).floor();
            row[1] = (row[1] / 2.0).floor();
            row
        })
        .collect();
    let mut coded_est = KdeEstimator::new(
        Device::new(Backend::SimGpu),
        &coded,
        dims,
        KernelFn::Gaussian,
    );
    assert_eq!(
        Device::new(Backend::CpuSeq)
            .stage_rows_soa(&coded, dims)
            .dict_columns(),
        2
    );
    let queries: Vec<Rect> = (0..batch)
        .map(|_| {
            let spans: Vec<(f64, f64)> = (0..dims)
                .map(|_| {
                    let lo = rng.gen_range(0.0..60.0);
                    (lo, lo + rng.gen_range(5.0..40.0))
                })
                .collect();
            Rect::from_intervals(&spans)
        })
        .collect();

    // One serve-style round: a coalesced batch, a fused tuning sweep,
    // and a retained single estimate (the Karma input).
    let round = |est: &mut KdeEstimator| {
        let sels = est.estimate_batch(&queries);
        assert_eq!(sels.len(), batch);
        let _ = est.estimate_with_gradient(&queries[0]);
        let _ = est.estimate(&queries[1]);
    };

    // Warmup populates every size class the loop will ever need.
    for _ in 0..3 {
        round(&mut est);
        round(&mut coded_est);
    }

    let allocs_before = LARGE_ALLOCS.load(Ordering::Relaxed);
    let stats_before = [est.device().stats(), coded_est.device().stats()];
    for _ in 0..32 {
        round(&mut est);
        round(&mut coded_est);
    }
    let allocs_after = LARGE_ALLOCS.load(Ordering::Relaxed);
    let stats_after = [est.device().stats(), coded_est.device().stats()];

    assert_eq!(
        allocs_after,
        allocs_before,
        "steady-state batches performed {} large heap allocations",
        allocs_after - allocs_before
    );
    for (before, after) in stats_before.iter().zip(&stats_after) {
        assert_eq!(
            after.pool_misses, before.pool_misses,
            "steady-state batches missed the buffer pool"
        );
        assert!(
            after.pool_hits > before.pool_hits,
            "steady-state batches never exercised the pool"
        );
    }
}
