//! Size-class pooled allocator for device buffers.
//!
//! Every buffer the device layer hands out ([`crate::DeviceBuffer`]) owns
//! a handle back to its device's pool; dropping the buffer returns the
//! backing storage to a power-of-two size-class free list instead of the
//! global heap. Steady-state serving — the serve crate's one executor
//! thread per model, issuing one fused launch per coalesced batch —
//! cycles through the same handful of buffer sizes (staged query bounds,
//! per-point values, retained contributions), so after a warmup batch
//! every acquisition is a pool hit and the hot loop performs **zero heap
//! allocations per batch** (pinned by `tests/alloc_pool.rs` with a
//! counting global allocator).
//!
//! The pool is shared behind an `Arc` and guarded by a `Mutex`, but the
//! device thread-ownership contract (one executor thread drives one
//! model's command stream) makes the lock uncontended in practice — the
//! free lists are effectively thread-owned, matching the serve crate's
//! one-thread-per-model design. Hit/miss counters surface through
//! [`crate::DeviceStats`] and, when telemetry is enabled, the
//! `device.pool_*` instruments.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buffers shorter than this many elements bypass the pool: the heap
/// already serves tiny allocations well, and pooling them would bloat
/// the class map with one-off sizes (scalar results, short bound lists).
const MIN_POOL_ELEMS: usize = 32;

/// Free-list depth per size class; beyond this, released buffers are
/// genuinely freed so a burst cannot pin memory forever.
const MAX_PER_CLASS: usize = 16;

/// Telemetry instrument handles, resolved once per pool.
#[derive(Debug)]
struct PoolMeters {
    hits: Arc<kdesel_telemetry::Counter>,
    misses: Arc<kdesel_telemetry::Counter>,
    held_bytes: Arc<kdesel_telemetry::Gauge>,
}

/// Per-device recycling allocator with power-of-two size classes.
#[derive(Debug)]
pub(crate) struct BufferPool {
    /// Class capacity → released vectors (length and contents kept) whose
    /// capacity is ≥ the class.
    free: Mutex<BTreeMap<usize, Vec<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bytes currently parked on the free lists (pool occupancy).
    held_bytes: AtomicU64,
    meters: PoolMeters,
}

impl BufferPool {
    pub(crate) fn new() -> Self {
        let r = kdesel_telemetry::registry();
        Self {
            free: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            held_bytes: AtomicU64::new(0),
            meters: PoolMeters {
                hits: r.counter("device.pool_hits"),
                misses: r.counter("device.pool_misses"),
                held_bytes: r.gauge("device.pool_held_bytes"),
            },
        }
    }

    /// Acquisitions served from a free list.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that fell through to the heap.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes currently parked on the free lists.
    pub(crate) fn held_bytes(&self) -> u64 {
        self.held_bytes.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss counters (pool contents are kept — occupancy
    /// reflects real state, counters are a measurement window).
    pub(crate) fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// A vector with capacity for at least `len` elements — from a free
    /// list when one fits (holding whatever it held when released), else
    /// empty from the heap.
    ///
    /// Tiny requests (below [`MIN_POOL_ELEMS`]) bypass the pool by
    /// design and count as neither hit nor miss: they never enter a
    /// free list, so charging them as misses would make a perfectly
    /// warm steady state look like it leaks.
    fn acquire_raw(&self, len: usize) -> Vec<f64> {
        if len < MIN_POOL_ELEMS {
            return Vec::with_capacity(len);
        }
        let class = len.next_power_of_two();
        let reused = {
            let mut free = self.free.lock().unwrap();
            // Smallest class that can hold `len`; every parked vector
            // has capacity ≥ its class key.
            let found = free.range_mut(class..).find_map(|(_, list)| list.pop());
            if let Some(v) = &found {
                let bytes = (v.capacity() * std::mem::size_of::<f64>()) as u64;
                self.held_bytes.fetch_sub(bytes, Ordering::Relaxed);
            }
            found
        };
        if let Some(v) = reused {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if kdesel_telemetry::enabled() {
                self.meters.hits.add(1);
                self.meters.held_bytes.set(self.held_bytes() as f64);
            }
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if kdesel_telemetry::enabled() {
            self.meters.misses.add(1);
        }
        Vec::with_capacity(class)
    }

    /// A zero-filled vector of exactly `len` elements.
    pub(crate) fn acquire_zeroed(&self, len: usize) -> Vec<f64> {
        let mut v = self.acquire_raw(len);
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// A vector of exactly `len` elements with unspecified contents, for
    /// a launch that overwrites every element: a reused vector keeps what
    /// it held, so only growth past its old length is filled. Debug
    /// builds fill all of it with NaN, so an element the launch leaves
    /// unwritten fails every bitwise pin.
    pub(crate) fn acquire_for_overwrite(&self, len: usize) -> Vec<f64> {
        let mut v = self.acquire_raw(len);
        if cfg!(debug_assertions) {
            v.clear();
            v.resize(len, f64::NAN);
        } else {
            v.resize(len, 0.0);
        }
        v
    }

    /// A vector holding a copy of `host`.
    pub(crate) fn acquire_copy(&self, host: &[f64]) -> Vec<f64> {
        let mut v = self.acquire_raw(host.len());
        v.clear();
        v.extend_from_slice(host);
        v
    }

    /// Returns a vector's storage to its size-class free list (or frees
    /// it when too small to pool or the class list is full). The vector
    /// keeps its length and contents, which
    /// [`acquire_for_overwrite`](Self::acquire_for_overwrite) reuses.
    pub(crate) fn release(&self, v: Vec<f64>) {
        let cap = v.capacity();
        if cap < MIN_POOL_ELEMS {
            return;
        }
        // Largest power of two ≤ capacity, so the class key never
        // overstates what the vector can hold.
        let class = 1usize << (usize::BITS - 1 - cap.leading_zeros());
        {
            let mut free = self.free.lock().unwrap();
            let list = free.entry(class).or_default();
            if list.len() >= MAX_PER_CLASS {
                return; // drop `v`: genuinely free it
            }
            list.push(v);
        }
        let bytes = (cap * std::mem::size_of::<f64>()) as u64;
        self.held_bytes.fetch_add(bytes, Ordering::Relaxed);
        if kdesel_telemetry::enabled() {
            self.meters.held_bytes.set(self.held_bytes() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_acquire_is_a_hit_with_same_storage() {
        let pool = BufferPool::new();
        let v = pool.acquire_zeroed(1000);
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        assert_eq!(v.len(), 1000);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.release(v);
        assert!(pool.held_bytes() >= (1000 * 8) as u64);
        let v2 = pool.acquire_zeroed(900); // same 1024-class
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert_eq!((v2.as_ptr(), v2.capacity()), (ptr, cap));
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(pool.held_bytes(), 0);
    }

    #[test]
    fn overwrite_acquisition_reuses_storage_without_a_fill() {
        let pool = BufferPool::new();
        let mut v = pool.acquire_for_overwrite(1000);
        assert_eq!(v.len(), 1000);
        v.fill(7.0);
        let ptr = v.as_ptr();
        pool.release(v);
        let v = pool.acquire_for_overwrite(900);
        assert_eq!((v.len(), v.as_ptr()), (900, ptr));
        // Release builds keep the released contents; debug builds poison.
        let want = if cfg!(debug_assertions) {
            f64::NAN
        } else {
            7.0
        };
        assert!(v.iter().all(|x| x.to_bits() == want.to_bits()));
        pool.release(v);
        // A longer request fills its growth; zeroed acquisitions still zero.
        let v = pool.acquire_for_overwrite(1000);
        assert_eq!(v.len(), 1000);
        pool.release(v);
        assert!(pool.acquire_zeroed(1000).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        let v = pool.acquire_copy(&[1.0; 8]);
        assert_eq!(v, [1.0; 8]);
        pool.release(v);
        assert_eq!(pool.held_bytes(), 0);
        let _ = pool.acquire_zeroed(8);
        // Bypassed acquisitions are invisible to the hit/miss counters.
        assert_eq!((pool.hits(), pool.misses()), (0, 0));
    }

    #[test]
    fn larger_class_serves_smaller_request() {
        let pool = BufferPool::new();
        let v = pool.acquire_zeroed(4096);
        pool.release(v);
        // 100 → class 128; the 4096-class buffer is the only candidate.
        let v2 = pool.acquire_zeroed(100);
        assert_eq!(v2.len(), 100);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn class_depth_is_bounded() {
        let pool = BufferPool::new();
        let vecs: Vec<_> = (0..MAX_PER_CLASS + 4)
            .map(|_| pool.acquire_zeroed(64))
            .collect();
        for v in vecs {
            pool.release(v);
        }
        let held = pool.held_bytes();
        assert!(
            held <= (MAX_PER_CLASS * 64 * 8) as u64,
            "held {held} exceeds class cap"
        );
    }

    #[test]
    fn counter_reset_keeps_contents() {
        let pool = BufferPool::new();
        pool.release(pool.acquire_zeroed(256));
        pool.reset_counters();
        assert_eq!((pool.hits(), pool.misses()), (0, 0));
        let _ = pool.acquire_zeroed(256);
        assert_eq!(pool.hits(), 1, "pooled storage must survive a reset");
    }
}
