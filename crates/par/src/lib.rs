//! Deterministic data-parallel helpers on scoped `std` threads.
//!
//! The workspace previously leaned on `rayon` for its data-parallel
//! backends; this crate replaces the subset it used with `std::thread`
//! scoped fan-out, with one property rayon does not guarantee:
//! **determinism independent of thread count**. Work is split into
//! *fixed* contiguous chunks (`CHUNKS`, not `available_parallelism`),
//! chunk results are combined in chunk order, and element outputs land at
//! their input index — so a run on 1 core and a run on 64 cores produce
//! bit-identical results. That matches the device layer's pairwise-sum
//! discipline (all backends agree bitwise) and keeps every experiment
//! reproducible.
//!
//! Tiny inputs skip thread spawning entirely: below
//! [`PARALLEL_THRESHOLD`] items the helpers run inline, so the kernel
//! launch overhead modeled by `kdesel-device` is not drowned in real
//! thread overhead on the hot small-query path.
//!
//! The device layer's *fused* sweeps (`sweep_reduce`,
//! `sweep_multi_reduce`, `sweep_batch`) lean on the same guarantee from
//! the other direction: because `par_for_each_block_mut` places every
//! block's outputs at their row index regardless of scheduling, a fused
//! launch feeds the pairwise reduction the exact element order the
//! unfused `sweep_multi` + `reduce_sum_columns` path would — which is
//! what makes fused-vs-unfused bit-identity a structural property rather
//! than a numerical accident.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed chunk count for reductions — determinism demands this never
/// depend on the machine's core count.
pub const CHUNKS: usize = 64;

/// Inputs shorter than this run inline on the calling thread.
pub const PARALLEL_THRESHOLD: usize = 2048;

/// Number of worker threads to fan out to (cached).
fn workers() -> usize {
    static WORKERS: AtomicUsize = AtomicUsize::new(0);
    let cached = WORKERS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    WORKERS.store(n, Ordering::Relaxed);
    n
}

/// Splits `len` items into at most `pieces` contiguous ranges.
fn ranges(len: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    let pieces = pieces.clamp(1, len.max(1));
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Maps `f` over `0..len`, collecting results in index order.
///
/// Deterministic: output position `i` always holds `f(i)`.
pub fn par_map_collect<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if len < PARALLEL_THRESHOLD || workers() == 1 {
        return (0..len).map(f).collect();
    }
    let mut pieces: Vec<Vec<T>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges(len, workers())
            .into_iter()
            .map(|range| scope.spawn(|| range.map(&f).collect::<Vec<T>>()))
            .collect();
        pieces = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let mut out = Vec::with_capacity(len);
    for piece in pieces {
        out.extend(piece);
    }
    out
}

/// Calls `f(i, &mut items[i])` for every element, in parallel over
/// contiguous sub-slices.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    if len < PARALLEL_THRESHOLD || workers() == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let splits = ranges(len, workers());
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut offset = 0;
        for range in splits {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let base = offset;
            offset += range.len();
            let f = &f;
            scope.spawn(move || {
                for (i, item) in head.iter_mut().enumerate() {
                    f(base + i, item);
                }
            });
        }
    });
}

/// Calls `f(block_index, &mut out[block*block_elems..])` for every
/// contiguous block of at most `block_elems` elements — the trailing
/// block may be shorter. Blocks are fixed by `block_elems` alone (never
/// by worker count), so a 1-core and a 64-core run see identical block
/// boundaries; each block's output is written by exactly one thread.
///
/// This is the dispatch shape of the cache-blocked columnar sweeps: the
/// device layer hands each block of rows to the vectorized kernel as one
/// unit-stride stripe.
///
/// # Panics
/// Panics when `block_elems` is zero.
pub fn par_for_each_block_mut<T, F>(out: &mut [T], block_elems: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block_elems > 0, "zero block size");
    let len = out.len();
    if len < PARALLEL_THRESHOLD || workers() == 1 {
        for (i, block) in out.chunks_mut(block_elems).enumerate() {
            f(i, block);
        }
        return;
    }
    let blocks = len.div_ceil(block_elems);
    let splits = ranges(blocks, workers());
    std::thread::scope(|scope| {
        let mut rest = out;
        for range in splits {
            if range.is_empty() {
                continue;
            }
            let elems = (range.len() * block_elems).min(rest.len());
            let (head, tail) = rest.split_at_mut(elems);
            rest = tail;
            let base = range.start;
            let f = &f;
            scope.spawn(move || {
                for (i, block) in head.chunks_mut(block_elems).enumerate() {
                    f(base + i, block);
                }
            });
        }
    });
}

/// Parallel map-reduce with an explicit accumulator combiner (the shape
/// `rayon`'s `map(..).reduce(identity, combine)` had). Deterministic:
/// fixed chunking, in-order combination.
pub fn par_map_combine<A, M, C, I>(len: usize, identity: I, map: M, combine: C) -> A
where
    A: Send,
    M: Fn(usize) -> A + Sync,
    C: Fn(A, A) -> A + Sync,
    I: Fn() -> A + Sync,
{
    let chunks = ranges(len, CHUNKS.min(len.max(1)));
    let chunk_results: Vec<A> = if len < PARALLEL_THRESHOLD || workers() == 1 {
        chunks
            .into_iter()
            .map(|range| range.map(&map).fold(identity(), &combine))
            .collect()
    } else {
        let thread_loads = ranges(chunks.len(), workers());
        let mut per_thread: Vec<Vec<A>> = Vec::new();
        std::thread::scope(|scope| {
            let chunks = &chunks;
            let map = &map;
            let combine = &combine;
            let identity = &identity;
            let handles: Vec<_> = thread_loads
                .into_iter()
                .map(|load| {
                    scope.spawn(move || {
                        chunks[load]
                            .iter()
                            .map(|range| range.clone().map(map).fold(identity(), combine))
                            .collect::<Vec<A>>()
                    })
                })
                .collect();
            per_thread = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        per_thread.into_iter().flatten().collect()
    };
    chunk_results.into_iter().fold(identity(), combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_matches_sequential() {
        for len in [0, 1, 100, PARALLEL_THRESHOLD + 7] {
            let par = par_map_collect(len, |i| i * 3);
            let seq: Vec<usize> = (0..len).map(|i| i * 3).collect();
            assert_eq!(par, seq, "len {len}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_index_once() {
        let mut items = vec![0u64; PARALLEL_THRESHOLD * 3 + 5];
        par_for_each_mut(&mut items, |i, v| *v = i as u64 + 1);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn block_helper_covers_ragged_tail_exactly_once() {
        for (len, block) in [
            (0usize, 7usize),
            (5, 7),
            (PARALLEL_THRESHOLD * 2 + 13, 512),
            (PARALLEL_THRESHOLD, PARALLEL_THRESHOLD),
        ] {
            let mut out = vec![0.0f64; len];
            par_for_each_block_mut(&mut out, block, |b, chunk| {
                for (j, cell) in chunk.iter_mut().enumerate() {
                    *cell += (b * block + j) as f64 + 1.0;
                }
            });
            for (k, &v) in out.iter().enumerate() {
                assert_eq!(v, k as f64 + 1.0, "len {len} block {block} idx {k}");
            }
        }
    }

    #[test]
    fn map_combine_is_deterministic_and_correct() {
        let len = PARALLEL_THRESHOLD * 2 + 3;
        let a = par_map_combine(len, || 0.0f64, |i| (i as f64).sin(), |x, y| x + y);
        let b = par_map_combine(len, || 0.0f64, |i| (i as f64).sin(), |x, y| x + y);
        assert_eq!(a, b, "two parallel runs disagree");
        // Matches the fixed-chunk sequential fold (NOT the naive
        // left-to-right sum — chunking changes float association).
        let seq: f64 = ranges(len, CHUNKS)
            .into_iter()
            .map(|r| r.map(|i| (i as f64).sin()).sum::<f64>())
            .fold(0.0, |x, y| x + y);
        assert_eq!(a, seq);
    }

    #[test]
    fn small_inputs_stay_inline() {
        // Just exercises the inline path for coverage of both branches.
        let v = par_map_collect(10, |i| i);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
        let s = par_map_combine(10, || 0usize, |i| i, |a, b| a + b);
        assert_eq!(s, 45);
    }

    #[test]
    fn ranges_partition_exactly() {
        for (len, pieces) in [(10, 3), (0, 4), (5, 8), (100, 7)] {
            let rs = ranges(len, pieces);
            let mut expect = 0;
            for r in &rs {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, len);
        }
    }
}
