//! Deterministic data-parallel helpers on scoped `std` threads.
//!
//! The workspace previously leaned on `rayon` for its data-parallel
//! backends; this crate replaces the subset it used with `std::thread`
//! scoped fan-out, with one property rayon does not guarantee:
//! **determinism independent of thread count**. Work is split into
//! *fixed* contiguous blocks (the caller's block size) or chunks
//! (`CHUNKS`), never into `available_parallelism` pieces; chunk results
//! are combined in chunk order, and element outputs land at their input
//! index — so a run on 1 core and a run on 64 cores produce bit-identical
//! results. That matches the device layer's pairwise-sum discipline (all
//! backends agree bitwise) and keeps every experiment reproducible.
//!
//! # Dispatch
//!
//! Every helper takes the call's work as claimed FLOPs — for a device
//! kernel, the `flops` of the launch descriptor the cost model charges —
//! and sizes its fan-out from that, with one rule for all of them:
//!
//! * A call with fewer than two blocks or chunks, or whose work would
//!   give each thread less than [`MIN_FLOPS_PER_THREAD`], runs inline on
//!   the calling thread and spawns nothing. A 1024-row sweep is one
//!   block, so it never pays for a thread it cannot use.
//! * Otherwise it runs on `t` threads, the most that `available_parallelism`,
//!   the block or chunk count and the work (`flops / t ≥`
//!   [`MIN_FLOPS_PER_THREAD`]) allow. The blocks or chunks are dealt out
//!   as `t` contiguous shares; the calling thread runs the last share
//!   itself and `t − 1` scoped threads named `kdesel-par-<i>` run the
//!   others, so the caller never sits idle while a spawned thread does
//!   its work.
//! * In a block call ([`par_for_each_block_mut`]), a thread that has
//!   finished its share takes the blocks the others have not started,
//!   one at a time from the far end of their shares. Each thread still
//!   runs the first block of its own share. A spawned thread that starts
//!   late costs the call at most about one block, not its whole share.
//!   A late start is common: the host's scheduler may queue a new thread
//!   behind its parent on a busy core while another core idles. It did
//!   so for seconds at a time on a 2-vCPU KVM guest after an idle spell.
//!   Meanwhile the queued thread waits for the whole launch, not half of
//!   it, so an idle core has longer to pull it across.
//!
//! # Why no bit can move
//!
//! A share is a run of whole blocks or chunks, and a taken block is a
//! whole block. Block boundaries come from the caller's block size and
//! chunk boundaries from [`CHUNKS`] alone; every block writes only its
//! own output range, and chunk results are combined in chunk order after
//! all shares finish. The thread count and the timing decide *who*
//! computes a block, never *which* elements it covers or in what order
//! they are summed. Inline and fanned-out calls therefore return the same
//! bits.
//!
//! The device layer's *fused* sweeps (`sweep_reduce`,
//! `sweep_multi_reduce`, `sweep_batch`) lean on the same guarantee from
//! the other direction: because `par_for_each_block_mut` places every
//! block's outputs at their row index regardless of scheduling, a fused
//! launch feeds the pairwise reduction the exact element order the
//! unfused `sweep_multi` + `reduce_sum_columns` path would — which is
//! what makes fused-vs-unfused bit-identity a structural property rather
//! than a numerical accident.

#![deny(unsafe_code)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed chunk count for reductions — determinism demands this never
/// depend on the machine's core count.
pub const CHUNKS: usize = 64;

/// Claimed FLOPs each thread of a fanned-out call must carry; a call
/// whose work cannot give every thread this much runs inline.
///
/// Splitting work `W` over `t` threads pays off when each share takes
/// longer than starting the thread that runs it, so the minimum is one
/// spawn-and-join expressed in sweep work. Both figures come from the
/// `par_dispatch` group of `crates/bench/benches/micro.rs` (medians of
/// three runs on a 2-vCPU AVX-512 Xeon KVM guest, with the sweeps on
/// zmm lane packs): a one-block Gaussian 8D estimate, one fused
/// `sweep_reduce` of 1024 × 484 claimed FLOPs, took 84 µs run inline by
/// this rule (`work_sized/1`) and 138 µs on a scoped thread spawned for
/// it (`scoped_spawn/1`), a 54 µs spawn-and-join; at the inline
/// 5.9 GFLOP/s of claim that is 3.2e5 claimed FLOPs, so the minimum
/// stays 3.0e5 (on ymm-width sweeps it measured 158 µs, a 95 µs
/// spawn-and-join and 3.1 GFLOP/s: also 3.0e5). The 64-block estimate
/// took 5.8 ms with every block on the caller (`inline/64`) and 3.8 ms
/// under this rule, on the caller and one spawned thread
/// (`work_sized/64`).
pub const MIN_FLOPS_PER_THREAD: f64 = 3.0e5;

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

/// Threads (the caller included) a call of `pieces` fixed blocks or
/// chunks carrying `flops` claimed FLOPs runs on: the dispatch rule of
/// the crate docs. NaN or negative work counts as none.
fn fan_out(pieces: usize, flops: f64) -> usize {
    if pieces < 2 {
        return 1;
    }
    // Float-to-int `as` saturates, and maps NaN to 0.
    let by_work = (flops / MIN_FLOPS_PER_THREAD) as usize;
    by_work.clamp(1, workers().min(pieces))
}

/// Splits `len` items into at most `pieces` contiguous ranges.
fn ranges(len: usize, pieces: usize) -> Vec<Range<usize>> {
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

/// Runs `work` on every share and returns the results in share order:
/// the last share on the calling thread, each other one on a scoped
/// thread named `kdesel-par-<i>`. A single share spawns nothing.
fn run_shares<S, R, W>(mut shares: Vec<S>, work: W) -> Vec<R>
where
    S: Send,
    R: Send,
    W: Fn(S) -> R + Sync,
{
    let Some(last) = shares.pop() else {
        return Vec::new();
    };
    if shares.is_empty() {
        return vec![work(last)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(i, share)| {
                std::thread::Builder::new()
                    .name(format!("kdesel-par-{i}"))
                    .spawn_scoped(scope, move || work(share))
                    .expect("spawning a kdesel-par thread")
            })
            .collect();
        let mine = work(last);
        let mut out: Vec<R> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        out.push(mine);
        out
    })
}

/// Calls `f(i, &mut items[i])` for every element; `flops` is the whole
/// call's claimed work. Elements are independent, so any split is
/// deterministic. They go out in [`CHUNKS`] blocks, so a thread takes
/// another thread's work a block at a time, not an element at a time.
pub fn par_for_each_mut<T, F>(items: &mut [T], flops: f64, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let block = items.len().div_ceil(CHUNKS).max(1);
    par_for_each_block_mut(items, block, flops, |b, chunk| {
        for (j, item) in chunk.iter_mut().enumerate() {
            f(b * block + j, item);
        }
    });
}

/// Calls `f(block_index, &mut out[block*block_elems..])` for every
/// contiguous block of at most `block_elems` elements — the trailing
/// block may be shorter; `flops` is the whole call's claimed work.
/// Blocks are fixed by `block_elems` alone (never by worker count), so a
/// 1-core and a 64-core run see identical block boundaries; each block's
/// output is written by exactly one thread.
///
/// This is the dispatch shape of the cache-blocked columnar sweeps: the
/// device layer hands each block of rows to the vectorized kernel as one
/// unit-stride stripe.
///
/// # Panics
/// Panics when `block_elems` is zero.
pub fn par_for_each_block_mut<T, F>(out: &mut [T], block_elems: usize, flops: f64, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block_elems > 0, "zero block size");
    let threads = fan_out(out.len().div_ceil(block_elems), flops);
    for_each_block_on(threads, out, block_elems, f);
}

/// [`par_for_each_block_mut`] on exactly `threads` shares (fewer when
/// there are fewer blocks). Each thread runs its share's first block,
/// then the rest of its share front to back, then takes the other
/// shares' remaining blocks from their far ends.
fn for_each_block_on<T, F>(threads: usize, out: &mut [T], block_elems: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let blocks = out.len().div_ceil(block_elems);
    if threads < 2 || blocks < 2 {
        for (b, block) in out.chunks_mut(block_elems).enumerate() {
            f(b, block);
        }
        return;
    }
    let mut rest = out;
    let (firsts, queues): (Vec<_>, Vec<_>) = ranges(blocks, threads)
        .into_iter()
        .map(|range| {
            let elems = (range.len() * block_elems).min(rest.len());
            let (share, tail) = std::mem::take(&mut rest).split_at_mut(elems);
            rest = tail;
            let (first, later) = share.split_at_mut(block_elems.min(elems));
            let queue = Blocks {
                next: range.start + 1,
                data: later,
                block_elems,
            };
            ((range.start, first), Mutex::new(queue))
        })
        .unzip();
    let queues = &queues;
    let shares: Vec<_> = firsts.into_iter().enumerate().collect();
    run_shares(shares, |(k, (b, first))| {
        f(b, first);
        while let Some((b, block)) = take(&queues[k], Blocks::pop_front) {
            f(b, block);
        }
        for queue in queues[k + 1..].iter().chain(&queues[..k]) {
            while let Some((b, block)) = take(queue, Blocks::pop_back) {
                f(b, block);
            }
        }
    });
}

/// A block taken from a share, with its index.
type Taken<'a, T> = Option<(usize, &'a mut [T])>;

/// Whole blocks not yet started, contiguous: `data` begins with block
/// `next` (only the call's last block may be short).
struct Blocks<'a, T> {
    next: usize,
    data: &'a mut [T],
    block_elems: usize,
}

impl<'a, T> Blocks<'a, T> {
    /// The first block, with its index.
    fn pop_front(&mut self) -> Taken<'a, T> {
        if self.data.is_empty() {
            return None;
        }
        let len = self.block_elems.min(self.data.len());
        let (block, later) = std::mem::take(&mut self.data).split_at_mut(len);
        self.data = later;
        self.next += 1;
        Some((self.next - 1, block))
    }

    /// The last block, with its index.
    fn pop_back(&mut self) -> Taken<'a, T> {
        if self.data.is_empty() {
            return None;
        }
        let last = (self.data.len() - 1) / self.block_elems;
        let (earlier, block) = std::mem::take(&mut self.data).split_at_mut(last * self.block_elems);
        self.data = earlier;
        Some((self.next + last, block))
    }
}

/// Takes one block from `queue` with `pop`, holding its lock only while
/// taking it.
fn take<'a, T>(
    queue: &Mutex<Blocks<'a, T>>,
    pop: fn(&mut Blocks<'a, T>) -> Taken<'a, T>,
) -> Taken<'a, T> {
    pop(&mut queue.lock().expect("no thread panics while taking a block"))
}

/// Parallel map-reduce with an explicit accumulator combiner (the shape
/// `rayon`'s `map(..).reduce(identity, combine)` had); `flops` is the
/// whole call's claimed work. Deterministic: fixed chunking, in-order
/// combination.
pub fn par_map_combine<A, M, C, I>(len: usize, flops: f64, identity: I, map: M, combine: C) -> A
where
    A: Send,
    M: Fn(usize) -> A + Sync,
    C: Fn(A, A) -> A + Sync,
    I: Fn() -> A + Sync,
{
    let chunks = ranges(len, CHUNKS);
    let threads = fan_out(chunks.len(), flops);
    let shares: Vec<&[Range<usize>]> = ranges(chunks.len(), threads)
        .into_iter()
        .map(|load| &chunks[load])
        .collect();
    run_shares(shares, |share| {
        share
            .iter()
            .map(|range| range.clone().map(&map).fold(identity(), &combine))
            .collect::<Vec<A>>()
    })
    .into_iter()
    .flatten()
    .fold(identity(), combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Work no thread count can refuse.
    const HUGE: f64 = 1e18;

    /// Per block: its index, first element, length, thread and thread name.
    type Visit = (usize, usize, usize, ThreadId, Option<String>);

    /// Runs a block helper over `0..len` (each element holding its index)
    /// and returns every block visit, sorted by block index.
    fn visits(
        len: usize,
        block: usize,
        run: impl FnOnce(&mut [usize], &Mutex<Vec<Visit>>),
    ) -> Vec<Visit> {
        let mut out: Vec<usize> = (0..len).collect();
        let seen = Mutex::new(Vec::new());
        run(&mut out, &seen);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|v| v.0);
        assert_eq!(
            seen.len(),
            len.div_ceil(block),
            "a block was skipped or repeated"
        );
        for (b, v) in seen.iter().enumerate() {
            assert_eq!(
                v.0,
                b,
                "block {b} visited {} times",
                seen.iter().filter(|w| w.0 == b).count()
            );
        }
        seen
    }

    fn record(seen: &Mutex<Vec<Visit>>, b: usize, chunk: &[usize]) {
        let me = std::thread::current();
        seen.lock().unwrap().push((
            b,
            chunk[0],
            chunk.len(),
            me.id(),
            me.name().map(str::to_owned),
        ));
    }

    #[test]
    fn for_each_mut_visits_every_index_once() {
        for flops in [0.0, HUGE] {
            let mut items = vec![0u64; 3 * 2048 + 5];
            par_for_each_mut(&mut items, flops, |i, v| *v += i as u64 + 1);
            for (i, &v) in items.iter().enumerate() {
                assert_eq!(v, i as u64 + 1);
            }
        }
    }

    #[test]
    fn block_helper_covers_ragged_tail_exactly_once() {
        for (len, block) in [(0usize, 7usize), (5, 7), (2 * 2048 + 13, 512), (2048, 2048)] {
            for flops in [0.0, HUGE] {
                let mut out = vec![0.0f64; len];
                par_for_each_block_mut(&mut out, block, flops, |b, chunk| {
                    for (j, cell) in chunk.iter_mut().enumerate() {
                        *cell += (b * block + j) as f64 + 1.0;
                    }
                });
                for (k, &v) in out.iter().enumerate() {
                    assert_eq!(v, k as f64 + 1.0, "len {len} block {block} idx {k}");
                }
            }
        }
    }

    #[test]
    fn single_block_and_small_calls_run_on_the_caller() {
        let caller = std::thread::current().id();
        // One block: unsplittable, whatever its work.
        let one = visits(1000, 1024, |out, seen| {
            par_for_each_block_mut(out, 1024, HUGE, |b, c| record(seen, b, c))
        });
        // 64 blocks whose work cannot pay for a second thread.
        let small = visits(64 * 16, 16, |out, seen| {
            par_for_each_block_mut(out, 16, 1.9 * MIN_FLOPS_PER_THREAD, |b, c| {
                record(seen, b, c)
            })
        });
        for v in one.iter().chain(&small) {
            assert_eq!(v.3, caller, "block {} left the calling thread", v.0);
        }
        let mut items = vec![0u8; 4096];
        par_for_each_mut(&mut items, 1.0, |_, _| {
            assert_eq!(std::thread::current().id(), caller)
        });
        par_map_combine(
            4096,
            1.0,
            || (),
            |_| assert_eq!(std::thread::current().id(), caller),
            |_, _| {},
        );
    }

    /// Distinct threads among `seen`, in order of first appearance.
    fn threads_of(seen: &[Visit]) -> Vec<ThreadId> {
        let mut ids = Vec::new();
        for v in seen {
            if !ids.contains(&v.3) {
                ids.push(v.3);
            }
        }
        ids
    }

    #[test]
    fn fan_out_starts_each_share_on_its_owner_and_names_the_helpers() {
        let caller = std::thread::current().id();
        let (len, block): (usize, usize) = (64 * 16 + 3, 16);
        let blocks = len.div_ceil(block);
        for threads in 2..=4 {
            let seen = visits(len, block, |out, seen| {
                for_each_block_on(threads, out, block, |b, c| record(seen, b, c))
            });
            // Whoever finishes early may take later blocks of any share,
            // but each share's first block runs on the share's owner: the
            // caller for the last share, `kdesel-par-<k>` for share `k`.
            let shares = ranges(blocks, threads);
            for (k, share) in shares.iter().enumerate() {
                let first = &seen[share.start];
                if k + 1 == shares.len() {
                    assert_eq!(first.3, caller, "last share's first block off the caller");
                } else {
                    assert_ne!(first.3, caller, "share {k}'s first block on the caller");
                    assert_eq!(first.4.as_deref(), Some(format!("kdesel-par-{k}").as_str()));
                }
            }
            assert_eq!(threads_of(&seen).len(), threads);
            assert!(seen
                .iter()
                .all(|v| v.3 == caller
                    || v.4.as_deref().is_some_and(|n| n.starts_with("kdesel-par-"))));
        }
        // The public entry point fans out as far as the host allows.
        let seen = visits(len, block, |out, seen| {
            par_for_each_block_mut(out, block, HUGE, |b, c| record(seen, b, c))
        });
        assert_eq!(threads_of(&seen).len(), workers().min(blocks));
        let last = ranges(blocks, workers().min(blocks)).pop().unwrap();
        assert_eq!(seen[last.start].3, caller);
    }

    #[test]
    fn a_finished_thread_takes_a_late_share_from_its_far_end() {
        // Share 0's first block holds its thread until every other block
        // has run, so only the caller can run the rest of share 0: it
        // takes them after its own share, last block first.
        let caller = std::thread::current().id();
        let (len, block): (usize, usize) = (40 * 8, 8);
        let blocks = len.div_ceil(block);
        // The other blocks, in the order they ran.
        let ran = (Mutex::new(Vec::new()), std::sync::Condvar::new());
        let seen = visits(len, block, |out, seen| {
            for_each_block_on(2, out, block, |b, c| {
                record(seen, b, c);
                let (order, changed) = &ran;
                let mut order = order.lock().unwrap();
                if b == 0 {
                    let wait = std::time::Duration::from_secs(60);
                    let (order, timeout) = changed
                        .wait_timeout_while(order, wait, |order| order.len() < blocks - 1)
                        .unwrap();
                    drop(order);
                    assert!(
                        !timeout.timed_out(),
                        "no thread took share 0's later blocks"
                    );
                } else {
                    order.push(b);
                    changed.notify_all();
                }
            })
        });
        let share0 = ranges(blocks, 2)[0].clone();
        assert_eq!(seen[0].4.as_deref(), Some("kdesel-par-0"));
        assert!(seen[1..].iter().all(|v| v.3 == caller));
        let order = ran.0.into_inner().unwrap();
        let taken = &order[order.len() - (share0.len() - 1)..];
        let far_end_first: Vec<usize> = (1..share0.end).rev().collect();
        assert_eq!(taken, far_end_first);
    }

    #[test]
    fn block_boundaries_do_not_depend_on_thread_count() {
        let layout = |threads: usize| -> Vec<(usize, usize, usize)> {
            visits(10_000, 97, |out, seen| {
                for_each_block_on(threads, out, 97, |b, c| record(seen, b, c))
            })
            .into_iter()
            .map(|v| (v.0, v.1, v.2))
            .collect()
        };
        let reference = layout(1);
        for threads in [2, 3, 5, workers()] {
            assert_eq!(layout(threads), reference, "{threads} threads");
        }
        assert!(reference.iter().all(|&(b, first, _)| first == b * 97));
    }

    #[test]
    fn fan_out_follows_the_work() {
        assert_eq!(fan_out(1, HUGE), 1);
        assert_eq!(fan_out(0, HUGE), 1);
        assert_eq!(fan_out(64, 0.0), 1);
        assert_eq!(fan_out(64, f64::NAN), 1);
        assert_eq!(fan_out(64, 1.99 * MIN_FLOPS_PER_THREAD), 1);
        assert_eq!(fan_out(64, 2.0 * MIN_FLOPS_PER_THREAD), workers().min(2));
        assert_eq!(fan_out(64, HUGE), workers().min(64));
        assert_eq!(fan_out(3, HUGE), workers().min(3));
    }

    #[test]
    fn map_combine_is_deterministic_and_correct() {
        let len = 2 * 2048 + 3;
        let run =
            |flops| par_map_combine(len, flops, || 0.0f64, |i| (i as f64).sin(), |x, y| x + y);
        let a = run(HUGE);
        assert_eq!(
            a.to_bits(),
            run(HUGE).to_bits(),
            "two parallel runs disagree"
        );
        assert_eq!(
            a.to_bits(),
            run(0.0).to_bits(),
            "inline and fanned out disagree"
        );
        // Matches the fixed-chunk sequential fold (NOT the naive
        // left-to-right sum — chunking changes float association).
        let seq: f64 = ranges(len, CHUNKS)
            .into_iter()
            .map(|r| r.map(|i| (i as f64).sin()).sum::<f64>())
            .fold(0.0, |x, y| x + y);
        assert_eq!(a, seq);
        assert_eq!(par_map_combine(10, 0.0, || 0usize, |i| i, |a, b| a + b), 45);
        assert_eq!(par_map_combine(0, 0.0, || 0usize, |i| i, |a, b| a + b), 0);
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
