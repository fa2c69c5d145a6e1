//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! We deliberately avoid a global thread-pool: federated-learning runs spawn
//! short, coarse-grained bursts of work (one task per client, or one row
//! block per matmul), and scoped threads keep the borrow story simple while
//! guaranteeing data-race freedom.
//!
//! **Thread count.** The cap is the parallelism the OS grants the process,
//! detected *once* and kept: the detection reads the affinity mask and the
//! cgroup quota (≈ 21 µs measured), and [`max_threads`] sits on the path of
//! every [`Tensor::matmul`](crate::tensor::Tensor::matmul), where that read
//! used to cost more than the 10×64·64×128 product it preceded. A process
//! whose quota changes while it runs keeps the value it started with;
//! [`set_max_threads`] overrides it for tests.
//!
//! **No fan-out inside a fan-out.** Every thread spawned by [`par_map`],
//! [`par_chunks_mut`] or [`par_split_mut`] is marked, and [`in_worker`]
//! reports the mark. The workers of an outer fan-out already own the cores,
//! so a kernel that would otherwise spawn (`Tensor::matmul` above its
//! threshold) stays serial when it finds itself inside one: measured on a
//! 629-sample shard, the inference loss took 5.5 ms with nested spawns and
//! 2.2 ms without.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Override the maximum number of worker threads (0 = the detected value).
///
/// Intended for tests and benchmarks that need single-threaded execution;
/// production code should leave this at the default.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Number of worker threads that parallel helpers will use.
pub fn max_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Whether the current thread was spawned by [`par_map`] or
/// [`par_chunks_mut`]. Kernels that can fan out themselves check this and
/// stay serial inside a worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// First statement of every worker thread this module spawns. The thread
/// ends with its scope, so the mark is never cleared.
fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Apply `f` to disjoint mutable chunks of `data` in parallel.
///
/// `f(chunk_start, chunk)` receives the absolute element offset of the chunk
/// so callers can recover global indices. Falls back to a sequential call
/// when the work is too small to amortize thread spawning.
pub fn par_chunks_mut<T, F>(data: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = max_threads().min(data.len() / min_chunk.max(1));
    par_split_mut(data, threads, f);
}

/// [`par_chunks_mut`] with the thread count chosen by the caller: `data`
/// in `threads` near-equal contiguous chunks, one scoped thread each, or
/// one call on the caller's thread when `threads <= 1`. Kernels that decide
/// from their own measured threshold whether to fan out call this, and
/// their tests pass explicit counts to pin threaded = serial on any box.
pub fn par_split_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if threads <= 1 || data.is_empty() {
        f(0, data);
        return;
    }
    let chunk = data.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (i, piece) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                enter_worker();
                f(i * chunk, piece)
            });
        }
    });
}

/// Run one closure per item of `items` in parallel and collect the results
/// in input order.
///
/// Used for "one task per federated client" parallelism where each task is
/// heavy (a full local-training pass), so the per-thread overhead is noise.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (block, out_block) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            let start = block * chunk;
            scope.spawn(move || {
                enter_worker();
                for (j, slot) in out_block.iter_mut().enumerate() {
                    let i = start + j;
                    *slot = Some(f(i, &items[i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker left a result slot empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data = vec![0u32; 10_000];
        par_chunks_mut(&mut data, 16, |start, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v += (start + j) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_small_input_sequential() {
        let mut data = vec![1.0f32; 3];
        par_chunks_mut(&mut data, 1024, |_, chunk| {
            for v in chunk {
                *v *= 2.0;
            }
        });
        assert_eq!(data, vec![2.0; 3]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let squares = par_map(&items, |_, &x| x * x);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn par_map_empty() {
        let items: Vec<u8> = vec![];
        let out: Vec<u8> = par_map(&items, |_, &x| x);
        assert!(out.is_empty());
    }

    /// The one test of this binary that touches the process-wide override,
    /// so the worker-mark checks that need two threads live here too.
    #[test]
    fn max_threads_override() {
        let detected = max_threads();
        assert!(detected >= 1);
        set_max_threads(3);
        assert_eq!(max_threads(), 3);

        assert!(!in_worker(), "the caller's thread is not a worker");
        let marks = par_map(&[(); 4], |_, _| in_worker());
        assert_eq!(marks, vec![true; 4], "par_map closures run in workers");
        let mut marks = vec![false; 64];
        par_chunks_mut(&mut marks, 1, |_, chunk| chunk.fill(in_worker()));
        assert!(marks.iter().all(|&m| m), "par_chunks_mut closures too");
        assert!(!in_worker(), "the mark does not leak to the caller");

        set_max_threads(0);
        assert_eq!(max_threads(), detected, "0 returns to the detected value");
    }
}
