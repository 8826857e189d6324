//! Order-preserving data-parallel helpers for the legality engine.
//!
//! The legality checks parallelised in `bschema-core` must produce
//! reports *identical* to their sequential counterparts, so every helper
//! here preserves input order: items are split into contiguous chunks,
//! chunks are processed on scoped worker threads, and the per-chunk
//! results are concatenated back in chunk order. With `workers <= 1`
//! the closure runs inline on the caller's thread — no spawn, no
//! synchronisation.
//!
//! How many workers a piece of work gets is decided here, once, from
//! its size ([`workers_for`]); no caller configures it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// The number of worker threads the host offers, per
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Directory entries one worker must have to itself before a second
/// worker is started.
///
/// Measured (EXPERIMENTS.md "ENGINE · PR 22", 2 vCPUs, ten alternating
/// pairs a size): one worker checks an entry in ≈0.25 µs; with the
/// second core free, two workers beat one in 2/10 pairs at |D| = 5 000,
/// 8/10 at 6 000, 9/10 at 7 000 and 10/10 from 8 000 (×0.73) to 50 000
/// (×0.56); with the second core taken by another tenant they lose by
/// 4–14% up to 20 000. 4 096 starts the second worker where it first won
/// cleanly and gives every worker ≥ 1 ms of work, so thread start-up
/// (≈0.1 ms) stays under a tenth of it.
pub const GRAIN: usize = 4096;

/// The fan-out policy: how many workers a check over `items` directory
/// entries runs on — one per [`GRAIN`] entries, at least one, at most
/// [`available_threads`]. `items` is |D| for a full legality check and
/// |ΔD| for an incremental one, so a served write is inline by
/// construction and a bulk load fans out where the host has the cores.
pub fn workers_for(items: usize) -> usize {
    match items / GRAIN {
        // Below two grains the answer does not depend on the host, and
        // asking it is not free: `available_parallelism` reads the
        // scheduler affinity and cgroup quota, tens of µs a call — more
        // than a served write's whole Δ-check.
        0 | 1 => 1,
        wanted => wanted.min(available_threads()),
    }
}

/// Splits `items` into at most `workers` contiguous chunks, applies `f`
/// to each chunk concurrently, and concatenates the outputs in chunk
/// order. The result is exactly `f` applied chunk-by-chunk
/// sequentially — only the wall-clock differs.
pub fn par_flat_map_chunks<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    par_flat_map_chunks_indexed(items, workers, |_, chunk| f(chunk))
}

/// Like [`par_flat_map_chunks`], but `f` also receives the chunk's index
/// (its position in the chunk order). The inline `workers <= 1` path
/// passes index 0. Lets instrumentation attribute per-chunk work to a
/// stable ordinal independent of worker scheduling.
///
/// Worker failure degrades gracefully: a chunk whose worker thread
/// panics is retried sequentially on the caller's thread after the
/// scope closes, so one dying worker slows the check down instead of
/// aborting it. A panic on the sequential retry (a deterministic fault,
/// not a transient one) propagates to the caller.
pub fn par_flat_map_chunks_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return f(0, items);
    }
    // Ceiling division so every chunk is non-empty and order is total.
    let chunk_len = items.len().div_ceil(workers);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let mut results: Vec<Option<Vec<R>>> = Vec::with_capacity(chunks.len());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(i, &chunk)| {
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, chunk)))
                })
            })
            .collect();
        for handle in handles {
            // Outer Err = the thread died outside catch_unwind (cannot
            // happen for unwinding panics, but treat it as a failed
            // chunk rather than propagating a resume_unwind here).
            results.push(match handle.join() {
                Ok(Ok(chunk_result)) => Some(chunk_result),
                Ok(Err(_)) | Err(_) => None,
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .flat_map(|(i, slot)| slot.unwrap_or_else(|| f(i, chunks[i])))
        .collect()
}

/// Applies `f` to each item concurrently (chunked as in
/// [`par_flat_map_chunks`]) and returns the outputs in item order.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_flat_map_chunks(items, workers, |chunk| chunk.iter().map(&f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_preserves_order_at_any_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u32> = items.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect();
        for workers in [1, 2, 3, 7, 64, 0] {
            let got = par_flat_map_chunks(&items, workers, |chunk| {
                chunk.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect()
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<i64> = (-50..50).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * x).collect();
        assert_eq!(par_map(&items, 4, |x| x * x), expect);
        assert_eq!(par_map(&items, 1, |x| x * x), expect);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[9u8], 8, |x| *x), vec![9]);
    }

    #[test]
    fn indexed_chunks_see_their_position() {
        use std::sync::Mutex;
        let items: Vec<u32> = (0..10).collect();
        let seen = Mutex::new(Vec::new());
        let got = par_flat_map_chunks_indexed(&items, 4, |i, chunk| {
            seen.lock().unwrap().push((i, chunk.to_vec()));
            chunk.to_vec()
        });
        assert_eq!(got, items);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        // 10 items over 4 workers -> chunks of 3: [0..3, 3..6, 6..9, 9..10].
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (0, vec![0, 1, 2]));
        assert_eq!(seen[3], (3, vec![9]));
        // Inline path reports index 0.
        let inline = par_flat_map_chunks_indexed(&items, 1, |i, chunk| {
            assert_eq!(i, 0);
            chunk.to_vec()
        });
        assert_eq!(inline, items);
    }

    #[test]
    fn panicking_worker_chunk_is_retried_sequentially() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Quiet the expected worker-panic backtrace spam.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..20).collect();
        let attempts = AtomicU64::new(0);
        let got = par_flat_map_chunks_indexed(&items, 4, |i, chunk| {
            // Chunk 2 dies on its first attempt only (a transient fault).
            if i == 2 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("worker down");
            }
            chunk.iter().map(|&x| x * 10).collect()
        });
        std::panic::set_hook(prev);
        let expect: Vec<u32> = items.iter().map(|&x| x * 10).collect();
        assert_eq!(got, expect);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn thread_resolution() {
        assert!(available_threads() >= 1);
        // Below two grains of work — every served write — one worker.
        for items in [0, 1, 3, GRAIN, 2 * GRAIN - 1] {
            assert_eq!(workers_for(items), 1, "items={items}");
        }
        // From there one worker per grain, never more than the host has.
        assert_eq!(workers_for(2 * GRAIN), 2.min(available_threads()));
        assert_eq!(workers_for(1000 * GRAIN), 1000.min(available_threads()));
    }
}
