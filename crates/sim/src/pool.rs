//! Deterministic scoped worker pool for embarrassingly-parallel sweeps.
//!
//! The paper's evaluation is a large grid of independent day-long
//! simulations (Figs. 14–25, Tables 2–7); the experiment harness fans
//! those cells across OS threads. Parallelism must never change results,
//! so the pool enforces a strict determinism contract:
//!
//! * each cell is a pure function of its *input index* and payload — the
//!   worker that happens to run it carries no state into it;
//! * results are collected **in input order**, regardless of completion
//!   order, so serial and parallel runs produce byte-identical output;
//! * no wall-clock, thread-id or OS randomness enters the cell closure
//!   (`clippy::disallowed_methods` bans those reads here like in the
//!   rest of the simulation kernel).
//!
//! The scheduler is a chunk-free shared cursor: workers race on an atomic
//! index and claim the next unstarted cell. That ordering race affects
//! only *which worker* computes a cell, never the cell's inputs, so the
//! output stays identical at any worker count (including 1, which runs
//! the exact same code path inline with zero thread overhead).
//!
//! # Examples
//!
//! ```
//! use ins_sim::pool;
//!
//! let squares = pool::scoped_map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Any worker count yields the same, input-ordered result.
//! assert_eq!(squares, pool::scoped_map(1, &[1u64, 2, 3, 4, 5], |_, &x| x * x));
//! ```

// The one sanctioned owner of threads and atomics in the workspace: the
// `expect`s below exempt only the shared cursor and the scoped threads.
#[expect(
    clippy::disallowed_types,
    reason = "the pool owns the workspace's shared cursor"
)]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads the host machine can usefully run, for "use all cores"
/// defaults (`--threads 0` in the experiment binaries). Falls back to 1
/// when the OS cannot say.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning the results **in input order**.
///
/// `f` receives `(index, &item)` so a cell can derive per-cell state
/// (e.g. fork an RNG stream keyed by the index) without any shared
/// mutation. `threads` is clamped to `[1, items.len()]`; `threads <= 1`
/// runs inline on the calling thread.
///
/// # Determinism
///
/// The result vector depends only on `items` and `f`, never on the
/// worker count or OS scheduling: serial and parallel runs are
/// byte-identical for byte-identical inputs.
///
/// # Panics
///
/// If `f` panics for any cell, the panic is propagated to the caller
/// after the remaining workers drain — a failed experiment cell can
/// never be silently dropped from the results.
pub fn scoped_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    #[expect(
        clippy::disallowed_types,
        reason = "the pool owns the workspace's shared cursor"
    )]
    let cursor = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool owns the workspace's threads"
    )]
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                // Re-raise the worker's panic payload on the caller's
                // thread so the run fails loudly, not partially.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Reassemble in input order. Every index in [0, len) was claimed by
    // exactly one worker, so the slots fill completely.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for local in &mut per_worker {
        for (i, r) in local.drain(..) {
            debug_assert!(slots[i].is_none(), "cell {i} computed twice");
            slots[i] = Some(r);
        }
    }
    // Unreachable by construction: the cursor hands out each index
    // exactly once, and any worker panic has already propagated.
    #[expect(clippy::expect_used, reason = "internal invariant, not an error path")]
    let results = slots
        .into_iter()
        .map(|s| s.expect("every cell index claimed exactly once"))
        .collect();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 3, 4, 8, 200] {
            assert_eq!(
                scoped_map(threads, &items, |_, &x| x * 3 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c", "d"];
        let got = scoped_map(3, &items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = scoped_map(4, &[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn parallel_equals_serial_for_seeded_rng_cells() {
        use crate::rng::SimRng;
        // The intended usage pattern: each cell forks its own stream
        // keyed by the cell index, so workers never share RNG state.
        let cells: Vec<u64> = (0..32).collect();
        let run = |threads: usize| {
            scoped_map(threads, &cells, |i, &seed| {
                let mut rng = SimRng::seed(seed).fork(&format!("cell-{i}"));
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            scoped_map(4, &[1u32, 2, 3, 4, 5, 6], |_, &x| {
                assert!(x != 4, "cell failure");
                x
            })
        });
        assert!(result.is_err(), "a failed cell must fail the whole map");
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
