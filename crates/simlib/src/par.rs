//! Deterministic in-tree parallelism.
//!
//! The advisor's hot paths — multi-start NLP solving, cost-model
//! calibration, configuration sweeps, the experiment suite — are
//! embarrassingly parallel: independent tasks whose results are
//! combined by an order-sensitive reduction. The build is hermetic by
//! policy (no rayon), so this module provides the one primitive those
//! layers need: [`par_map`], an *ordered* parallel map over a slice
//! built on [`std::thread::scope`].
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns exactly what `items.iter().map(f)`
//! would return, in the same order, at **any** thread count — workers
//! claim items from a shared index counter but results are reassembled
//! by item index before returning. Callers keep determinism by never
//! sharing mutable state across tasks: any randomness a task needs
//! must come from a [`SimRng`](crate::SimRng) derived from a fixed
//! per-task seed (see [`task_seed`]), never from a generator threaded
//! sequentially through the loop.
//!
//! Panics inside `f` are propagated to the caller: the pool stops
//! claiming new items and re-raises the panic payload of the
//! smallest-index failed item, matching what the serial loop would
//! have raised when every panicking item is preceded only by
//! non-panicking ones.
//!
//! # Thread-count knob
//!
//! The pool size comes from the `WASLA_THREADS` environment variable;
//! unset, empty, `0`, or unparsable values fall back to
//! [`std::thread::available_parallelism`]. A thread count of 1 (or a
//! single-item input) short-circuits to the plain serial map with no
//! threads spawned, which is also the path the discrete-event
//! simulators must stay on: they are inherently sequential and are
//! never routed through this module.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The pool size [`par_map`] uses: `WASLA_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
///
/// Read from the environment on every call (it is a handful of
/// nanoseconds next to any task worth parallelizing), so tests and
/// long-lived processes can re-tune it between calls.
pub fn threads() -> usize {
    std::env::var("WASLA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// The machine's available parallelism (1 when it cannot be read),
/// whatever `WASLA_THREADS` says.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives the seed for an independent task from a base seed and the
/// task's index, by mixing both through SplitMix64-style finalizers.
///
/// This is the seed-derivation scheme of the concurrency policy:
/// parallel layers give every task its own generator seeded by
/// `(base, index)` so measurements are bit-identical whether tasks run
/// serially or concurrently, in any interleaving.
pub fn task_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `items` on the [`threads`]-sized pool, returning the
/// results in item order. Equivalent to `items.iter().map(f).collect()`
/// at every thread count; see the module docs for the full contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// [`par_map`] with an explicit thread count (tests and benches use
/// this to pin the pool size without touching the environment).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        // The serial path: same iteration order, no threads, and the
        // reference behaviour the parallel path must reproduce.
        return items.iter().map(f).collect();
    }

    // Work-stealing by shared index counter: each worker claims the
    // next unclaimed item and records (index, outcome) locally, so the
    // only cross-thread traffic is the counter and the poison flag.
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    type Caught = Box<dyn std::any::Any + Send + 'static>;
    let parts: Vec<Vec<(usize, Result<R, Caught>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while !poisoned.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                            Ok(r) => out.push((i, Ok(r))),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                out.push((i, Err(payload)));
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map workers never panic directly"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panic: Option<(usize, Caught)> = None;
    for (i, outcome) in parts.into_iter().flatten() {
        match outcome {
            Ok(r) => slots[i] = Some(r),
            Err(payload) => {
                if panic.as_ref().map(|(pi, _)| i < *pi).unwrap_or(true) {
                    panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map_with(8, &[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_with(64, &[1u64, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let items: Vec<u64> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_with(4, &items, |&x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .expect_err("panic must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 17"), "payload {msg:?}");
    }

    #[test]
    fn task_seed_mixes_base_and_index() {
        // Distinct (base, index) pairs must give distinct streams; in
        // particular index 0 must not pass the base seed through.
        assert_ne!(task_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..1000).map(|i| task_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        assert_ne!(task_seed(1, 5), task_seed(2, 5));
    }

    #[test]
    fn threads_reads_env_knob() {
        // Only asserts the fallback shape: the suite must not mutate
        // process-global env from a unit test (other tests read it).
        assert!(threads() >= 1);
    }
}
