#![warn(missing_docs)]

//! # eff2-parallel
//!
//! Deterministic data-parallel helpers over `std::thread::scope`, replacing
//! the workspace's rayon dependency (unavailable offline) and powering the
//! batch-search, ground-truth and chunk-formation parallelism.
//!
//! Design rules:
//!
//! * **Output order is input order.** Workers claim items from a shared
//!   atomic cursor (dynamic load balancing — BAG clusters and search
//!   queries vary wildly in cost) but every result is written back to its
//!   item's slot, so callers observe exactly the sequential result vector.
//! * **Parallelism never changes values.** These helpers only run the
//!   caller's pure-per-item closures; anything order-sensitive (virtual
//!   clocks, event logs) must live *inside* one item. See
//!   `DESIGN.md` §kernels for why search parallelism stops at the query
//!   boundary.
//! * **Workers carry nothing between items.** Each item is one call of
//!   `f(index, item)`; there is no per-worker scratch, so no state can
//!   leak from one item into the next.
//! * `EFF2_THREADS` caps the worker count process-wide (useful for the
//!   thread-count determinism diff and for forcing sequential execution);
//!   [`try_par_map_threads`] takes an explicit count instead.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spawns a detached worker thread.
///
/// Every long-lived thread in the workspace is created through this helper
/// (the auditor's `det.thread_spawn` rule bans raw `std::thread::spawn`
/// outside this crate), so thread provenance stays auditable in one place
/// and future policy — naming, stack sizes, counting — has a single home.
pub fn spawn<T, F>(f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::spawn(f)
}

/// The default worker count: `EFF2_THREADS` if set and positive, otherwise
/// the machine's available parallelism.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("EFF2_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to [`max_threads`] workers, preserving input
/// order in the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(max_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (`threads == 1` runs inline).
fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map_threads(threads, items, |i, t| Ok::<R, Never>(f(i, t))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// An error type with no values; lets the infallible path reuse the
/// fallible driver without a dead error branch.
enum Never {}

/// Maps a fallible `f` over `items` in parallel. Returns the first error in
/// *input order* (deterministic regardless of scheduling); remaining items
/// may be skipped once an error is seen.
pub fn try_par_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_par_map_threads(max_threads(), items, f)
}

/// [`try_par_map`] with an explicit worker count (`threads == 1` runs
/// inline).
pub fn try_par_map_threads<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Workers claim indices from a shared cursor and buffer (index, value)
    // pairs locally; results are reassembled in input order afterwards.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);

    let mut buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        match f(i, item) {
                            Ok(r) => local.push((i, r)),
                            Err(e) => {
                                let mut slot = first_err
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                // Keep the error with the smallest index so
                                // the outcome is schedule-independent.
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, e));
                                }
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                // A worker panic is a bug in `f`; surface it on the caller's
                // thread instead of swallowing it or double-panicking.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    if let Some((_, e)) = first_err
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for buffer in &mut buffers {
        for (i, r) in buffer.drain(..) {
            if let Some(slot) = out.get_mut(i) {
                *slot = Some(r);
            }
        }
    }
    debug_assert!(
        out.iter().all(Option::is_some),
        "every index must be processed exactly once"
    );
    Ok(out.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1_000).collect();
        let out = par_map_threads(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_threads(threads, &items, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_threads(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn error_reported_is_lowest_index() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 4, 16] {
            let got: Result<Vec<usize>, usize> =
                try_par_map_threads(
                    threads,
                    &items,
                    |i, &x| {
                        if x % 100 == 37 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                );
            // Workers race, but the reported error must always be the
            // smallest failing index that any worker reached; with the
            // cursor starting at 0 every failing run sees index 37 fail
            // before any later failure can be *recorded* with a smaller
            // index. The guarantee tested: deterministic, minimal index
            // among observed failures ⇒ equals 37 here because item 37 is
            // always claimed (claims are in order).
            assert_eq!(got, Err(37), "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_threads(4, &items, |_, &x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_env_override_parses() {
        // Only exercises the parser logic indirectly: max_threads() must be
        // positive whatever the environment.
        assert!(max_threads() >= 1);
    }
}
