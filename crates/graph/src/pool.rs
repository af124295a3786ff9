//! The workspace's one scoped thread-pool utility.
//!
//! Index build and the search funnel's three per-item phases (range
//! queries per probe group, the structure check and verification per
//! candidate) all want the same thing: "map this slice across the
//! cores, keep the results in input order, and don't bother below a
//! break-even batch size". The pool alone decides between the serial
//! path and a fan-out; call sites write one path and pass the state
//! they would have used serially, which the calling thread works in
//! either way. Before this module each site hand-rolled its
//! own `std::thread::scope` chunking; they now share this one, so the
//! work-sharing policy, the break-even guard and the panic story live
//! in a single place.
//!
//! Threads are scoped (borrowed inputs need no `'static`) and spawned
//! per call; a persistent pool would drag in channels and lifetime
//! plumbing the workspace otherwise avoids. The spawn is not free, and
//! the policy is built around what it was measured to cost (2 cores,
//! `tight_10k`, three fan-outs per query): a spawned thread ran its
//! first item 0.11–0.17 ms after the call, the second one 0.29–0.62 ms
//! after it, and each fan-out's wall time was 0.22–0.26 ms more than
//! its busier worker's own run time, so two threads on fixed halves
//! returned 1.27× (range queries), 1.47× (structure check) and 1.40×
//! (verification) over the same query forced serial. Hence:
//!
//! * **the caller works** — a pool of `workers` threads spawns
//!   `workers − 1` helpers and the calling thread starts on the slice
//!   at once instead of sleeping through the helpers' start-up;
//! * **blocks are claimed, not assigned** — every thread takes the next
//!   small block off one shared cursor until the slice is spent, so a
//!   helper that starts late, or items whose cost is uneven, shift work
//!   to whoever is free instead of stretching the fan-out to its
//!   slowest fixed share.
//!
//! Fan-outs do not nest: a `map` issued from inside a pool worker runs
//! serially (a thread-local marks worker threads — the caller too,
//! while it works), so composed sites — queries fanned out by a caller
//! whose searches would each fan out verification — stay at one thread
//! per core instead of workers².

use std::sync::atomic::{AtomicUsize, Ordering};

std::thread_local! {
    /// Set inside pool workers so nested `map` calls run serially —
    /// an outer fan-out already owns the cores, and stacking fan-outs
    /// (e.g. queries fanned out by a caller, each verifying candidates
    /// in parallel) would oversubscribe workers² threads.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Blocks a fan-out cuts per worker: enough that an uneven slice or a
/// late helper rebalances, few enough that claiming stays free next to
/// the work of a block.
const BLOCKS_PER_WORKER: usize = 8;

/// A work-sharing policy over scoped threads.
#[derive(Clone, Copy, Debug)]
pub struct ScopedPool {
    workers: usize,
}

impl ScopedPool {
    /// A pool with `workers` threads; `0` means one per available core.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            workers
        };
        ScopedPool { workers }
    }

    /// Number of threads a fan-out runs on, the calling thread
    /// included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the current thread is working inside a pool fan-out —
    /// a spawned helper, or the calling thread for as long as its own
    /// `map` runs (it reads `false` again once the call returns or
    /// unwinds). Fan-outs issued from workers run serially, in the
    /// caller's state ([`ScopedPool::map_with`]).
    pub fn in_worker() -> bool {
        IN_POOL_WORKER.with(std::cell::Cell::get)
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Runs serially when the pool has one worker, `items` is shorter
    /// than `min_parallel` (below break-even, threads cost more than
    /// they save) or the call is issued from inside a pool worker;
    /// otherwise shares the slice among the calling thread and scoped
    /// helpers.
    pub fn map<T, R>(
        &self,
        items: &[T],
        min_parallel: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_with(items, min_parallel, &mut (), || (), |(), i, item| f(i, item))
    }

    /// Like [`ScopedPool::map`], but `f` works in per-thread state —
    /// scratch buffers, RNGs, anything it wants to reuse across the
    /// items a thread ends up with. The calling thread works in `state`,
    /// the caller's own, both on the serial path and for its share of a
    /// fan-out; `init` builds state only for helpers, when a helper
    /// claims its first block (so at most `workers − 1` times, and never
    /// on the serial path).
    pub fn map_with<S, T, R>(
        &self,
        items: &[T],
        min_parallel: usize,
        state: &mut S,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        if self.workers <= 1 || items.len() < min_parallel.max(2) || ScopedPool::in_worker() {
            return items.iter().enumerate().map(|(i, item)| f(state, i, item)).collect();
        }
        let block = (items.len() / (self.workers * BLOCKS_PER_WORKER)).max(1);
        let helpers = self.workers.min(items.len().div_ceil(block)) - 1;
        // The cursor hands out block starts and publishes nothing else
        // (items are shared read-only, results travel through `join`),
        // so relaxed ordering is enough.
        let next = AtomicUsize::new(0);
        // The next unclaimed block as `(start, items)`; `None` once the
        // slice is spent.
        let claim = || {
            let start = next.fetch_add(block, Ordering::Relaxed);
            (start < items.len()).then(|| (start, &items[start..items.len().min(start + block)]))
        };
        let run = |state: &mut S, (start, part): (usize, &[T])| {
            (start, part.iter().enumerate().map(|(i, item)| f(state, start + i, item)).collect())
        };
        // Panics are caught per thread — the caller's included, so its
        // worker mark always comes off and every helper is joined —
        // and a thread that panicked spends the cursor, so the others
        // stop at their next claim.
        let guarded = |work: &mut dyn FnMut() -> Vec<(usize, Vec<R>)>| {
            IN_POOL_WORKER.with(|w| w.set(true));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
            IN_POOL_WORKER.with(|w| w.set(false));
            if outcome.is_err() {
                next.store(items.len(), Ordering::Relaxed);
            }
            outcome
        };
        // One thread's share: its blocks as `(start, results)`. A helper
        // builds its state when it claims its first block.
        let helper = || {
            let mut own = None;
            guarded(&mut || {
                std::iter::from_fn(&claim).map(|b| run(own.get_or_insert_with(&init), b)).collect()
            })
        };
        let mut outcomes = Vec::with_capacity(helpers + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(helper)).collect();
            outcomes
                .push(guarded(&mut || std::iter::from_fn(&claim).map(|b| run(state, b)).collect()));
            // A panic that escaped catch_unwind (e.g. from a panic
            // hook) still surfaces.
            outcomes.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        });
        // The *first* payload (the caller's, then the helpers' in spawn
        // order) resurfaces on the calling thread — one panic, no
        // leaked threads, and the pool (a plain policy struct) stays
        // usable for the next call.
        let mut blocks = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(part) => blocks.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        blocks.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(items.len());
        results.extend(blocks.into_iter().flat_map(|(_, part)| part));
        results
    }
}

impl Default for ScopedPool {
    /// One worker per available core.
    fn default() -> Self {
        ScopedPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_input_order() {
        // Each item spins for its own value, which falls 100x from the
        // first item to the last: whoever claims the early blocks is
        // still busy while the rest of the slice is handed out around
        // it, and the results must come back in input order anyway.
        let items: Vec<u32> = (0..100).map(|i| 100_000 - i * 1_000).collect();
        for workers in [1, 2, 3, 7] {
            let pool = ScopedPool::new(workers);
            let spun = pool.map(&items, 0, |i, &x| {
                (0..x).fold(0u32, |acc, k| std::hint::black_box(acc ^ k));
                (i, x * 2)
            });
            assert_eq!(spun.len(), 100);
            for (i, (idx, v)) in spun.iter().enumerate() {
                assert_eq!(*idx, i, "{workers} workers");
                assert_eq!(*v, items[i] * 2, "{workers} workers");
            }
        }
    }

    #[test]
    fn below_break_even_runs_serially_with_one_state() {
        let pool = ScopedPool::new(8);
        // The serial path builds no state: every item runs in the
        // caller's, which sees all three.
        let built = std::sync::atomic::AtomicUsize::new(0);
        let mut seen = Vec::new();
        let out = pool.map_with(
            &[1, 2, 3],
            64,
            &mut seen,
            || {
                built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Vec::new()
            },
            |seen, _, &x: &i32| {
                seen.push(x);
                x
            },
        );
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(built.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn per_worker_state_is_reused_within_a_chunk() {
        // (A thread's "chunk" is whatever blocks it claims.)
        for workers in [2, 3, 7] {
            let pool = ScopedPool::new(workers);
            let built = std::sync::atomic::AtomicUsize::new(0);
            // Each thread's state counts the items it saw; every item
            // is visited exactly once whoever claims it.
            let mut on_caller = 0usize;
            let seen: Vec<usize> = pool.map_with(
                &[0u8; 64],
                2,
                &mut on_caller,
                || {
                    built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    0usize
                },
                |state, _, _| {
                    *state += 1;
                    *state
                },
            );
            assert_eq!(seen.len(), 64);
            assert!(seen.iter().all(|&c| c >= 1));
            let built = built.load(std::sync::atomic::Ordering::SeqCst);
            assert!(built < workers, "{built} helper states for {workers} workers");
            // The caller counts in its own state; what it left went to
            // helpers, in states of theirs.
            assert!(built > 0 || on_caller == 64, "{on_caller} items on the caller, no helper");
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two workers = the caller plus at most one helper, and the
        // caller's share runs under the worker mark.
        let caller = std::thread::current().id();
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        ScopedPool::new(2).map(&[(); 256], 2, |_, ()| {
            assert!(ScopedPool::in_worker());
            threads.lock().unwrap().insert(std::thread::current().id());
        });
        let mut threads = threads.into_inner().unwrap();
        threads.remove(&caller);
        assert!(threads.len() <= 1, "{} threads besides the caller ran f", threads.len());
        assert!(!ScopedPool::in_worker(), "the mark comes off when the call returns");
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        assert!(ScopedPool::new(0).workers() >= 1);
        assert!(ScopedPool::default().workers() >= 1);
    }

    #[test]
    fn empty_input() {
        let pool = ScopedPool::new(4);
        let out: Vec<i32> = pool.map(&[] as &[i32], 0, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_surfaces_once_and_pool_stays_usable() {
        let pool = ScopedPool::new(4);
        let items: Vec<u32> = (0..64).collect();
        // Four items panic, whoever claims them; exactly one payload
        // must resurface, all workers must be joined (scoped threads
        // guarantee no leak), and the same pool must serve the next
        // call normally.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, 2, |_, &x| {
                if x % 16 == 7 {
                    panic!("worker bang at {x}");
                }
                x
            })
        }));
        let payload = caught.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .expect("panic payload is a message");
        assert!(message.contains("worker bang"), "payload resurfaces verbatim: {message}");
        // The pool is a plain policy struct: the next call works.
        let out = pool.map(&items, 2, |_, &x| x * 2);
        assert_eq!(out.len(), 64);
        assert_eq!(out[10], 20);
    }

    #[test]
    fn caller_panic_surfaces_once_and_pool_stays_usable() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let pool = ScopedPool::new(2);
        let caller = std::thread::current().id();
        // The helper holds its first item until the caller is inside
        // `f`, so the caller is certain to claim a block; the caller
        // panics in the first item it is handed.
        let caller_in = AtomicBool::new(false);
        let panics = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&[(); 64], 2, |_, ()| {
                if std::thread::current().id() == caller {
                    caller_in.store(true, Ordering::SeqCst);
                    panics.fetch_add(1, Ordering::SeqCst);
                    panic!("caller bang");
                }
                while !caller_in.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
        }));
        let payload = caught.expect_err("the caller's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller bang"));
        assert_eq!(panics.load(Ordering::SeqCst), 1, "the caller stops at its first panic");
        assert!(!ScopedPool::in_worker(), "the mark comes off when the call unwinds");
        // Off the mark, the next call fans out again and works.
        let out = pool.map(&[1u32, 2, 3, 4], 2, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6, 8]);
        assert!(!ScopedPool::in_worker());
    }

    #[test]
    fn serial_path_panic_propagates_plainly() {
        let pool = ScopedPool::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&[1, 2, 3], 0, |_, &x: &i32| {
                if x == 2 {
                    panic!("serial bang");
                }
                x
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn nested_fan_outs_run_serially_in_workers() {
        // An inner map issued from inside a pool worker must not spawn
        // its own threads: it builds no helper state (the serial path
        // runs in the caller's), whereas a top-level inner map with the
        // same shape would hand blocks to helpers.
        let outer = ScopedPool::new(4);
        let states_per_inner: Vec<usize> = outer.map(&[(); 8], 2, |_, _| {
            let counter = std::sync::atomic::AtomicUsize::new(0);
            let inner = ScopedPool::new(4);
            inner.map_with(
                &[(); 16],
                2,
                &mut 0,
                || counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
                |_, _, _| (),
            );
            counter.load(std::sync::atomic::Ordering::SeqCst)
        });
        assert!(states_per_inner.iter().all(|&n| n == 0), "nested map spawned workers");
    }
}
