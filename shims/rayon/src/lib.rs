//! Offline stand-in for the `rayon` crate — now a real executor.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API subset it uses. Earlier revisions ran every
//! `par_iter` sequentially and spawned an OS thread per [`join`]; this
//! revision executes parallel regions on a fixed-size worker pool
//! (`pool`: shared injector queue, chunk-grain work stealing,
//! steal-back `join`) while preserving a strict **determinism
//! contract** (`iter`: chunk boundaries are a pure function of
//! input length, merges happen in chunk order), so results are
//! bit-identical at any thread count.
//!
//! Thread-count control, strongest first:
//!
//! 1. [`with_max_threads`] / [`ThreadPool::install`] — scoped cap,
//!    inherited by nested regions and by pool workers executing the
//!    scope's chunks;
//! 2. the `SPSEP_THREADS` environment variable — process-wide default
//!    (read once, at first pool use);
//! 3. `std::thread::available_parallelism()`.
//!
//! A panic inside a parallel region is caught per chunk, drains the
//! region, and is re-raised exactly once on the calling thread (lowest
//! chunk index wins, deterministically) — never a poisoned lock, never
//! a hang. `spsep_core::preprocess` maps that re-raised panic to
//! `SpsepError::Executor`.

mod pool;

pub mod iter;

pub use pool::{join, pool_stats, reset_pool_stats, with_max_threads, PoolStats, WorkerStats};

/// Below this weight (caller-chosen units: elements, vertices, …)
/// [`join_weighted`] runs sequentially — publishing to the pool costs a
/// queue push + latch, which tiny workloads (e.g. Algorithm 4.1 on
/// small leaves) should not pay.
pub const JOIN_SEQ_CUTOFF: usize = 256;

/// [`join`] with a granularity cutoff: runs `a(); b()` inline when
/// `weight < `[`JOIN_SEQ_CUTOFF`], otherwise parallelizes.
pub fn join_weighted<A, B, RA, RB>(weight: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if weight < JOIN_SEQ_CUTOFF {
        let ra = a();
        let rb = b();
        (ra, rb)
    } else {
        join(a, b)
    }
}

/// Effective thread count of the current scope: the innermost
/// [`with_max_threads`] cap, else `SPSEP_THREADS`, else the host
/// parallelism.
pub fn current_num_threads() -> usize {
    pool::effective_threads()
}

/// Total threads the shared pool can bring to bear (its worker count
/// plus the calling thread). [`with_max_threads`] clamps to this; it is
/// at least 8 even on single-core hosts so concurrency tests can
/// oversubscribe.
pub fn max_threads() -> usize {
    pool::capacity()
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirror. The shim has one shared pool; "building a pool of
/// `n` threads" maps to a scoped [`with_max_threads`]`(n)` cap applied
/// by [`ThreadPool::install`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the pool at `n` threads (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Pool mirror: a capability to run closures under a thread-count cap.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread-count cap in scope.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.num_threads == 0 {
            f()
        } else {
            with_max_threads(self.num_threads, f)
        }
    }
}

pub mod prelude {
    //! The parallel-iterator trait surface, mirroring `rayon::prelude`.

    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator, ParallelSlice, ParallelSliceMut, TryReduceExt,
    };
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::prelude::*;

    #[test]
    fn join_returns_both_and_propagates_panics() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
        let res = catch_unwind(|| {
            super::join(|| (), || panic!("boom"));
        });
        assert!(res.is_err());
        // The pool must stay usable after a panic (no poisoned state).
        let (a, b) = super::join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn join_prefers_first_closures_panic() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            super::join(|| panic!("first"), || panic!("second"));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn join_weighted_small_runs_inline_without_pool_handoff() {
        // Pin the cutoff contract: below JOIN_SEQ_CUTOFF both closures
        // run on the calling thread, in order.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let (ta, tb) = super::join_weighted(
            super::JOIN_SEQ_CUTOFF - 1,
            || {
                order.lock().unwrap().push('a');
                std::thread::current().id()
            },
            || {
                order.lock().unwrap().push('b');
                std::thread::current().id()
            },
        );
        assert_eq!((ta, tb), (caller, caller));
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
        // At the cutoff the second closure may migrate; results are
        // unchanged either way.
        let (ra, rb) = super::join_weighted(super::JOIN_SEQ_CUTOFF, || 6 * 7, || 6 * 8);
        assert_eq!((ra, rb), (42, 48));
    }

    #[test]
    fn parallel_regions_actually_use_multiple_threads() {
        // With enough chunks and an oversubscribed cap, at least two
        // distinct threads must participate (workers park otherwise).
        let ids = Mutex::new(HashSet::new());
        super::with_max_threads(4, || {
            (0..1024usize).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::hint::black_box(std::time::Instant::now());
                std::thread::sleep(std::time::Duration::from_micros(50));
            });
        });
        assert!(
            ids.lock().unwrap().len() >= 2,
            "expected >=2 participating threads, got {}",
            ids.lock().unwrap().len()
        );
    }

    #[test]
    fn with_max_threads_one_stays_on_caller() {
        let caller = std::thread::current().id();
        super::with_max_threads(1, || {
            (0..256usize).into_par_iter().for_each(|_| {
                assert_eq!(std::thread::current().id(), caller);
            });
            let (ta, tb) = super::join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!((ta, tb), (caller, caller));
        });
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn float_sums_are_bit_identical_across_thread_counts() {
        // Non-associative op: bit-identity requires the fixed chunk
        // boundaries + ordered merge, which is the contract under test.
        let xs: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let expect: f64 = super::with_max_threads(1, || xs.par_iter().map(|&x| x).sum());
        for threads in [2usize, 4, 8] {
            let got: f64 = super::with_max_threads(threads, || xs.par_iter().map(|&x| x).sum());
            assert_eq!(expect.to_bits(), got.to_bits(), "threads={threads}");
        }
        let red =
            super::with_max_threads(8, || xs.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b));
        assert_eq!(expect.to_bits(), red.to_bits());
    }

    #[test]
    fn par_iter_adapters_match_std() {
        let v = vec![3u64, 1, 2];
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 4]);
        let sum: u64 = (0..10u64).into_par_iter().sum();
        assert_eq!(sum, 45);
        let mut w = v.clone();
        w.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(w, vec![4, 2, 3]);
        w.par_sort_unstable();
        assert_eq!(w, vec![2, 3, 4]);
        let mut buf = [0u8; 10];
        buf.par_chunks_mut(3).enumerate().for_each(|(i, c)| {
            c.fill(u8::try_from(i).unwrap());
        });
        assert_eq!(buf, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        let picked: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter_map(|i| (i % 7 == 0).then_some(i))
            .collect();
        let expect: Vec<usize> = (0..100).filter(|i| i % 7 == 0).collect();
        assert_eq!(picked, expect);
        let chunk_heads: Vec<u8> = buf.par_chunks(3).map(|c| c[0]).collect();
        assert_eq!(chunk_heads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        // Above the cutoff (parallel chunk sort + k-way merge).
        let mut xs: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 4096)
            .collect();
        let mut expect = xs.clone();
        expect.sort_unstable();
        xs.par_sort_unstable();
        assert_eq!(xs, expect);
        // And bit-identical across thread counts.
        for threads in [1usize, 4] {
            let mut ys: Vec<u64> = (0..20_000u64)
                .map(|i| i.wrapping_mul(2654435761) % 4096)
                .collect();
            super::with_max_threads(threads, || ys.par_sort_unstable());
            assert_eq!(ys, expect, "threads={threads}");
        }
    }

    #[test]
    fn try_reduce_matches_sequential_fold_and_reports_first_error() {
        let ok: Result<usize, &str> = (0..1000usize)
            .into_par_iter()
            .map(Ok)
            .try_reduce(|| 0, |a, b| Ok(a.max(b)));
        assert_eq!(ok, Ok(999));
        // Several failing indices: the smallest-index error must win,
        // regardless of which chunk finishes first.
        let err: Result<usize, usize> = (0..1000usize)
            .into_par_iter()
            .map(|i| if i % 251 == 250 { Err(i) } else { Ok(i) })
            .try_reduce(|| 0, |a, b| Ok(a.max(b)));
        assert_eq!(err, Err(250));
    }

    #[test]
    fn panic_in_parallel_region_propagates_once_and_pool_survives() {
        for _ in 0..3 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                super::with_max_threads(4, || {
                    (0..512usize).into_par_iter().for_each(|i| {
                        assert!(i != 97, "deterministic failure");
                    });
                });
            }));
            assert!(err.is_err());
        }
        // Pool still answers correctly afterwards.
        let total: usize = (0..100usize).into_par_iter().sum();
        assert_eq!(total, 4950);
    }

    #[test]
    fn nested_parallel_regions_work() {
        let hits = AtomicUsize::new(0);
        super::with_max_threads(4, || {
            (0..8usize).into_par_iter().for_each(|_| {
                (0..8usize).into_par_iter().for_each(|_| {
                    let (_, _) = super::join(
                        || hits.fetch_add(1, Ordering::Relaxed),
                        || hits.fetch_add(1, Ordering::Relaxed),
                    );
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn pool_installs_apply_thread_cap() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.install(super::current_num_threads), 4);
        assert!(super::current_num_threads() >= 1);
        assert!(super::max_threads() >= 8);
    }

    #[test]
    fn pool_stats_observe_executor_activity() {
        let handled = |s: &super::PoolStats| {
            s.workers.iter().map(|w| w.tasks).sum::<u64>() + s.reclaimed_handles + s.steal_backs
        };
        let before = super::pool_stats();
        super::with_max_threads(4, || {
            (0..4096usize).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
                std::thread::sleep(std::time::Duration::from_micros(10));
            });
            for _ in 0..8 {
                let (a, b) = super::join(|| std::hint::black_box(1), || std::hint::black_box(2));
                assert_eq!((a, b), (1, 2));
            }
        });
        let after = super::pool_stats();
        assert_eq!(after.workers.len(), super::max_threads() - 1);
        assert!(after.workers[0].name.starts_with("spsep-worker-"));
        assert!(after.max_queue_depth >= 1);
        // Every published handle is either executed by a worker,
        // reclaimed by its caller, or (joins) stolen back — so the
        // combined counter must advance across a parallel region.
        assert!(handled(&after) > handled(&before));
    }

    #[test]
    fn spsep_threads_parsing() {
        use crate::pool::parse_thread_env;
        assert_eq!(parse_thread_env(None), None);
        assert_eq!(parse_thread_env(Some("")), None);
        assert_eq!(parse_thread_env(Some("0")), None);
        assert_eq!(parse_thread_env(Some("junk")), None);
        assert_eq!(parse_thread_env(Some("4")), Some(4));
        assert_eq!(parse_thread_env(Some(" 16 ")), Some(16));
        assert_eq!(parse_thread_env(Some("9999999")), None);
    }
}
