//! Concurrency stress: the fault-injection catalog executed *under*
//! the worker pool.
//!
//! What `tests/fault_injection.rs` proves sequentially must keep
//! holding when the corrupted pipelines actually run on the executor: a
//! worker panic or typed error propagates as an [`SpsepError`] with
//! **no deadlock** (every scenario runs under a watchdog thread with a
//! hard timeout), **no wrong answer** (every answer `Oracle::batch`
//! computes on the pool is checked against Dijkstra), and **no leaked
//! threads** (the pool's worker census is identical before and after
//! the barrage, including after panics).

use std::panic::resume_unwind;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use rayon::prelude::*;
use rayon::with_max_threads;
use spsep_core::{run_protected, SpsepError};
use spsep_testkit::instance_corruptions;

/// Hard ceiling per scenario. Generous: the corrupted instances are
/// small and a healthy run takes well under a second even on one core.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Run `f` on a helper thread and fail loudly if it neither returns
/// nor panics within [`WATCHDOG`] — a hang here means the executor
/// deadlocked or leaked a latch, which must never survive CI.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog thread");
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without a panic"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: '{name}' exceeded {WATCHDOG:?} — executor deadlock")
        }
    }
}

/// Number of live `spsep-worker-*` threads of this process, read from
/// `/proc`. The pool spawns its full complement on first use and must
/// never grow or shrink afterwards — a drift in this census is a leak.
fn worker_census() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("spsep-worker"))
        .count()
}

#[test]
fn corrupted_instances_under_the_pool_never_hang_or_lie() {
    // Force the pool into existence before the census.
    let warmup: usize = (0..64usize).into_par_iter().sum();
    assert_eq!(warmup, 2016);
    let workers_before = worker_census();
    assert!(workers_before > 0, "pool must have spawned workers");

    for inst in instance_corruptions() {
        let n = inst.graph.n();
        with_watchdog(inst.name, move || {
            with_max_threads(4, || inst.assert_contract(&[0, n / 2, n - 1]));
        });
    }

    assert_eq!(
        worker_census(),
        workers_before,
        "worker census drifted — the pool leaked or lost threads"
    );
}

#[test]
fn worker_panics_surface_as_typed_executor_errors_not_hangs() {
    let warmup: usize = (0..64usize).into_par_iter().sum();
    assert_eq!(warmup, 2016);
    let workers_before = worker_census();

    for round in 0..10 {
        let result: Result<(), SpsepError> = with_watchdog("panic-round", move || {
            with_max_threads(4, || {
                run_protected("stress phase", || {
                    (0..512usize).into_par_iter().for_each(|i| {
                        assert!(i != 137, "injected worker fault (round {round})");
                    });
                })
            })
        });
        let err = result.expect_err("the injected fault must not vanish");
        let SpsepError::Executor { what } = &err else {
            panic!("expected SpsepError::Executor, got {err:?}");
        };
        assert!(
            what.contains("stress phase"),
            "missing phase context: {what}"
        );
        assert!(
            what.contains("injected worker fault"),
            "missing payload: {what}"
        );

        // The very next region must compute correctly — no poisoned
        // locks, no stuck claim cursors.
        let total: usize = with_max_threads(4, || (0..1000usize).into_par_iter().sum());
        assert_eq!(total, 499_500);
    }

    assert_eq!(
        worker_census(),
        workers_before,
        "worker census drifted across panic rounds"
    );
}

#[test]
fn concurrent_callers_share_the_pool_without_interference() {
    // Several OS threads drive capped parallel regions simultaneously —
    // claim loops, steal-backs, and latches all interleave on the same
    // injector queue. Every caller must still observe its own exact
    // results.
    with_watchdog("concurrent-callers", || {
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for _ in 0..5 {
                        let sum: u64 = with_max_threads(1 + t % 3, || {
                            (0..2000u64).into_par_iter().map(|x| x * x).sum()
                        });
                        assert_eq!(sum, 2_664_667_000);
                    }
                });
            }
        });
    });
}
