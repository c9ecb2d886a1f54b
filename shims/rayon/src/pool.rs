//! The fixed-size worker pool behind the `rayon` shim.
//!
//! One global pool of parked worker threads is spawned lazily on first
//! use. Parallel regions are **batches**: a caller splits its index
//! space into chunks (a pure function of the length — see
//! [`crate::iter`]), publishes "come help" handles on a shared injector
//! queue, and then *participates itself*, claiming chunks from a shared
//! atomic cursor. Idle workers pop handles and join the claim loop —
//! chunked work stealing without per-task allocation. [`join`] publishes
//! its second closure the same way and **steals it back** (runs it
//! inline) if no worker has picked it up by the time the first closure
//! finishes, so small joins never pay a handoff.
//!
//! Progress/deadlock argument: a thread waiting on a batch or join latch
//! first (a) claims every remaining chunk itself and (b) removes its own
//! stale handles from the injector, so it only ever waits on work that
//! another thread is *actively executing*; those threads either run to
//! completion or wait on strictly deeper regions, and recursion depth is
//! finite, so the bottom-most region always makes progress.
//!
//! Panics inside a chunk are caught, recorded (lowest chunk index wins,
//! for determinism), fast-drain the rest of the batch, and are re-raised
//! on the calling thread once every helper has retired — never a poisoned
//! mutex, never a hang. `spsep_core::preprocess` converts the re-raised
//! panic into `SpsepError::Executor`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Lock acquisition that shrugs off poisoning: a panicked thread must
/// surface as a propagated panic / typed error, never as a secondary
/// poisoned-mutex panic (or hang) on an innocent thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimum pool capacity. The pool keeps at least this many threads
/// (they park when idle) so that [`with_max_threads`] can exercise real
/// 2/4/8-way concurrency — e.g. for the differential test layer — even
/// on hosts that expose a single core.
const MIN_CAPACITY: usize = 8;

/// Hard ceiling on `SPSEP_THREADS`, guarding against a stray
/// `SPSEP_THREADS=1000000`.
const MAX_THREADS: usize = 1024;

/// A type-erased pointer to a stack-pinned [`Batch`] or join job. The
/// submitting call blocks until every handle is retired, which is what
/// keeps the erased borrow alive strictly longer than any worker access.
#[derive(Copy, Clone)]
struct Task {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: the pointed-to job outlives every access (retire protocol
// above) and all shared mutation goes through atomics/locks.
unsafe impl Send for Task {}

pub(crate) struct Pool {
    injector: Mutex<VecDeque<Task>>,
    work_available: Condvar,
    /// Worker threads + 1 (the calling thread participates).
    capacity: usize,
    /// Effective concurrency when no cap is installed:
    /// `SPSEP_THREADS`, defaulting to the host parallelism.
    default_threads: usize,
    /// Telemetry, one slot per worker thread (`capacity - 1` entries).
    worker_telemetry: Vec<WorkerTelemetry>,
    /// Telemetry: `join` second-closures the caller stole back.
    steal_backs: AtomicU64,
    /// Telemetry: stale handles reclaimed by their submitting caller.
    reclaimed_handles: AtomicU64,
    /// Telemetry: high-water mark of the injector queue length.
    max_queue_depth: AtomicU64,
}

/// Per-worker telemetry counters. All updates are relaxed atomics on the
/// side of task execution — purely observational, never consulted by
/// scheduling decisions, so enabling/reading them cannot perturb results.
#[derive(Default)]
struct WorkerTelemetry {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
}

/// Snapshot of the pool's telemetry counters ([`pool_stats`]).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Per-worker counters, in worker order (the submitting caller's own
    /// inline participation is not a pool worker and is not counted).
    pub workers: Vec<WorkerStats>,
    /// `join` second-closures stolen back (run inline) by their caller.
    pub steal_backs: u64,
    /// Published handles reclaimed unclaimed by their caller.
    pub reclaimed_handles: u64,
    /// Maximum injector queue depth observed at publish time.
    pub max_queue_depth: u64,
}

/// One worker thread's counters.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Thread name (`spsep-worker-3`).
    pub name: String,
    /// Nanoseconds spent executing popped task handles.
    pub busy_ns: u64,
    /// Task handles executed.
    pub tasks: u64,
}

/// Snapshot the pool telemetry. Counters accumulate from pool creation
/// (or the last [`reset_pool_stats`]).
pub fn pool_stats() -> PoolStats {
    let pool = pool();
    PoolStats {
        workers: pool
            .worker_telemetry
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerStats {
                name: format!("spsep-worker-{i}"),
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                tasks: w.tasks.load(Ordering::Relaxed),
            })
            .collect(),
        steal_backs: pool.steal_backs.load(Ordering::Relaxed),
        reclaimed_handles: pool.reclaimed_handles.load(Ordering::Relaxed),
        max_queue_depth: pool.max_queue_depth.load(Ordering::Relaxed),
    }
}

/// Zero all telemetry counters (so a measured region can be bracketed by
/// `reset_pool_stats()` … `pool_stats()`).
pub fn reset_pool_stats() {
    let pool = pool();
    for w in &pool.worker_telemetry {
        w.busy_ns.store(0, Ordering::Relaxed);
        w.tasks.store(0, Ordering::Relaxed);
    }
    pool.steal_backs.store(0, Ordering::Relaxed);
    pool.reclaimed_handles.store(0, Ordering::Relaxed);
    pool.max_queue_depth.store(0, Ordering::Relaxed);
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

/// Parse a `SPSEP_THREADS` value. Returns `None` (→ host default) for
/// absent, empty, non-numeric, zero, or absurd values.
pub(crate) fn parse_thread_env(value: Option<&str>) -> Option<usize> {
    let n: usize = value?.trim().parse().ok()?;
    (1..=MAX_THREADS).contains(&n).then_some(n)
}

pub(crate) fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let default_threads = parse_thread_env(std::env::var("SPSEP_THREADS").ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let capacity = default_threads.max(MIN_CAPACITY);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            injector: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            capacity,
            default_threads,
            worker_telemetry: (0..capacity - 1).map(|_| WorkerTelemetry::default()).collect(),
            steal_backs: AtomicU64::new(0),
            reclaimed_handles: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        }));
        // Return only once every worker is running (and so carries its
        // thread name): callers that census the pool's threads right
        // after first use must see all of them.
        let started = Arc::new(Barrier::new(capacity));
        for i in 0..capacity - 1 {
            let started = Arc::clone(&started);
            std::thread::Builder::new()
                .name(format!("spsep-worker-{i}"))
                .spawn(move || worker_loop(pool, i, &started))
                .expect("failed to spawn spsep worker thread");
        }
        started.wait();
        pool
    })
}

thread_local! {
    /// Per-thread concurrency cap; 0 = unset (use the pool default).
    /// Inherited by workers for the duration of each task they run, so
    /// nested parallelism under [`with_max_threads`] stays capped.
    static CAP: Cell<usize> = const { Cell::new(0) };
}

/// Restore guard for [`CAP`] (panic-safe).
struct CapGuard(usize);

impl CapGuard {
    fn set(cap: usize) -> CapGuard {
        CapGuard(CAP.with(|c| c.replace(cap)))
    }
}

impl Drop for CapGuard {
    fn drop(&mut self) {
        CAP.with(|c| c.set(self.0));
    }
}

/// The number of threads the *current* parallel region may use: the
/// innermost [`with_max_threads`] cap, else `SPSEP_THREADS`, else the
/// host parallelism. Chunking never depends on this — only the number
/// of helpers recruited does — so results are identical at any value.
pub(crate) fn effective_threads() -> usize {
    let cap = CAP.with(|c| c.get());
    if cap == 0 {
        pool().default_threads
    } else {
        cap
    }
}

/// Total threads the pool can bring to bear (workers + caller).
pub(crate) fn capacity() -> usize {
    pool().capacity
}

/// Run `f` with the effective thread count capped to `n` (clamped to
/// `1..=capacity`). Nested parallel regions started by `f` — including
/// on worker threads executing `f`'s chunks — inherit the cap.
pub fn with_max_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.clamp(1, capacity());
    let _guard = CapGuard::set(n);
    f()
}

fn worker_loop(pool: &'static Pool, index: usize, started: &Barrier) {
    started.wait();
    let telemetry = &pool.worker_telemetry[index];
    loop {
        let task = {
            let mut q = lock(&pool.injector);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = pool
                    .work_available
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let started = Instant::now();
        // Task entry points catch user panics internally; a panic
        // escaping here would skip handle retirement and hang the
        // submitting caller, so abort loudly instead of unwinding.
        if catch_unwind(AssertUnwindSafe(|| unsafe { (task.exec)(task.data) })).is_err() {
            eprintln!("spsep rayon shim: internal executor panic; aborting");
            std::process::abort();
        }
        telemetry
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        telemetry.tasks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Completion latch shared between a caller and its helpers. Held via
/// `Arc` by every worker that touches the job, so the final notify can
/// never race with the caller destroying it.
struct Latch {
    /// Published handles not yet retired.
    outstanding: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(outstanding: usize) -> Latch {
        Latch {
            outstanding: Mutex::new(outstanding),
            cv: Condvar::new(),
        }
    }

    fn retire(&self, count: usize) {
        let mut st = lock(&self.outstanding);
        *st -= count;
        self.cv.notify_all();
    }

    /// Block until all handles retired and `done()` holds.
    fn wait(&self, done: impl Fn() -> bool) {
        let mut st = lock(&self.outstanding);
        while *st != 0 || !done() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wake the caller so it can re-check `done()`.
    fn ping(&self) {
        drop(lock(&self.outstanding));
        self.cv.notify_all();
    }
}

/// One parallel-for region, pinned on the caller's stack.
struct Batch<'a> {
    /// Chunk runner; receives a chunk index in `0..n_chunks`.
    body: &'a (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Claim cursor.
    next: AtomicUsize,
    /// Chunks not yet finished.
    pending: AtomicUsize,
    /// Set on first panic: remaining chunks fast-drain (claimed but not
    /// run) so the batch always terminates.
    panicked: AtomicBool,
    /// First panic by *chunk index* (not arrival order) — deterministic
    /// choice of which payload the caller re-raises.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
    latch: Arc<Latch>,
    /// Cap inherited by helpers for nested regions.
    cap: usize,
}

fn claim_chunks(batch: &Batch<'_>) {
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.n_chunks {
            break;
        }
        if !batch.panicked.load(Ordering::Relaxed) {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.body)(i))) {
                batch.panicked.store(true, Ordering::Relaxed);
                let mut slot = lock(&batch.panic);
                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                    *slot = Some((i, payload));
                }
            }
        }
        if batch.pending.fetch_sub(1, Ordering::Release) == 1 {
            batch.latch.ping();
        }
    }
}

/// Entry point workers run for a batch handle.
unsafe fn batch_entry(data: *const ()) {
    let batch: &Batch<'_> = unsafe { &*(data as *const Batch<'_>) };
    // Clone the latch FIRST: after `retire` the caller may free the
    // batch, so the latch must be kept alive independently.
    let latch = Arc::clone(&batch.latch);
    {
        let _guard = CapGuard::set(batch.cap);
        claim_chunks(batch);
    }
    latch.retire(1);
}

/// Execute `body(0..n_chunks)` across the pool. Blocks until every chunk
/// completed and every helper retired; re-raises the lowest-chunk panic.
///
/// The *chunk structure* is the caller's; this function only decides how
/// many threads help, so results cannot depend on the thread count.
pub(crate) fn run_batch(n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let pool = pool();
    let eff = effective_threads();
    let helpers = eff
        .saturating_sub(1)
        .min(n_chunks.saturating_sub(1))
        .min(pool.capacity.saturating_sub(1));
    if helpers == 0 {
        // Inline execution; chunk order equals the parallel claim order
        // so panic choice (lowest chunk) is identical.
        for i in 0..n_chunks {
            body(i);
        }
        return;
    }
    let latch = Arc::new(Latch::new(helpers));
    let batch = Batch {
        body,
        n_chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n_chunks),
        panicked: AtomicBool::new(false),
        panic: Mutex::new(None),
        latch: Arc::clone(&latch),
        cap: eff,
    };
    let task = Task {
        data: std::ptr::from_ref(&batch).cast::<()>(),
        exec: batch_entry,
    };
    {
        let mut q = lock(&pool.injector);
        for _ in 0..helpers {
            q.push_back(task);
        }
        pool.max_queue_depth.fetch_max(q.len() as u64, Ordering::Relaxed);
    }
    pool.work_available.notify_all();
    // Participate: the caller is one of the `eff` threads.
    claim_chunks(&batch);
    // Pull back handles nobody claimed — otherwise we would wait on a
    // busy pool to pop handles whose work is already done.
    {
        let mut q = lock(&pool.injector);
        let before = q.len();
        q.retain(|t| !std::ptr::eq(t.data, task.data));
        let removed = before - q.len();
        if removed > 0 {
            drop(q);
            pool.reclaimed_handles.fetch_add(removed as u64, Ordering::Relaxed);
            latch.retire(removed);
        }
    }
    latch.wait(|| batch.pending.load(Ordering::Acquire) == 0);
    let panic = lock(&batch.panic).take();
    if let Some((_chunk, payload)) = panic {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------
// join
// ---------------------------------------------------------------------

const PENDING: u8 = 0;
const TAKEN: u8 = 1;
const REVOKED: u8 = 2;

/// A published second closure of a [`join`], pinned on the caller's
/// stack. `state` arbitrates between a worker taking it and the caller
/// stealing it back.
struct JoinJob<B, RB> {
    f: std::cell::UnsafeCell<Option<B>>,
    result: std::cell::UnsafeCell<Option<std::thread::Result<RB>>>,
    state: AtomicU8,
    cap: usize,
    latch: Arc<Latch>,
}

// SAFETY: `f` is moved out exactly once, by whichever side wins the
// PENDING → {TAKEN, REVOKED} race; `result` is written only by the
// TAKEN side and read by the caller only after the latch reports the
// worker retired.
unsafe impl<B: Send, RB: Send> Sync for JoinJob<B, RB> {}

unsafe fn join_entry<B, RB>(data: *const ())
where
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let job: &JoinJob<B, RB> = unsafe { &*(data as *const JoinJob<B, RB>) };
    let latch = Arc::clone(&job.latch);
    if job
        .state
        .compare_exchange(PENDING, TAKEN, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        let f = unsafe { (*job.f.get()).take() }.expect("taken join job owns its closure");
        let _guard = CapGuard::set(job.cap);
        let r = catch_unwind(AssertUnwindSafe(f));
        unsafe { *job.result.get() = Some(r) };
    }
    latch.retire(1);
}

/// Run `a` and `b`, potentially in parallel, and return both results.
///
/// `b` is published to the pool; the caller runs `a`, then *steals `b`
/// back* and runs it inline unless a worker already started it — so an
/// idle pool costs one queue push, never a thread handoff, and no OS
/// thread is ever spawned per call. Propagates `a`'s panic first, then
/// `b`'s, matching `rayon::join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = pool();
    if effective_threads() <= 1 || pool.capacity <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let latch = Arc::new(Latch::new(1));
    let job: JoinJob<B, RB> = JoinJob {
        f: std::cell::UnsafeCell::new(Some(b)),
        result: std::cell::UnsafeCell::new(None),
        state: AtomicU8::new(PENDING),
        cap: effective_threads(),
        latch: Arc::clone(&latch),
    };
    let task = Task {
        data: std::ptr::from_ref(&job).cast::<()>(),
        exec: join_entry::<B, RB>,
    };
    {
        let mut q = lock(&pool.injector);
        q.push_back(task);
        pool.max_queue_depth.fetch_max(q.len() as u64, Ordering::Relaxed);
    }
    pool.work_available.notify_one();
    let ra = catch_unwind(AssertUnwindSafe(a));
    let rb: std::thread::Result<RB> = if job
        .state
        .compare_exchange(PENDING, REVOKED, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        // Steal-back: remove the unclaimed handle (a worker may hold it
        // already — it loses the CAS and just retires).
        pool.steal_backs.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = lock(&pool.injector);
            let before = q.len();
            q.retain(|t| !std::ptr::eq(t.data, task.data));
            let removed = before - q.len();
            drop(q);
            if removed > 0 {
                pool.reclaimed_handles.fetch_add(removed as u64, Ordering::Relaxed);
                latch.retire(removed);
            }
        }
        let f = unsafe { (*job.f.get()).take() }.expect("revoked join job owns its closure");
        let rb = catch_unwind(AssertUnwindSafe(f));
        latch.wait(|| true);
        rb
    } else {
        latch.wait(|| true);
        unsafe { (*job.result.get()).take() }.expect("taken join job left a result")
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(pa), _) => resume_unwind(pa),
        (Ok(_), Err(pb)) => resume_unwind(pb),
    }
}
