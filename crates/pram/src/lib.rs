//! EREW-PRAM cost accounting.
//!
//! The paper's Table 1 states bounds in the PRAM **work / time** model:
//! *work* is the total number of primitive operations across all
//! processors, *time* (depth) is the length of the critical path, where a
//! parallel combining step over `k` items costs `O(log k)` time on an EREW
//! PRAM.
//!
//! No PRAM exists, so we *simulate the cost model*: algorithms in this
//! workspace thread a [`Metrics`] handle through their phases and charge
//!
//! * `work` — one unit per primitive operation (edge relaxation,
//!   Floyd–Warshall inner step, matrix word-op, …), via the typed
//!   [`Counter`] taxonomy so experiments can report per-kind breakdowns;
//! * `depth` — `⌈log₂ k⌉ + 1` per parallel phase of width `k`, via
//!   [`Metrics::phase`].
//!
//! The counters are atomics with relaxed ordering: they are statistics, not
//! synchronization, and must stay cheap inside rayon loops. Execution
//! itself runs on real threads through [`run_phase`], which pairs a rayon
//! parallel iteration with the corresponding depth charge — that is the
//! whole "PRAM simulator": real parallel speedup plus model-faithful cost
//! numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Kinds of primitive work the algorithms charge for.
///
/// The split mirrors where the paper's analysis attributes work:
/// Floyd–Warshall inside tree nodes, path-doubling steps, the 3-limited
/// Bellman–Ford, query-time relaxations, and boolean matrix word-ops.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Edge relaxations performed by query-time Bellman–Ford scans.
    Relaxation = 0,
    /// Inner-loop steps of Floyd–Warshall APSP computations.
    FloydWarshall = 1,
    /// Min-plus "path doubling" inner steps (Algorithm 4.3).
    Doubling = 2,
    /// 3-limited Bellman–Ford steps (Algorithm 4.1 step iv).
    Limited = 3,
    /// Boolean matrix multiplication word operations.
    MatMul = 4,
    /// Heap pops + relaxations of the sparse-Dijkstra leaf kernel.
    Dijkstra = 5,
    /// Everything else (initialization, bookkeeping passes).
    Other = 6,
}

const NUM_COUNTERS: usize = 7;

/// One profiled algorithm phase: what it was, how wide it fanned out, how
/// long it really took, how much model work it charged, and the peak
/// bytes of matrices + workspaces live while it ran. Recorded by the
/// augmentation drivers (one per tree level / doubling round) so
/// experiments can show *where* the wall time goes, not just totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase label, e.g. `"alg41/level 3"` or `"alg43/round 2"`.
    pub label: String,
    /// Parallel width of the phase (items fanned out).
    pub width: usize,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Model work charged during the phase (delta of `total_work`).
    pub ops: u64,
    /// Peak live bytes of node matrices + workspaces observed.
    pub peak_bytes: u64,
}

/// Work/depth accumulator. Cheap to share (`&Metrics`) across rayon tasks.
#[derive(Debug, Default)]
pub struct Metrics {
    work: [AtomicU64; NUM_COUNTERS],
    depth: AtomicU64,
    phases: AtomicU64,
    phase_log: Mutex<Vec<PhaseRecord>>,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `amount` units of work of the given kind.
    #[inline]
    pub fn work(&self, kind: Counter, amount: u64) {
        self.work[kind as usize].fetch_add(amount, Ordering::Relaxed);
    }

    /// Charge one parallel phase over `width` items: depth increases by
    /// `⌈log₂ width⌉ + 1` (an EREW combining tree over the phase's items).
    #[inline]
    pub fn phase(&self, width: usize) {
        let levels = usize::BITS - width.max(1).leading_zeros();
        self.depth.fetch_add(levels as u64 + 1, Ordering::Relaxed);
        self.phases.fetch_add(1, Ordering::Relaxed);
    }

    /// Total work across all counters.
    pub fn total_work(&self) -> u64 {
        self.work.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Work of one kind.
    pub fn work_of(&self, kind: Counter) -> u64 {
        self.work[kind as usize].load(Ordering::Relaxed)
    }

    /// Accumulated model depth (PRAM time).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Number of parallel phases charged.
    pub fn phases(&self) -> u64 {
        self.phases.load(Ordering::Relaxed)
    }

    /// Append one profiled phase to the phase log. Callers record phases
    /// sequentially (levels, rounds), so the log order is deterministic.
    pub fn record_phase(&self, record: PhaseRecord) {
        if let Ok(mut log) = self.phase_log.lock() {
            log.push(record);
        }
    }

    /// Snapshot of the profiled phases recorded so far, in record order.
    pub fn phase_records(&self) -> Vec<PhaseRecord> {
        self.phase_log
            .lock()
            .map(|log| log.clone())
            .unwrap_or_default()
    }

    /// Snapshot for reporting.
    pub fn report(&self) -> Report {
        Report {
            relaxation: self.work_of(Counter::Relaxation),
            floyd_warshall: self.work_of(Counter::FloydWarshall),
            doubling: self.work_of(Counter::Doubling),
            limited: self.work_of(Counter::Limited),
            matmul: self.work_of(Counter::MatMul),
            dijkstra: self.work_of(Counter::Dijkstra),
            other: self.work_of(Counter::Other),
            depth: self.depth(),
            phases: self.phases(),
        }
    }
}

/// Immutable snapshot of a [`Metrics`] accumulator.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Query-time edge relaxations.
    pub relaxation: u64,
    /// Floyd–Warshall inner steps.
    pub floyd_warshall: u64,
    /// Path-doubling inner steps.
    pub doubling: u64,
    /// 3-limited Bellman–Ford steps.
    pub limited: u64,
    /// Boolean matmul word ops.
    pub matmul: u64,
    /// Sparse-Dijkstra leaf-kernel ops (heap pops + relaxations).
    pub dijkstra: u64,
    /// Miscellaneous work.
    pub other: u64,
    /// PRAM time (depth).
    pub depth: u64,
    /// Parallel phases executed.
    pub phases: u64,
}

impl Report {
    /// Total work across all counters.
    pub fn total_work(&self) -> u64 {
        self.relaxation
            + self.floyd_warshall
            + self.doubling
            + self.limited
            + self.matmul
            + self.dijkstra
            + self.other
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "work={} (relax={} fw={} dbl={} lim={} mm={} dij={} other={}) depth={} phases={}",
            self.total_work(),
            self.relaxation,
            self.floyd_warshall,
            self.doubling,
            self.limited,
            self.matmul,
            self.dijkstra,
            self.other,
            self.depth,
            self.phases
        )
    }
}

/// Run `body` as one parallel phase over `0..width` with rayon, charging
/// the matching depth to `metrics`. `body` receives each index.
///
/// This is the execution side of the cost model: one call = one PRAM
/// phase.
pub fn run_phase<F>(metrics: &Metrics, width: usize, body: F)
where
    F: Fn(usize) + Send + Sync,
{
    use rayon::prelude::*;
    metrics.phase(width);
    (0..width).into_par_iter().for_each(body);
}

/// Sequential variant of [`run_phase`] for small widths where rayon
/// overhead dominates; charges the identical model cost.
pub fn run_phase_seq<F>(metrics: &Metrics, width: usize, mut body: F)
where
    F: FnMut(usize),
{
    metrics.phase(width);
    for i in 0..width {
        body(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_accumulates_per_counter() {
        let m = Metrics::new();
        m.work(Counter::Relaxation, 5);
        m.work(Counter::Relaxation, 2);
        m.work(Counter::MatMul, 10);
        assert_eq!(m.work_of(Counter::Relaxation), 7);
        assert_eq!(m.work_of(Counter::MatMul), 10);
        assert_eq!(m.total_work(), 17);
    }

    #[test]
    fn phase_depth_is_logarithmic() {
        let m = Metrics::new();
        m.phase(1);
        assert_eq!(m.depth(), 2); // 1 level + 1
        let m = Metrics::new();
        m.phase(1024);
        assert_eq!(m.depth(), 12); // bit-length of 1024 is 11, plus 1
        assert_eq!(m.phases(), 1);
    }

    #[test]
    fn run_phase_executes_all_and_charges_once() {
        let m = Metrics::new();
        let hits = AtomicU64::new(0);
        run_phase(&m, 100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(m.phases(), 1);
        assert!(m.depth() >= 7);
    }

    #[test]
    fn run_phase_seq_matches_parallel_cost() {
        let mp = Metrics::new();
        run_phase(&mp, 64, |_| {});
        let ms = Metrics::new();
        run_phase_seq(&ms, 64, |_| {});
        assert_eq!(mp.depth(), ms.depth());
        assert_eq!(mp.phases(), ms.phases());
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        use rayon::prelude::*;
        let m = Metrics::new();
        (0..1000usize).into_par_iter().for_each(|_| {
            m.work(Counter::Relaxation, 1);
        });
        assert_eq!(m.work_of(Counter::Relaxation), 1000);
    }

    #[test]
    fn phase_records_keep_order_and_content() {
        let m = Metrics::new();
        assert!(m.phase_records().is_empty());
        m.record_phase(PhaseRecord {
            label: "alg41/level 1".into(),
            width: 4,
            wall_ns: 123,
            ops: 99,
            peak_bytes: 4096,
        });
        m.record_phase(PhaseRecord {
            label: "alg41/level 0".into(),
            width: 1,
            wall_ns: 456,
            ops: 1,
            peak_bytes: 8192,
        });
        let log = m.phase_records();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].label, "alg41/level 1");
        assert_eq!(log[0].ops, 99);
        assert_eq!(log[1].wall_ns, 456);
        assert_eq!(log[1].peak_bytes, 8192);
    }

    #[test]
    fn report_roundtrip() {
        let m = Metrics::new();
        m.work(Counter::FloydWarshall, 3);
        m.work(Counter::Doubling, 4);
        m.work(Counter::Limited, 5);
        m.work(Counter::Other, 1);
        m.phase(8);
        let r = m.report();
        assert_eq!(r.floyd_warshall, 3);
        assert_eq!(r.doubling, 4);
        assert_eq!(r.limited, 5);
        assert_eq!(r.other, 1);
        assert_eq!(r.total_work(), 13);
        assert_eq!(r.phases, 1);
        let shown = r.to_string();
        assert!(shown.contains("work=13"));
        assert!(shown.contains("phases=1"));
    }
}
