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
//! itself runs on real threads: each driver charges [`Metrics::phase`]
//! once per rayon fan-out, so the "PRAM simulator" is real parallel
//! speedup plus model-faithful cost numbers.
//!
//! This crate keeps only the model totals. Where the wall time, width,
//! charged ops and peak bytes of one phase go is recorded by the
//! `spsep_trace` spans the drivers open per level or round
//! (`alg41.level`, `alg43.init`/`alg43.round`, `alg44.init`/`alg44.table`/
//! `alg44.round`, `reach.level`).

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Work/depth accumulator. Cheap to share (`&Metrics`) across rayon tasks.
#[derive(Debug, Default)]
pub struct Metrics {
    work: [AtomicU64; NUM_COUNTERS],
    depth: AtomicU64,
    phases: AtomicU64,
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
    fn concurrent_updates_do_not_lose_counts() {
        use rayon::prelude::*;
        let m = Metrics::new();
        (0..1000usize).into_par_iter().for_each(|_| {
            m.work(Counter::Relaxation, 1);
        });
        assert_eq!(m.work_of(Counter::Relaxation), 1000);
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
