//! The serving layer: prepare once, query many.
//!
//! The paper's cost model (Table 1) splits the problem into an expensive
//! **preprocessing** stage (build `E⁺`, Sections 3–5) and a cheap
//! **query** stage (`O(l·|E_∞| + |E ∪ E⁺|)` work per source, Section 3.2,
//! with `E_∞` the arcs touching a level-∞ vertex).
//! That split only pays off if the preprocessing can be amortized over
//! many queries — which is exactly what [`Oracle`] packages:
//!
//! * [`Oracle::prepare`] runs the full pipeline once and
//!   [`Oracle::save_v2`] persists the compiled query state as a
//!   versioned, checksummed `spsep-oracle/v2` snapshot
//!   ([`crate::iov2`]); the separator tree is dropped once `prepare`
//!   returns, because queries never read it;
//! * [`Oracle::load`] / [`Oracle::load_path`] rehydrate a query-ready
//!   oracle from that snapshot — no augmentation re-run and no schedule
//!   compilation: the arrays are borrowed from the (memory-mapped)
//!   snapshot bytes;
//! * [`Oracle::distance`] / [`Oracle::source_table`] /
//!   [`Oracle::batch`] answer point-to-point, single-source, and bulk
//!   pair queries over the loaded instance.
//!
//! Distances computed through a saved-and-reloaded oracle are
//! **bit-identical** to those of the freshly prepared one (weights
//! travel as IEEE-754 bit patterns, and the schedule executes the same
//! deterministic relaxation order), at any thread count — the
//! differential suite in `crates/testkit` enforces this.
//!
//! # Caching
//!
//! Queries from the same source share one scheduled run: the oracle
//! keeps an LRU cache of materialized per-source distance tables
//! (capacity [`Oracle::set_cache_capacity`], default
//! [`DEFAULT_CACHE_CAPACITY`]). Hits, misses, and evictions are counted
//! ([`Oracle::cache_stats`]) and every query charges its relaxations to
//! the caller's [`Metrics`] and emits a `spsep_trace` span, so serving
//! workloads are observable with the same `--metrics`/`--trace` tooling
//! as the preprocessing pipeline.
//!
//! The cache is **sharded** for concurrent serving (the daemon in
//! `spsep-serve` hits one shared oracle from many worker threads): a
//! source maps to the shard `source % shards`, each shard holds its own
//! LRU state behind its own lock and its own hit/miss/eviction
//! counters, so concurrent queries for different shards never contend.
//! Within a shard, eviction is deterministic (least-recently-used by a
//! monotone access stamp), and [`Oracle::batch`] materializes missing
//! rows in sorted source order — the cache state after a batch is a
//! pure function of the query stream, independent of thread count.
//! Sharding never changes *answers* (a cached row is immutable and
//! bit-identical to a fresh scheduled run); it only partitions which
//! rows are resident.
//!
//! [`Oracle::set_cache_capacity`] takes `&self` and is safe to call
//! concurrently with in-flight queries — reconfiguration swaps the
//! whole sharded cache behind an `RwLock` that queries hold only for
//! the duration of a lookup or insert, never while computing a row.

use crate::iov2::{self, SnapshotV2};
use crate::query::Preprocessed;
use crate::{preprocess, Algorithm, AugmentStats};
use rayon::prelude::*;
use spsep_graph::semiring::Tropical;
use spsep_graph::{DiGraph, SlabBytes, SpsepError, Store};
use spsep_pram::{Counter, Metrics};
use spsep_separator::SepTree;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default capacity (in source rows) of the oracle's LRU table cache.
///
/// One row costs `8·n` bytes; 64 rows of a 10⁵-vertex graph are ~50 MB —
/// small enough to be a safe default, large enough that skewed query
/// streams (a few hot sources) hit almost always.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Upper bound on the number of lock shards of the row cache.
///
/// The actual shard count is `min(capacity, MAX_CACHE_SHARDS)` so that
/// every shard owns at least one row slot; 8 shards keep lock
/// contention negligible for the daemon's worker counts (1–8) without
/// fragmenting small caches.
pub const MAX_CACHE_SHARDS: usize = 8;

/// Counters of one lock shard of the row cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Queries answered from this shard's cached tables.
    pub hits: u64,
    /// Queries that had to materialize a table in this shard.
    pub misses: u64,
    /// Tables this shard evicted to respect its capacity slice.
    pub evictions: u64,
    /// Tables currently resident in this shard.
    pub entries: usize,
    /// This shard's slice of the total capacity.
    pub capacity: usize,
}

/// Counters of the oracle's per-source table cache (aggregated over all
/// shards, with the per-shard breakdown in [`CacheStats::shards`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cached table.
    pub hits: u64,
    /// Queries that had to materialize a table.
    pub misses: u64,
    /// Tables evicted to respect the capacity bound.
    pub evictions: u64,
    /// Tables currently resident.
    pub entries: usize,
    /// Capacity bound (0 = caching disabled).
    pub capacity: usize,
    /// Per-shard breakdown (one entry per lock shard).
    pub shards: Vec<ShardCacheStats>,
}

/// Sharded LRU cache of materialized per-source distance tables.
///
/// Hand-rolled (the workspace vendors no external crates): sources map
/// to the shard `source % shards.len()`; each shard is a map from
/// source to `(access stamp, row)` plus a monotone tick behind its own
/// mutex, so concurrent lookups of different shards never contend.
/// Eviction removes the smallest stamp *within the shard*; stamps are
/// unique per shard, so eviction order is deterministic for a given
/// query stream.
struct RowCache {
    capacity: usize,
    shards: Vec<CacheShard>,
}

struct CacheShard {
    capacity: usize,
    inner: Mutex<RowCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct RowCacheInner {
    tick: u64,
    rows: HashMap<usize, (u64, Arc<[f64]>)>,
}

impl CacheShard {
    fn new(capacity: usize) -> CacheShard {
        CacheShard {
            capacity,
            inner: Mutex::new(RowCacheInner {
                tick: 0,
                rows: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `source`, bumping its recency on a hit. Counts the
    /// hit/miss either way.
    fn get(&self, source: usize) -> Option<Arc<[f64]>> {
        // A poisoned lock (a panic while held — which the critical
        // sections below cannot cause) degrades to "always miss".
        let row = self.inner.lock().ok().and_then(|mut inner| {
            inner.tick += 1;
            let tick = inner.tick;
            inner.rows.get_mut(&source).map(|slot| {
                slot.0 = tick;
                Arc::clone(&slot.1)
            })
        });
        match &row {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        row
    }

    /// Insert a freshly computed row, evicting the least recently used
    /// entry of this shard if at capacity. No-op when capacity is 0.
    fn insert(&self, source: usize, row: Arc<[f64]>) {
        if self.capacity == 0 {
            return;
        }
        if let Ok(mut inner) = self.inner.lock() {
            inner.tick += 1;
            let tick = inner.tick;
            if !inner.rows.contains_key(&source) && inner.rows.len() >= self.capacity {
                if let Some(&victim) = inner
                    .rows
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(s, _)| s)
                {
                    inner.rows.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            inner.rows.insert(source, (tick, row));
        }
    }

    fn stats(&self) -> ShardCacheStats {
        ShardCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().map(|i| i.rows.len()).unwrap_or(0),
            capacity: self.capacity,
        }
    }
}

impl RowCache {
    fn new(capacity: usize) -> RowCache {
        let num_shards = capacity.clamp(1, MAX_CACHE_SHARDS);
        // Distribute the capacity across shards, earlier shards first;
        // num_shards ≤ capacity, so every shard gets at least one slot
        // (unless capacity is 0, which disables caching entirely).
        let base = capacity / num_shards;
        let extra = capacity % num_shards;
        let shards = (0..num_shards)
            .map(|i| CacheShard::new(base + usize::from(i < extra)))
            .collect();
        RowCache { capacity, shards }
    }

    fn shard(&self, source: usize) -> &CacheShard {
        &self.shards[source % self.shards.len()]
    }

    fn get(&self, source: usize) -> Option<Arc<[f64]>> {
        self.shard(source).get(source)
    }

    fn insert(&self, source: usize, row: Arc<[f64]>) {
        if self.capacity == 0 {
            return;
        }
        self.shard(source).insert(source, row);
    }

    fn stats(&self) -> CacheStats {
        let shards: Vec<ShardCacheStats> = self.shards.iter().map(CacheShard::stats).collect();
        let mut agg = CacheStats {
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for s in &shards {
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
            agg.entries += s.entries;
        }
        agg.shards = shards;
        agg
    }
}

/// A query-ready distance oracle over a preprocessed instance.
///
/// Build one with [`Oracle::prepare`] (fresh preprocessing) or
/// [`Oracle::load`] (from a persisted snapshot); both yield the same
/// answers bit-for-bit.
///
/// ```
/// use spsep_core::{oracle::Oracle, Algorithm};
/// use spsep_pram::Metrics;
/// use spsep_separator::{builders, RecursionLimits};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (g, _) = spsep_graph::generators::grid(&[6, 6], &mut rng);
/// let tree = builders::grid_tree(&[6, 6], RecursionLimits::default());
///
/// let metrics = Metrics::new();
/// let oracle = Oracle::prepare(g, tree, Algorithm::LeavesUp, &metrics)?;
///
/// // Persist, reload, and query: prepare once, serve many.
/// let mut snapshot = Vec::new();
/// oracle.save_v2(&mut snapshot)?;
/// let served = Oracle::load(snapshot.as_slice())?;
/// let d = served.distance(0, 35, &metrics)?;
/// assert!(d.is_finite());
/// assert_eq!(d.to_bits(), oracle.distance(0, 35, &metrics)?.to_bits());
/// # Ok::<(), spsep_core::SpsepError>(())
/// ```
pub struct Oracle {
    graph: DiGraph<f64>,
    algo: Algorithm,
    pre: Preprocessed<Tropical>,
    /// The sharded row cache. The outer `RwLock` exists only so
    /// [`Oracle::set_cache_capacity`] can swap the whole cache from
    /// `&self` while queries are in flight; the query path holds the
    /// read lock only across a shard lookup or insert, never while a
    /// row is being computed.
    cache: RwLock<RowCache>,
    /// The Theorem 4.1/5.1 work/depth envelope check taken right after
    /// preprocessing. `None` for oracles rehydrated from a snapshot
    /// (the measured counters existed only in the preparing process);
    /// the CLI persists it next to the snapshot instead (see
    /// [`crate::analysis::ledger_to_text`]).
    ledger: Option<crate::analysis::WorkLedger>,
}

impl Oracle {
    /// Run the full preprocessing pipeline (validation, `E⁺`
    /// construction with `algo`, schedule compilation) and wrap the
    /// result in a query-ready oracle. Work and depth are charged to
    /// `metrics`. The tree is dropped once the compiled schedule and
    /// the work ledger are taken from it: queries never read it.
    ///
    /// # Errors
    ///
    /// Everything [`crate::preprocess`] can report:
    /// [`SpsepError::InvalidDecomposition`],
    /// [`SpsepError::AbsorbingCycle`], [`SpsepError::Executor`].
    pub fn prepare(
        graph: DiGraph<f64>,
        tree: SepTree,
        algo: Algorithm,
        metrics: &Metrics,
    ) -> Result<Oracle, SpsepError> {
        let pre = preprocess::<Tropical>(&graph, &tree, algo, metrics)?;
        // Snapshot the envelope check now: the report must reflect
        // preprocessing only, before query-time relaxations pollute the
        // measured side.
        let ledger = crate::analysis::work_ledger(&tree, algo, &metrics.report(), None);
        Ok(Oracle {
            graph,
            algo,
            pre,
            cache: RwLock::new(RowCache::new(DEFAULT_CACHE_CAPACITY)),
            ledger: Some(ledger),
        })
    }

    /// Wrap a validated zero-copy [`SnapshotV2`] — no compilation at
    /// all: the compiled query state is borrowed from the snapshot
    /// buffer.
    pub fn from_snapshot_v2(snapshot: SnapshotV2) -> Oracle {
        let SnapshotV2 { graph, algo, pre } = snapshot;
        Oracle {
            graph,
            algo,
            pre,
            cache: RwLock::new(RowCache::new(DEFAULT_CACHE_CAPACITY)),
            ledger: None,
        }
    }

    /// Persist this oracle as a zero-copy `spsep-oracle/v2` snapshot
    /// (see [`crate::iov2`]): the compiled query state is laid out as
    /// aligned slabs that [`Oracle::load_path`] can borrow straight out
    /// of a memory mapping. The sections are streamed from the oracle's
    /// arrays through a buffer of their own, so `out` may be a bare
    /// file.
    ///
    /// # Errors
    ///
    /// [`SpsepError::Io`] if writing to `out` fails;
    /// [`SpsepError::Parse`] on a big-endian host (the format is
    /// little-endian only).
    pub fn save_v2<W: Write>(&self, out: &mut W) -> Result<(), SpsepError> {
        let mut span = spsep_trace::span!("oracle.save_v2", n = self.graph.n());
        span.add_ops((self.graph.m() + self.pre.eplus().len()) as u64);
        let mut out = std::io::BufWriter::with_capacity(1 << 20, out);
        iov2::write_snapshot_v2(&mut out, &self.graph, self.algo, &self.pre)?;
        out.flush()?;
        Ok(())
    }

    /// Load an oracle from a snapshot previously written by
    /// [`Oracle::save_v2`] (or `spsep-cli prepare`). The compiled state
    /// is borrowed out of an aligned copy of the bytes.
    ///
    /// # Errors
    ///
    /// [`SpsepError::Io`] on read failure; [`SpsepError::Parse`] on any
    /// corruption (bad magic, version skew, checksum mismatch,
    /// truncation, semantic damage caught by the section validators)
    /// and on snapshots from older builds (`spsep-oracle/v1`, version
    /// word 2 with byte-wise section checksums, the earlier 14-section
    /// v2 layout, or the earlier bucket layout with one `E` bucket),
    /// whose message says to re-run
    /// `spsep-cli prepare`; [`SpsepError::InvalidGraph`] if the CSR
    /// arrays are inconsistent.
    pub fn load<R: Read>(mut input: R) -> Result<Oracle, SpsepError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        let snapshot = {
            let _span = spsep_trace::span!("oracle.load_v2");
            iov2::snapshot_v2_from_slab(Arc::new(SlabBytes::from_vec(bytes)))?
        };
        Ok(Oracle::from_snapshot_v2(snapshot))
    }

    /// Load an oracle from a snapshot file by **memory-mapping** it: the
    /// CSR arrays, relaxation buckets, and edge slabs are borrowed from
    /// the `MAP_SHARED` read-only mapping, so load time is dominated by
    /// the checksum + validation sweep (no per-edge decode, no copies)
    /// and every process serving the same file shares one physical
    /// page-cache copy.
    ///
    /// # Errors
    ///
    /// As [`Oracle::load`], plus [`SpsepError::Io`] if the file cannot
    /// be opened or mapped.
    pub fn load_path(path: &Path) -> Result<Oracle, SpsepError> {
        let file = std::fs::File::open(path)?;
        let snapshot = {
            let _span = spsep_trace::span!("oracle.load_v2_mmap");
            iov2::snapshot_v2_from_slab(Arc::new(SlabBytes::map_file(&file)?))?
        };
        Ok(Oracle::from_snapshot_v2(snapshot))
    }

    /// Whether this oracle's arrays are borrowed from a snapshot slab
    /// (a loaded snapshot) rather than owned (a fresh prepare). Purely
    /// observational — answers are identical either way.
    pub fn is_slab_backed(&self) -> bool {
        matches!(self.pre.aug_edges, Store::Slab(_))
    }

    /// Replace the table cache with an empty one of capacity `capacity`
    /// (rows; 0 disables caching). Resets the cache counters.
    ///
    /// Safe to call concurrently with in-flight queries and with other
    /// reconfigurations (the serving daemon shares the oracle as
    /// `Arc<Oracle>` across worker threads): the swap happens under a
    /// write lock that queries only hold across individual cache
    /// operations, so a query racing a resize either sees the old cache
    /// or the new (empty) one — its *answer* is unaffected either way,
    /// because cached rows are immutable and bit-identical to fresh
    /// scheduled runs.
    pub fn set_cache_capacity(&self, capacity: usize) {
        let mut guard = match self.cache.write() {
            Ok(g) => g,
            // A poisoned lock cannot leave RowCache in a broken state
            // (the writer only swaps the value); recover and proceed.
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = RowCache::new(capacity);
    }

    /// Builder-style [`Oracle::set_cache_capacity`].
    #[must_use]
    pub fn with_cache_capacity(self, capacity: usize) -> Oracle {
        self.set_cache_capacity(capacity);
        self
    }

    /// Run `f` with a read guard on the current cache. The guard is
    /// held only for the duration of `f` — callers must not compute
    /// rows inside it. A poisoned lock (impossible from the cache's own
    /// critical sections) is recovered, not propagated.
    fn with_cache<T>(&self, f: impl FnOnce(&RowCache) -> T) -> T {
        match self.cache.read() {
            Ok(guard) => f(&guard),
            Err(poisoned) => f(&poisoned.into_inner()),
        }
    }

    fn check_vertex(&self, v: usize, role: &str) -> Result<(), SpsepError> {
        if v >= self.graph.n() {
            return Err(SpsepError::invalid_vertex(
                v.min(u32::MAX as usize) as u32,
                format!("query {role} out of range 0..{}", self.graph.n()),
            ));
        }
        Ok(())
    }

    /// Materialize (or fetch from cache) the full distance table from
    /// `source`. Relaxations of a cache miss are charged to `metrics`.
    fn row(&self, source: usize, metrics: &Metrics) -> Arc<[f64]> {
        if let Some(row) = self.with_cache(|c| c.get(source)) {
            return row;
        }
        let (dist, relaxations) = self.pre.schedule().run_seq(source);
        metrics.work(Counter::Relaxation, relaxations);
        let row: Arc<[f64]> = dist.into();
        self.with_cache(|c| c.insert(source, Arc::clone(&row)));
        row
    }

    /// Point-to-point distance `u → v` (`f64::INFINITY` if `v` is
    /// unreachable). One scheduled run on a cache miss, a table lookup
    /// on a hit.
    ///
    /// # Errors
    ///
    /// [`SpsepError::InvalidGraph`] if either endpoint is out of range.
    pub fn distance(&self, u: usize, v: usize, metrics: &Metrics) -> Result<f64, SpsepError> {
        self.check_vertex(u, "source")?;
        self.check_vertex(v, "target")?;
        let _span = spsep_trace::span!("oracle.distance", source = u, target = v);
        Ok(self.row(u, metrics)[v])
    }

    /// The full single-source distance table from `u`, shared with the
    /// cache (cheap to clone, immutable).
    ///
    /// # Errors
    ///
    /// [`SpsepError::InvalidGraph`] if `u` is out of range.
    pub fn source_table(&self, u: usize, metrics: &Metrics) -> Result<Arc<[f64]>, SpsepError> {
        self.check_vertex(u, "source")?;
        let _span = spsep_trace::span!("oracle.source_table", source = u);
        Ok(self.row(u, metrics))
    }

    /// Bulk point-to-point queries: distances for `pairs`, in input
    /// order.
    ///
    /// Pairs are grouped by source; tables the cache already holds are
    /// reused (one hit per distinct source), and the missing tables are
    /// materialized **in parallel** across sources through the rayon
    /// pool. Each table is computed by the sequential schedule run, so
    /// results — and the final cache state, filled in ascending source
    /// order — are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`SpsepError::InvalidGraph`] if any endpoint is out of range
    /// (checked up front; no partial work).
    pub fn batch(
        &self,
        pairs: &[(usize, usize)],
        metrics: &Metrics,
    ) -> Result<Vec<f64>, SpsepError> {
        for &(u, v) in pairs {
            self.check_vertex(u, "source")?;
            self.check_vertex(v, "target")?;
        }
        let mut span = spsep_trace::span!("oracle.batch", pairs = pairs.len());
        // Distinct sources, ascending: deterministic compute + insert order.
        let mut sources: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        sources.sort_unstable();
        sources.dedup();
        // Rows this batch needs, pinned locally so evictions during the
        // fill cannot invalidate answers mid-batch.
        let mut local: HashMap<usize, Arc<[f64]>> = HashMap::new();
        let mut missing: Vec<usize> = Vec::new();
        for &s in &sources {
            match self.with_cache(|c| c.get(s)) {
                Some(row) => {
                    local.insert(s, row);
                }
                None => missing.push(s),
            }
        }
        span.add_ops(missing.len() as u64);
        let computed: Vec<(Vec<f64>, u64)> = missing
            .par_iter()
            .map(|&s| self.pre.schedule().run_seq(s))
            .collect();
        for (&s, (dist, relaxations)) in missing.iter().zip(computed) {
            metrics.work(Counter::Relaxation, relaxations);
            let row: Arc<[f64]> = dist.into();
            self.with_cache(|c| c.insert(s, Arc::clone(&row)));
            local.insert(s, row);
        }
        Ok(pairs
            .iter()
            .map(|&(u, v)| {
                let Some(row) = local.get(&u) else {
                    // Every source was resolved into `local` above.
                    unreachable!("batch source {u} missing from the local row set")
                };
                row[v]
            })
            .collect())
    }

    /// Cache counters (hits, misses, evictions, occupancy), aggregated
    /// over all shards with the per-shard breakdown attached.
    pub fn cache_stats(&self) -> CacheStats {
        self.with_cache(RowCache::stats)
    }

    /// Total row-cache hits only — no shard mutexes, just one relaxed
    /// atomic load per shard, so the serving daemon can sample it
    /// before and after every request to attribute per-request hits in
    /// its flight recorder.
    pub fn cache_hits_total(&self) -> u64 {
        self.with_cache(|cache| {
            cache
                .shards
                .iter()
                .map(|s| s.hits.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of original edges.
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Which `E⁺` construction prepared this oracle.
    pub fn algo(&self) -> Algorithm {
        self.algo
    }

    /// Augmentation statistics (`|E⁺|`, `d_G`, leaf bound, raw pairs).
    pub fn stats(&self) -> AugmentStats {
        self.pre.stats()
    }

    /// The Theorem 4.1/5.1 envelope check captured by
    /// [`Oracle::prepare`]; `None` for snapshot-loaded oracles (load
    /// the persisted sidecar instead, see
    /// [`crate::analysis::ledger_from_text`]).
    pub fn ledger(&self) -> Option<&crate::analysis::WorkLedger> {
        self.ledger.as_ref()
    }

    /// Attach a work/depth ledger (e.g. one reloaded from a sidecar
    /// file) to a snapshot-loaded oracle so downstream telemetry can
    /// export it.
    pub fn set_ledger(&mut self, ledger: crate::analysis::WorkLedger) {
        self.ledger = Some(ledger);
    }

    /// Per-source arc-scan bound of the compiled schedule.
    pub fn arcs_per_query(&self) -> u64 {
        self.pre.arcs_per_query()
    }

    /// The underlying preprocessed instance (advanced use: path
    /// recovery, custom schedule runs).
    pub fn preprocessed(&self) -> &Preprocessed<Tropical> {
        &self.pre
    }

    /// The graph this oracle serves.
    pub fn graph(&self) -> &DiGraph<f64> {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spsep_separator::{builders, RecursionLimits};

    fn grid_oracle(dims: [usize; 2], seed: u64) -> Oracle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
        let tree = builders::grid_tree(&dims, RecursionLimits::default());
        Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap()
    }

    #[test]
    fn save_v2_load_roundtrip_is_bit_identical_and_slab_backed() {
        let oracle = grid_oracle([7, 6], 29);
        let metrics = Metrics::new();
        let mut v2 = Vec::new();
        oracle.save_v2(&mut v2).unwrap();
        let served = Oracle::load(v2.as_slice()).unwrap();
        assert!(served.is_slab_backed());
        assert!(!oracle.is_slab_backed());
        assert_eq!(served.n(), oracle.n());
        assert_eq!(served.m(), oracle.m());
        assert_eq!(served.algo(), oracle.algo());
        assert_eq!(served.stats().eplus_edges, oracle.stats().eplus_edges);
        assert_eq!(served.arcs_per_query(), oracle.arcs_per_query());
        for s in 0..oracle.n() {
            let a = oracle.source_table(s, &metrics).unwrap();
            let b = served.source_table(s, &metrics).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "source {s}");
            }
        }
        // A loaded oracle re-exports the same canonical bytes.
        let mut v2_again = Vec::new();
        served.save_v2(&mut v2_again).unwrap();
        assert_eq!(v2, v2_again, "v2 snapshots are canonical bytes");
    }

    #[test]
    fn load_path_memory_maps_the_snapshot() {
        let oracle = grid_oracle([6, 6], 30);
        let metrics = Metrics::new();
        let dir = std::env::temp_dir().join(format!("spsep-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.v2");
        oracle
            .save_v2(&mut std::fs::File::create(&path).unwrap())
            .unwrap();
        let mapped = Oracle::load_path(&path).unwrap();
        #[cfg(unix)]
        assert!(mapped.is_slab_backed());
        for s in [0usize, 7, 35] {
            let a = mapped.source_table(s, &metrics).unwrap();
            let b = oracle.source_table(s, &metrics).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "source {s}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_both_directions_is_a_typed_error() {
        let oracle = grid_oracle([5, 5], 31);
        let mut v2 = Vec::new();
        oracle.save_v2(&mut v2).unwrap();
        // An older format version is refused with a re-prepare hint.
        let mut skew = v2.clone();
        skew[8..12].copy_from_slice(&1u32.to_le_bytes());
        let Err(err) = Oracle::load(skew.as_slice()) else {
            panic!("a v1 header must fail")
        };
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("spsep-cli prepare"), "{err}");
        // An unknown future version is rejected with its number named.
        let mut skew = v2;
        skew[8..12].copy_from_slice(&7u32.to_le_bytes());
        let Err(err) = Oracle::load(skew.as_slice()) else {
            panic!("unknown version must fail")
        };
        assert!(err.to_string().contains('7'), "{err}");
    }

    #[test]
    fn distance_agrees_with_preprocessed_and_counts_cache() {
        let oracle = grid_oracle([6, 6], 22);
        let metrics = Metrics::new();
        let (row0, _) = oracle.preprocessed().distances_seq(0);
        let d = oracle.distance(0, 35, &metrics).unwrap();
        assert_eq!(d.to_bits(), row0[35].to_bits());
        // Second query from the same source hits the cache.
        let before = metrics.work_of(Counter::Relaxation);
        let d2 = oracle.distance(0, 17, &metrics).unwrap();
        assert_eq!(d2.to_bits(), row0[17].to_bits());
        assert_eq!(metrics.work_of(Counter::Relaxation), before);
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_row_within_a_shard() {
        // Capacity 16 → MAX_CACHE_SHARDS (8) shards of 2 rows each.
        // Sources 0, 8, 16 all land in shard 0 (source % 8).
        let oracle = grid_oracle([6, 6], 23).with_cache_capacity(16);
        let metrics = Metrics::new();
        oracle.distance(0, 1, &metrics).unwrap(); // shard 0: {0}
        oracle.distance(8, 2, &metrics).unwrap(); // shard 0: {0, 8}
        oracle.distance(0, 3, &metrics).unwrap(); // hit → 0 most recent
        oracle.distance(16, 3, &metrics).unwrap(); // full → evicts 8
        let stats = oracle.cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.shards.len(), MAX_CACHE_SHARDS);
        assert_eq!(stats.shards[0].entries, 2);
        assert_eq!(stats.shards[0].evictions, 1);
        // 8 was evicted: querying it again misses; 0 still hits.
        let misses = oracle.cache_stats().misses;
        oracle.distance(0, 4, &metrics).unwrap();
        assert_eq!(oracle.cache_stats().misses, misses);
        oracle.distance(8, 4, &metrics).unwrap();
        assert_eq!(oracle.cache_stats().misses, misses + 1);
    }

    #[test]
    fn shard_layout_splits_the_capacity_exactly() {
        let oracle = grid_oracle([5, 5], 27);
        for capacity in [0, 1, 2, 7, 8, 9, 64] {
            oracle.set_cache_capacity(capacity);
            let stats = oracle.cache_stats();
            assert_eq!(stats.capacity, capacity);
            assert_eq!(
                stats.shards.len(),
                capacity.clamp(1, MAX_CACHE_SHARDS),
                "capacity {capacity}"
            );
            let total: usize = stats.shards.iter().map(|s| s.capacity).sum();
            assert_eq!(total, capacity, "capacity {capacity}");
            if capacity > 0 {
                assert!(stats.shards.iter().all(|s| s.capacity >= 1));
            }
        }
    }

    #[test]
    fn concurrent_queries_and_resizes_never_change_answers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let oracle = std::sync::Arc::new(grid_oracle([6, 6], 28));
        let metrics = Metrics::new();
        let expected: Vec<u64> = (0..36)
            .map(|v| oracle.distance(0, v, &metrics).unwrap().to_bits())
            .collect();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let resizer = {
            let oracle = std::sync::Arc::clone(&oracle);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cap = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    oracle.set_cache_capacity(cap % 5);
                    cap += 1;
                }
            })
        };
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let oracle = std::sync::Arc::clone(&oracle);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let metrics = Metrics::new();
                    for i in 0..200 {
                        let v = (t * 7 + i) % 36;
                        let d = oracle.distance(0, v, &metrics).unwrap();
                        assert_eq!(d.to_bits(), expected[v], "target {v}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        resizer.join().unwrap();
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let oracle = grid_oracle([5, 5], 24).with_cache_capacity(0);
        let metrics = Metrics::new();
        oracle.distance(3, 4, &metrics).unwrap();
        oracle.distance(3, 5, &metrics).unwrap();
        let stats = oracle.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let oracle = grid_oracle([7, 5], 25);
        let metrics = Metrics::new();
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i % 5, (i * 7) % 35)).collect();
        let bulk = oracle.batch(&pairs, &metrics).unwrap();
        let fresh = grid_oracle([7, 5], 25);
        for (&(u, v), d) in pairs.iter().zip(&bulk) {
            let single = fresh.distance(u, v, &metrics).unwrap();
            assert_eq!(d.to_bits(), single.to_bits(), "pair ({u}, {v})");
        }
        // 5 distinct sources → 5 misses, and the next batch is all hits.
        assert_eq!(oracle.cache_stats().misses, 5);
        let again = oracle.batch(&pairs, &metrics).unwrap();
        assert_eq!(again, bulk);
        assert_eq!(oracle.cache_stats().misses, 5);
        assert_eq!(oracle.cache_stats().hits, 5);
    }

    #[test]
    fn out_of_range_queries_are_typed_errors() {
        let oracle = grid_oracle([4, 4], 26);
        let metrics = Metrics::new();
        assert!(oracle.distance(99, 0, &metrics).is_err());
        assert!(oracle.distance(0, 99, &metrics).is_err());
        assert!(oracle.source_table(99, &metrics).is_err());
        assert!(oracle.batch(&[(0, 1), (99, 0)], &metrics).is_err());
        // A failed batch does no partial work.
        assert_eq!(oracle.cache_stats().misses, 0);
    }
}
