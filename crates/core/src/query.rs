//! The query engine: `s`-source distances over the augmented graph, plus
//! shortest-path-tree recovery over the original edges.

use crate::augment::{AugmentStats, Augmentation};
use crate::schedule::Schedule;
use crate::AbsorbingCycle;
use rayon::prelude::*;
use spsep_graph::{DiGraph, Edge, Semiring, Store};
use spsep_pram::Metrics;
use spsep_separator::{separator_locality_order, SepTree};

/// Per-query statistics.
#[derive(Copy, Clone, Debug, Default)]
pub struct QueryStats {
    /// Edge relaxations performed.
    pub relaxations: u64,
    /// Nominal phases of the schedule (`2l + 4 d_G + 1`).
    pub phases: usize,
}

/// A graph preprocessed for fast repeated distance queries: the shortcut
/// set `E⁺`, the per-vertex levels, and the compiled Section 3.2 phase
/// schedule.
pub struct Preprocessed<S: Semiring> {
    pub(crate) n: usize,
    /// `E ∪ E⁺`: base edges first, shortcuts after.
    pub(crate) aug_edges: Store<Edge<S::W>>,
    pub(crate) base_m: usize,
    pub(crate) levels: Store<u32>,
    /// Separator-locality rank (`rank[v]` = memory position of `v`);
    /// the bucket layout key of the compiled schedule.
    pub(crate) order_rank: Store<u32>,
    pub(crate) schedule: Schedule<S>,
    pub(crate) stats: AugmentStats,
}

impl<S: Semiring> Preprocessed<S> {
    /// Compile the query structures from a finished augmentation.
    ///
    /// Derives the separator-locality [`spsep_graph::NodeOrder`] from
    /// `tree` and lays the schedule's relaxation buckets out in that
    /// order (tree locality → memory locality); answers are unaffected
    /// by the layout (see [`crate::schedule::Bucket`]).
    pub fn compile(g: &DiGraph<S::W>, tree: &SepTree, augmentation: Augmentation<S>) -> Self {
        let Augmentation { eplus, stats } = augmentation;
        // `E ∪ E⁺` in the buffer of `E⁺`: grow it, move `E⁺` up, and copy
        // `E` in front, so two copies of `E⁺` are never alive at once.
        let base_m = g.m();
        let a = eplus.len();
        let mut aug_edges = eplus;
        aug_edges.extend_from_slice(g.edges());
        aug_edges.copy_within(0..a, base_m);
        aug_edges[..base_m].copy_from_slice(g.edges());
        let levels = tree.vertex_levels().to_vec();
        let order = separator_locality_order(tree);
        let schedule = Schedule::<S>::compile(
            g.n(),
            g.edges(),
            &aug_edges[base_m..],
            &levels,
            stats.d_g,
            stats.leaf_bound,
            order.ranks(),
        );
        Preprocessed {
            n: g.n(),
            aug_edges: aug_edges.into(),
            base_m,
            levels: levels.into(),
            order_rank: order.ranks().to_vec().into(),
            schedule,
            stats,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shortcut edges `E⁺`.
    pub fn eplus(&self) -> &[Edge<S::W>] {
        &self.aug_edges[self.base_m..]
    }

    /// All edges of `G⁺ = (V, E ∪ E⁺)`.
    pub fn augmented_edges(&self) -> &[Edge<S::W>] {
        &self.aug_edges
    }

    /// Construction statistics.
    pub fn stats(&self) -> AugmentStats {
        self.stats
    }

    /// `level(v)` table ([`spsep_separator::UNDEFINED_LEVEL`] = ∞).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The separator-locality rank array (`rank[v]` = memory position
    /// of `v` in the bucket layout).
    pub fn order_rank(&self) -> &[u32] {
        &self.order_rank
    }

    /// Number of original edges (`E`); augmented edge ids `≥` this are
    /// `E⁺` shortcuts.
    pub fn base_edge_count(&self) -> usize {
        self.base_m
    }

    /// The compiled phase schedule (advanced use: custom runs).
    pub fn schedule(&self) -> &Schedule<S> {
        &self.schedule
    }

    /// Single-source distances by the scheduled Bellman–Ford,
    /// phase-parallel via rayon; work/depth charged to `metrics`.
    pub fn distances(&self, source: usize, metrics: &Metrics) -> Vec<S::W> {
        let _span = spsep_trace::span!("query.sssp", source = source);
        self.schedule.run_parallel(source, metrics)
    }

    /// Single-source distances, sequential execution, with statistics.
    pub fn distances_seq(&self, source: usize) -> (Vec<S::W>, QueryStats) {
        let mut span = spsep_trace::span!("query.sssp_seq", source = source);
        let (dist, relaxations) = self.schedule.run_seq(source);
        span.add_ops(relaxations);
        (
            dist,
            QueryStats {
                relaxations,
                phases: self.schedule.total_phases(),
            },
        )
    }

    /// Multi-source distances from an initial label vector: the result at
    /// `v` is `⊕_u init[u] ⊗ dist(u, v)`. With `init[u] = 1̄` on a source
    /// set and `0̄` elsewhere this is classic multi-source shortest paths
    /// — one schedule run instead of `s`.
    pub fn distances_from_init(&self, init: Vec<S::W>) -> (Vec<S::W>, QueryStats) {
        let (dist, relaxations) = self.schedule.run_seq_init(init);
        (
            dist,
            QueryStats {
                relaxations,
                phases: self.schedule.total_phases(),
            },
        )
    }

    /// Distances from many sources: parallel across sources (each source
    /// runs the sequential schedule — the `s`-fold parallelism of the
    /// paper's "work per source" accounting).
    pub fn distances_multi(&self, sources: &[usize]) -> Vec<Vec<S::W>> {
        sources
            .par_iter()
            .map(|&s| self.schedule.run_seq(s).0)
            .collect()
    }

    /// Arcs one scheduled query scans (`O(l·|E_∞| + |E ∪ E⁺|)`, with
    /// `E_∞` the arcs touching a level-∞ vertex).
    pub fn arcs_per_query(&self) -> u64 {
        self.schedule.arcs_per_run()
    }

    /// Reference execution: plain Bellman–Ford over **all** of `G⁺` until
    /// fixpoint (at most `max_rounds` rounds). Used by tests to validate
    /// the schedule and by the Theorem 3.1 diameter measurements; `Err` if
    /// still changing after `max_rounds` (absorbing cycle).
    pub fn distances_unscheduled(
        &self,
        source: usize,
        max_rounds: usize,
    ) -> Result<(Vec<S::W>, usize), AbsorbingCycle> {
        let mut dist = vec![S::zero(); self.n];
        dist[source] = S::one();
        for round in 0..=max_rounds {
            let mut changed = false;
            for e in self.aug_edges.iter() {
                let du = dist[e.from as usize];
                if S::is_zero(du) {
                    continue;
                }
                let cand = S::extend(du, e.w);
                let cur = dist[e.to as usize];
                let merged = S::combine(cur, cand);
                if merged != cur {
                    dist[e.to as usize] = merged;
                    changed = true;
                }
            }
            if !changed {
                return Ok((dist, round));
            }
        }
        Err(AbsorbingCycle)
    }
}

impl<S: Semiring> Preprocessed<S> {
    /// Weight and explicit vertex path (over the **original** edges) of a
    /// shortest `u → v` path: one scheduled query from `u`, then a
    /// tight-edge walk. `None` if `v` is unreachable.
    ///
    /// Paper comment (ii): "the algorithm as stated computes only
    /// distances, but it can be easily adapted to explicitly find minimum
    /// weight paths."
    pub fn shortest_path(&self, g: &DiGraph<S::W>, u: usize, v: usize) -> Option<(S::W, Vec<u32>)> {
        let (dist, _) = self.distances_seq(u);
        if S::is_zero(dist[v]) {
            return None;
        }
        let parent = shortest_path_tree::<S>(g, u, &dist);
        let path = path_from_tree(g, &parent, u, v)?;
        Some((dist[v], path))
    }

    /// Distances for `k` arbitrary vertex pairs: pairs are grouped by
    /// source so each distinct source costs one scheduled query
    /// (the practical analogue of the paper's `k`-pairs bounds in the
    /// Section 6 discussion). Returns weights in input order.
    pub fn distances_pairs(&self, pairs: &[(usize, usize)]) -> Vec<S::W> {
        let mut by_source: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (idx, &(u, _)) in pairs.iter().enumerate() {
            by_source.entry(u).or_default().push(idx);
        }
        let sources: Vec<usize> = by_source.keys().copied().collect();
        let rows: Vec<Vec<S::W>> = sources
            .par_iter()
            .map(|&s| self.schedule.run_seq(s).0)
            .collect();
        let mut out = vec![S::zero(); pairs.len()];
        for (s, row) in sources.iter().zip(rows) {
            for &idx in &by_source[s] {
                out[idx] = row[pairs[idx].1];
            }
        }
        out
    }
}

/// Recover a shortest-path tree over the **original** edges from an exact
/// distance vector (paper comment (ii): "it can be easily adapted to
/// explicitly find minimum weight paths").
///
/// An edge `(u,v)` is *tight* when `dist(u) ⊗ w ≈ dist(v)`; a BFS from the
/// source across tight edges assigns every reachable vertex a parent edge
/// on a hop-minimal tight path — zero-weight cycles cannot trap it.
/// Returns `parent[v]` = edge id into `v` (`u32::MAX` for the source and
/// unreachable vertices).
pub fn shortest_path_tree<S: Semiring>(
    g: &DiGraph<S::W>,
    source: usize,
    dist: &[S::W],
) -> Vec<u32> {
    let n = g.n();
    let mut parent = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[source] = true;
    queue.push_back(source as u32);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &eid in g.out_edge_ids(v as usize) {
            let e = g.edge(eid as usize);
            let u = e.to as usize;
            if visited[u] || S::is_zero(dist[u]) {
                continue;
            }
            if S::approx_eq(S::extend(dv, e.w), dist[u]) {
                visited[u] = true;
                parent[u] = eid;
                queue.push_back(e.to);
            }
        }
    }
    parent
}

/// Extract the vertex path source → … → `v` from a parent table, `None`
/// if `v` was not reached.
pub fn path_from_tree<W: Copy>(
    g: &DiGraph<W>,
    parent: &[u32],
    source: usize,
    v: usize,
) -> Option<Vec<u32>> {
    if v != source && parent[v] == u32::MAX {
        return None;
    }
    let mut path = vec![v as u32];
    let mut cur = v;
    let mut guard = 0usize;
    while cur != source {
        let e = g.edge(parent[cur] as usize);
        cur = e.from as usize;
        path.push(cur as u32);
        guard += 1;
        if guard > g.n() {
            return None; // defensive: corrupt parent table
        }
    }
    path.reverse();
    Some(path)
}
