//! Compact weighted directed graphs with CSR adjacency in both directions.
//!
//! The paper's algorithms need three access patterns:
//!
//! * iterate edges *leaving* a vertex (augmentation, Dijkstra baseline);
//! * iterate edges *entering* a vertex (Bellman–Ford relaxation is defined
//!   in Section 3.2 as "scanning the edges entering v");
//! * slice out the subgraph induced by a vertex subset `V(t)` (per-node
//!   processing in Algorithm 4.1 and the leaf initialization of 4.3).
//!
//! [`DiGraph`] keeps the edge list plus two CSR indices (by source and by
//! target) referencing edge ids, so both directions cost one indirection
//! and subgraph extraction is a single pass.

use crate::error::SpsepError;
use crate::slab::Store;

/// A directed edge with weight `W`.
///
/// `#[repr(C)]` so that `Edge<f64>` has a guaranteed padding-free
/// layout (offsets 0/4/8, size 16) and can be borrowed directly out of
/// a `spsep-oracle/v2` snapshot slab (see [`crate::slab::Pod`]).
#[repr(C)]
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Edge<W> {
    /// Source vertex.
    pub from: u32,
    /// Target vertex.
    pub to: u32,
    /// Edge weight (interpreted by a [`crate::Semiring`]).
    pub w: W,
}

impl<W> Edge<W> {
    /// Construct an edge from `from` to `to` with weight `w`.
    pub fn new(from: usize, to: usize, w: W) -> Self {
        Edge {
            from: from as u32,
            to: to as u32,
            w,
        }
    }
}

/// A directed graph over vertices `0..n` with weighted edges and CSR
/// adjacency by source and by target.
///
/// Parallel edges and self-loops are permitted (the augmentation
/// deliberately adds parallel shortcut edges; consumers `combine` them).
///
/// ```
/// use spsep_graph::{DiGraph, Edge};
///
/// let g = DiGraph::from_edges(3, vec![
///     Edge::new(0, 1, 2.5),
///     Edge::new(1, 2, 1.0),
/// ]);
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.out_degree(0), 1);
/// assert_eq!(g.in_edges(2).next().unwrap().from, 1);
/// ```
/// All five arrays are [`Store`]s: owned `Vec`s when built with
/// [`DiGraph::from_edges`], borrowed snapshot slabs when reconstituted
/// zero-copy from a `spsep-oracle/v2` file via
/// [`DiGraph::from_csr_parts`]. Every accessor reads them as slices, so
/// the two cases are indistinguishable to callers.
#[derive(Clone, Debug)]
pub struct DiGraph<W: Copy> {
    n: usize,
    edges: Store<Edge<W>>,
    /// CSR by source: `out_adj[out_off[v]..out_off[v+1]]` are edge ids
    /// leaving `v`.
    out_off: Store<u32>,
    out_adj: Store<u32>,
    /// CSR by target: `in_adj[in_off[v]..in_off[v+1]]` are edge ids
    /// entering `v`.
    in_off: Store<u32>,
    in_adj: Store<u32>,
}

impl<W: Copy> DiGraph<W> {
    /// Build a graph on `n` vertices from an edge list.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: Vec<Edge<W>>) -> Self {
        let mut out_off = vec![0u32; n + 1];
        let mut in_off = vec![0u32; n + 1];
        for e in &edges {
            assert!((e.from as usize) < n, "edge source {} out of range", e.from);
            assert!((e.to as usize) < n, "edge target {} out of range", e.to);
            out_off[e.from as usize] += 1;
            in_off[e.to as usize] += 1;
        }
        // Exclusive prefix sums: off[v] becomes the start of row v.
        let mut oacc = 0u32;
        let mut iacc = 0u32;
        for v in 0..n {
            let (oc, ic) = (out_off[v], in_off[v]);
            out_off[v] = oacc;
            in_off[v] = iacc;
            oacc += oc;
            iacc += ic;
        }
        out_off[n] = oacc;
        in_off[n] = iacc;
        let mut out_adj = vec![0u32; edges.len()];
        let mut in_adj = vec![0u32; edges.len()];
        // Scatter using the offset arrays themselves as write cursors (no
        // cloned cursor arrays): after the scatter, off[v] has advanced to
        // the end of row v — which is exactly the start of row v + 1 — so
        // one shift-right restores the CSR row starts in place.
        for (id, e) in edges.iter().enumerate() {
            let oc = &mut out_off[e.from as usize];
            out_adj[*oc as usize] = id as u32;
            *oc += 1;
            let ic = &mut in_off[e.to as usize];
            in_adj[*ic as usize] = id as u32;
            *ic += 1;
        }
        for v in (1..=n).rev() {
            out_off[v] = out_off[v - 1];
            in_off[v] = in_off[v - 1];
        }
        if n > 0 {
            out_off[0] = 0;
            in_off[0] = 0;
        }
        DiGraph {
            n,
            edges: edges.into(),
            out_off: out_off.into(),
            out_adj: out_adj.into(),
            in_off: in_off.into(),
            in_adj: in_adj.into(),
        }
    }

    /// Reconstitute a graph from pre-built CSR arrays (typically
    /// borrowed snapshot slabs — zero copies). Validates every
    /// structural invariant with typed errors so that a
    /// checksum-consistent but semantically hostile snapshot can never
    /// cause an out-of-bounds access later:
    ///
    /// * both offset arrays have length `n + 1`, start at 0, are
    ///   monotone, and end at `m`;
    /// * both adjacency arrays have length `m` and hold edge ids `< m`;
    /// * every endpoint is `< n`;
    /// * `out_adj`/`in_adj` rows list exactly the edges leaving /
    ///   entering each vertex (position within a row is not constrained
    ///   beyond what [`DiGraph::from_edges`] produces: input order).
    ///
    /// Cost is one O(n + m) sweep — index arithmetic only, no per-edge
    /// decoding and no allocation beyond the error path.
    pub fn from_csr_parts(
        n: usize,
        edges: Store<Edge<W>>,
        out_off: Store<u32>,
        out_adj: Store<u32>,
        in_off: Store<u32>,
        in_adj: Store<u32>,
    ) -> Result<Self, SpsepError> {
        let m = edges.len();
        for (i, e) in edges.iter().enumerate() {
            if (e.from as usize) >= n || (e.to as usize) >= n {
                return Err(SpsepError::invalid_edge(
                    i,
                    format!("endpoint out of range for {n} vertices"),
                ));
            }
        }
        validate_csr_index(n, m, &out_off, &out_adj, "out")?;
        validate_csr_index(n, m, &in_off, &in_adj, "in")?;
        // Row membership: each out row must reference edges leaving v,
        // each in row edges entering v. (Cheap field compares; catches
        // swapped or permuted adjacency sections.)
        for v in 0..n {
            for &id in &out_adj[out_off[v] as usize..out_off[v + 1] as usize] {
                if edges[id as usize].from as usize != v {
                    return Err(SpsepError::invalid_graph_at(
                        v as u32,
                        format!("out-CSR row lists edge {id} which does not leave the vertex"),
                    ));
                }
            }
            for &id in &in_adj[in_off[v] as usize..in_off[v + 1] as usize] {
                if edges[id as usize].to as usize != v {
                    return Err(SpsepError::invalid_graph_at(
                        v as u32,
                        format!("in-CSR row lists edge {id} which does not enter the vertex"),
                    ));
                }
            }
        }
        Ok(DiGraph {
            n,
            edges,
            out_off,
            out_adj,
            in_off,
            in_adj,
        })
    }

    /// The out-CSR offset array (`n + 1` entries; rust_road_router's
    /// `first_out`).
    #[inline]
    pub fn first_out(&self) -> &[u32] {
        &self.out_off
    }

    /// The out-CSR adjacency array (`m` edge ids, grouped by source).
    #[inline]
    pub fn out_adjacency(&self) -> &[u32] {
        &self.out_adj
    }

    /// The in-CSR offset array (`n + 1` entries).
    #[inline]
    pub fn first_in(&self) -> &[u32] {
        &self.in_off
    }

    /// The in-CSR adjacency array (`m` edge ids, grouped by target).
    #[inline]
    pub fn in_adjacency(&self) -> &[u32] {
        &self.in_adj
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (counting parallel edges).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The full edge list, indexed by edge id.
    #[inline]
    pub fn edges(&self) -> &[Edge<W>] {
        &self.edges
    }

    /// The edge with id `id`.
    #[inline]
    pub fn edge(&self, id: usize) -> &Edge<W> {
        &self.edges[id]
    }

    /// Ids of edges leaving `v`.
    #[inline]
    pub fn out_edge_ids(&self, v: usize) -> &[u32] {
        &self.out_adj[self.out_off[v] as usize..self.out_off[v + 1] as usize]
    }

    /// Ids of edges entering `v`.
    #[inline]
    pub fn in_edge_ids(&self, v: usize) -> &[u32] {
        &self.in_adj[self.in_off[v] as usize..self.in_off[v + 1] as usize]
    }

    /// Edges leaving `v`.
    pub fn out_edges(&self, v: usize) -> impl Iterator<Item = &Edge<W>> + '_ {
        self.out_edge_ids(v)
            .iter()
            .map(move |&id| &self.edges[id as usize])
    }

    /// Edges entering `v`.
    pub fn in_edges(&self, v: usize) -> impl Iterator<Item = &Edge<W>> + '_ {
        self.in_edge_ids(v)
            .iter()
            .map(move |&id| &self.edges[id as usize])
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        (self.out_off[v + 1] - self.out_off[v]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: usize) -> usize {
        (self.in_off[v + 1] - self.in_off[v]) as usize
    }

    /// The graph with every edge reversed (weights preserved).
    pub fn reversed(&self) -> DiGraph<W> {
        let edges = self
            .edges
            .iter()
            .map(|e| Edge {
                from: e.to,
                to: e.from,
                w: e.w,
            })
            .collect();
        DiGraph::from_edges(self.n, edges)
    }

    /// Apply `f` to every edge weight, producing a graph over a new weight
    /// domain (e.g. forgetting weights for reachability).
    pub fn map_weights<W2: Copy>(&self, mut f: impl FnMut(&Edge<W>) -> W2) -> DiGraph<W2> {
        let edges = self
            .edges
            .iter()
            .map(|e| Edge {
                from: e.from,
                to: e.to,
                w: f(e),
            })
            .collect();
        DiGraph::from_edges(self.n, edges)
    }

    /// The subgraph induced by `vertices` (paper notation `G(t) =
    /// (V(t), E(V(t)))`), together with the map from new ids to original
    /// ids. `vertices` must not contain duplicates.
    ///
    /// Runs in time proportional to the total degree of `vertices` (using a
    /// scratch map of size `n`, reused across calls via `scratch`).
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (DiGraph<W>, Vec<usize>) {
        let mut local = vec![u32::MAX; self.n];
        for (i, &v) in vertices.iter().enumerate() {
            debug_assert_eq!(local[v], u32::MAX, "duplicate vertex {v}");
            local[v] = i as u32;
        }
        let mut edges = Vec::new();
        for (i, &v) in vertices.iter().enumerate() {
            for e in self.out_edges(v) {
                let lt = local[e.to as usize];
                if lt != u32::MAX {
                    edges.push(Edge {
                        from: i as u32,
                        to: lt,
                        w: e.w,
                    });
                }
            }
        }
        (
            DiGraph::from_edges(vertices.len(), edges),
            vertices.to_vec(),
        )
    }

    /// Undirected-skeleton adjacency: for every vertex, the sorted,
    /// deduplicated list of neighbours ignoring edge direction and weights.
    ///
    /// The separator decomposition "depends only on the undirected
    /// unweighted skeleton of G" (paper comment (iv)); builders consume
    /// this form.
    pub fn undirected_skeleton(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n];
        for e in self.edges.iter() {
            if e.from != e.to {
                adj[e.from as usize].push(e.to);
                adj[e.to as usize].push(e.from);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }
}

/// Validate one direction's CSR index: offsets of length `n + 1`,
/// `0 = off[0] <= … <= off[n] = m`, adjacency of length `m` holding
/// edge ids `< m`.
fn validate_csr_index(
    n: usize,
    m: usize,
    off: &[u32],
    adj: &[u32],
    dir: &str,
) -> Result<(), SpsepError> {
    if off.len() != n + 1 {
        return Err(SpsepError::invalid_graph(format!(
            "{dir}-CSR offsets: expected {} entries, found {}",
            n + 1,
            off.len()
        )));
    }
    if adj.len() != m {
        return Err(SpsepError::invalid_graph(format!(
            "{dir}-CSR adjacency: expected {m} entries, found {}",
            adj.len()
        )));
    }
    if off.first().copied().unwrap_or(0) != 0 || off.last().copied().unwrap_or(0) as usize != m {
        return Err(SpsepError::invalid_graph(format!(
            "{dir}-CSR offsets must start at 0 and end at m = {m}"
        )));
    }
    for w in off.windows(2) {
        if w[1] < w[0] {
            return Err(SpsepError::invalid_graph(format!(
                "{dir}-CSR offsets are not monotone ({} then {})",
                w[0], w[1]
            )));
        }
    }
    for &id in adj {
        if id as usize >= m {
            return Err(SpsepError::invalid_graph(format!(
                "{dir}-CSR adjacency references edge {id} but m = {m}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<f64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
        DiGraph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 3, 2.0),
                Edge::new(0, 2, 4.0),
                Edge::new(2, 3, 0.5),
                Edge::new(3, 0, -1.0),
            ],
        )
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = diamond();
        let outs: Vec<u32> = g.out_edges(0).map(|e| e.to).collect();
        assert_eq!(outs.len(), 2);
        assert!(outs.contains(&1) && outs.contains(&2));
        let ins: Vec<u32> = g.in_edges(3).map(|e| e.from).collect();
        assert!(ins.contains(&1) && ins.contains(&2));
    }

    #[test]
    fn reversal_swaps_directions() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.m(), g.m());
        let outs: Vec<u32> = r.out_edges(3).map(|e| e.to).collect();
        assert!(outs.contains(&1) && outs.contains(&2));
        assert_eq!(r.out_degree(0), 1);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(map, vec![0, 1, 3]);
        // Edges kept: 0->1, 1->3, 3->0 (2->3 and 0->2 dropped).
        assert_eq!(sub.m(), 3);
        let weights: Vec<f64> = sub.edges().iter().map(|e| e.w).collect();
        assert!(weights.contains(&1.0));
        assert!(weights.contains(&2.0));
        assert!(weights.contains(&-1.0));
    }

    #[test]
    fn skeleton_is_symmetric_and_deduped() {
        let mut edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 0, 2.0)];
        edges.push(Edge::new(1, 2, 1.0));
        edges.push(Edge::new(2, 2, 9.0)); // self loop ignored
        let g = DiGraph::from_edges(3, edges);
        let sk = g.undirected_skeleton();
        assert_eq!(sk[0], vec![1]);
        assert_eq!(sk[1], vec![0, 2]);
        assert_eq!(sk[2], vec![1]);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let g = DiGraph::from_edges(2, vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 2);
    }

    #[test]
    fn map_weights_changes_domain() {
        let g = diamond();
        let b = g.map_weights(|_| true);
        assert_eq!(b.m(), g.m());
        assert!(b.edges().iter().all(|e| e.w));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertex() {
        let _ = DiGraph::from_edges(2, vec![Edge::new(0, 5, 1.0)]);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<f64> = DiGraph::from_edges(0, vec![]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn flat_arrays_describe_the_csr() {
        let g = diamond();
        assert_eq!(g.first_out().len(), g.n() + 1);
        assert_eq!(g.out_adjacency().len(), g.m());
        assert_eq!(g.first_in().len(), g.n() + 1);
        assert_eq!(g.in_adjacency().len(), g.m());
        assert_eq!(*g.first_out().last().unwrap() as usize, g.m());
        for v in 0..g.n() {
            assert_eq!(
                g.out_edge_ids(v),
                &g.out_adjacency()[g.first_out()[v] as usize..g.first_out()[v + 1] as usize]
            );
        }
    }

    #[test]
    fn from_csr_parts_roundtrips_and_validates() {
        let g = diamond();
        let rebuilt = DiGraph::from_csr_parts(
            g.n(),
            g.edges().to_vec().into(),
            g.first_out().to_vec().into(),
            g.out_adjacency().to_vec().into(),
            g.first_in().to_vec().into(),
            g.in_adjacency().to_vec().into(),
        )
        .unwrap();
        assert_eq!(rebuilt.edges(), g.edges());
        for v in 0..g.n() {
            assert_eq!(rebuilt.out_edge_ids(v), g.out_edge_ids(v));
            assert_eq!(rebuilt.in_edge_ids(v), g.in_edge_ids(v));
        }

        // Each corruption must be a typed error, never a panic.
        let bad_off = {
            let mut o = g.first_out().to_vec();
            o[2] = o[2].wrapping_sub(1);
            o.swap(1, 3); // break monotonicity
            o
        };
        assert!(DiGraph::from_csr_parts(
            g.n(),
            g.edges().to_vec().into(),
            bad_off.into(),
            g.out_adjacency().to_vec().into(),
            g.first_in().to_vec().into(),
            g.in_adjacency().to_vec().into(),
        )
        .is_err());

        let mut bad_adj = g.out_adjacency().to_vec();
        bad_adj[0] = 99; // out of range edge id
        assert!(DiGraph::from_csr_parts(
            g.n(),
            g.edges().to_vec().into(),
            g.first_out().to_vec().into(),
            bad_adj.into(),
            g.first_in().to_vec().into(),
            g.in_adjacency().to_vec().into(),
        )
        .is_err());

        // Swapped in/out adjacency is caught by row membership.
        assert!(DiGraph::from_csr_parts(
            g.n(),
            g.edges().to_vec().into(),
            g.first_in().to_vec().into(),
            g.in_adjacency().to_vec().into(),
            g.first_out().to_vec().into(),
            g.out_adjacency().to_vec().into(),
        )
        .is_err());

        let mut bad_edges = g.edges().to_vec();
        bad_edges[1].to = 77;
        assert!(DiGraph::from_csr_parts(
            g.n(),
            bad_edges.into(),
            g.first_out().to_vec().into(),
            g.out_adjacency().to_vec().into(),
            g.first_in().to_vec().into(),
            g.in_adjacency().to_vec().into(),
        )
        .is_err());
    }
}
