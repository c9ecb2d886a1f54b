//! Shared augmentation types: the `E⁺` edge set and per-node interface
//! bookkeeping used by both construction algorithms.

use spsep_graph::{Edge, Semiring};
use spsep_separator::{tree::sorted_union, SepNode, SepTree};

/// Statistics about one `E⁺` construction.
#[derive(Copy, Clone, Debug, Default)]
pub struct AugmentStats {
    /// `|E⁺|` after parallel-edge deduplication.
    pub eplus_edges: usize,
    /// Candidate pairs emitted before deduplication
    /// (`Σ_t |S(t)|² + |B(t)|²`, minus diagonals / unreachable pairs).
    pub raw_pairs: usize,
    /// Tree height `d_G`.
    pub d_g: u32,
    /// Leaf size bound: `l ≤ max_leaf_size − 1` (Theorem 3.1's `l`).
    pub leaf_bound: usize,
}

/// Result of computing `E⁺`: the deduplicated shortcut edges with their
/// `dist_{G(t)}` weights.
#[derive(Clone, Debug)]
pub struct Augmentation<S: Semiring> {
    /// The shortcut edges (no parallel duplicates; the better weight won).
    pub eplus: Vec<Edge<S::W>>,
    /// Construction statistics.
    pub stats: AugmentStats,
}

/// The *interface* of a tree node: `I(t) = B(t) ∪ S(t)`, sorted by global
/// vertex id, with the positions of the boundary and separator members.
///
/// Both construction algorithms compute dense matrices over `I(t)`: the
/// parent of `t` only ever reads `B(t)×B(t)` entries, while `E_t` emits
/// `S(t)×S(t) ∪ B(t)×B(t)` entries (Section 3.1).
#[derive(Clone, Debug)]
pub struct Interface {
    /// Sorted global ids of `B(t) ∪ S(t)`.
    pub verts: Vec<u32>,
    /// Positions (into `verts`) of the separator members.
    pub sep_pos: Vec<u32>,
    /// Positions (into `verts`) of the boundary members.
    pub bnd_pos: Vec<u32>,
}

impl Interface {
    /// Interface of `node`. For leaves the boundary is the whole
    /// interface (separators are empty there).
    pub fn of(node: &SepNode) -> Interface {
        let verts = sorted_union(&node.separator, &node.boundary);
        let pos = |set: &[u32]| {
            set.iter()
                .map(|v| {
                    verts
                        .binary_search(v)
                        .unwrap_or_else(|_| unreachable!("member of union"))
                        as u32
                })
                .collect()
        };
        Interface {
            sep_pos: pos(&node.separator),
            bnd_pos: pos(&node.boundary),
            verts,
        }
    }

    /// Number of interface vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// `true` if the interface is empty (e.g. the root of a tree with an
    /// empty separator and no boundary).
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Local position of global vertex `v`, if present.
    #[inline]
    pub fn local(&self, v: u32) -> Option<usize> {
        self.verts.binary_search(&v).ok()
    }
}

/// Deduplicate parallel shortcut edges, keeping the `combine`-better
/// weight, dropping self-loops and `0̄` (no-path) entries.
pub fn dedupe_eplus<S: Semiring>(mut edges: Vec<Edge<S::W>>) -> Vec<Edge<S::W>> {
    edges.retain(|e| e.from != e.to && !S::is_zero(e.w));
    edges.sort_unstable_by_key(|e| (e.from, e.to));
    let mut out: Vec<Edge<S::W>> = Vec::with_capacity(edges.len());
    for e in edges {
        match out.last_mut() {
            Some(last) if last.from == e.from && last.to == e.to => {
                last.w = S::combine(last.w, e.w);
            }
            _ => out.push(e),
        }
    }
    out
}

/// Emit the `E_t` entries of one node from its interface matrix `mat`
/// (row-major over `iface.verts`): all `S×S` and `B×B` pairs.
pub fn emit_node_edges<S: Semiring>(
    iface: &Interface,
    mat: &[S::W],
    out: &mut Vec<Edge<S::W>>,
    raw_pairs: &mut usize,
) {
    let n = iface.len();
    let mut emit_set = |pos: &[u32]| {
        for &a in pos {
            for &b in pos {
                if a == b {
                    continue;
                }
                *raw_pairs += 1;
                let w = mat[a as usize * n + b as usize];
                if !S::is_zero(w) {
                    out.push(Edge {
                        from: iface.verts[a as usize],
                        to: iface.verts[b as usize],
                        w,
                    });
                }
            }
        }
    };
    emit_set(&iface.sep_pos);
    emit_set(&iface.bnd_pos);
}

/// Precompute, for every tree node, its [`Interface`].
pub fn interfaces(tree: &SepTree) -> Vec<Interface> {
    use rayon::prelude::*;
    tree.nodes().par_iter().map(Interface::of).collect()
}

/// Leaves with at least this many vertices consider the sparse
/// (multi-source Dijkstra) path; below it, dense Floyd–Warshall is
/// trivially cheap.
const SPARSE_LEAF_MIN_VERTS: usize = 24;
/// … and the leaf must have at most this many edges per vertex
/// (`m ≤ SPARSE_LEAF_MAX_AVG_DEGREE · k`, the "`m = O(k)`" density gate).
const SPARSE_LEAF_MAX_AVG_DEGREE: usize = 6;

/// How a leaf's interface matrix was computed and what it cost — lets
/// callers charge the right [`spsep_pram::Counter`] (Floyd–Warshall vs
/// Dijkstra) for the work/depth ledger.
#[derive(Copy, Clone, Debug)]
pub struct LeafOutcome {
    /// Primitive ops performed by the chosen engine.
    pub ops: u64,
    /// `true` if the sparse multi-source Dijkstra engine ran.
    pub sparse: bool,
    /// `true` if an absorbing cycle was detected (dense engine only).
    pub absorbing_cycle: bool,
}

/// Exact `dist_{G(t)}` over a **leaf**'s interface, allocating fresh
/// buffers. Thin wrapper over [`leaf_iface_matrix_ws`] for callers
/// without a workspace (tests, one-off uses).
pub fn leaf_iface_matrix<S: Semiring>(
    g: &spsep_graph::DiGraph<S::W>,
    vertices: &[u32],
    iface: &Interface,
) -> (Vec<S::W>, LeafOutcome) {
    let mut ws = crate::workspace::NodeWorkspace::new();
    leaf_iface_matrix_ws::<S>(g, vertices, iface, &mut ws)
}

/// Exact `dist_{G(t)}` over a **leaf**'s interface, projected to the
/// interface positions; scratch comes from `ws` (reset on use). Returns
/// the matrix plus a [`LeafOutcome`] describing the engine and its cost.
///
/// Two engines behind one contract:
///
/// * **dense** — Floyd–Warshall on the induced subgraph (the paper's
///   leaves have O(1) vertices, where this is optimal);
/// * **sparse** — when the leaf is large (`k ≥ SPARSE_LEAF_MIN_VERTS`)
///   but has `m = O(k)` edges, the semiring is selective, and every edge
///   weight is non-improving (so label-setting is valid and no absorbing
///   cycle can exist), multi-source Dijkstra from the interface vertices
///   computes the same `|iface|²` projection in `O(|iface| · m log k)`
///   instead of `k³`.
///
/// The gate is a pure function of the leaf, so the engine choice — and
/// hence every output bit — is identical at every thread count.
pub fn leaf_iface_matrix_ws<S: Semiring>(
    g: &spsep_graph::DiGraph<S::W>,
    vertices: &[u32],
    iface: &Interface,
    ws: &mut crate::workspace::NodeWorkspace<S>,
) -> (Vec<S::W>, LeafOutcome) {
    let k = vertices.len();
    // Build the leaf CSR (local ids = positions in the sorted `vertices`)
    // and check the label-setting precondition along the way.
    ws.leaf_off.clear();
    ws.leaf_to.clear();
    ws.leaf_w.clear();
    ws.leaf_off.push(0);
    let mut nonimproving = true;
    for &v in vertices {
        for e in g.out_edges(v as usize) {
            if let Ok(lj) = vertices.binary_search(&e.to) {
                ws.leaf_to.push(lj as u32);
                ws.leaf_w.push(e.w);
                nonimproving &= !S::better(e.w, S::one());
            }
        }
        ws.leaf_off.push(ws.leaf_to.len() as u32);
    }
    let m_edges = ws.leaf_to.len();

    let m = iface.len();
    let mut mat = vec![S::zero(); m * m];

    let sparse_ok = S::is_selective()
        && nonimproving
        && k >= SPARSE_LEAF_MIN_VERTS
        && m_edges <= SPARSE_LEAF_MAX_AVG_DEGREE * k;

    if sparse_ok {
        ws.sources.clear();
        for &va in &iface.verts {
            let ia = vertices
                .binary_search(&va)
                .unwrap_or_else(|_| unreachable!("iface ⊆ V(leaf)"));
            ws.sources.push(ia as u32);
        }
        let ops = spsep_baselines::sssp_semiring_multi::<S>(
            &ws.leaf_off,
            &ws.leaf_to,
            &ws.leaf_w,
            &ws.sources,
            &mut ws.dist_rows,
            &mut ws.sssp,
        );
        for a in 0..m {
            let row = &ws.dist_rows[a * k..(a + 1) * k];
            for (b, cell) in mat[a * m..(a + 1) * m].iter_mut().enumerate() {
                *cell = row[ws.sources[b] as usize];
            }
        }
        // Non-improving weights mean no cycle can beat the empty path, so
        // no absorbing cycle is possible here.
        return (
            mat,
            LeafOutcome {
                ops,
                sparse: true,
                absorbing_cycle: false,
            },
        );
    }

    let full = &mut ws.dense;
    full.reset_identity(k);
    for (li, off) in ws.leaf_off.windows(2).enumerate() {
        let (lo, hi) = (off[0] as usize, off[1] as usize);
        for (&lj, &w) in ws.leaf_to[lo..hi].iter().zip(&ws.leaf_w[lo..hi]) {
            full.relax(li, lj as usize, w);
        }
    }
    let outcome = full.floyd_warshall();
    for (a, &va) in iface.verts.iter().enumerate() {
        let ia = vertices
            .binary_search(&va)
            .unwrap_or_else(|_| unreachable!("iface ⊆ V(leaf)"));
        for (b, &vb) in iface.verts.iter().enumerate() {
            let ib = vertices
                .binary_search(&vb)
                .unwrap_or_else(|_| unreachable!("iface ⊆ V(leaf)"));
            mat[a * m + b] = full.get(ia, ib);
        }
    }
    (
        mat,
        LeafOutcome {
            ops: outcome.ops,
            sparse: false,
            absorbing_cycle: outcome.absorbing_cycle,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::Tropical;

    #[test]
    fn dedupe_keeps_best_and_drops_loops() {
        let edges = vec![
            Edge::new(0, 1, 3.0),
            Edge::new(0, 1, 1.0),
            Edge::new(1, 1, 0.0),
            Edge::new(1, 2, f64::INFINITY),
            Edge::new(0, 1, 2.0),
            Edge::new(2, 0, 5.0),
        ];
        let out = dedupe_eplus::<Tropical>(edges);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].from, 0);
        assert_eq!(out[0].w, 1.0);
        assert_eq!(out[1].from, 2);
    }

    #[test]
    fn interface_positions() {
        let node = SepNode {
            vertices: vec![0, 1, 2, 3, 4, 5],
            separator: vec![2, 4],
            boundary: vec![0, 4],
            children: None,
            parent: None,
            level: 0,
        };
        let iface = Interface::of(&node);
        assert_eq!(iface.verts, vec![0, 2, 4]);
        assert_eq!(iface.sep_pos, vec![1, 2]);
        assert_eq!(iface.bnd_pos, vec![0, 2]);
        assert_eq!(iface.local(4), Some(2));
        assert_eq!(iface.local(3), None);
    }

    #[test]
    fn emit_covers_s_and_b_pairs() {
        let node = SepNode {
            vertices: vec![0, 1, 2],
            separator: vec![1, 2],
            boundary: vec![0],
            children: None,
            parent: None,
            level: 0,
        };
        let iface = Interface::of(&node);
        // iface.verts = [0,1,2]; matrix rows over these.
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let mat = vec![
            0.0, 1.0, 2.0,
            3.0, 0.0, 4.0,
            inf, 5.0, 0.0,
        ];
        let mut out = Vec::new();
        let mut raw = 0usize;
        emit_node_edges::<Tropical>(&iface, &mat, &mut out, &mut raw);
        // S×S pairs: (1,2) w=4, (2,1) w=5. B×B: only vertex 0 → none.
        assert_eq!(raw, 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.from == 1 && e.to == 2 && e.w == 4.0));
        assert!(out.iter().any(|e| e.from == 2 && e.to == 1 && e.w == 5.0));
    }
}
