//! Algorithm 4.1: computing `E⁺` from the leaves up.
//!
//! One parallel phase per tree level, bottom-up. Processing a node `t`
//! with children `t₁, t₂` (paper steps i–v):
//!
//! i.   build `H_S` on `S(t)` with `w(u,v) = min(dist_{G(t₁)}, dist_{G(t₂)})`
//!      — available because `S(t) ⊆ B(t₁) ∩ B(t₂)`;
//! ii.  all-pairs shortest paths on `H_S` (Floyd–Warshall); the result is
//!      `dist_{G(t)}` restricted to `S(t)×S(t)` (Prop. 4.2);
//! iii. build `H` on `B(t) ∪ S(t)` with `B×S`/`S×B` edges from child
//!      distances and `S×S` edges from `dist_{H_S}`;
//! iv.  3-limited shortest paths in `H` from/to every boundary vertex —
//!      realized as the two rectangular min-plus products
//!      `(B×S)·(S×S)` and `(B×S)·(S×B)`, which is exactly the
//!      `O(|B(t)|²|S(t)| + |B(t)||S(t)|²)` work the paper charges;
//! v.   emit `S×S` and `B×B` distances as `E_t`, and keep the `B×B`
//!      matrix for the parent.
//!
//! Leaves compute `dist_{G(t)}` directly (Floyd–Warshall on their O(1)
//! size induced subgraph, or multi-source Dijkstra when a large leaf is
//! sparse — see [`crate::augment::leaf_iface_matrix_ws`]).
//!
//! Per-node scratch comes from a [`WorkspacePool`]: in steady state a
//! level allocates only its outputs (interface matrices, `E_t` lists),
//! and child matrices are freed the moment their parent consumed them.
//! Each level is profiled into [`Metrics`]' phase log (wall time, model
//! ops, peak live bytes of matrices + workspaces).
//!
//! Negative (absorbing) cycles surface as a strictly-better-than-`1̄`
//! diagonal in a leaf or `H_S` computation — the lowest node whose
//! separator the cycle crosses necessarily exposes it (paper comment (i)).

use crate::augment::{
    dedupe_eplus, emit_node_edges, interfaces, AugmentStats, Augmentation, Interface,
};
use crate::workspace::{NodeWorkspace, WorkspacePool};
use crate::AbsorbingCycle;
use rayon::prelude::*;
use spsep_graph::dense::relax_product;
use spsep_graph::{DiGraph, Edge, Semiring};
use spsep_pram::{Counter, Metrics, PhaseRecord};
use spsep_separator::SepTree;
use std::time::Instant;

/// Per-node output: the interface matrix (row-major over
/// `Interface::verts`) and this node's `E_t` contribution.
pub(crate) struct NodeOutput<S: Semiring> {
    mat: Vec<S::W>,
    edges: Vec<Edge<S::W>>,
    raw_pairs: usize,
    fw_ops: u64,
    dijkstra_ops: u64,
    limited_ops: u64,
    absorbing: bool,
}

/// Compute `E⁺` with Algorithm 4.1.
pub fn augment_leaves_up<S: Semiring>(
    g: &DiGraph<S::W>,
    tree: &SepTree,
    metrics: &Metrics,
) -> Result<Augmentation<S>, AbsorbingCycle> {
    assert_eq!(g.n(), tree.n(), "tree and graph disagree on n");
    let ifaces = interfaces(tree);
    let mut mats: Vec<Option<Vec<S::W>>> = (0..tree.nodes().len()).map(|_| None).collect();
    let mut eplus: Vec<Edge<S::W>> = Vec::new();
    let mut raw_pairs = 0usize;
    let mut absorbing = false;
    let pool = WorkspacePool::<S>::new();
    let mat_bytes = |m: &Vec<S::W>| (m.capacity() * std::mem::size_of::<S::W>()) as u64;
    let mut live_bytes: u64 = 0;

    for depth in (0..=tree.height()).rev() {
        let range = tree.nodes_at_level(depth);
        if range.is_empty() {
            continue;
        }
        let width = range.len();
        let mut level_span = spsep_trace::span!("alg41.level", level = depth, width = width);
        let level_start = Instant::now();
        let work_before = metrics.total_work();
        metrics.phase(width);
        let outputs: Vec<(u32, NodeOutput<S>)> = range
            .into_par_iter()
            .map(|id| {
                let mut ws = pool.acquire();
                let node = tree.node(id);
                let out = if node.is_leaf() {
                    process_leaf::<S>(g, &tree.node(id).vertices, &ifaces[id as usize], &mut ws)
                } else {
                    let Some((c1, c2)) = node.children else {
                        unreachable!("non-leaf node has children")
                    };
                    let (Some(m1), Some(m2)) =
                        (mats[c1 as usize].as_deref(), mats[c2 as usize].as_deref())
                    else {
                        unreachable!("children processed before parent (BFS order)")
                    };
                    process_internal::<S>(
                        &ifaces[id as usize],
                        &ifaces[c1 as usize],
                        m1,
                        &ifaces[c2 as usize],
                        m2,
                        &mut ws,
                    )
                };
                pool.release(ws);
                (id, out)
            })
            .collect();
        let mut level_peak = live_bytes;
        for (id, out) in outputs {
            metrics.work(Counter::FloydWarshall, out.fw_ops);
            metrics.work(Counter::Dijkstra, out.dijkstra_ops);
            metrics.work(Counter::Limited, out.limited_ops);
            absorbing |= out.absorbing;
            raw_pairs += out.raw_pairs;
            eplus.extend(out.edges);
            live_bytes += mat_bytes(&out.mat);
            mats[id as usize] = Some(out.mat);
            // Parent + children all live right now: this is the peak.
            level_peak = level_peak.max(live_bytes + pool.heap_bytes());
            // Children are no longer needed; free their matrices.
            if let Some((c1, c2)) = tree.node(id).children {
                for c in [c1, c2] {
                    if let Some(cm) = mats[c as usize].take() {
                        live_bytes -= mat_bytes(&cm);
                    }
                }
            }
        }
        let level_ops = metrics.total_work() - work_before;
        level_span.add_ops(level_ops);
        level_span.add_bytes(level_peak);
        drop(level_span);
        metrics.record_phase(PhaseRecord {
            label: format!("alg41/level {depth}"),
            width,
            wall_ns: level_start.elapsed().as_nanos() as u64,
            ops: level_ops,
            peak_bytes: level_peak,
        });
        if absorbing {
            return Err(AbsorbingCycle);
        }
    }

    let eplus = dedupe_eplus::<S>(eplus);
    metrics.work(Counter::Other, eplus.len() as u64);
    let stats = AugmentStats {
        eplus_edges: eplus.len(),
        raw_pairs,
        d_g: tree.height(),
        leaf_bound: tree.max_leaf_size().saturating_sub(1),
    };
    Ok(Augmentation { eplus, stats })
}

/// Closure over the leaf's induced subgraph (dense or sparse engine),
/// projected to its interface.
fn process_leaf<S: Semiring>(
    g: &DiGraph<S::W>,
    vertices: &[u32],
    iface: &Interface,
    ws: &mut NodeWorkspace<S>,
) -> NodeOutput<S> {
    let (mat, outcome) = crate::augment::leaf_iface_matrix_ws::<S>(g, vertices, iface, ws);
    let mut edges = Vec::new();
    let mut raw_pairs = 0usize;
    emit_node_edges::<S>(iface, &mat, &mut edges, &mut raw_pairs);
    NodeOutput {
        mat,
        edges,
        raw_pairs,
        fw_ops: if outcome.sparse { 0 } else { outcome.ops },
        dijkstra_ops: if outcome.sparse { outcome.ops } else { 0 },
        limited_ops: 0,
        absorbing: outcome.absorbing_cycle,
    }
}

/// Marks a parent interface vertex that a child's interface lacks.
const NO_POS: u32 = u32::MAX;

/// Position in `ci`'s interface matrix of each separator vertex, then
/// each boundary vertex, of `iface` ([`NO_POS`] where `ci` lacks it).
fn child_positions(iface: &Interface, ci: &Interface, out: &mut Vec<u32>) {
    out.clear();
    out.extend(iface.sep_pos.iter().chain(&iface.bnd_pos).map(|&p| {
        ci.local(iface.verts[p as usize])
            .map_or(NO_POS, |q| q as u32)
    }));
}

/// `dist_{G(child)}` between the parent vertices at `i` and `j` of the
/// child's position map (`0̄` if either is outside its interface).
#[inline]
fn child_dist<S: Semiring>(pos: &[u32], cmat: &[S::W], clen: usize, i: usize, j: usize) -> S::W {
    match (pos[i], pos[j]) {
        (NO_POS, _) | (_, NO_POS) => S::zero(),
        (a, b) => cmat[a as usize * clen + b as usize],
    }
}

/// Steps i–v for an internal node. All transient buffers live in `ws`;
/// only the returned interface matrix and edge list are allocated.
pub(crate) fn process_internal<S: Semiring>(
    iface: &Interface,
    ci1: &Interface,
    m1: &[S::W],
    ci2: &Interface,
    m2: &[S::W],
    ws: &mut NodeWorkspace<S>,
) -> NodeOutput<S> {
    let ns = iface.sep_pos.len();
    let nb = iface.bnd_pos.len();
    // Child positions of the separator (`0..ns`) and boundary
    // (`ns..ns + nb`) vertices, looked up once per node.
    child_positions(iface, ci1, &mut ws.pos1);
    child_positions(iface, ci2, &mut ws.pos2);
    let (pos1, pos2) = (&ws.pos1, &ws.pos2);
    let both = |i: usize, j: usize| -> S::W {
        S::combine(
            child_dist::<S>(pos1, m1, ci1.len(), i, j),
            child_dist::<S>(pos2, m2, ci2.len(), i, j),
        )
    };

    // Step i–ii: H_S and its closure.
    let hs = &mut ws.dense;
    hs.reset_identity(ns);
    for a in 0..ns {
        for b in 0..ns {
            if a != b {
                hs.relax(a, b, both(a, b));
            }
        }
    }
    let outcome = hs.floyd_warshall();
    let hs = &ws.dense;

    // Step iii: rectangular blocks of H.
    // R[b][s] = child dist b→s; C[s][b] = child dist s→b;
    // direct[b][b'] = child dist b→b'.
    ws.r.clear();
    ws.c.clear();
    ws.direct.clear();
    for bi in 0..nb {
        ws.r.extend((0..ns).map(|si| both(ns + bi, si)));
        ws.direct.extend((0..nb).map(|bj| {
            if bi == bj {
                S::one()
            } else {
                both(ns + bi, ns + bj)
            }
        }));
    }
    for si in 0..ns {
        ws.c.extend((0..nb).map(|bi| both(si, ns + bi)));
    }

    // Step iv: 3-limited distances B → S → S → B as two min-plus
    // products T = R ⊗ H_S*, OUT = direct ⊕ T ⊗ C, in row-relax form on
    // the dispatched relax primitive. Each cell folds its candidates in
    // ascending `s` order, as an inner product would. The product
    // spreads rows over the pool when it is large (the top tree
    // levels have few nodes but big matrices, so without this the
    // critical path would be sequential).
    ws.t.clear();
    ws.t.resize(nb * ns, S::zero());
    relax_product::<S>(&mut ws.t, &ws.r, hs.data(), nb, ns, ns);
    relax_product::<S>(&mut ws.direct, &ws.t, &ws.c, nb, ns, nb);
    let out_bb = &ws.direct;
    let limited_ops =
        (nb as u64) * (ns as u64) * (ns as u64) + (nb as u64) * (nb as u64) * (ns as u64);

    // Step v: assemble the interface matrix and emit E_t.
    let m = iface.len();
    let mut mat = vec![S::zero(); m * m];
    for i in 0..m {
        mat[i * m + i] = S::one();
    }
    for (a, &pa) in iface.sep_pos.iter().enumerate() {
        for (b, &pb) in iface.sep_pos.iter().enumerate() {
            let cell = &mut mat[pa as usize * m + pb as usize];
            *cell = S::combine(*cell, hs.get(a, b));
        }
    }
    for (a, &pa) in iface.bnd_pos.iter().enumerate() {
        for (b, &pb) in iface.bnd_pos.iter().enumerate() {
            let cell = &mut mat[pa as usize * m + pb as usize];
            *cell = S::combine(*cell, out_bb[a * nb + b]);
        }
    }
    let mut edges = Vec::new();
    let mut raw_pairs = 0usize;
    emit_node_edges::<S>(iface, &mat, &mut edges, &mut raw_pairs);
    NodeOutput {
        mat,
        edges,
        raw_pairs,
        fw_ops: outcome.ops,
        dijkstra_ops: 0,
        limited_ops,
        absorbing: outcome.absorbing_cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::Tropical;

    /// A dirty workspace must be indistinguishable from a fresh one: the
    /// same node processed through a workspace that just handled a
    /// *different* node must produce bit-identical output.
    #[test]
    fn workspace_reuse_leaks_no_state_between_nodes() {
        // Two interfaces over disjoint vertex sets with different sizes.
        let iface_a = Interface {
            verts: vec![0, 1, 2],
            sep_pos: vec![0, 1],
            bnd_pos: vec![2],
        };
        let ci_a1 = Interface {
            verts: vec![0, 1, 2],
            sep_pos: vec![],
            bnd_pos: vec![0, 1, 2],
        };
        let m_a1 = vec![0.0, 1.0, 7.0, 2.0, 0.0, 3.0, f64::INFINITY, 4.0, 0.0];
        let ci_a2 = Interface {
            verts: vec![1, 2],
            sep_pos: vec![],
            bnd_pos: vec![0, 1],
        };
        let m_a2 = vec![0.0, 0.5, 9.0, 0.0];

        let iface_b = Interface {
            verts: vec![5, 6, 7, 8],
            sep_pos: vec![1, 2],
            bnd_pos: vec![0, 3],
        };
        let ci_b = Interface {
            verts: vec![5, 6, 7, 8],
            sep_pos: vec![],
            bnd_pos: vec![0, 1, 2, 3],
        };
        #[rustfmt::skip]
        let m_b = vec![
            0.0, 2.0, f64::INFINITY, 8.0,
            1.0, 0.0, 3.0, f64::INFINITY,
            2.5, 0.25, 0.0, 1.0,
            f64::INFINITY, 6.0, 0.5, 0.0,
        ];

        let fresh = {
            let mut ws = NodeWorkspace::<Tropical>::new();
            process_internal::<Tropical>(&iface_a, &ci_a1, &m_a1, &ci_a2, &m_a2, &mut ws)
        };
        let reused = {
            let mut ws = NodeWorkspace::<Tropical>::new();
            // Dirty every buffer with node B first.
            process_internal::<Tropical>(&iface_b, &ci_b, &m_b, &ci_b, &m_b, &mut ws);
            process_internal::<Tropical>(&iface_a, &ci_a1, &m_a1, &ci_a2, &m_a2, &mut ws)
        };
        assert_eq!(fresh.mat.len(), reused.mat.len());
        for (i, (x, y)) in fresh.mat.iter().zip(&reused.mat).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "cell {i}: {x} vs {y}");
        }
        assert_eq!(fresh.edges.len(), reused.edges.len());
        assert_eq!(fresh.fw_ops, reused.fw_ops);
        assert_eq!(fresh.raw_pairs, reused.raw_pairs);
    }
}
