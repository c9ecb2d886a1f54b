//! Reachability specialization with word-parallel boolean matrices.
//!
//! Sections 4–5 of the paper: "If the algorithm is used for reachability
//! or transitive closure computations, we can perform step ii … using
//! `M(|S(t)|) log |S(t)|` work" — i.e. every dense shortest-path kernel
//! becomes a boolean matrix product. The asymptotically-fast `M(r)` of
//! Coppersmith–Winograd is galactic; the practical realization is the
//! 64-bit-blocked [`BitMatrix`] (see DESIGN.md's substitution table).
//! The resulting `E⁺` plugs into the same scheduled query engine under
//! the [`Boolean`] semiring.
//!
//! The generic path (`preprocess::<Boolean>`) computes the identical set;
//! this module is the fast variant benchmarked in experiment E8.

use crate::augment::{dedupe_eplus, interfaces, AugmentStats, Augmentation, Interface};
use crate::query::Preprocessed;
use rayon::prelude::*;
use spsep_graph::semiring::Boolean;
use spsep_graph::{BitMatrix, DiGraph, Edge};
use spsep_pram::{Counter, Metrics};
use spsep_separator::SepTree;

/// Estimated word-ops of a boolean `r×k · k×c` product.
fn matmul_ops(r: usize, k: usize, c: usize) -> u64 {
    (r as u64) * (k as u64) * (c as u64).div_ceil(64).max(1)
}

/// Compute the boolean `E⁺` (reachability shortcuts) with the leaves-up
/// strategy, using [`BitMatrix`] kernels in place of Floyd–Warshall.
pub fn augment_reach_leaves_up(
    g: &DiGraph<bool>,
    tree: &SepTree,
    metrics: &Metrics,
) -> Augmentation<Boolean> {
    assert_eq!(g.n(), tree.n());
    let ifaces = interfaces(tree);
    let mut mats: Vec<Option<BitMatrix>> = (0..tree.nodes().len()).map(|_| None).collect();
    let mut eplus: Vec<Edge<bool>> = Vec::new();
    let mut raw_pairs = 0usize;

    // `BitMatrix` rows pack 64 columns per word.
    let bit_bytes = |m: &BitMatrix| (m.rows() * m.cols().div_ceil(64) * 8) as u64;
    let mut live_bytes = 0u64;

    for depth in (0..=tree.height()).rev() {
        let range = tree.nodes_at_level(depth);
        if range.is_empty() {
            continue;
        }
        let width = range.len();
        let mut level_span = spsep_trace::span!("reach.level", level = depth, width = width);
        let work_before = metrics.total_work();
        metrics.phase(width);
        type NodeOut = (u32, BitMatrix, Vec<Edge<bool>>, usize, u64);
        let outputs: Vec<NodeOut> = range
            .clone()
            .into_par_iter()
            .map(|id| {
                let node = tree.node(id);
                let iface = &ifaces[id as usize];
                let (mat, ops) = if node.is_leaf() {
                    leaf_closure(g, &node.vertices, iface)
                } else {
                    let Some((c1, c2)) = node.children else {
                        unreachable!("non-leaf node has children")
                    };
                    let (Some(m1), Some(m2)) =
                        (mats[c1 as usize].as_ref(), mats[c2 as usize].as_ref())
                    else {
                        unreachable!("children processed before parent (BFS order)")
                    };
                    internal_closure(iface, &ifaces[c1 as usize], m1, &ifaces[c2 as usize], m2)
                };
                let (edges, raw) = emit_bool(iface, &mat);
                (id, mat, edges, raw, ops)
            })
            .collect();
        let mut level_peak = live_bytes;
        for (id, mat, edges, raw, ops) in outputs {
            metrics.work(Counter::MatMul, ops);
            raw_pairs += raw;
            eplus.extend(edges);
            live_bytes += bit_bytes(&mat);
            mats[id as usize] = Some(mat);
            level_peak = level_peak.max(live_bytes);
            if let Some((c1, c2)) = tree.node(id).children {
                for c in [c1, c2] {
                    if let Some(cm) = mats[c as usize].take() {
                        live_bytes -= bit_bytes(&cm);
                    }
                }
            }
        }
        let level_ops = metrics.total_work() - work_before;
        level_span.add_ops(level_ops);
        level_span.add_bytes(level_peak);
        drop(level_span);
    }

    let eplus = dedupe_eplus::<Boolean>(eplus);
    let stats = AugmentStats {
        eplus_edges: eplus.len(),
        raw_pairs,
        d_g: tree.height(),
        leaf_bound: tree.max_leaf_size().saturating_sub(1),
    };
    Augmentation { eplus, stats }
}

/// Full reachability preprocessing: boolean `E⁺` plus the compiled query
/// schedule under the [`Boolean`] semiring.
pub fn preprocess_reach(
    g: &DiGraph<bool>,
    tree: &SepTree,
    metrics: &Metrics,
) -> Preprocessed<Boolean> {
    let _span = spsep_trace::span!("preprocess_reach", n = g.n());
    let augmentation = {
        let _span = spsep_trace::span!("preprocess.augment");
        augment_reach_leaves_up(g, tree, metrics)
    };
    let _compile_span = spsep_trace::span!("preprocess.compile");
    Preprocessed::compile(g, tree, augmentation)
}

/// Full (reflexive) transitive closure as a [`BitMatrix`]: one scheduled
/// query per source, sources in parallel — the paper's "transitive
/// closure" output form with `Õ(M(n^μ))` preprocessing already paid by
/// `pre`.
pub fn transitive_closure(pre: &Preprocessed<Boolean>) -> BitMatrix {
    let n = pre.n();
    let rows: Vec<Vec<bool>> = (0..n)
        .into_par_iter()
        .map(|s| pre.distances_seq(s).0)
        .collect();
    let mut out = BitMatrix::zeros(n, n);
    for (s, row) in rows.into_iter().enumerate() {
        out.set(s, s, true);
        for (v, r) in row.into_iter().enumerate() {
            if r {
                out.set(s, v, true);
            }
        }
    }
    out
}

/// Reflexive closure of a leaf's induced subgraph, projected to its
/// interface.
fn leaf_closure(g: &DiGraph<bool>, vertices: &[u32], iface: &Interface) -> (BitMatrix, u64) {
    let k = vertices.len();
    let mut adj = BitMatrix::zeros(k, k);
    for (li, &v) in vertices.iter().enumerate() {
        for e in g.out_edges(v as usize) {
            if e.w {
                if let Ok(lj) = vertices.binary_search(&e.to) {
                    adj.set(li, lj, true);
                }
            }
        }
    }
    let closure = adj.transitive_closure();
    let m = iface.len();
    let mut mat = BitMatrix::zeros(m, m);
    for (a, &va) in iface.verts.iter().enumerate() {
        let ia = vertices
            .binary_search(&va)
            .unwrap_or_else(|_| unreachable!("iface ⊆ V(leaf)"));
        for (b, &vb) in iface.verts.iter().enumerate() {
            let ib = vertices
                .binary_search(&vb)
                .unwrap_or_else(|_| unreachable!("iface ⊆ V(leaf)"));
            if closure.get(ia, ib) {
                mat.set(a, b, true);
            }
        }
    }
    let log_k = (usize::BITS - k.max(1).leading_zeros()) as u64;
    (mat, matmul_ops(k, k, k) * log_k)
}

/// Steps i–v of Algorithm 4.1 under the boolean algebra, with
/// word-parallel products.
fn internal_closure(
    iface: &Interface,
    ci1: &Interface,
    m1: &BitMatrix,
    ci2: &Interface,
    m2: &BitMatrix,
) -> (BitMatrix, u64) {
    let ns = iface.sep_pos.len();
    let nb = iface.bnd_pos.len();
    let sep_verts: Vec<u32> = iface
        .sep_pos
        .iter()
        .map(|&p| iface.verts[p as usize])
        .collect();
    let bnd_verts: Vec<u32> = iface
        .bnd_pos
        .iter()
        .map(|&p| iface.verts[p as usize])
        .collect();
    let reach = |u: u32, v: u32| -> bool {
        let via = |ci: &Interface, m: &BitMatrix| -> bool {
            match (ci.local(u), ci.local(v)) {
                (Some(a), Some(b)) => m.get(a, b),
                _ => false,
            }
        };
        via(ci1, m1) || via(ci2, m2)
    };

    // H_S closure.
    let mut hs = BitMatrix::zeros(ns, ns);
    for (a, &u) in sep_verts.iter().enumerate() {
        for (b, &v) in sep_verts.iter().enumerate() {
            if reach(u, v) {
                hs.set(a, b, true);
            }
        }
    }
    let hs = hs.transitive_closure();

    // Rectangular blocks.
    let mut r = BitMatrix::zeros(nb, ns);
    let mut c = BitMatrix::zeros(ns, nb);
    let mut direct = BitMatrix::zeros(nb, nb);
    for (bi, &bv) in bnd_verts.iter().enumerate() {
        for (si, &sv) in sep_verts.iter().enumerate() {
            if reach(bv, sv) {
                r.set(bi, si, true);
            }
            if reach(sv, bv) {
                c.set(si, bi, true);
            }
        }
        for (bj, &bw) in bnd_verts.iter().enumerate() {
            if bi == bj || reach(bv, bw) {
                direct.set(bi, bj, true);
            }
        }
    }
    let t = r.multiply(&hs);
    let mut out_bb = t.multiply(&c);
    out_bb.or_assign(&direct);

    // Assemble the interface matrix.
    let m = iface.len();
    let mut mat = BitMatrix::identity(m);
    for (a, &pa) in iface.sep_pos.iter().enumerate() {
        for (b, &pb) in iface.sep_pos.iter().enumerate() {
            if hs.get(a, b) {
                mat.set(pa as usize, pb as usize, true);
            }
        }
    }
    for (a, &pa) in iface.bnd_pos.iter().enumerate() {
        for (b, &pb) in iface.bnd_pos.iter().enumerate() {
            if out_bb.get(a, b) {
                mat.set(pa as usize, pb as usize, true);
            }
        }
    }
    let log_s = (usize::BITS - ns.max(1).leading_zeros()) as u64;
    let ops = matmul_ops(ns, ns, ns) * log_s + matmul_ops(nb, ns, ns) + matmul_ops(nb, ns, nb);
    (mat, ops)
}

/// Emit the `S×S ∪ B×B` true entries as boolean shortcut edges.
fn emit_bool(iface: &Interface, mat: &BitMatrix) -> (Vec<Edge<bool>>, usize) {
    let mut edges = Vec::new();
    let mut raw = 0usize;
    let mut emit_set = |pos: &[u32]| {
        for &a in pos {
            for &b in pos {
                if a == b {
                    continue;
                }
                raw += 1;
                if mat.get(a as usize, b as usize) {
                    edges.push(Edge {
                        from: iface.verts[a as usize],
                        to: iface.verts[b as usize],
                        w: true,
                    });
                }
            }
        }
    };
    emit_set(&iface.sep_pos);
    emit_set(&iface.bnd_pos);
    (edges, raw)
}
