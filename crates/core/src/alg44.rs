//! Remark 4.4: path doubling over a **shared** edge table.
//!
//! Algorithm 4.3 "performs some redundant work": when three vertices
//! `u₁, u₂, u₃` are co-resident in several tree nodes, every such node
//! pairs the edges `(u₁,u₂)` and `(u₂,u₃)` in every round, each against
//! its own copy of the weights. The remark's fix: keep **one** copy of
//! every edge of `∪_t E_H(t)` (its weight the `min` over nodes), and one
//! **pairing table** of the triples
//!
//! ```text
//! { (u₁,u₂,u₃) : ∃ t ∈ T_G with {u₁,u₂,u₃} ⊆ V_H(t) }
//! ```
//!
//! pairing each triple once per round against the shared weights. The
//! table depends only on the interface sets, so it is built once; the
//! child-merge step of Algorithm 4.3 disappears entirely (a shared edge
//! *is* the min over nodes).
//!
//! Soundness: every shared weight is the weight of a real path of `G`
//! (pairings concatenate real paths), so shortcuts never undercut true
//! distances — Theorem 3.1(i) holds. Completeness: by induction the
//! shared weight of an edge is `≤` its weight in every node's copy under
//! Algorithm 4.3, so after the same `2⌈log n⌉ + 2·d_G` rounds each
//! emitted `E_t` entry is `≤ dist_{G(t)}` — which is all the Theorem
//! 3.1(ii) shortcut argument needs.
//!
//! Note one intended deviation from Algorithms 4.1/4.3: because pairings
//! may concatenate subpaths discovered by *different* nodes, a shared
//! weight can be **better** than `min_t dist_{G(t)}` (it is still the
//! weight of a real path of `G`, just not one confined to a single
//! `G(t)`), and an `E_t` pair unreachable inside every common `G(t)` can
//! still receive a finite shared weight. `E⁺` is therefore weight-wise
//! `≤` and set-wise `⊇` the other algorithms' output; tests pin down
//! exactly this relation plus end-to-end distance correctness.

use crate::augment::{dedupe_eplus, interfaces, leaf_iface_matrix_ws, AugmentStats, Augmentation};
use crate::workspace::NodeWorkspace;
use crate::AbsorbingCycle;
use rayon::prelude::*;
use spsep_graph::{DiGraph, Edge, Semiring};
use spsep_pram::{Counter, Metrics};
use spsep_separator::SepTree;
use std::collections::HashMap;

/// Compute `E⁺` with the Remark 4.4 shared-table doubling.
///
/// # Memory
/// The pairing table materializes up to `Σ_t (|S(t)|+|B(t)|)³` triples
/// (12 bytes each) before deduplication — fine for `μ ≤ 1/2` families
/// and bounded treewidth, but for 3-D grids at large `n` the table can
/// exceed RAM; prefer [`crate::alg43`] there (the whole point of the
/// remark is trading memory for de-duplicated pairing work).
pub fn augment_shared_doubling<S: Semiring>(
    g: &DiGraph<S::W>,
    tree: &SepTree,
    metrics: &Metrics,
) -> Result<Augmentation<S>, AbsorbingCycle> {
    assert_eq!(g.n(), tree.n(), "tree and graph disagree on n");
    let ifaces = interfaces(tree);

    // --- Shared pair registry: (u, v) → slot. -------------------------
    let mut pair_slot: HashMap<(u32, u32), u32> = HashMap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut slot_of = |u: u32, v: u32, pairs: &mut Vec<(u32, u32)>| -> u32 {
        *pair_slot.entry((u, v)).or_insert_with(|| {
            pairs.push((u, v));
            pairs.len() as u32 - 1
        })
    };
    // Register every ordered interface pair of every node.
    for iface in &ifaces {
        for (i, &u) in iface.verts.iter().enumerate() {
            for (j, &v) in iface.verts.iter().enumerate() {
                if i != j {
                    slot_of(u, v, &mut pairs);
                }
            }
        }
    }
    let num_pairs = pairs.len();
    let mut weight: Vec<S::W> = vec![S::zero(); num_pairs];

    // --- Initialization (step i of Alg 4.3, shared): -------------------
    // leaves contribute dist_{G(leaf)}; original edges contribute w(e).
    let shared_bytes = |pairs: &Vec<(u32, u32)>, weight: &Vec<S::W>| {
        (pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + weight.capacity() * std::mem::size_of::<S::W>()) as u64
    };
    let mut absorbing = false;
    let mut init_span = spsep_trace::span!("alg44.init", width = tree.nodes().len());
    let init_work_before = metrics.total_work();
    metrics.phase(tree.nodes().len());
    // One workspace serves the whole sequential init scan.
    let mut ws = NodeWorkspace::<S>::new();
    for (id, node) in tree.nodes().iter().enumerate() {
        let iface = &ifaces[id];
        if node.is_leaf() {
            let (mat, outcome) = leaf_iface_matrix_ws::<S>(g, &node.vertices, iface, &mut ws);
            let kind = if outcome.sparse {
                Counter::Dijkstra
            } else {
                Counter::FloydWarshall
            };
            metrics.work(kind, outcome.ops);
            absorbing |= outcome.absorbing_cycle;
            let k = iface.len();
            for a in 0..k {
                for b in 0..k {
                    if a == b {
                        continue;
                    }
                    let w = mat[a * k + b];
                    if S::is_zero(w) {
                        continue;
                    }
                    let slot = pair_slot[&(iface.verts[a], iface.verts[b])] as usize;
                    weight[slot] = S::combine(weight[slot], w);
                }
            }
        } else {
            for (a, &va) in iface.verts.iter().enumerate() {
                for e in g.out_edges(va as usize) {
                    if let Some(b) = iface.local(e.to) {
                        if b != a {
                            let slot = pair_slot[&(va, e.to)] as usize;
                            weight[slot] = S::combine(weight[slot], e.w);
                        }
                    }
                }
            }
        }
    }
    let init_ops = metrics.total_work() - init_work_before;
    init_span.add_ops(init_ops);
    init_span.add_bytes(shared_bytes(&pairs, &weight));
    drop(init_span);
    if absorbing {
        return Err(AbsorbingCycle);
    }

    // --- The pairing table (built once; Remark 4.4's "compact table").
    // Triple (u1,u2,u3) ⇒ relax slot(u1,u3) by slot(u1,u2) ⊗ slot(u2,u3).
    // Grouped by the *target* slot so rounds can run group-parallel
    // without write conflicts.
    let mut table_span = spsep_trace::span!("alg44.table");
    let table_work_before = metrics.total_work();
    let mut triples: Vec<(u32, u32, u32)> = Vec::new(); // (target, left, right)
    for iface in &ifaces {
        let k = iface.len();
        for a in 0..k {
            for b in 0..k {
                if a == b {
                    continue;
                }
                for c in 0..k {
                    if c == a || c == b {
                        continue;
                    }
                    let target = pair_slot[&(iface.verts[a], iface.verts[c])];
                    let left = pair_slot[&(iface.verts[a], iface.verts[b])];
                    let right = pair_slot[&(iface.verts[b], iface.verts[c])];
                    triples.push((target, left, right));
                }
            }
        }
    }
    triples.par_sort_unstable();
    triples.dedup();
    metrics.work(Counter::Other, triples.len() as u64);
    // Group boundaries by target slot.
    let mut groups: Vec<(u32, u32, u32)> = Vec::new(); // (target, start, end)
    {
        let mut i = 0;
        while i < triples.len() {
            let target = triples[i].0;
            let start = i as u32;
            while i < triples.len() && triples[i].0 == target {
                i += 1;
            }
            groups.push((target, start, i as u32));
        }
    }
    let table_bytes = (triples.capacity() * std::mem::size_of::<(u32, u32, u32)>()
        + groups.capacity() * std::mem::size_of::<(u32, u32, u32)>()) as u64
        + shared_bytes(&pairs, &weight);
    let table_ops = metrics.total_work() - table_work_before;
    table_span.add_ops(table_ops);
    table_span.add_bytes(table_bytes);
    drop(table_span);

    // --- Doubling rounds. ----------------------------------------------
    let max_rounds =
        2 * (usize::BITS - g.n().max(2).leading_zeros()) as usize + 2 * tree.height() as usize + 2;
    for round in 0..max_rounds {
        let mut round_span = spsep_trace::span!("alg44.round", round = round, width = groups.len());
        let round_work_before = metrics.total_work();
        metrics.phase(groups.len().max(1));
        metrics.work(Counter::Doubling, triples.len() as u64);
        let updates: Vec<(u32, S::W)> = groups
            .par_iter()
            .filter_map(|&(target, start, end)| {
                let mut best = weight[target as usize];
                let mut any = false;
                for &(_, left, right) in &triples[start as usize..end as usize] {
                    let lw = weight[left as usize];
                    if S::is_zero(lw) {
                        continue;
                    }
                    let cand = S::extend(lw, weight[right as usize]);
                    let merged = S::combine(best, cand);
                    if merged != best {
                        best = merged;
                        any = true;
                    }
                }
                any.then_some((target, best))
            })
            .collect();
        let round_ops = metrics.total_work() - round_work_before;
        round_span.add_ops(round_ops);
        round_span.add_bytes(table_bytes);
        drop(round_span);
        if updates.is_empty() {
            break;
        }
        for (slot, w) in updates {
            weight[slot as usize] = w;
        }
    }

    // Absorbing cycles show up as a pair (u,u)? Self-pairs are never
    // registered; detect via u→v→u products instead.
    for &(u, v) in &pairs {
        if let Some(&back) = pair_slot.get(&(v, u)) {
            let cyc = S::extend(weight[pair_slot[&(u, v)] as usize], weight[back as usize]);
            if S::absorbing_cycle(cyc) {
                return Err(AbsorbingCycle);
            }
        }
    }

    // --- Emit E_t from the shared weights. ------------------------------
    let mut eplus: Vec<Edge<S::W>> = Vec::new();
    let mut raw_pairs = 0usize;
    for (id, _node) in tree.nodes().iter().enumerate() {
        let iface = &ifaces[id];
        let mut emit_set = |pos: &[u32]| {
            for &a in pos {
                for &b in pos {
                    if a == b {
                        continue;
                    }
                    raw_pairs += 1;
                    let (u, v) = (iface.verts[a as usize], iface.verts[b as usize]);
                    let w = weight[pair_slot[&(u, v)] as usize];
                    if !S::is_zero(w) {
                        eplus.push(Edge { from: u, to: v, w });
                    }
                }
            }
        };
        emit_set(&iface.sep_pos);
        emit_set(&iface.bnd_pos);
    }
    let eplus = dedupe_eplus::<S>(eplus);
    let stats = AugmentStats {
        eplus_edges: eplus.len(),
        raw_pairs,
        d_g: tree.height(),
        leaf_bound: tree.max_leaf_size().saturating_sub(1),
    };
    Ok(Augmentation { eplus, stats })
}
