//! Algorithm 4.3: computing `E⁺` by simultaneous path doubling.
//!
//! Every tree node `t` keeps a dense matrix `H(t)` over its interface
//! `V_H(t) = S(t) ∪ B(t)`. Leaves initialize with exact `dist_{G(t)}`
//! (Floyd–Warshall on their O(1) subgraph); internal nodes initialize with
//! the original edge weights between their interface vertices. Then, for
//! `2⌈log₂ n⌉ + 2·d_G` rounds (Prop. 4.6 guarantees convergence):
//!
//! 1. every node applies one min-plus squaring step to `H(t)` —
//!    simultaneously, in parallel;
//! 2. every node merges the child weights:
//!    `w_t(e) ← w_t(e) ⊕ w_{t₁}(e) ⊕ w_{t₂}(e)`.
//!
//! The merge runs bottom-up one level per sub-phase, so a parent reads
//! child matrices that are not concurrently written; reading *post-merge*
//! child values only accelerates convergence (weights are monotone upper
//! bounds of the true distances throughout).
//!
//! Compared with Algorithm 4.1 this saves an `O(log n)` factor in time —
//! each round is a single squaring step instead of a full Floyd–Warshall —
//! at the price of an `O(log n)` factor more work (Table 1's two
//! preprocessing rows; experiment E5 measures the trade-off).
//!
//! The iteration stops early once a round changes nothing: the matrices
//! are monotone and their fixpoint equals the `dist_{G(t)}` values that
//! Prop. 4.5 guarantees after the full round count.

use crate::augment::{
    dedupe_eplus, emit_node_edges, interfaces, leaf_iface_matrix_ws, AugmentStats, Augmentation,
    LeafOutcome,
};
use crate::workspace::WorkspacePool;
use crate::AbsorbingCycle;
use rayon::prelude::*;
use spsep_graph::dense::SemiMatrix;
use spsep_graph::{DiGraph, Edge, Semiring};
use spsep_pram::{Counter, Metrics, PhaseRecord};
use spsep_separator::SepTree;
use std::time::Instant;

/// Compute `E⁺` with Algorithm 4.3. Also returns (via
/// [`AugmentStats`]-adjacent metrics) the number of doubling rounds used.
pub fn augment_path_doubling<S: Semiring>(
    g: &DiGraph<S::W>,
    tree: &SepTree,
    metrics: &Metrics,
) -> Result<Augmentation<S>, AbsorbingCycle> {
    assert_eq!(g.n(), tree.n(), "tree and graph disagree on n");
    let ifaces = interfaces(tree);
    let num_nodes = tree.nodes().len();

    // Step i: initialization. Leaf scratch comes from a shared pool so
    // the phase allocates only the node matrices themselves.
    let pool = WorkspacePool::<S>::new();
    let mut init_span = spsep_trace::span!("alg43.init", width = num_nodes);
    let init_start = Instant::now();
    let work_before = metrics.total_work();
    metrics.phase(num_nodes);
    let init: Vec<(SemiMatrix<S>, LeafOutcome)> = (0..num_nodes)
        .into_par_iter()
        .map(|id| {
            let node = &tree.nodes()[id];
            let iface = &ifaces[id];
            let k = iface.len();
            if node.is_leaf() {
                let mut ws = pool.acquire();
                let (flat, outcome) = leaf_iface_matrix_ws::<S>(g, &node.vertices, iface, &mut ws);
                pool.release(ws);
                (SemiMatrix::from_flat(k, flat), outcome)
            } else {
                let mut m = SemiMatrix::<S>::identity(k);
                for (a, &va) in iface.verts.iter().enumerate() {
                    for e in g.out_edges(va as usize) {
                        if let Some(b) = iface.local(e.to) {
                            if b != a {
                                m.relax(a, b, e.w);
                            }
                        }
                    }
                }
                (
                    m,
                    LeafOutcome {
                        ops: 0,
                        sparse: false,
                        absorbing_cycle: false,
                    },
                )
            }
        })
        .collect();
    let mut absorbing = false;
    let mut mats: Vec<SemiMatrix<S>> = Vec::with_capacity(num_nodes);
    for (m, outcome) in init {
        let kind = if outcome.sparse {
            Counter::Dijkstra
        } else {
            Counter::FloydWarshall
        };
        metrics.work(kind, outcome.ops);
        absorbing |= outcome.absorbing_cycle;
        mats.push(m);
    }
    let live_mat_bytes =
        |mats: &[SemiMatrix<S>]| mats.iter().map(|m| m.heap_bytes() as u64).sum::<u64>();
    let init_ops = metrics.total_work() - work_before;
    let init_bytes = live_mat_bytes(&mats) + pool.heap_bytes();
    init_span.add_ops(init_ops);
    init_span.add_bytes(init_bytes);
    drop(init_span);
    metrics.record_phase(PhaseRecord {
        label: "alg43/init".into(),
        width: num_nodes,
        wall_ns: init_start.elapsed().as_nanos() as u64,
        ops: init_ops,
        peak_bytes: init_bytes,
    });
    if absorbing {
        return Err(AbsorbingCycle);
    }

    // Child-position → parent-position maps for the merge step.
    let child_maps: Vec<Option<[Vec<u32>; 2]>> = (0..num_nodes)
        .into_par_iter()
        .map(|id| {
            tree.nodes()[id].children.map(|(c1, c2)| {
                let map_of = |c: u32| -> Vec<u32> {
                    ifaces[c as usize]
                        .verts
                        .iter()
                        .map(|&v| ifaces[id].local(v).map_or(u32::MAX, |p| p as u32))
                        .collect()
                };
                [map_of(c1), map_of(c2)]
            })
        })
        .collect();

    // Step ii: the doubling rounds.
    let max_rounds =
        2 * (usize::BITS - g.n().max(2).leading_zeros()) as usize + 2 * tree.height() as usize + 2;
    let mut rounds_used = 0usize;
    for round in 0..max_rounds {
        rounds_used += 1;
        let mut round_span = spsep_trace::span!("alg43.round", round = round, width = num_nodes);
        let round_start = Instant::now();
        let round_work_before = metrics.total_work();
        // ii(1): squaring, all nodes at once.
        metrics.phase(num_nodes);
        let outcomes: Vec<_> = mats.par_iter_mut().map(|m| m.square_step()).collect();
        let mut changed = false;
        for o in outcomes {
            metrics.work(Counter::Doubling, o.ops);
            changed |= o.changed;
            absorbing |= o.absorbing_cycle;
        }
        if absorbing {
            return Err(AbsorbingCycle);
        }
        // ii(2): merge child weights, one level per sub-phase bottom-up.
        let merge_changed = std::sync::atomic::AtomicBool::new(false);
        for depth in (0..tree.height()).rev() {
            let range = tree.nodes_at_level(depth);
            if range.is_empty() {
                continue;
            }
            metrics.phase(range.len());
            // Split `mats` so parents (level ≤ depth) are written while
            // children (level > depth) are only read.
            let boundary = tree.nodes_at_level(depth + 1).start as usize;
            let (parents, deeper) = mats.split_at_mut(boundary);
            // Two-pass merge: gather each parent's updates from the
            // read-only deeper slice in parallel, then apply them.
            type Updates<W> = Vec<(u32, Vec<(u32, u32, W)>)>;
            let updates: Updates<S::W> = range
                .into_par_iter()
                .map(|id| {
                    let node = &tree.nodes()[id as usize];
                    let mut ups: Vec<(u32, u32, S::W)> = Vec::new();
                    if let (Some((c1, c2)), Some(maps)) = (node.children, &child_maps[id as usize])
                    {
                        for (ci, &c) in [c1, c2].iter().enumerate() {
                            let cm = &deeper[c as usize - boundary];
                            let map = &maps[ci];
                            let k = cm.n();
                            for (a, &pa) in map.iter().enumerate().take(k) {
                                if pa == u32::MAX {
                                    continue;
                                }
                                for (b, &pb) in map.iter().enumerate().take(k) {
                                    if pb == u32::MAX || a == b {
                                        continue;
                                    }
                                    let w = cm.get(a, b);
                                    if !S::is_zero(w) {
                                        ups.push((pa, pb, w));
                                    }
                                }
                            }
                        }
                    }
                    (id, ups)
                })
                .collect();
            for (id, ups) in updates {
                let m = &mut parents[id as usize];
                for (a, b, w) in ups {
                    let old = m.get(a as usize, b as usize);
                    let merged = S::combine(old, w);
                    if merged != old {
                        m.set(a as usize, b as usize, merged);
                        merge_changed.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                metrics.work(Counter::Doubling, 1);
            }
        }
        let round_ops = metrics.total_work() - round_work_before;
        round_span.add_ops(round_ops);
        round_span.add_bytes(live_mat_bytes(&mats));
        drop(round_span);
        metrics.record_phase(PhaseRecord {
            label: format!("alg43/round {round}"),
            width: num_nodes,
            wall_ns: round_start.elapsed().as_nanos() as u64,
            ops: round_ops,
            peak_bytes: live_mat_bytes(&mats),
        });
        if !changed && !merge_changed.into_inner() {
            break;
        }
    }
    metrics.work(Counter::Other, rounds_used as u64);

    // Final diagonal check (absorbing cycles shrink diagonals).
    for m in &mats {
        for i in 0..m.n() {
            if S::better(m.get(i, i), S::one()) {
                return Err(AbsorbingCycle);
            }
        }
    }

    // Step iii: emit E⁺.
    let mut eplus: Vec<Edge<S::W>> = Vec::new();
    let mut raw_pairs = 0usize;
    for (id, m) in mats.iter().enumerate() {
        let iface = &ifaces[id];
        let k = iface.len();
        let mut flat = vec![S::zero(); k * k];
        for a in 0..k {
            flat[a * k..(a + 1) * k].copy_from_slice(m.row(a));
        }
        emit_node_edges::<S>(iface, &flat, &mut eplus, &mut raw_pairs);
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
