//! The paper's contribution: parallel shortest paths in digraphs with a
//! separator decomposition (Cohen, SPAA'93 / J. Algorithms 1996).
//!
//! # Pipeline
//!
//! 1. Build (or receive) a separator decomposition tree
//!    ([`spsep_separator::SepTree`]) of the undirected skeleton.
//! 2. **Preprocess** ([`preprocess`]): compute the augmentation set `E⁺`
//!    (Section 3) with either [`Algorithm::LeavesUp`] (Algorithm 4.1) or
//!    [`Algorithm::PathDoubling`] (Algorithm 4.3), then compile the
//!    Section 3.2 phase schedule. By Theorem 3.1, distances in
//!    `G⁺ = (V, E ∪ E⁺)` equal distances in `G` and every distance is
//!    realized by a path of `≤ 4·d_G + 2l + 1` edges whose level sequence
//!    is bitonic.
//! 3. **Query** ([`Preprocessed::distances`] /
//!    [`Preprocessed::distances_multi`]): scheduled Bellman–Ford, scanning
//!    each edge class only in the phases the bitonic structure needs —
//!    `O(l·|E_∞| + |E ∪ E⁺|)` work per source instead of
//!    `O(|E ∪ E⁺|·d_G)`, where `E_∞ ⊆ E` are the arcs with an endpoint
//!    in no separator (the only arcs the `2l` entry/exit phases scan).
//! 4. Optionally recover shortest-path **trees** over the original edges
//!    ([`query::shortest_path_tree`]) — paper comment (ii).
//!
//! Everything is generic over an idempotent [`spsep_graph::Semiring`]
//! (paper comment (iii)); negative cycles (absorbing cycles) are detected
//! during preprocessing (paper comment (i)) and reported as
//! [`SpsepError::AbsorbingCycle`] with an explicit witness cycle.
//! Malformed inputs are caught up front by [`validate_instance`] and
//! reported as [`SpsepError::InvalidDecomposition`]: a typed error,
//! never a panic, never a wrong distance.
//!
//! The entry point that ships is [`Oracle::prepare`], which runs
//! [`preprocess`] and wraps the result for serving; [`Oracle::save_v2`]
//! and [`Oracle::load_path`] persist and memory-map it ([`iov2`]).
//!
//! The [`reach`] module specializes reachability with word-parallel
//! boolean matrices, the practical stand-in for the paper's
//! fast-matrix-multiplication bounds.

// Library code must stay panic-free on untrusted input: unwraps and
// expects are confined to #[cfg(test)] code (internal invariants use
// let-else + unreachable!, which documents *why* they cannot fire).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every public item must explain itself — the crate is the paper's
// reference implementation and doubles as its documentation.
#![warn(missing_docs)]

pub mod alg41;
pub mod alg43;
pub mod alg44;
pub mod analysis;
pub mod augment;
pub mod error;
pub mod explain;
pub mod iov2;
pub mod oracle;
pub mod query;
pub mod reach;
pub mod schedule;
pub mod shortcuts;
pub mod workspace;

pub use augment::{AugmentStats, Augmentation};
pub use error::SpsepError;
pub use oracle::{CacheStats, Oracle, ShardCacheStats};
pub use query::{Preprocessed, QueryStats};

use spsep_graph::{DiGraph, Semiring};
use spsep_pram::Metrics;
use spsep_separator::SepTree;

/// The input contains an absorbing cycle (a negative cycle under the
/// tropical semiring): the requested distances are undefined.
///
/// Detection happens during preprocessing, on the diagonal of the dense
/// per-node computations — paper comment (i). This flag-only type is
/// what the augmentation algorithms ([`alg41`], [`alg43`], [`alg44`])
/// return; [`preprocess`] upgrades it to
/// [`SpsepError::AbsorbingCycle`] with an explicit witness cycle
/// recovered by `spsep_baselines::find_absorbing_cycle_semiring`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AbsorbingCycle;

impl std::fmt::Display for AbsorbingCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains an absorbing (negative) cycle")
    }
}

impl std::error::Error for AbsorbingCycle {}

/// Which `E⁺` construction to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Algorithm 4.1: leaves-up, one tree level per phase, Floyd–Warshall
    /// per node. `O(d_G log² n)` time, the lower-work option.
    #[default]
    LeavesUp,
    /// Algorithm 4.3: all nodes path-double simultaneously for
    /// `2⌈log n⌉ + 2 d_G` rounds. `O(d_G log n)` time, a log factor more
    /// work.
    PathDoubling,
    /// Remark 4.4: path doubling over a **shared** edge/pairing table —
    /// each co-residence triple is paired once per round instead of once
    /// per containing node. Shortcut weights may improve on the other
    /// variants (see [`alg44`]).
    SharedDoubling,
}

/// Cheap pre-flight validation of a `(graph, decomposition)` pair — the
/// checks every pipeline entry point should run before trusting a tree
/// that arrived from disk or from an untrusted builder.
///
/// Verifies, in `O(n + m + #nodes)`:
///
/// 1. the tree was built for a graph of the same size;
/// 2. every vertex is owned by some node (a leaf containing it or a
///    separator, cf. [`SepTree::vertex_node`]);
/// 3. the Prop. 2.1 separation invariant per *edge*: for `(u, v) ∈ E`
///    the owner node of one endpoint must be an ancestor of (or equal
///    to) the owner of the other — otherwise the edge crosses a
///    separator without touching it and scheduled queries would return
///    wrong distances.
///
/// This is deliberately cheaper than [`SepTree::validate`], which also
/// re-checks the internal `V(t)`/`B(t)` set algebra against the full
/// undirected skeleton; `validate_instance` only needs the directed
/// edge list and the maps the tree already carries. Violations are
/// reported as [`SpsepError::InvalidDecomposition`] with the offending
/// vertex attached.
pub fn validate_instance<W: Copy>(g: &DiGraph<W>, tree: &SepTree) -> Result<(), SpsepError> {
    if g.n() != tree.n() {
        return Err(SpsepError::invalid_decomposition(format!(
            "graph has {} vertices but the decomposition covers {}",
            g.n(),
            tree.n()
        )));
    }
    let nodes = tree.nodes();
    // Structural sanity of the node tree itself: bidirectional
    // parent/child links and BFS levels (level(child) = level(parent)+1,
    // root at 0). A level-shuffled or re-parented tree would silently
    // corrupt the phase schedule, which classifies edges by level.
    for (i, t) in nodes.iter().enumerate() {
        match t.parent {
            None => {
                if t.level != 0 {
                    return Err(SpsepError::invalid_node(
                        i as u32,
                        "root node must be at level 0",
                    ));
                }
            }
            Some(p) => {
                let pn = &nodes[p as usize];
                if pn
                    .children
                    .is_none_or(|(a, b)| a as usize != i && b as usize != i)
                {
                    return Err(SpsepError::invalid_node(
                        i as u32,
                        "parent does not list this node as a child",
                    ));
                }
                if t.level != pn.level + 1 {
                    return Err(SpsepError::invalid_node(
                        i as u32,
                        format!(
                            "level {} inconsistent with parent level {}",
                            t.level, pn.level
                        ),
                    ));
                }
            }
        }
    }
    // Euler tour over the node tree: `a` is an ancestor of `b` iff
    // `tin[a] <= tin[b] && tout[b] <= tout[a]`.
    let mut tin = vec![u32::MAX; nodes.len()];
    let mut tout = vec![0u32; nodes.len()];
    let mut clock = 0u32;
    let mut stack: Vec<(u32, bool)> = vec![(tree.root(), false)];
    while let Some((id, done)) = stack.pop() {
        if done {
            tout[id as usize] = clock;
            clock += 1;
            continue;
        }
        tin[id as usize] = clock;
        clock += 1;
        stack.push((id, true));
        if let Some((c1, c2)) = nodes[id as usize].children {
            stack.push((c2, false));
            stack.push((c1, false));
        }
    }
    let owner = |v: u32| -> Result<usize, SpsepError> {
        let t = tree.vertex_node(v as usize);
        if t == u32::MAX || tin[t as usize] == u32::MAX {
            return Err(SpsepError::invalid_vertex(
                v,
                "vertex is in no leaf or separator of the decomposition",
            ));
        }
        Ok(t as usize)
    };
    let ancestor = |a: usize, b: usize| -> bool { tin[a] <= tin[b] && tout[b] <= tout[a] };
    for e in g.edges() {
        let (tu, tv) = (owner(e.from)?, owner(e.to)?);
        if !ancestor(tu, tv) && !ancestor(tv, tu) {
            return Err(SpsepError::InvalidDecomposition {
                node: Some(tu as u32),
                vertex: Some(e.from),
                reason: format!(
                    "edge {}→{} crosses the decomposition: neither endpoint's \
                     node is an ancestor of the other (Prop. 2.1 separation \
                     violated)",
                    e.from, e.to
                ),
            });
        }
    }
    Ok(())
}

/// Full preprocessing: validate the instance ([`validate_instance`]),
/// compute `E⁺` with `algo`, then compile the query schedule. Work and
/// depth are charged to `metrics`.
///
/// # Errors
///
/// * [`SpsepError::InvalidDecomposition`] — the tree does not match the
///   graph (size mismatch, uncovered vertex, or a separator-crossing
///   edge); nothing is computed.
/// * [`SpsepError::AbsorbingCycle`] — an absorbing (negative) cycle was
///   detected during augmentation (paper comment (i)); the attached
///   `witness` is an explicit cycle recovered by
///   `spsep_baselines::find_absorbing_cycle_semiring` (it can be empty
///   only if recovery and detection disagree, which would itself be a
///   bug).
/// * [`SpsepError::Executor`] — a worker panicked inside the parallel
///   augmentation phase; the panic is confined by the executor and
///   surfaced here as a typed error ([`run_protected`]).
///
/// ```
/// use spsep_core::{preprocess, Algorithm};
/// use spsep_graph::semiring::Tropical;
/// use spsep_pram::Metrics;
/// use spsep_separator::{builders, RecursionLimits};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (g, _) = spsep_graph::generators::grid(&[8, 8], &mut rng);
/// let tree = builders::grid_tree(&[8, 8], RecursionLimits::default());
///
/// let metrics = Metrics::new();
/// let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)?;
/// let (dist, stats) = pre.distances_seq(0);
/// assert_eq!(dist[0], 0.0);
/// assert!(dist[63].is_finite());
/// assert!(stats.relaxations > 0);
/// # Ok::<(), spsep_core::SpsepError>(())
/// ```
pub fn preprocess<S: Semiring>(
    g: &DiGraph<S::W>,
    tree: &SepTree,
    algo: Algorithm,
    metrics: &Metrics,
) -> Result<Preprocessed<S>, SpsepError> {
    let _span = spsep_trace::span!("preprocess", algo = format!("{algo:?}"), n = g.n());
    {
        let _span = spsep_trace::span!("preprocess.validate");
        validate_instance(g, tree)?;
    }
    let augmentation = {
        let _span = spsep_trace::span!("preprocess.augment");
        run_protected("preprocess augmentation", || match algo {
            Algorithm::LeavesUp => alg41::augment_leaves_up::<S>(g, tree, metrics),
            Algorithm::PathDoubling => alg43::augment_path_doubling::<S>(g, tree, metrics),
            Algorithm::SharedDoubling => alg44::augment_shared_doubling::<S>(g, tree, metrics),
        })?
        .map_err(|AbsorbingCycle| SpsepError::AbsorbingCycle {
            witness: spsep_baselines::find_absorbing_cycle_semiring::<S>(g).unwrap_or_default(),
        })?
    };
    let _compile_span = spsep_trace::span!("preprocess.compile");
    Ok(Preprocessed::compile(g, tree, augmentation))
}

/// Run `f` — typically a parallel pipeline phase — and convert an
/// escaped panic into [`SpsepError::Executor`] instead of unwinding.
///
/// The executor in the `rayon` shim already confines a worker panic to
/// its chunk and re-raises it exactly once on the calling thread (no
/// poisoned locks, no hung latches); this is the boundary where that
/// re-raised panic becomes a value of the typed error taxonomy. `phase`
/// names the pipeline stage in the error message.
pub fn run_protected<R>(phase: &str, f: impl FnOnce() -> R) -> Result<R, SpsepError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            let SpsepError::Executor { what } = SpsepError::executor_from_payload(payload.as_ref())
            else {
                // executor_from_payload only constructs Executor.
                unreachable!("executor_from_payload returned a non-Executor error")
            };
            Err(SpsepError::Executor {
                what: format!("{phase}: {what}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spsep_graph::semiring::Tropical;
    use spsep_graph::Edge;
    use spsep_separator::{builders, RecursionLimits};

    fn grid_instance(dims: [usize; 2], seed: u64) -> (DiGraph<f64>, SepTree) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
        let tree = builders::grid_tree(&dims, RecursionLimits::default());
        (g, tree)
    }

    #[test]
    fn validate_instance_accepts_valid_pairs() {
        let (g, tree) = grid_instance([9, 7], 1);
        validate_instance(&g, &tree).unwrap();
    }

    #[test]
    fn validate_instance_rejects_size_mismatch() {
        let (g, _) = grid_instance([9, 7], 1);
        let tree = builders::grid_tree(&[5, 5], RecursionLimits::default());
        let err = validate_instance(&g, &tree).unwrap_err();
        assert!(matches!(err, SpsepError::InvalidDecomposition { .. }));
        assert!(err.to_string().contains("63 vertices"));
    }

    #[test]
    fn validate_instance_rejects_separator_crossing_edge() {
        let (g, tree) = grid_instance([9, 9], 2);
        // Splice in an edge between two vertices owned by disjoint
        // subtrees (the grid's opposite corners are never co-resident
        // in a leaf, and neither corner sits in a separator of a 9×9
        // grid tree).
        let mut edges = g.edges().to_vec();
        edges.push(Edge::new(0, g.n() - 1, 1.0));
        let bad = DiGraph::from_edges(g.n(), edges);
        let err = validate_instance(&bad, &tree).unwrap_err();
        assert!(
            matches!(err, SpsepError::InvalidDecomposition { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("Prop. 2.1"));
        // The full validator agrees.
        assert!(tree.validate(&bad.undirected_skeleton()).is_err());
    }

    #[test]
    fn preprocess_rejects_mismatched_tree_before_computing() {
        let (g, _) = grid_instance([9, 7], 3);
        let tree = builders::grid_tree(&[5, 5], RecursionLimits::default());
        let metrics = Metrics::new();
        let Err(err) = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics) else {
            panic!("mismatched tree must be rejected");
        };
        assert!(matches!(err, SpsepError::InvalidDecomposition { .. }));
    }

    #[test]
    fn absorbing_cycle_error_carries_a_real_witness() {
        // A 2×3 grid with one strongly negative back edge inside a leaf
        // region: preprocessing must fail and hand back a closed cycle
        // of negative total weight.
        let (g, tree) = grid_instance([4, 4], 4);
        let mut edges = g.edges().to_vec();
        // Find an existing edge and add its reverse with a large
        // negative weight → guaranteed 2-cycle of negative total.
        let e0 = g.edges()[0];
        edges.push(Edge::new(e0.to as usize, e0.from as usize, -1e6));
        let bad = DiGraph::from_edges(g.n(), edges);
        // The reverse of an existing edge never crosses the
        // decomposition, so pre-flight passes and augmentation runs.
        validate_instance(&bad, &tree).unwrap();
        let metrics = Metrics::new();
        let Err(err) = preprocess::<Tropical>(&bad, &tree, Algorithm::LeavesUp, &metrics) else {
            panic!("negative cycle must be rejected");
        };
        let SpsepError::AbsorbingCycle { witness } = &err else {
            panic!("expected AbsorbingCycle, got {err:?}");
        };
        assert!(!witness.is_empty(), "witness must be recovered");
        // Verify the witness is a closed cycle with negative weight.
        let mut total = 0.0;
        for (i, &u) in witness.iter().enumerate() {
            let v = witness[(i + 1) % witness.len()];
            let w = bad
                .out_edges(u as usize)
                .filter(|e| e.to == v)
                .map(|e| e.w)
                .fold(f64::INFINITY, f64::min);
            assert!(w.is_finite(), "witness uses missing edge {u}->{v}");
            total += w;
        }
        assert!(total < 0.0, "witness cycle weight {total} not negative");
    }
}
