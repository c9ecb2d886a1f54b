//! Generic recursive decomposition engine.
//!
//! Builders supply a *separator finder* — a function that, given one
//! subproblem (an induced subgraph plus optional payload such as
//! coordinates), returns a [`Separation`]. The engine handles everything
//! else: disconnected subgraphs, recursion (in parallel via
//! `rayon::join`), progress guarantees, child-subproblem extraction, and
//! final assembly into a [`SepTree`].
//!
//! Per DESIGN.md §5, every separator vertex is placed in **both**
//! children (`V(tᵢ) = Vᵢ ∪ S(t)`), which guarantees
//! `S(t) ⊆ B(t₁) ∩ B(t₂)` — the property Algorithm 4.1 relies on.

use crate::builders::components_split;
use crate::tree::{SepNode, SepTree};

/// A subproblem handed to a separator finder: the induced subgraph on
/// `global` (local ids are positions in `global`), with adjacency `adj`
/// and per-vertex payload rows `payload` (e.g. coordinates;
/// `payload_width` values per vertex, possibly 0).
pub struct SubProblem {
    /// Global vertex id of each local vertex.
    pub global: Vec<u32>,
    /// Induced undirected adjacency over local ids.
    pub adj: Vec<Vec<u32>>,
    /// Row-major payload, `payload_width` values per local vertex.
    pub payload: Vec<f64>,
    /// Number of payload values per vertex (0 = no payload).
    pub payload_width: usize,
}

impl SubProblem {
    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// `true` if the subproblem is empty.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// Payload row of local vertex `v`.
    pub fn payload_of(&self, v: usize) -> &[f64] {
        &self.payload[v * self.payload_width..(v + 1) * self.payload_width]
    }
}

/// Output of a separator finder, all in **local** ids of the subproblem:
/// `separator` must separate `side1` from `side2`, and the three sets must
/// partition the subproblem's vertices.
pub struct Separation {
    /// `S(t)` (local ids).
    pub separator: Vec<u32>,
    /// One side of the cut (local ids).
    pub side1: Vec<u32>,
    /// The other side (local ids).
    pub side2: Vec<u32>,
}

/// Knobs for the recursion.
#[derive(Copy, Clone, Debug)]
pub struct RecursionLimits {
    /// Subproblems of at most this many vertices become leaves.
    pub leaf_size: usize,
    /// Hard recursion-depth cap; deeper subproblems become leaves.
    /// `None` (default) auto-computes `8·⌈log₂ n⌉ + 32` at [`decompose`]
    /// time — far above any balanced builder's height, a safety net
    /// against adversarial finders that would otherwise recurse `O(n)`
    /// deep (e.g. a universal vertex defeating BFS levels).
    pub max_depth: Option<usize>,
}

impl Default for RecursionLimits {
    fn default() -> Self {
        RecursionLimits {
            leaf_size: 4,
            max_depth: None,
        }
    }
}

/// Raw recursion output, flattened later.
enum RawTree {
    Leaf {
        vertices: Vec<u32>, // global, sorted
    },
    Internal {
        vertices: Vec<u32>,  // global, sorted
        separator: Vec<u32>, // global, sorted
        children: Box<(RawTree, RawTree)>,
    },
}

/// Run the engine: decompose the graph whose undirected skeleton is `adj`
/// (global adjacency), with `payload_width` payload values per vertex from
/// `payload`, using `finder` to split connected subproblems.
///
/// The finder is only invoked on **connected** subproblems with more than
/// `limits.leaf_size` vertices; disconnected subproblems are split by
/// components with an empty separator. If a finder fails to make progress
/// (a child as large as the parent), the subproblem becomes a leaf — this
/// keeps the engine total on adversarial inputs at the price of a large
/// `l` (tests assert builders never trigger it on their target families).
pub fn decompose<F>(
    adj: &[Vec<u32>],
    payload: &[f64],
    payload_width: usize,
    limits: RecursionLimits,
    finder: &F,
) -> SepTree
where
    F: Fn(&SubProblem) -> Separation + Sync,
{
    let n = adj.len();
    assert!(n > 0, "cannot decompose the empty graph");
    if payload_width > 0 {
        assert_eq!(payload.len(), n * payload_width);
    }
    let limits = RecursionLimits {
        max_depth: Some(
            limits
                .max_depth
                .unwrap_or_else(|| 8 * (usize::BITS - n.leading_zeros()) as usize + 32),
        ),
        ..limits
    };
    let root_sub = SubProblem {
        global: (0..n as u32).collect(),
        adj: adj.to_vec(),
        payload: payload.to_vec(),
        payload_width,
    };
    let raw = recurse(root_sub, limits, finder, 0);
    let mut nodes = Vec::new();
    flatten(raw, None, 0, &mut nodes);
    SepTree::assemble(n, nodes)
}

fn recurse<F>(sub: SubProblem, limits: RecursionLimits, finder: &F, depth: usize) -> RawTree
where
    F: Fn(&SubProblem) -> Separation + Sync,
{
    if sub.len() <= limits.leaf_size || depth >= limits.max_depth.unwrap_or(usize::MAX) {
        return leaf_from(&sub);
    }
    // Disconnected subproblems split along components with S = ∅.
    let sep = match components_split(&sub.adj) {
        Some((side1, side2)) => Separation {
            separator: Vec::new(),
            side1,
            side2,
        },
        None => finder(&sub),
    };
    debug_assert_eq!(
        sep.separator.len() + sep.side1.len() + sep.side2.len(),
        sub.len(),
        "separation must partition the subproblem"
    );
    // Progress guard.
    let c1 = sep.side1.len() + sep.separator.len();
    let c2 = sep.side2.len() + sep.separator.len();
    if c1 >= sub.len() || c2 >= sub.len() {
        return leaf_from(&sub);
    }
    let separator_global: Vec<u32> = {
        let mut s: Vec<u32> = sep
            .separator
            .iter()
            .map(|&v| sub.global[v as usize])
            .collect();
        s.sort_unstable();
        s
    };
    let vertices_global = {
        let mut v = sub.global.clone();
        v.sort_unstable();
        v
    };
    let sub1 = extract_child(&sub, &sep.side1, &sep.separator);
    let sub2 = extract_child(&sub, &sep.side2, &sep.separator);
    drop(sub);
    // Weighted by total subproblem size: tiny recursions (small leaves
    // near the bottom of the tree) run inline instead of paying a pool
    // handoff per node.
    let (t1, t2) = rayon::join_weighted(
        sub1.len() + sub2.len(),
        || recurse(sub1, limits, finder, depth + 1),
        || recurse(sub2, limits, finder, depth + 1),
    );
    RawTree::Internal {
        vertices: vertices_global,
        separator: separator_global,
        children: Box::new((t1, t2)),
    }
}

fn leaf_from(sub: &SubProblem) -> RawTree {
    let mut vertices = sub.global.clone();
    vertices.sort_unstable();
    RawTree::Leaf { vertices }
}

/// Build the child subproblem on `side ∪ separator` (local ids of the
/// parent), preserving payload rows and the induced adjacency.
fn extract_child(parent: &SubProblem, side: &[u32], separator: &[u32]) -> SubProblem {
    let mut members: Vec<u32> = side.iter().chain(separator).copied().collect();
    members.sort_unstable();
    let mut local_of = vec![u32::MAX; parent.len()];
    for (i, &v) in members.iter().enumerate() {
        local_of[v as usize] = i as u32;
    }
    let mut adj = Vec::with_capacity(members.len());
    let mut global = Vec::with_capacity(members.len());
    let pw = parent.payload_width;
    let mut payload = Vec::with_capacity(members.len() * pw);
    for &v in &members {
        global.push(parent.global[v as usize]);
        if pw > 0 {
            payload.extend_from_slice(parent.payload_of(v as usize));
        }
        let neigh: Vec<u32> = parent.adj[v as usize]
            .iter()
            .filter_map(|&u| {
                let l = local_of[u as usize];
                (l != u32::MAX).then_some(l)
            })
            .collect();
        adj.push(neigh);
    }
    SubProblem {
        global,
        adj,
        payload,
        payload_width: pw,
    }
}

fn flatten(raw: RawTree, parent: Option<u32>, level: u32, nodes: &mut Vec<SepNode>) -> u32 {
    let id = nodes.len() as u32;
    match raw {
        RawTree::Leaf { vertices } => {
            nodes.push(SepNode {
                vertices,
                separator: Vec::new(),
                boundary: Vec::new(),
                children: None,
                parent,
                level,
            });
        }
        RawTree::Internal {
            vertices,
            separator,
            children,
        } => {
            nodes.push(SepNode {
                vertices,
                separator,
                boundary: Vec::new(),
                children: None,
                parent,
                level,
            });
            let (r1, r2) = *children;
            let c1 = flatten(r1, Some(id), level + 1, nodes);
            let c2 = flatten(r2, Some(id), level + 1, nodes);
            nodes[id as usize].children = Some((c1, c2));
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_adj(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|v| {
                let mut a = Vec::new();
                if v > 0 {
                    a.push(v as u32 - 1);
                }
                if v + 1 < n {
                    a.push(v as u32 + 1);
                }
                a
            })
            .collect()
    }

    /// Midpoint finder for paths: separator = local middle vertex by
    /// global order.
    fn midpoint_finder(sub: &SubProblem) -> Separation {
        let mut order: Vec<u32> = (0..sub.len() as u32).collect();
        order.sort_by_key(|&v| sub.global[v as usize]);
        let mid = order.len() / 2;
        Separation {
            separator: vec![order[mid]],
            side1: order[..mid].to_vec(),
            side2: order[mid + 1..].to_vec(),
        }
    }

    #[test]
    fn decompose_path_is_valid_and_logarithmic() {
        let adj = path_adj(33);
        let tree = decompose(&adj, &[], 0, RecursionLimits::default(), &midpoint_finder);
        tree.validate(&adj).expect("valid decomposition");
        assert!(tree.height() as usize <= 6, "height {}", tree.height());
        assert!(tree.max_leaf_size() <= 4);
        // Every separator of a path must have size ≤ 1.
        assert!(tree.nodes().iter().all(|t| t.separator.len() <= 1));
    }

    #[test]
    fn disconnected_subgraphs_split_on_components() {
        // Two disjoint paths 0–1–2 and 3–4–5.
        let mut adj = path_adj(3);
        adj.extend(
            path_adj(3)
                .into_iter()
                .map(|l| l.iter().map(|&v| v + 3).collect()),
        );
        let tree = decompose(
            &adj,
            &[],
            0,
            RecursionLimits {
                leaf_size: 2,
                ..Default::default()
            },
            &midpoint_finder,
        );
        tree.validate(&adj).expect("valid");
        // Root must have an empty separator (component split).
        assert!(tree.node(0).separator.is_empty());
    }

    #[test]
    fn payload_rows_follow_vertices() {
        let adj = path_adj(8);
        let payload: Vec<f64> = (0..8).map(|v| v as f64 * 10.0).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let finder = |sub: &SubProblem| {
            for v in 0..sub.len() {
                let expect = sub.global[v] as f64 * 10.0;
                assert_eq!(sub.payload_of(v), &[expect]);
                seen.lock().unwrap().push(sub.global[v]);
            }
            midpoint_finder(sub)
        };
        let tree = decompose(
            &adj,
            &payload,
            1,
            RecursionLimits {
                leaf_size: 2,
                ..Default::default()
            },
            &finder,
        );
        tree.validate(&adj).expect("valid");
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn no_progress_becomes_leaf() {
        // Finder that puts everything in side1 — engine must fall back to
        // a leaf instead of recursing forever.
        let adj = path_adj(10);
        let bad = |sub: &SubProblem| Separation {
            separator: vec![],
            side1: (0..sub.len() as u32).collect(),
            side2: vec![],
        };
        let tree = decompose(
            &adj,
            &[],
            0,
            RecursionLimits {
                leaf_size: 2,
                ..Default::default()
            },
            &bad,
        );
        tree.validate(&adj).expect("valid (single giant leaf)");
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.max_leaf_size(), 10);
    }
}
