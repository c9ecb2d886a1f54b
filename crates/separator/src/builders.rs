//! Separator finders and ready-made tree builders for the paper's target
//! graph families.

use crate::engine::{decompose, RecursionLimits, Separation, SubProblem};
use crate::tree::SepTree;
use spsep_graph::generators::Coords;

/// If the (local) graph `adj` is disconnected, split its components into
/// two balanced groups (greedy largest-first) and return them as sides
/// with an empty separator; `None` if connected.
pub fn components_split(adj: &[Vec<u32>]) -> Option<(Vec<u32>, Vec<u32>)> {
    let comp = spsep_graph::traversal::undirected_components(adj);
    let k = comp.iter().copied().max().map_or(0, |c| c as usize + 1);
    if k <= 1 {
        return None;
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(sizes[c]));
    let mut side_of = vec![0u8; k];
    let (mut w1, mut w2) = (0usize, 0usize);
    for &c in &order {
        if w1 <= w2 {
            side_of[c] = 1;
            w1 += sizes[c];
        } else {
            side_of[c] = 2;
            w2 += sizes[c];
        }
    }
    let mut side1 = Vec::with_capacity(w1);
    let mut side2 = Vec::with_capacity(w2);
    for (v, &c) in comp.iter().enumerate() {
        if side_of[c as usize] == 1 {
            side1.push(v as u32);
        } else {
            side2.push(v as u32);
        }
    }
    Some((side1, side2))
}

/// Turn a bipartition (`in_a[v]`) into a [`Separation`]: the separator is
/// the A-side endpoints of crossing edges, so it trivially separates
/// `A \ S` from `B`. Works for any graph and any partition; separator
/// quality depends on the cut quality.
pub fn cut_from_partition(adj: &[Vec<u32>], in_a: &[bool]) -> Separation {
    let n = adj.len();
    let mut separator = Vec::new();
    let mut side1 = Vec::new();
    let mut side2 = Vec::new();
    for v in 0..n {
        if !in_a[v] {
            side2.push(v as u32);
            continue;
        }
        if adj[v].iter().any(|&u| !in_a[u as usize]) {
            separator.push(v as u32);
        } else {
            side1.push(v as u32);
        }
    }
    Separation {
        separator,
        side1,
        side2,
    }
}

/// Exact hyperplane finder for grid subproblems (payload = integer lattice
/// coordinates): split the axis of widest extent at its middle coordinate;
/// the hyperplane `{coord = mid}` is a separator because grid edges only
/// connect lattice neighbours.
fn grid_finder(sub: &SubProblem) -> Separation {
    let d = sub.payload_width;
    let n = sub.len();
    // Widest axis.
    let mut best_axis = 0;
    let mut best_extent = -1.0f64;
    let mut mins = vec![f64::INFINITY; d];
    let mut maxs = vec![f64::NEG_INFINITY; d];
    for v in 0..n {
        for (a, &x) in sub.payload_of(v).iter().enumerate() {
            mins[a] = mins[a].min(x);
            maxs[a] = maxs[a].max(x);
        }
    }
    for a in 0..d {
        let extent = maxs[a] - mins[a];
        if extent > best_extent {
            best_extent = extent;
            best_axis = a;
        }
    }
    if best_extent < 2.0 {
        // All axes have extent ≤ 2 lattice lines: no hyperplane makes
        // progress; signal the engine to leaf out.
        return Separation {
            separator: vec![],
            side1: (0..n as u32).collect(),
            side2: vec![],
        };
    }
    let mid = ((mins[best_axis] + maxs[best_axis]) / 2.0).floor();
    let mut separator = Vec::new();
    let mut side1 = Vec::new();
    let mut side2 = Vec::new();
    for v in 0..n {
        let x = sub.payload_of(v)[best_axis];
        if x == mid {
            separator.push(v as u32);
        } else if x < mid {
            side1.push(v as u32);
        } else {
            side2.push(v as u32);
        }
    }
    Separation {
        separator,
        side1,
        side2,
    }
}

/// Geometric (Miller–Teng–Vavasis-style) finder: median cut along the
/// axis of widest spread, separator extracted from the crossing edges via
/// [`cut_from_partition`]. Correct on any embedded graph; separator size
/// is `O(k^((d-1)/d))` for bounded-overlap families.
fn geometric_finder(sub: &SubProblem) -> Separation {
    let d = sub.payload_width;
    let n = sub.len();
    let mut best_axis = 0;
    let mut best_extent = -1.0f64;
    for a in 0..d {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in 0..n {
            let x = sub.payload_of(v)[a];
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi - lo > best_extent {
            best_extent = hi - lo;
            best_axis = a;
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        sub.payload_of(a as usize)[best_axis]
            .partial_cmp(&sub.payload_of(b as usize)[best_axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut in_a = vec![false; n];
    for &v in &order[..n / 2] {
        in_a[v as usize] = true;
    }
    cut_from_partition(&sub.adj, &in_a)
}

/// Centroid finder for trees: the separator is the centroid vertex; the
/// remaining components are packed into two balanced sides.
///
/// Assumes the (connected) subproblem is a tree; on non-trees the subtree
/// sizes are wrong but the output is still a valid separation because the
/// sides are exact components of `adj \ {centroid}`.
fn centroid_finder(sub: &SubProblem) -> Separation {
    let n = sub.len();
    // Iterative DFS from 0 computing subtree sizes over the DFS tree.
    let mut parent = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0u32];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(v) = stack.pop() {
        order.push(v);
        for &u in &sub.adj[v as usize] {
            if !seen[u as usize] {
                seen[u as usize] = true;
                parent[u as usize] = v;
                stack.push(u);
            }
        }
    }
    let mut size = vec![1u32; n];
    for &v in order.iter().rev() {
        let p = parent[v as usize];
        if p != u32::MAX {
            size[p as usize] += size[v as usize];
        }
    }
    // Walk from the root towards the heaviest subtree until balanced.
    let total = order.len() as u32;
    let mut c = 0u32;
    loop {
        let mut heavy = None;
        for &u in &sub.adj[c as usize] {
            if parent[u as usize] == c && size[u as usize] * 2 > total {
                heavy = Some(u);
                break;
            }
        }
        match heavy {
            Some(u) => c = u,
            None => break,
        }
    }
    // Components of adj \ {c}: each neighbour's side, grouped.
    let mut comp_sizes: Vec<(u32, Vec<u32>)> = Vec::new(); // (size, members)
    let mut assigned = vec![false; n];
    assigned[c as usize] = true;
    for &start in &sub.adj[c as usize] {
        if assigned[start as usize] {
            continue;
        }
        let mut members = vec![start];
        assigned[start as usize] = true;
        let mut i = 0;
        while i < members.len() {
            let v = members[i];
            i += 1;
            for &u in &sub.adj[v as usize] {
                if !assigned[u as usize] {
                    assigned[u as usize] = true;
                    members.push(u);
                }
            }
        }
        comp_sizes.push((members.len() as u32, members));
    }
    comp_sizes.sort_by_key(|(s, _)| std::cmp::Reverse(*s));
    let mut side1 = Vec::new();
    let mut side2 = Vec::new();
    for (_, members) in comp_sizes {
        if side1.len() <= side2.len() {
            side1.extend(members);
        } else {
            side2.extend(members);
        }
    }
    Separation {
        separator: vec![c],
        side1,
        side2,
    }
}

/// BFS-level finder for arbitrary connected graphs: BFS from a
/// pseudo-peripheral vertex, take the level whose removal best balances
/// "below" vs "above". Undirected edges never skip a BFS level, so a level
/// is always a separator. Gives `O(√k)`-ish separators on grid-like /
/// bounded-genus graphs; no guarantee on expanders (falls back to a median
/// cut when the level structure is too shallow).
fn bfs_finder(sub: &SubProblem) -> Separation {
    let n = sub.len();
    let active = vec![true; n];
    // Pseudo-peripheral start: farthest vertex from 0.
    let d0 = spsep_graph::traversal::bfs_undirected_masked(&sub.adj, 0, &active);
    let start = (0..n).max_by_key(|&v| d0[v]).unwrap_or(0);
    let dist = spsep_graph::traversal::bfs_undirected_masked(&sub.adj, start, &active);
    let max_level = dist.iter().copied().max().unwrap_or(0);
    if max_level == u32::MAX || max_level < 2 {
        // Disconnected (handled by the engine) or too shallow: median cut
        // in BFS order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| dist[v as usize]);
        let mut in_a = vec![false; n];
        for &v in &order[..n / 2] {
            in_a[v as usize] = true;
        }
        return cut_from_partition(&sub.adj, &in_a);
    }
    let mut level_sizes = vec![0usize; max_level as usize + 1];
    for &d in &dist {
        level_sizes[d as usize] += 1;
    }
    // Choose the interior level minimizing max(below, above), breaking
    // ties towards smaller separators.
    let mut below = level_sizes[0];
    let mut best: Option<(usize, usize, usize)> = None; // (max_side, sep, level)
    for (l, &sep) in level_sizes
        .iter()
        .enumerate()
        .take(max_level as usize)
        .skip(1)
    {
        let above = n - below - sep;
        let score = below.max(above);
        if best.is_none_or(|(s, sp, _)| score < s || (score == s && sep < sp)) {
            best = Some((score, sep, l));
        }
        below += sep;
    }
    let Some((_, _, l)) = best else {
        unreachable!("max_level >= 2 guarantees an interior level")
    };
    let mut separator = Vec::new();
    let mut side1 = Vec::new();
    let mut side2 = Vec::new();
    for (v, &dv) in dist.iter().enumerate() {
        match (dv as usize).cmp(&l) {
            std::cmp::Ordering::Less => side1.push(v as u32),
            std::cmp::Ordering::Equal => separator.push(v as u32),
            std::cmp::Ordering::Greater => side2.push(v as u32),
        }
    }
    Separation {
        separator,
        side1,
        side2,
    }
}

/// Decomposition tree for the d-dimensional grid `dims` (hyperplane
/// separators). This is the construction behind the paper's Figure 1.
///
/// The effective leaf size is at least `2^d` so the hyperplane finder
/// always has an axis of extent ≥ 3 to split.
///
/// ```
/// use spsep_separator::{builders, RecursionLimits};
///
/// let tree = builders::grid_tree(&[9, 9], RecursionLimits::default());
/// // The paper's Figure 1: the root separator is the middle grid line.
/// assert_eq!(tree.node(0).separator, vec![36, 37, 38, 39, 40, 41, 42, 43, 44]);
/// assert!(tree.height() <= 8);
/// ```
pub fn grid_tree(dims: &[usize], limits: RecursionLimits) -> SepTree {
    let (skeleton_graph, coords) = spsep_graph::generators::grid_with_weights(dims, |_, _| 1.0);
    let adj = skeleton_graph.undirected_skeleton();
    let limits = RecursionLimits {
        leaf_size: limits.leaf_size.max(1usize << dims.len()),
        ..limits
    };
    decompose(&adj, coords.as_flat(), coords.dim(), limits, &grid_finder)
}

/// Decomposition tree for an embedded graph via geometric median cuts.
pub fn geometric_tree(adj: &[Vec<u32>], coords: &Coords, limits: RecursionLimits) -> SepTree {
    assert_eq!(adj.len(), coords.len());
    decompose(
        adj,
        coords.as_flat(),
        coords.dim(),
        limits,
        &geometric_finder,
    )
}

/// Decomposition tree for a tree-shaped graph via centroid separators
/// (`|S(t)| = 1` everywhere: the `μ → 0` end of Table 1).
pub fn centroid_tree(adj: &[Vec<u32>], limits: RecursionLimits) -> SepTree {
    decompose(adj, &[], 0, limits, &centroid_finder)
}

/// Decomposition tree for an arbitrary graph via BFS-level separators
/// (no size guarantee; exact Section 5 behaviour on grid-like inputs).
pub fn bfs_tree(adj: &[Vec<u32>], limits: RecursionLimits) -> SepTree {
    decompose(adj, &[], 0, limits, &bfs_finder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_tree_9x9_matches_figure_1_shape() {
        let tree = grid_tree(&[9, 9], RecursionLimits::default());
        let (g, _) = spsep_graph::generators::grid_with_weights(&[9, 9], |_, _| 1.0);
        tree.validate(&g.undirected_skeleton()).expect("valid");
        // Root separator is a full 9-vertex grid line (Figure 1 shows the
        // middle column/row).
        assert_eq!(tree.node(0).separator.len(), 9);
        // O(√k) separators: every node obeys |S| ≤ √|V| + 1.
        for t in tree.nodes() {
            assert!(
                t.separator.len() as f64 <= (t.vertices.len() as f64).sqrt() + 1.0,
                "|S|={} |V|={}",
                t.separator.len(),
                t.vertices.len()
            );
        }
        assert!(tree.height() <= 8);
    }

    #[test]
    fn grid_tree_3d() {
        let tree = grid_tree(&[5, 5, 5], RecursionLimits::default());
        let (g, _) = spsep_graph::generators::grid_with_weights(&[5, 5, 5], |_, _| 1.0);
        tree.validate(&g.undirected_skeleton()).expect("valid");
        // Root separator is a 5×5 plane.
        assert_eq!(tree.node(0).separator.len(), 25);
    }

    #[test]
    fn grid_tree_path_like() {
        let tree = grid_tree(&[17], RecursionLimits::default());
        let (g, _) = spsep_graph::generators::grid_with_weights(&[17], |_, _| 1.0);
        tree.validate(&g.undirected_skeleton()).expect("valid");
        assert!(tree.nodes().iter().all(|t| t.separator.len() <= 1));
    }

    #[test]
    fn geometric_tree_on_random_points() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, coords) = spsep_graph::generators::geometric(300, 2, 0.12, &mut rng);
        let adj = g.undirected_skeleton();
        let tree = geometric_tree(&adj, &coords, RecursionLimits::default());
        tree.validate(&adj).expect("valid");
        // Separators should be well below linear: |S| ≤ 6√|V| is generous.
        for t in tree.nodes() {
            assert!(
                (t.separator.len() as f64) <= 6.0 * (t.vertices.len() as f64).sqrt(),
                "|S|={} |V|={}",
                t.separator.len(),
                t.vertices.len()
            );
        }
    }

    #[test]
    fn centroid_tree_on_random_tree() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = spsep_graph::generators::random_tree(200, &mut rng);
        let adj = g.undirected_skeleton();
        let tree = centroid_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).expect("valid");
        assert!(tree.nodes().iter().all(|t| t.separator.len() <= 1));
        // Centroid recursion is logarithmic.
        assert!(tree.height() <= 20, "height {}", tree.height());
    }

    #[test]
    fn bfs_tree_on_grid_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = spsep_graph::generators::grid(&[12, 12], &mut rng);
        let adj = g.undirected_skeleton();
        let tree = bfs_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).expect("valid");
        assert!(tree.height() >= 2);
    }

    #[test]
    fn bfs_tree_on_disconnected_graph() {
        // Two 3x3 grids, disjoint.
        let (g, _) = spsep_graph::generators::grid_with_weights(&[3, 3], |_, _| 1.0);
        let mut adj = g.undirected_skeleton();
        let shift: Vec<Vec<u32>> = adj
            .iter()
            .map(|l| l.iter().map(|&v| v + 9).collect())
            .collect();
        adj.extend(shift);
        let tree = bfs_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).expect("valid");
        assert!(tree.node(0).separator.is_empty());
        let (c1, c2) = tree.node(0).children.unwrap();
        assert_eq!(tree.node(c1).vertices.len(), 9);
        assert_eq!(tree.node(c2).vertices.len(), 9);
    }

    #[test]
    fn bfs_tree_on_complete_graph_still_valid() {
        // Expander-ish worst case: K6. BFS has 2 levels; fallback path.
        let n = 6;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| (0..n as u32).filter(|&u| u != v as u32).collect())
            .collect();
        let tree = bfs_tree(
            &adj,
            RecursionLimits {
                leaf_size: 2,
                ..Default::default()
            },
        );
        tree.validate(&adj).expect("valid");
    }

    #[test]
    fn cut_from_partition_separates() {
        // Path 0-1-2-3, A = {0,1}.
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let sep = cut_from_partition(&adj, &[true, true, false, false]);
        assert_eq!(sep.separator, vec![1]);
        assert_eq!(sep.side1, vec![0]);
        assert_eq!(sep.side2, vec![2, 3]);
    }

    #[test]
    fn components_split_balances() {
        // Components of sizes 5, 3, 2 → sides {5} and {3,2}.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); 10];
        let link = |a: usize, b: usize, adj: &mut Vec<Vec<u32>>| {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        };
        for i in 0..4 {
            link(i, i + 1, &mut adj);
        }
        link(5, 6, &mut adj);
        link(6, 7, &mut adj);
        link(8, 9, &mut adj);
        let (s1, s2) = components_split(&adj).expect("disconnected");
        assert_eq!(s1.len() + s2.len(), 10);
        assert_eq!(s1.len().max(s2.len()), 5);
    }
}
