//! The [`SepTree`] data structure: nodes, boundaries, levels, validation.

use spsep_graph::SpsepError;

/// Index of a node within a [`SepTree`].
pub type NodeId = u32;

/// Sentinel level for vertices that belong to no separator (the proof of
/// Theorem 3.1 treats their level as `+∞`).
pub const UNDEFINED_LEVEL: u32 = u32::MAX;

/// One node `t` of a separator decomposition tree.
#[derive(Clone, Debug)]
pub struct SepNode {
    /// `V(t)`: vertices of the subgraph at this node (sorted global ids).
    pub vertices: Vec<u32>,
    /// `S(t)`: separator of `G(t)` (sorted; empty at leaves).
    pub separator: Vec<u32>,
    /// `B(t) = (S(parent) ∪ B(parent)) ∩ V(t)` (sorted; empty at root).
    pub boundary: Vec<u32>,
    /// Children, if internal.
    pub children: Option<(NodeId, NodeId)>,
    /// Parent, if not the root.
    pub parent: Option<NodeId>,
    /// Depth of this node (root = 0). The paper calls this `level(t)`.
    pub level: u32,
}

impl SepNode {
    /// `true` if this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A separator decomposition tree of a graph on `n` vertices.
///
/// Nodes are stored in **breadth-first order**: all nodes of depth `d`
/// precede all nodes of depth `d+1`, which lets Algorithm 4.1 process one
/// depth per parallel phase by slicing [`SepTree::nodes_at_level`].
#[derive(Clone, Debug)]
pub struct SepTree {
    n: usize,
    nodes: Vec<SepNode>,
    /// `level_off[d]..level_off[d+1]` indexes the nodes of depth `d`.
    level_off: Vec<u32>,
    /// `level(v)` per vertex ([`UNDEFINED_LEVEL`] if in no separator).
    vertex_level: Vec<u32>,
    /// `node(v)` per vertex: shallowest separator containing `v`, or the
    /// unique leaf containing `v`.
    vertex_node: Vec<NodeId>,
    /// Height `d_G` (max root-to-leaf edge count).
    height: u32,
    /// Max `|V(t)|` over leaves — upper-bounds the leaf min-weight
    /// diameter parameter `l` of Theorem 3.1 by `max_leaf_size - 1`.
    max_leaf_size: usize,
}

impl SepTree {
    /// Assemble a tree from nodes that already have `vertices`,
    /// `separator`, `children`, `parent` and `level` set (builders produce
    /// these via [`crate::engine`]); computes BFS order, boundaries and
    /// vertex maps.
    ///
    /// `n` is the number of vertices of the underlying graph.
    ///
    /// Panics if `nodes` is empty or any child/parent/vertex id is out
    /// of range — builders guarantee these preconditions. Untrusted
    /// node lists (deserialized or fault-injected) should go through
    /// [`SepTree::try_assemble`] instead.
    pub fn assemble(n: usize, nodes: Vec<SepNode>) -> SepTree {
        assert!(!nodes.is_empty(), "tree must have a root");
        // Reorder nodes breadth-first.
        let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
        order.sort_by_key(|&i| nodes[i as usize].level);
        let mut renumber = vec![0u32; nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        let mut bfs_nodes: Vec<SepNode> = order
            .iter()
            .map(|&old| {
                let mut node = nodes[old as usize].clone();
                node.children = node
                    .children
                    .map(|(a, b)| (renumber[a as usize], renumber[b as usize]));
                node.parent = node.parent.map(|p| renumber[p as usize]);
                node
            })
            .collect();
        let height = bfs_nodes.last().map(|t| t.level).unwrap_or(0);
        let mut level_off = vec![0u32; height as usize + 2];
        for t in &bfs_nodes {
            level_off[t.level as usize + 1] += 1;
        }
        for d in 0..height as usize + 1 {
            level_off[d + 1] += level_off[d];
        }
        // Boundaries, top-down (BFS order guarantees parents first).
        for i in 0..bfs_nodes.len() {
            let boundary = match bfs_nodes[i].parent {
                None => Vec::new(),
                Some(p) => {
                    let p = &bfs_nodes[p as usize];
                    let merged = sorted_union(&p.separator, &p.boundary);
                    sorted_intersection(&merged, &bfs_nodes[i].vertices)
                }
            };
            bfs_nodes[i].boundary = boundary;
        }
        // Vertex level / node maps: scan nodes in BFS (level) order.
        let mut vertex_level = vec![UNDEFINED_LEVEL; n];
        let mut vertex_node = vec![u32::MAX; n];
        for (i, t) in bfs_nodes.iter().enumerate() {
            for &v in &t.separator {
                if vertex_level[v as usize] == UNDEFINED_LEVEL {
                    vertex_level[v as usize] = t.level;
                    vertex_node[v as usize] = i as u32;
                }
            }
        }
        let mut max_leaf_size = 0usize;
        for (i, t) in bfs_nodes.iter().enumerate() {
            if t.is_leaf() {
                max_leaf_size = max_leaf_size.max(t.vertices.len());
                for &v in &t.vertices {
                    if vertex_level[v as usize] == UNDEFINED_LEVEL
                        && vertex_node[v as usize] == u32::MAX
                    {
                        vertex_node[v as usize] = i as u32;
                    }
                }
            }
        }
        SepTree {
            n,
            nodes: bfs_nodes,
            level_off,
            vertex_level,
            vertex_node,
            height,
            max_leaf_size,
        }
    }

    /// Index-safe variant of [`SepTree::assemble`] for untrusted node
    /// lists: verifies that the list is nonempty and that every
    /// child/parent link and vertex id is in range **before** assembly,
    /// reporting violations as [`SpsepError::InvalidDecomposition`]
    /// instead of panicking. Structural (Prop. 2.1) invariants are
    /// still checked separately by [`SepTree::validate`].
    pub fn try_assemble(n: usize, nodes: Vec<SepNode>) -> Result<SepTree, SpsepError> {
        if nodes.is_empty() {
            return Err(SpsepError::invalid_decomposition("tree must have a root"));
        }
        let len = nodes.len();
        for (i, t) in nodes.iter().enumerate() {
            if let Some((a, b)) = t.children {
                if a as usize >= len || b as usize >= len {
                    return Err(SpsepError::invalid_node(
                        i as u32,
                        format!("child id out of range 0..{len}"),
                    ));
                }
            }
            if let Some(p) = t.parent {
                if p as usize >= len {
                    return Err(SpsepError::invalid_node(
                        i as u32,
                        format!("parent id out of range 0..{len}"),
                    ));
                }
            }
            for &v in t.vertices.iter().chain(&t.separator).chain(&t.boundary) {
                if v as usize >= n {
                    return Err(SpsepError::invalid_node_vertex(
                        i as u32,
                        v,
                        format!("vertex id out of range 0..{n}"),
                    ));
                }
            }
        }
        Ok(SepTree::assemble(n, nodes))
    }

    /// Number of vertices of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All nodes in BFS order.
    pub fn nodes(&self) -> &[SepNode] {
        &self.nodes
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &SepNode {
        &self.nodes[id as usize]
    }

    /// Root id (always 0 after assembly).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Ids of the nodes at depth `d` (contiguous by construction).
    pub fn nodes_at_level(&self, d: u32) -> std::ops::Range<u32> {
        if d as usize + 1 >= self.level_off.len() {
            return 0..0;
        }
        self.level_off[d as usize]..self.level_off[d as usize + 1]
    }

    /// Tree height `d_G`.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Largest leaf `|V(t)|`; `l ≤ max_leaf_size − 1` in Theorem 3.1.
    pub fn max_leaf_size(&self) -> usize {
        self.max_leaf_size
    }

    /// `level(v)` — the paper's per-vertex level ([`UNDEFINED_LEVEL`] when
    /// `v` is in no separator).
    #[inline]
    pub fn vertex_level(&self, v: usize) -> u32 {
        self.vertex_level[v]
    }

    /// The full vertex level table.
    pub fn vertex_levels(&self) -> &[u32] {
        &self.vertex_level
    }

    /// `node(v)` — shallowest node whose separator contains `v`, else the
    /// leaf containing `v`.
    #[inline]
    pub fn vertex_node(&self, v: usize) -> NodeId {
        self.vertex_node[v]
    }

    /// Total `Σ_t |S(t)|` (diagnostics).
    pub fn total_separator_size(&self) -> usize {
        self.nodes.iter().map(|t| t.separator.len()).sum()
    }

    /// Sum over nodes of `|S(t)|² + |B(t)|²` — the size of the `E⁺`
    /// candidate set before deduplication (Theorem 5.1(iii) measures its
    /// growth).
    pub fn eplus_candidate_size(&self) -> usize {
        self.nodes
            .iter()
            .map(|t| t.separator.len().pow(2) + t.boundary.len().pow(2))
            .sum()
    }

    /// Validate every structural invariant against the undirected skeleton
    /// `adj` (as produced by `DiGraph::undirected_skeleton`):
    ///
    /// 1. the root holds all of `0..n`;
    /// 2. `V(t) = V(t₁) ∪ V(t₂)` and `S(t) ⊆ V(t₁) ∩ V(t₂)`;
    /// 3. `S(t)` separates `V(t₁) \ S(t)` from `V(t₂) \ S(t)` in `G(t)`
    ///    (no direct edge — sufficient because children partition `V(t)`);
    /// 4. Prop 2.1(ii): no edge leaves `V(t) \ B(t)` for the subgraph of
    ///    any node `t`;
    /// 5. every vertex's `node(v)`/`level(v)` is consistent.
    ///
    /// Violations are reported as
    /// [`SpsepError::InvalidDecomposition`] with the offending node and
    /// vertex attached, so a corrupted tree surfaces as a typed error
    /// instead of a panic or a silently wrong distance downstream.
    pub fn validate(&self, adj: &[Vec<u32>]) -> Result<(), SpsepError> {
        let n = self.n;
        if adj.len() != n {
            return Err(SpsepError::invalid_decomposition(format!(
                "skeleton has {} vertices, tree has {n}",
                adj.len()
            )));
        }
        for (v, neigh) in adj.iter().enumerate() {
            if let Some(&u) = neigh.iter().find(|&&u| u as usize >= n) {
                return Err(SpsepError::invalid_vertex(
                    v as u32,
                    format!("skeleton neighbor {u} out of range 0..{n}"),
                ));
            }
        }
        let root = &self.nodes[0];
        if root.vertices.len() != n
            || root
                .vertices
                .iter()
                .enumerate()
                .any(|(i, &v)| v != i as u32)
        {
            return Err(SpsepError::invalid_node(
                0,
                "root must contain exactly 0..n",
            ));
        }
        if !root.boundary.is_empty() {
            return Err(SpsepError::invalid_node(0, "root boundary must be empty"));
        }
        // Membership scratch: which node's V(t) a vertex was last seen in.
        let mut stamp = vec![u32::MAX; n];
        let mut side = vec![0u8; n];
        for (i, t) in self.nodes.iter().enumerate() {
            let node_id = i as u32;
            if t.vertices.iter().any(|&v| v as usize >= n) {
                return Err(SpsepError::invalid_node(
                    node_id,
                    format!("V(t) contains a vertex outside 0..{n}"),
                ));
            }
            if !t.vertices.windows(2).all(|w| w[0] < w[1]) {
                return Err(SpsepError::invalid_node(node_id, "V(t) not sorted/deduped"));
            }
            if !is_sorted_subset(&t.separator, &t.vertices) {
                return Err(SpsepError::invalid_node(node_id, "S(t) ⊄ V(t)"));
            }
            if !is_sorted_subset(&t.boundary, &t.vertices) {
                return Err(SpsepError::invalid_node(node_id, "B(t) ⊄ V(t)"));
            }
            if let Some((c1, c2)) = t.children {
                if c1 as usize >= self.nodes.len() || c2 as usize >= self.nodes.len() {
                    return Err(SpsepError::invalid_node(node_id, "child id out of range"));
                }
                let (a, b) = (
                    &self.nodes[c1 as usize].vertices,
                    &self.nodes[c2 as usize].vertices,
                );
                if self.nodes[c1 as usize].parent != Some(node_id)
                    || self.nodes[c2 as usize].parent != Some(node_id)
                {
                    return Err(SpsepError::invalid_node(
                        node_id,
                        "child parent link broken",
                    ));
                }
                if self.nodes[c1 as usize].level != t.level + 1
                    || self.nodes[c2 as usize].level != t.level + 1
                {
                    return Err(SpsepError::invalid_node(
                        node_id,
                        "child level != parent level + 1",
                    ));
                }
                let union = sorted_union(a, b);
                if union != t.vertices {
                    return Err(SpsepError::invalid_node(node_id, "V(t) != V(t1) ∪ V(t2)"));
                }
                for &s in &t.separator {
                    if a.binary_search(&s).is_err() || b.binary_search(&s).is_err() {
                        return Err(SpsepError::invalid_node_vertex(
                            node_id,
                            s,
                            "separator vertex missing from a child \
                             (include-all policy, DESIGN.md §5)",
                        ));
                    }
                }
                // Separation: mark side of each vertex; S(t) and overlap = 0,
                // side1-only = 1, side2-only = 2. Then scan edges inside V(t).
                for &v in &t.vertices {
                    stamp[v as usize] = node_id;
                    side[v as usize] = 0;
                }
                for &v in a {
                    if t.separator.binary_search(&v).is_err() {
                        side[v as usize] = 1;
                    }
                }
                for &v in b {
                    if t.separator.binary_search(&v).is_err() {
                        let s = &mut side[v as usize];
                        if *s == 1 {
                            return Err(SpsepError::invalid_node_vertex(
                                node_id,
                                v,
                                "vertex in both children but not in S(t)",
                            ));
                        }
                        *s = 2;
                    }
                }
                for &v in &t.vertices {
                    if side[v as usize] == 0 {
                        continue;
                    }
                    for &u in &adj[v as usize] {
                        if stamp[u as usize] != node_id {
                            continue; // edge leaves G(t); checked via boundary below
                        }
                        let (sv, su) = (side[v as usize], side[u as usize]);
                        if sv != 0 && su != 0 && sv != su {
                            return Err(SpsepError::invalid_node_vertex(
                                node_id,
                                v,
                                format!("edge {v}–{u} crosses the separator"),
                            ));
                        }
                    }
                }
            }
            // Prop 2.1(ii): edges from V(t)\B(t) must stay inside V(t).
            if let Some(parent_id) = t.parent {
                if parent_id as usize >= self.nodes.len() {
                    return Err(SpsepError::invalid_node(node_id, "parent id out of range"));
                }
                for &v in &t.vertices {
                    stamp[v as usize] = node_id;
                }
                for &v in &t.vertices {
                    if t.boundary.binary_search(&v).is_ok() {
                        continue;
                    }
                    for &u in &adj[v as usize] {
                        if stamp[u as usize] != node_id {
                            return Err(SpsepError::invalid_node_vertex(
                                node_id,
                                v,
                                format!("interior vertex has edge to {u} outside V(t)"),
                            ));
                        }
                    }
                }
                // Boundary recurrence B(t) = (S(p) ∪ B(p)) ∩ V(t).
                let p = &self.nodes[parent_id as usize];
                let expect =
                    sorted_intersection(&sorted_union(&p.separator, &p.boundary), &t.vertices);
                if expect != t.boundary {
                    return Err(SpsepError::invalid_node(
                        node_id,
                        "boundary recurrence violated",
                    ));
                }
            }
            if t.is_leaf() && !t.separator.is_empty() {
                return Err(SpsepError::invalid_node(
                    node_id,
                    "leaf with nonempty separator",
                ));
            }
        }
        // Vertex maps.
        for v in 0..n {
            let nd = self.vertex_node[v];
            if nd == u32::MAX {
                return Err(SpsepError::invalid_vertex(
                    v as u32,
                    "vertex not covered by any node",
                ));
            }
            let t = &self.nodes[nd as usize];
            let lv = self.vertex_level[v];
            if lv == UNDEFINED_LEVEL {
                if !t.is_leaf() || t.vertices.binary_search(&(v as u32)).is_err() {
                    return Err(SpsepError::invalid_vertex(
                        v as u32,
                        "undefined level but node(v) not its leaf",
                    ));
                }
            } else if t.level != lv || t.separator.binary_search(&(v as u32)).is_err() {
                return Err(SpsepError::invalid_vertex(
                    v as u32,
                    "node/level maps inconsistent",
                ));
            }
        }
        Ok(())
    }

    /// Render the tree (sizes only) as indented text — this regenerates
    /// the content of the paper's **Figure 1** when applied to the 9×9
    /// grid decomposition.
    pub fn render(&self, max_depth: u32) -> String {
        let mut out = String::new();
        self.render_node(0, 0, max_depth, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: u32, max_depth: u32, out: &mut String) {
        use std::fmt::Write;
        let t = &self.nodes[id as usize];
        for _ in 0..depth {
            out.push_str("  ");
        }
        match t.children {
            None => {
                // Writes into a String are infallible.
                let _ = writeln!(out, "leaf |V|={} V={:?}", t.vertices.len(), t.vertices);
            }
            Some((c1, c2)) => {
                let _ = writeln!(
                    out,
                    "node |V|={} |S|={} |B|={} S={:?}",
                    t.vertices.len(),
                    t.separator.len(),
                    t.boundary.len(),
                    t.separator
                );
                if depth < max_depth {
                    self.render_node(c1, depth + 1, max_depth, out);
                    self.render_node(c2, depth + 1, max_depth, out);
                }
            }
        }
    }
}

/// Union of two sorted, deduplicated u32 slices.
pub fn sorted_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Intersection of two sorted, deduplicated u32 slices.
pub fn sorted_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::new();
    if large.len() > 16 * small.len() {
        for &v in small {
            if large.binary_search(&v).is_ok() {
                out.push(v);
            }
        }
        return out;
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(small[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn is_sorted_subset(sub: &[u32], sup: &[u32]) -> bool {
    sub.windows(2).all(|w| w[0] < w[1]) && sub.iter().all(|v| sup.binary_search(v).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built decomposition of the path 0–1–2–3–4 (skeleton edges
    /// between consecutive ids): root separates at vertex 2.
    fn path_tree() -> SepTree {
        let nodes = vec![
            SepNode {
                vertices: vec![0, 1, 2, 3, 4],
                separator: vec![2],
                boundary: vec![],
                children: Some((1, 2)),
                parent: None,
                level: 0,
            },
            SepNode {
                vertices: vec![0, 1, 2],
                separator: vec![],
                boundary: vec![],
                children: None,
                parent: Some(0),
                level: 1,
            },
            SepNode {
                vertices: vec![2, 3, 4],
                separator: vec![],
                boundary: vec![],
                children: None,
                parent: Some(0),
                level: 1,
            },
        ];
        SepTree::assemble(5, nodes)
    }

    fn path_skeleton(n: usize) -> Vec<Vec<u32>> {
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

    #[test]
    fn assemble_computes_boundaries_and_levels() {
        let tree = path_tree();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node(1).boundary, vec![2]);
        assert_eq!(tree.node(2).boundary, vec![2]);
        assert_eq!(tree.vertex_level(2), 0);
        assert_eq!(tree.vertex_level(0), UNDEFINED_LEVEL);
        assert_eq!(tree.vertex_node(2), 0);
        // 0 and 1 live in leaf node 1; 3, 4 in leaf node 2.
        assert_eq!(tree.vertex_node(0), tree.vertex_node(1));
        assert_eq!(tree.vertex_node(3), tree.vertex_node(4));
        assert_ne!(tree.vertex_node(0), tree.vertex_node(3));
        assert_eq!(tree.max_leaf_size(), 3);
    }

    #[test]
    fn validate_accepts_good_tree() {
        let tree = path_tree();
        tree.validate(&path_skeleton(5)).expect("valid tree");
    }

    #[test]
    fn validate_rejects_crossing_edge() {
        // Same tree, but skeleton has an extra edge 1–3 skipping the separator.
        let tree = path_tree();
        let mut adj = path_skeleton(5);
        adj[1].push(3);
        adj[3].push(1);
        let err = tree.validate(&adj).unwrap_err();
        assert!(
            matches!(err, SpsepError::InvalidDecomposition { .. }),
            "unexpected error: {err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("crosses the separator") || msg.contains("edge to"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn validate_rejects_bad_root() {
        let mut nodes = vec![SepNode {
            vertices: vec![0, 1, 2],
            separator: vec![],
            boundary: vec![],
            children: None,
            parent: None,
            level: 0,
        }];
        nodes[0].vertices = vec![0, 1]; // missing vertex 2
        let tree = SepTree::assemble(3, nodes);
        assert!(tree.validate(&path_skeleton(3)).is_err());
    }

    #[test]
    fn nodes_at_level_slices_bfs_order() {
        let tree = path_tree();
        assert_eq!(tree.nodes_at_level(0), 0..1);
        assert_eq!(tree.nodes_at_level(1), 1..3);
        assert_eq!(tree.nodes_at_level(2), 0..0);
        assert_eq!(tree.nodes_at_level(99), 0..0);
    }

    #[test]
    fn set_helpers() {
        assert_eq!(sorted_union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(sorted_intersection(&[1, 3, 5], &[2, 3, 5]), vec![3, 5]);
        assert_eq!(sorted_union(&[], &[7]), vec![7]);
        assert!(sorted_intersection(&[1, 2], &[]).is_empty());
        let big: Vec<u32> = (0..1000).collect();
        assert_eq!(sorted_intersection(&[5, 999, 1005], &big), vec![5, 999]);
    }

    #[test]
    fn render_mentions_sizes() {
        let tree = path_tree();
        let text = tree.render(8);
        assert!(text.contains("|V|=5"));
        assert!(text.contains("leaf |V|=3"));
    }

    #[test]
    fn eplus_candidate_size_counts_squares() {
        let tree = path_tree();
        // root: |S|=1, |B|=0 → 1; leaves: |B|=1 each → 1+1.
        assert_eq!(tree.eplus_candidate_size(), 3);
    }
}
