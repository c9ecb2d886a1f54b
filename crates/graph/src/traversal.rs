//! Basic traversals: BFS, undirected components, Tarjan SCC, topological
//! order. Used by separator builders (BFS bisection), validators
//! (connectivity / separation checks), and reachability baselines.

use crate::digraph::DiGraph;
use std::collections::VecDeque;

/// BFS hop distances from `source` over *directed* edges; `u32::MAX` marks
/// unreachable vertices.
pub fn bfs_directed<W: Copy>(g: &DiGraph<W>, source: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for e in g.out_edges(v) {
            let u = e.to as usize;
            if dist[u] == u32::MAX {
                dist[u] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// BFS hop distances from `source` over an undirected adjacency structure
/// restricted to the vertices where `active` is true.
pub fn bfs_undirected_masked(adj: &[Vec<u32>], source: usize, active: &[bool]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.len()];
    if !active[source] {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for &u in &adj[v] {
            let u = u as usize;
            if active[u] && dist[u] == u32::MAX {
                dist[u] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Component id (0-based, by discovery order) of every vertex of an
/// undirected adjacency structure.
pub fn undirected_components(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                let u = u as usize;
                if comp[u] == u32::MAX {
                    comp[u] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Strongly connected components (iterative Tarjan). Returns `(comp, k)`
/// where `comp[v]` is the component id of `v` in **reverse topological
/// order** (edges go from higher component ids to lower or equal), and `k`
/// is the number of components.
pub fn tarjan_scc<W: Copy>(g: &DiGraph<W>) -> (Vec<u32>, usize) {
    let n = g.n();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSET; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // Explicit DFS frames: (vertex, next out-edge position).
    let mut frames: Vec<(u32, u32)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root as u32, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let v = v as usize;
            let out = g.out_edge_ids(v);
            if (*ei as usize) < out.len() {
                let e = g.edge(out[*ei as usize] as usize);
                *ei += 1;
                let u = e.to as usize;
                if index[u] == UNSET {
                    index[u] = next_index;
                    lowlink[u] = next_index;
                    next_index += 1;
                    stack.push(u as u32);
                    on_stack[u] = true;
                    frames.push((u as u32, 0));
                } else if on_stack[u] {
                    lowlink[v] = lowlink[v].min(index[u]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    let p = p as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let Some(w) = stack.pop() else {
                            unreachable!("tarjan stack underflow")
                        };
                        let w = w as usize;
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    (comp, next_comp as usize)
}

/// Topological order of a DAG (`None` if the graph has a cycle).
pub fn topological_order<W: Copy>(g: &DiGraph<W>) -> Option<Vec<u32>> {
    let n = g.n();
    let mut indeg: Vec<u32> = (0..n).map(|v| g.in_degree(v) as u32).collect();
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for e in g.out_edges(v as usize) {
            let u = e.to as usize;
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push_back(u as u32);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Edge;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_directed(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_directed(&g, 2);
        assert_eq!(d, vec![u32::MAX, u32::MAX, 0, 1, 2]);
    }

    #[test]
    fn masked_bfs_respects_mask() {
        let g = generators::path(5).map_weights(|e| e.w);
        let adj = g.undirected_skeleton();
        let mut active = vec![true; 5];
        active[2] = false; // cut the path
        let d = bfs_undirected_masked(&adj, 0, &active);
        assert_eq!(d[1], 1);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn components_of_disjoint_paths() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)];
        let g = crate::DiGraph::from_edges(5, edges);
        let comp = undirected_components(&g.undirected_skeleton());
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert_ne!(comp[4], comp[2]);
    }

    #[test]
    fn scc_of_cycle_is_single() {
        let g = generators::cycle(6);
        let (comp, k) = tarjan_scc(&g);
        assert_eq!(k, 1);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn scc_of_dag_is_singletons_in_reverse_topo() {
        let g = generators::path(4);
        let (comp, k) = tarjan_scc(&g);
        assert_eq!(k, 4);
        // Edges must go from higher id to lower id (reverse topological).
        for e in g.edges() {
            assert!(comp[e.from as usize] > comp[e.to as usize]);
        }
    }

    #[test]
    fn scc_mixed() {
        // 0 <-> 1 cycle, 2 alone, 1 -> 2.
        let g = crate::DiGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 0, 1.0),
                Edge::new(1, 2, 1.0),
            ],
        );
        let (comp, k) = tarjan_scc(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert!(comp[0] > comp[2]);
    }

    #[test]
    fn scc_random_graph_invariants() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnm(60, 150, &mut rng);
        let (comp, k) = tarjan_scc(&g);
        assert!((1..=60).contains(&k));
        // Condensation must be acyclic: every edge satisfies from-comp >= to-comp.
        for e in g.edges() {
            assert!(comp[e.from as usize] >= comp[e.to as usize]);
        }
    }

    #[test]
    fn topo_order_on_dag_and_cycle() {
        let mut rng = StdRng::seed_from_u64(12);
        let dag = generators::layered_dag(4, 5, 2, &mut rng);
        let order = topological_order(&dag).expect("layered DAG is acyclic");
        let mut pos = vec![0usize; dag.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for e in dag.edges() {
            assert!(pos[e.from as usize] < pos[e.to as usize]);
        }
        assert!(topological_order(&generators::cycle(3)).is_none());
    }
}
