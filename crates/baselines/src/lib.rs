//! Baseline shortest-path and reachability algorithms.
//!
//! These are the algorithms the paper compares against (Section 1,
//! "Previous Work", and the sequential bounds discussion):
//!
//! * [`dijkstra()`](dijkstra()) — binary-heap Dijkstra, `O(m log n)` per source,
//!   nonnegative weights;
//! * [`bellman_ford()`](bellman_ford()) / [`parallel_bellman_ford`] — real weights, the
//!   primitive whose *parallel* variant the paper's scheduled query engine
//!   refines;
//! * [`johnson()`](johnson()) — `O(mn + n² log n)`-style s-source shortest paths with
//!   real weights ("the best known sequential time bound" the paper cites);
//! * [`apsp`] — dense Floyd–Warshall and min-plus repeated squaring, the
//!   `Õ(n³)`-work NC algorithm behind the transitive-closure bottleneck;
//! * [`reach`] — per-source BFS and dense boolean transitive closure.

pub mod apsp;
pub mod bellman_ford;
pub mod dijkstra;
pub mod johnson;
pub mod reach;
pub mod semiring_dijkstra;

pub use apsp::{floyd_warshall_apsp, repeated_squaring_apsp};
pub use bellman_ford::{
    bellman_ford, bellman_ford_semiring, find_absorbing_cycle_semiring, parallel_bellman_ford,
};
pub use dijkstra::{dijkstra, dijkstra_multi};
pub use johnson::johnson;
pub use reach::{reachable_from, transitive_closure_dense};
pub use semiring_dijkstra::{sssp_semiring_csr, sssp_semiring_multi, SemiringSsspScratch};

/// The input contains an absorbing cycle (a negative cycle under the
/// tropical semiring), so some requested distances are undefined.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AbsorbingCycle;

impl std::fmt::Display for AbsorbingCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains an absorbing (negative) cycle")
    }
}

impl std::error::Error for AbsorbingCycle {}

/// Distances plus shortest-path-tree parent edges from one source.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// `dist[v]` = weight of the best path found (`+∞` if unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` = edge id of the tree edge entering `v`
    /// (`u32::MAX` for the source and unreachable vertices).
    pub parent: Vec<u32>,
}

impl SsspResult {
    /// Walk parent edges back from `v` to the source; returns the vertex
    /// sequence source → … → `v`, or `None` if `v` is unreachable.
    pub fn path_to(&self, g: &spsep_graph::DiGraph<f64>, v: usize) -> Option<Vec<u32>> {
        if self.dist[v].is_infinite() {
            return None;
        }
        let mut path = vec![v as u32];
        let mut cur = v;
        let mut guard = 0usize;
        while self.parent[cur] != u32::MAX {
            let e = g.edge(self.parent[cur] as usize);
            cur = e.from as usize;
            path.push(cur as u32);
            guard += 1;
            assert!(guard <= g.n(), "parent pointers form a cycle");
        }
        path.reverse();
        Some(path)
    }
}
