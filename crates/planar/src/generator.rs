//! Generator for few-faces planar graphs with a known hammock
//! decomposition.
//!
//! Construction: a `side × side` planar grid **skeleton** supplies the
//! attachment vertices; every skeleton edge is replaced by a *ladder*
//! hammock — two parallel directed-both-ways rails of `ladder_len` rungs
//! — whose rail ends tie to the edge's two endpoints. Ladders are
//! outerplanar and meet the rest of the graph in exactly two attachment
//! vertices (Frederickson allows up to four). All non-attachment vertices
//! lie on the `O(side²)` faces adjacent to the skeleton, so
//! `q = Θ(side²)` while `n = Θ(side² · ladder_len)` — the `q ≪ n` regime
//! Section 6 targets.

use rand::Rng;
use spsep_graph::{DiGraph, Edge};

/// One hammock: its vertex set and its attachment vertices.
#[derive(Clone, Debug)]
pub struct Hammock {
    /// Global ids of all vertices of the hammock (sorted; includes the
    /// attachments).
    pub vertices: Vec<u32>,
    /// Global ids of the attachment vertices (≤ 4; here exactly 2).
    pub attachments: Vec<u32>,
}

/// A few-faces planar graph with its hammock decomposition.
#[derive(Clone, Debug)]
pub struct HammockGraph {
    /// The full graph `G`.
    pub graph: DiGraph<f64>,
    /// The hammocks (vertex sets partition `V` up to shared attachments).
    pub hammocks: Vec<Hammock>,
    /// Number of skeleton (attachment) vertices = ids `0..q_vertices`.
    pub q_vertices: usize,
    /// Skeleton grid side (the `G′` separator tree is the grid tree of
    /// `side × side`).
    pub side: usize,
    /// For every vertex, one hammock containing it (attachments belong to
    /// several; the first claimant is recorded).
    vertex_hammock: Vec<u32>,
}

impl HammockGraph {
    /// A hammock index containing vertex `v` (attachments belong to
    /// several; an arbitrary one is returned — query composition handles
    /// attachments uniformly anyway).
    pub fn hammock_of(&self, v: usize) -> usize {
        self.vertex_hammock[v] as usize
    }
}

/// Generate a hammock graph: `side × side` skeleton, every skeleton edge
/// replaced by a ladder of `ladder_len` rungs, weights uniform in `[1,2)`
/// scaled by per-edge jitter.
pub fn generate_hammock_graph(side: usize, ladder_len: usize, rng: &mut impl Rng) -> HammockGraph {
    assert!(side >= 2 && ladder_len >= 1);
    let q = side * side;
    let mut edges: Vec<Edge<f64>> = Vec::new();
    let mut hammocks: Vec<Hammock> = Vec::new();
    let mut next_vertex = q; // ladder vertices allocated after skeleton ids
    let mut vertex_hammock: Vec<u32> = vec![u32::MAX; q];

    let add_bidi = |edges: &mut Vec<Edge<f64>>, a: usize, b: usize, rng: &mut dyn rand::RngCore| {
        let r = |rng: &mut dyn rand::RngCore| {
            // Uniform in [1, 2).
            1.0 + (rng.next_u64() as f64 / u64::MAX as f64)
        };
        edges.push(Edge::new(a, b, r(rng)));
        edges.push(Edge::new(b, a, r(rng)));
    };

    let skeleton_id = |r: usize, c: usize| r * side + c;
    let mut skeleton_edges: Vec<(usize, usize)> = Vec::new();
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                skeleton_edges.push((skeleton_id(r, c), skeleton_id(r, c + 1)));
            }
            if r + 1 < side {
                skeleton_edges.push((skeleton_id(r, c), skeleton_id(r + 1, c)));
            }
        }
    }

    for (a, b) in skeleton_edges {
        // Two rails of `ladder_len` vertices each.
        let rail1: Vec<usize> = (0..ladder_len).map(|i| next_vertex + i).collect();
        let rail2: Vec<usize> = (0..ladder_len)
            .map(|i| next_vertex + ladder_len + i)
            .collect();
        next_vertex += 2 * ladder_len;
        // Rail chains.
        for rail in [&rail1, &rail2] {
            for w in rail.windows(2) {
                add_bidi(&mut edges, w[0], w[1], rng);
            }
        }
        // Rungs between the rails (outerplanar ladder).
        for i in 0..ladder_len {
            add_bidi(&mut edges, rail1[i], rail2[i], rng);
        }
        // Tie rail ends to the attachments.
        add_bidi(&mut edges, a, rail1[0], rng);
        add_bidi(&mut edges, a, rail2[0], rng);
        add_bidi(&mut edges, b, rail1[ladder_len - 1], rng);
        add_bidi(&mut edges, b, rail2[ladder_len - 1], rng);
        let mut vertices: Vec<u32> = rail1.iter().chain(&rail2).map(|&v| v as u32).collect();
        vertices.push(a as u32);
        vertices.push(b as u32);
        vertices.sort_unstable();
        hammocks.push(Hammock {
            vertices,
            attachments: vec![a as u32, b as u32],
        });
    }

    let n = next_vertex;
    vertex_hammock.resize(n, u32::MAX);
    for (hi, h) in hammocks.iter().enumerate() {
        for &v in &h.vertices {
            // Attachments keep the first hammock that claimed them.
            if vertex_hammock[v as usize] == u32::MAX {
                vertex_hammock[v as usize] = hi as u32;
            }
        }
    }

    HammockGraph {
        graph: DiGraph::from_edges(n, edges),
        hammocks,
        q_vertices: q,
        side,
        vertex_hammock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let hg = generate_hammock_graph(3, 4, &mut rng);
        assert_eq!(hg.q_vertices, 9);
        // Skeleton edges: 2·3·2 = 12 hammocks.
        assert_eq!(hg.hammocks.len(), 12);
        assert_eq!(hg.graph.n(), 9 + 12 * 8);
        for h in &hg.hammocks {
            assert_eq!(h.attachments.len(), 2);
            assert_eq!(h.vertices.len(), 2 * 4 + 2);
            for &a in &h.attachments {
                assert!(h.vertices.binary_search(&a).is_ok());
            }
        }
    }

    #[test]
    fn hammocks_only_touch_via_attachments() {
        let mut rng = StdRng::seed_from_u64(2);
        let hg = generate_hammock_graph(3, 3, &mut rng);
        // Every edge must be internal to exactly one hammock.
        for e in hg.graph.edges() {
            let containing = hg
                .hammocks
                .iter()
                .filter(|h| {
                    h.vertices.binary_search(&e.from).is_ok()
                        && h.vertices.binary_search(&e.to).is_ok()
                })
                .count();
            assert_eq!(containing, 1, "edge {}→{}", e.from, e.to);
        }
        // Non-attachment vertices belong to exactly one hammock.
        for v in hg.q_vertices..hg.graph.n() {
            let count = hg
                .hammocks
                .iter()
                .filter(|h| h.vertices.binary_search(&(v as u32)).is_ok())
                .count();
            assert_eq!(count, 1, "vertex {v}");
        }
    }

    #[test]
    fn graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let hg = generate_hammock_graph(4, 2, &mut rng);
        let comp = spsep_graph::traversal::undirected_components(&hg.graph.undirected_skeleton());
        assert!(comp.iter().all(|&c| c == 0));
    }
}
