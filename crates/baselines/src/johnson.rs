//! Johnson's algorithm: s-source shortest paths with real weights.
//!
//! The paper's introduction cites "O(mn + n² log n), using a Fibonacci
//! heap implementation of Johnson's algorithm" as the best known
//! sequential bound for general digraphs — this is the sequential
//! baseline experiment E11 measures the crossover against. (We use a
//! binary heap; the log-factor difference is irrelevant to the measured
//! shapes and noted in EXPERIMENTS.md.)

use crate::{bellman_ford, dijkstra, AbsorbingCycle, SsspResult};
use rayon::prelude::*;
use spsep_graph::{DiGraph, Edge};

/// Shortest paths from every vertex in `sources`, allowing negative edge
/// weights (no negative cycles).
///
/// Phase 1 computes potentials `h(v)` by Bellman–Ford from a virtual
/// super-source; phase 2 reweights `w'(u,v) = w + h(u) − h(v) ≥ 0` and
/// runs Dijkstra per source (parallel over sources); phase 3 undoes the
/// reweighting.
pub fn johnson(g: &DiGraph<f64>, sources: &[usize]) -> Result<Vec<SsspResult>, AbsorbingCycle> {
    let n = g.n();
    // Virtual source n with zero-weight edges to every vertex.
    let mut aug_edges: Vec<Edge<f64>> = g.edges().to_vec();
    aug_edges.reserve(n);
    for v in 0..n {
        aug_edges.push(Edge::new(n, v, 0.0));
    }
    let aug = DiGraph::from_edges(n + 1, aug_edges);
    let h = bellman_ford(&aug, n)?.dist;
    let reweighted = g.map_weights(|e| {
        let w = e.w + h[e.from as usize] - h[e.to as usize];
        debug_assert!(w >= -1e-9, "reweighting must be nonnegative");
        w.max(0.0)
    });
    let results: Vec<SsspResult> = sources
        .par_iter()
        .map(|&s| {
            let mut r = dijkstra(&reweighted, s);
            for v in 0..n {
                if r.dist[v].is_finite() {
                    r.dist[v] += h[v] - h[s];
                }
            }
            r
        })
        .collect();
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::generators;

    #[test]
    fn matches_bellman_ford_with_negative_edges() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let (g, _) = generators::grid(&[5, 5], &mut rng);
        let g = generators::skew_by_potentials(&g, 4.0, &mut rng);
        assert!(g.edges().iter().any(|e| e.w < 0.0), "want negative edges");
        let sources = [0usize, 12, 24];
        let jr = johnson(&g, &sources).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let bf = bellman_ford(&g, s).unwrap();
            for v in 0..g.n() {
                assert!(
                    (jr[i].dist[v] - bf.dist[v]).abs() < 1e-9,
                    "source {s} vertex {v}: {} vs {}",
                    jr[i].dist[v],
                    bf.dist[v]
                );
            }
        }
    }

    #[test]
    fn propagates_negative_cycle_error() {
        use spsep_graph::Edge;
        let g = DiGraph::from_edges(2, vec![Edge::new(0, 1, -1.0), Edge::new(1, 0, -1.0)]);
        assert!(johnson(&g, &[0]).is_err());
    }

    #[test]
    fn unreachable_stays_infinite() {
        use spsep_graph::Edge;
        let g = DiGraph::from_edges(3, vec![Edge::new(0, 1, -2.0)]);
        let r = johnson(&g, &[0]).unwrap();
        assert_eq!(r[0].dist[1], -2.0);
        assert!(r[0].dist[2].is_infinite());
    }
}
