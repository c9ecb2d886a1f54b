//! Bellman–Ford: sequential, parallel round-synchronous, and
//! semiring-generic reference variants.
//!
//! Section 2.2 of the paper: "single source shortest-paths computation can
//! be performed … in `O(diam(G) log n)` time using `O(|E| diam(G))` work
//! … by running a parallel version of the Bellman–Ford algorithm", where
//! each phase scans all edges entering each vertex. [`parallel_bellman_ford`]
//! is exactly that primitive; `spsep-core` then restricts *which* edges
//! each phase scans (Section 3.2).

use crate::{AbsorbingCycle, SsspResult};
use rayon::prelude::*;
use spsep_graph::{DiGraph, Semiring};

/// Sequential Bellman–Ford with early exit; detects negative cycles
/// reachable from the source.
pub fn bellman_ford(g: &DiGraph<f64>, source: usize) -> Result<SsspResult, AbsorbingCycle> {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    dist[source] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for (eid, e) in g.edges().iter().enumerate() {
            let du = dist[e.from as usize];
            if du.is_infinite() {
                continue;
            }
            let nd = du + e.w;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                parent[e.to as usize] = eid as u32;
                changed = true;
            }
        }
        if !changed {
            return Ok(SsspResult { dist, parent });
        }
        if round == n - 1 {
            return Err(AbsorbingCycle);
        }
    }
    Ok(SsspResult { dist, parent })
}

/// Round-synchronous parallel Bellman–Ford over incoming edges: each
/// phase computes, for every vertex in parallel, the best relaxation over
/// its in-edges against the previous phase's distances. Runs `max_rounds`
/// phases (use `diam(G)`); returns `Err` if the last round still improved
/// (a negative cycle, or `max_rounds` too small).
///
/// Returns `(distances, relaxations_performed, rounds_used)`.
pub fn parallel_bellman_ford(
    g: &DiGraph<f64>,
    source: usize,
    max_rounds: usize,
) -> Result<(Vec<f64>, u64, usize), AbsorbingCycle> {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    let mut relaxations = 0u64;
    for round in 0..max_rounds + 1 {
        let prev = dist.clone();
        let changed = std::sync::atomic::AtomicBool::new(false);
        dist.par_iter_mut().enumerate().for_each(|(v, dv)| {
            let mut best = *dv;
            for e in g.in_edges(v) {
                let du = prev[e.from as usize];
                if du.is_finite() && du + e.w < best {
                    best = du + e.w;
                }
            }
            if best < *dv {
                *dv = best;
                changed.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        relaxations += g.m() as u64;
        if !changed.into_inner() {
            return Ok((dist, relaxations, round));
        }
        if round == max_rounds {
            return Err(AbsorbingCycle);
        }
    }
    Ok((dist, relaxations, max_rounds))
}

/// Semiring-generic Bellman–Ford reference: iterate to fixpoint, at most
/// `n` rounds; a change in round `n` means an absorbing cycle. The trusted
/// oracle the property tests compare `spsep-core` against on every
/// algebra.
pub fn bellman_ford_semiring<S: Semiring>(
    g: &DiGraph<S::W>,
    source: usize,
) -> Result<Vec<S::W>, AbsorbingCycle> {
    let n = g.n();
    let mut dist = vec![S::zero(); n];
    dist[source] = S::one();
    for round in 0..=n {
        let mut changed = false;
        for e in g.edges() {
            let du = dist[e.from as usize];
            if S::is_zero(du) {
                continue;
            }
            let cand = S::extend(du, e.w);
            let cur = dist[e.to as usize];
            let merged = S::combine(cur, cand);
            if merged != cur {
                dist[e.to as usize] = merged;
                changed = true;
            }
        }
        if !changed {
            return Ok(dist);
        }
        if round == n {
            return Err(AbsorbingCycle);
        }
    }
    Ok(dist)
}

/// Extract a witness for an *absorbing* cycle (paper comment (i)) under
/// any idempotent path algebra — a cycle along which relaxation never
/// stabilizes; under [`Tropical`](spsep_graph::semiring::Tropical), a
/// negative cycle. Returns the cycle's vertex sequence
/// `v₀ → v₁ → … → v₀`, or `None` when relaxation converges (no
/// absorbing cycle anywhere in the graph).
///
/// CLR-style extraction: relax from a virtual super-source for `n + 1`
/// rounds with parent-edge tracking; a vertex still improving in round
/// `n` is downstream of the cycle, and `n` parent steps from it land
/// inside it.
pub fn find_absorbing_cycle_semiring<S: Semiring>(g: &DiGraph<S::W>) -> Option<Vec<u32>> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    let mut dist: Vec<S::W> = vec![S::one(); n]; // virtual super-source
    let mut parent = vec![u32::MAX; n];
    let mut witness = None;
    for round in 0..=n {
        let mut changed = false;
        for (eid, e) in g.edges().iter().enumerate() {
            let du = dist[e.from as usize];
            if S::is_zero(du) {
                continue;
            }
            let cand = S::extend(du, e.w);
            let cur = dist[e.to as usize];
            let merged = S::combine(cur, cand);
            if merged != cur {
                dist[e.to as usize] = merged;
                parent[e.to as usize] = eid as u32;
                changed = true;
                if round == n {
                    witness = Some(e.to as usize);
                }
            }
        }
        if !changed {
            return None;
        }
    }
    let mut v = witness?;
    for _ in 0..n {
        v = g.edge(parent[v] as usize).from as usize;
    }
    let start = v;
    let mut cycle = vec![start as u32];
    let mut cur = g.edge(parent[start] as usize).from as usize;
    while cur != start {
        cycle.push(cur as u32);
        cur = g.edge(parent[cur] as usize).from as usize;
    }
    cycle.reverse();
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::{Bottleneck, Tropical};
    use spsep_graph::{generators, Edge};

    #[test]
    fn matches_dijkstra_on_nonnegative() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(10);
        let (g, _) = generators::grid(&[5, 6], &mut rng);
        let bf = bellman_ford(&g, 3).unwrap();
        let dj = crate::dijkstra(&g, 3);
        for v in 0..g.n() {
            assert!((bf.dist[v] - dj.dist[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn handles_negative_edges() {
        let g = DiGraph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 5.0),
                Edge::new(0, 2, 2.0),
                Edge::new(2, 1, -4.0),
                Edge::new(1, 3, 1.0),
            ],
        );
        let r = bellman_ford(&g, 0).unwrap();
        assert_eq!(r.dist, vec![0.0, -2.0, 2.0, -1.0]);
        assert_eq!(r.path_to(&g, 3).unwrap(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn detects_negative_cycle() {
        let g = DiGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, -3.0),
                Edge::new(2, 1, 1.0),
            ],
        );
        assert!(matches!(bellman_ford(&g, 0), Err(AbsorbingCycle)));
    }

    #[test]
    fn unreachable_negative_cycle_is_fine() {
        // Cycle 1<->2 negative, but source 0 can't reach it.
        let g = DiGraph::from_edges(3, vec![Edge::new(1, 2, -3.0), Edge::new(2, 1, 1.0)]);
        let r = bellman_ford(&g, 0).unwrap();
        assert_eq!(r.dist[0], 0.0);
        assert!(r.dist[1].is_infinite());
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let (g, _) = generators::grid(&[6, 6], &mut rng);
        let g = generators::skew_by_potentials(&g, 3.0, &mut rng);
        let seq = bellman_ford(&g, 0).unwrap();
        let (par, _, rounds) = parallel_bellman_ford(&g, 0, g.n()).unwrap();
        assert!(rounds <= g.n());
        for (v, &p) in par.iter().enumerate() {
            assert!((seq.dist[v] - p).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_detects_negative_cycle() {
        let g = DiGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, -3.0),
                Edge::new(2, 1, 1.0),
            ],
        );
        assert!(parallel_bellman_ford(&g, 0, g.n()).is_err());
    }

    #[test]
    fn semiring_reference_tropical_matches_plain() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        let (g, _) = generators::grid(&[4, 7], &mut rng);
        let plain = bellman_ford(&g, 2).unwrap();
        let generic = bellman_ford_semiring::<Tropical>(&g, 2).unwrap();
        for (v, &gd) in generic.iter().enumerate() {
            assert!((plain.dist[v] - gd).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_cycle_witness_is_a_real_negative_cycle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let (g, _) = generators::grid(&[5, 5], &mut rng);
        // Plant a negative 3-cycle on vertices 3, 7, 12.
        let mut edges = g.edges().to_vec();
        edges.push(Edge::new(3, 7, -2.0));
        edges.push(Edge::new(7, 12, -2.0));
        edges.push(Edge::new(12, 3, -2.0));
        let g = DiGraph::from_edges(25, edges);
        let cycle = find_absorbing_cycle_semiring::<Tropical>(&g).expect("cycle exists");
        assert!(cycle.len() >= 2);
        // Verify the cycle is closed and has negative total weight using
        // the best parallel edge for each hop.
        let mut total = 0.0;
        for i in 0..cycle.len() {
            let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            let w = g
                .out_edges(a as usize)
                .filter(|e| e.to == b)
                .map(|e| e.w)
                .fold(f64::INFINITY, f64::min);
            assert!(w.is_finite(), "cycle edge {a}→{b} missing");
            total += w;
        }
        assert!(total < 0.0, "cycle weight {total}");
    }

    #[test]
    fn no_cycle_returns_none() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(78);
        let (g, _) = generators::grid(&[4, 4], &mut rng);
        let g = generators::skew_by_potentials(&g, 5.0, &mut rng);
        assert!(find_absorbing_cycle_semiring::<Tropical>(&g).is_none());
    }

    #[test]
    fn semiring_reference_bottleneck() {
        // Widest path 0→2: direct width 1, via 1 width min(5, 3) = 3.
        let g = DiGraph::from_edges(
            3,
            vec![
                Edge::new(0, 2, 1.0),
                Edge::new(0, 1, 5.0),
                Edge::new(1, 2, 3.0),
            ],
        );
        let w = bellman_ford_semiring::<Bottleneck>(&g, 0).unwrap();
        assert_eq!(w[2], 3.0);
        assert_eq!(w[1], 5.0);
        assert_eq!(w[0], f64::INFINITY); // 1̄ of the bottleneck algebra
    }
}
