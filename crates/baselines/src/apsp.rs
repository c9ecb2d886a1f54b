//! Dense all-pairs shortest paths baselines.
//!
//! [`repeated_squaring_apsp`] is the `Õ(n³)`-work polylog-time algorithm
//! behind the **transitive-closure bottleneck** the paper's title result
//! beats on separator-decomposable graphs; [`floyd_warshall_apsp`] is its
//! sequential cousin. Both are wired through [`spsep_graph::SemiMatrix`].

use crate::AbsorbingCycle;
use spsep_graph::dense::SemiMatrix;
use spsep_graph::semiring::Tropical;
use spsep_graph::DiGraph;

/// Build the dense tropical matrix of a graph (diagonal `0`, parallel
/// edges combined by `min`).
fn dense_of(g: &DiGraph<f64>) -> SemiMatrix<Tropical> {
    let mut m = SemiMatrix::<Tropical>::identity(g.n());
    for e in g.edges() {
        m.relax(e.from as usize, e.to as usize, e.w);
    }
    m
}

/// All-pairs distances by Floyd–Warshall: `(matrix, inner ops)`.
pub fn floyd_warshall_apsp(
    g: &DiGraph<f64>,
) -> Result<(SemiMatrix<Tropical>, u64), AbsorbingCycle> {
    let mut m = dense_of(g);
    let out = m.floyd_warshall();
    if out.absorbing_cycle {
        return Err(AbsorbingCycle);
    }
    Ok((m, out.ops))
}

/// All-pairs distances by min-plus repeated squaring: `(matrix, inner
/// ops)`. ~`log₂ n` times the work of Floyd–Warshall, but polylog depth —
/// the NC reference point of the paper's introduction.
pub fn repeated_squaring_apsp(
    g: &DiGraph<f64>,
) -> Result<(SemiMatrix<Tropical>, u64), AbsorbingCycle> {
    let mut m = dense_of(g);
    let out = m.repeated_squaring();
    if out.absorbing_cycle {
        return Err(AbsorbingCycle);
    }
    Ok((m, out.ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::generators;

    #[test]
    fn both_match_dijkstra_rows() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(14);
        let (g, _) = generators::grid(&[4, 5], &mut rng);
        let (fw, _) = floyd_warshall_apsp(&g).unwrap();
        let (sq, sq_ops) = repeated_squaring_apsp(&g).unwrap();
        for s in 0..g.n() {
            let dj = crate::dijkstra(&g, s);
            for v in 0..g.n() {
                assert!((fw.get(s, v) - dj.dist[v]).abs() < 1e-9);
                assert!((sq.get(s, v) - dj.dist[v]).abs() < 1e-9);
            }
        }
        // Squaring performs multiple cubes of work.
        assert!(sq_ops >= (g.n() as u64).pow(3));
    }

    #[test]
    fn negative_cycle_is_reported() {
        use spsep_graph::Edge;
        let g = DiGraph::from_edges(2, vec![Edge::new(0, 1, 1.0), Edge::new(1, 0, -2.0)]);
        assert!(floyd_warshall_apsp(&g).is_err());
        assert!(repeated_squaring_apsp(&g).is_err());
    }
}
