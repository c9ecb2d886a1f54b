//! Tests for the Theorem 3.1 witness extraction.
//!
//! Under the exact integer semiring the witness must satisfy the
//! theorem's structure (size ≤ 4·d_G + 2l + 1, bitonic middle); under
//! floating point only optimality/tightness is guaranteed (ulp churn can
//! scramble the recorded phase timeline — see the module docs).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep_core::{explain, preprocess, Algorithm, Preprocessed};
use spsep_graph::semiring::{Tropical, TropicalInt};
use spsep_graph::{generators, DiGraph};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits, SepTree};

/// Integer-weight copy of a float graph (weights ×1000, truncated).
fn to_int(g: &DiGraph<f64>) -> DiGraph<i64> {
    g.map_weights(|e| (e.w * 1000.0) as i64)
}

/// Full structural check, exact arithmetic.
fn check_exact(g: &DiGraph<i64>, tree: &SepTree, sources: &[usize]) {
    let metrics = Metrics::new();
    let pre = preprocess::<TropicalInt>(g, tree, Algorithm::LeavesUp, &metrics).unwrap();
    let stats = pre.stats();
    let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
    for &source in sources {
        let (dist, _) = pre.distances_seq(source);
        for (target, &dt) in dist.iter().enumerate() {
            if target == source {
                continue;
            }
            let exp = explain::explain(&pre, source, target);
            if dt == i64::MAX {
                assert!(exp.is_none());
                continue;
            }
            let exp = exp.expect("reachable target must explain");
            assert_eq!(exp.weight, dist[target], "target {target}");
            let sum: i64 = exp.hops.iter().map(|h| h.w).sum();
            assert_eq!(sum, exp.weight, "target {target}: hops must telescope");
            assert_eq!(exp.hops.first().unwrap().from as usize, source);
            assert_eq!(exp.hops.last().unwrap().to as usize, target);
            for pair in exp.hops.windows(2) {
                assert_eq!(pair[0].to, pair[1].from);
            }
            // Theorem 3.1 structure — exact under integer arithmetic.
            assert!(
                exp.hops.len() <= bound,
                "target {target}: {} hops > bound {bound}",
                exp.hops.len()
            );
            assert!(exp.bitonic, "target {target}: non-bitonic middle");
        }
    }
}

#[test]
fn grid_witnesses_satisfy_theorem_structure() {
    let mut rng = StdRng::seed_from_u64(300);
    let (gf, _) = generators::grid(&[9, 8], &mut rng);
    let g = to_int(&gf);
    let tree = builders::grid_tree(&[9, 8], RecursionLimits::default());
    check_exact(&g, &tree, &[0, 35, 71]);
}

#[test]
fn tree_witnesses_satisfy_theorem_structure() {
    let mut rng = StdRng::seed_from_u64(302);
    let gf = generators::random_tree(90, &mut rng);
    let g = to_int(&gf);
    let tree = builders::centroid_tree(&g.undirected_skeleton(), RecursionLimits::default());
    check_exact(&g, &tree, &[0, 45, 89]);
}

#[test]
fn geometric_witnesses_satisfy_theorem_structure() {
    let mut rng = StdRng::seed_from_u64(304);
    let (gf, coords) = generators::geometric(150, 2, 0.16, &mut rng);
    let g = to_int(&gf);
    let tree = builders::geometric_tree(
        &g.undirected_skeleton(),
        &coords,
        RecursionLimits::default(),
    );
    check_exact(&g, &tree, &[0, 75]);
}

/// Float path: optimality and tightness hold; structure flags reported.
fn check_float(g: &DiGraph<f64>, pre: &Preprocessed<Tropical>, source: usize) {
    let (dist, _) = pre.distances_seq(source);
    for (target, &dt) in dist.iter().enumerate() {
        if target == source || dt.is_infinite() {
            continue;
        }
        let exp = explain::explain(pre, source, target).expect("reachable");
        assert!((exp.weight - dt).abs() < 1e-9 * (1.0 + dt.abs()));
        let sum: f64 = exp.hops.iter().map(|h| h.w).sum();
        assert!((sum - exp.weight).abs() < 1e-6 * (1.0 + sum.abs()));
        for pair in exp.hops.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        // Even with float churn, a parent chain cannot loop.
        assert!(exp.hops.len() < g.n());
    }
}

#[test]
fn float_witnesses_are_tight_and_optimal() {
    let mut rng = StdRng::seed_from_u64(301);
    let (g, _) = generators::grid(&[7, 7], &mut rng);
    let g = generators::skew_by_potentials(&g, 3.0, &mut rng);
    let tree = builders::grid_tree(&[7, 7], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::PathDoubling, &metrics).unwrap();
    check_float(&g, &pre, 24);
}

#[test]
fn explanation_renders_and_reports_shortcuts() {
    let mut rng = StdRng::seed_from_u64(303);
    let (gf, _) = generators::grid(&[16, 16], &mut rng);
    let g = to_int(&gf);
    let tree = builders::grid_tree(&[16, 16], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<TropicalInt>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let exp = explain::explain(&pre, 0, g.n() - 1).unwrap();
    // A corner-to-corner route on a 16×16 grid (graph diameter 30) must
    // use shortcuts to fit in the bound.
    assert!(exp.hops.iter().any(|h| h.shortcut), "expected E+ hops");
    let text = exp.render();
    assert!(text.contains("weight"));
    assert!(text.contains("→"));
    let verts = exp.vertices();
    assert_eq!(verts[0], 0);
    assert_eq!(*verts.last().unwrap() as usize, g.n() - 1);
}

#[test]
fn unreachable_has_no_explanation() {
    let g = spsep_graph::DiGraph::from_edges(3, vec![spsep_graph::Edge::new(0, 1, 1.0)]);
    let tree = builders::bfs_tree(&g.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    assert!(explain::explain(&pre, 0, 2).is_none());
    assert!(explain::explain(&pre, 0, 1).is_some());
}
