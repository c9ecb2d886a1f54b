//! Tests for the Remark 4.4 shared-table doubling variant: end-to-end
//! distance correctness, its documented relation to Algorithm 4.1's
//! `E⁺`, negative-cycle detection, and the Theorem 3.1 bound.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep_baselines::{bellman_ford, dijkstra};
use spsep_core::{alg41, alg44, analysis, preprocess, Algorithm};
use spsep_graph::generators;
use spsep_graph::semiring::Tropical;
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};

#[test]
fn distances_match_dijkstra_on_grid() {
    let mut rng = StdRng::seed_from_u64(200);
    let (g, _) = generators::grid(&[8, 8], &mut rng);
    let tree = builders::grid_tree(&[8, 8], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::SharedDoubling, &metrics).unwrap();
    for s in 0..g.n() {
        let (dist, _) = pre.distances_seq(s);
        let truth = dijkstra(&g, s);
        for (v, &d) in dist.iter().enumerate() {
            assert!(
                (d - truth.dist[v]).abs() < 1e-6,
                "source {s} vertex {v}: {} vs {}",
                d,
                truth.dist[v]
            );
        }
    }
}

#[test]
fn negative_weights_and_cycles() {
    let mut rng = StdRng::seed_from_u64(201);
    let (g, _) = generators::grid(&[6, 6], &mut rng);
    let skew = generators::skew_by_potentials(&g, 4.0, &mut rng);
    let tree = builders::grid_tree(&[6, 6], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&skew, &tree, Algorithm::SharedDoubling, &metrics).unwrap();
    for s in [0usize, 20, 35] {
        let (dist, _) = pre.distances_seq(s);
        let truth = bellman_ford(&skew, s).unwrap();
        for (v, &d) in dist.iter().enumerate() {
            assert!((d - truth.dist[v]).abs() < 1e-6, "vertex {v}");
        }
    }
    // Plant a negative cycle → must be detected.
    let bad = g.map_weights(|e| {
        if (e.from, e.to) == (0, 1) || (e.from, e.to) == (1, 0) {
            -10.0
        } else {
            e.w
        }
    });
    assert!(preprocess::<Tropical>(&bad, &tree, Algorithm::SharedDoubling, &metrics).is_err());
}

/// The documented relation to Algorithm 4.1: the shared table's `E⁺` is
/// set-wise a superset, weight-wise ≤ on common pairs, and sound (≥ true
/// distances).
#[test]
fn relation_to_alg41_eplus() {
    let mut rng = StdRng::seed_from_u64(202);
    let (g, _) = generators::grid(&[7, 7], &mut rng);
    let tree = builders::grid_tree(&[7, 7], RecursionLimits::default());
    let m = Metrics::new();
    let a = alg41::augment_leaves_up::<Tropical>(&g, &tree, &m).unwrap();
    let b = alg44::augment_shared_doubling::<Tropical>(&g, &tree, &m).unwrap();
    let shared: std::collections::HashMap<(u32, u32), f64> =
        b.eplus.iter().map(|e| ((e.from, e.to), e.w)).collect();
    assert!(b.eplus.len() >= a.eplus.len());
    for e in &a.eplus {
        let w = shared
            .get(&(e.from, e.to))
            .unwrap_or_else(|| panic!("pair ({},{}) missing from shared E+", e.from, e.to));
        assert!(
            *w <= e.w + 1e-9,
            "shared weight worse on ({},{})",
            e.from,
            e.to
        );
    }
    // Soundness of every shared edge.
    for e in &b.eplus {
        let truth = dijkstra(&g, e.from as usize).dist[e.to as usize];
        assert!(e.w >= truth - 1e-9);
    }
}

#[test]
fn diameter_bound_still_holds() {
    let mut rng = StdRng::seed_from_u64(203);
    let (g, _) = generators::grid(&[8, 8], &mut rng);
    let tree = builders::grid_tree(&[8, 8], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::SharedDoubling, &metrics).unwrap();
    let stats = pre.stats();
    let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
    let diam = analysis::min_weight_diameter::<Tropical>(g.n(), pre.augmented_edges()).unwrap();
    assert!(diam <= bound, "{diam} > {bound}");
}

/// On trees and geometric graphs too.
#[test]
fn other_families() {
    let mut rng = StdRng::seed_from_u64(204);
    let t = generators::random_tree(120, &mut rng);
    let tree = builders::centroid_tree(&t.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&t, &tree, Algorithm::SharedDoubling, &metrics).unwrap();
    let truth = dijkstra(&t, 60);
    let (dist, _) = pre.distances_seq(60);
    for (v, &d) in dist.iter().enumerate() {
        assert!((d - truth.dist[v]).abs() < 1e-6, "vertex {v}");
    }

    let (geo, coords) = generators::geometric(200, 2, 0.15, &mut rng);
    let gtree = builders::geometric_tree(
        &geo.undirected_skeleton(),
        &coords,
        RecursionLimits::default(),
    );
    let pre = preprocess::<Tropical>(&geo, &gtree, Algorithm::SharedDoubling, &metrics).unwrap();
    let truth = dijkstra(&geo, 0);
    let (dist, _) = pre.distances_seq(0);
    for (v, &d) in dist.iter().enumerate() {
        if truth.dist[v].is_finite() {
            assert!((d - truth.dist[v]).abs() < 1e-6, "vertex {v}");
        } else {
            assert!(d.is_infinite(), "vertex {v}");
        }
    }
}

/// Boolean algebra through the shared table.
#[test]
fn boolean_reachability() {
    use spsep_graph::semiring::Boolean;
    let mut rng = StdRng::seed_from_u64(205);
    let dag = generators::layered_dag(6, 8, 2, &mut rng);
    let g = dag.map_weights(|_| true);
    let tree = builders::bfs_tree(&g.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Boolean>(&g, &tree, Algorithm::SharedDoubling, &metrics).unwrap();
    for s in [0usize, 10, 25] {
        let got = pre.distances_seq(s).0;
        let want = spsep_baselines::reachable_from(&g, s);
        assert_eq!(got, want, "source {s}");
    }
}
