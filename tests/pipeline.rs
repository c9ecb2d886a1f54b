//! Cross-crate integration tests exercising the facade exactly the way a
//! downstream user would: generators → separator builders → core
//! preprocessing → queries → baselines cross-checks, plus the planar and
//! TVPI pipelines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep::baselines;
use spsep::core::{analysis, preprocess, query, reach, Algorithm};
use spsep::graph::semiring::{Boolean, Tropical};
use spsep::graph::{generators, DiGraph};
use spsep::planar;
use spsep::pram::Metrics;
use spsep::separator::{builders, RecursionLimits};
use spsep::tvpi;

/// The quickstart flow, condensed: grid → tree → E⁺ → queries → paths.
#[test]
fn facade_quickstart_flow() {
    let mut rng = StdRng::seed_from_u64(1);
    let dims = [20usize, 20];
    let (g, _) = generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let (dist, _) = pre.distances_seq(0);
    let truth = baselines::dijkstra(&g, 0);
    for (v, &d) in dist.iter().enumerate() {
        assert!((d - truth.dist[v]).abs() < 1e-6);
    }
    let parent = query::shortest_path_tree::<Tropical>(&g, 0, &dist);
    let path = query::path_from_tree(&g, &parent, 0, g.n() - 1).unwrap();
    assert_eq!(path[0], 0);
    assert_eq!(*path.last().unwrap(), g.n() as u32 - 1);
}

/// Serialization round-trip feeding the pipeline: write a graph to
/// DIMACS, read it back, get identical distances.
#[test]
fn io_roundtrip_preserves_distances() {
    let mut rng = StdRng::seed_from_u64(2);
    let (g, _) = generators::grid(&[8, 9], &mut rng);
    let mut buf = Vec::new();
    spsep::graph::io::write_dimacs(&g, &mut buf).unwrap();
    let g2 = spsep::graph::io::read_dimacs(buf.as_slice()).unwrap();
    let tree = builders::bfs_tree(&g2.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g2, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let (dist, _) = pre.distances_seq(3);
    let truth = baselines::dijkstra(&g, 3);
    for (v, &d) in dist.iter().enumerate() {
        assert!((d - truth.dist[v]).abs() < 1e-6);
    }
}

/// One decomposition reused across weightings and orientations — paper
/// comment (iv): the tree depends only on the undirected skeleton.
#[test]
fn one_tree_many_weightings() {
    let mut rng = StdRng::seed_from_u64(3);
    let dims = [12usize, 12];
    let (g1, _) = generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    // Re-weight (same skeleton) and re-orient one direction away.
    let g2 = generators::skew_by_potentials(&g1, 4.0, &mut rng);
    let g3 = DiGraph::from_edges(
        g1.n(),
        g1.edges()
            .iter()
            .filter(|e| e.from < e.to)
            .copied()
            .collect(),
    );
    let metrics = Metrics::new();
    for g in [&g1, &g2, &g3] {
        let pre = preprocess::<Tropical>(g, &tree, Algorithm::PathDoubling, &metrics).unwrap();
        let (dist, _) = pre.distances_seq(0);
        let truth = baselines::bellman_ford(g, 0).unwrap();
        for (v, &d) in dist.iter().enumerate() {
            if truth.dist[v].is_finite() {
                assert!((d - truth.dist[v]).abs() < 1e-6);
            } else {
                assert!(d.is_infinite());
            }
        }
    }
}

/// Theorem 3.1 across the facade: augmented diameter within the bound on
/// a geometric instance.
#[test]
fn diameter_bound_on_geometric_graph() {
    let mut rng = StdRng::seed_from_u64(4);
    let (g, coords) = generators::geometric(400, 2, 0.1, &mut rng);
    let adj = g.undirected_skeleton();
    let tree = builders::geometric_tree(&adj, &coords, RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let stats = pre.stats();
    let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
    let diam = analysis::min_weight_diameter::<Tropical>(g.n(), pre.augmented_edges()).unwrap();
    assert!(diam <= bound, "{diam} > {bound}");
}

/// Boolean facade: reachability over a random DAG equals the dense
/// closure row by row.
#[test]
fn reachability_pipeline_matches_dense_closure() {
    let mut rng = StdRng::seed_from_u64(5);
    let dag = generators::layered_dag(8, 12, 2, &mut rng);
    let g = dag.map_weights(|_| true);
    let tree = builders::bfs_tree(&g.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = reach::preprocess_reach(&g, &tree, &metrics);
    let closure = baselines::transitive_closure_dense(&g);
    for s in [0usize, 13, 50, 95] {
        let row = pre.distances_seq(s).0;
        for (v, &got) in row.iter().enumerate() {
            let expect = closure.get(s, v);
            assert_eq!(got, expect, "({s},{v})");
        }
    }
    // Generic Boolean semiring agrees too.
    let gen = preprocess::<Boolean>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    assert_eq!(gen.distances_seq(0).0, pre.distances_seq(0).0);
}

/// Planar (Section 6) + TVPI pipelines through the facade.
#[test]
fn planar_and_tvpi_facades() {
    let mut rng = StdRng::seed_from_u64(6);
    let hg = planar::generate_hammock_graph(3, 3, &mut rng);
    let metrics = Metrics::new();
    let sp = planar::HammockSP::preprocess(&hg, &metrics);
    let got = sp.distances(0);
    let want = baselines::dijkstra(&hg.graph, 0).dist;
    for v in 0..hg.graph.n() {
        assert!((got[v] - want[v]).abs() < 1e-6);
    }

    let sys = tvpi::grid_schedule_system(6, 6, 2.0, 1.0, &mut rng);
    match sys.solve(&metrics) {
        tvpi::Solution::Feasible(x) => sys.check(&x, 1e-9).unwrap(),
        tvpi::Solution::Infeasible => panic!("feasible by construction"),
    }
}

/// Negative cycles are reported, not silently mis-solved, across entry
/// points.
#[test]
fn negative_cycle_surfaces_everywhere() {
    let mut rng = StdRng::seed_from_u64(7);
    let (g, _) = generators::grid(&[6, 6], &mut rng);
    let g = g.map_weights(|e| if e.from == 0 || e.to == 0 { -9.0 } else { e.w });
    let tree = builders::grid_tree(&[6, 6], RecursionLimits::default());
    let metrics = Metrics::new();
    assert!(preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).is_err());
    assert!(preprocess::<Tropical>(&g, &tree, Algorithm::PathDoubling, &metrics).is_err());
    assert!(baselines::bellman_ford(&g, 0).is_err());
    assert!(baselines::johnson(&g, &[0]).is_err());
}

/// The PRAM metrics reported by a full run are internally consistent.
#[test]
fn metrics_are_consistent() {
    let mut rng = StdRng::seed_from_u64(8);
    let (g, _) = generators::grid(&[16, 16], &mut rng);
    let tree = builders::grid_tree(&[16, 16], RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let report = metrics.report();
    assert_eq!(report.total_work(), metrics.total_work());
    assert!(report.floyd_warshall > 0, "leaf/H_S FW must be charged");
    assert!(report.limited > 0, "3-limited products must be charged");
    assert!(report.phases as usize >= tree.height() as usize);
    // Query charges relaxations.
    let qm = Metrics::new();
    let _ = pre.distances(0, &qm);
    assert!(qm.work_of(spsep::pram::Counter::Relaxation) > 0);
    assert!(qm.phases() > 0);
}
