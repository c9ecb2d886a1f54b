//! End-to-end correctness of the paper pipeline: both `E⁺` constructions,
//! the scheduled query engine, Theorem 3.1's diameter bound, path-tree
//! recovery, reachability, and the semiring generalization — all checked
//! against independent baselines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep_baselines::{bellman_ford, bellman_ford_semiring, dijkstra};
use spsep_core::{analysis, preprocess, query, reach, Algorithm, Preprocessed};
use spsep_graph::semiring::{Bottleneck, MaxPlus, Tropical};
use spsep_graph::{generators, DiGraph};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits, SepTree};

fn grid_tree_for(dims: &[usize]) -> SepTree {
    builders::grid_tree(dims, RecursionLimits::default())
}

fn assert_dist_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (v, (&x, &y)) in a.iter().zip(b).enumerate() {
        if x.is_infinite() || y.is_infinite() {
            assert_eq!(
                x.is_infinite(),
                y.is_infinite(),
                "{what}: vertex {v} reachability mismatch ({x} vs {y})"
            );
        } else {
            assert!(
                (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                "{what}: vertex {v}: {x} vs {y}"
            );
        }
    }
}

/// Both algorithms, every source, against Dijkstra on a 2D grid.
#[test]
fn grid_all_sources_match_dijkstra() {
    let mut rng = StdRng::seed_from_u64(100);
    let (g, _) = generators::grid(&[7, 9], &mut rng);
    let tree = grid_tree_for(&[7, 9]);
    tree.validate(&g.undirected_skeleton()).unwrap();
    for algo in [Algorithm::LeavesUp, Algorithm::PathDoubling] {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics).unwrap();
        for s in 0..g.n() {
            let (dist, _) = pre.distances_seq(s);
            let truth = dijkstra(&g, s);
            assert_dist_eq(&dist, &truth.dist, &format!("{algo:?} source {s}"));
        }
        assert!(metrics.total_work() > 0);
        assert!(metrics.depth() > 0);
    }
}

/// The two construction algorithms produce the same deduplicated `E⁺`
/// (both emit exact `dist_{G(t)}` for the same vertex pairs).
#[test]
fn alg41_and_alg43_agree_on_eplus() {
    let mut rng = StdRng::seed_from_u64(101);
    let (g, _) = generators::grid(&[6, 6], &mut rng);
    let tree = grid_tree_for(&[6, 6]);
    let m = Metrics::new();
    let a = spsep_core::alg41::augment_leaves_up::<Tropical>(&g, &tree, &m).unwrap();
    let b = spsep_core::alg43::augment_path_doubling::<Tropical>(&g, &tree, &m).unwrap();
    assert_eq!(a.eplus.len(), b.eplus.len());
    for (ea, eb) in a.eplus.iter().zip(&b.eplus) {
        assert_eq!((ea.from, ea.to), (eb.from, eb.to));
        assert!(
            (ea.w - eb.w).abs() < 1e-9,
            "({},{}) {} vs {}",
            ea.from,
            ea.to,
            ea.w,
            eb.w
        );
    }
}

/// Negative edges (no negative cycles) via potential skewing.
#[test]
fn negative_weights_match_bellman_ford() {
    let mut rng = StdRng::seed_from_u64(102);
    let (g, _) = generators::grid(&[6, 7], &mut rng);
    let g = generators::skew_by_potentials(&g, 5.0, &mut rng);
    assert!(g.edges().iter().any(|e| e.w < 0.0));
    let tree = grid_tree_for(&[6, 7]);
    for algo in [Algorithm::LeavesUp, Algorithm::PathDoubling] {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics).unwrap();
        for s in [0usize, 17, 41] {
            let (dist, _) = pre.distances_seq(s);
            let truth = bellman_ford(&g, s).unwrap();
            assert_dist_eq(&dist, &truth.dist, &format!("{algo:?} source {s}"));
        }
    }
}

/// Negative cycles are detected during preprocessing — comment (i).
#[test]
fn negative_cycle_detected_by_both_algorithms() {
    let mut rng = StdRng::seed_from_u64(103);
    let (g, _) = generators::grid(&[5, 5], &mut rng);
    // Make one tiny cycle strongly negative: edges (0→1) and (1→0).
    let g = g.map_weights(|e| {
        if (e.from, e.to) == (0, 1) || (e.from, e.to) == (1, 0) {
            -10.0
        } else {
            e.w
        }
    });
    let tree = grid_tree_for(&[5, 5]);
    for algo in [Algorithm::LeavesUp, Algorithm::PathDoubling] {
        let metrics = Metrics::new();
        assert!(
            preprocess::<Tropical>(&g, &tree, algo, &metrics).is_err(),
            "{algo:?} must detect the negative cycle"
        );
    }
}

/// Theorem 3.1: `diam(G⁺) ≤ 4·d_G + 2l + 1` and distance preservation.
#[test]
fn theorem_3_1_diameter_bound() {
    let mut rng = StdRng::seed_from_u64(104);
    for dims in [&[8usize, 8][..], &[5, 5, 3], &[30]] {
        let (g, _) = generators::grid(dims, &mut rng);
        let tree = grid_tree_for(dims);
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
        let stats = pre.stats();
        let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
        let diam =
            analysis::min_weight_diameter::<Tropical>(g.n(), pre.augmented_edges()).unwrap();
        assert!(
            diam <= bound,
            "dims {dims:?}: diam(G+) = {diam} > bound {bound} (d_G={}, l={})",
            stats.d_g,
            stats.leaf_bound
        );
        // And the diameter of G itself is much larger on the path case.
        if dims == [30] {
            let diam_g = analysis::min_weight_diameter::<Tropical>(g.n(), g.edges()).unwrap();
            assert!(diam_g >= 29);
            assert!(diam < diam_g);
        }
    }
}

/// The scheduled Bellman–Ford equals exhaustive Bellman–Ford on `G⁺`.
#[test]
fn schedule_equals_unscheduled() {
    let mut rng = StdRng::seed_from_u64(105);
    let (g, _) = generators::grid(&[6, 8], &mut rng);
    let g = generators::skew_by_potentials(&g, 2.0, &mut rng);
    let tree = grid_tree_for(&[6, 8]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 13, 47] {
        let (sched, _) = pre.distances_seq(s);
        let (full, _) = pre.distances_unscheduled(s, g.n()).unwrap();
        assert_dist_eq(&sched, &full, &format!("source {s}"));
    }
}

/// Parallel phase execution matches sequential execution.
#[test]
fn parallel_query_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(106);
    let (g, _) = generators::grid(&[9, 9], &mut rng);
    let tree = grid_tree_for(&[9, 9]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 40, 80] {
        let (seq, _) = pre.distances_seq(s);
        let par = pre.distances(s, &metrics);
        assert_dist_eq(&seq, &par, &format!("source {s}"));
    }
    let multi = pre.distances_multi(&[0, 40, 80]);
    assert_dist_eq(&multi[1], &pre.distances_seq(40).0, "multi");
}

/// Shortest-path trees reconstruct real paths of exactly the computed
/// distance — comment (ii).
#[test]
fn shortest_path_tree_is_consistent() {
    let mut rng = StdRng::seed_from_u64(107);
    let (g, _) = generators::grid(&[7, 7], &mut rng);
    let g = generators::skew_by_potentials(&g, 2.0, &mut rng);
    let tree = grid_tree_for(&[7, 7]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let source = 24;
    let (dist, _) = pre.distances_seq(source);
    let parent = query::shortest_path_tree::<Tropical>(&g, source, &dist);
    for v in 0..g.n() {
        if dist[v].is_infinite() {
            assert_eq!(parent[v], u32::MAX);
            continue;
        }
        let path = query::path_from_tree(&g, &parent, source, v)
            .unwrap_or_else(|| panic!("vertex {v} reachable but no tree path"));
        // Re-weigh the path along original edges.
        let mut w = 0.0;
        for pair in path.windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            let best = g
                .out_edges(a)
                .filter(|e| e.to as usize == b)
                .map(|e| e.w)
                .fold(f64::INFINITY, f64::min);
            w += best;
        }
        assert!(
            (w - dist[v]).abs() < 1e-6 * (1.0 + w.abs()),
            "vertex {v}: path weight {w} vs dist {}",
            dist[v]
        );
    }
}

/// Centroid decomposition on trees (the μ→0 family).
#[test]
fn tree_graphs_with_centroid_decomposition() {
    let mut rng = StdRng::seed_from_u64(108);
    let g = generators::random_tree(150, &mut rng);
    let adj = g.undirected_skeleton();
    let tree = builders::centroid_tree(&adj, RecursionLimits::default());
    tree.validate(&adj).unwrap();
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 75, 149] {
        let (dist, _) = pre.distances_seq(s);
        assert_dist_eq(&dist, &dijkstra(&g, s).dist, &format!("source {s}"));
    }
    // Single-vertex separators ⇒ |E⁺| is near-linear.
    assert!(pre.stats().eplus_edges <= 40 * g.n());
}

/// Planar triangulations via BFS-level + fundamental-cycle separators
/// (the Lipton–Tarjan mechanism behind Section 6's planar results).
#[test]
fn planar_mesh_with_cycle_separators() {
    use spsep_separator::planar;
    let mut rng = StdRng::seed_from_u64(135);
    let (g, _) = planar::triangulated_grid(12, 11, &mut rng);
    let adj = g.undirected_skeleton();
    let limits = spsep_separator::RecursionLimits {
        leaf_size: 4,
        ..Default::default()
    };
    let tree = planar::planar_level_tree(&adj, limits);
    tree.validate(&adj).unwrap();
    let metrics = Metrics::new();
    for algo in [Algorithm::LeavesUp, Algorithm::PathDoubling] {
        let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics).unwrap();
        for s in [0usize, 60, 131] {
            let (dist, _) = pre.distances_seq(s);
            let truth = dijkstra(&g, s);
            assert_dist_eq(&dist, &truth.dist, &format!("{algo:?} source {s}"));
        }
        // Theorem 3.1 bound on this decomposition too.
        let stats = pre.stats();
        let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
        let diam =
            analysis::min_weight_diameter::<Tropical>(g.n(), pre.augmented_edges()).unwrap();
        assert!(diam <= bound);
    }
}

/// Bounded-treewidth graphs via their tree decomposition (the
/// Robertson–Seymour family of the paper's introduction).
#[test]
fn partial_ktree_with_treewidth_decomposition() {
    use spsep_separator::treewidth;
    let mut rng = StdRng::seed_from_u64(130);
    for k in [2usize, 4] {
        let (g, td) = treewidth::partial_ktree(180, k, 0.7, &mut rng);
        let adj = g.undirected_skeleton();
        td.validate(&adj).unwrap();
        let tree = treewidth::treewidth_tree(&adj, &td, RecursionLimits::default());
        tree.validate(&adj).unwrap();
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
        // Constant-size separators ⇒ near-linear |E⁺|.
        assert!(
            pre.stats().eplus_edges <= 200 * (k + 1) * (k + 1) * g.n() / 10,
            "|E+| = {}",
            pre.stats().eplus_edges
        );
        for s in [0usize, 90, 179] {
            let (dist, _) = pre.distances_seq(s);
            let truth = dijkstra(&g, s);
            assert_dist_eq(&dist, &truth.dist, &format!("k={k} source {s}"));
        }
    }
}

/// Geometric graphs with coordinate-median separators.
#[test]
fn geometric_graphs_match_dijkstra() {
    let mut rng = StdRng::seed_from_u64(109);
    let (g, coords) = generators::geometric(250, 2, 0.13, &mut rng);
    let adj = g.undirected_skeleton();
    let tree = builders::geometric_tree(&adj, &coords, RecursionLimits::default());
    tree.validate(&adj).unwrap();
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 100, 249] {
        let (dist, _) = pre.distances_seq(s);
        assert_dist_eq(&dist, &dijkstra(&g, s).dist, &format!("source {s}"));
    }
}

/// Arbitrary digraph through the BFS-bisection fallback builder.
#[test]
fn gnm_graph_with_bfs_tree() {
    let mut rng = StdRng::seed_from_u64(110);
    let g = generators::gnm(120, 360, &mut rng);
    let adj = g.undirected_skeleton();
    let tree = builders::bfs_tree(&adj, RecursionLimits::default());
    tree.validate(&adj).unwrap();
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::PathDoubling, &metrics).unwrap();
    for s in [0usize, 60, 119] {
        let (dist, _) = pre.distances_seq(s);
        assert_dist_eq(&dist, &dijkstra(&g, s).dist, &format!("source {s}"));
    }
}

/// Reachability: the BitMatrix pipeline matches BFS from every source.
#[test]
fn reachability_matches_bfs() {
    let mut rng = StdRng::seed_from_u64(111);
    let mut edges = Vec::new();
    // A grid skeleton made directed-sparse: keep each arc with prob ~60%.
    let (base, _) = generators::grid(&[8, 8], &mut rng);
    for (i, e) in base.edges().iter().enumerate() {
        if i % 5 != 0 {
            edges.push(spsep_graph::Edge::new(e.from as usize, e.to as usize, true));
        }
    }
    let g = DiGraph::from_edges(base.n(), edges);
    let tree = grid_tree_for(&[8, 8]);
    let metrics = Metrics::new();
    let pre = reach::preprocess_reach(&g, &tree, &metrics);
    for s in 0..g.n() {
        let dist = pre.distances_seq(s).0;
        let truth = spsep_baselines::reachable_from(&g, s);
        for v in 0..g.n() {
            assert_eq!(dist[v], truth[v], "source {s} vertex {v}");
        }
    }
    assert!(metrics.work_of(spsep_pram::Counter::MatMul) > 0);
}

/// Full transitive closure through the separator pipeline equals the
/// dense repeated-squaring closure.
#[test]
fn full_transitive_closure_matches_dense() {
    let mut rng = StdRng::seed_from_u64(150);
    let dag = generators::layered_dag(5, 9, 2, &mut rng);
    let g = dag.map_weights(|_| true);
    let tree =
        builders::bfs_tree(&g.undirected_skeleton(), RecursionLimits::default());
    let metrics = Metrics::new();
    let pre = reach::preprocess_reach(&g, &tree, &metrics);
    let ours = reach::transitive_closure(&pre);
    let dense = spsep_baselines::transitive_closure_dense(&g);
    assert_eq!(ours, dense);
}

/// The generic Boolean path computes the same reachability as the
/// specialized BitMatrix path.
#[test]
fn generic_boolean_equals_bitmatrix_pipeline() {
    use spsep_graph::semiring::Boolean;
    let mut rng = StdRng::seed_from_u64(112);
    let (base, _) = generators::grid(&[6, 6], &mut rng);
    let g = base.map_weights(|_| true);
    let tree = grid_tree_for(&[6, 6]);
    let metrics = Metrics::new();
    let fast = reach::preprocess_reach(&g, &tree, &metrics);
    let generic = preprocess::<Boolean>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    assert_eq!(fast.eplus().len(), generic.eplus().len());
    for s in [0usize, 20, 35] {
        assert_eq!(fast.distances_seq(s).0, generic.distances_seq(s).0);
    }
}

/// Path algebra generality — comment (iii): bottleneck (max,min) and
/// longest path on a DAG (max,+) run through the identical machinery.
#[test]
fn bottleneck_semiring_matches_reference() {
    let mut rng = StdRng::seed_from_u64(113);
    let (g, _) = generators::grid(&[6, 6], &mut rng);
    let tree = grid_tree_for(&[6, 6]);
    let metrics = Metrics::new();
    let pre = preprocess::<Bottleneck>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 18, 35] {
        let (dist, _) = pre.distances_seq(s);
        let truth = bellman_ford_semiring::<Bottleneck>(&g, s).unwrap();
        for v in 0..g.n() {
            assert_eq!(dist[v], truth[v], "source {s} vertex {v}");
        }
    }
}

#[test]
fn maxplus_on_dag_matches_reference() {
    let mut rng = StdRng::seed_from_u64(114);
    // Orient all grid edges "rightward/downward" to get a DAG.
    let (bi, _) = generators::grid(&[7, 7], &mut rng);
    let edges: Vec<spsep_graph::Edge<f64>> = bi
        .edges()
        .iter()
        .filter(|e| e.from < e.to)
        .copied()
        .collect();
    let g = DiGraph::from_edges(bi.n(), edges);
    let tree = grid_tree_for(&[7, 7]);
    let metrics = Metrics::new();
    let pre = preprocess::<MaxPlus>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    for s in [0usize, 24] {
        let (dist, _) = pre.distances_seq(s);
        let truth = bellman_ford_semiring::<MaxPlus>(&g, s).unwrap();
        for v in 0..g.n() {
            if dist[v].is_infinite() && truth[v].is_infinite() {
                continue;
            }
            assert!(
                (dist[v] - truth[v]).abs() < 1e-6,
                "source {s} vertex {v}: {} vs {}",
                dist[v],
                truth[v]
            );
        }
    }
}

/// Positive cycle under max-plus is absorbing and must be caught.
#[test]
fn maxplus_positive_cycle_detected() {
    let mut rng = StdRng::seed_from_u64(115);
    let (g, _) = generators::grid(&[4, 4], &mut rng); // bidirected ⇒ positive 2-cycles
    let tree = grid_tree_for(&[4, 4]);
    let metrics = Metrics::new();
    assert!(preprocess::<MaxPlus>(&g, &tree, Algorithm::LeavesUp, &metrics).is_err());
}

/// Per-source work scales with `|E ∪ E⁺|`, not with `|E⁺| · d_G`.
#[test]
fn scheduled_work_is_bounded() {
    let mut rng = StdRng::seed_from_u64(116);
    let (g, _) = generators::grid(&[12, 12], &mut rng);
    let tree = grid_tree_for(&[12, 12]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let (_, stats) = pre.distances_seq(0);
    let m_plus = pre.augmented_edges().len() as u64;
    let l = pre.stats().leaf_bound as u64;
    let m = g.m() as u64;
    // Work bound from Section 3.2: O(l·|E| + |E ∪ E⁺|). Allow slack 4× for
    // the same-level buckets revisited once in each direction.
    assert!(
        stats.relaxations <= 4 * (l * m + m_plus) + m,
        "relaxations {} vs bound inputs l={l} m={m} m+={m_plus}",
        stats.relaxations
    );
    // And strictly below the naive diam·|E⁺| schedule.
    let naive = m_plus * (4 * pre.stats().d_g as u64 + 2 * l + 1);
    assert!(stats.relaxations < naive);
}

/// Disconnected graphs: distances across components are `+∞`.
#[test]
fn disconnected_graph() {
    let mut rng = StdRng::seed_from_u64(117);
    let (g1, _) = generators::grid(&[4, 4], &mut rng);
    let mut edges = g1.edges().to_vec();
    let offset = g1.n();
    for e in g1.edges() {
        edges.push(spsep_graph::Edge::new(
            e.from as usize + offset,
            e.to as usize + offset,
            e.w,
        ));
    }
    let g = DiGraph::from_edges(2 * offset, edges);
    let adj = g.undirected_skeleton();
    let tree = builders::bfs_tree(&adj, RecursionLimits::default());
    tree.validate(&adj).unwrap();
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let (dist, _) = pre.distances_seq(0);
    for &d in dist.iter().take(2 * offset).skip(offset) {
        assert!(d.is_infinite());
    }
    assert_dist_eq(&dist[..offset], &dijkstra(&g, 0).dist[..offset], "comp 1");
}

/// Tiny graphs: single vertex and single edge.
#[test]
fn degenerate_graphs() {
    let g: DiGraph<f64> = DiGraph::from_edges(1, vec![]);
    let adj = g.undirected_skeleton();
    let tree = builders::bfs_tree(&adj, RecursionLimits::default());
    let metrics = Metrics::new();
    let pre: Preprocessed<Tropical> =
        preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    assert_eq!(pre.distances_seq(0).0, vec![0.0]);

    let g = DiGraph::from_edges(2, vec![spsep_graph::Edge::new(0, 1, 3.5)]);
    let adj = g.undirected_skeleton();
    let tree = builders::bfs_tree(&adj, RecursionLimits { leaf_size: 1, ..Default::default() });
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::PathDoubling, &metrics).unwrap();
    assert_eq!(pre.distances_seq(0).0, vec![0.0, 3.5]);
    assert!(pre.distances_seq(1).0[0].is_infinite());
}

/// Pair-query conveniences: `shortest_path` returns a real path of the
/// right weight; `distances_pairs` matches per-source queries.
#[test]
fn pair_queries() {
    let mut rng = StdRng::seed_from_u64(140);
    let (g, _) = generators::grid(&[8, 7], &mut rng);
    let g = generators::skew_by_potentials(&g, 2.0, &mut rng);
    let tree = grid_tree_for(&[8, 7]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();

    let (w, path) = pre.shortest_path(&g, 0, g.n() - 1).expect("connected");
    assert_eq!(path[0], 0);
    assert_eq!(*path.last().unwrap() as usize, g.n() - 1);
    let mut total = 0.0;
    for pair in path.windows(2) {
        let best = g
            .out_edges(pair[0] as usize)
            .filter(|e| e.to == pair[1])
            .map(|e| e.w)
            .fold(f64::INFINITY, f64::min);
        total += best;
    }
    assert!((total - w).abs() < 1e-6);

    let pairs = [(0usize, 5usize), (0, 40), (13, 2), (13, 13), (55, 0)];
    let got = pre.distances_pairs(&pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let truth = bellman_ford(&g, u).unwrap().dist[v];
        if truth.is_finite() {
            assert!((got[i] - truth).abs() < 1e-6, "pair {i}");
        } else {
            assert!(got[i].is_infinite());
        }
    }
}

/// Multi-source initialization: one schedule run equals the min over
/// per-source runs (min-plus linearity, used by the TVPI solver).
#[test]
fn multi_source_init_equals_min_over_sources() {
    let mut rng = StdRng::seed_from_u64(119);
    let (g, _) = generators::grid(&[7, 8], &mut rng);
    let g = generators::skew_by_potentials(&g, 2.0, &mut rng);
    let tree = grid_tree_for(&[7, 8]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let sources = [0usize, 11, 30, 55];
    let offsets = [0.0f64, 1.5, -0.75, 4.0];
    let mut init = vec![f64::INFINITY; g.n()];
    for (&s, &o) in sources.iter().zip(&offsets) {
        init[s] = o;
    }
    let (multi, _) = pre.distances_from_init(init);
    for (v, &got) in multi.iter().enumerate() {
        let expect = sources
            .iter()
            .zip(&offsets)
            .map(|(&s, &o)| o + pre.distances_seq(s).0[v])
            .fold(f64::INFINITY, f64::min);
        if expect.is_finite() {
            assert!((got - expect).abs() < 1e-6, "vertex {v}: {got} vs {expect}");
        } else {
            assert!(got.is_infinite());
        }
    }
}

/// `E⁺` weights are never better than true distances (soundness half of
/// Theorem 3.1(i)), checked explicitly.
#[test]
fn eplus_weights_are_sound() {
    let mut rng = StdRng::seed_from_u64(118);
    let (g, _) = generators::grid(&[6, 6], &mut rng);
    let tree = grid_tree_for(&[6, 6]);
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    // True all-pairs via Dijkstra per source.
    for e in pre.eplus() {
        let truth = dijkstra(&g, e.from as usize).dist[e.to as usize];
        assert!(
            e.w >= truth - 1e-9,
            "shortcut ({},{}) weight {} beats true distance {}",
            e.from,
            e.to,
            e.w,
            truth
        );
    }
}
