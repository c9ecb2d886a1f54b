//! One end-to-end flow through every major feature, the way a power user
//! would chain them: generate → decompose → persist tree → reload →
//! preprocess (all three algorithms) → persist the oracle → reload → query
//! (single / multi / init / pairs) → SP tree → explain → verify
//! everything against baselines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep::baselines;
use spsep::core::{explain, preprocess, query, Algorithm, Oracle, Preprocessed};
use spsep::graph::semiring::Tropical;
use spsep::graph::{generators, io as graph_io};
use spsep::pram::Metrics;
use spsep::separator::{builders, io as tree_io, RecursionLimits};

#[test]
fn the_whole_stack() {
    let mut rng = StdRng::seed_from_u64(777);
    let dims = [14usize, 13];
    let (g, _) = generators::grid(&dims, &mut rng);
    let g = generators::skew_by_potentials(&g, 2.0, &mut rng);
    let n = g.n();

    // Graph I/O round-trip.
    let mut gbuf = Vec::new();
    graph_io::write_dimacs(&g, &mut gbuf).unwrap();
    let g = graph_io::read_dimacs(gbuf.as_slice()).unwrap();

    // Decomposition + persistence round-trip.
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    let mut tbuf = Vec::new();
    tree_io::write_tree(&tree, &mut tbuf).unwrap();
    let tree = tree_io::read_tree(tbuf.as_slice()).unwrap();
    tree.validate(&g.undirected_skeleton()).unwrap();

    // All three construction algorithms agree with the baseline.
    let truth = baselines::bellman_ford(&g, 7).unwrap();
    let mut first: Option<Preprocessed<Tropical>> = None;
    for algo in [
        Algorithm::LeavesUp,
        Algorithm::PathDoubling,
        Algorithm::SharedDoubling,
    ] {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics).unwrap();
        let (dist, _) = pre.distances_seq(7);
        for (v, &d) in dist.iter().enumerate().take(n) {
            if truth.dist[v].is_finite() {
                assert!((d - truth.dist[v]).abs() < 1e-6, "{algo:?} vertex {v}");
            } else {
                assert!(d.is_infinite());
            }
        }
        if first.is_none() {
            first = Some(pre);
        }
    }
    let pre = first.unwrap();

    // Oracle persistence round-trip (v2 snapshot), then identical queries.
    let metrics = Metrics::new();
    let oracle = Oracle::prepare(g.clone(), tree.clone(), Algorithm::LeavesUp, &metrics).unwrap();
    let mut snapshot = Vec::new();
    oracle.save_v2(&mut snapshot).unwrap();
    let served = Oracle::load(snapshot.as_slice()).unwrap();
    assert_eq!(served.n(), n);
    let reloaded = served.source_table(7, &metrics).unwrap();
    let fresh = pre.distances_seq(7).0;
    assert!(fresh
        .iter()
        .zip(reloaded.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits()));

    // Query surface: multi, init, pairs, explicit path, explanation.
    let rows = pre.distances_multi(&[0, 7, n - 1]);
    assert_eq!(rows[1], pre.distances_seq(7).0);

    let mut init = vec![f64::INFINITY; n];
    init[0] = 0.0;
    init[n - 1] = 0.0;
    let (multi, _) = pre.distances_from_init(init);
    for v in 0..n {
        let expect = rows[0][v].min(rows[2][v]);
        if expect.is_finite() {
            assert!((multi[v] - expect).abs() < 1e-6);
        }
    }

    let pairs = [(7usize, 0usize), (7, n - 1), (0, 7)];
    let pw = pre.distances_pairs(&pairs);
    assert!((pw[0] - rows[1][0]).abs() < 1e-6);
    assert!((pw[1] - rows[1][n - 1]).abs() < 1e-6);

    let (w, path) = pre.shortest_path(&g, 7, n - 1).unwrap();
    assert!((w - rows[1][n - 1]).abs() < 1e-6);
    assert_eq!(path[0], 7);

    let sp_tree = query::shortest_path_tree::<Tropical>(&g, 7, &rows[1]);
    let tree_path = query::path_from_tree(&g, &sp_tree, 7, n - 1).unwrap();
    assert_eq!(tree_path[0], 7);

    let exp = explain::explain(&pre, 7, n - 1).unwrap();
    assert!((exp.weight - rows[1][n - 1]).abs() < 1e-9 * (1.0 + exp.weight.abs()));
    assert!(exp.hops.len() <= exp.size_bound);
}
