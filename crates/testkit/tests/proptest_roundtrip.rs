//! Property tests for the serialization layer and the shipped entry
//! point.
//!
//! * **Round-trip fixed point** for both text formats, the CSV
//!   ingestion format and the `spsep-oracle/v2` snapshot: for any
//!   instance, `write → read → write` reproduces the first
//!   serialization byte-for-byte (so `read` loses nothing and `write`
//!   is canonical).
//! * **Distance agreement** on random grid and partial-k-tree
//!   instances: an [`Oracle`] prepared, saved and reloaded agrees with
//!   Dijkstra everywhere.

use proptest::prelude::*;
use rand::SeedableRng;
use spsep_baselines::dijkstra;
use spsep_core::{Algorithm, Oracle};
use spsep_graph::DiGraph;
use spsep_pram::Metrics;
use spsep_separator::{builders, treewidth, RecursionLimits, SepTree};

fn grid_instance(rows: usize, cols: usize, seed: u64) -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&[rows, cols], &mut rng);
    let tree = builders::grid_tree(&[rows, cols], RecursionLimits::default());
    (g, tree)
}

fn ktree_instance(n: usize, k: usize, seed: u64) -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, td) = treewidth::partial_ktree(n, k, 0.7, &mut rng);
    let tree = treewidth::treewidth_tree(&g.undirected_skeleton(), &td, RecursionLimits::default());
    (g, tree)
}

fn prepare(g: &DiGraph<f64>, tree: &SepTree) -> Oracle {
    Oracle::prepare(
        g.clone(),
        tree.clone(),
        Algorithm::LeavesUp,
        &Metrics::new(),
    )
    .unwrap_or_else(|e| panic!("valid instance rejected: {e}"))
}

fn save(oracle: &Oracle) -> Vec<u8> {
    let mut bytes = Vec::new();
    oracle.save_v2(&mut bytes).unwrap();
    bytes
}

/// Prepare, persist and reload `(g, tree)`, then check the reloaded
/// oracle against Dijkstra from three sources.
fn assert_reloaded_oracle_matches_dijkstra(g: &DiGraph<f64>, tree: &SepTree) {
    let oracle = Oracle::load(save(&prepare(g, tree)).as_slice()).unwrap();
    let metrics = Metrics::new();
    for source in [0usize, g.n() / 3, g.n() - 1] {
        let got = oracle.source_table(source, &metrics).unwrap();
        let want = dijkstra(g, source).dist;
        for v in 0..g.n() {
            assert!(
                (got[v] - want[v]).abs() < 1e-9 || (got[v].is_infinite() && want[v].is_infinite()),
                "source {source} vertex {v}: got {} want {}",
                got[v],
                want[v]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn graph_write_read_write_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (g, _) = grid_instance(rows, cols, seed);
        let mut first = Vec::new();
        spsep_graph::io::write_dimacs(&g, &mut first).unwrap();
        let back = spsep_graph::io::read_dimacs(first.as_slice()).unwrap();
        let mut second = Vec::new();
        spsep_graph::io::write_dimacs(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn tree_write_read_write_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
    ) {
        let tree = builders::grid_tree(&[rows, cols], RecursionLimits::default());
        let mut first = Vec::new();
        spsep_separator::io::write_tree(&tree, &mut first).unwrap();
        let back = spsep_separator::io::read_tree(first.as_slice()).unwrap();
        let mut second = Vec::new();
        spsep_separator::io::write_tree(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn csv_export_import_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        // Ingestion round-trip (ISSUE 10): exporting a graph to the CSV
        // edge-list format and importing it back is bit-identical on
        // the second write, so `read_csv_edges` loses nothing and
        // `write_csv_edges` is canonical (shortest-round-trip floats).
        let (g, _) = grid_instance(rows, cols, seed);
        let mut first = Vec::new();
        spsep_graph::import::write_csv_edges(&g, &mut first).unwrap();
        let back = spsep_graph::import::read_csv_edges(first.as_slice()).unwrap();
        prop_assert_eq!(back.n(), g.n());
        prop_assert_eq!(back.m(), g.m());
        let mut second = Vec::new();
        spsep_graph::import::write_csv_edges(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn snapshot_save_load_save_is_a_fixed_point(
        rows in 3usize..8,
        cols in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = grid_instance(rows, cols, seed);
        let first = save(&prepare(&g, &tree));
        let back = Oracle::load(first.as_slice()).unwrap();
        prop_assert_eq!(back.n(), g.n());
        prop_assert_eq!(first, save(&back));
    }

    #[test]
    fn oracle_agrees_with_dijkstra_on_random_grids(
        rows in 3usize..9,
        cols in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = grid_instance(rows, cols, seed);
        assert_reloaded_oracle_matches_dijkstra(&g, &tree);
    }

    #[test]
    fn oracle_agrees_with_dijkstra_on_random_ktrees(
        n in 12usize..40,
        k in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = ktree_instance(n, k, seed);
        assert_reloaded_oracle_matches_dijkstra(&g, &tree);
    }
}
