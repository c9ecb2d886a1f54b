//! The CSR-core differential suite.
//!
//! Contracts under test:
//!
//! 1. **Pinned answer digests** — for every family × algorithm the
//!    distance rows from four probe sources hash (FNV-1a over the raw
//!    `f64` bit patterns) to a digest pinned in this file, and the same
//!    digest is produced at 1, 2, 4, and 8 threads. The digests were
//!    recorded from the flat-CSR implementation; any future layout
//!    change that perturbs even one output bit fails loudly here.
//!    Reachability closures get the same treatment per family.
//! 2. **Dijkstra agreement** — the digested rows are not merely stable
//!    but correct: every entry is cross-checked against the Dijkstra
//!    oracle before its digest is compared.
//! 3. **CSR construction properties** — for random edge lists,
//!    `DiGraph::from_edges → from_csr_parts` is a fixed point, and
//!    every structural lie (shifted offsets, swapped adjacency
//!    sections, out-of-range ids) yields a typed error, never a panic.
//! 4. **NodeOrder properties** — for random permutations,
//!    permute ∘ invert = id, `node(rank(v)) = v`, and `permute_graph`
//!    preserves per-vertex degrees (under relabeling) and total degree
//!    sums.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::with_max_threads;
use spsep_baselines::dijkstra;
use spsep_bench::families::Family;
use spsep_core::{preprocess, Algorithm};
use spsep_graph::bytes::fnv1a64;
use spsep_graph::semiring::Tropical;
use spsep_graph::{DiGraph, Edge, NodeOrder, Store};
use spsep_pram::Metrics;
use spsep_separator::SepTree;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 7;

/// Pinned FNV-1a digests of the probe distance rows, one per
/// family × algorithm. Recorded from the flat-CSR implementation at
/// `N_TARGET = 240`, `SEED = 7`; every thread count must reproduce
/// them bit for bit. The `planar/*` rows depend on the tree
/// `Family::PlanarMesh` builds (`planar_level_tree`); a different
/// planar builder means a different `E⁺` and new (Dijkstra-checked)
/// digests.
const DISTANCE_DIGESTS: &[(&str, u64)] = &[
    ("grid2d/LeavesUp", 0x861a414061fb7b20),
    ("grid2d/PathDoubling", 0x59102dd3378fa9a4),
    ("grid2d/SharedDoubling", 0x59102dd3378fa9a4),
    ("grid3d/LeavesUp", 0x3bc837c8297c3b57),
    ("grid3d/PathDoubling", 0xa6e2c43680983467),
    ("grid3d/SharedDoubling", 0xa6e2c43680983467),
    ("tree/LeavesUp", 0x360f5afbbbc9e55e),
    ("tree/PathDoubling", 0x360f5afbbbc9e55e),
    ("tree/SharedDoubling", 0x360f5afbbbc9e55e),
    ("ktree/LeavesUp", 0xe8eefbde0bac3864),
    ("ktree/PathDoubling", 0xe8eefbde0bac3864),
    ("ktree/SharedDoubling", 0xe8eefbde0bac3864),
    ("planar/LeavesUp", 0xf6332d529ae80ce8),
    ("planar/PathDoubling", 0xf6332d529ae80ce8),
    ("planar/SharedDoubling", 0x697143306ba907e3),
];

/// Pinned digests of the full transitive-closure bit matrices.
const CLOSURE_DIGESTS: &[(&str, u64)] = &[
    ("grid2d", 0x831883b55e1beed9),
    ("grid3d", 0xc3269849fd7fa39d),
    ("tree", 0xde171aa523966fd5),
    ("ktree", 0x8df9eeab5598a56b),
    ("planar", 0x831883b55e1beed9),
];

fn pinned(table: &[(&str, u64)], key: &str) -> u64 {
    table
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no pinned digest for {key}"))
        .1
}

fn probes(n: usize) -> [usize; 4] {
    [0, n / 3, n / 2, n - 1]
}

fn digest_rows(rows: &[Vec<f64>]) -> u64 {
    let mut bytes = Vec::with_capacity(rows.iter().map(|r| 8 * (r.len() + 1)).sum());
    for row in rows {
        bytes.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for &v in row {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn distance_rows(g: &DiGraph<f64>, tree: &SepTree, algo: Algorithm, threads: usize) -> Vec<Vec<f64>> {
    with_max_threads(threads, || {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(g, tree, algo, &metrics)
            .unwrap_or_else(|e| panic!("preprocess at {threads} threads: {e}"));
        pre.distances_multi(&probes(g.n()))
    })
}

#[test]
fn distance_digests_are_pinned_across_families_algorithms_and_threads() {
    let algos = [
        (Algorithm::LeavesUp, "LeavesUp"),
        (Algorithm::PathDoubling, "PathDoubling"),
        (Algorithm::SharedDoubling, "SharedDoubling"),
    ];
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        for (algo, algo_name) in algos {
            let key = format!("{}/{algo_name}", family.slug());
            let reference = distance_rows(&g, &tree, algo, 1);

            // Correctness first: every digested row agrees with Dijkstra.
            for (&s, row) in probes(g.n()).iter().zip(&reference) {
                let oracle = dijkstra(&g, s).dist;
                for v in 0..g.n() {
                    assert!(
                        (row[v] - oracle[v]).abs() < 1e-9
                            || (row[v].is_infinite() && oracle[v].is_infinite()),
                        "{key}: source {s} vertex {v}: got {} oracle {}",
                        row[v],
                        oracle[v]
                    );
                }
            }

            if std::env::var_os("SPSEP_PRINT_DIGESTS").is_some() {
                eprintln!("    (\"{key}\", {:#018x}),", digest_rows(&reference));
                continue;
            }
            let want = pinned(DISTANCE_DIGESTS, &key);
            assert_eq!(
                digest_rows(&reference),
                want,
                "{key}: digest drifted from the pinned answer \
                 (got {:#018x})",
                digest_rows(&reference)
            );
            for threads in &THREAD_COUNTS[1..] {
                let got = distance_rows(&g, &tree, algo, *threads);
                assert_eq!(
                    digest_rows(&got),
                    want,
                    "{key} at {threads} threads: output bits drifted"
                );
            }
        }
    }
}

#[test]
fn reachability_digests_are_pinned_across_families_and_threads() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let gb = g.map_weights(|_| true);
        let digest_at = |threads: usize| -> u64 {
            with_max_threads(threads, || {
                let metrics = Metrics::new();
                let pre = spsep_core::reach::preprocess_reach(&gb, &tree, &metrics);
                let closure = spsep_core::reach::transitive_closure(&pre);
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&(closure.rows() as u64).to_le_bytes());
                for r in 0..closure.rows() {
                    for &word in closure.row(r) {
                        bytes.extend_from_slice(&word.to_le_bytes());
                    }
                }
                fnv1a64(&bytes)
            })
        };
        let reference = digest_at(1);
        if std::env::var_os("SPSEP_PRINT_DIGESTS").is_some() {
            eprintln!("    (\"{}\", {reference:#018x}),", family.slug());
            continue;
        }
        let want = pinned(CLOSURE_DIGESTS, family.slug());
        assert_eq!(
            reference,
            want,
            "{}: closure digest drifted (got {reference:#018x})",
            family.label()
        );
        for threads in &THREAD_COUNTS[1..] {
            assert_eq!(
                digest_at(*threads),
                want,
                "{} closure at {threads} threads",
                family.label()
            );
        }
    }
}

/// Random edge list on `n` vertices (parallel edges and self-loops
/// allowed — the CSR makes no simplicity assumption).
fn random_edges(n: usize, m: usize, seed: u64) -> Vec<Edge<f64>> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            Edge::new(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0.0..10.0),
            )
        })
        .collect()
}

type CsrParts = (
    Store<Edge<f64>>,
    Store<u32>,
    Store<u32>,
    Store<u32>,
    Store<u32>,
);

fn csr_parts(g: &DiGraph<f64>) -> CsrParts {
    (
        g.edges().to_vec().into(),
        g.first_out().to_vec().into(),
        g.out_adjacency().to_vec().into(),
        g.first_in().to_vec().into(),
        g.in_adjacency().to_vec().into(),
    )
}

fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut node: Vec<u32> = (0..n as u32).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    node.shuffle(&mut rng);
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `from_edges → take CSR parts → from_csr_parts` is a fixed point:
    /// the reconstituted graph is structurally identical.
    #[test]
    fn csr_parts_roundtrip_is_a_fixed_point(
        n in 1usize..60,
        m in 0usize..240,
        seed in 0u64..1_000_000,
    ) {
        let g = DiGraph::from_edges(n, random_edges(n, m, seed));
        let (edges, oo, oa, io, ia) = csr_parts(&g);
        let back = DiGraph::from_csr_parts(n, edges, oo, oa, io, ia)
            .expect("parts taken from a valid graph must validate");
        prop_assert_eq!(g.n(), back.n());
        prop_assert_eq!(g.m(), back.m());
        prop_assert_eq!(g.first_out(), back.first_out());
        prop_assert_eq!(g.out_adjacency(), back.out_adjacency());
        prop_assert_eq!(g.first_in(), back.first_in());
        prop_assert_eq!(g.in_adjacency(), back.in_adjacency());
        for (a, b) in g.edges().iter().zip(back.edges()) {
            prop_assert_eq!(a.from, b.from);
            prop_assert_eq!(a.to, b.to);
            prop_assert_eq!(a.w.to_bits(), b.w.to_bits());
        }
    }

    /// Structural lies in the CSR parts are typed errors, never panics
    /// or silently accepted garbage.
    #[test]
    fn csr_parts_validation_rejects_structural_lies(
        n in 2usize..40,
        m in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        let g = DiGraph::from_edges(n, random_edges(n, m, seed));

        // Offset array shifted by one: no longer starts at 0.
        {
            let (edges, oo, oa, io, ia) = csr_parts(&g);
            let mut off = oo.to_vec();
            off[0] = off[0].wrapping_add(1);
            prop_assert!(DiGraph::from_csr_parts(n, edges, off.into(), oa, io, ia).is_err());
        }
        // Out and in adjacency sections swapped. (Symmetric rows can
        // make the swap a genuine no-op — e.g. every edge `u→v` paired
        // with `v→u` in matching row positions — so only assert when
        // the sections differ *and* the offset geometry still lines
        // up; otherwise validation is free to pass.)
        {
            let (edges, oo, oa, io, ia) = csr_parts(&g);
            if g.first_out() == g.first_in() && oa.to_vec() != ia.to_vec() {
                prop_assert!(DiGraph::from_csr_parts(n, edges, oo, ia, io, oa).is_err());
            }
        }
        // An adjacency id out of range.
        {
            let (edges, oo, oa, io, ia) = csr_parts(&g);
            let mut adj = oa.to_vec();
            adj[0] = m as u32;
            prop_assert!(DiGraph::from_csr_parts(n, edges, oo, adj.into(), io, ia).is_err());
        }
        // An edge endpoint out of range.
        {
            let (edges, oo, oa, io, ia) = csr_parts(&g);
            let mut bad = edges.to_vec();
            bad[0].to = n as u32;
            prop_assert!(
                DiGraph::from_csr_parts(n, bad.into(), oo, oa, io, ia).is_err()
            );
        }
        // A truncated offset array (wrong length).
        {
            let (edges, oo, oa, io, ia) = csr_parts(&g);
            let short = oo.to_vec()[..n].to_vec();
            prop_assert!(
                DiGraph::from_csr_parts(n, edges, short.into(), oa, io, ia).is_err()
            );
        }
    }

    /// permute ∘ invert = id, in both directions, and rank/node are
    /// mutually inverse lookups.
    #[test]
    fn node_order_permute_and_invert_compose_to_identity(
        n in 1usize..200,
        seed in 0u64..1_000_000,
    ) {
        let order = NodeOrder::from_sequence(random_permutation(n, seed))
            .expect("a shuffled 0..n is a valid permutation");
        let inv = order.inverse();
        for v in 0..n as u32 {
            prop_assert_eq!(order.node(order.rank(v)), v);
            prop_assert_eq!(order.rank(order.node(v)), v);
            // The inverse swaps the two lookup directions.
            prop_assert_eq!(inv.rank(v), order.node(v));
            prop_assert_eq!(inv.node(v), order.rank(v));
        }
        prop_assert_eq!(inv.inverse().ranks(), order.ranks());
        prop_assert_eq!(inv.inverse().nodes(), order.nodes());
    }

    /// `permute_graph` relabels without loss: degrees carry over under
    /// the rank map, degree sums are preserved, and permuting by the
    /// inverse order restores the original structure.
    #[test]
    fn permute_graph_preserves_degrees_and_inverts(
        n in 1usize..50,
        m in 0usize..150,
        seed in 0u64..1_000_000,
    ) {
        let g = DiGraph::from_edges(n, random_edges(n, m, seed));
        let order = NodeOrder::from_sequence(random_permutation(n, seed ^ 0x9e3779b97f4a7c15))
            .expect("valid permutation");
        let h = order.permute_graph(&g);
        prop_assert_eq!(h.n(), g.n());
        prop_assert_eq!(h.m(), g.m());

        // Degree preservation under relabeling, hence equal sums.
        let mut out_sum = 0usize;
        for v in 0..n {
            let r = order.rank(v as u32) as usize;
            prop_assert_eq!(g.out_degree(v), h.out_degree(r), "out-degree of {}", v);
            prop_assert_eq!(g.in_degree(v), h.in_degree(r), "in-degree of {}", v);
            out_sum += h.out_degree(v);
        }
        prop_assert_eq!(out_sum, m);

        // Round trip through the inverse: multisets of (from, to, w)
        // triples must match the original exactly.
        let back = order.inverse().permute_graph(&h);
        let key = |g: &DiGraph<f64>| {
            let mut v: Vec<(u32, u32, u64)> = g
                .edges()
                .iter()
                .map(|e| (e.from, e.to, e.w.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(key(&g), key(&back));
    }
}
