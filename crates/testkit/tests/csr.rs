//! The CSR-core differential suite.
//!
//! Contracts under test (the pinned answer digests live in the root
//! `tests/digests.rs`, so the default `cargo test` runs them):
//!
//! 1. **CSR construction properties** — for random edge lists,
//!    `DiGraph::from_edges → from_csr_parts` is a fixed point, and
//!    every structural lie (shifted offsets, swapped adjacency
//!    sections, out-of-range ids) yields a typed error, never a panic.
//! 2. **NodeOrder properties** — for random permutations,
//!    permute ∘ invert = id, `node(rank(v)) = v`, and `permute_graph`
//!    preserves per-vertex degrees (under relabeling) and total degree
//!    sums.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spsep_graph::{DiGraph, Edge, NodeOrder, Store};

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
