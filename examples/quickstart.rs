//! Quickstart: the five-minute tour of the separator shortest-path
//! pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a weighted 64×64 grid digraph (the paper's flagship
//! `k^{1/2}`-separator family), decomposes it, computes the `E⁺`
//! augmentation, answers distance queries with the scheduled
//! Bellman–Ford, and cross-checks against Dijkstra.
//!
//! The example is *tested*: `cargo test --example quickstart` runs the
//! same pipeline on a 12×12 grid, so this file can never rot into
//! documentation that no longer compiles or no longer agrees with
//! Dijkstra.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep::core::{analysis, preprocess, query, Algorithm};
use spsep::graph::generators;
use spsep::graph::semiring::Tropical;
use spsep::pram::Metrics;
use spsep::separator::{builders, RecursionLimits};

/// Run the whole tour on a `side`×`side` grid; returns the worst
/// absolute deviation from Dijkstra (asserted < 1e-6 inside).
fn run(side: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. A graph with a known separator structure: a side×side grid with
    //    random weights in [1, 2) on every directed edge.
    let dims = [side, side];
    let (g, _coords) = generators::grid(&dims, &mut rng);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    // 2. The separator decomposition tree (hyperplane separators; this is
    //    what the paper's Figure 1 shows for the 9×9 grid).
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    println!(
        "tree:  {} nodes, height d_G = {}, root |S| = {}",
        tree.nodes().len(),
        tree.height(),
        tree.node(0).separator.len()
    );

    // 3. Preprocess: compute E⁺ (Algorithm 4.1) and compile the phase
    //    schedule of Section 3.2.
    let metrics = Metrics::new();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
        .expect("no negative cycles in this graph");
    let stats = pre.stats();
    println!(
        "E+:    {} shortcut edges (raw candidate pairs {}), preprocessing {}",
        stats.eplus_edges,
        stats.raw_pairs,
        metrics.report()
    );

    // 4. Theorem 3.1 in action: the augmented graph has a tiny
    //    minimum-weight diameter.
    let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
    println!("diam bound: 4·d_G + 2l + 1 = {bound}");

    // 5. Query: distances from a corner, scheduled Bellman–Ford.
    let source = 0usize;
    let (dist, qstats) = pre.distances_seq(source);
    println!(
        "query: {} relaxations over {} nominal phases",
        qstats.relaxations, qstats.phases
    );

    // 6. Cross-check against Dijkstra and rebuild one explicit path.
    let truth = spsep::baselines::dijkstra(&g, source);
    let worst = dist
        .iter()
        .zip(&truth.dist)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |Δ| vs Dijkstra: {worst:.2e}");
    assert!(worst < 1e-6, "distances must agree");

    let target = g.n() - 1; // opposite corner
    let parent = query::shortest_path_tree::<Tropical>(&g, source, &dist);
    let path = query::path_from_tree(&g, &parent, source, target).expect("grid is connected");
    println!(
        "path 0 → {}: {} hops, weight {:.3}",
        target,
        path.len() - 1,
        dist[target]
    );

    // 7. Multi-source: the per-source work is what Table 1 prices.
    let sources: Vec<usize> = (0..16).map(|i| (i * g.n() / 16).min(g.n() - 1)).collect();
    let all = pre.distances_multi(&sources);
    println!(
        "multi-source: {} sources, per-source arc bound = {}",
        all.len(),
        pre.arcs_per_query()
    );
    let _ = analysis::fit_exponent(&[1.0, 2.0], &[1.0, 2.0]); // see benches for the Table 1 sweeps
    println!("done.");
    worst
}

fn main() {
    run(64);
}

#[cfg(test)]
mod tests {
    #[test]
    fn quickstart_pipeline_agrees_with_dijkstra() {
        assert!(super::run(12) < 1e-6);
    }
}
