//! Reusing one decomposition across many weightings — paper comment (iv):
//! "the separator decomposition for a graph G depends only on the
//! undirected unweighted skeleton of G, and hence needs to be computed
//! only once for a group of instances which differ in the weights and
//! direction on edges."
//!
//! ```text
//! cargo run --release --example reweighting
//! ```
//!
//! Scenario: a traffic network re-planned every few minutes as congestion
//! changes. The decomposition tree is built (and serialized) once; each
//! re-plan only re-runs the `E⁺` construction with fresh weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep::core::{preprocess, Algorithm};
use spsep::graph::semiring::Tropical;
use spsep::graph::DiGraph;
use spsep::pram::Metrics;
use spsep::separator::{builders, io as tree_io, RecursionLimits};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let dims = [48usize, 48];
    let (base, _) = spsep::graph::generators::grid(&dims, &mut rng);

    // Build the decomposition ONCE and round-trip it through the on-disk
    // format (what a deployed system would load at startup).
    let t0 = Instant::now();
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    let build_time = t0.elapsed();
    let mut blob = Vec::new();
    tree_io::write_tree(&tree, &mut blob).expect("serialize");
    let tree = tree_io::read_tree(blob.as_slice()).expect("deserialize");
    println!(
        "decomposition: {} nodes, height {}, built in {:.1?}, {} bytes serialized",
        tree.nodes().len(),
        tree.height(),
        build_time,
        blob.len()
    );

    // Five "traffic epochs": same skeleton, different weights — including
    // one epoch with reversed rush-hour directions.
    let depots = [0usize, 1000, 2303];
    for epoch in 0..5 {
        let congestion: Vec<f64> = (0..base.m()).map(|_| rng.gen_range(1.0..4.0)).collect();
        let reversed = epoch == 3;
        let g: DiGraph<f64> = if reversed {
            DiGraph::from_edges(
                base.n(),
                base.edges()
                    .iter()
                    .enumerate()
                    .map(|(i, e)| {
                        spsep::graph::Edge::new(e.to as usize, e.from as usize, e.w * congestion[i])
                    })
                    .collect(),
            )
        } else {
            let mut i = 0;
            base.map_weights(|e| {
                let w = e.w * congestion[i];
                i += 1;
                w
            })
        };
        let metrics = Metrics::new();
        let t1 = Instant::now();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
            .expect("positive weights");
        let rows = pre.distances_multi(&depots);
        let replan = t1.elapsed();
        // Sanity: agree with Dijkstra on one depot.
        let truth = spsep::baselines::dijkstra(&g, depots[0]);
        let worst = rows[0]
            .iter()
            .zip(&truth.dist)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-6);
        println!(
            "epoch {epoch}{}: re-plan {:.1?} ({} shortcuts), mean travel time from depot 0 = {:.2}",
            if reversed {
                " (rush-hour reversal)"
            } else {
                ""
            },
            replan,
            pre.stats().eplus_edges,
            rows[0].iter().filter(|d| d.is_finite()).sum::<f64>() / g.n() as f64
        );
    }
    println!("one tree, five weightings — no re-decomposition needed.");
}
