//! Static timing + reachability analysis of a synthetic logic circuit —
//! the path-algebra face of the paper (comment (iii)) plus the
//! reachability specialization of Sections 4–5.
//!
//! ```text
//! cargo run --release --example circuit_analysis
//! ```
//!
//! The circuit is a layered DAG (gates in pipeline stages). Three
//! analyses run on the *same* preprocessed decomposition:
//!
//! * **reachability** (cone-of-influence): boolean semiring with
//!   bit-matrix kernels;
//! * **critical path** (max, +): the longest delay from the input pins;
//! * **minimum slack routing** (min, +): the classic tropical algebra.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep::core::{preprocess, reach, Algorithm};
use spsep::graph::semiring::{MaxPlus, Tropical};
use spsep::graph::{generators, DiGraph};
use spsep::pram::Metrics;
use spsep::separator::{builders, RecursionLimits};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // A 24-stage pipeline, 48 gates per stage, fan-out 3; delays in
    // [0.8ns, 2.4ns].
    let (layers, width, fanout) = (24, 48, 3);
    let dag = generators::layered_dag(layers, width, fanout, &mut rng);
    let circuit: DiGraph<f64> = dag.map_weights(|_| rng.gen_range(0.8..2.4));
    println!(
        "circuit: {} gates in {layers} stages, {} wires",
        circuit.n(),
        circuit.m()
    );

    // One decomposition serves all three algebras (paper comment (iv):
    // the tree depends only on the undirected skeleton).
    let adj = circuit.undirected_skeleton();
    let tree = builders::bfs_tree(&adj, RecursionLimits::default());
    tree.validate(&adj).expect("valid decomposition");
    println!(
        "decomposition: {} nodes, height {}",
        tree.nodes().len(),
        tree.height()
    );

    // 1. Cone of influence from input pin 0 (boolean, bit-matrix kernels).
    let metrics = Metrics::new();
    let bool_circuit = circuit.map_weights(|_| true);
    let reach_pre = reach::preprocess_reach(&bool_circuit, &tree, &metrics);
    let cone: usize = reach_pre.distances_seq(0).0.iter().filter(|&&r| r).count();
    println!(
        "cone of influence of pin 0: {cone} gates (bitmatrix work = {} word-ops)",
        metrics.work_of(spsep::pram::Counter::MatMul)
    );
    // Cross-check against BFS.
    let bfs: usize = spsep::baselines::reachable_from(&circuit, 0)
        .iter()
        .filter(|&&r| r)
        .count();
    assert_eq!(cone, bfs);

    // 2. Critical path from every input pin (max-plus on the DAG).
    let metrics = Metrics::new();
    let timing = preprocess::<MaxPlus>(&circuit, &tree, Algorithm::LeavesUp, &metrics)
        .expect("DAGs have no positive cycles");
    let inputs: Vec<usize> = (0..width).collect();
    let arrival = timing.distances_multi(&inputs);
    let mut worst = (0usize, 0usize, f64::NEG_INFINITY);
    for (pin, row) in arrival.iter().enumerate() {
        for (gate, &t) in row.iter().enumerate() {
            if t.is_finite() && t > worst.2 {
                worst = (pin, gate, t);
            }
        }
    }
    println!(
        "critical path: input pin {} → gate {} with delay {:.2} ns",
        worst.0, worst.1, worst.2
    );
    // Cross-check one pin against the generic reference.
    let reference =
        spsep::baselines::bellman_ford_semiring::<MaxPlus>(&circuit, worst.0).expect("DAG");
    assert!((reference[worst.1] - worst.2).abs() < 1e-6);

    // 3. Fastest propagation (tropical), e.g. for clock-skew budgeting.
    let metrics = Metrics::new();
    let fastest = preprocess::<Tropical>(&circuit, &tree, Algorithm::PathDoubling, &metrics)
        .expect("nonnegative delays");
    let (dist, stats) = fastest.distances_seq(worst.0);
    let reachable = dist.iter().filter(|d| d.is_finite()).count();
    println!(
        "fastest propagation from pin {}: {reachable} reachable gates, \
         min arrival at critical gate {:.2} ns vs max {:.2} ns ({} relaxations)",
        worst.0, dist[worst.1], worst.2, stats.relaxations
    );
    assert!(dist[worst.1] <= worst.2 + 1e-9);
}
