//! Dispatch planning on a synthetic road network.
//!
//! ```text
//! cargo run --release --example road_network
//! ```
//!
//! The scenario the paper's introduction motivates: a planar-like
//! road network (random geometric graph — a 2-D overlap graph in the
//! Miller–Teng–Vavasis sense), many shortest-path queries from a set of
//! depots, and real-valued edge weights — here travel times skewed by a
//! potential (altitude) term, so some edges are *negative* (regenerative
//! braking, one-way descents): Dijkstra alone is out, Johnson's algorithm
//! or this paper are the contenders.
//!
//! The example is *tested*: `cargo test --example road_network` runs
//! the same dispatch pipeline on an 800-intersection network, so the
//! negative-arc story stays verified against Johnson forever.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep::core::{preprocess, Algorithm};
use spsep::graph::generators;
use spsep::graph::semiring::Tropical;
use spsep::pram::Metrics;
use spsep::separator::{builders, RecursionLimits};
use std::time::Instant;

/// Run the dispatch scenario on an `n`-intersection network with
/// `n_depots` depots; returns the worst absolute deviation from
/// Johnson's algorithm (asserted < 1e-6 inside).
fn run(n: usize, n_depots: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(42);

    // A road network: n intersections scattered in the unit square,
    // roads between intersections closer than the connection radius.
    let radius = (2.5 / n as f64).sqrt();
    let (roads, coords) = generators::geometric(n, 2, radius, &mut rng);
    // Altitude potential makes some directed travel times negative while
    // keeping every cycle nonnegative (physics!).
    let roads = generators::skew_by_potentials(&roads, 0.02, &mut rng);
    let negative = roads.edges().iter().filter(|e| e.w < 0.0).count();
    println!(
        "road network: n = {}, m = {}, negative arcs = {}",
        roads.n(),
        roads.m(),
        negative
    );

    // Depots: random intersections.
    let depots: Vec<usize> = (0..n_depots).map(|_| rng.gen_range(0..n)).collect();

    // Separator pipeline.
    let t0 = Instant::now();
    let adj = roads.undirected_skeleton();
    let tree = builders::geometric_tree(&adj, &coords, RecursionLimits::default());
    let t_tree = t0.elapsed();
    let metrics = Metrics::new();
    let t1 = Instant::now();
    let pre = preprocess::<Tropical>(&roads, &tree, Algorithm::LeavesUp, &metrics)
        .expect("no negative cycles (potential-skewed)");
    let t_pre = t1.elapsed();
    let t2 = Instant::now();
    let sep_results = pre.distances_multi(&depots);
    let t_query = t2.elapsed();
    println!(
        "separator: tree {:.0?} + E+ {:.0?} ({} shortcuts) + {} queries {:.0?}",
        t_tree,
        t_pre,
        pre.stats().eplus_edges,
        depots.len(),
        t_query
    );

    // Baseline: Johnson's algorithm (Bellman–Ford potentials + Dijkstra
    // per depot) — the sequential bound the paper's intro cites.
    let t3 = Instant::now();
    let johnson = spsep::baselines::johnson(&roads, &depots).expect("feasible");
    let t_johnson = t3.elapsed();
    println!("johnson:   {} queries in {:.0?}", depots.len(), t_johnson);

    // Agreement.
    let mut worst = 0.0f64;
    for (i, row) in sep_results.iter().enumerate() {
        for (v, &a) in row.iter().enumerate().take(n) {
            let b = johnson[i].dist[v];
            if a.is_finite() && b.is_finite() {
                worst = worst.max((a - b).abs());
            } else {
                assert_eq!(a.is_finite(), b.is_finite());
            }
        }
    }
    println!("max |Δ| across all depots: {worst:.2e}");
    assert!(worst < 1e-6);

    // Dispatch decision: nearest depot per intersection.
    let mut assigned = vec![usize::MAX; n];
    let mut best = vec![f64::INFINITY; n];
    for (i, row) in sep_results.iter().enumerate() {
        for v in 0..n {
            if row[v] < best[v] {
                best[v] = row[v];
                assigned[v] = i;
            }
        }
    }
    let covered = best.iter().filter(|d| d.is_finite()).count();
    println!(
        "dispatch table: {}/{} intersections covered; sample: intersection {} ← depot #{} ({:.3})",
        covered,
        n,
        n / 2,
        assigned[n / 2],
        best[n / 2]
    );
    worst
}

fn main() {
    run(20_000, 24);
}

#[cfg(test)]
mod tests {
    #[test]
    fn dispatch_agrees_with_johnson_on_a_small_network() {
        assert!(super::run(800, 6) < 1e-6);
    }
}
