//! Solving a wafer-fab style scheduling problem as a system of difference
//! constraints — the paper's "linear inequalities with two variables per
//! inequality" application.
//!
//! ```text
//! cargo run --release --example task_scheduling
//! ```
//!
//! Each processing station on a `rows × cols` fab floor gets a start
//! time; neighbouring stations have precedence ("downstream starts after
//! upstream finishes") and max-lag constraints ("buffers overflow if the
//! downstream start drifts more than `slack` behind"). The constraint
//! graph is exactly a 2-D grid — the paper's `μ = 1/2` family — so the
//! separator engine solves it with `Õ(n²)`-ish preprocessing instead of
//! the `Õ(n³)` Floyd–Warshall term in the generic Cohen–Megiddo bound.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep::pram::Metrics;
use spsep::tvpi::{grid_schedule_system, Solution};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let (rows, cols) = (40, 50);
    let sys = grid_schedule_system(rows, cols, 10.0, 3.0, &mut rng);
    println!(
        "scheduling system: {} variables, {} constraints",
        sys.num_vars(),
        sys.len()
    );

    // Solve through the separator pipeline.
    let metrics = Metrics::new();
    let t0 = Instant::now();
    let solution = sys.solve(&metrics);
    let t_sep = t0.elapsed();
    let x = match solution {
        Solution::Feasible(x) => x,
        Solution::Infeasible => panic!("generator plants a feasible schedule"),
    };
    sys.check(&x, 1e-9)
        .expect("assignment satisfies every constraint");
    println!(
        "separator solve: {:.0?}, {} (pram cost model)",
        t_sep,
        metrics.report()
    );

    // Reference: plain Bellman–Ford on the constraint graph.
    let t1 = Instant::now();
    let reference = sys.solve_bellman_ford();
    let t_bf = t1.elapsed();
    println!("bellman–ford solve: {:.0?}", t_bf);
    match reference {
        Solution::Feasible(y) => {
            sys.check(&y, 1e-9).unwrap();
            let worst = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            println!("solutions agree to {worst:.2e}");
        }
        Solution::Infeasible => unreachable!(),
    }

    // Read the schedule: the critical (latest) and earliest stations.
    let (argmax, max) = x
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    let (argmin, min) = x
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "schedule span: station {} starts first ({:.2}), station {} last ({:.2}); makespan {:.2}",
        argmin,
        min,
        argmax,
        max,
        max - min
    );

    // Tightening the buffers until the system breaks:
    // (slack = 0 exactly sits on the feasibility boundary, where float
    // rounding decides; stay clear of it.)
    for slack in [1.0, 0.25, 0.01, -0.05] {
        let mut rng = StdRng::seed_from_u64(2026);
        let sys = grid_schedule_system(rows, cols, 10.0, slack, &mut rng);
        let metrics = Metrics::new();
        let feasible = matches!(sys.solve(&metrics), Solution::Feasible(_));
        println!(
            "max-lag slack {slack:>6.2} → {}",
            if feasible {
                "feasible"
            } else {
                "INFEASIBLE (negative cycle found in preprocessing)"
            }
        );
    }
}
