//! Application: systems of difference constraints solved through the
//! separator-decomposition shortest-path engine.
//!
//! The paper (Section 1) highlights "solving linear systems of
//! inequalities where each inequality involves at most two variables" as
//! an application outside the shortest-path realm: the Cohen–Megiddo
//! solver's `Õ(n³)` term is the work bound of a Floyd–Warshall-style
//! path computation on the *underlying graph* of the system, and "the
//! algorithm can use instead the work bound of any polylog-time directed
//! all-pairs shortest-paths algorithm that is applicable to the underlying
//! graph" — when that graph has a `k^μ`-separator decomposition the system
//! solves in `Õ(n^{1+2μ} + mn)`.
//!
//! This crate implements the canonical instance of that connection —
//! **difference constraints** `x_i − x_j ≤ c` — whose underlying graph
//! computation *is* single-source shortest paths (the general `ax+by≤c`
//! case layers a piecewise-linear function semiring on the identical graph
//! engine; see DESIGN.md). Feasibility ⇔ no negative cycle; a feasible
//! point is read off a distance vector (Cormen–Leiserson–Rivest, the
//! paper's reference \[3\]).
//!
//! The constraint graph: a vertex per variable, an edge `j → i` of weight
//! `c` per constraint `x_i − x_j ≤ c`; then `x_i = dist(virtual source →
//! i)` satisfies every constraint. We accelerate the distance computation
//! with the separator pipeline whenever the caller provides (or lets us
//! build) a decomposition of the constraint graph — exactly the
//! structured systems the paper motivates (grid-like constraint patterns
//! from scheduling and layout problems).

use spsep_core::{preprocess, Algorithm};
use spsep_graph::semiring::Tropical;
use spsep_graph::{DiGraph, Edge};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits, SepTree};

/// One difference constraint `x_i − x_j ≤ c`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Index of the bounded variable (`i`).
    pub i: usize,
    /// Index of the reference variable (`j`).
    pub j: usize,
    /// The bound `c`.
    pub c: f64,
}

impl Constraint {
    /// `x_i − x_j ≤ c`.
    pub fn new(i: usize, j: usize, c: f64) -> Self {
        Constraint { i, j, c }
    }
}

/// A system of difference constraints over `num_vars` variables.
///
/// ```
/// use spsep_tvpi::{System, Solution};
/// use spsep_pram::Metrics;
///
/// let mut sys = System::new(2);
/// sys.add(0, 1, 3.0);   // x0 − x1 ≤ 3
/// sys.add(1, 0, -1.0);  // x1 − x0 ≤ −1   (i.e. x1 ≤ x0 − 1)
/// match sys.solve(&Metrics::new()) {
///     Solution::Feasible(x) => sys.check(&x, 1e-9).unwrap(),
///     Solution::Infeasible => unreachable!(),
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct System {
    num_vars: usize,
    constraints: Vec<Constraint>,
}

/// Outcome of a solve.
#[derive(Clone, Debug, PartialEq)]
pub enum Solution {
    /// A satisfying assignment (one of infinitely many; maximal in each
    /// coordinate among solutions with `max x_i = 0`).
    Feasible(Vec<f64>),
    /// The constraints contain a negative cycle: no assignment exists.
    Infeasible,
}

impl System {
    /// Empty system over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        System {
            num_vars,
            constraints: Vec::new(),
        }
    }

    /// Add `x_i − x_j ≤ c`.
    pub fn add(&mut self, i: usize, j: usize, c: f64) -> &mut Self {
        assert!(i < self.num_vars && j < self.num_vars);
        assert!(
            i != j,
            "a difference constraint needs two distinct variables"
        );
        self.constraints.push(Constraint::new(i, j, c));
        self
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` if no constraints were added.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The underlying constraint graph (paper Section 1: "a vertex
    /// corresponding to each variable and an edge to each inequality").
    ///
    /// Classic formulations append a virtual super-source; that vertex is
    /// *universal* and would wreck any separator structure, so the solver
    /// instead runs a **multi-source** query (every variable seeded at
    /// `0`), which is equivalent and keeps the constraint graph exactly
    /// the structured graph the paper analyzes.
    pub fn constraint_graph(&self) -> DiGraph<f64> {
        let mut edges: Vec<Edge<f64>> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            edges.push(Edge::new(c.j, c.i, c.c));
        }
        DiGraph::from_edges(self.num_vars, edges)
    }

    /// Solve using the separator-decomposition engine with a decomposition
    /// tree built by BFS bisection over the constraint graph's skeleton.
    ///
    /// Structured systems (banded/grid-like variable interactions) get the
    /// paper's `Õ(n^{1+2μ})`-style bound; arbitrary systems still solve
    /// correctly through the fallback separators.
    pub fn solve(&self, metrics: &Metrics) -> Solution {
        let g = self.constraint_graph();
        let adj = g.undirected_skeleton();
        let tree = builders::bfs_tree(&adj, RecursionLimits::default());
        self.solve_with_tree(&g, &tree, metrics)
    }

    /// Solve with a caller-provided decomposition tree of the constraint
    /// graph (as returned by [`System::constraint_graph`]).
    pub fn solve_with_tree(&self, g: &DiGraph<f64>, tree: &SepTree, metrics: &Metrics) -> Solution {
        match preprocess::<Tropical>(g, tree, Algorithm::LeavesUp, metrics) {
            Err(_) => Solution::Infeasible,
            Ok(pre) => {
                // Multi-source query: every variable starts at 0 — the
                // super-source trick without the super-source.
                let (dist, _) = pre.distances_from_init(vec![0.0; self.num_vars]);
                Solution::Feasible(dist)
            }
        }
    }

    /// Reference solve via plain Bellman–Ford (for cross-checks and the
    /// E12 baseline). Uses the textbook virtual super-source.
    pub fn solve_bellman_ford(&self) -> Solution {
        let n = self.num_vars;
        let mut edges: Vec<Edge<f64>> = Vec::with_capacity(self.constraints.len() + n);
        for c in &self.constraints {
            edges.push(Edge::new(c.j, c.i, c.c));
        }
        for v in 0..n {
            edges.push(Edge::new(n, v, 0.0));
        }
        let g = DiGraph::from_edges(n + 1, edges);
        match spsep_baselines::bellman_ford(&g, n) {
            Err(_) => Solution::Infeasible,
            Ok(r) => Solution::Feasible(r.dist[..n].to_vec()),
        }
    }

    /// Check an assignment against every constraint (`tol` slack for
    /// floating-point).
    pub fn check(&self, x: &[f64], tol: f64) -> Result<(), Constraint> {
        for c in &self.constraints {
            if x[c.i] - x[c.j] > c.c + tol {
                return Err(*c);
            }
        }
        Ok(())
    }
}

/// Build a grid-structured scheduling system: variables laid out on a
/// `rows × cols` grid with precedence constraints between neighbours. A
/// ground-truth schedule `x*(r,c) ≈ gap·(r+c)` is planted first and every
/// constraint is generated *around it* — forward constraints are tight at
/// `x*` ("the next task starts this much later"), backward constraints
/// leave `slack ≥ 0` of room — so the system is feasible iff
/// `slack ≥ 0`, and its underlying graph is exactly the paper's 2-D grid
/// family.
pub fn grid_schedule_system(
    rows: usize,
    cols: usize,
    gap: f64,
    slack: f64,
    rng: &mut impl rand::Rng,
) -> System {
    let mut sys = System::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    let xstar: Vec<f64> = (0..rows * cols)
        .map(|v| {
            let (r, c) = (v / cols, v % cols);
            gap * (r + c) as f64 + rng.gen_range(0.0..0.4 * gap)
        })
        .collect();
    let pair = |sys: &mut System, i: usize, j: usize| {
        // Tight forward constraint and slack backward constraint, both
        // anchored at the planted schedule.
        sys.add(i, j, xstar[i] - xstar[j]);
        sys.add(j, i, xstar[j] - xstar[i] + slack);
    };
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                pair(&mut sys, id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                pair(&mut sys, id(r, c), id(r + 1, c));
            }
        }
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_feasible_system() {
        let mut sys = System::new(3);
        sys.add(0, 1, 3.0); // x0 ≤ x1 + 3
        sys.add(1, 2, -2.0); // x1 ≤ x2 − 2
        sys.add(2, 0, 1.0); // x2 ≤ x0 + 1
        let metrics = Metrics::new();
        match sys.solve(&metrics) {
            Solution::Feasible(x) => sys.check(&x, 1e-9).expect("assignment satisfies"),
            Solution::Infeasible => panic!("system is feasible"),
        }
    }

    #[test]
    fn infeasible_cycle() {
        let mut sys = System::new(2);
        sys.add(0, 1, -1.0); // x0 ≤ x1 − 1
        sys.add(1, 0, -1.0); // x1 ≤ x0 − 1  → x0 ≤ x0 − 2, impossible
        let metrics = Metrics::new();
        assert_eq!(sys.solve(&metrics), Solution::Infeasible);
        assert_eq!(sys.solve_bellman_ford(), Solution::Infeasible);
    }

    #[test]
    fn separator_solution_matches_bellman_ford() {
        let mut rng = StdRng::seed_from_u64(31);
        let sys = grid_schedule_system(5, 6, 1.0, 0.5, &mut rng);
        let metrics = Metrics::new();
        let (a, b) = (sys.solve(&metrics), sys.solve_bellman_ford());
        match (a, b) {
            (Solution::Feasible(x), Solution::Feasible(y)) => {
                sys.check(&x, 1e-9).unwrap();
                sys.check(&y, 1e-9).unwrap();
                for (xa, ya) in x.iter().zip(&y) {
                    assert!((xa - ya).abs() < 1e-6, "{xa} vs {ya}");
                }
            }
            other => panic!("expected both feasible, got {other:?}"),
        }
    }

    #[test]
    fn tight_schedule_is_infeasible_when_slack_negative() {
        let mut rng = StdRng::seed_from_u64(32);
        // slack < 0 makes the forward+backward pair a negative cycle.
        let sys = grid_schedule_system(3, 3, 1.0, -0.8, &mut rng);
        let metrics = Metrics::new();
        assert_eq!(sys.solve(&metrics), Solution::Infeasible);
    }

    #[test]
    fn unconstrained_variables_stay_at_zero() {
        let sys = System::new(4);
        let metrics = Metrics::new();
        match sys.solve(&metrics) {
            Solution::Feasible(x) => assert_eq!(x, vec![0.0; 4]),
            _ => panic!(),
        }
    }

    #[test]
    fn check_reports_the_violated_constraint() {
        let mut sys = System::new(2);
        sys.add(0, 1, 1.0);
        let bad = [5.0, 0.0];
        assert_eq!(sys.check(&bad, 1e-9), Err(Constraint::new(0, 1, 1.0)));
    }
}
