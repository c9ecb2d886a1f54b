//! Generators for the graph families the paper targets.
//!
//! Section 1 of the paper names the families with readily available
//! separator decompositions:
//!
//! * d′-dimensional **grid graphs** — "a trivial `k^((d-1)/d)`-separator
//!   decomposition";
//! * **bounded tree-width** graphs (here: trees, with single-vertex
//!   centroid separators);
//! * **r-overlap graphs** embedded in d dimensions (Miller–Teng–Vavasis),
//!   which include planar graphs in 2D — modelled here by random
//!   **geometric graphs** carrying an explicit embedding;
//! * planar-style **layered DAGs** for reachability experiments.
//!
//! All generators are deterministic given the caller-supplied RNG, so
//! experiments are reproducible end to end.

use crate::digraph::{DiGraph, Edge};
use rand::Rng;

/// A point set in `dim` dimensions, row-major, paired with graphs whose
/// vertices are embedded (grids, geometric graphs). Consumed by the
/// geometric separator builder.
#[derive(Clone, Debug)]
pub struct Coords {
    dim: usize,
    data: Vec<f64>,
}

impl Coords {
    /// Create a coordinate table; `data.len()` must be a multiple of `dim`.
    pub fn new(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        Coords { dim, data }
    }

    /// Spatial dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if there are no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Coordinates of point `v`.
    pub fn point(&self, v: usize) -> &[f64] {
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// The full row-major coordinate table (`len() * dim()` values).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }
}

/// Row-major index of a grid point. `pos[i] < dims[i]` for all axes.
pub fn grid_index(dims: &[usize], pos: &[usize]) -> usize {
    debug_assert_eq!(dims.len(), pos.len());
    let mut idx = 0;
    for (d, p) in dims.iter().zip(pos) {
        debug_assert!(p < d);
        idx = idx * d + p;
    }
    idx
}

/// d-dimensional grid graph with edges in both directions along every axis,
/// each direction weighted independently and uniformly in `[1, 2)`.
///
/// Returns the graph and the integer lattice embedding. This is the
/// `k^((d-1)/d)`-separator family of the paper's introduction.
pub fn grid(dims: &[usize], rng: &mut impl Rng) -> (DiGraph<f64>, Coords) {
    grid_with_weights(dims, |_, _| rng.gen_range(1.0..2.0))
}

/// Like [`grid`], with caller-chosen weights (`f(from, to)` per directed
/// edge).
pub fn grid_with_weights(
    dims: &[usize],
    mut f: impl FnMut(usize, usize) -> f64,
) -> (DiGraph<f64>, Coords) {
    let d = dims.len();
    assert!(d > 0, "grid needs at least one dimension");
    let n: usize = dims.iter().product();
    assert!(n > 0, "grid dimensions must be positive");
    let mut edges = Vec::with_capacity(2 * d * n);
    let mut coords = Vec::with_capacity(n * d);
    let mut pos = vec![0usize; d];
    for v in 0..n {
        for &p in &pos {
            coords.push(p as f64);
        }
        // Edges to the +1 neighbour along each axis, both directions.
        for axis in 0..d {
            if pos[axis] + 1 < dims[axis] {
                // Stride of axis `axis` in row-major order.
                let stride: usize = dims[axis + 1..].iter().product();
                let u = v + stride;
                edges.push(Edge::new(v, u, f(v, u)));
                edges.push(Edge::new(u, v, f(u, v)));
            }
        }
        // Advance row-major position.
        for axis in (0..d).rev() {
            pos[axis] += 1;
            if pos[axis] < dims[axis] {
                break;
            }
            pos[axis] = 0;
        }
    }
    (DiGraph::from_edges(n, edges), Coords::new(d, coords))
}

/// Random tree on `n` vertices (uniform attachment), each tree edge present
/// in both directions with independent weights in `[1, 2)`.
///
/// Trees have single-vertex (centroid) separators: the `μ → 0` end of the
/// paper's parameter range.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> DiGraph<f64> {
    assert!(n > 0);
    let mut edges = Vec::with_capacity(2 * (n - 1));
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        edges.push(Edge::new(parent, v, rng.gen_range(1.0..2.0)));
        edges.push(Edge::new(v, parent, rng.gen_range(1.0..2.0)));
    }
    DiGraph::from_edges(n, edges)
}

/// Random geometric digraph: `n` points uniform in the unit `dim`-cube,
/// arcs in both directions between points at distance `< radius`, weighted
/// by Euclidean length times a jitter in `[1, 1.5)`.
///
/// With `radius = Θ((1/n)^(1/dim))` this is (w.h.p.) a bounded-overlap
/// graph in the Miller–Teng–Vavasis sense and admits `k^((d-1)/d)`
/// geometric separators.
pub fn geometric(n: usize, dim: usize, radius: f64, rng: &mut impl Rng) -> (DiGraph<f64>, Coords) {
    assert!(n > 0 && dim > 0);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        data.push(rng.gen_range(0.0..1.0));
    }
    let coords = Coords::new(dim, data);
    // Bucket points into a grid of cell size `radius` so neighbour search
    // is near-linear instead of quadratic.
    let cells_per_axis = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |p: &[f64]| -> usize {
        let mut idx = 0;
        for &x in p {
            let c = ((x * cells_per_axis as f64) as usize).min(cells_per_axis - 1);
            idx = idx * cells_per_axis + c;
        }
        idx
    };
    let num_cells = cells_per_axis.pow(dim as u32);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num_cells];
    for v in 0..n {
        buckets[cell_of(coords.point(v))].push(v as u32);
    }
    let mut edges = Vec::new();
    let mut neigh_cells = Vec::new();
    for v in 0..n {
        let p = coords.point(v);
        // Enumerate the 3^dim neighbouring cells of v's cell.
        neigh_cells.clear();
        let mut cell_pos = vec![0usize; dim];
        {
            let mut idx = cell_of(p);
            for axis in (0..dim).rev() {
                cell_pos[axis] = idx % cells_per_axis;
                idx /= cells_per_axis;
            }
        }
        let mut offset = vec![-1i64; dim];
        'outer: loop {
            let mut idx = 0usize;
            let mut ok = true;
            for axis in 0..dim {
                let c = cell_pos[axis] as i64 + offset[axis];
                if c < 0 || c >= cells_per_axis as i64 {
                    ok = false;
                    break;
                }
                idx = idx * cells_per_axis + c as usize;
            }
            if ok {
                neigh_cells.push(idx);
            }
            for axis in (0..dim).rev() {
                offset[axis] += 1;
                if offset[axis] <= 1 {
                    continue 'outer;
                }
                offset[axis] = -1;
            }
            break;
        }
        for &c in &neigh_cells {
            for &u in &buckets[c] {
                let u = u as usize;
                if u <= v {
                    continue; // handle each unordered pair once
                }
                let q = coords.point(u);
                let dist2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist2 < radius * radius {
                    let base = dist2.sqrt().max(1e-9);
                    edges.push(Edge::new(v, u, base * rng.gen_range(1.0..1.5)));
                    edges.push(Edge::new(u, v, base * rng.gen_range(1.0..1.5)));
                }
            }
        }
    }
    (DiGraph::from_edges(n, edges), coords)
}

/// Uniform random digraph with `n` vertices and `m` arcs (duplicates
/// possible), weights in `[1, 2)`. No separator structure is guaranteed;
/// used with the bisection fallback builder and for adversarial testing.
pub fn gnm(n: usize, m: usize, rng: &mut impl Rng) -> DiGraph<f64> {
    assert!(n > 0);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        edges.push(Edge::new(from, to, rng.gen_range(1.0..2.0)));
    }
    DiGraph::from_edges(n, edges)
}

/// Layered DAG: `layers` layers of `width` vertices; each vertex gets
/// `fanout` forward arcs to random vertices of the next layer. Used in
/// reachability experiments.
pub fn layered_dag(layers: usize, width: usize, fanout: usize, rng: &mut impl Rng) -> DiGraph<f64> {
    assert!(layers > 0 && width > 0);
    let n = layers * width;
    let mut edges = Vec::new();
    for l in 0..layers - 1 {
        for i in 0..width {
            let v = l * width + i;
            for _ in 0..fanout {
                let u = (l + 1) * width + rng.gen_range(0..width);
                edges.push(Edge::new(v, u, rng.gen_range(1.0..2.0)));
            }
        }
    }
    DiGraph::from_edges(n, edges)
}

/// Directed path `0 → 1 → … → n-1` with unit weights.
pub fn path(n: usize) -> DiGraph<f64> {
    let edges = (0..n.saturating_sub(1))
        .map(|v| Edge::new(v, v + 1, 1.0))
        .collect();
    DiGraph::from_edges(n, edges)
}

/// Directed cycle on `n` vertices with unit weights.
pub fn cycle(n: usize) -> DiGraph<f64> {
    assert!(n > 0);
    let edges = (0..n).map(|v| Edge::new(v, (v + 1) % n, 1.0)).collect();
    DiGraph::from_edges(n, edges)
}

/// Re-weight a graph by vertex potentials: `w'(u,v) = w(u,v) + π(u) − π(v)`
/// with `π` uniform in `[0, amplitude)`.
///
/// Every cycle keeps its weight, so a graph without negative cycles stays
/// negative-cycle-free while individual edges may become negative — the
/// standard way to manufacture hard-but-feasible inputs for real-weight
/// shortest paths (the setting that distinguishes this paper from
/// nonnegative-weight planar algorithms like Lingas's, cf. Section 1).
pub fn skew_by_potentials(g: &DiGraph<f64>, amplitude: f64, rng: &mut impl Rng) -> DiGraph<f64> {
    let pot: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(0.0..amplitude)).collect();
    g.map_weights(|e| e.w + pot[e.from as usize] - pot[e.to as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_2d_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, coords) = grid(&[3, 4], &mut rng);
        assert_eq!(g.n(), 12);
        // Horizontal pairs: 3 rows × 3 = 9; vertical: 2 × 4 = 8; both dirs.
        assert_eq!(g.m(), 2 * (9 + 8));
        assert_eq!(coords.len(), 12);
        assert_eq!(coords.dim(), 2);
        assert_eq!(coords.point(0), &[0.0, 0.0]);
        assert_eq!(coords.point(11), &[2.0, 3.0]);
    }

    #[test]
    fn grid_index_row_major() {
        assert_eq!(grid_index(&[3, 4], &[0, 0]), 0);
        assert_eq!(grid_index(&[3, 4], &[1, 2]), 6);
        assert_eq!(grid_index(&[3, 4], &[2, 3]), 11);
        assert_eq!(grid_index(&[2, 3, 4], &[1, 2, 3]), 23);
    }

    #[test]
    fn grid_3d_neighbours() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, _) = grid(&[3, 3, 3], &mut rng);
        assert_eq!(g.n(), 27);
        // Centre vertex has 6 out-neighbours.
        let centre = grid_index(&[3, 3, 3], &[1, 1, 1]);
        assert_eq!(g.out_degree(centre), 6);
        // Corner has 3.
        assert_eq!(g.out_degree(0), 3);
    }

    #[test]
    fn grid_1d_is_a_bidirected_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = grid(&[5], &mut rng);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 8);
    }

    #[test]
    fn tree_is_connected_and_acyclic_sized() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = random_tree(50, &mut rng);
        assert_eq!(g.m(), 2 * 49);
        let comps = crate::traversal::undirected_components(&g.undirected_skeleton());
        assert!(comps.iter().all(|&c| c == 0));
    }

    #[test]
    fn geometric_is_symmetric_and_embedded() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, coords) = geometric(200, 2, 0.15, &mut rng);
        assert_eq!(coords.len(), 200);
        // Arcs come in antiparallel pairs.
        let mut pair_count = std::collections::HashMap::new();
        for e in g.edges() {
            *pair_count
                .entry((e.from.min(e.to), e.from.max(e.to)))
                .or_insert(0) += 1;
        }
        assert!(pair_count.values().all(|&c| c % 2 == 0));
        // Every edge respects the radius.
        for e in g.edges() {
            let p = coords.point(e.from as usize);
            let q = coords.point(e.to as usize);
            let d2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(d2 < 0.15 * 0.15);
        }
    }

    #[test]
    fn geometric_matches_bruteforce_edge_set() {
        let mut rng = StdRng::seed_from_u64(17);
        let (g, coords) = geometric(80, 2, 0.2, &mut rng);
        let mut expected = 0usize;
        for v in 0..80 {
            for u in v + 1..80 {
                let p = coords.point(v);
                let q = coords.point(u);
                let d2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                if d2 < 0.2 * 0.2 {
                    expected += 2;
                }
            }
        }
        assert_eq!(g.m(), expected);
    }

    #[test]
    fn layered_dag_is_acyclic_by_layers() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = layered_dag(5, 10, 3, &mut rng);
        assert_eq!(g.n(), 50);
        for e in g.edges() {
            assert_eq!(e.to as usize / 10, e.from as usize / 10 + 1);
        }
    }

    #[test]
    fn potentials_preserve_cycle_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = cycle(6);
        let skew = skew_by_potentials(&g, 10.0, &mut rng);
        let total: f64 = skew.edges().iter().map(|e| e.w).sum();
        assert!((total - 6.0).abs() < 1e-9);
        // With amplitude 10 some edge is almost surely negative.
        assert!(skew.edges().iter().any(|e| e.w < 0.0));
    }

    #[test]
    fn path_and_cycle_shapes() {
        assert_eq!(path(1).m(), 0);
        assert_eq!(path(4).m(), 3);
        assert_eq!(cycle(4).m(), 4);
    }
}
