//! The graph families of Section 5, parameterized by the separator
//! exponent `μ`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep_graph::DiGraph;
use spsep_separator::{builders, RecursionLimits, SepTree};

/// One of the paper's `k^μ`-separator families.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// 2-D grid: `μ = 1/2` (the planar case of Section 6).
    Grid2D,
    /// 3-D grid: `μ = 2/3`.
    Grid3D,
    /// Random tree with centroid separators: `μ → 0`.
    Tree,
    /// Partial 4-tree with a width-4 tree decomposition: bounded
    /// treewidth (`μ → 0` with |S| ≤ 5), the Robertson–Seymour family of
    /// the paper's introduction.
    KTree,
    /// Triangulated planar mesh decomposed by the embedding-free
    /// Lipton–Tarjan-shaped builder (`planar_level_tree`: thin BFS levels
    /// plus a fundamental cycle where the band stays large): `μ = 1/2` via
    /// the genuine planar mechanism (vs the exact hyperplanes of
    /// [`Family::Grid2D`]).
    PlanarMesh,
}

impl Family {
    /// The separator exponent.
    pub fn mu(self) -> f64 {
        match self {
            Family::Grid2D => 0.5,
            Family::Grid3D => 2.0 / 3.0,
            Family::Tree | Family::KTree => 0.0,
            Family::PlanarMesh => 0.5,
        }
    }

    /// Short label for table rows.
    pub fn label(self) -> &'static str {
        match self {
            Family::Grid2D => "grid2d (mu=1/2)",
            Family::Grid3D => "grid3d (mu=2/3)",
            Family::Tree => "tree   (mu~0)",
            Family::KTree => "4-tree (mu~0)",
            Family::PlanarMesh => "planar (mu=1/2)",
        }
    }

    /// Machine-readable slug for JSON artifacts.
    pub fn slug(self) -> &'static str {
        match self {
            Family::Grid2D => "grid2d",
            Family::Grid3D => "grid3d",
            Family::Tree => "tree",
            Family::KTree => "ktree",
            Family::PlanarMesh => "planar",
        }
    }

    /// Build an instance with roughly `n_target` vertices, plus its
    /// decomposition tree. Deterministic in `seed`.
    pub fn instance(self, n_target: usize, seed: u64) -> (DiGraph<f64>, SepTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Family::Grid2D => {
                let side = (n_target as f64).sqrt().round().max(2.0) as usize;
                let (g, _) = spsep_graph::generators::grid(&[side, side], &mut rng);
                (
                    g,
                    builders::grid_tree(&[side, side], RecursionLimits::default()),
                )
            }
            Family::Grid3D => {
                let side = (n_target as f64).cbrt().round().max(2.0) as usize;
                let (g, _) = spsep_graph::generators::grid(&[side, side, side], &mut rng);
                let tree = builders::grid_tree(&[side, side, side], RecursionLimits::default());
                (g, tree)
            }
            Family::Tree => {
                let g = spsep_graph::generators::random_tree(n_target.max(2), &mut rng);
                let tree =
                    builders::centroid_tree(&g.undirected_skeleton(), RecursionLimits::default());
                (g, tree)
            }
            Family::KTree => {
                let (g, td) =
                    spsep_separator::treewidth::partial_ktree(n_target.max(6), 4, 0.8, &mut rng);
                let tree = spsep_separator::treewidth::treewidth_tree(
                    &g.undirected_skeleton(),
                    &td,
                    RecursionLimits::default(),
                );
                (g, tree)
            }
            Family::PlanarMesh => {
                let side = (n_target as f64).sqrt().round().max(2.0) as usize;
                let (g, _) = spsep_separator::planar::triangulated_grid(side, side, &mut rng);
                let tree = spsep_separator::planar_level_tree(
                    &g.undirected_skeleton(),
                    RecursionLimits::default(),
                );
                (g, tree)
            }
        }
    }

    /// All families.
    pub fn all() -> [Family; 5] {
        [
            Family::Grid2D,
            Family::Grid3D,
            Family::Tree,
            Family::KTree,
            Family::PlanarMesh,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_valid() {
        for fam in Family::all() {
            let (g, tree) = fam.instance(300, 1);
            tree.validate(&g.undirected_skeleton())
                .unwrap_or_else(|e| panic!("{fam:?}: {e}"));
            assert!(g.n() >= 100, "{fam:?} too small: {}", g.n());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (g1, _) = Family::Tree.instance(100, 7);
        let (g2, _) = Family::Tree.instance(100, 7);
        assert_eq!(g1.m(), g2.m());
        assert_eq!(g1.edges()[5].w, g2.edges()[5].w);
    }
}
