//! The differential test layer for the multi-threaded executor.
//!
//! Contract under test (see the `rayon` shim docs): chunk boundaries
//! are a pure function of input length and all merges happen in chunk
//! order, so *every* pipeline output — preprocessing, scheduled
//! queries, reachability closures, and the baseline fallback — must be
//! **bit-identical** at 1, 2, 4, and 8 threads, and must agree with the
//! Dijkstra oracle. `f64` distances are compared via `to_bits`, not
//! `==`, so `-0.0` vs `0.0` or NaN-payload drift would be caught.

use rayon::with_max_threads;
use spsep_baselines::dijkstra;
use spsep_bench::families::Family;
use spsep_core::{preprocess, preprocess_or_fallback, Algorithm, FallbackPolicy};
use spsep_graph::semiring::Tropical;
use spsep_graph::{BitMatrix, DiGraph};
use spsep_pram::Metrics;
use spsep_separator::SepTree;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 7;

fn sources_for(n: usize) -> [usize; 3] {
    [0, n / 2, n - 1]
}

/// Preprocess + query from every probe source, entirely under `threads`.
fn distance_rows(
    g: &DiGraph<f64>,
    tree: &SepTree,
    algo: Algorithm,
    threads: usize,
) -> Vec<Vec<f64>> {
    with_max_threads(threads, || {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(g, tree, algo, &metrics)
            .unwrap_or_else(|e| panic!("preprocess at {threads} threads: {e}"));
        pre.distances_multi(&sources_for(g.n()))
    })
}

fn assert_rows_bit_identical(reference: &[Vec<f64>], got: &[Vec<f64>], context: &str) {
    assert_eq!(reference.len(), got.len(), "{context}: row count");
    for (row_ref, row_got) in reference.iter().zip(got) {
        assert_eq!(row_ref.len(), row_got.len(), "{context}: row length");
        for (v, (a, b)) in row_ref.iter().zip(row_got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: vertex {v}: {a} vs {b}"
            );
        }
    }
}

fn assert_rows_match_oracle(g: &DiGraph<f64>, rows: &[Vec<f64>], context: &str) {
    for (&s, row) in sources_for(g.n()).iter().zip(rows) {
        let oracle = dijkstra(g, s).dist;
        for v in 0..g.n() {
            assert!(
                (row[v] - oracle[v]).abs() < 1e-9
                    || (row[v].is_infinite() && oracle[v].is_infinite()),
                "{context}: source {s}, vertex {v}: got {} oracle {}",
                row[v],
                oracle[v]
            );
        }
    }
}

#[test]
fn fast_path_distances_are_bit_identical_across_thread_counts() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let reference = distance_rows(&g, &tree, Algorithm::LeavesUp, 1);
        assert_rows_match_oracle(&g, &reference, family.label());
        for threads in THREAD_COUNTS {
            let got = distance_rows(&g, &tree, Algorithm::LeavesUp, threads);
            let context = format!("{} at {threads} threads", family.label());
            assert_rows_bit_identical(&reference, &got, &context);
        }
    }
}

#[test]
fn all_algorithms_are_bit_identical_across_thread_counts() {
    // Algorithm 4.3 (path doubling) and 4.4 (shared doubling) drive
    // different executor entry points (par_iter_mut over matrices,
    // par_sort_unstable over triples) — each must satisfy the same
    // contract. One family suffices; the LeavesUp loop above covers
    // family diversity.
    let (g, tree) = Family::Grid2D.instance(N_TARGET, SEED);
    for algo in [Algorithm::PathDoubling, Algorithm::SharedDoubling] {
        let reference = distance_rows(&g, &tree, algo, 1);
        assert_rows_match_oracle(&g, &reference, &format!("{algo:?}"));
        for threads in THREAD_COUNTS {
            let got = distance_rows(&g, &tree, algo, threads);
            assert_rows_bit_identical(&reference, &got, &format!("{algo:?} at {threads} threads"));
        }
    }
}

#[test]
fn reachability_closure_is_identical_across_thread_counts() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let gb = g.map_weights(|_| true);
        let closure_at = |threads: usize| -> BitMatrix {
            with_max_threads(threads, || {
                let metrics = Metrics::new();
                let pre = spsep_core::reach::preprocess_reach(&gb, &tree, &metrics);
                spsep_core::reach::transitive_closure(&pre)
            })
        };
        let reference = closure_at(1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                reference,
                closure_at(threads),
                "{} closure at {threads} threads",
                family.label()
            );
        }
    }
}

#[test]
fn blocked_kernels_match_naive_on_every_family_and_thread_count() {
    // The dense-kernel contract behind all of the above: the k-tiled
    // `floyd_warshall` and the relax-form `square_step` must equal their
    // naive references bit for bit on real family matrices — at every
    // thread count (the tiled outer phase fans out over row chunks; the
    // naive kernels over single rows). n is chosen past the
    // parallel thresholds so the pool genuinely engages.
    use spsep_graph::dense::SemiMatrix;
    const KERNEL_N: usize = 160;
    for family in Family::all() {
        let (g, _) = family.instance(KERNEL_N * 2, SEED);
        let n = KERNEL_N.min(g.n());
        let mut base = SemiMatrix::<Tropical>::identity(n);
        for u in 0..n {
            for e in g.out_edges(u) {
                let v = e.to as usize;
                if v < n && v != u {
                    base.relax(u, v, e.w);
                }
            }
        }

        let fw_ref = with_max_threads(1, || {
            let mut m = base.clone();
            let o = m.floyd_warshall_naive();
            (m, o)
        });
        let sq_ref = with_max_threads(1, || {
            let mut m = base.clone();
            let o = m.square_step_naive();
            (m, o)
        });
        for threads in THREAD_COUNTS {
            let (fw, fw_o) = with_max_threads(threads, || {
                let mut m = base.clone();
                let o = m.floyd_warshall();
                (m, o)
            });
            let context = format!("{} fw at {threads} threads", family.label());
            assert_eq!(fw_o.ops, fw_ref.1.ops, "{context}: ops");
            assert_eq!(
                fw_o.absorbing_cycle, fw_ref.1.absorbing_cycle,
                "{context}: absorbing"
            );
            for (i, (a, b)) in fw.data().iter().zip(fw_ref.0.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{context}: cell {i}: {a} vs {b}");
            }

            let (sq, sq_o) = with_max_threads(threads, || {
                let mut m = base.clone();
                let o = m.square_step();
                (m, o)
            });
            let context = format!("{} square at {threads} threads", family.label());
            assert_eq!(sq_o.ops, sq_ref.1.ops, "{context}: ops");
            assert_eq!(sq_o.changed, sq_ref.1.changed, "{context}: changed");
            for (i, (a, b)) in sq.data().iter().zip(sq_ref.0.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{context}: cell {i}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn fallback_path_is_bit_identical_across_thread_counts() {
    // A zero E+ budget forces the baseline path; its par_iter'd solvers
    // are bound by the same determinism contract as the fast path.
    let policy = FallbackPolicy {
        max_eplus_candidates: Some(0),
        ..FallbackPolicy::default()
    };
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let rows_at = |threads: usize| -> Vec<Vec<f64>> {
            with_max_threads(threads, || {
                let metrics = Metrics::new();
                let prepared = preprocess_or_fallback(&g, &tree, &policy, &metrics)
                    .unwrap_or_else(|e| panic!("{}: fallback refused: {e}", family.label()));
                assert!(
                    !prepared.is_fast(),
                    "{}: zero budget must force the baseline",
                    family.label()
                );
                sources_for(g.n())
                    .iter()
                    .map(|&s| prepared.distances(s, &metrics))
                    .collect()
            })
        };
        let reference = rows_at(1);
        assert_rows_match_oracle(&g, &reference, family.label());
        for threads in THREAD_COUNTS {
            let got = rows_at(threads);
            let context = format!("{} fallback at {threads} threads", family.label());
            assert_rows_bit_identical(&reference, &got, &context);
        }
    }
}
