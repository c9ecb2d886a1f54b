//! Property tests for the dispatched dense kernels: `floyd_warshall` and
//! `square_step` (vector relax on AVX-512F / AVX2 x86-64 hosts, the scalar
//! relax everywhere else — including `--no-default-features` builds, where
//! this whole suite runs the scalar path and must still hold) are required to be **bit-identical** to the naive reference on
//! adversarial matrices: NaN-free inputs that still contain `±INFINITY`
//! (so `extend` can manufacture NaN via `∞ + (−∞)` mid-kernel), signed
//! zeros, denormals, negative weights, and orders that are not multiples
//! of the 4/8-lane widths.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep_graph::dense::{relax_product, SemiMatrix};
use spsep_graph::semiring::{Boolean, Bottleneck, MaxPlus, Reliability, Semiring, Tropical};

/// Adversarial but NaN-free weight pool. `±∞` is included for every
/// semiring: under min-plus `+∞` is `0̄` (skipped), but `−∞` is a live
/// weight and `∞ + (−∞)` inside `extend` produces NaN — exactly the lane
/// semantics the cmp/blend emulation must reproduce.
fn hostile_weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::MIN_POSITIVE / 8.0,
        5 => -2.0e-310,
        6 => -(rng.gen_range(0.25..8.0)),
        _ => rng.gen_range(0.25..32.0),
    }
}

fn hostile_matrix<S: Semiring<W = f64>>(n: usize, seed: u64) -> SemiMatrix<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = (0..n * n).map(|_| hostile_weight(&mut rng)).collect();
    SemiMatrix::from_flat(n, flat)
}

fn assert_bits<S: Semiring<W = f64>>(a: &SemiMatrix<S>, b: &SemiMatrix<S>, tag: &str) {
    for (idx, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: cell {} ({} vs {})",
            tag,
            idx,
            x,
            y
        );
    }
}

/// True if folding `m ⊗ m` would meet a NaN: a NaN entry, or a candidate
/// `extend(m[i,k], m[k,j])` with non-`0̄` `m[i,k]` that is NaN (e.g.
/// `∞ + (−∞)` under min-plus, `∞ · 0` under reliability).
fn meets_nan<S: Semiring<W = f64>>(m: &SemiMatrix<S>) -> bool {
    let n = m.n();
    if m.data().iter().any(|w| w.is_nan()) {
        return true;
    }
    (0..n).any(|i| {
        (0..n).any(|k| {
            let a = m.get(i, k);
            !S::is_zero(a) && m.row(k).iter().any(|&b| S::extend(a, b).is_nan())
        })
    })
}

/// One semiring's full check: auto FW vs naive FW, auto square vs naive
/// square, and a pruned doubling sequence vs the naive sequence — bits,
/// ops and change flags all equal.
fn check_semiring<S: Semiring<W = f64>>(n: usize, seed: u64, tag: &str) {
    let base = hostile_matrix::<S>(n, seed);

    let mut auto_fw = base.clone();
    let mut naive_fw = base.clone();
    let oa = auto_fw.floyd_warshall();
    let on = naive_fw.floyd_warshall_naive();
    assert_bits(&auto_fw, &naive_fw, &format!("{tag} fw n={n}"));
    prop_assert_eq!(oa.ops, on.ops, "{} fw ops n={}", tag, n);
    prop_assert_eq!(oa.changed, on.changed, "{} fw changed n={}", tag, n);
    prop_assert_eq!(
        oa.absorbing_cycle,
        on.absorbing_cycle,
        "{} fw cycle n={}",
        tag,
        n
    );

    // Drive a doubling sequence so the tile-hint pruning of later steps
    // is exercised, not just the first full sweep. Two contracts hold:
    //
    // 1. Per step: from any matrix with *no* hint state, one auto step is
    //    bit-identical to one naive step (bits, ops, change flag) — even
    //    when mid-kernel NaN appears. Checked on fresh clones each round.
    // 2. Per sequence: the pruned sequence matches the naive sequence
    //    (bits and change flags; `ops` differ by the pruned work) for as
    //    long as the fold is monotone. A NaN candidate (e.g. `∞ · 0` under
    //    reliability) voids selectivity, after which the sequences may
    //    legitimately part ways — contract 1 still holds at every round.
    let mut auto_sq = base.clone();
    let mut naive_sq = base.clone();
    let mut monotone = true;
    for round in 0..8 {
        let mut fresh_auto = SemiMatrix::<S>::from_flat(n, auto_sq.data().to_vec());
        let mut fresh_naive = SemiMatrix::<S>::from_flat(n, auto_sq.data().to_vec());
        let ofa = fresh_auto.square_step();
        let ofn = fresh_naive.square_step_naive();
        assert_bits(
            &fresh_auto,
            &fresh_naive,
            &format!("{tag} fresh square n={n} round={round}"),
        );
        prop_assert_eq!(ofa.ops, ofn.ops, "{} fresh ops n={} r={}", tag, n, round);
        prop_assert_eq!(
            ofa.changed,
            ofn.changed,
            "{} fresh changed n={} r={}",
            tag,
            n,
            round
        );

        monotone &= !meets_nan(&auto_sq);
        let oa = auto_sq.square_step();
        let on = naive_sq.square_step_naive();
        if monotone {
            assert_bits(
                &auto_sq,
                &naive_sq,
                &format!("{tag} pruned square n={n} round={round}"),
            );
            prop_assert_eq!(
                oa.changed,
                on.changed,
                "{} pruned changed n={} r={}",
                tag,
                n,
                round
            );
        }
        if !oa.changed {
            break;
        }
    }
}

/// `relax_product` against the naive triple loop over the same operands:
/// each cell starts from its `out` value and folds `extend(a[i,k],
/// b[k,j])` for `k` ascending, skipping `0̄` entries of `a`.
fn check_product<S: Semiring<W = f64>>(
    rows: usize,
    inner: usize,
    cols: usize,
    seed: u64,
    tag: &str,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool =
        |len: usize| -> Vec<f64> { (0..len).map(|_| hostile_weight(&mut rng)).collect() };
    let a = pool(rows * inner);
    let b = pool(inner * cols);
    let out0 = pool(rows * cols);

    let mut naive = out0.clone();
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = naive[i * cols + j];
            for k in 0..inner {
                let aik = a[i * inner + k];
                if !S::is_zero(aik) {
                    acc = S::combine(acc, S::extend(aik, b[k * cols + j]));
                }
            }
            naive[i * cols + j] = acc;
        }
    }
    let mut got = out0;
    relax_product::<S>(&mut got, &a, &b, rows, inner, cols);
    for (idx, (x, y)) in got.iter().zip(&naive).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} product {}x{}x{}: cell {} ({} vs {})",
            tag,
            rows,
            inner,
            cols,
            idx,
            x,
            y
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All four f64 semirings with a lane algebra, orders straddling the
    /// 4- and 8-lane widths (and their tails) by construction.
    #[test]
    fn simd_kernels_bit_identical_to_naive_on_hostile_matrices(
        n in 1usize..36, seed in any::<u64>()
    ) {
        check_semiring::<Tropical>(n, seed, "tropical");
        check_semiring::<MaxPlus>(n, seed ^ 0x1111, "maxplus");
        check_semiring::<Bottleneck>(n, seed ^ 0x2222, "bottleneck");
        check_semiring::<Reliability>(n, seed ^ 0x3333, "reliability");
    }

    /// Larger orders cross the parallel thresholds (n ≥ 64 / 128) so the
    /// vector path runs under real work distribution too.
    #[test]
    fn simd_kernels_bit_identical_past_parallel_thresholds(
        n in 129usize..140, seed in any::<u64>()
    ) {
        check_semiring::<Tropical>(n, seed, "tropical-par");
    }

    /// The rectangular product entry point, on every shape up to 11 per
    /// side: empty dimensions, and widths that are not a multiple of the
    /// 4- or 8-lane widths.
    #[test]
    fn relax_product_bit_identical_to_naive_triple_loop(
        rows in 0usize..12, inner in 0usize..12, cols in 0usize..12, seed in any::<u64>()
    ) {
        check_product::<Tropical>(rows, inner, cols, seed, "tropical");
        check_product::<MaxPlus>(rows, inner, cols, seed ^ 0x1111, "maxplus");
        check_product::<Bottleneck>(rows, inner, cols, seed ^ 0x2222, "bottleneck");
        check_product::<Reliability>(rows, inner, cols, seed ^ 0x3333, "reliability");
    }

    /// Shapes past the product's parallel threshold (`rows · inner · cols
    /// ≥ 2¹⁶`), so rows are spread over the pool.
    #[test]
    fn relax_product_bit_identical_past_parallel_threshold(
        rows in 30usize..36, inner in 45usize..50, cols in 45usize..50, seed in any::<u64>()
    ) {
        check_product::<Tropical>(rows, inner, cols, seed, "tropical-par");
    }

    /// Non-f64 semirings must keep working untouched through the same
    /// entry points (they dispatch to the scalar relax by construction).
    #[test]
    fn scalar_only_semirings_unaffected_by_dispatch(
        n in 1usize..24, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = SemiMatrix::<Boolean>::identity(n);
        for _ in 0..2 * n {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            a.relax(i, j, true);
        }
        let mut b = a.clone();
        a.floyd_warshall();
        b.floyd_warshall_naive();
        prop_assert_eq!(a.data(), b.data());
    }
}
