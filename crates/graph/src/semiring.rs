//! Path algebras over idempotent semirings.
//!
//! The paper states (comment (iii), Section 1) that the algorithm applies to
//! "general path algebra problems over semirings". Everything in
//! `spsep-core` — the `E⁺` augmentation, the per-node Floyd–Warshall and
//! min-plus squaring steps, and the scheduled Bellman–Ford — is generic over
//! the [`Semiring`] trait defined here.
//!
//! A semiring `(W, ⊕, ⊗, 0̄, 1̄)` models path problems when:
//!
//! * `⊕` ("combine") selects among alternative paths — for shortest paths it
//!   is `min`, for reachability `∨`;
//! * `⊗` ("extend") concatenates paths — `+` for shortest paths, `∧` for
//!   reachability;
//! * `0̄` = [`Semiring::zero`] is the identity of `⊕` (the value of "no
//!   path", e.g. `+∞`);
//! * `1̄` = [`Semiring::one`] is the identity of `⊗` (the value of the empty
//!   path, e.g. `0`).
//!
//! All instances here are **idempotent** (`a ⊕ a = a`), which is what makes
//! Bellman–Ford-style relaxation converge; this is property-tested in the
//! unit tests below.

use std::fmt::Debug;

/// How a semiring's `(combine, extend)` pair maps onto `f64` vector
/// lanes, for the explicit-SIMD kernels in [`crate::dense::simd`].
///
/// A semiring may advertise a lane algebra only when its weight domain
/// is `f64` **and** its scalar `combine`/`extend` are exactly the
/// operations named here (including tie and NaN behavior: `MinX`
/// combine is literally `if a <= b { a } else { b }`, `MaxX` is
/// `if a >= b { a } else { b }`, `..Min` extend is
/// `if a <= b { a } else { b }`) — the SIMD kernels reproduce those
/// scalar semantics bit for bit with compare + blend, so a lying
/// descriptor would silently change result bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaneAlgebra {
    /// `combine = min`, `extend = +` ([`Tropical`] shortest paths).
    MinAdd,
    /// `combine = max`, `extend = +` ([`MaxPlus`] longest paths).
    MaxAdd,
    /// `combine = max`, `extend = min` ([`Bottleneck`] widest paths).
    MaxMin,
    /// `combine = max`, `extend = ×` ([`Reliability`] best-probability
    /// paths).
    MaxMul,
}

/// An idempotent semiring describing a path-weight algebra.
///
/// Implementors are zero-sized tag types; the weight domain is the
/// associated type [`Semiring::W`].
///
/// ```
/// use spsep_graph::semiring::{Semiring, Tropical, Boolean};
///
/// // Tropical: min selects paths, + concatenates them.
/// assert_eq!(Tropical::combine(3.0, 5.0), 3.0);
/// assert_eq!(Tropical::extend(3.0, 5.0), 8.0);
/// assert_eq!(Tropical::zero(), f64::INFINITY); // "no path"
///
/// // Boolean: the same machinery computes reachability.
/// assert!(Boolean::extend(true, true));
/// assert!(!Boolean::extend(true, false));
/// ```
pub trait Semiring: Copy + Clone + Send + Sync + Debug + 'static {
    /// The weight domain. (`'static` so the SIMD dispatch layer can
    /// recognize `f64` domains by `TypeId` — every practical weight
    /// domain is a primitive anyway.)
    type W: Copy + PartialEq + Send + Sync + Debug + 'static;

    /// Identity of [`Self::combine`]: the weight of "no path at all".
    fn zero() -> Self::W;

    /// Identity of [`Self::extend`]: the weight of the empty path.
    fn one() -> Self::W;

    /// Choose between two alternative path weights (e.g. `min`).
    fn combine(a: Self::W, b: Self::W) -> Self::W;

    /// Concatenate two path weights (e.g. `+`).
    fn extend(a: Self::W, b: Self::W) -> Self::W;

    /// `true` iff `a` is strictly preferred to `b`, i.e.
    /// `combine(a, b) == a != b`. Drives "did this relaxation improve
    /// anything" checks.
    #[inline]
    fn better(a: Self::W, b: Self::W) -> bool {
        Self::combine(a, b) == a && a != b
    }

    /// `true` iff `w` means "unreachable".
    #[inline]
    fn is_zero(w: Self::W) -> bool {
        w == Self::zero()
    }

    /// `true` if a cycle of weight `w` is *absorbing*: appending it to a
    /// path keeps improving the path forever (a negative cycle under the
    /// tropical semiring). Distances through such a cycle are undefined.
    fn absorbing_cycle(w: Self::W) -> bool {
        Self::better(Self::extend(w, w), w) && Self::better(w, Self::one())
    }

    /// Approximate equality for weights. Exact `==` by default; the
    /// floating-point semirings override it with a relative tolerance so
    /// that "is this edge tight" tests survive re-association of sums
    /// (shortcut weights are sums evaluated in a different order than the
    /// underlying path).
    #[inline]
    fn approx_eq(a: Self::W, b: Self::W) -> bool {
        a == b
    }

    /// `true` if `combine` is a *selection*: it always returns one of its
    /// two arguments, ordered by a total preorder, keeping `a` on ties
    /// (the determinism convention every instance here follows). Selective
    /// semirings admit Dijkstra-style label-setting (the sparse-leaf path
    /// in `spsep-core`) and the change-flag pruning of the doubling kernel
    /// in [`crate::dense`]. Defaults to `false` so third-party semirings
    /// opt in explicitly.
    #[inline]
    fn is_selective() -> bool {
        false
    }

    /// The `f64` lane algebra of this semiring, if any — `None`
    /// (default) keeps every kernel on the scalar path. Overriding this
    /// is the single opt-in a semiring needs for the SIMD kernels; see
    /// [`LaneAlgebra`] for the exactness contract.
    #[inline]
    fn lane_algebra() -> Option<LaneAlgebra> {
        None
    }
}

/// Relative-tolerance comparison for `f64` path weights.
#[inline]
pub fn f64_approx_eq(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Shortest paths with real (f64) weights: `(ℝ ∪ {+∞}, min, +, +∞, 0)`.
///
/// This is the semiring of the paper's headline result. Negative weights are
/// allowed; negative cycles are "absorbing" and detected during
/// preprocessing.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tropical;

impl Semiring for Tropical {
    type W = f64;

    #[inline]
    fn approx_eq(a: f64, b: f64) -> bool {
        f64_approx_eq(a, b)
    }

    #[inline]
    fn zero() -> f64 {
        f64::INFINITY
    }

    #[inline]
    fn one() -> f64 {
        0.0
    }

    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        if a <= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn extend(a: f64, b: f64) -> f64 {
        // +∞ must annihilate even against -∞ partners; plain `+` does this
        // for all values that actually arise (we never produce -∞ weights).
        a + b
    }

    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a < b
    }

    #[inline]
    fn absorbing_cycle(w: f64) -> bool {
        w < 0.0
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }

    #[inline]
    fn lane_algebra() -> Option<LaneAlgebra> {
        Some(LaneAlgebra::MinAdd)
    }
}

/// Shortest paths with integer weights: `(ℤ ∪ {+∞}, min, +, +∞, 0)`.
///
/// Saturating extension keeps `+∞` (modelled as `i64::MAX`) absorbing.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TropicalInt;

impl Semiring for TropicalInt {
    type W = i64;

    #[inline]
    fn zero() -> i64 {
        i64::MAX
    }

    #[inline]
    fn one() -> i64 {
        0
    }

    #[inline]
    fn combine(a: i64, b: i64) -> i64 {
        a.min(b)
    }

    #[inline]
    fn extend(a: i64, b: i64) -> i64 {
        if a == i64::MAX || b == i64::MAX {
            i64::MAX
        } else {
            a.saturating_add(b)
        }
    }

    #[inline]
    fn better(a: i64, b: i64) -> bool {
        a < b
    }

    #[inline]
    fn absorbing_cycle(w: i64) -> bool {
        w < 0
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }
}

/// Reachability: `({false, true}, ∨, ∧, false, true)`.
///
/// Running the augmentation + query under this semiring computes exactly the
/// paper's reachability / transitive-closure variant (Sections 4–5 discuss
/// replacing the shortest-path primitives by boolean matrix products).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Boolean;

impl Semiring for Boolean {
    type W = bool;

    #[inline]
    fn zero() -> bool {
        false
    }

    #[inline]
    fn one() -> bool {
        true
    }

    #[inline]
    fn combine(a: bool, b: bool) -> bool {
        a || b
    }

    #[inline]
    fn extend(a: bool, b: bool) -> bool {
        a && b
    }

    #[inline]
    fn better(a: bool, b: bool) -> bool {
        a && !b
    }

    #[inline]
    fn absorbing_cycle(_w: bool) -> bool {
        false
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }
}

/// Longest paths: `(ℝ ∪ {-∞}, max, +, -∞, 0)`.
///
/// Only meaningful on graphs without positive cycles (e.g. DAGs — static
/// timing analysis); a positive cycle is absorbing and reported like a
/// negative cycle is under [`Tropical`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MaxPlus;

impl Semiring for MaxPlus {
    type W = f64;

    #[inline]
    fn approx_eq(a: f64, b: f64) -> bool {
        f64_approx_eq(a, b)
    }

    #[inline]
    fn zero() -> f64 {
        f64::NEG_INFINITY
    }

    #[inline]
    fn one() -> f64 {
        0.0
    }

    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn extend(a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a > b
    }

    #[inline]
    fn absorbing_cycle(w: f64) -> bool {
        w > 0.0
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }

    #[inline]
    fn lane_algebra() -> Option<LaneAlgebra> {
        Some(LaneAlgebra::MaxAdd)
    }
}

/// Widest ("bottleneck") paths: `(ℝ ∪ {±∞}, max, min, -∞, +∞)`.
///
/// The weight of a path is its narrowest edge; we look for the widest path.
/// No cycle is absorbing (min is non-expansive), so the algebra is safe on
/// every digraph.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Bottleneck;

impl Semiring for Bottleneck {
    type W = f64;

    #[inline]
    fn approx_eq(a: f64, b: f64) -> bool {
        f64_approx_eq(a, b)
    }

    #[inline]
    fn zero() -> f64 {
        f64::NEG_INFINITY
    }

    #[inline]
    fn one() -> f64 {
        f64::INFINITY
    }

    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn extend(a: f64, b: f64) -> f64 {
        if a <= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a > b
    }

    #[inline]
    fn absorbing_cycle(_w: f64) -> bool {
        false
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }

    #[inline]
    fn lane_algebra() -> Option<LaneAlgebra> {
        Some(LaneAlgebra::MaxMin)
    }
}

/// Most-reliable paths: `([0,1], max, ×, 0, 1)`.
///
/// Edge weights are success probabilities in `[0, 1]`; path weight is the
/// product. Since all weights are ≤ 1, no cycle is absorbing.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Reliability;

impl Semiring for Reliability {
    type W = f64;

    #[inline]
    fn approx_eq(a: f64, b: f64) -> bool {
        f64_approx_eq(a, b)
    }

    #[inline]
    fn zero() -> f64 {
        0.0
    }

    #[inline]
    fn one() -> f64 {
        1.0
    }

    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn extend(a: f64, b: f64) -> f64 {
        a * b
    }

    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a > b
    }

    #[inline]
    fn absorbing_cycle(w: f64) -> bool {
        w > 1.0
    }

    #[inline]
    fn is_selective() -> bool {
        true
    }

    #[inline]
    fn lane_algebra() -> Option<LaneAlgebra> {
        Some(LaneAlgebra::MaxMul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check the semiring axioms on a sample of the weight domain.
    fn check_axioms<S: Semiring>(samples: &[S::W]) {
        for &a in samples {
            // Idempotency of combine.
            assert_eq!(S::combine(a, a), a, "combine not idempotent on {a:?}");
            // Identities.
            assert_eq!(S::combine(a, S::zero()), a);
            assert_eq!(S::combine(S::zero(), a), a);
            assert_eq!(S::extend(a, S::one()), a);
            assert_eq!(S::extend(S::one(), a), a);
            // zero annihilates extend.
            assert_eq!(S::extend(a, S::zero()), S::zero());
            assert_eq!(S::extend(S::zero(), a), S::zero());
            for &b in samples {
                // Commutativity of combine.
                assert_eq!(S::combine(a, b), S::combine(b, a));
                for &c in samples {
                    // Associativity.
                    assert_eq!(
                        S::combine(S::combine(a, b), c),
                        S::combine(a, S::combine(b, c))
                    );
                    assert_eq!(S::extend(S::extend(a, b), c), S::extend(a, S::extend(b, c)));
                    // Distributivity of extend over combine.
                    assert_eq!(
                        S::extend(a, S::combine(b, c)),
                        S::combine(S::extend(a, b), S::extend(a, c))
                    );
                    assert_eq!(
                        S::extend(S::combine(b, c), a),
                        S::combine(S::extend(b, a), S::extend(c, a))
                    );
                }
            }
        }
    }

    #[test]
    fn tropical_axioms() {
        check_axioms::<Tropical>(&[0.0, 1.0, -2.5, 7.25, f64::INFINITY]);
    }

    #[test]
    fn tropical_int_axioms() {
        check_axioms::<TropicalInt>(&[0, 1, -2, 100, i64::MAX]);
    }

    #[test]
    fn boolean_axioms() {
        check_axioms::<Boolean>(&[false, true]);
    }

    #[test]
    fn maxplus_axioms() {
        check_axioms::<MaxPlus>(&[0.0, 1.0, -2.5, 7.25, f64::NEG_INFINITY]);
    }

    #[test]
    fn bottleneck_axioms() {
        check_axioms::<Bottleneck>(&[0.0, 1.0, -2.5, 7.25, f64::NEG_INFINITY, f64::INFINITY]);
    }

    #[test]
    fn reliability_axioms() {
        check_axioms::<Reliability>(&[0.0, 0.25, 0.5, 1.0]);
    }

    #[test]
    fn better_matches_combine() {
        assert!(Tropical::better(1.0, 2.0));
        assert!(!Tropical::better(2.0, 1.0));
        assert!(!Tropical::better(1.0, 1.0));
        assert!(Boolean::better(true, false));
        assert!(!Boolean::better(false, true));
        assert!(MaxPlus::better(2.0, 1.0));
        assert!(Bottleneck::better(3.0, 1.0));
    }

    #[test]
    fn absorbing_cycles() {
        assert!(Tropical::absorbing_cycle(-0.5));
        assert!(!Tropical::absorbing_cycle(0.0));
        assert!(!Tropical::absorbing_cycle(3.0));
        assert!(TropicalInt::absorbing_cycle(-1));
        assert!(!TropicalInt::absorbing_cycle(0));
        assert!(MaxPlus::absorbing_cycle(0.5));
        assert!(!MaxPlus::absorbing_cycle(-1.0));
        assert!(!Boolean::absorbing_cycle(true));
        assert!(!Bottleneck::absorbing_cycle(9.0));
        assert!(!Reliability::absorbing_cycle(0.9));
    }

    /// If a semiring claims to be selective, `combine` must return one of
    /// its arguments (bitwise, keeping `a` on ties) on every sample pair.
    fn check_selective<S: Semiring>(samples: &[S::W]) {
        assert!(S::is_selective());
        for &a in samples {
            for &b in samples {
                let c = S::combine(a, b);
                assert!(c == a || c == b, "combine({a:?}, {b:?}) = {c:?}");
                if a == b {
                    assert_eq!(c, a, "ties must keep the first argument");
                }
            }
        }
    }

    #[test]
    fn builtin_semirings_are_selective() {
        check_selective::<Tropical>(&[0.0, 1.0, -2.5, 7.25, f64::INFINITY]);
        check_selective::<TropicalInt>(&[0, 1, -2, 100, i64::MAX]);
        check_selective::<Boolean>(&[false, true]);
        check_selective::<MaxPlus>(&[0.0, 1.0, -2.5, f64::NEG_INFINITY]);
        check_selective::<Bottleneck>(&[0.0, -2.5, f64::NEG_INFINITY, f64::INFINITY]);
        check_selective::<Reliability>(&[0.0, 0.25, 0.5, 1.0]);
    }

    /// Every advertised lane algebra must tell the truth: the scalar
    /// `combine`/`extend` must equal the named lane operations (with the
    /// keep-`a`-on-ties convention) bit for bit, on a hostile sample set
    /// including ±0.0, ±∞ and denormals. The SIMD kernels rely on this.
    #[test]
    fn lane_algebra_descriptors_match_scalar_semantics() {
        fn check<S: Semiring<W = f64>>() {
            let alg = S::lane_algebra().expect("descriptor expected");
            let samples = [
                0.0,
                -0.0,
                1.0,
                -2.5,
                7.25,
                f64::MIN_POSITIVE / 8.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for &a in &samples {
                for &b in &samples {
                    let (c, e) = match alg {
                        LaneAlgebra::MinAdd => (if a <= b { a } else { b }, a + b),
                        LaneAlgebra::MaxAdd => (if a >= b { a } else { b }, a + b),
                        LaneAlgebra::MaxMin => {
                            (if a >= b { a } else { b }, if a <= b { a } else { b })
                        }
                        LaneAlgebra::MaxMul => (if a >= b { a } else { b }, a * b),
                    };
                    assert_eq!(
                        S::combine(a, b).to_bits(),
                        c.to_bits(),
                        "combine({a:?}, {b:?}) under {alg:?}"
                    );
                    let ext = S::extend(a, b);
                    assert_eq!(
                        ext.to_bits(),
                        e.to_bits(),
                        "extend({a:?}, {b:?}) under {alg:?} ({ext} vs {e})"
                    );
                }
            }
        }
        check::<Tropical>();
        check::<MaxPlus>();
        check::<Bottleneck>();
        check::<Reliability>();
        assert_eq!(TropicalInt::lane_algebra(), None, "i64 domain is scalar");
        assert_eq!(Boolean::lane_algebra(), None, "bitmatrix covers booleans");
    }

    #[test]
    fn tropical_infinity_is_absorbing_for_extend() {
        assert_eq!(Tropical::extend(f64::INFINITY, 5.0), f64::INFINITY);
        assert_eq!(TropicalInt::extend(i64::MAX, -5), i64::MAX);
        assert_eq!(TropicalInt::extend(-5, i64::MAX), i64::MAX);
    }
}
