//! Explicit-width SIMD relax primitives for the dense kernels.
//!
//! The dense kernels ([`SemiMatrix::floyd_warshall`] and
//! [`SemiMatrix::square_step`]) spend essentially all of their time in one
//! primitive: `dst[j] ← combine(dst[j], extend(dik, src[j]))` over a row
//! segment. This module vectorizes that primitive — across the column
//! index `j` only — for the four `f64` semirings that advertise a
//! [`LaneAlgebra`], using stable `std::arch` AVX2 (`f64x4`) and AVX-512F
//! (`f64x8`) intrinsics with runtime feature detection.
//!
//! # Why the result is bit-identical to the scalar kernels
//!
//! Vectorizing across `j` keeps every output cell's **candidate sequence**
//! exactly what the scalar kernel produces: lanes are independent cells,
//! and each cell still folds its candidates in the same order with the
//! same operands. (Vectorizing the `k` reduction instead would
//! re-associate the fold and could change which of two `combine`-equal
//! values — e.g. `-0.0` vs `+0.0`, or two NaN payloads — survives.)
//!
//! Within a lane, the scalar semantics are emulated *exactly*:
//!
//! * `combine` for a Min-algebra is `if a <= b { a } else { b }` — as a
//!   vector this is `blend(cur, cand, cmp(cur, cand, NLE_UQ))`: take the
//!   candidate precisely when `cur <= cand` is false (including the
//!   unordered/NaN case, which is what the scalar `else` branch does).
//!   Max-algebras use `NGE_UQ` symmetrically. `vminpd`/`vmaxpd` are
//!   **never** used: their NaN and `±0.0` behaviour differs from the
//!   scalar branch.
//! * `extend` is lane-wise `add`/`mul` (bit-identical to the scalar ops by
//!   IEEE-754) or, for [`LaneAlgebra::MaxMin`], the same `NLE_UQ` blend.
//! * the per-cell change flag is `cmp(merged, cur, NEQ_UQ)` — exactly
//!   Rust's `merged != cur` (`true` for unordered, `false` for
//!   `-0.0 != +0.0`).
//!
//! Tails shorter than a vector run through `scalar_relax`, whose body is
//! the [`LaneAlgebra`] contract itself; the semiring test
//! `lane_algebra_descriptors_match_scalar_semantics` pins that contract to
//! the real `combine`/`extend` implementations bit for bit.
//!
//! All loads and stores use the unaligned (`loadu`/`storeu`) forms: the
//! kernels relax arbitrary sub-rows, so operands are 64B-aligned only when
//! the row stride cooperates. [`AlignedVec`](crate::slab) storage makes
//! the common full-row case cache-line aligned; correctness never depends
//! on it.
//!
//! [`SemiMatrix::floyd_warshall`]: crate::dense::SemiMatrix::floyd_warshall
//! [`SemiMatrix::square_step`]: crate::dense::SemiMatrix::square_step

use crate::semiring::{LaneAlgebra, Semiring};
use std::any::TypeId;
use std::sync::OnceLock;

/// Vector width the dispatcher selected at runtime.
///
/// Ordered by width so a requested level can be capped by what the CPU
/// actually supports (`min`, see [`relax_f64`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// 256-bit lanes (`f64x4`) via AVX2.
    Avx2,
    /// 512-bit lanes (`f64x8`) via AVX-512F.
    Avx512,
}

impl SimdLevel {
    /// Human-readable name, used by kernel reports and the E21 bench.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// What the CPU supports (compile-time gated: `None` when the `simd`
/// feature is off or the target is not x86-64).
fn probe() -> Option<SimdLevel> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Some(SimdLevel::Avx512)
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Some(SimdLevel::Avx2)
        } else {
            None
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        None
    }
}

static DETECTED: OnceLock<Option<SimdLevel>> = OnceLock::new();

/// The SIMD level the dense kernels will use, or `None` for scalar: the
/// widest level the running CPU supports, probed once per process and
/// cached. Always `None` when the `simd` cargo feature is off or the
/// target is not x86-64.
pub fn detect() -> Option<SimdLevel> {
    *DETECTED.get_or_init(probe)
}

/// Portable scalar reference for one relax over `f64` lanes — the
/// [`LaneAlgebra`] contract written out. Used for vector tails, for the
/// non-x86 fallback, and as the oracle in this module's unit tests.
pub(crate) fn scalar_relax(alg: LaneAlgebra, dst: &mut [f64], dik: f64, src: &[f64]) -> bool {
    let mut any = false;
    for (c, &s) in dst.iter_mut().zip(src) {
        let cur = *c;
        let cand = match alg {
            LaneAlgebra::MinAdd | LaneAlgebra::MaxAdd => dik + s,
            LaneAlgebra::MaxMin => {
                if dik <= s {
                    dik
                } else {
                    s
                }
            }
            LaneAlgebra::MaxMul => dik * s,
        };
        let merged = match alg {
            LaneAlgebra::MinAdd => {
                if cur <= cand {
                    cur
                } else {
                    cand
                }
            }
            LaneAlgebra::MaxAdd | LaneAlgebra::MaxMin | LaneAlgebra::MaxMul => {
                if cur >= cand {
                    cur
                } else {
                    cand
                }
            }
        };
        any |= merged != cur;
        *c = merged;
    }
    any
}

/// `dst[j] ← combine(dst[j], extend(dik, src[j]))` over `f64` slices with
/// the requested vector width; returns whether any entry changed, with
/// exactly the scalar kernel's semantics (see the module docs).
///
/// Safe at any `level`: the effective width is re-capped by [`detect`], so
/// a fabricated [`SimdLevel`] can never execute instructions the CPU
/// lacks. Slices of unequal length relax the common prefix (the kernels
/// always pass equal lengths; `debug_assert`ed).
pub fn relax_f64(alg: LaneAlgebra, level: SimdLevel, dst: &mut [f64], dik: f64, src: &[f64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let Some(cap) = detect() else {
        return scalar_relax(alg, dst, dik, src);
    };
    let level = level.min(cap);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SAFETY: `level` is capped by `detect()`, which probed the running
        // CPU for the corresponding target feature.
        unsafe { x86::relax(alg, level, dst, dik, src) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        // `detect()` returns None on this configuration, so `cap` above is
        // unreachable — keep a correct fallback anyway.
        let _ = level;
        scalar_relax(alg, dst, dik, src)
    }
}

/// Generic-slice front end: checked downcast of `S::W` to `f64`, then
/// [`relax_f64`]. Falls back to the semiring's own scalar relax when the
/// weight type is not `f64` (the dispatcher never selects SIMD for such a
/// semiring, so this arm is belt-and-braces, not a hot path).
pub(crate) fn relax_slice<S: Semiring>(
    alg: LaneAlgebra,
    level: SimdLevel,
    dst: &mut [S::W],
    dik: S::W,
    src: &[S::W],
) -> bool {
    if TypeId::of::<S::W>() == TypeId::of::<f64>() {
        // SAFETY: `S::W` was just proven to be exactly `f64` (same type,
        // hence same layout); the raw-parts round trip preserves length
        // and provenance, and `dik` is re-read as the same bits.
        let d = unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<f64>(), dst.len()) };
        // SAFETY: as above, `&[S::W]` is `&[f64]`.
        let s = unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<f64>(), src.len()) };
        // SAFETY: `S::W` is `f64`; `transmute_copy` reinterprets the bits.
        let w = unsafe { std::mem::transmute_copy::<S::W, f64>(&dik) };
        relax_f64(alg, level, d, w, s)
    } else {
        super::relax_block::<S>(dst, dik, src)
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! The `#[target_feature]` bodies. Every memory access is an explicit
    //! `unsafe` block with its bounds argument; register-only intrinsics
    //! are safe inside a matching `#[target_feature]` context.

    use super::{scalar_relax, LaneAlgebra, SimdLevel};
    use std::arch::x86_64::*;

    /// `extend` for the Add-algebras, 256-bit.
    macro_rules! ext_add4 {
        ($vd:expr, $vs:expr) => {
            _mm256_add_pd($vd, $vs)
        };
    }
    /// `extend` for MaxMul, 256-bit.
    macro_rules! ext_mul4 {
        ($vd:expr, $vs:expr) => {
            _mm256_mul_pd($vd, $vs)
        };
    }
    /// `extend` for MaxMin (`if a <= b { a } else { b }`), 256-bit.
    macro_rules! ext_min4 {
        ($vd:expr, $vs:expr) => {{
            let take_s = _mm256_cmp_pd::<_CMP_NLE_UQ>($vd, $vs);
            _mm256_blendv_pd($vd, $vs, take_s)
        }};
    }
    /// `extend` for the Add-algebras, 512-bit.
    macro_rules! ext_add8 {
        ($vd:expr, $vs:expr) => {
            _mm512_add_pd($vd, $vs)
        };
    }
    /// `extend` for MaxMul, 512-bit.
    macro_rules! ext_mul8 {
        ($vd:expr, $vs:expr) => {
            _mm512_mul_pd($vd, $vs)
        };
    }
    /// `extend` for MaxMin, 512-bit.
    macro_rules! ext_min8 {
        ($vd:expr, $vs:expr) => {{
            let take_s = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>($vd, $vs);
            _mm512_mask_blend_pd(take_s, $vd, $vs)
        }};
    }

    /// Generate one AVX2 relax body. `$cmp` is the `combine` predicate —
    /// the condition under which the *candidate* replaces the current
    /// value (`NLE_UQ` for Min-combine, `NGE_UQ` for Max-combine), which
    /// is exactly the scalar `else` branch including NaN-unordered.
    macro_rules! relax_avx2 {
        ($name:ident, $alg:expr, $cmp:expr, $ext:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $name(dst: &mut [f64], dik: f64, src: &[f64]) -> bool {
                let n = dst.len().min(src.len());
                let vdik = _mm256_set1_pd(dik);
                let mut vchg = _mm256_setzero_pd();
                let mut j = 0usize;
                while j + 4 <= n {
                    // SAFETY: j + 4 <= n <= len of both slices; loadu has
                    // no alignment requirement.
                    let cur = unsafe { _mm256_loadu_pd(dst.as_ptr().add(j)) };
                    // SAFETY: same bounds for `src`.
                    let vs = unsafe { _mm256_loadu_pd(src.as_ptr().add(j)) };
                    let cand = $ext!(vdik, vs);
                    let take = _mm256_cmp_pd::<{ $cmp }>(cur, cand);
                    let merged = _mm256_blendv_pd(cur, cand, take);
                    vchg = _mm256_or_pd(vchg, _mm256_cmp_pd::<_CMP_NEQ_UQ>(merged, cur));
                    // SAFETY: in-bounds as for the load; storeu is
                    // alignment-free.
                    unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(j), merged) };
                    j += 4;
                }
                let mut any = _mm256_movemask_pd(vchg) != 0;
                if j < n {
                    any |= scalar_relax($alg, &mut dst[j..n], dik, &src[j..n]);
                }
                any
            }
        };
    }

    /// Generate one AVX-512F relax body; same predicate scheme, with
    /// `__mmask8` in place of sign-bit masks.
    macro_rules! relax_avx512 {
        ($name:ident, $alg:expr, $cmp:expr, $ext:ident) => {
            #[target_feature(enable = "avx512f")]
            unsafe fn $name(dst: &mut [f64], dik: f64, src: &[f64]) -> bool {
                let n = dst.len().min(src.len());
                let vdik = _mm512_set1_pd(dik);
                let mut kchg: __mmask8 = 0;
                let mut j = 0usize;
                while j + 8 <= n {
                    // SAFETY: j + 8 <= n <= len of both slices; loadu has
                    // no alignment requirement.
                    let cur = unsafe { _mm512_loadu_pd(dst.as_ptr().add(j)) };
                    // SAFETY: same bounds for `src`.
                    let vs = unsafe { _mm512_loadu_pd(src.as_ptr().add(j)) };
                    let cand = $ext!(vdik, vs);
                    let take = _mm512_cmp_pd_mask::<{ $cmp }>(cur, cand);
                    let merged = _mm512_mask_blend_pd(take, cur, cand);
                    kchg |= _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(merged, cur);
                    // SAFETY: in-bounds as for the load.
                    unsafe { _mm512_storeu_pd(dst.as_mut_ptr().add(j), merged) };
                    j += 8;
                }
                let mut any = kchg != 0;
                if j < n {
                    any |= scalar_relax($alg, &mut dst[j..n], dik, &src[j..n]);
                }
                any
            }
        };
    }

    relax_avx2!(min_add_avx2, LaneAlgebra::MinAdd, _CMP_NLE_UQ, ext_add4);
    relax_avx2!(max_add_avx2, LaneAlgebra::MaxAdd, _CMP_NGE_UQ, ext_add4);
    relax_avx2!(max_min_avx2, LaneAlgebra::MaxMin, _CMP_NGE_UQ, ext_min4);
    relax_avx2!(max_mul_avx2, LaneAlgebra::MaxMul, _CMP_NGE_UQ, ext_mul4);
    relax_avx512!(min_add_avx512, LaneAlgebra::MinAdd, _CMP_NLE_UQ, ext_add8);
    relax_avx512!(max_add_avx512, LaneAlgebra::MaxAdd, _CMP_NGE_UQ, ext_add8);
    relax_avx512!(max_min_avx512, LaneAlgebra::MaxMin, _CMP_NGE_UQ, ext_min8);
    relax_avx512!(max_mul_avx512, LaneAlgebra::MaxMul, _CMP_NGE_UQ, ext_mul8);

    /// Dispatch one relax to the right `(algebra, width)` body.
    ///
    /// # Safety
    ///
    /// The CPU must support the target feature implied by `level`
    /// ([`super::detect`] guarantees this for the levels it returns).
    pub(super) unsafe fn relax(
        alg: LaneAlgebra,
        level: SimdLevel,
        dst: &mut [f64],
        dik: f64,
        src: &[f64],
    ) -> bool {
        // SAFETY (all arms): the caller contract says `level`'s feature is
        // present on this CPU.
        match (level, alg) {
            (SimdLevel::Avx2, LaneAlgebra::MinAdd) => unsafe { min_add_avx2(dst, dik, src) },
            (SimdLevel::Avx2, LaneAlgebra::MaxAdd) => unsafe { max_add_avx2(dst, dik, src) },
            (SimdLevel::Avx2, LaneAlgebra::MaxMin) => unsafe { max_min_avx2(dst, dik, src) },
            (SimdLevel::Avx2, LaneAlgebra::MaxMul) => unsafe { max_mul_avx2(dst, dik, src) },
            (SimdLevel::Avx512, LaneAlgebra::MinAdd) => unsafe { min_add_avx512(dst, dik, src) },
            (SimdLevel::Avx512, LaneAlgebra::MaxAdd) => unsafe { max_add_avx512(dst, dik, src) },
            (SimdLevel::Avx512, LaneAlgebra::MaxMin) => unsafe { max_min_avx512(dst, dik, src) },
            (SimdLevel::Avx512, LaneAlgebra::MaxMul) => unsafe { max_mul_avx512(dst, dik, src) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile lane values: signed zeros, infinities (so `extend` can
    /// manufacture NaN via `∞ + (−∞)`), denormals, and negatives.
    fn hostile(seed: u64, len: usize) -> Vec<f64> {
        let pool = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -4.0e-310,
            17.0,
            -3.5,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                pool[(state % pool.len() as u64) as usize]
            })
            .collect()
    }

    #[test]
    fn vector_relax_bit_identical_to_scalar_for_every_algebra_and_level() {
        let algebras = [
            LaneAlgebra::MinAdd,
            LaneAlgebra::MaxAdd,
            LaneAlgebra::MaxMin,
            LaneAlgebra::MaxMul,
        ];
        let Some(best) = detect() else {
            // No SIMD on this host/config: relax_f64 must still agree with
            // the scalar reference (it *is* the scalar reference then).
            let mut d = hostile(1, 13);
            let mut d2 = d.clone();
            let s = hostile(2, 13);
            let a = relax_f64(LaneAlgebra::MinAdd, SimdLevel::Avx2, &mut d, 1.5, &s);
            let b = scalar_relax(LaneAlgebra::MinAdd, &mut d2, 1.5, &s);
            assert_eq!(a, b);
            assert_eq!(
                d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                d2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            return;
        };
        let mut levels = vec![SimdLevel::Avx2];
        if best == SimdLevel::Avx512 {
            levels.push(SimdLevel::Avx512);
        }
        let diks = [0.0, -0.0, 2.5, -1.0, f64::INFINITY, f64::NEG_INFINITY];
        for &alg in &algebras {
            for &level in &levels {
                // Lengths straddle the 4- and 8-lane widths and their tails.
                for len in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31] {
                    for (case, &dik) in diks.iter().enumerate() {
                        let seed = (len as u64) * 100 + case as u64 + 1;
                        let base = hostile(seed, len);
                        let src = hostile(seed ^ 0xABCD, len);
                        let mut vec_dst = base.clone();
                        let mut sc_dst = base.clone();
                        let cv = relax_f64(alg, level, &mut vec_dst, dik, &src);
                        let cs = scalar_relax(alg, &mut sc_dst, dik, &src);
                        assert_eq!(cv, cs, "changed flag: {alg:?} {level:?} len={len} dik={dik}");
                        for (i, (a, b)) in vec_dst.iter().zip(&sc_dst).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{alg:?} {level:?} len={len} dik={dik} lane {i}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nan_round_trip_can_restore_original_bits() {
        // MinAdd with dik = +∞ against src = −∞ manufactures NaN; a later
        // finite candidate must then replace it (NaN is never `<=`).
        // The scalar and vector paths must agree on every intermediate.
        if detect().is_none() {
            return;
        }
        let mut d = vec![5.0, 5.0, 5.0, 5.0, 5.0];
        let mut d2 = d.clone();
        let src = vec![f64::NEG_INFINITY; 5];
        let c1 = relax_f64(
            LaneAlgebra::MinAdd,
            SimdLevel::Avx512,
            &mut d,
            f64::INFINITY,
            &src,
        );
        let c2 = scalar_relax(LaneAlgebra::MinAdd, &mut d2, f64::INFINITY, &src);
        assert_eq!(c1, c2);
        assert!(d[0].is_nan() && d2[0].is_nan());
        let back = vec![2.0; 5];
        relax_f64(LaneAlgebra::MinAdd, SimdLevel::Avx512, &mut d, 1.0, &back);
        scalar_relax(LaneAlgebra::MinAdd, &mut d2, 1.0, &back);
        assert_eq!(d, d2);
        assert_eq!(d, vec![3.0; 5]);
    }
}
