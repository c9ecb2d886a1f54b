//! E21 — dispatched dense kernels against the naive reference.
//!
//! The baseline is the naive reference pair
//! ([`SemiMatrix::floyd_warshall_naive`] / [`SemiMatrix::square_step_naive`]);
//! the candidate is the production entry point, which runs the k-tiled
//! Floyd–Warshall schedule and the relax-form squaring step over the one
//! dispatched relax primitive — AVX-512F or AVX2 on capable hosts, the
//! scalar relax everywhere else. The report names which relax actually
//! ran ([`dispatch_name`]). Every run re-checks that both kernels
//! produce byte-for-byte identical matrices, and [`check_kernels`]
//! fails the run if one row does not.

use crate::families::Family;
use crate::{fmt_f, Table};
use spsep_graph::dense::{simd, simd_active, KernelOutcome, SemiMatrix};
use spsep_graph::semiring::Tropical;
use std::time::Instant;

/// One measured (family, n, kernel) point.
pub struct SimdRecord {
    /// Machine-readable family slug (`grid2d`, `tree`, …).
    pub family: String,
    /// Matrix dimension.
    pub n: usize,
    /// `floyd_warshall` or `square_step`.
    pub kernel: String,
    /// Median wall-clock of the naive reference kernel, milliseconds.
    pub naive_ms: f64,
    /// Median wall-clock of the dispatched production kernel, milliseconds.
    pub kernel_ms: f64,
    /// `naive_ms / kernel_ms`.
    pub speedup: f64,
    /// Result matrices byte-for-byte equal on every run.
    pub bit_identical: bool,
}

/// The relax primitive the production kernels dispatch to for `f64`
/// min-plus on this host: `simd-avx512`, `simd-avx2`, or `scalar` (no
/// AVX2, a non-x86-64 target, or the `simd` feature compiled out).
pub fn dispatch_name() -> &'static str {
    match simd::detect() {
        Some(simd::SimdLevel::Avx512) => "simd-avx512",
        Some(simd::SimdLevel::Avx2) => "simd-avx2",
        None => "scalar",
    }
}

/// Densify the first `size` vertices of a family instance into a
/// tropical matrix (identity diagonal, edge weights elsewhere).
fn dense_from_family(family: Family, size: usize, seed: u64) -> SemiMatrix<Tropical> {
    // Request twice the target so every family (notably 3-D grids, which
    // round to a cube) yields at least `size` vertices.
    let (g, _) = family.instance(size * 2, seed);
    let n = size.min(g.n());
    let mut m = SemiMatrix::<Tropical>::identity(n);
    for u in 0..n {
        for e in g.out_edges(u) {
            let v = e.to as usize;
            if v < n && v != u {
                m.relax(u, v, e.w);
            }
        }
    }
    m
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn same_bits(a: &SemiMatrix<Tropical>, b: &SemiMatrix<Tropical>) -> bool {
    a.data()
        .iter()
        .zip(b.data())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// E21 — single-thread wall-clock of the dispatched production kernels
/// against the naive reference, per family. Returns the rendered report
/// plus the raw records.
///
/// `smoke` shrinks sizes and run counts so CI can exercise the full
/// pipeline in seconds.
pub fn e21_simd_speedup(smoke: bool) -> (String, Vec<SimdRecord>) {
    let sizes: &[usize] = if smoke { &[40, 64] } else { &[256, 512, 768] };
    let runs = if smoke { 1 } else { 5 };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    // Full closure, then one doubling step: naive vs production.
    type Run = fn(&mut SemiMatrix<Tropical>) -> KernelOutcome;
    let pairs: [(&str, Run, Run); 2] = [
        (
            "floyd_warshall",
            SemiMatrix::floyd_warshall_naive,
            SemiMatrix::floyd_warshall,
        ),
        (
            "square_step",
            SemiMatrix::square_step_naive,
            SemiMatrix::square_step,
        ),
    ];
    let mut records = Vec::new();
    for family in Family::all() {
        for &size in sizes {
            let base = dense_from_family(family, size, 11);
            let n = base.n();

            for (kernel, naive, production) in pairs {
                let mut naive_ms = Vec::new();
                let mut kernel_ms = Vec::new();
                let mut bits = true;
                for _ in 0..runs {
                    let mut a = base.clone();
                    let t0 = Instant::now();
                    pool.install(|| naive(&mut a));
                    naive_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    let mut b = base.clone();
                    let t0 = Instant::now();
                    pool.install(|| production(&mut b));
                    kernel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    bits &= same_bits(&a, &b);
                }
                let (nm, km) = (median(naive_ms), median(kernel_ms));
                records.push(SimdRecord {
                    family: family.slug().into(),
                    n,
                    kernel: kernel.into(),
                    naive_ms: nm,
                    kernel_ms: km,
                    speedup: nm / km.max(1e-9),
                    bit_identical: bits,
                });
            }
        }
    }

    let mut out = format!(
        "E21 — production dense kernels vs the naive reference, single \
         thread (median of {runs} run(s), sizes {sizes:?}). Relax dispatch \
         on this host: `{}` (simd_active = {}). The candidate order per \
         cell is identical, so the `bitident` column must read `yes` \
         everywhere.\n\n",
        dispatch_name(),
        simd_active::<Tropical>(),
    );
    out.push_str(&render(&records));
    (out, records)
}

fn render(records: &[SimdRecord]) -> String {
    let mut t = Table::new(&[
        "family",
        "n",
        "kernel",
        "naive_ms",
        "kernel_ms",
        "speedup",
        "bitident",
    ]);
    for r in records {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.kernel.clone(),
            fmt_f(r.naive_ms),
            fmt_f(r.kernel_ms),
            format!("{:.2}x", r.speedup),
            if r.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    t.render()
}

/// The claims every E21 run must uphold: at least one row, and on every
/// row finite non-negative timings, a finite positive speedup and a
/// production result bit-identical to the naive one.
pub fn check_kernels(records: &[SimdRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Err("no rows".into());
    }
    for r in records {
        let at = format!("{} n={} {}", r.family, r.n, r.kernel);
        if !r.bit_identical {
            return Err(format!("{at}: production kernel diverged from naive"));
        }
        let timed = [r.naive_ms, r.kernel_ms]
            .iter()
            .all(|t| t.is_finite() && *t >= 0.0);
        if !(timed && r.speedup.is_finite() && r.speedup > 0.0) {
            return Err(format!("{at}: bad timing or speedup"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SimdRecord> {
        vec![SimdRecord {
            family: "grid2d".into(),
            n: 512,
            kernel: "square_step".into(),
            naive_ms: 30.0,
            kernel_ms: 12.0,
            speedup: 2.5,
            bit_identical: true,
        }]
    }

    #[test]
    fn check_rejects_each_broken_claim() {
        assert_eq!(check_kernels(&sample()), Ok(()));
        assert!(check_kernels(&[]).is_err());
        let broken: [fn(&mut SimdRecord); 3] = [
            |r| r.bit_identical = false,
            |r| r.naive_ms = f64::NAN,
            |r| r.speedup = 0.0,
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut rows = sample();
            breaks(&mut rows[0]);
            assert!(check_kernels(&rows).is_err(), "case {i}");
        }
    }

    #[test]
    fn dispatch_name_matches_simd_active() {
        let name = dispatch_name();
        if simd_active::<Tropical>() {
            assert!(name == "simd-avx512" || name == "simd-avx2", "{name}");
        } else {
            assert_eq!(name, "scalar");
        }
    }

    #[test]
    fn e21_smoke_measures_all_families_bit_identically() {
        let (report, records) = e21_simd_speedup(true);
        // 5 families x 2 sizes x 2 kernels.
        assert_eq!(records.len(), 20, "{report}");
        if let Err(e) = check_kernels(&records) {
            panic!("{e}\n{report}");
        }
    }
}
