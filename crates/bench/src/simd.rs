//! E21 — dispatched dense kernels against the naive reference, plus the
//! `BENCH_simd.json` artifact (schema `spsep-simd-bench/v2`).
//!
//! The baseline is the naive reference pair
//! ([`SemiMatrix::floyd_warshall_naive`] / [`SemiMatrix::square_step_naive`]);
//! the candidate is the production entry point, which runs the k-tiled
//! Floyd–Warshall schedule and the relax-form squaring step over the one
//! dispatched relax primitive — AVX-512F or AVX2 on capable hosts, the
//! scalar relax everywhere else. The artifact records which relax actually
//! ran (`dispatch` / `simd_active`). Every run re-checks that both kernels
//! produce byte-for-byte identical matrices.
//!
//! The workspace has no serde, so the artifact is written with `format!`
//! and checked by the crate-private `jsonv` parser; the `tables` binary
//! validates every artifact it writes, and CI validates the committed
//! copy.

use crate::families::Family;
use crate::jsonv::{field, parse_json, Json};
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
/// pipeline (measure → serialize → validate) in seconds.
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
    out.push_str(&render_simd_table(&records));
    (out, records)
}

/// Render records as the E21 table (shared by measure and `--simd-in`).
pub fn render_simd_table(records: &[SimdRecord]) -> String {
    let mut t = Table::new(&[
        "family", "n", "kernel", "naive_ms", "kernel_ms", "speedup", "bitident",
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

/// Serialize records as `spsep-simd-bench/v2` JSON.
pub fn simd_json(records: &[SimdRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-simd-bench/v2\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!("  \"dispatch\": \"{}\",\n", dispatch_name()));
    s.push_str(&format!(
        "  \"simd_active\": {},\n",
        simd_active::<Tropical>()
    ));
    s.push_str("  \"threads\": 1,\n  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"kernel\": \"{}\", \
             \"naive_ms\": {:.4}, \"kernel_ms\": {:.4}, \
             \"speedup\": {:.4}, \"bit_identical\": {}}}{}\n",
            r.family,
            r.n,
            r.kernel,
            r.naive_ms,
            r.kernel_ms,
            r.speedup,
            r.bit_identical,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validate a `spsep-simd-bench/v2` document. Returns the entry count.
///
/// Checks structure and types, entry-level invariants (known kernel
/// names, positive `n`, non-negative times, finite positive speedup),
/// and that at least one entry is present. Truth of `bit_identical` is a
/// *result*, not a schema property — the `tables` binary asserts it.
pub fn validate_simd_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-simd-bench/v2" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    match field(&top, "dispatch")? {
        Json::Str(s) if !s.is_empty() => {}
        _ => return Err("`dispatch` must be a non-empty string".into()),
    }
    if !matches!(field(&top, "simd_active")?, Json::Bool(_)) {
        return Err("`simd_active` must be a bool".into());
    }
    for key in ["host_cores", "threads"] {
        let Json::Num(v) = field(&top, key)? else {
            return Err(format!("`{key}` must be a number"));
        };
        if *v < 1.0 {
            return Err(format!("`{key}` must be >= 1"));
        }
    }
    let Json::Arr(entries) = field(&top, "entries")? else {
        return Err("`entries` must be an array".into());
    };
    if entries.is_empty() {
        return Err("`entries` is empty".into());
    }
    for (idx, e) in entries.iter().enumerate() {
        let Json::Obj(e) = e else {
            return Err(format!("entry {idx} is not an object"));
        };
        let ctx = |msg: &str| format!("entry {idx}: {msg}");
        match field(e, "family").map_err(|m| ctx(&m))? {
            Json::Str(s) if !s.is_empty() => {}
            _ => return Err(ctx("`family` must be a non-empty string")),
        }
        match field(e, "kernel").map_err(|m| ctx(&m))? {
            Json::Str(s) if s == "floyd_warshall" || s == "square_step" => {}
            other => return Err(ctx(&format!("unknown kernel {other:?}"))),
        }
        match field(e, "n").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v >= 1.0 && v.fract() == 0.0 => {}
            _ => return Err(ctx("`n` must be a positive integer")),
        }
        for key in ["naive_ms", "kernel_ms"] {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.is_finite() => {}
                _ => return Err(ctx(&format!("`{key}` must be a finite non-negative number"))),
            }
        }
        match field(e, "speedup").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v > 0.0 && v.is_finite() => {}
            _ => return Err(ctx("`speedup` must be a finite positive number")),
        }
        if !matches!(field(e, "bit_identical").map_err(|m| ctx(&m))?, Json::Bool(_)) {
            return Err(ctx("`bit_identical` must be a bool"));
        }
    }
    Ok(entries.len())
}

/// Parse a validated `spsep-simd-bench/v2` document back into records
/// (for `tables e21 --simd-in`).
pub fn read_simd_json(json: &str) -> Result<Vec<SimdRecord>, String> {
    validate_simd_json(json)?;
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    let Json::Arr(entries) = field(&top, "entries")? else {
        return Err("`entries` must be an array".into());
    };
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let Json::Obj(e) = e else {
            return Err("entry is not an object".into());
        };
        let str_of = |key: &str| -> Result<String, String> {
            match field(e, key)? {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("`{key}` must be a string")),
            }
        };
        let num_of = |key: &str| -> Result<f64, String> {
            match field(e, key)? {
                Json::Num(v) => Ok(*v),
                _ => Err(format!("`{key}` must be a number")),
            }
        };
        let bit = match field(e, "bit_identical")? {
            Json::Bool(b) => *b,
            _ => return Err("`bit_identical` must be a bool".into()),
        };
        out.push(SimdRecord {
            family: str_of("family")?,
            n: num_of("n")? as usize,
            kernel: str_of("kernel")?,
            naive_ms: num_of("naive_ms")?,
            kernel_ms: num_of("kernel_ms")?,
            speedup: num_of("speedup")?,
            bit_identical: bit,
        });
    }
    Ok(out)
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
    fn writer_output_validates_and_round_trips() {
        let json = simd_json(&sample());
        assert_eq!(validate_simd_json(&json), Ok(1));
        let back = read_simd_json(&json).expect("round-trip");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].family, "grid2d");
        assert_eq!(back[0].n, 512);
        assert_eq!(back[0].kernel, "square_step");
        assert!(back[0].bit_identical);
        assert!((back[0].speedup - 2.5).abs() < 1e-9);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_simd_json("").is_err());
        assert!(validate_simd_json("[]").is_err());
        assert!(validate_simd_json("{\"schema\": \"other/v9\"}").is_err());
        // Wrong schema string.
        let bad = simd_json(&sample()).replace("spsep-simd-bench/v2", "nope");
        assert!(validate_simd_json(&bad).is_err());
        // Unknown kernel name.
        let bad = simd_json(&sample()).replace("square_step", "strassen");
        assert!(validate_simd_json(&bad).is_err());
        // Missing dispatch field.
        let bad = simd_json(&sample()).replace("\"dispatch\"", "\"dispatched\"");
        assert!(validate_simd_json(&bad).is_err());
        // Empty entry list.
        let mut empty = simd_json(&[]);
        assert!(validate_simd_json(&empty).is_err());
        // Truncated document.
        empty.truncate(empty.len() / 2);
        assert!(validate_simd_json(&empty).is_err());
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
    fn committed_artifact_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd.json");
        let json = std::fs::read_to_string(path).expect("BENCH_simd.json committed at repo root");
        let entries =
            validate_simd_json(&json).expect("committed artifact is valid spsep-simd-bench/v2");
        // 5 families x 3 sizes x 2 kernels.
        assert_eq!(entries, 30);
    }

    #[test]
    fn e21_smoke_measures_all_families_bit_identically() {
        let (report, records) = e21_simd_speedup(true);
        // 5 families x 2 sizes x 2 kernels.
        assert_eq!(records.len(), 20);
        assert!(records.iter().all(|r| r.bit_identical), "{report}");
        let json = simd_json(&records);
        assert_eq!(validate_simd_json(&json), Ok(20));
    }
}
