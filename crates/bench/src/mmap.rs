//! E20 — snapshot load paths: v1 streaming decode vs v2 zero-copy mmap,
//! plus the `BENCH_mmap.json` artifact (schema `spsep-mmap-bench/v1`).
//!
//! The `spsep-oracle/v2` slab format (DESIGN.md §12) claims that
//! `Oracle::load_path` on a v2 file is near-O(1): the file is mapped,
//! sections are borrowed in place, and no per-edge decode happens. E20
//! measures that claim per family against the two alternatives a server
//! operator has: re-running the full Sections 3–5 preprocessing, and
//! decoding the legacy `spsep-oracle/v1` stream. Both snapshot loads go
//! through the same `Oracle::load_path` entry point the CLI uses, on
//! real temp files, and load wall-clocks take the best of
//! `LOAD_REPS` runs so the v1/v2 ratio is not noise. Every row also
//! re-checks the bit-identity contract: full `source_table` rows from
//! the v1-loaded and v2-loaded oracles must equal the freshly prepared
//! oracle's rows via `to_bits`, and the v2 oracle must actually be
//! slab-backed (`is_slab_backed`) on platforms with mmap.
//!
//! Same no-serde discipline as E17–E19: the artifact is written with
//! `format!`, re-parsed by `jsonv` (the crate-private mini JSON
//! parser), and validated before the `tables` binary writes it.

use crate::families::Family;
use crate::jsonv::{field, parse_json, Json};
use crate::{fmt_f, Table};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use std::time::Instant;

/// Load repetitions per format; the recorded wall-clock is the minimum,
/// which is the standard estimator for a deterministic operation's cost
/// (everything above the minimum is scheduling noise).
const LOAD_REPS: usize = 5;

/// One measured family: the three ways to stand up an oracle.
pub struct MmapRecord {
    /// Machine-readable family slug (`grid2d`, `tree`, …).
    pub family: String,
    /// Instance size (vertices).
    pub n: usize,
    /// Instance size (edges).
    pub m: usize,
    /// `spsep-oracle/v1` snapshot size in bytes.
    pub v1_bytes: usize,
    /// `spsep-oracle/v2` snapshot size in bytes (alignment padding makes
    /// it slightly larger than v1).
    pub v2_bytes: usize,
    /// Full preprocessing wall-clock (validate + augment + compile), ms.
    pub prepare_ms: f64,
    /// `Oracle::load_path` on the v1 file: streaming decode of every
    /// edge record, ms (best of `LOAD_REPS`).
    pub v1_load_ms: f64,
    /// `Oracle::load_path` on the v2 file: mmap + header/checksum
    /// validation + slab borrows, ms (best of `LOAD_REPS`).
    pub v2_load_ms: f64,
    /// `v1_load_ms / v2_load_ms`: what zero-copy buys over decoding.
    pub mmap_speedup: f64,
    /// The v2-loaded oracle reported `is_slab_backed()` — i.e. it
    /// serves straight out of the page cache, no owned copy.
    pub slab_backed: bool,
    /// v1-loaded and v2-loaded `source_table` rows are bit-identical to
    /// the freshly prepared oracle's rows.
    pub bit_identical: bool,
}

/// E20 — measure v1-decode vs v2-mmap load for every family. Returns
/// the rendered report plus the raw records for the JSON artifact.
///
/// `smoke` shrinks the instances so CI exercises the full pipeline
/// (prepare → save both formats → load both via `load_path` → compare
/// rows → serialize → validate) in seconds.
pub fn e20_mmap(smoke: bool) -> (String, Vec<MmapRecord>) {
    let n_target = if smoke { 240 } else { 1024 };
    let mut records = Vec::new();
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    for family in Family::all() {
        let (g, tree) = family.instance(n_target, 20);
        let (n, m) = (g.n(), g.m());

        let t0 = Instant::now();
        let fresh = Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", family.slug()));
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut v1 = Vec::new();
        fresh
            .save(&mut v1)
            .unwrap_or_else(|e| panic!("{}: v1 save failed: {e}", family.slug()));
        let mut v2 = Vec::new();
        fresh
            .save_v2(&mut v2)
            .unwrap_or_else(|e| panic!("{}: v2 save failed: {e}", family.slug()));

        let v1_path = dir.join(format!("spsep-e20-{tag}-{}.v1", family.slug()));
        let v2_path = dir.join(format!("spsep-e20-{tag}-{}.v2", family.slug()));
        std::fs::write(&v1_path, &v1)
            .unwrap_or_else(|e| panic!("{}: cannot write v1 temp: {e}", family.slug()));
        std::fs::write(&v2_path, &v2)
            .unwrap_or_else(|e| panic!("{}: cannot write v2 temp: {e}", family.slug()));

        // Best-of-N loads through the one entry point the CLI uses.
        let time_loads = |path: &std::path::Path| -> (f64, Oracle) {
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..LOAD_REPS {
                let t = Instant::now();
                let oracle = Oracle::load_path(path)
                    .unwrap_or_else(|e| panic!("{}: load failed: {e}", path.display()));
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                last = Some(oracle);
            }
            (best, last.expect("LOAD_REPS > 0"))
        };
        let (v1_load_ms, from_v1) = time_loads(&v1_path);
        let (v2_load_ms, from_v2) = time_loads(&v2_path);

        // Full-row bit-identity across all three oracles from a spread
        // of sources — the refactor contract, re-checked on every run.
        let metrics = Metrics::new();
        let mut bit_identical = true;
        for s in [0, n / 3, n / 2, n - 1] {
            let want = fresh
                .source_table(s, &metrics)
                .unwrap_or_else(|e| panic!("{}: query failed: {e}", family.slug()));
            for loaded in [&from_v1, &from_v2] {
                let got = loaded
                    .source_table(s, &metrics)
                    .unwrap_or_else(|e| panic!("{}: query failed: {e}", family.slug()));
                bit_identical &= got.len() == want.len()
                    && got
                        .iter()
                        .zip(want.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
            }
        }
        let slab_backed = from_v2.is_slab_backed();

        // The mapping borrows the file; drop the oracles before
        // deleting so the unlink is obviously safe on every platform.
        drop(from_v1);
        drop(from_v2);
        let _ = std::fs::remove_file(&v1_path);
        let _ = std::fs::remove_file(&v2_path);

        records.push(MmapRecord {
            family: family.slug().to_owned(),
            n,
            m,
            v1_bytes: v1.len(),
            v2_bytes: v2.len(),
            prepare_ms,
            v1_load_ms,
            v2_load_ms,
            mmap_speedup: v1_load_ms / v2_load_ms.max(1e-9),
            slab_backed,
            bit_identical,
        });
    }

    let mut out = format!(
        "E20 — snapshot load paths (n≈{n_target} per family): full \
         preprocessing vs `spsep-oracle/v1` streaming decode vs \
         `spsep-oracle/v2` zero-copy mmap, all through \
         `Oracle::load_path` (best of {LOAD_REPS} loads).\n\n",
    );
    out.push_str(&render_mmap_table(&records));
    (out, records)
}

/// Render the E20 view.
pub fn render_mmap_table(records: &[MmapRecord]) -> String {
    let mut t = Table::new(&[
        "family",
        "n",
        "m",
        "v1_KB",
        "v2_KB",
        "prepare_ms",
        "v1_load_ms",
        "v2_load_ms",
        "mmap_speedup",
        "slab",
    ]);
    for r in records {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.m.to_string(),
            format!("{:.1}", r.v1_bytes as f64 / 1024.0),
            format!("{:.1}", r.v2_bytes as f64 / 1024.0),
            fmt_f(r.prepare_ms),
            fmt_f(r.v1_load_ms),
            fmt_f(r.v2_load_ms),
            format!("{:.1}x", r.mmap_speedup),
            if r.slab_backed { "mmap" } else { "copy" }.into(),
        ]);
    }
    t.render()
}

/// Serialize records as `spsep-mmap-bench/v1` JSON.
pub fn mmap_json(records: &[MmapRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-mmap-bench/v1\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \
             \"v1_bytes\": {}, \"v2_bytes\": {}, \"prepare_ms\": {:.4}, \
             \"v1_load_ms\": {:.4}, \"v2_load_ms\": {:.4}, \
             \"mmap_speedup\": {:.4}, \"slab_backed\": {}, \
             \"bit_identical\": {}}}{}\n",
            r.family,
            r.n,
            r.m,
            r.v1_bytes,
            r.v2_bytes,
            r.prepare_ms,
            r.v1_load_ms,
            r.v2_load_ms,
            r.mmap_speedup,
            r.slab_backed,
            r.bit_identical,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse a validated `spsep-mmap-bench/v1` document back into records —
/// the `tables e20 --mmap-in` path that renders the committed artifact
/// without re-measuring.
pub fn read_mmap_json(json: &str) -> Result<Vec<MmapRecord>, String> {
    validate_mmap_json(json)?;
    let Json::Obj(top) = parse_json(json)? else {
        unreachable!("validated above")
    };
    let Json::Arr(entries) = field(&top, "entries")? else {
        unreachable!("validated above")
    };
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let Json::Obj(e) = e else {
            unreachable!("validated above")
        };
        let num = |key: &str| -> f64 {
            match field(e, key) {
                Ok(Json::Num(v)) => *v,
                _ => unreachable!("validated above"),
            }
        };
        let family = match field(e, "family") {
            Ok(Json::Str(v)) => v.clone(),
            _ => unreachable!("validated above"),
        };
        out.push(MmapRecord {
            family,
            n: num("n") as usize,
            m: num("m") as usize,
            v1_bytes: num("v1_bytes") as usize,
            v2_bytes: num("v2_bytes") as usize,
            prepare_ms: num("prepare_ms"),
            v1_load_ms: num("v1_load_ms"),
            v2_load_ms: num("v2_load_ms"),
            mmap_speedup: num("mmap_speedup"),
            slab_backed: matches!(field(e, "slab_backed"), Ok(Json::Bool(true))),
            bit_identical: matches!(field(e, "bit_identical"), Ok(Json::Bool(true))),
        });
    }
    Ok(out)
}

/// Validate a `spsep-mmap-bench/v1` document. Returns the entry count.
///
/// Checks structure and types, entry-level invariants (positive sizes,
/// finite positive timings, a speedup ratio consistent with
/// `v1_load_ms / v2_load_ms`), and both contract flags — an artifact
/// recording diverging answers, or a v2 load that fell back to an owned
/// copy, must never validate.
pub fn validate_mmap_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-mmap-bench/v1" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let Json::Num(cores) = field(&top, "host_cores")? else {
        return Err("`host_cores` must be a number".into());
    };
    if *cores < 1.0 {
        return Err("`host_cores` must be >= 1".into());
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
        for key in ["n", "m", "v1_bytes", "v2_bytes"] {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 1.0 && v.fract() == 0.0 => {}
                _ => return Err(ctx(&format!("`{key}` must be a positive integer"))),
            }
        }
        let t = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v > 0.0 && v.is_finite() => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a finite positive number"))),
            }
        };
        let _prepare_ms = t("prepare_ms")?;
        let v1_load_ms = t("v1_load_ms")?;
        let v2_load_ms = t("v2_load_ms")?;
        let mmap_speedup = t("mmap_speedup")?;
        // The stored ratio must agree with its factors (both sides are
        // rounded to 4 decimals, so allow a generous tolerance).
        let expected = v1_load_ms / v2_load_ms;
        if expected > 0.01 && (mmap_speedup - expected).abs() / expected > 0.05 {
            return Err(ctx(&format!(
                "`mmap_speedup` {mmap_speedup} inconsistent with v1/v2 = {expected:.4}"
            )));
        }
        match field(e, "slab_backed").map_err(|m| ctx(&m))? {
            Json::Bool(true) => {}
            Json::Bool(false) => {
                return Err(ctx("`slab_backed` is false: the v2 load copied instead of mmapping"))
            }
            _ => return Err(ctx("`slab_backed` must be a boolean")),
        }
        match field(e, "bit_identical").map_err(|m| ctx(&m))? {
            Json::Bool(true) => {}
            Json::Bool(false) => {
                return Err(ctx("`bit_identical` is false: a loaded oracle diverged"))
            }
            _ => return Err(ctx("`bit_identical` must be a boolean")),
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MmapRecord> {
        vec![
            MmapRecord {
                family: "grid2d".into(),
                n: 1024,
                m: 3968,
                v1_bytes: 150_000,
                v2_bytes: 160_000,
                prepare_ms: 42.0,
                v1_load_ms: 2.0,
                v2_load_ms: 0.1,
                mmap_speedup: 20.0,
                slab_backed: true,
                bit_identical: true,
            },
            MmapRecord {
                family: "tree".into(),
                n: 1023,
                m: 2044,
                v1_bytes: 60_000,
                v2_bytes: 66_000,
                prepare_ms: 10.0,
                v1_load_ms: 1.0,
                v2_load_ms: 0.1,
                mmap_speedup: 10.0,
                slab_backed: true,
                bit_identical: true,
            },
        ]
    }

    #[test]
    fn writer_output_validates_and_roundtrips() {
        let rows = sample();
        let json = mmap_json(&rows);
        assert_eq!(validate_mmap_json(&json), Ok(2));
        let back = read_mmap_json(&json).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.family, b.family);
            assert_eq!((a.n, a.m, a.v1_bytes, a.v2_bytes), (b.n, b.m, b.v1_bytes, b.v2_bytes));
            assert!((a.mmap_speedup - b.mmap_speedup).abs() < 1e-6);
        }
        let view = render_mmap_table(&back);
        assert!(view.contains("grid2d"), "{view}");
        assert!(view.contains("mmap_speedup"), "{view}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_mmap_json("").is_err());
        assert!(validate_mmap_json("[]").is_err());
        assert!(validate_mmap_json("{\"schema\": \"other/v9\"}").is_err());
        let good = mmap_json(&sample());
        assert!(validate_mmap_json(&good.replace("spsep-mmap-bench/v1", "nope")).is_err());
        // A diverging loaded oracle must never validate.
        let mut rows = sample();
        rows[0].bit_identical = false;
        assert!(validate_mmap_json(&mmap_json(&rows)).is_err());
        // A v2 load that silently fell back to an owned copy must not
        // masquerade as a zero-copy measurement.
        let mut rows = sample();
        rows[1].slab_backed = false;
        assert!(validate_mmap_json(&mmap_json(&rows)).is_err());
        // Ratio inconsistent with its factors.
        let mut rows = sample();
        rows[0].mmap_speedup = 500.0;
        assert!(validate_mmap_json(&mmap_json(&rows)).is_err());
        // Zero / negative timings.
        let mut rows = sample();
        rows[1].v2_load_ms = 0.0;
        assert!(validate_mmap_json(&mmap_json(&rows)).is_err());
        // Empty entry list / truncated document.
        let mut empty = mmap_json(&[]);
        assert!(validate_mmap_json(&empty).is_err());
        empty.truncate(empty.len() / 2);
        assert!(validate_mmap_json(&empty).is_err());
    }

    #[test]
    fn committed_artifact_validates_and_mmap_wins() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mmap.json");
        let json = std::fs::read_to_string(path).expect("BENCH_mmap.json committed at repo root");
        let entries =
            validate_mmap_json(&json).expect("committed artifact is valid spsep-mmap-bench/v1");
        assert_eq!(entries, 5, "one row per family");
        // The v2 format's claim, as measured on the committed run:
        // the mmap load beats the v1 streaming decode on every family.
        for r in read_mmap_json(&json).unwrap() {
            assert!(
                r.mmap_speedup > 1.0,
                "{}: v2 mmap ({} ms) is not cheaper than v1 decode ({} ms)",
                r.family,
                r.v2_load_ms,
                r.v1_load_ms
            );
        }
    }

    #[test]
    fn e20_smoke_covers_every_family() {
        let (report, records) = e20_mmap(true);
        assert_eq!(records.len(), 5, "{report}");
        for r in &records {
            assert!(r.bit_identical, "{}: a loaded oracle diverged", r.family);
            assert!(r.v1_bytes > 0 && r.v2_bytes > 0, "{}: empty snapshot", r.family);
            assert!(
                r.prepare_ms > 0.0 && r.v1_load_ms > 0.0 && r.v2_load_ms > 0.0,
                "{}: empty timings",
                r.family
            );
            #[cfg(unix)]
            assert!(r.slab_backed, "{}: v2 load is not slab-backed", r.family);
        }
        let json = mmap_json(&records);
        assert_eq!(validate_mmap_json(&json), Ok(5));
    }
}
