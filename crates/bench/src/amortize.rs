//! E18 — snapshot amortization: prepare-once vs load-and-serve, plus the
//! `BENCH_amortize.json` artifact (schema `spsep-amortize/v1`).
//!
//! The serving layer (`spsep_core::oracle`, DESIGN.md §10) claims that
//! reloading a persisted `spsep-oracle/v1` snapshot is much cheaper than
//! re-running the Sections 3–5 preprocessing. E18 measures that claim
//! per family: full preprocessing wall-clock, snapshot size, snapshot
//! load wall-clock (parse + checksum + validate + schedule compile), the
//! prepare/load speedup, and the cost of one cold scheduled query from
//! the loaded oracle. Every row also re-checks the bit-identity contract
//! (loaded answers == fresh answers, compared via `to_bits`).
//!
//! Same no-serde discipline as E17: the artifact is written with
//! `format!`, re-parsed by `jsonv` (the crate-private mini JSON parser), and validated before the
//! `tables` binary writes it.

use crate::families::Family;
use crate::jsonv::{field, parse_json, Json};
use crate::{fmt_f, Table};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use std::time::Instant;

/// One measured family: prepare vs load economics of the oracle snapshot.
pub struct AmortRecord {
    /// Machine-readable family slug (`grid2d`, `tree`, …).
    pub family: String,
    /// Instance size (vertices).
    pub n: usize,
    /// Instance size (edges).
    pub m: usize,
    /// Shortcut edges in `E⁺`.
    pub eplus: usize,
    /// Snapshot size in bytes.
    pub snap_bytes: usize,
    /// Full preprocessing wall-clock (validate + augment + compile), ms.
    pub prepare_ms: f64,
    /// Snapshot load wall-clock (parse + checksums + validate +
    /// compile), ms.
    pub load_ms: f64,
    /// One cold scheduled point query from the loaded oracle, µs
    /// (mean over distinct sources).
    pub query_us: f64,
    /// `prepare_ms / load_ms`: how many times cheaper reloading is.
    pub amortization: f64,
    /// Loaded answers are bit-identical to freshly prepared ones.
    pub bit_identical: bool,
}

/// E18 — measure the prepare/load amortization for every family.
/// Returns the rendered report plus the raw records for the JSON
/// artifact.
///
/// `smoke` shrinks the instances so CI exercises the full pipeline
/// (prepare → save → load → query → serialize → validate) in seconds.
pub fn e18_amortization(smoke: bool) -> (String, Vec<AmortRecord>) {
    let n_target = if smoke { 240 } else { 1024 };
    let mut records = Vec::new();
    for family in Family::all() {
        let (g, tree) = family.instance(n_target, 18);
        let (n, m) = (g.n(), g.m());

        let t0 = Instant::now();
        let fresh = Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", family.slug()));
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut snapshot = Vec::new();
        fresh
            .save(&mut snapshot)
            .unwrap_or_else(|e| panic!("{}: save failed: {e}", family.slug()));

        let t1 = Instant::now();
        let served = Oracle::load(snapshot.as_slice())
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", family.slug()));
        let load_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Cold point queries from distinct sources (every one a cache
        // miss → one full scheduled run each), and the bit-identity
        // cross-check against the freshly prepared oracle.
        let metrics = Metrics::new();
        let sources: Vec<usize> = (0..8).map(|i| i * n / 8).collect();
        let mut bit_identical = true;
        let t2 = Instant::now();
        for &s in &sources {
            let target = (s + n / 2) % n;
            let d = served
                .distance(s, target, &metrics)
                .unwrap_or_else(|e| panic!("{}: query failed: {e}", family.slug()));
            let d_fresh = fresh
                .distance(s, target, &metrics)
                .unwrap_or_else(|e| panic!("{}: query failed: {e}", family.slug()));
            bit_identical &= d.to_bits() == d_fresh.to_bits();
        }
        let query_us = t2.elapsed().as_secs_f64() * 1e6 / (2.0 * sources.len() as f64);

        records.push(AmortRecord {
            family: family.slug().to_owned(),
            n,
            m,
            eplus: fresh.stats().eplus_edges,
            snap_bytes: snapshot.len(),
            prepare_ms,
            load_ms,
            query_us,
            amortization: prepare_ms / load_ms.max(1e-9),
            bit_identical,
        });
    }

    let mut out = format!(
        "E18 — oracle snapshot amortization (n≈{n_target} per family): \
         full preprocessing vs `spsep-oracle/v1` snapshot reload, and one \
         cold scheduled query from the reloaded oracle.\n\n",
    );
    out.push_str(&render_amortize_table(&records));
    (out, records)
}

/// Render the E18 view.
pub fn render_amortize_table(records: &[AmortRecord]) -> String {
    let mut t = Table::new(&[
        "family",
        "n",
        "m",
        "|E+|",
        "snap_KB",
        "prepare_ms",
        "load_ms",
        "speedup",
        "query_us",
    ]);
    for r in records {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.m.to_string(),
            r.eplus.to_string(),
            format!("{:.1}", r.snap_bytes as f64 / 1024.0),
            fmt_f(r.prepare_ms),
            fmt_f(r.load_ms),
            format!("{:.1}x", r.amortization),
            fmt_f(r.query_us),
        ]);
    }
    t.render()
}

/// Serialize records as `spsep-amortize/v1` JSON.
pub fn amortize_json(records: &[AmortRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-amortize/v1\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"eplus\": {}, \
             \"snap_bytes\": {}, \"prepare_ms\": {:.4}, \"load_ms\": {:.4}, \
             \"query_us\": {:.4}, \"amortization\": {:.4}, \
             \"bit_identical\": {}}}{}\n",
            r.family,
            r.n,
            r.m,
            r.eplus,
            r.snap_bytes,
            r.prepare_ms,
            r.load_ms,
            r.query_us,
            r.amortization,
            r.bit_identical,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse a validated `spsep-amortize/v1` document back into records —
/// the `tables e18 --amortize-in` path that renders the committed
/// artifact without re-measuring.
pub fn read_amortize_json(json: &str) -> Result<Vec<AmortRecord>, String> {
    validate_amortize_json(json)?;
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
        let bit_identical = matches!(field(e, "bit_identical"), Ok(Json::Bool(true)));
        out.push(AmortRecord {
            family,
            n: num("n") as usize,
            m: num("m") as usize,
            eplus: num("eplus") as usize,
            snap_bytes: num("snap_bytes") as usize,
            prepare_ms: num("prepare_ms"),
            load_ms: num("load_ms"),
            query_us: num("query_us"),
            amortization: num("amortization"),
            bit_identical,
        });
    }
    Ok(out)
}

/// Validate a `spsep-amortize/v1` document. Returns the entry count.
///
/// Checks structure and types, entry-level invariants (positive sizes,
/// finite positive timings, a positive amortization ratio consistent
/// with `prepare_ms / load_ms`), and the bit-identity flag — an
/// artifact recording diverging answers must never validate.
pub fn validate_amortize_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-amortize/v1" => {}
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
        for key in ["n", "m", "snap_bytes"] {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 1.0 && v.fract() == 0.0 => {}
                _ => return Err(ctx(&format!("`{key}` must be a positive integer"))),
            }
        }
        match field(e, "eplus").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => {}
            _ => return Err(ctx("`eplus` must be a non-negative integer")),
        }
        let t = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v > 0.0 && v.is_finite() => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a finite positive number"))),
            }
        };
        let prepare_ms = t("prepare_ms")?;
        let load_ms = t("load_ms")?;
        let _query_us = t("query_us")?;
        let amortization = t("amortization")?;
        // The stored ratio must agree with its factors (both sides are
        // rounded to 4 decimals, so allow a generous tolerance).
        let expected = prepare_ms / load_ms;
        if expected > 0.01 && (amortization - expected).abs() / expected > 0.05 {
            return Err(ctx(&format!(
                "`amortization` {amortization} inconsistent with prepare/load = {expected:.4}"
            )));
        }
        match field(e, "bit_identical").map_err(|m| ctx(&m))? {
            Json::Bool(true) => {}
            Json::Bool(false) => {
                return Err(ctx("`bit_identical` is false: the snapshot round-trip diverged"))
            }
            _ => return Err(ctx("`bit_identical` must be a boolean")),
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<AmortRecord> {
        vec![
            AmortRecord {
                family: "grid2d".into(),
                n: 1024,
                m: 3968,
                eplus: 5000,
                snap_bytes: 150_000,
                prepare_ms: 42.0,
                load_ms: 2.0,
                query_us: 180.0,
                amortization: 21.0,
                bit_identical: true,
            },
            AmortRecord {
                family: "tree".into(),
                n: 1023,
                m: 2044,
                eplus: 900,
                snap_bytes: 60_000,
                prepare_ms: 10.0,
                load_ms: 1.0,
                query_us: 90.0,
                amortization: 10.0,
                bit_identical: true,
            },
        ]
    }

    #[test]
    fn writer_output_validates_and_roundtrips() {
        let rows = sample();
        let json = amortize_json(&rows);
        assert_eq!(validate_amortize_json(&json), Ok(2));
        let back = read_amortize_json(&json).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.family, b.family);
            assert_eq!((a.n, a.m, a.eplus, a.snap_bytes), (b.n, b.m, b.eplus, b.snap_bytes));
            assert!((a.amortization - b.amortization).abs() < 1e-6);
        }
        let view = render_amortize_table(&back);
        assert!(view.contains("grid2d"), "{view}");
        assert!(view.contains("speedup"), "{view}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_amortize_json("").is_err());
        assert!(validate_amortize_json("[]").is_err());
        assert!(validate_amortize_json("{\"schema\": \"other/v9\"}").is_err());
        let good = amortize_json(&sample());
        assert!(validate_amortize_json(&good.replace("spsep-amortize/v1", "nope")).is_err());
        // A diverging round-trip must never validate.
        let mut rows = sample();
        rows[0].bit_identical = false;
        assert!(validate_amortize_json(&amortize_json(&rows)).is_err());
        // Ratio inconsistent with its factors.
        let mut rows = sample();
        rows[0].amortization = 500.0;
        assert!(validate_amortize_json(&amortize_json(&rows)).is_err());
        // Zero / negative timings.
        let mut rows = sample();
        rows[1].load_ms = 0.0;
        assert!(validate_amortize_json(&amortize_json(&rows)).is_err());
        // Empty entry list / truncated document.
        let mut empty = amortize_json(&[]);
        assert!(validate_amortize_json(&empty).is_err());
        empty.truncate(empty.len() / 2);
        assert!(validate_amortize_json(&empty).is_err());
    }

    #[test]
    fn committed_artifact_validates_and_amortizes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_amortize.json");
        let json =
            std::fs::read_to_string(path).expect("BENCH_amortize.json committed at repo root");
        let entries =
            validate_amortize_json(&json).expect("committed artifact is valid spsep-amortize/v1");
        assert_eq!(entries, 5, "one row per family");
        // The serving layer's claim, as measured on the committed run:
        // loading a snapshot beats re-preprocessing on every family.
        for r in read_amortize_json(&json).unwrap() {
            assert!(
                r.amortization > 1.0,
                "{}: load ({} ms) is not cheaper than prepare ({} ms)",
                r.family,
                r.load_ms,
                r.prepare_ms
            );
        }
    }

    #[test]
    fn e18_smoke_covers_every_family() {
        let (report, records) = e18_amortization(true);
        assert_eq!(records.len(), 5, "{report}");
        for r in &records {
            assert!(r.bit_identical, "{}: snapshot round-trip diverged", r.family);
            assert!(r.snap_bytes > 0, "{}: empty snapshot", r.family);
            assert!(r.prepare_ms > 0.0 && r.load_ms > 0.0, "{}: empty timings", r.family);
        }
        let json = amortize_json(&records);
        assert_eq!(validate_amortize_json(&json), Ok(5));
    }
}
