//! E23 — separator quality on a real road-network instance, plus the
//! `BENCH_sep.json` artifact (schema `spsep-sep-bench/v1`).
//!
//! ISSUE 10 / ROADMAP item 3: every earlier table ran on synthetic
//! families ≤ ~1.5k nodes, so the c·√k balanced-separator claim — the
//! quantity every preprocessing bound in the paper is written in — was
//! never measured on the workload the paper targets (§6: near-planar
//! road networks). E23 decomposes the committed `data/road-160x150.gr`
//! instance (regenerated bit-exactly from its seed) with both applicable
//! builders:
//!
//! * `bfs`   — the general-purpose BFS-level builder (`-b bfs`);
//! * `level` — the embedding-free BFS-level + fundamental-cycle builder
//!   (`planar_level_tree`, Lipton–Tarjan shape; what `-b auto` selects
//!   on this instance);
//!
//! and reports, per builder, the [`spsep_separator::QualityReport`]
//! numbers (one shared implementation with `spsep-cli info` — another
//! ISSUE 10 satellite) plus end-to-end prepare and per-source query
//! wall-clocks. The validator *encodes the acceptance bar*: the
//! `level` builder must meet the `c ≤ 4.0` √-bound and its `E⁺`
//! candidate mass must be strictly smaller than `bfs`'s on the same
//! instance — an artifact recording a regression can never validate,
//! and the committed-artifact test re-checks it on every CI run.
//!
//! Same no-serde discipline as E18 and E21: hand-rolled writer,
//! [`spsep_trace::json`] re-parse, validation before the `tables` binary
//! writes anything.

use crate::{fmt_f, Table};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::planar::road_network;
use spsep_separator::{planar_level_tree, separator_quality, RecursionLimits, SepTree};
use spsep_trace::json::{field, parse_json, Json};
use std::time::Instant;

/// The √-bound the improved builder is held to: `|S(t)| ≤ 4·√|V(t)|`
/// at every internal node. (Lipton–Tarjan proves ~2.83·√n for true
/// planar separators; 4.0 leaves headroom for the two-level shape
/// while staying an honest constant-factor claim.)
pub const C_BOUND: f64 = 4.0;

/// The committed road instance: `road_network(160, 150, 20260808)`,
/// checked in as `data/road-160x150.gr` (see `data/README.md`).
pub const ROAD_FULL: (usize, usize, u64) = (160, 150, 20260808);

/// The CI smoke instance: same generator, 1 200 nodes.
pub const ROAD_SMOKE: (usize, usize, u64) = (40, 30, 20260808);

/// Sources timed per builder for the per-query column.
const QUERY_SOURCES: usize = 4;

/// One (instance, builder) measurement.
pub struct SepRecord {
    /// Builder slug: `bfs` or `level`.
    pub builder: String,
    /// Instance vertices.
    pub n: usize,
    /// Instance arcs.
    pub m: usize,
    /// Tree height `d_G`.
    pub height: u32,
    /// Max `|S(t)|` over all tree nodes.
    pub max_sep: usize,
    /// `|S(root)|`.
    pub root_sep: usize,
    /// `Σ_t |S(t)|`.
    pub total_sep: usize,
    /// Measured `c = max |S(t)| / √|V(t)|` over internal nodes.
    pub sqrt_c: f64,
    /// Max `max(|V(c₁)|,|V(c₂)|) / |V(t)|` over internal nodes.
    pub balance: f64,
    /// `Σ_t (|S(t)|² + |B(t)|²)` — Theorem 5.1(iii) candidate bound.
    pub eplus_candidates: usize,
    /// Full `Oracle::prepare` wall-clock (validate + augment +
    /// compile), ms.
    pub prepare_ms: f64,
    /// Mean `source_table` wall-clock over `QUERY_SOURCES` distinct
    /// cold sources, ms.
    pub query_ms: f64,
    /// `sqrt_c ≤ C_BOUND`.
    pub meets_bound: bool,
}

/// E23 — measure both builders on the road instance. Returns the
/// rendered report plus the raw records for the JSON artifact.
///
/// `smoke` swaps the committed 24 000-node instance for a 1 200-node
/// one so CI exercises the full pipeline (generate → decompose ×2 →
/// validate → prepare → query → serialize → validate) in seconds.
pub fn e23_separators(smoke: bool) -> (String, Vec<SepRecord>) {
    let (w, h, seed) = if smoke { ROAD_SMOKE } else { ROAD_FULL };
    let (g, _, _) = road_network(w, h, seed);
    let adj = g.undirected_skeleton();
    let builders: Vec<(&str, SepTree)> = vec![
        (
            "bfs",
            spsep_separator::builders::bfs_tree(&adj, RecursionLimits::default()),
        ),
        ("level", planar_level_tree(&adj, RecursionLimits::default())),
    ];
    let mut records = Vec::new();
    for (slug, tree) in builders {
        tree.validate(&adj)
            .unwrap_or_else(|e| panic!("{slug}: invalid decomposition: {e}"));
        let q = separator_quality(&tree);
        let t0 = Instant::now();
        let oracle = Oracle::prepare(g.clone(), tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("{slug}: prepare failed: {e}"));
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Distinct cold sources: the LRU row cache never hits, so this
        // is the uncached scheduled-query cost an operator plans for.
        let metrics = Metrics::new();
        let t0 = Instant::now();
        for i in 0..QUERY_SOURCES {
            let s = i * g.n() / QUERY_SOURCES;
            let row = oracle
                .source_table(s, &metrics)
                .unwrap_or_else(|e| panic!("{slug}: query failed: {e}"));
            assert_eq!(row.len(), g.n());
        }
        let query_ms = t0.elapsed().as_secs_f64() * 1e3 / QUERY_SOURCES as f64;
        records.push(SepRecord {
            builder: slug.to_owned(),
            n: g.n(),
            m: g.m(),
            height: q.height,
            max_sep: q.max_separator,
            root_sep: q.root_separator,
            total_sep: q.total_separator,
            sqrt_c: q.sqrt_coefficient,
            balance: q.balance,
            eplus_candidates: q.eplus_candidates,
            prepare_ms,
            query_ms,
            meets_bound: q.meets_sqrt_bound(C_BOUND),
        });
    }
    let mut out = format!(
        "E23 — separator quality on the road instance \
         road_network({w}, {h}, {seed}) (n = {}, m = {}): the general \
         BFS builder vs the embedding-free Lipton–Tarjan-shaped \
         level+cycle builder, measured against the c·√k bound (c ≤ {C_BOUND}).\n\n",
        g.n(),
        g.m()
    );
    out.push_str(&render_sep_table(&records));
    (out, records)
}

/// Render the E23 view.
pub fn render_sep_table(records: &[SepRecord]) -> String {
    let mut t = Table::new(&[
        "builder",
        "n",
        "height",
        "max|S|",
        "root|S|",
        "Σ|S|",
        "c=|S|/√k",
        "balance",
        "E+cand",
        "prepare_ms",
        "query_ms",
        "c≤4.0",
    ]);
    for r in records {
        t.row(vec![
            r.builder.clone(),
            r.n.to_string(),
            r.height.to_string(),
            r.max_sep.to_string(),
            r.root_sep.to_string(),
            r.total_sep.to_string(),
            format!("{:.3}", r.sqrt_c),
            format!("{:.3}", r.balance),
            r.eplus_candidates.to_string(),
            fmt_f(r.prepare_ms),
            fmt_f(r.query_ms),
            if r.meets_bound { "yes" } else { "NO" }.into(),
        ]);
    }
    t.render()
}

/// Serialize records as `spsep-sep-bench/v1` JSON.
pub fn sep_json(records: &[SepRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-sep-bench/v1\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!("  \"c_bound\": {C_BOUND},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"builder\": \"{}\", \"n\": {}, \"m\": {}, \
             \"height\": {}, \"max_sep\": {}, \"root_sep\": {}, \
             \"total_sep\": {}, \"sqrt_c\": {:.4}, \"balance\": {:.4}, \
             \"eplus_candidates\": {}, \"prepare_ms\": {:.4}, \
             \"query_ms\": {:.4}, \"meets_bound\": {}}}{}\n",
            r.builder,
            r.n,
            r.m,
            r.height,
            r.max_sep,
            r.root_sep,
            r.total_sep,
            r.sqrt_c,
            r.balance,
            r.eplus_candidates,
            r.prepare_ms,
            r.query_ms,
            r.meets_bound,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse a validated `spsep-sep-bench/v1` document back into records —
/// the `tables e23 --sep-in` path that renders the committed artifact
/// without re-measuring.
pub fn read_sep_json(json: &str) -> Result<Vec<SepRecord>, String> {
    validate_sep_json(json)?;
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
        let builder = match field(e, "builder") {
            Ok(Json::Str(v)) => v.clone(),
            _ => unreachable!("validated above"),
        };
        out.push(SepRecord {
            builder,
            n: num("n") as usize,
            m: num("m") as usize,
            height: num("height") as u32,
            max_sep: num("max_sep") as usize,
            root_sep: num("root_sep") as usize,
            total_sep: num("total_sep") as usize,
            sqrt_c: num("sqrt_c"),
            balance: num("balance"),
            eplus_candidates: num("eplus_candidates") as usize,
            prepare_ms: num("prepare_ms"),
            query_ms: num("query_ms"),
            meets_bound: matches!(field(e, "meets_bound"), Ok(Json::Bool(true))),
        });
    }
    Ok(out)
}

/// Validate a `spsep-sep-bench/v1` document. Returns the entry count.
///
/// Beyond structure and per-entry sanity (positive sizes, finite
/// timings, `meets_bound` consistent with `sqrt_c` vs `c_bound`,
/// `max_sep ≥ root_sep`, balance in `(0, 1]`), this encodes the
/// acceptance bar as a cross-entry invariant: for every instance
/// size `n` present, the `level` builder must (a) meet the √-bound and
/// (b) have a strictly smaller `eplus_candidates` than the `bfs`
/// builder. An artifact recording a separator-quality regression can
/// never validate, so it can never be committed.
pub fn validate_sep_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-sep-bench/v1" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let Json::Num(cores) = field(&top, "host_cores")? else {
        return Err("`host_cores` must be a number".into());
    };
    if *cores < 1.0 {
        return Err("`host_cores` must be >= 1".into());
    }
    let Json::Num(c_bound) = field(&top, "c_bound")? else {
        return Err("`c_bound` must be a number".into());
    };
    let c_bound = *c_bound;
    if !(c_bound.is_finite() && c_bound > 0.0) {
        return Err("`c_bound` must be a finite positive number".into());
    }
    let Json::Arr(entries) = field(&top, "entries")? else {
        return Err("`entries` must be an array".into());
    };
    if entries.is_empty() {
        return Err("`entries` is empty".into());
    }
    // (n, builder) -> eplus_candidates and the level builder's bound
    // flag, for the cross-entry acceptance check.
    let mut bfs_eplus: Vec<(usize, usize)> = Vec::new();
    let mut level_rows: Vec<(usize, usize, bool)> = Vec::new();
    for (idx, e) in entries.iter().enumerate() {
        let Json::Obj(e) = e else {
            return Err(format!("entry {idx} is not an object"));
        };
        let ctx = |msg: &str| format!("entry {idx}: {msg}");
        let builder = match field(e, "builder").map_err(|m| ctx(&m))? {
            Json::Str(s) if matches!(s.as_str(), "bfs" | "level") => s.clone(),
            _ => return Err(ctx("`builder` must be one of bfs|level")),
        };
        let int = |key: &str| -> Result<usize, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as usize),
                _ => Err(ctx(&format!("`{key}` must be a non-negative integer"))),
            }
        };
        let n = int("n")?;
        let m = int("m")?;
        if n < 2 || m < 1 {
            return Err(ctx("instance too small to mean anything"));
        }
        let height = int("height")?;
        let max_sep = int("max_sep")?;
        let root_sep = int("root_sep")?;
        let total_sep = int("total_sep")?;
        let eplus = int("eplus_candidates")?;
        if height < 1 || max_sep < 1 || eplus < 1 {
            return Err(ctx("degenerate decomposition (height/max_sep/eplus = 0)"));
        }
        if max_sep < root_sep {
            return Err(ctx("`max_sep` < `root_sep`"));
        }
        if total_sep < max_sep {
            return Err(ctx("`total_sep` < `max_sep`"));
        }
        let num = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if v.is_finite() && *v > 0.0 => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a finite positive number"))),
            }
        };
        let sqrt_c = num("sqrt_c")?;
        let balance = num("balance")?;
        if balance > 1.0 {
            return Err(ctx("`balance` must be in (0, 1]"));
        }
        let _prepare_ms = num("prepare_ms")?;
        let _query_ms = num("query_ms")?;
        let meets = match field(e, "meets_bound").map_err(|m| ctx(&m))? {
            Json::Bool(b) => *b,
            _ => return Err(ctx("`meets_bound` must be a boolean")),
        };
        // The flag must be consistent with the numbers it summarizes
        // (tolerance for the 4-decimal rounding of sqrt_c).
        if meets != (sqrt_c <= c_bound + 1e-3) {
            return Err(ctx(&format!(
                "`meets_bound` = {meets} inconsistent with sqrt_c = {sqrt_c} vs c_bound = {c_bound}"
            )));
        }
        match builder.as_str() {
            "bfs" => bfs_eplus.push((n, eplus)),
            _ => level_rows.push((n, eplus, meets)),
        }
    }
    // The acceptance bar: on every instance the planar builder
    // must meet the bound and need fewer `E⁺` candidates than BFS.
    for &(n, level_eplus, meets) in &level_rows {
        if !meets {
            return Err(format!(
                "level builder misses the √-bound on the n = {n} instance"
            ));
        }
        if let Some(&(_, bfs)) = bfs_eplus.iter().find(|&&(bn, _)| bn == n) {
            if level_eplus >= bfs {
                return Err(format!(
                    "level builder eplus_candidates {level_eplus} is not strictly \
                     below bfs's {bfs} on the n = {n} instance"
                ));
            }
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SepRecord> {
        let row = |builder: &str, max_sep: usize, sqrt_c: f64, eplus: usize| SepRecord {
            builder: builder.into(),
            n: 24_000,
            m: 142_762,
            height: 20,
            max_sep,
            root_sep: max_sep,
            total_sep: 10 * max_sep,
            sqrt_c,
            balance: 0.99,
            eplus_candidates: eplus,
            prepare_ms: 1800.0,
            query_ms: 10.0,
            meets_bound: sqrt_c <= C_BOUND,
        };
        vec![
            row("bfs", 216, 2.1, 7_443_339),
            row("level", 211, 1.7, 6_269_901),
        ]
    }

    #[test]
    fn writer_output_validates_and_roundtrips() {
        let rows = sample();
        let json = sep_json(&rows);
        assert_eq!(validate_sep_json(&json), Ok(2));
        let back = read_sep_json(&json).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.builder, b.builder);
            assert_eq!(
                (a.n, a.m, a.max_sep, a.total_sep),
                (b.n, b.m, b.max_sep, b.total_sep)
            );
            assert!((a.sqrt_c - b.sqrt_c).abs() < 1e-6);
            assert_eq!(a.meets_bound, b.meets_bound);
        }
        let view = render_sep_table(&back);
        assert!(view.contains("level"), "{view}");
        assert!(view.contains("c=|S|/√k"), "{view}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_sep_json("").is_err());
        assert!(validate_sep_json("[]").is_err());
        assert!(validate_sep_json("{\"schema\": \"other/v9\"}").is_err());
        let good = sep_json(&sample());
        assert!(validate_sep_json(&good.replace("spsep-sep-bench/v1", "nope")).is_err());
        // Unknown builder slug.
        assert!(validate_sep_json(&good.replace("\"bfs\"", "\"magic\"")).is_err());
        // meets_bound flag contradicting its numbers.
        let mut rows = sample();
        rows[1].meets_bound = false;
        assert!(validate_sep_json(&sep_json(&rows)).is_err());
        // Level builder missing the bound.
        let mut rows = sample();
        rows[1].sqrt_c = C_BOUND + 1.0;
        rows[1].meets_bound = false;
        assert!(validate_sep_json(&sep_json(&rows)).is_err());
        // Level builder not strictly below bfs on E⁺ candidates: the
        // acceptance bar is enforced at validation time.
        let mut rows = sample();
        rows[1].eplus_candidates = rows[0].eplus_candidates;
        assert!(validate_sep_json(&sep_json(&rows)).is_err());
        // Structural nonsense.
        let mut rows = sample();
        rows[0].root_sep = rows[0].max_sep + 1;
        assert!(validate_sep_json(&sep_json(&rows)).is_err());
        let mut rows = sample();
        rows[0].balance = 1.5;
        assert!(validate_sep_json(&sep_json(&rows)).is_err());
        // Truncated document.
        let mut cut = good;
        cut.truncate(cut.len() / 2);
        assert!(validate_sep_json(&cut).is_err());
    }

    #[test]
    fn committed_artifact_validates_and_level_wins() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sep.json");
        let json = std::fs::read_to_string(path).expect("BENCH_sep.json committed at repo root");
        let entries =
            validate_sep_json(&json).expect("committed artifact is valid spsep-sep-bench/v1");
        assert_eq!(entries, 2, "one row per builder");
        let rows = read_sep_json(&json).unwrap();
        // The committed run is the full 24 000-node road instance.
        for r in &rows {
            assert_eq!(
                r.n, 24_000,
                "{}: committed run must be the full instance",
                r.builder
            );
        }
        // The headline numbers (the validator already enforced the
        // acceptance bar; restate it here so a failure names the
        // builders involved).
        let get = |slug: &str| {
            rows.iter()
                .find(|r| r.builder == slug)
                .unwrap_or_else(|| panic!("missing {slug} row"))
        };
        let (bfs, level) = (get("bfs"), get("level"));
        assert!(
            level.eplus_candidates < bfs.eplus_candidates,
            "level {} vs bfs {}",
            level.eplus_candidates,
            bfs.eplus_candidates
        );
        assert!(level.meets_bound);
    }

    #[test]
    fn e23_smoke_covers_every_builder() {
        let (report, records) = e23_separators(true);
        assert_eq!(records.len(), 2, "{report}");
        let (w, h, _) = ROAD_SMOKE;
        for r in &records {
            assert_eq!(r.n, w * h);
            assert!(r.max_sep >= 1 && r.total_sep >= r.max_sep, "{}", r.builder);
            assert!(r.prepare_ms > 0.0 && r.query_ms > 0.0, "{}", r.builder);
            assert!(r.balance > 0.0 && r.balance <= 1.0, "{}", r.builder);
        }
        // The planar builder must already win at smoke scale.
        let json = sep_json(&records);
        assert_eq!(validate_sep_json(&json), Ok(2));
    }
}
