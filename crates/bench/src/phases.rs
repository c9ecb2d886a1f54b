//! E17 — per-phase wall-clock breakdown of the full pipeline, plus the
//! `BENCH_phases.json` artifact (schema `spsep-phase-bench/v1`).
//!
//! Each family runs build-tree → preprocess → one query, and the
//! [`spsep_pram::PhaseRecord`] log of the augmentation is bucketed into
//! the pipeline's coarse stages:
//!
//! * `build_tree` — decomposition construction ([`Family::instance_timed`]);
//! * `leaves`     — leaf closures: Alg 4.1's deepest level, or the
//!   init phase of Alg 4.3 / Remark 4.4;
//! * `levels`     — per-level internal-node work (Alg 4.1 levels above
//!   the deepest; Remark 4.4's shared-table construction);
//! * `doubling`   — the squaring rounds of Alg 4.3 / Remark 4.4;
//! * `query`      — one sequential scheduled SSSP run.
//!
//! The workspace has no serde: the artifact is written with
//! `format!`, re-parsed by `jsonv` (the crate-private mini JSON parser), and validated before the
//! `tables` binary writes it.

use crate::families::Family;
use crate::jsonv::{field, parse_json, Json};
use crate::{fmt_f, Table};
use spsep_core::{preprocess, Algorithm};
use spsep_graph::semiring::Tropical;
use spsep_pram::Metrics;
use std::time::Instant;

/// One measured (family, algorithm) pipeline breakdown, milliseconds.
pub struct PhaseBenchRecord {
    /// Machine-readable family slug (`grid2d`, `tree`, …).
    pub family: String,
    /// `alg41`, `alg43`, or `alg44`.
    pub algo: String,
    /// Instance size (vertices).
    pub n: usize,
    /// Decomposition-tree construction.
    pub build_tree_ms: f64,
    /// Leaf closures (Alg 4.1 deepest level / doubling init).
    pub leaves_ms: f64,
    /// Internal-level work (Alg 4.1 upper levels / Remark 4.4 table).
    pub levels_ms: f64,
    /// Path-doubling squaring rounds (zero for Alg 4.1).
    pub doubling_ms: f64,
    /// One scheduled sequential SSSP query.
    pub query_ms: f64,
}

impl PhaseBenchRecord {
    /// Sum of all five phases.
    pub fn total_ms(&self) -> f64 {
        self.build_tree_ms + self.leaves_ms + self.levels_ms + self.doubling_ms + self.query_ms
    }
}

fn algo_slug(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::LeavesUp => "alg41",
        Algorithm::PathDoubling => "alg43",
        Algorithm::SharedDoubling => "alg44",
    }
}

/// Bucket one augmentation phase log into `(leaves_ms, levels_ms,
/// doubling_ms)` by label prefix.
fn bucket_phases(records: &[spsep_pram::PhaseRecord], algo: Algorithm) -> (f64, f64, f64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut leaves = 0.0;
    let mut levels = 0.0;
    let mut doubling = 0.0;
    // Alg 4.1 logs one record per level, deepest first; the deepest
    // level holds the leaf closures (shallower leaves of a ragged tree
    // are attributed to `levels` — a coarse, honest split).
    let deepest = records
        .iter()
        .filter_map(|r| r.label.strip_prefix("alg41/level "))
        .filter_map(|s| s.parse::<u32>().ok())
        .max();
    for r in records {
        let t = ms(r.wall_ns);
        match algo {
            Algorithm::LeavesUp => {
                let depth = r
                    .label
                    .strip_prefix("alg41/level ")
                    .and_then(|s| s.parse::<u32>().ok());
                if depth.is_some() && depth == deepest {
                    leaves += t;
                } else {
                    levels += t;
                }
            }
            Algorithm::PathDoubling | Algorithm::SharedDoubling => {
                if r.label.ends_with("/init") {
                    leaves += t;
                } else if r.label.ends_with("/table") {
                    levels += t;
                } else {
                    doubling += t;
                }
            }
        }
    }
    (leaves, levels, doubling)
}

/// E17 — wall-clock phase breakdown of build-tree / leaves / levels /
/// doubling / query for every family × algorithm. Returns the rendered
/// report plus the raw records for the JSON artifact.
///
/// `smoke` shrinks the instances so CI exercises the full pipeline
/// (measure → bucket → serialize → validate) in seconds.
pub fn e17_phase_breakdown(smoke: bool) -> (String, Vec<PhaseBenchRecord>) {
    let n_target = if smoke { 300 } else { 1500 };
    let mut records = Vec::new();
    for family in Family::all() {
        let (g, tree, build_tree_ms) = family.instance_timed(n_target, 17);
        for algo in [
            Algorithm::LeavesUp,
            Algorithm::PathDoubling,
            Algorithm::SharedDoubling,
        ] {
            let metrics = Metrics::new();
            let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", family.slug(), algo_slug(algo)));
            let (leaves_ms, levels_ms, doubling_ms) =
                bucket_phases(&metrics.phase_records(), algo);
            let t0 = Instant::now();
            let (dist, _) = pre.distances_seq(0);
            let query_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(dist[0] == 0.0, "source distance must be 1̄");
            records.push(PhaseBenchRecord {
                family: family.slug().to_owned(),
                algo: algo_slug(algo).to_owned(),
                n: g.n(),
                build_tree_ms,
                leaves_ms,
                levels_ms,
                doubling_ms,
                query_ms,
            });
        }
    }

    let mut out = format!(
        "E17 — pipeline phase breakdown (wall-clock, n≈{n_target} per \
         family): decomposition build, leaf closures, per-level internal \
         work, doubling rounds, one scheduled query.\n\n",
    );
    out.push_str(&render_phase_table(&records));
    (out, records)
}

/// Render the E17 view: per-family % of wall-clock in each pipeline
/// phase, plus the row total in milliseconds.
pub fn render_phase_table(records: &[PhaseBenchRecord]) -> String {
    let mut t = Table::new(&[
        "family", "algo", "n", "build%", "leaves%", "levels%", "dbl%", "query%", "total_ms",
    ]);
    for r in records {
        let total = r.total_ms().max(1e-9);
        let pct = |x: f64| format!("{:.1}", 100.0 * x / total);
        t.row(vec![
            r.family.clone(),
            r.algo.clone(),
            r.n.to_string(),
            pct(r.build_tree_ms),
            pct(r.leaves_ms),
            pct(r.levels_ms),
            pct(r.doubling_ms),
            pct(r.query_ms),
            fmt_f(r.total_ms()),
        ]);
    }
    t.render()
}

/// Parse a validated `spsep-phase-bench/v1` document back into records —
/// the `tables e17 --phases-in` path that renders the committed artifact
/// without re-measuring.
pub fn read_phases_json(json: &str) -> Result<Vec<PhaseBenchRecord>, String> {
    validate_phases_json(json)?;
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
        let s = |key: &str| -> String {
            match field(e, key) {
                Ok(Json::Str(v)) => v.clone(),
                _ => unreachable!("validated above"),
            }
        };
        let num = |key: &str| -> f64 {
            match field(e, key) {
                Ok(Json::Num(v)) => *v,
                _ => unreachable!("validated above"),
            }
        };
        out.push(PhaseBenchRecord {
            family: s("family"),
            algo: s("algo"),
            n: num("n") as usize,
            build_tree_ms: num("build_tree_ms"),
            leaves_ms: num("leaves_ms"),
            levels_ms: num("levels_ms"),
            doubling_ms: num("doubling_ms"),
            query_ms: num("query_ms"),
        });
    }
    Ok(out)
}

/// Serialize records as `spsep-phase-bench/v1` JSON.
pub fn phases_json(records: &[PhaseBenchRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-phase-bench/v1\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"algo\": \"{}\", \"n\": {}, \
             \"build_tree_ms\": {:.4}, \"leaves_ms\": {:.4}, \
             \"levels_ms\": {:.4}, \"doubling_ms\": {:.4}, \
             \"query_ms\": {:.4}}}{}\n",
            r.family,
            r.algo,
            r.n,
            r.build_tree_ms,
            r.leaves_ms,
            r.levels_ms,
            r.doubling_ms,
            r.query_ms,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validate a `spsep-phase-bench/v1` document. Returns the entry count.
///
/// Checks structure and types, entry-level invariants (known algorithm
/// slugs, positive `n`, finite non-negative phase times), and that the
/// Alg 4.1 rows charge nothing to `doubling_ms`.
pub fn validate_phases_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-phase-bench/v1" => {}
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
        let algo = match field(e, "algo").map_err(|m| ctx(&m))? {
            Json::Str(s) if s == "alg41" || s == "alg43" || s == "alg44" => s.clone(),
            other => return Err(ctx(&format!("unknown algo {other:?}"))),
        };
        match field(e, "n").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v >= 1.0 && v.fract() == 0.0 => {}
            _ => return Err(ctx("`n` must be a positive integer")),
        }
        for key in [
            "build_tree_ms",
            "leaves_ms",
            "levels_ms",
            "doubling_ms",
            "query_ms",
        ] {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.is_finite() => {}
                _ => return Err(ctx(&format!("`{key}` must be a finite non-negative number"))),
            }
        }
        if algo == "alg41" {
            match field(e, "doubling_ms").map_err(|m| ctx(&m))? {
                Json::Num(v) if *v == 0.0 => {}
                _ => return Err(ctx("alg41 has no doubling rounds: `doubling_ms` must be 0")),
            }
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PhaseBenchRecord> {
        vec![
            PhaseBenchRecord {
                family: "grid2d".into(),
                algo: "alg41".into(),
                n: 256,
                build_tree_ms: 0.4,
                leaves_ms: 1.2,
                levels_ms: 0.8,
                doubling_ms: 0.0,
                query_ms: 0.1,
            },
            PhaseBenchRecord {
                family: "grid2d".into(),
                algo: "alg43".into(),
                n: 256,
                build_tree_ms: 0.4,
                leaves_ms: 0.7,
                levels_ms: 0.0,
                doubling_ms: 3.1,
                query_ms: 0.1,
            },
        ]
    }

    #[test]
    fn writer_output_validates() {
        let json = phases_json(&sample());
        assert_eq!(validate_phases_json(&json), Ok(2));
    }

    #[test]
    fn json_roundtrips_through_reader() {
        let rows = sample();
        let back = read_phases_json(&phases_json(&rows)).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.algo, b.algo);
            assert_eq!(a.n, b.n);
            assert!((a.total_ms() - b.total_ms()).abs() < 1e-6);
        }
        let view = render_phase_table(&back);
        assert!(view.contains("grid2d"), "{view}");
        assert!(view.contains("total_ms"), "{view}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_phases_json("").is_err());
        assert!(validate_phases_json("[]").is_err());
        assert!(validate_phases_json("{\"schema\": \"other/v9\"}").is_err());
        let bad = phases_json(&sample()).replace("spsep-phase-bench/v1", "nope");
        assert!(validate_phases_json(&bad).is_err());
        // Unknown algorithm slug.
        let bad = phases_json(&sample()).replace("alg43", "alg99");
        assert!(validate_phases_json(&bad).is_err());
        // Alg 4.1 with doubling time is an attribution bug.
        let mut rows = sample();
        rows[0].doubling_ms = 1.0;
        assert!(validate_phases_json(&phases_json(&rows)).is_err());
        // Empty entry list / truncated document.
        let mut empty = phases_json(&[]);
        assert!(validate_phases_json(&empty).is_err());
        empty.truncate(empty.len() / 2);
        assert!(validate_phases_json(&empty).is_err());
    }

    #[test]
    fn committed_artifact_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phases.json");
        let json =
            std::fs::read_to_string(path).expect("BENCH_phases.json committed at repo root");
        let entries =
            validate_phases_json(&json).expect("committed artifact is valid spsep-phase-bench/v1");
        // 5 families x 3 algorithms.
        assert_eq!(entries, 15);
    }

    #[test]
    fn e17_smoke_covers_every_family_and_algorithm() {
        let (report, records) = e17_phase_breakdown(true);
        assert_eq!(records.len(), 15, "{report}");
        for r in &records {
            assert!(r.total_ms() > 0.0, "{}/{}: empty row", r.family, r.algo);
            // Augmentation work must land in the buckets: every run
            // closes leaves.
            assert!(r.leaves_ms > 0.0, "{}/{}: no leaf time", r.family, r.algo);
            if r.algo == "alg41" {
                assert_eq!(r.doubling_ms, 0.0, "{}: alg41 doubling", r.family);
            } else {
                assert!(r.doubling_ms > 0.0, "{}/{}: no rounds", r.family, r.algo);
            }
        }
        let json = phases_json(&records);
        assert_eq!(validate_phases_json(&json), Ok(15));
    }
}
