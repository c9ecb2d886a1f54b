//! E23 — separator quality on a real road-network instance.
//!
//! Every other table runs on synthetic families ≤ ~1.5k nodes, so the
//! c·√k balanced-separator claim — the quantity every preprocessing
//! bound in the paper is written in — would otherwise go unmeasured on
//! the workload the paper targets (§6: near-planar road networks). E23
//! decomposes the committed `data/road-160x150.gr` instance
//! (regenerated bit-exactly from its seed) with both applicable
//! builders:
//!
//! * `bfs`   — the general-purpose BFS-level builder (`-b bfs`);
//! * `level` — the embedding-free BFS-level + fundamental-cycle builder
//!   (`planar_level_tree`, Lipton–Tarjan shape; what `-b auto` selects
//!   on this instance);
//!
//! and reports, per builder, the [`spsep_separator::QualityReport`]
//! numbers (one shared implementation with `spsep-cli info`) plus
//! end-to-end prepare and per-source query wall-clocks.
//! [`check_separators`] *encodes the acceptance bar*: the `level`
//! builder must meet the `c ≤ 4.0` √-bound and its `E⁺` candidate mass
//! must be strictly smaller than `bfs`'s on the same instance. The
//! `tables` binary and the smoke test both enforce it on every run.

use crate::{fmt_f, Table};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::planar::road_network;
use spsep_separator::{planar_level_tree, separator_quality, RecursionLimits, SepTree};
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
/// rendered report plus the raw records.
///
/// `smoke` swaps the committed 24 000-node instance for a 1 200-node
/// one so CI exercises the full pipeline (generate → decompose ×2 →
/// validate → prepare → query) in seconds.
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
    out.push_str(&render(&records));
    (out, records)
}

fn render(records: &[SepRecord]) -> String {
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

/// The claims every E23 run must uphold. Per row: a non-degenerate
/// decomposition with `total_sep ≥ max_sep ≥ root_sep`, balance in
/// `(0, 1]` and positive finite timings. Across rows, the acceptance
/// bar: one `bfs` and one `level` row on one instance, the `level`
/// builder meets the √-bound (`c ≤ C_BOUND`), and its `E⁺` candidate
/// mass is strictly below `bfs`'s.
pub fn check_separators(records: &[SepRecord]) -> Result<(), String> {
    for r in records {
        let fail = |msg: &str| Err(format!("{}: {msg}", r.builder));
        if r.height < 1 || r.max_sep < 1 || r.eplus_candidates < 1 {
            return fail("degenerate decomposition (height/max_sep/eplus = 0)");
        }
        if !(r.total_sep >= r.max_sep && r.max_sep >= r.root_sep) {
            return fail("separator sizes violate total_sep ≥ max_sep ≥ root_sep");
        }
        if !(r.balance > 0.0 && r.balance <= 1.0) {
            return fail("balance outside (0, 1]");
        }
        if ![r.prepare_ms, r.query_ms]
            .iter()
            .all(|t| t.is_finite() && *t > 0.0)
        {
            return fail("non-positive timing");
        }
    }
    let get = |slug: &str| {
        let mut rows = records.iter().filter(|r| r.builder == slug);
        match (rows.next(), rows.next()) {
            (Some(r), None) => Ok(r),
            _ => Err(format!("expected exactly one {slug} row")),
        }
    };
    let (bfs, level) = (get("bfs")?, get("level")?);
    if records.len() != 2 || bfs.n != level.n {
        return Err("expected one bfs and one level row on one instance".into());
    }
    if !level.meets_bound {
        return Err(format!(
            "level builder misses the √-bound: c = {:.3} > {C_BOUND}",
            level.sqrt_c
        ));
    }
    if level.eplus_candidates >= bfs.eplus_candidates {
        return Err(format!(
            "level builder eplus_candidates {} is not strictly below bfs's {}",
            level.eplus_candidates, bfs.eplus_candidates
        ));
    }
    Ok(())
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
    fn check_rejects_each_broken_claim() {
        assert_eq!(check_separators(&sample()), Ok(()));
        let broken: [fn(&mut Vec<SepRecord>); 8] = [
            // Level builder misses the bound.
            |rows| rows[1].meets_bound = false,
            // Level not strictly below bfs on E⁺ candidates.
            |rows| rows[1].eplus_candidates = rows[0].eplus_candidates,
            |rows| rows[0].root_sep = rows[0].max_sep + 1,
            |rows| rows[1].total_sep = rows[1].max_sep - 1,
            |rows| rows[0].balance = 1.5,
            |rows| rows[1].balance = 0.0,
            |rows| rows[0].query_ms = f64::INFINITY,
            |rows| rows[0].builder = "level".into(),
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut rows = sample();
            breaks(&mut rows);
            assert!(check_separators(&rows).is_err(), "case {i}");
        }
        // bfs is not held to the bound.
        let mut rows = sample();
        rows[0].meets_bound = false;
        assert_eq!(check_separators(&rows), Ok(()));
    }

    #[test]
    fn e23_smoke_covers_every_builder() {
        let (report, records) = e23_separators(true);
        let (w, h, _) = ROAD_SMOKE;
        assert!(records.iter().all(|r| r.n == w * h), "{report}");
        // The planar builder must already win at smoke scale.
        if let Err(e) = check_separators(&records) {
            panic!("{e}\n{report}");
        }
    }
}
