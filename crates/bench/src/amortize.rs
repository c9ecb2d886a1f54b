//! E18 — snapshot amortization: prepare-once vs load-and-serve.
//!
//! The serving layer (`spsep_core::oracle`, DESIGN.md §10) claims that
//! reloading a persisted `spsep-oracle/v2` snapshot is much cheaper than
//! re-running the Sections 3–5 preprocessing. E18 measures that claim
//! per family: full preprocessing wall-clock, snapshot size, snapshot
//! load wall-clock (`Oracle::load_path` on a real temp file: mmap +
//! checksums + validation sweep, best of `LOAD_REPS`), the
//! prepare/load speedup, and the cost of one cold scheduled query from
//! the loaded oracle. Every row also re-checks that the loaded oracle
//! is slab-backed (it serves straight out of the mapping on platforms
//! with mmap) and the bit-identity contract (full loaded rows == fresh
//! rows, compared via `to_bits`). [`check_amortization`] turns those
//! flags and the speedup itself into a pass/fail verdict that the
//! `tables` binary and the smoke test both enforce.

use crate::families::Family;
use crate::{fmt_f, Table};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use std::time::Instant;

/// Load repetitions per family; the recorded wall-clock is the minimum,
/// the standard estimator for a deterministic operation's cost
/// (everything above the minimum is scheduling noise).
const LOAD_REPS: usize = 5;

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
    /// `Oracle::load_path` wall-clock (mmap + checksums + validation
    /// sweep), ms (best of `LOAD_REPS`).
    pub load_ms: f64,
    /// One cold scheduled point query from the loaded oracle, µs
    /// (mean over distinct sources).
    pub query_us: f64,
    /// `prepare_ms / load_ms`: how many times cheaper reloading is.
    pub amortization: f64,
    /// The loaded oracle reported `is_slab_backed()` — it serves
    /// straight out of the mapping, no owned copy.
    pub slab_backed: bool,
    /// Loaded answers are bit-identical to freshly prepared ones.
    pub bit_identical: bool,
}

/// E18 — measure the prepare/load amortization for every family.
/// Returns the rendered report plus the raw records.
///
/// `smoke` shrinks the instances so CI exercises the full pipeline
/// (prepare → save → load → query) in seconds.
pub fn e18_amortization(smoke: bool) -> (String, Vec<AmortRecord>) {
    let n_target = if smoke { 240 } else { 1024 };
    let mut records = Vec::new();
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    for family in Family::all() {
        let (g, tree) = family.instance(n_target, 18);
        let (n, m) = (g.n(), g.m());

        let t0 = Instant::now();
        let fresh = Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", family.slug()));
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut snapshot = Vec::new();
        fresh
            .save_v2(&mut snapshot)
            .unwrap_or_else(|e| panic!("{}: save_v2 failed: {e}", family.slug()));
        let path = dir.join(format!("spsep-e18-{tag}-{}.sps", family.slug()));
        std::fs::write(&path, &snapshot)
            .unwrap_or_else(|e| panic!("{}: cannot write temp snapshot: {e}", family.slug()));

        // Best-of-N loads through the one entry point the CLI uses.
        let mut load_ms = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..LOAD_REPS {
            let t1 = Instant::now();
            let oracle = Oracle::load_path(&path)
                .unwrap_or_else(|e| panic!("{}: load failed: {e}", family.slug()));
            load_ms = load_ms.min(t1.elapsed().as_secs_f64() * 1e3);
            loaded = Some(oracle);
        }
        let served = loaded.expect("LOAD_REPS > 0");

        // Cold point queries from distinct sources (every one a cache
        // miss → one full scheduled run each) …
        let metrics = Metrics::new();
        let sources: Vec<usize> = (0..8).map(|i| i * n / 8).collect();
        let t2 = Instant::now();
        for &s in &sources {
            served
                .distance(s, (s + n / 2) % n, &metrics)
                .unwrap_or_else(|e| panic!("{}: query failed: {e}", family.slug()));
        }
        let query_us = t2.elapsed().as_secs_f64() * 1e6 / sources.len() as f64;
        // … and the full-row bit-identity cross-check against the
        // freshly prepared oracle.
        let bit_identical = sources.iter().all(|&s| {
            let got = served.source_table(s, &metrics);
            let want = fresh.source_table(s, &metrics);
            matches!((got, want), (Ok(a), Ok(b))
                if a.len() == b.len()
                    && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()))
        });
        let slab_backed = served.is_slab_backed();
        // The mapping borrows the file; drop the oracle before deleting.
        drop(served);
        let _ = std::fs::remove_file(&path);

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
            slab_backed,
            bit_identical,
        });
    }

    let mut out = format!(
        "E18 — oracle snapshot amortization (n≈{n_target} per family): \
         full preprocessing vs `spsep-oracle/v2` snapshot reload \
         (`Oracle::load_path`, best of {LOAD_REPS}), and one cold scheduled \
         query from the reloaded oracle.\n\n",
    );
    out.push_str(&render(&records));
    (out, records)
}

fn render(records: &[AmortRecord]) -> String {
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
        "load",
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
            if r.slab_backed { "mmap" } else { "copy" }.into(),
        ]);
    }
    t.render()
}

/// The claims every E18 run must uphold: one row per family, each with
/// a non-empty snapshot, positive finite timings, a slab-backed load
/// (on platforms with mmap), answers bit-identical to fresh
/// preprocessing, and a load that beats preparing. The speedup is
/// claimed at both sizes: even the smoke instances in a debug build
/// load several times faster than they prepare.
pub fn check_amortization(records: &[AmortRecord]) -> Result<(), String> {
    if records.len() != Family::all().len() {
        return Err(format!(
            "{} rows for {} families",
            records.len(),
            Family::all().len()
        ));
    }
    for r in records {
        let fail = |msg: String| Err(format!("{}: {msg}", r.family));
        if r.n == 0 || r.m == 0 || r.snap_bytes == 0 {
            return fail("empty instance or snapshot".into());
        }
        let timings = [r.prepare_ms, r.load_ms, r.query_us];
        if !timings.iter().all(|t| t.is_finite() && *t > 0.0) {
            return fail(format!("non-positive timing in {timings:?}"));
        }
        if !r.bit_identical {
            return fail("snapshot round-trip diverged from fresh preprocessing".into());
        }
        if cfg!(unix) && !r.slab_backed {
            return fail("the load copied instead of mapping".into());
        }
        if r.amortization <= 1.0 {
            return fail(format!(
                "load ({} ms) is not cheaper than prepare ({} ms)",
                r.load_ms, r.prepare_ms
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<AmortRecord> {
        Family::all()
            .iter()
            .map(|f| AmortRecord {
                family: f.slug().into(),
                n: 1024,
                m: 3968,
                eplus: 5000,
                snap_bytes: 150_000,
                prepare_ms: 42.0,
                load_ms: 2.0,
                query_us: 180.0,
                amortization: 21.0,
                slab_backed: true,
                bit_identical: true,
            })
            .collect()
    }

    #[test]
    fn check_rejects_each_broken_claim() {
        assert_eq!(check_amortization(&sample()), Ok(()));
        let broken: [fn(&mut AmortRecord); 5] = [
            |r| r.bit_identical = false,
            |r| r.snap_bytes = 0,
            |r| r.load_ms = 0.0,
            |r| r.query_us = f64::NAN,
            |r| r.amortization = 0.9,
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut rows = sample();
            breaks(&mut rows[2]);
            assert!(check_amortization(&rows).is_err(), "case {i}");
        }
        // A copying load fails wherever a mapping is possible.
        let mut rows = sample();
        rows[0].slab_backed = false;
        assert_eq!(check_amortization(&rows).is_err(), cfg!(unix));
        // One row per family.
        assert!(check_amortization(&sample()[1..]).is_err());
    }

    #[test]
    fn e18_smoke_covers_every_family() {
        let (report, records) = e18_amortization(true);
        if let Err(e) = check_amortization(&records) {
            panic!("{e}\n{report}");
        }
    }
}
