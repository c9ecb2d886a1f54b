//! E19 — daemon serving latency under chaos load, plus the
//! `BENCH_serve.json` artifact (schema `spsep-serve-bench/v1`).
//!
//! The query daemon (`spsep_serve`, DESIGN.md §11) claims it sustains a
//! mixed open-loop load with protocol chaos injected, without panics,
//! hangs, or wrong answers, and that its admission control and
//! graceful-shutdown paths only ever produce typed errors. E19 measures
//! that claim at 1, 2, 4, and 8 workers against an in-process daemon:
//! client-side latency percentiles (open-loop, measured from the
//! scheduled arrival, so coordinated omission cannot flatter the tail),
//! daemon-side queue-wait vs service-time split, the error taxonomy,
//! and the row-cache shard counters. Every answer is verified
//! bit-for-bit against direct `Oracle` calls.
//!
//! Same no-serde discipline as E17–E18: the artifact is written with
//! `format!`, re-parsed by `jsonv`, and validated before the `tables`
//! binary writes it. The validator is deliberately strict about the
//! robustness invariants — a document recording an unhandled chaos
//! injection or a verification mismatch must never validate.

use crate::jsonv::{field, parse_json, Json};
use crate::{fmt_f, Table};
use rand::SeedableRng;
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{run_load, LoadConfig, ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// One measured worker count: client-side and daemon-side view of a
/// chaos load run.
pub struct ServeRecord {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Load duration in seconds.
    pub duration_s: f64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests scheduled (including chaos injections).
    pub scheduled: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Chaos injections sent.
    pub chaos_sent: u64,
    /// Chaos injections that ended in a typed error or clean close.
    pub chaos_handled: u64,
    /// Sustained throughput over the run.
    pub qps: f64,
    /// Client-side latency percentiles, µs (p50, p99, p999), measured
    /// from the scheduled arrival.
    pub latency_us: [f64; 3],
    /// Error taxonomy observed by the harness (wire-error labels,
    /// `io`, plus the always-zero `verify_mismatch`/`chaos_unhandled`).
    pub errors: BTreeMap<String, u64>,
    /// Requests the daemon answered (its own counter).
    pub served: u64,
    /// Connections shed by admission control.
    pub shed: u64,
    /// Daemon-side queue-wait percentiles, µs (p50, p99).
    pub queue_wait_us: [f64; 2],
    /// Daemon-side service-time percentiles, µs (p50, p99).
    pub service_us: [f64; 2],
    /// Row-cache hits across all shards.
    pub cache_hits: u64,
    /// Row-cache misses across all shards.
    pub cache_misses: u64,
    /// Lock shards in the row cache.
    pub cache_shards: u64,
}

/// E19 — run the chaos load against an in-process daemon at every
/// worker count. Returns the rendered report plus the raw records.
///
/// `smoke` shrinks the instance and the load so CI exercises the full
/// pipeline (bind → load → verify → drain → validate) in seconds.
pub fn e19_serve_latency(smoke: bool) -> (String, Vec<ServeRecord>) {
    let dims = if smoke { [8, 8] } else { [16, 16] };
    let (rate, secs) = if smoke { (600.0, 0.5) } else { (2000.0, 2.0) };
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    let oracle = Arc::new(
        Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("e19: prepare failed: {e}")),
    );
    let n = oracle.n();

    let mut records = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let server = Server::bind(
            Arc::clone(&oracle),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("e19: bind failed: {e}"));
        let addr = server.local_addr().unwrap_or_else(|e| panic!("e19: {e}"));
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run());

        let report = run_load(&LoadConfig {
            addr: addr.to_string(),
            rate,
            duration: Duration::from_secs_f64(secs),
            connections: 4,
            n,
            zipf_theta: 0.9,
            chaos: 0.03,
            seed: 0xe19 + workers as u64,
            verify: Some(Arc::clone(&oracle)),
            ..LoadConfig::default()
        })
        .unwrap_or_else(|e| panic!("e19: load against workers={workers} failed: {e}"));

        handle.shutdown();
        let stats = daemon
            .join()
            .unwrap_or_else(|_| panic!("e19: daemon panicked at workers={workers}"))
            .unwrap_or_else(|e| panic!("e19: daemon failed at workers={workers}: {e}"));

        assert_eq!(
            report.chaos_handled, report.chaos_sent,
            "e19: unhandled chaos at workers={workers}: {:?}",
            report.errors
        );
        assert_eq!(
            *report.errors.get("verify_mismatch").unwrap_or(&0),
            0,
            "e19: answers diverged from direct Oracle calls at workers={workers}"
        );

        records.push(ServeRecord {
            workers,
            rate,
            duration_s: secs,
            connections: 4,
            scheduled: report.scheduled,
            ok: report.ok,
            chaos_sent: report.chaos_sent,
            chaos_handled: report.chaos_handled,
            qps: report.qps,
            latency_us: report.latency_us,
            errors: report.errors,
            served: stats.served,
            shed: stats.shed,
            // The wire now carries p50/p99/p999; the v1 artifact schema
            // keeps its original two-percentile shape.
            queue_wait_us: [stats.queue_wait_us[0], stats.queue_wait_us[1]],
            service_us: [stats.service_us[0], stats.service_us[1]],
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_shards: stats.cache_shards as u64,
        });
    }

    let mut out = format!(
        "E19 — daemon serving latency under chaos load (grid {dims:?}, \
         {rate:.0} req/s offered for {secs}s, 4 connections, 3% chaos, \
         zipf 0.9): open-loop client percentiles vs the daemon's own \
         queue-wait/service split; every answer verified bit-for-bit.\n\n",
        dims = dims,
    );
    out.push_str(&render_serve_table(&records));
    (out, records)
}

/// Render the E19 view.
pub fn render_serve_table(records: &[ServeRecord]) -> String {
    let mut t = Table::new(&[
        "workers",
        "qps",
        "ok/sched",
        "chaos",
        "p50_us",
        "p99_us",
        "p999_us",
        "queue_p99",
        "svc_p99",
        "shed",
        "cache_hit%",
    ]);
    for r in records {
        let lookups = r.cache_hits + r.cache_misses;
        let hit = if lookups == 0 {
            0.0
        } else {
            100.0 * r.cache_hits as f64 / lookups as f64
        };
        t.row(vec![
            r.workers.to_string(),
            format!("{:.0}", r.qps),
            format!("{}/{}", r.ok, r.scheduled),
            format!("{}/{}", r.chaos_handled, r.chaos_sent),
            fmt_f(r.latency_us[0]),
            fmt_f(r.latency_us[1]),
            fmt_f(r.latency_us[2]),
            fmt_f(r.queue_wait_us[1]),
            fmt_f(r.service_us[1]),
            r.shed.to_string(),
            format!("{hit:.1}"),
        ]);
    }
    t.render()
}

/// Serialize records as `spsep-serve-bench/v1` JSON.
pub fn serve_json(records: &[ServeRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = String::from("{\n  \"schema\": \"spsep-serve-bench/v1\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        let mut errors = String::from("{");
        for (j, (name, count)) in r.errors.iter().enumerate() {
            if j > 0 {
                errors.push_str(", ");
            }
            errors.push_str(&format!("\"{name}\": {count}"));
        }
        errors.push('}');
        s.push_str(&format!(
            "    {{\"workers\": {}, \"rate\": {:.1}, \"duration_s\": {:.3}, \
             \"connections\": {}, \"scheduled\": {}, \"ok\": {}, \
             \"chaos_sent\": {}, \"chaos_handled\": {}, \"qps\": {:.2}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \
             \"errors\": {}, \"served\": {}, \"shed\": {}, \
             \"queue_p50_us\": {:.2}, \"queue_p99_us\": {:.2}, \
             \"service_p50_us\": {:.2}, \"service_p99_us\": {:.2}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_shards\": {}}}{}\n",
            r.workers,
            r.rate,
            r.duration_s,
            r.connections,
            r.scheduled,
            r.ok,
            r.chaos_sent,
            r.chaos_handled,
            r.qps,
            r.latency_us[0],
            r.latency_us[1],
            r.latency_us[2],
            errors,
            r.served,
            r.shed,
            r.queue_wait_us[0],
            r.queue_wait_us[1],
            r.service_us[0],
            r.service_us[1],
            r.cache_hits,
            r.cache_misses,
            r.cache_shards,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse a validated `spsep-serve-bench/v1` document back into records
/// — the `tables e19 --serve-in` path that renders the committed
/// artifact without re-measuring.
pub fn read_serve_json(json: &str) -> Result<Vec<ServeRecord>, String> {
    validate_serve_json(json)?;
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
        let mut errors = BTreeMap::new();
        if let Ok(Json::Obj(map)) = field(e, "errors") {
            for (name, v) in map {
                let Json::Num(count) = v else {
                    unreachable!("validated above")
                };
                errors.insert(name.clone(), *count as u64);
            }
        }
        out.push(ServeRecord {
            workers: num("workers") as usize,
            rate: num("rate"),
            duration_s: num("duration_s"),
            connections: num("connections") as usize,
            scheduled: num("scheduled") as u64,
            ok: num("ok") as u64,
            chaos_sent: num("chaos_sent") as u64,
            chaos_handled: num("chaos_handled") as u64,
            qps: num("qps"),
            latency_us: [num("p50_us"), num("p99_us"), num("p999_us")],
            errors,
            served: num("served") as u64,
            shed: num("shed") as u64,
            queue_wait_us: [num("queue_p50_us"), num("queue_p99_us")],
            service_us: [num("service_p50_us"), num("service_p99_us")],
            cache_hits: num("cache_hits") as u64,
            cache_misses: num("cache_misses") as u64,
            cache_shards: num("cache_shards") as u64,
        });
    }
    Ok(out)
}

/// Validate a `spsep-serve-bench/v1` document. Returns the entry count.
///
/// Beyond structure and types, this enforces the robustness invariants
/// the daemon is benchmarked on: every chaos injection handled, zero
/// verification mismatches, zero unhandled chaos, `ok ≤ scheduled`,
/// monotone latency percentiles, and a positive throughput. An
/// artifact violating any of these must never validate (and therefore
/// never be committed).
pub fn validate_serve_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-serve-bench/v1" => {}
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
        let int = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a non-negative integer"))),
            }
        };
        let fin = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.is_finite() => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a finite non-negative number"))),
            }
        };
        let workers = int("workers")?;
        if workers < 1.0 {
            return Err(ctx("`workers` must be >= 1"));
        }
        for key in ["rate", "duration_s"] {
            if fin(key)? <= 0.0 {
                return Err(ctx(&format!("`{key}` must be positive")));
            }
        }
        if int("connections")? < 1.0 {
            return Err(ctx("`connections` must be >= 1"));
        }
        let scheduled = int("scheduled")?;
        let ok = int("ok")?;
        if scheduled < 1.0 {
            return Err(ctx("`scheduled` must be >= 1"));
        }
        if ok > scheduled {
            return Err(ctx("`ok` exceeds `scheduled`"));
        }
        let chaos_sent = int("chaos_sent")?;
        let chaos_handled = int("chaos_handled")?;
        if chaos_handled != chaos_sent {
            return Err(ctx(&format!(
                "unhandled chaos injections: {chaos_handled} of {chaos_sent} handled"
            )));
        }
        if fin("qps")? <= 0.0 {
            return Err(ctx("`qps` must be positive"));
        }
        let p50 = fin("p50_us")?;
        let p99 = fin("p99_us")?;
        let p999 = fin("p999_us")?;
        if !(p50 <= p99 && p99 <= p999) {
            return Err(ctx("latency percentiles must be monotone (p50 <= p99 <= p999)"));
        }
        if fin("queue_p50_us")? > fin("queue_p99_us")? {
            return Err(ctx("queue-wait percentiles must be monotone"));
        }
        if fin("service_p50_us")? > fin("service_p99_us")? {
            return Err(ctx("service-time percentiles must be monotone"));
        }
        if int("served")? < 1.0 {
            return Err(ctx("`served` must be >= 1"));
        }
        int("shed")?;
        int("cache_hits")?;
        int("cache_misses")?;
        if int("cache_shards")? < 1.0 {
            return Err(ctx("`cache_shards` must be >= 1"));
        }
        let Json::Obj(errors) = field(e, "errors").map_err(|m| ctx(&m))? else {
            return Err(ctx("`errors` must be an object"));
        };
        for (name, v) in errors {
            match v {
                Json::Num(count) if *count >= 0.0 && count.fract() == 0.0 => {
                    // Robustness invariants: these classes must be zero
                    // in any artifact worth committing.
                    if (name == "verify_mismatch" || name == "chaos_unhandled") && *count > 0.0 {
                        return Err(ctx(&format!("`{name}` is {count}: the run failed")));
                    }
                }
                _ => {
                    return Err(ctx(&format!(
                        "error counter `{name}` must be a non-negative integer"
                    )))
                }
            }
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ServeRecord> {
        let mk = |workers: usize, qps: f64| ServeRecord {
            workers,
            rate: 2000.0,
            duration_s: 2.0,
            connections: 4,
            scheduled: 4000,
            ok: 3890,
            chaos_sent: 110,
            chaos_handled: 110,
            qps,
            latency_us: [180.0, 900.0, 2400.0],
            errors: BTreeMap::from([
                ("io".to_string(), 0),
                ("verify_mismatch".to_string(), 0),
            ]),
            served: 3890,
            shed: 3,
            queue_wait_us: [20.0, 350.0],
            service_us: [100.0, 700.0],
            cache_hits: 3000,
            cache_misses: 890,
            cache_shards: 8,
        };
        vec![mk(1, 1800.0), mk(4, 1950.0)]
    }

    #[test]
    fn writer_output_validates_and_roundtrips() {
        let rows = sample();
        let json = serve_json(&rows);
        assert_eq!(validate_serve_json(&json), Ok(2));
        let back = read_serve_json(&json).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.workers, b.workers);
            assert_eq!((a.scheduled, a.ok), (b.scheduled, b.ok));
            assert_eq!((a.chaos_sent, a.chaos_handled), (b.chaos_sent, b.chaos_handled));
            assert_eq!(a.errors, b.errors);
            assert!((a.qps - b.qps).abs() < 1e-6);
            assert_eq!(a.cache_shards, b.cache_shards);
        }
        let view = render_serve_table(&back);
        assert!(view.contains("queue_p99"), "{view}");
        assert!(view.contains("cache_hit%"), "{view}");
    }

    #[test]
    fn validator_rejects_malformed_and_failed_runs() {
        assert!(validate_serve_json("").is_err());
        assert!(validate_serve_json("[]").is_err());
        assert!(validate_serve_json("{\"schema\": \"other/v9\"}").is_err());
        let good = serve_json(&sample());
        assert!(validate_serve_json(&good.replace("spsep-serve-bench/v1", "x")).is_err());
        // An unhandled chaos injection must never validate.
        let mut rows = sample();
        rows[0].chaos_handled -= 1;
        assert!(validate_serve_json(&serve_json(&rows)).is_err());
        // A verification mismatch must never validate.
        let mut rows = sample();
        rows[1].errors.insert("verify_mismatch".to_string(), 2);
        assert!(validate_serve_json(&serve_json(&rows)).is_err());
        // ok > scheduled is impossible.
        let mut rows = sample();
        rows[0].ok = rows[0].scheduled + 1;
        assert!(validate_serve_json(&serve_json(&rows)).is_err());
        // Non-monotone percentiles.
        let mut rows = sample();
        rows[0].latency_us = [900.0, 180.0, 2400.0];
        assert!(validate_serve_json(&serve_json(&rows)).is_err());
        // Empty entry list / truncated document.
        let mut empty = serve_json(&[]);
        assert!(validate_serve_json(&empty).is_err());
        empty.truncate(empty.len() / 2);
        assert!(validate_serve_json(&empty).is_err());
    }

    #[test]
    fn committed_artifact_validates_and_covers_every_worker_count() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let json =
            std::fs::read_to_string(path).expect("BENCH_serve.json committed at repo root");
        let entries =
            validate_serve_json(&json).expect("committed artifact is valid spsep-serve-bench/v1");
        assert_eq!(entries, 4, "one row per worker count");
        let records = read_serve_json(&json).unwrap();
        let workers: Vec<usize> = records.iter().map(|r| r.workers).collect();
        assert_eq!(workers, vec![1, 2, 4, 8]);
        for r in &records {
            // The acceptance bar, as measured on the committed run: all
            // chaos handled, zero mismatches, healthy traffic served.
            assert_eq!(r.chaos_handled, r.chaos_sent, "workers={}", r.workers);
            assert!(
                r.ok as f64 >= (r.scheduled - r.chaos_sent) as f64 * 0.95,
                "workers={}: only {}/{} ok",
                r.workers,
                r.ok,
                r.scheduled
            );
        }
    }

    #[test]
    fn e19_smoke_runs_the_full_pipeline() {
        let (report, records) = e19_serve_latency(true);
        assert_eq!(records.len(), 4, "{report}");
        for r in &records {
            assert_eq!(r.chaos_handled, r.chaos_sent, "workers={}", r.workers);
            assert!(r.ok > 0, "workers={}: nothing succeeded", r.workers);
            assert!(r.served > 0, "workers={}", r.workers);
        }
        let json = serve_json(&records);
        assert_eq!(validate_serve_json(&json), Ok(4));
    }
}
