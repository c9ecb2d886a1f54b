//! The `spsep-load-report/v1` artifact: one full run of the open-loop
//! load harness (`spsep-cli load --json`), including the daemon's own
//! stats and the Prometheus counter deltas scraped around the run.
//!
//! Written with `format!` (the workspace has no serde), re-parsed by
//! [`spsep_trace::json`], and validated before the CLI writes it. The
//! validator enforces the telemetry invariants a healthy run must
//! satisfy — in particular every scraped counter delta must be
//! non-negative (counters are monotone; a negative delta means the
//! daemon's registry went backwards) and the scraped expositions must
//! have passed the strict Prometheus validator.

use crate::LoadReport;
use spsep_trace::json::{field, parse_json, quote, Json};

/// Serialize a harness run as `spsep-load-report/v1` JSON.
pub fn load_report_json(
    addr: &str,
    rate: f64,
    duration_s: f64,
    connections: usize,
    report: &LoadReport,
) -> String {
    let mut s = String::from("{\n  \"schema\": \"spsep-load-report/v1\",\n  \"addr\": ");
    s.push_str(&quote(addr));
    s.push_str(&format!(
        ",\n  \"rate\": {rate:.1},\n  \"duration_s\": {duration_s:.3},\n  \
         \"connections\": {connections},\n  \"scheduled\": {},\n  \"ok\": {},\n  \
         \"chaos_sent\": {},\n  \"chaos_handled\": {},\n  \"elapsed_s\": {:.3},\n  \
         \"qps\": {:.2},\n  \"p50_us\": {:.2},\n  \"p99_us\": {:.2},\n  \
         \"p999_us\": {:.2},\n",
        report.scheduled,
        report.ok,
        report.chaos_sent,
        report.chaos_handled,
        report.elapsed.as_secs_f64(),
        report.qps,
        report.latency_us[0],
        report.latency_us[1],
        report.latency_us[2],
    ));
    s.push_str("  \"errors\": {");
    for (i, (name, count)) in report.errors.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&quote(name));
        s.push_str(&format!(": {count}"));
    }
    s.push_str("},\n  \"daemon\": ");
    match &report.daemon {
        Some(d) => s.push_str(&format!(
            "{{\"workers\": {}, \"accepted\": {}, \"shed\": {}, \"served\": {}, \
             \"io_errors\": {}, \
             \"queue_p50_us\": {:.2}, \"queue_p99_us\": {:.2}, \"queue_p999_us\": {:.2}, \
             \"service_p50_us\": {:.2}, \"service_p99_us\": {:.2}, \
             \"service_p999_us\": {:.2}, \
             \"cache_hits\": {}, \"cache_misses\": {}}}",
            d.workers,
            d.accepted,
            d.shed,
            d.served,
            d.io_errors,
            d.queue_wait_us[0],
            d.queue_wait_us[1],
            d.queue_wait_us[2],
            d.service_us[0],
            d.service_us[1],
            d.service_us[2],
            d.cache_hits,
            d.cache_misses,
        )),
        None => s.push_str("null"),
    }
    s.push_str(",\n  \"metrics_valid\": ");
    match report.metrics_valid {
        Some(true) => s.push_str("true"),
        Some(false) => s.push_str("false"),
        None => s.push_str("null"),
    }
    s.push_str(",\n  \"metrics_delta\": {");
    for (i, (id, delta)) in report.metrics_delta.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str("\n    ");
        s.push_str(&quote(id));
        s.push_str(&format!(": {delta}"));
    }
    if !report.metrics_delta.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("}\n}\n");
    s
}

/// Validate a `spsep-load-report/v1` document.
///
/// Beyond structure, this enforces: `ok ≤ scheduled`,
/// `chaos_handled ≤ chaos_sent`, monotone latency percentiles, error
/// counters as non-negative integers, `metrics_valid` not `false` (a
/// scrape that failed the Prometheus validator must never be
/// committed), and **every metrics delta non-negative** — the
/// counter-monotonicity invariant, checked on the artifact itself.
pub fn validate_load_report_json(json: &str) -> Result<(), String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == "spsep-load-report/v1" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let Json::Str(_) = field(&top, "addr")? else {
        return Err("`addr` must be a string".into());
    };
    let int = |key: &str| -> Result<f64, String> {
        match field(&top, key)? {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v),
            _ => Err(format!("`{key}` must be a non-negative integer")),
        }
    };
    let fin = |key: &str| -> Result<f64, String> {
        match field(&top, key)? {
            Json::Num(v) if *v >= 0.0 && v.is_finite() => Ok(*v),
            _ => Err(format!("`{key}` must be a finite non-negative number")),
        }
    };
    for key in ["rate", "duration_s"] {
        if fin(key)? <= 0.0 {
            return Err(format!("`{key}` must be positive"));
        }
    }
    if int("connections")? < 1.0 {
        return Err("`connections` must be >= 1".into());
    }
    let scheduled = int("scheduled")?;
    if int("ok")? > scheduled {
        return Err("`ok` exceeds `scheduled`".into());
    }
    if int("chaos_handled")? > int("chaos_sent")? {
        return Err("`chaos_handled` exceeds `chaos_sent`".into());
    }
    fin("elapsed_s")?;
    fin("qps")?;
    let (p50, p99, p999) = (fin("p50_us")?, fin("p99_us")?, fin("p999_us")?);
    if !(p50 <= p99 && p99 <= p999) {
        return Err("latency percentiles must be monotone (p50 <= p99 <= p999)".into());
    }
    let Json::Obj(errors) = field(&top, "errors")? else {
        return Err("`errors` must be an object".into());
    };
    for (name, v) in errors {
        match v {
            Json::Num(count) if *count >= 0.0 && count.fract() == 0.0 => {}
            _ => {
                return Err(format!(
                    "error counter `{name}` must be a non-negative integer"
                ))
            }
        }
    }
    match field(&top, "daemon")? {
        Json::Null => {}
        Json::Obj(d) => {
            let dint = |key: &str| -> Result<f64, String> {
                match field(d, key)? {
                    Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v),
                    _ => Err(format!("daemon `{key}` must be a non-negative integer")),
                }
            };
            let dfin = |key: &str| -> Result<f64, String> {
                match field(d, key)? {
                    Json::Num(v) if *v >= 0.0 && v.is_finite() => Ok(*v),
                    _ => Err(format!("daemon `{key}` must be finite and non-negative")),
                }
            };
            if dint("workers")? < 1.0 {
                return Err("daemon `workers` must be >= 1".into());
            }
            for key in [
                "accepted",
                "shed",
                "served",
                "io_errors",
                "cache_hits",
                "cache_misses",
            ] {
                dint(key)?;
            }
            for stem in ["queue", "service"] {
                let (a, b, c) = (
                    dfin(&format!("{stem}_p50_us"))?,
                    dfin(&format!("{stem}_p99_us"))?,
                    dfin(&format!("{stem}_p999_us"))?,
                );
                if !(a <= b && b <= c) {
                    return Err(format!("daemon `{stem}` percentiles must be monotone"));
                }
            }
        }
        _ => return Err("`daemon` must be an object or null".into()),
    }
    match field(&top, "metrics_valid")? {
        Json::Bool(true) | Json::Null => {}
        Json::Bool(false) => {
            return Err("`metrics_valid` is false: a scraped exposition failed \
                 the Prometheus validator"
                .into())
        }
        _ => return Err("`metrics_valid` must be a boolean or null".into()),
    }
    let Json::Obj(delta) = field(&top, "metrics_delta")? else {
        return Err("`metrics_delta` must be an object".into());
    };
    for (id, v) in delta {
        match v {
            Json::Num(d) if d.is_finite() && *d >= 0.0 => {}
            Json::Num(d) => {
                return Err(format!(
                    "metrics delta `{id}` is {d}: monotone counters cannot decrease"
                ))
            }
            _ => return Err(format!("metrics delta `{id}` must be a number")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireStats;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn sample() -> LoadReport {
        LoadReport {
            scheduled: 1000,
            ok: 960,
            chaos_sent: 30,
            chaos_handled: 30,
            elapsed: Duration::from_secs_f64(2.1),
            qps: 457.1,
            latency_us: [120.0, 900.0, 2500.0],
            errors: BTreeMap::from([("io".to_string(), 10)]),
            daemon: Some(WireStats {
                accepted: 12,
                shed: 0,
                served: 960,
                errors: [30, 0, 0, 0, 10],
                io_errors: 10,
                queue_wait_us: [10.0, 200.0, 400.0],
                service_us: [90.0, 700.0, 1800.0],
                cache_hits: 800,
                cache_misses: 160,
                cache_evictions: 0,
                cache_shards: 8,
                workers: 4,
            }),
            metrics_delta: BTreeMap::from([
                ("spsep_served_total".to_string(), 960.0),
                ("spsep_requests_total{op=\"point\"}".to_string(), 800.0),
            ]),
            metrics_valid: Some(true),
        }
    }

    #[test]
    fn writer_output_validates() {
        let json = load_report_json("127.0.0.1:9000", 500.0, 2.0, 4, &sample());
        validate_load_report_json(&json).expect("writer output validates");
        // Label-bearing sample ids survive the escape/parse round trip.
        assert!(json.contains("spsep_requests_total{op=\\\"point\\\"}"));
    }

    #[test]
    fn validator_rejects_drift() {
        let good = load_report_json("127.0.0.1:9000", 500.0, 2.0, 4, &sample());
        assert!(validate_load_report_json("").is_err());
        assert!(validate_load_report_json("{}").is_err());
        assert!(validate_load_report_json(&good.replace("spsep-load-report/v1", "x/v9")).is_err());

        // ok > scheduled.
        let mut r = sample();
        r.ok = r.scheduled + 1;
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        assert!(validate_load_report_json(&json).is_err());

        // Invalid scraped exposition must never validate.
        let mut r = sample();
        r.metrics_valid = Some(false);
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        assert!(validate_load_report_json(&json).is_err());

        // A negative counter delta breaks monotonicity.
        let mut r = sample();
        r.metrics_delta
            .insert("spsep_served_total".to_string(), -3.0);
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        let err = validate_load_report_json(&json).unwrap_err();
        assert!(err.contains("monotone"), "{err}");

        // Non-monotone daemon percentiles.
        let mut r = sample();
        if let Some(d) = &mut r.daemon {
            d.service_us = [700.0, 90.0, 1800.0];
        }
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        assert!(validate_load_report_json(&json).is_err());
    }

    #[test]
    fn control_and_non_ascii_keys_round_trip() {
        let key = "spsep_label{v=\"a\u{1}b E⁺\"}";
        let mut r = sample();
        r.metrics_delta.insert(key.to_string(), 7.0);
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        assert!(json.contains("\\u0001"), "{json}");
        validate_load_report_json(&json).expect("escaped key validates");
        let Ok(Json::Obj(top)) = parse_json(&json) else {
            panic!("not an object: {json}")
        };
        let Ok(Json::Obj(delta)) = field(&top, "metrics_delta") else {
            panic!("no metrics_delta object: {json}")
        };
        assert!(delta.iter().any(|(k, v)| k == key && *v == Json::Num(7.0)));
    }

    #[test]
    fn daemonless_report_still_validates() {
        let mut r = sample();
        r.daemon = None;
        r.metrics_valid = None;
        r.metrics_delta.clear();
        let json = load_report_json("a:1", 500.0, 2.0, 4, &r);
        validate_load_report_json(&json).expect("null daemon and metrics are allowed");
    }
}
