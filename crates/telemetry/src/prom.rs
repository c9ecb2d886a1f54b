//! Prometheus text exposition (format 0.0.4): hand-rolled writer,
//! strict validator, and a small sample parser for scrape deltas.
//!
//! The writer renders a [`Registry`] sample as `# HELP` / `# TYPE`
//! comment pairs followed by the samples of each metric family, in
//! sorted `(name, labels)` order. Histograms are exposed as the
//! conventional triplet — cumulative `<name>_bucket{le="…"}` series
//! (thinned to the octave boundaries; the full sub-bucket resolution
//! stays internal for quantiles), `<name>_sum`, `<name>_count` — with
//! `le` in the histogram's native unit (the daemon records
//! nanoseconds, and says so in the metric name).
//!
//! The validator mirrors the repo's bench-JSON validators: it re-parses
//! what the writer emits and enforces the invariants a scraper relies
//! on — name/label grammar, one `# TYPE` per family declared before its
//! samples, finite non-negative counters, strictly increasing `le` with
//! non-decreasing cumulative counts, a `+Inf` bucket equal to `_count`,
//! and no duplicate sample identities.

use std::collections::BTreeMap;

use crate::hist::HistSnapshot;
use crate::registry::{Registry, SampledValue};

fn name_ok(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_key_ok(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &HistSnapshot) {
    for (le, cum) in h.octave_cumulative() {
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            render_labels(labels, Some(("le", &le.to_string())))
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        render_labels(labels, Some(("le", "+Inf"))),
        h.count
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        render_labels(labels, None),
        h.sum
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        render_labels(labels, None),
        h.count
    ));
}

/// Render the registry as Prometheus text. Two renders of a quiesced
/// registry are byte-identical.
pub fn render(registry: &Registry) -> String {
    let samples = registry.sample();
    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for e in samples {
        if last_name.as_deref() != Some(e.name.as_str()) {
            let kind = match e.value {
                SampledValue::Counter(_) => "counter",
                SampledValue::Gauge(_) => "gauge",
                SampledValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", e.name, escape_help(&e.help)));
            out.push_str(&format!("# TYPE {} {kind}\n", e.name));
            last_name = Some(e.name.clone());
        }
        match &e.value {
            SampledValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    e.name,
                    render_labels(&e.labels, None)
                ));
            }
            SampledValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    e.name,
                    render_labels(&e.labels, None),
                    fmt_value(*v)
                ));
            }
            SampledValue::Histogram(h) => render_histogram(&mut out, &e.name, &e.labels, h),
        }
    }
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name as written (may carry `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

impl Sample {
    /// Canonical identity string: name plus sorted labels.
    pub fn id(&self) -> String {
        let mut labels = self.labels.clone();
        labels.sort();
        let rendered: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if rendered.is_empty() {
            self.name.clone()
        } else {
            format!("{}{{{}}}", self.name, rendered.join(","))
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| format!("bad value {s:?}")),
    }
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let line = line.trim_end();
    let (head, rest) = match line.find(['{', ' ']) {
        Some(i) => line.split_at(i),
        None => return Err(format!("no value on line {line:?}")),
    };
    if !name_ok(head) {
        return Err(format!("bad metric name {head:?}"));
    }
    let mut labels = Vec::new();
    let value_part;
    if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .find('}')
            .ok_or_else(|| format!("unclosed labels in {line:?}"))?;
        let (label_str, after) = body.split_at(close);
        value_part = after[1..].trim();
        let mut s = label_str;
        while !s.is_empty() {
            let eq = s
                .find('=')
                .ok_or_else(|| format!("bad label in {line:?}"))?;
            let key = &s[..eq];
            if !label_key_ok(key) {
                return Err(format!("bad label key {key:?}"));
            }
            let v = &s[eq + 1..];
            let v = v
                .strip_prefix('"')
                .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
            // Scan to the closing quote, honouring escapes.
            let mut val = String::new();
            let mut chars = v.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => val.push('\n'),
                        Some((_, c2)) => val.push(c2),
                        None => return Err(format!("dangling escape in {line:?}")),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => val.push(c),
                }
            }
            let end = end.ok_or_else(|| format!("unterminated label value in {line:?}"))?;
            labels.push((key.to_string(), val));
            s = &v[end + 1..];
            s = s.strip_prefix(',').unwrap_or(s);
        }
    } else {
        value_part = rest.trim();
    }
    // An optional timestamp after the value is permitted by the format;
    // take the first token as the value.
    let value_tok = value_part.split_whitespace().next().unwrap_or("");
    let value = parse_value(value_tok)?;
    Ok(Sample {
        name: head.to_string(),
        labels,
        value,
    })
}

/// Parse every sample line (skipping comments/blank lines). Returns the
/// samples in source order plus the `# TYPE` map.
pub fn parse_samples(text: &str) -> Result<(Vec<Sample>, BTreeMap<String, String>), String> {
    let mut samples = Vec::new();
    let mut types = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("").to_string();
            let kind = it.next().unwrap_or("").to_string();
            types.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample_line(line)?);
    }
    Ok((samples, types))
}

/// The monotone (counter-like) samples of an exposition: all samples of
/// `counter` families plus histogram `_sum`/`_count`/`_bucket` series,
/// keyed by canonical sample id. This is what the load harness diffs
/// across a run.
pub fn counter_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let (samples, types) = parse_samples(text)?;
    let mut out = BTreeMap::new();
    for s in samples {
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| s.name.strip_suffix(suf))
            .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"));
        let monotone = match base {
            Some(_) => true,
            None => types.get(&s.name).map(String::as_str) == Some("counter"),
        };
        if monotone {
            out.insert(s.id(), s.value);
        }
    }
    Ok(out)
}

fn base_name<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suf in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suf) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Validate an exposition document. `Err` carries the first violation.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_ids: BTreeMap<String, ()> = BTreeMap::new();
    // (family, labels-without-le) → bucket series state.
    #[derive(Default)]
    struct HistState {
        last_le: Option<f64>,
        last_cum: Option<f64>,
        inf_cum: Option<f64>,
        count: Option<f64>,
        sum: Option<f64>,
    }
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !name_ok(name) {
                return Err(at(format!("bad TYPE name {name:?}")));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(at(format!("bad TYPE kind {kind:?}")));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(at(format!("duplicate TYPE for {name:?}")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !name_ok(name) {
                return Err(at(format!("bad HELP name {name:?}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let s = parse_sample_line(line).map_err(&at)?;
        let id = s.id();
        if seen_ids.insert(id.clone(), ()).is_some() {
            return Err(at(format!("duplicate sample {id}")));
        }
        for (k, _) in &s.labels {
            if !label_key_ok(k) {
                return Err(at(format!("bad label key {k:?}")));
            }
        }
        let base = base_name(&s.name, &types).to_string();
        let kind = match types.get(&base) {
            Some(k) => k.clone(),
            None => return Err(at(format!("sample {:?} has no preceding TYPE", s.name))),
        };
        match kind.as_str() {
            "counter" if !s.value.is_finite() || s.value < 0.0 => {
                return Err(at(format!("counter {id} has value {}", s.value)));
            }
            "counter" => {}
            "gauge" if s.value.is_nan() => {
                return Err(at(format!("gauge {id} is NaN")));
            }
            "gauge" => {}
            "histogram" => {
                if !s.value.is_finite() || s.value < 0.0 {
                    return Err(at(format!("histogram sample {id} has value {}", s.value)));
                }
                let series_labels: Vec<(String, String)> = {
                    let mut l: Vec<(String, String)> = s
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .cloned()
                        .collect();
                    l.sort();
                    l
                };
                let key = format!("{base}{series_labels:?}");
                let st = hists.entry(key).or_default();
                if s.name.ends_with("_bucket") {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| at(format!("bucket {id} missing le")))?;
                    let le = parse_value(le).map_err(&at)?;
                    if let Some(prev) = st.last_le {
                        if le <= prev {
                            return Err(at(format!("le not increasing at {id}")));
                        }
                    }
                    if let Some(prev) = st.last_cum {
                        if s.value < prev {
                            return Err(at(format!("cumulative count decreased at {id}")));
                        }
                    }
                    if le == f64::INFINITY {
                        st.inf_cum = Some(s.value);
                    }
                    st.last_le = Some(le);
                    st.last_cum = Some(s.value);
                } else if s.name.ends_with("_count") {
                    st.count = Some(s.value);
                } else if s.name.ends_with("_sum") {
                    st.sum = Some(s.value);
                } else {
                    return Err(at(format!("unexpected histogram sample {id}")));
                }
            }
            _ => {}
        }
    }

    for (key, st) in &hists {
        let inf = st
            .inf_cum
            .ok_or_else(|| format!("histogram {key} has no +Inf bucket"))?;
        let count = st
            .count
            .ok_or_else(|| format!("histogram {key} has no _count"))?;
        if st.sum.is_none() {
            return Err(format!("histogram {key} has no _sum"));
        }
        if inf != count {
            return Err(format!(
                "histogram {key}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("req_total", "requests").add(41);
        r.counter_with("err_total", &[("kind", "parse")], "errors")
            .add(2);
        r.counter_with("err_total", &[("kind", "internal")], "errors");
        r.gauge("queue_depth", "queued frames").set(3.0);
        let h = r.histogram("service_ns", "service time");
        for v in [5u64, 100, 10_000, 1_000_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn render_validates_and_is_deterministic() {
        let r = sample_registry();
        let a = render(&r);
        let b = render(&r);
        assert_eq!(a, b);
        validate_prometheus_text(&a).unwrap();
        assert!(a.contains("# TYPE req_total counter"));
        assert!(a.contains("# TYPE service_ns histogram"));
        assert!(a.contains("service_ns_bucket{le=\"+Inf\"} 4"));
        assert!(a.contains("service_ns_sum 1010105"));
        assert!(a.contains("err_total{kind=\"parse\"} 2"));
    }

    #[test]
    fn parse_roundtrip() {
        let r = sample_registry();
        let text = render(&r);
        let (samples, types) = parse_samples(&text).unwrap();
        assert_eq!(types.get("req_total").map(String::as_str), Some("counter"));
        let req = samples.iter().find(|s| s.name == "req_total").unwrap();
        assert_eq!(req.value, 41.0);
        let err = samples
            .iter()
            .find(|s| s.name == "err_total" && s.labels == vec![("kind".into(), "parse".into())])
            .unwrap();
        assert_eq!(err.value, 2.0);
    }

    #[test]
    fn counter_samples_include_histogram_series() {
        let text = render(&sample_registry());
        let mono = counter_samples(&text).unwrap();
        assert_eq!(mono.get("req_total"), Some(&41.0));
        assert_eq!(mono.get("service_ns_count"), Some(&4.0));
        assert!(mono.keys().any(|k| k.starts_with("service_ns_bucket")));
        assert!(!mono.contains_key("queue_depth"));
    }

    #[test]
    fn validator_rejects_drift() {
        // No TYPE before sample.
        assert!(validate_prometheus_text("x_total 3\n").is_err());
        // Negative counter.
        assert!(validate_prometheus_text("# TYPE x_total counter\nx_total -1\n").is_err());
        // Duplicate sample.
        assert!(
            validate_prometheus_text("# TYPE x_total counter\nx_total 1\nx_total 2\n").is_err()
        );
        // le not increasing.
        assert!(validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"5\"} 2\n"
        )
        .is_err());
        // Cumulative decreases.
        assert!(validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"5\"} 3\nh_bucket{le=\"10\"} 2\n"
        )
        .is_err());
        // +Inf != _count.
        assert!(validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"
        )
        .is_err());
        // Missing +Inf.
        assert!(validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"5\"} 3\nh_sum 1\nh_count 3\n"
        )
        .is_err());
        // Bad name.
        assert!(validate_prometheus_text("# TYPE 9x counter\n").is_err());
    }

    #[test]
    fn label_escaping_roundtrips() {
        let r = Registry::new();
        r.counter_with("c_total", &[("path", "a\"b\\c\nd")], "h")
            .inc();
        let text = render(&r);
        validate_prometheus_text(&text).unwrap();
        let (samples, _) = parse_samples(&text).unwrap();
        assert_eq!(samples[0].labels[0].1, "a\"b\\c\nd");
    }
}
