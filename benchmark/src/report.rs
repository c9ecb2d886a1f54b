//! The metric catalogue and the output format.
//!
//! Every run prints `# ` note lines, then one `workload metric value
//! unit` line per metric, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports exactly the [`END_TO_END`] metrics, a traced run exactly the
//! [`PER_LAYER`] ones; `BENCHMARK.json` declares the same names.

use std::fmt::Write;

/// End-to-end metrics: `(name, unit)`. Each workload defines what its
/// operation is; see the README. Tail percentiles are printed as notes
/// but not gated: on a shared 2-vCPU host they measure the neighbours'
/// load more than the program, and their run-to-run spread exceeds any
/// usable regression bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("snapshot_bytes_per_node", "B"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, named by crate.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("graph.import_ms", "ms"),
    ("separator.build_ms", "ms"),
    ("separator.max_sep", "count"),
    ("separator.total_sep", "count"),
    ("separator.height", "count"),
    ("separator.eplus_candidates", "count"),
    ("core.prepare_ms", "ms"),
    ("core.work_fw", "count"),
    ("core.work_limited", "count"),
    ("core.work_doubling", "count"),
    ("core.depth", "count"),
    ("core.ledger_max_ratio", "ratio"),
    ("core.eplus_edges", "count"),
    ("core.save_v2_ms", "ms"),
    ("core.load_ms", "ms"),
    ("core.arcs_per_query", "count"),
    ("core.relaxations_per_row", "count"),
    ("core.row_ms", "ms"),
    ("core.ns_per_arc", "ns"),
    ("core.row_vs_dijkstra", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_evictions", "count"),
    ("baselines.dijkstra_row_ms", "ms"),
    ("serve.rtt_p50_us", "us"),
    ("serve.service_mean_us", "us"),
    ("serve.transport_mean_us", "us"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("telemetry.scrape_ms", "ms"),
    ("rayon.setup_busy_frac", "ratio"),
    ("rayon.window_busy_frac", "ratio"),
    ("rayon.steal_backs", "count"),
    ("trace_overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: set-ups, measured operations and checks.
    pub attempted: u64,
    /// Operations that failed or answered wrong.
    pub failed: u64,
    /// `(name, value)` of every metric of the run's catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-text lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and answered right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Render the run's output. `Err` names a metric that is missing,
    /// undeclared, repeated or not finite, which is a benchmark bug.
    pub fn render(&self, workload: &str, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let mut json = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let mut values = self.metrics.iter().filter(|(n, _)| *n == name);
            let (Some(&(_, value)), None) = (values.next(), values.next()) else {
                return Err(format!("metric {name} must be reported exactly once"));
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let _ = writeln!(out, "{workload} {name} {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        );
        Ok(out)
    }
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// `nproc`, CPU model and SIMD flags of this host.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let simd: Vec<&str> = ["avx2", "avx512f"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    format!(
        "host: nproc {}, cpu {:?}, simd [{}]",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        field("model name"),
        simd.join(" "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_demands_the_whole_catalogue() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect(),
            notes: vec!["hello".into()],
        };
        let text = o.render("w", false).unwrap();
        assert!(text.starts_with("# hello\nw setup_s 1.5 s\n"));
        assert!(text.trim_end().ends_with("}}"));
        o.metrics.pop();
        assert!(o.render("w", false).is_err());
        o.metrics.push(("snapshot_bytes_per_node", f64::NAN));
        assert!(o.render("w", false).is_err());
        assert!(o.render("w", true).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
