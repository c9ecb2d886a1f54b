//! The four workloads and the metrics they report.
//!
//! Every workload first sets up its oracle several times (raw input →
//! servable memory-mapped snapshot; the median is `setup_s`), then
//! measures its operation for the run's seconds, then checks every
//! answer. A traced run measures half the seconds untraced and half
//! traced (the difference is `trace_overhead_pct`), and, where the
//! workload has no daemon of its own, probes one on the same oracle so
//! every layer is measured on every workload.

use crate::gen::{stream, HotSources, ServeStream, UniformPairs};
use crate::report::{self, Outcome};
use crate::serve::{self, Pace, Phase, Streams, Traffic};
use crate::setup::{self, Input, Ready};
use crate::stats::{median, percentile, summarize, Summary};
use crate::sut::{self, CacheCounts, Res};
use crate::trace::{self, SpanRecord};
use crate::verify::{self, Check, Expect};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Set-up only: the road instance prepared, then its snapshot
    /// reloaded for the measured window.
    RoadPrepare,
    /// Uncached point queries on the road snapshot, one caller.
    RoadColdPoint,
    /// The daemon under zipf-skewed traffic, open and closed loop.
    RoadServeZipf,
    /// Alg 4.3 on a 3-d grid, then parallel batches.
    Grid3d43Batch,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::RoadPrepare,
        Workload::RoadColdPoint,
        Workload::RoadServeZipf,
        Workload::Grid3d43Batch,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadPrepare => "road-prepare",
            Workload::RoadColdPoint => "road-cold-point",
            Workload::RoadServeZipf => "road-serve-zipf",
            Workload::Grid3d43Batch => "grid3d-43-batch",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`.
    pub trace_dir: PathBuf,
    /// Where snapshots are written.
    pub scratch: PathBuf,
    /// Run at test size.
    pub tiny: bool,
}

/// The committed road instance (24 000 nodes, 142 762 arcs).
const ROAD_INSTANCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../data/road-160x150.gr");

/// Sizes of a run: full, or small enough for the test suite.
struct Size {
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Vertices per axis of the grid3d instance.
    grid_side: usize,
    /// Pairs per `Oracle::batch` call, from distinct sources.
    batch_pairs: usize,
    /// Cold rows timed against Dijkstra after the window.
    cold_rows: usize,
    /// Closed-loop warm-up requests per daemon client.
    warmup: usize,
}

const FULL: Size = Size {
    setup_reps: 3,
    grid_side: 14,
    batch_pairs: 64,
    cold_rows: 8,
    warmup: 100,
};

const TINY: Size = Size {
    setup_reps: 2,
    grid_side: 5,
    batch_pairs: 16,
    cold_rows: 3,
    warmup: 5,
};

/// Daemon worker threads and client connections of road-serve-zipf.
const DAEMON_WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// road-serve-zipf phases: `(pace, share of the window, traffic)`.
///
/// - An open loop at 100 qps of the zipf mix. About 20 lookups per
///   second miss, a quarter of the rows per second the closed loop
///   sustains, so its percentiles describe service and not a growing
///   backlog. Its median, a cache hit, is the workload's `p50_ms`. Its
///   upper tail, a miss, is printed.
/// - A closed loop of uniform point queries. Every query misses the
///   cache, and both workers compute rows. Its throughput is the
///   workload's `ops_per_s`: the daemon's capacity on uncached traffic.
///   A closed loop of the zipf mix, or of cached rows only, swung from
///   run to run with how the seed's hot set landed in the cache shards
///   and with host load on microsecond round trips. Its spread across
///   seeds reached 0.2–0.5.
const SERVE_PHASES: [(Pace, f64, Traffic); 2] = [
    (Pace::Open { qps: 100.0 }, 0.4, Traffic::Mix),
    (Pace::Closed, 0.6, Traffic::Points),
];

/// Length of the traced daemon probe on workloads without a daemon.
const PROBE_SECONDS: f64 = 0.5;

/// What a measured window produced.
struct Window {
    attempted: u64,
    failed: u64,
    /// The window's end-to-end p50 and throughput.
    summary: Summary,
    /// Row-cache counter deltas of the window (of its open loop, for
    /// road-serve-zipf).
    cache: CacheCounts,
    serve: Option<serve::Session>,
    notes: Vec<String>,
}

/// Tail latencies of a window, with their sample count; printed, not
/// gated (see `report::END_TO_END`).
fn tails(what: &str, latency_ms: &[f64]) -> String {
    format!(
        "{what}: n={} p90 {:.3} ms, p99 {:.3} ms",
        latency_ms.len(),
        percentile(latency_ms, 0.9),
        percentile(latency_ms, 0.99),
    )
}

impl Window {
    /// A single caller's closed loop: latencies of its operations.
    fn closed(latency_ms: &[f64]) -> Window {
        Window {
            attempted: latency_ms.len() as u64,
            failed: 0,
            summary: summarize(latency_ms, 1),
            cache: CacheCounts::default(),
            serve: None,
            notes: vec![tails("window", latency_ms)],
        }
    }
}

/// Run `op` back to back for `seconds`; its results and the latency of
/// each call.
fn closed_loop<T>(seconds: f64, mut op: impl FnMut() -> T) -> (Vec<T>, Vec<f64>) {
    let t0 = Instant::now();
    let (mut out, mut lat) = (Vec::new(), Vec::new());
    while t0.elapsed().as_secs_f64() < seconds {
        let _r = trace::request("bench.op", out.len() as u64);
        let t = Instant::now();
        out.push(op());
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (out, lat)
}

/// One operation's `(source, target)` pairs and its answers to them.
type Answered = (Vec<(usize, usize)>, Res<Vec<f64>>);

/// Check operations against Dijkstra; how many failed or answered
/// wrong.
fn failed_ops(ready: &Ready, answers: &[Answered]) -> u64 {
    let mut checks = Vec::new();
    let mut errors = 0;
    for (op, (pairs, got)) in answers.iter().enumerate() {
        match got {
            Ok(ds) if ds.len() == pairs.len() => {
                checks.extend(pairs.iter().zip(ds).map(|(&(source, target), &got)| Check {
                    op,
                    source,
                    expect: Expect::Value { target, got },
                }));
            }
            _ => errors += 1,
        }
    }
    let wrong = verify::check(&ready.graph, None, checks, answers.len());
    errors + wrong.iter().filter(|f| **f).count() as u64
}

/// The measured window of `w`; `part` separates the input streams of
/// a traced run's two halves.
fn window(
    w: Workload,
    size: &Size,
    ready: &Ready,
    seed: u64,
    seconds: f64,
    part: u64,
) -> Res<Window> {
    let n = ready.shape.n;
    let cache_before = ready.queries.cache();
    let mut win = match w {
        Workload::RoadPrepare => {
            let (loads, lat) = closed_loop(seconds, || {
                sut::load(&ready.snapshot).is_ok_and(|o| sut::shape(&o) == ready.shape)
            });
            let mut win = Window::closed(&lat);
            win.failed = loads.iter().filter(|ok| !**ok).count() as u64;
            win
        }
        Workload::RoadColdPoint => {
            let mut pairs = UniformPairs::new(seed, stream::COLD_PAIRS | part << 8, n);
            let (answers, lat) = closed_loop(seconds, || {
                let (s, t) = pairs.next_pair();
                (vec![(s, t)], ready.queries.distance(s, t).map(|d| vec![d]))
            });
            let mut win = Window::closed(&lat);
            win.failed = failed_ops(ready, &answers);
            win
        }
        Workload::Grid3d43Batch => {
            let mut pairs = UniformPairs::new(seed, stream::BATCHES | part << 8, n);
            let (answers, lat) = closed_loop(seconds, || {
                let batch = pairs.distinct_sources(size.batch_pairs.min(n));
                let got = ready.queries.batch(&batch);
                (batch, got)
            });
            let mut win = Window::closed(&lat);
            win.failed = failed_ops(ready, &answers);
            win
        }
        Workload::RoadServeZipf => {
            let hot = Arc::new(HotSources::new(seed, n));
            let streams = (0..CLIENTS as u64)
                .map(|c| {
                    let client = c + part * CLIENTS as u64;
                    Streams {
                        mix: Some(ServeStream::new(seed, client, Arc::clone(&hot))),
                        points: UniformPairs::new(seed, stream::CLIENT_POINTS + client, n),
                    }
                })
                .collect();
            let phases: Vec<Phase> = SERVE_PHASES
                .iter()
                .map(|&(pace, share, traffic)| Phase {
                    pace,
                    seconds: share * seconds,
                    traffic,
                })
                .collect();
            let s = serve::session(
                &ready.queries,
                &ready.graph,
                DAEMON_WORKERS,
                size.warmup,
                &phases,
                streams,
            )?;
            let (open, closed) = (&s.phases[0], &s.phases[1]);
            let cache = open.cache;
            let notes = vec![
                format!(
                    "{}, generator late p99 {:.3} ms, cache hit ratio {:.3}",
                    tails("serve at 100 qps", &open.latency_ms),
                    percentile(&open.late_ms, 0.99),
                    cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
                ),
                tails("serve closed loop, uncached points", &closed.latency_ms),
            ];
            return Ok(Window {
                attempted: s.attempted,
                failed: s.failed,
                summary: Summary {
                    p50_ms: summarize(&open.latency_ms, CLIENTS).p50_ms,
                    ops_per_s: summarize(&closed.latency_ms, CLIENTS).ops_per_s,
                },
                cache,
                notes,
                serve: Some(s),
            });
        }
    };
    win.cache = ready.queries.cache().since(cache_before);
    Ok(win)
}

/// A short traced daemon session of uniform point queries on `ready`,
/// for workloads without a daemon of their own.
fn probe(ready: &Ready, seed: u64) -> Res<serve::Session> {
    let points = Streams {
        mix: None,
        points: UniformPairs::new(seed, stream::PROBE, ready.shape.n),
    };
    let phase = Phase {
        pace: Pace::Closed,
        seconds: PROBE_SECONDS,
        traffic: Traffic::Points,
    };
    serve::session(
        &ready.queries,
        &ready.graph,
        DAEMON_WORKERS,
        0,
        &[phase],
        vec![points],
    )
}

/// The raw input of `cfg`'s workload; the tiny road instance is
/// generated into the scratch directory.
fn input(cfg: &Config, size: &Size) -> Res<Input> {
    Ok(match cfg.workload {
        Workload::Grid3d43Batch => Input::Grid {
            side: size.grid_side,
            seed: cfg.seed,
        },
        _ if cfg.tiny => {
            let path = cfg
                .scratch
                .join(format!("tiny-road-{}.gr", std::process::id()));
            sut::write_road(30, 20, 20260808, &path)?;
            Input::Road(path)
        }
        _ => Input::Road(PathBuf::from(ROAD_INSTANCE)),
    })
}

/// Run one workload. Files it writes go to `cfg.scratch` (removed
/// after) and, traced, `cfg.trace_dir`.
///
/// # Errors
///
/// A set-up or daemon that cannot run; wrong answers are counted, not
/// errors.
pub fn run(cfg: &Config) -> Res<Outcome> {
    let size = if cfg.tiny { &TINY } else { &FULL };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let input = input(cfg, size)?;
    let snapshot = cfg
        .scratch
        .join(format!("{}-{}.v2", cfg.workload.name(), std::process::id()));
    let out = run_in(cfg, size, &input, &snapshot);
    let _ = std::fs::remove_file(&snapshot);
    if let (true, Input::Road(path)) = (cfg.tiny, &input) {
        let _ = std::fs::remove_file(path);
    }
    out
}

fn run_in(cfg: &Config, size: &Size, input: &Input, snapshot: &Path) -> Res<Outcome> {
    let w = cfg.workload;
    trace::set_enabled(cfg.trace);
    sut::pool_reset();
    let t = Instant::now();
    let rep = setup::repeated(input, size.setup_reps, snapshot, cfg.seed)?;
    let setup_busy = busy_frac(t);
    let ready = &rep.ready;
    let mut out = Outcome {
        attempted: rep.seconds.len() as u64,
        failed: rep.failed,
        ..Outcome::default()
    };
    out.notes.push(report::host_fingerprint());
    if !cfg.trace {
        let win = window(w, size, ready, cfg.seed, cfg.seconds, 0)?;
        let cold = setup::cold_rows(ready, cfg.seed, size.cold_rows);
        out.attempted += win.attempted + cold.row_ms.len() as u64;
        out.failed += win.failed + cold.failed;
        out.notes.push(format!(
            "set-up s {:?}; window {} ops",
            rep.seconds, win.attempted
        ));
        out.notes.extend(win.notes);
        out.metrics = vec![
            ("setup_s", median(&rep.seconds)),
            ("p50_ms", win.summary.p50_ms),
            ("ops_per_s", win.summary.ops_per_s),
            ("peak_rss_mb", report::peak_rss_mb()?),
            (
                "snapshot_bytes_per_node",
                ready.snapshot_bytes as f64 / ready.shape.n as f64,
            ),
        ];
        return Ok(out);
    }

    trace::set_enabled(false);
    let plain = window(w, size, ready, cfg.seed, cfg.seconds / 2.0, 0)?;
    trace::set_enabled(true);
    sut::pool_reset();
    let t = Instant::now();
    let traced = window(w, size, ready, cfg.seed, cfg.seconds / 2.0, 1)?;
    let window_busy = busy_frac(t);
    let steal_backs = sut::pool_counts().steal_backs;
    let probe = match &traced.serve {
        Some(_) => None,
        None => Some(probe(ready, cfg.seed)?),
    };
    let cold = setup::cold_rows(ready, cfg.seed, size.cold_rows);
    trace::set_enabled(false);
    let spans = trace::take();

    let session = traced
        .serve
        .as_ref()
        .or(probe.as_ref())
        .ok_or("no daemon session")?;
    let probed = probe.as_ref().map_or((0, 0), |p| (p.attempted, p.failed));
    for (a, f) in [
        (plain.attempted, plain.failed),
        (traced.attempted, traced.failed),
        probed,
        (cold.row_ms.len() as u64, cold.failed),
    ] {
        out.attempted += a;
        out.failed += f;
    }

    std::fs::create_dir_all(&cfg.trace_dir)
        .map_err(|e| format!("{}: {e}", cfg.trace_dir.display()))?;
    let trace_path = cfg.trace_dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&trace_path, trace::chrome_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    out.notes.push(format!(
        "trace: {} spans in {}",
        spans.len(),
        trace_path.display()
    ));
    let layers = Layers::of(&spans);
    out.notes.extend(layers.table());

    let f = &ready.facts;
    let row_ms = median(&cold.row_ms);
    let dijkstra_ms = median(&cold.dijkstra_ms);
    let rtt_us: Vec<f64> = trace::durations_ms(&spans, "serve.request")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let rtt_mean_us = rtt_us.iter().sum::<f64>() / rtt_us.len().max(1) as f64;
    let lookups = (traced.cache.hits + traced.cache.misses).max(1) as f64;
    out.metrics = vec![
        ("graph.import_ms", layers.setup_median("graph")),
        ("separator.build_ms", layers.setup_median("separator")),
        ("separator.max_sep", ready.tree.max_sep as f64),
        ("separator.total_sep", ready.tree.total_sep as f64),
        ("separator.height", f64::from(ready.tree.height)),
        (
            "separator.eplus_candidates",
            ready.tree.eplus_candidates as f64,
        ),
        ("core.prepare_ms", layers.setup_span_median("core.prepare")),
        ("core.work_fw", f.work_fw as f64),
        ("core.work_limited", f.work_limited as f64),
        ("core.work_doubling", f.work_doubling as f64),
        ("core.depth", f.depth as f64),
        ("core.ledger_max_ratio", f.ledger_max_ratio),
        ("core.eplus_edges", f.eplus_edges as f64),
        ("core.save_v2_ms", layers.setup_span_median("core.save_v2")),
        ("core.load_ms", layers.setup_span_median("core.load_path")),
        ("core.arcs_per_query", ready.shape.arcs_per_query as f64),
        (
            "core.relaxations_per_row",
            cold.relaxations as f64 / cold.row_ms.len() as f64,
        ),
        ("core.row_ms", row_ms),
        (
            "core.ns_per_arc",
            row_ms * 1e6 / ready.shape.arcs_per_query as f64,
        ),
        ("core.row_vs_dijkstra", row_ms / dijkstra_ms),
        ("core.cache_hit_ratio", traced.cache.hits as f64 / lookups),
        ("core.cache_evictions", traced.cache.evictions as f64),
        ("baselines.dijkstra_row_ms", dijkstra_ms),
        ("serve.rtt_p50_us", median(&rtt_us)),
        ("serve.service_mean_us", session.service_mean_us),
        (
            "serve.transport_mean_us",
            rtt_mean_us - session.service_mean_us,
        ),
        ("serve.shed", session.daemon.shed as f64),
        ("serve.errors", session.daemon.errors as f64),
        (
            "telemetry.scrape_ms",
            median(&trace::durations_ms(&spans, "telemetry.scrape")),
        ),
        ("rayon.setup_busy_frac", setup_busy),
        ("rayon.window_busy_frac", window_busy),
        ("rayon.steal_backs", steal_backs as f64),
        (
            "trace_overhead_pct",
            100.0 * (plain.summary.ops_per_s / traced.summary.ops_per_s - 1.0),
        ),
    ];
    Ok(out)
}

/// Busy share of the pool's threads since `t0` (and the last reset).
fn busy_frac(t0: Instant) -> f64 {
    let p = sut::pool_counts();
    p.busy_ns as f64 / (p.threads as f64 * t0.elapsed().as_nanos() as f64)
}

/// Self times of a traced run, per layer, for the whole run and for
/// each set-up repetition.
struct Layers<'a> {
    spans: &'a [SpanRecord],
    in_setup: Vec<bool>,
    /// Layer self time over the whole run, ms.
    total: BTreeMap<&'static str, f64>,
    /// Per set-up repetition: layer self time, ms.
    per_setup: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Wall time of every `bench.setup` span, ms.
    setup_wall_ms: f64,
}

impl<'a> Layers<'a> {
    fn of(spans: &'a [SpanRecord]) -> Layers<'a> {
        let in_setup = trace::within(spans, "bench.setup");
        let own = trace::self_times(spans);
        let mut total = BTreeMap::new();
        let mut per_setup: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
        for ((s, &o), &k) in spans.iter().zip(&own).zip(&in_setup) {
            let ms = o as f64 / 1e6;
            *total.entry(s.layer()).or_insert(0.0) += ms;
            if k {
                *per_setup
                    .entry(s.req)
                    .or_default()
                    .entry(s.layer())
                    .or_insert(0.0) += ms;
            }
        }
        let setup_wall_ms = trace::durations_ms(spans, "bench.setup").iter().sum();
        Layers {
            spans,
            in_setup,
            total,
            per_setup,
            setup_wall_ms,
        }
    }

    /// Median over set-ups of `layer`'s self time.
    fn setup_median(&self, layer: &str) -> f64 {
        let v: Vec<f64> = self
            .per_setup
            .values()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }

    /// Median duration of the set-up spans named `name`.
    fn setup_span_median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&self.in_setup)
            .filter(|(s, &k)| k && s.name == name)
            .map(|(s, _)| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&v)
    }

    /// The printed self-time tables: whole run, then set-up with the
    /// share the layers cover.
    fn table(&self) -> Vec<String> {
        let mut lines = vec!["self time by layer, whole traced run:".to_string()];
        for (layer, ms) in &self.total {
            lines.push(format!("  {layer:<10} {ms:>12.3} ms"));
        }
        let mut setup: BTreeMap<&str, f64> = BTreeMap::new();
        for m in self.per_setup.values() {
            for (layer, ms) in m {
                *setup.entry(layer).or_insert(0.0) += ms;
            }
        }
        lines.push(format!(
            "self time by layer, set-up ({:.3} ms wall):",
            self.setup_wall_ms
        ));
        for (layer, ms) in &setup {
            lines.push(format!(
                "  {layer:<10} {ms:>12.3} ms {:>6.2}%",
                100.0 * ms / self.setup_wall_ms
            ));
        }
        let glue = setup.get("bench").copied().unwrap_or(0.0);
        let covered = 100.0 * (1.0 - glue / self.setup_wall_ms);
        lines.push(if covered >= 95.0 {
            format!("set-up: layers cover {covered:.2}% of its wall time")
        } else {
            format!(
                "set-up: layers cover only {covered:.2}%: {glue:.3} ms ran in the benchmark \
                 between layer calls, outside any layer"
            )
        });
        lines
    }
}
