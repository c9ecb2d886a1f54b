//! `spsep-cli` — command-line front end for the separator shortest-path
//! library.
//!
//! ```text
//! spsep-cli import  <raw>       -o <out.gr>           ingest a raw instance
//! spsep-cli info    <graph.gr>                        graph + decomposition stats
//! spsep-cli tree    <graph.gr>  -o <tree.st>          build and save a decomposition
//! spsep-cli sssp    <graph.gr>  -s <src> [...]        single-source distances
//! spsep-cli reach   <graph.gr>  -s <src>              reachable vertex count
//! spsep-cli prepare <graph.gr>  -o <oracle.sps>       preprocess once, save snapshot
//! spsep-cli serve   <oracle.sps> --queries <q.txt>    answer a query stream (replay)
//! spsep-cli serve   <oracle.sps> --listen <addr>      long-lived TCP query daemon
//! spsep-cli load    <host:port>  [--rate r --chaos p]  open-loop load harness
//! ```
//!
//! `import` accepts DIMACS `.gr`, CSV edge lists (`from,to,weight`,
//! 0-based), or a binary CSR directory (`first_out`/`head`/`weight`
//! little-endian `u32` files); it extracts the largest strongly
//! connected component (`--keep-all` to skip), optionally rescales
//! weights (`--normalize`), and writes a canonical `.gr` plus a
//! provenance report. Every other subcommand also sniffs these formats
//! when loading `<graph.gr>`, so `spsep-cli prepare roads.csv …` works
//! directly on a clean extract.
//!
//! `prepare` + `serve` are the deployment mode the paper's cost model
//! targets: run the expensive Sections 3–5 preprocessing once, persist
//! the result as a versioned `spsep-oracle/v2` snapshot, then serve any
//! number of cheap scheduled queries from it (DESIGN.md §10). Query
//! files hold one query per line: `p <u> <v>` for a point-to-point
//! distance, `s <u>` for a full single-source table, `c ...` comments
//! (0-based vertex ids).
//!
//! Common flags (all subcommands):
//!
//! ```text
//! -t <tree.st>          reuse a saved decomposition (paper comment (iv))
//! -a 41|43|44           E⁺ construction (default 41 = leaves-up)
//! -b auto|bfs|centroid|planar
//!                       decomposition builder (default auto: the
//!                       BFS-level + fundamental-cycle planar builder
//!                       when the skeleton certifies near-planar —
//!                       road networks, grids, meshes — else plain BFS
//!                       levels; centroid for tree-shaped graphs)
//! --print-dists         dump every distance (default: summary only)
//! --metrics             print the PRAM work/depth report and, where a
//!                       preprocessing ran, the Theorem 4.1/5.1 work
//!                       ledger (predicted-vs-measured ratios)
//! --metrics-out <file>  write the same report as JSON (spsep-metrics/v1)
//! --trace               print the hierarchical span tree to stderr
//! --trace-out <file>    write a Chrome trace-event JSON (load in
//!                       Perfetto / chrome://tracing), including executor
//!                       pool telemetry
//! ```
//!
//! `serve` additionally accepts:
//!
//! ```text
//! --queries <q.txt>     one-shot replay: answer the stream through the
//!                       daemon codec (`answer_query`) and exit
//! --listen <addr>       daemon mode: bind a TCP listener (port 0 picks a
//!                       free port), serve until SIGINT/SIGTERM or a
//!                       Shutdown request, then drain and print final stats
//! --workers <k>         daemon worker threads (default 4)
//! --queue-depth <d>     admission-control bound on queued connections;
//!                       excess connections get a typed Overloaded error
//! --cache <rows>        LRU capacity of the per-source table cache
//! --batch               replay: answer all point queries as one batch
//! --metrics-listen <a>  bind a plain-HTTP side port answering
//!                       `GET /metrics` with the Prometheus exposition
//! --slow-us <t>         flight-recorder slow threshold: any request
//!                       served slower than t µs dumps the surrounding
//!                       window (errors always trigger)
//! --no-telemetry        runtime switch: skip all registry and flight
//!                       recording (counters for wire Stats still run)
//! --flight-out <file>   write captured flight-recorder dumps on exit
//! ```
//!
//! `load` drives an open-loop chaos load against a running daemon
//! (latency is measured from the *scheduled* arrival, so coordinated
//! omission cannot flatter the tail):
//!
//! ```text
//! --rate <r>            offered arrivals per second (default 500)
//! --duration <s>        seconds of load (default 2)
//! --conns <k>           concurrent connections (default 4)
//! --mix <p:s:b>         point : source : batch request weights
//! --batch-size <k>      pairs per batch request
//! --zipf <t>            source-skew exponent (0 = uniform)
//! --chaos <p>           probability a request becomes a protocol
//!                       corruption or mid-stream disconnect
//! --seed <s>            deterministic schedule seed
//! --verify <oracle.sps> check every answer bit-for-bit vs this snapshot
//! --json <report.json>  write the validated spsep-load-report/v1 report
//!                       (client + daemon view + scraped metrics delta)
//! --shutdown            ask the daemon to drain and exit afterwards
//! ```
//!
//! `load` also scrapes the daemon's metrics (wire `Metrics` opcode)
//! before and after the run, validates the exposition, and prints the
//! counter delta summary.
//!
//! Graphs are DIMACS `sp` files (`p sp n m` + `a u v w`, 1-based).

use spsep::core::analysis::{work_ledger, WorkLedger};
use spsep::core::{preprocess, Algorithm, Oracle};
use spsep::graph::semiring::Tropical;
use spsep::graph::DiGraph;
use spsep::pram::{Metrics, Report};
use spsep::separator::{builders, RecursionLimits, SepTree};
use spsep::serve;
use spsep::trace::json::quote;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

struct Args {
    command: String,
    graph_path: String,
    source: usize,
    algo: Algorithm,
    builder: String,
    keep_all: bool,
    normalize: bool,
    tree_in: Option<String>,
    tree_out: Option<String>,
    print_dists: bool,
    metrics: bool,
    metrics_out: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    queries: Option<String>,
    cache: Option<usize>,
    batch: bool,
    listen: Option<String>,
    metrics_listen: Option<String>,
    slow_us: Option<u64>,
    no_telemetry: bool,
    flight_out: Option<String>,
    workers: usize,
    queue_depth: usize,
    rate: f64,
    duration_s: f64,
    conns: usize,
    mix: Option<String>,
    batch_size: Option<usize>,
    zipf: Option<f64>,
    chaos: f64,
    seed: Option<u64>,
    verify: Option<String>,
    json_out: Option<String>,
    shutdown_after: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spsep-cli <info|tree|sssp|reach|prepare> <graph.gr|.csv|csr-dir> \
         [-s source] [-a 41|43|44] [-b auto|bfs|centroid|planar] [-t tree.st] [-o out] \
         [--print-dists]\n\
         \x20      spsep-cli import <raw.gr|.csv|csr-dir> -o <out.gr> \
         [--keep-all] [--normalize]\n\
         \x20       [--metrics] [--metrics-out m.json] [--trace] [--trace-out t.json]\n\
         \x20      spsep-cli serve <oracle.sps> --queries q.txt \
         [--cache rows] [--batch] [--print-dists]\n\
         \x20      spsep-cli serve <oracle.sps> --listen host:port \
         [--workers k] [--queue-depth d] [--cache rows]\n\
         \x20       [--metrics-listen host:port] [--slow-us t] \
         [--no-telemetry] [--flight-out dump.txt]\n\
         \x20      spsep-cli load <host:port> [--rate r] [--duration s] \
         [--conns k] [--mix p:s:b] [--batch-size k]\n\
         \x20       [--zipf t] [--chaos p] [--seed s] [--verify oracle.sps] \
         [--json report.json] [--shutdown]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let graph_path = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        graph_path,
        source: 0,
        algo: Algorithm::LeavesUp,
        builder: "auto".into(),
        keep_all: false,
        normalize: false,
        tree_in: None,
        tree_out: None,
        print_dists: false,
        metrics: false,
        metrics_out: None,
        trace: false,
        trace_out: None,
        queries: None,
        cache: None,
        batch: false,
        listen: None,
        metrics_listen: None,
        slow_us: None,
        no_telemetry: false,
        flight_out: None,
        workers: 4,
        queue_depth: 64,
        rate: 500.0,
        duration_s: 2.0,
        conns: 4,
        mix: None,
        batch_size: None,
        zipf: None,
        chaos: 0.0,
        seed: None,
        verify: None,
        json_out: None,
        shutdown_after: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "-s" => args.source = argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?,
            "-a" => {
                args.algo = match argv.next().as_deref() {
                    Some("41") => Algorithm::LeavesUp,
                    Some("43") => Algorithm::PathDoubling,
                    Some("44") => Algorithm::SharedDoubling,
                    _ => return Err(usage()),
                }
            }
            "-b" => args.builder = argv.next().ok_or_else(usage)?,
            "-t" => args.tree_in = Some(argv.next().ok_or_else(usage)?),
            "-o" => args.tree_out = Some(argv.next().ok_or_else(usage)?),
            "--print-dists" => args.print_dists = true,
            "--metrics" => args.metrics = true,
            "--metrics-out" => args.metrics_out = Some(argv.next().ok_or_else(usage)?),
            "--trace" => args.trace = true,
            "--trace-out" => args.trace_out = Some(argv.next().ok_or_else(usage)?),
            "--queries" => args.queries = Some(argv.next().ok_or_else(usage)?),
            "--cache" => {
                args.cache = Some(argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--batch" => args.batch = true,
            "--listen" => args.listen = Some(argv.next().ok_or_else(usage)?),
            "--metrics-listen" => args.metrics_listen = Some(argv.next().ok_or_else(usage)?),
            "--slow-us" => {
                args.slow_us = Some(argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--no-telemetry" => args.no_telemetry = true,
            "--keep-all" => args.keep_all = true,
            "--normalize" => args.normalize = true,
            "--flight-out" => args.flight_out = Some(argv.next().ok_or_else(usage)?),
            "--workers" => {
                args.workers = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w: &usize| w >= 1)
                    .ok_or_else(usage)?
            }
            "--queue-depth" => {
                args.queue_depth = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&d: &usize| d >= 1)
                    .ok_or_else(usage)?
            }
            "--rate" => {
                args.rate = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| *r > 0.0 && r.is_finite())
                    .ok_or_else(usage)?
            }
            "--duration" => {
                args.duration_s = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d: &f64| *d > 0.0 && d.is_finite())
                    .ok_or_else(usage)?
            }
            "--conns" => {
                args.conns = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&c: &usize| c >= 1)
                    .ok_or_else(usage)?
            }
            "--mix" => args.mix = Some(argv.next().ok_or_else(usage)?),
            "--batch-size" => {
                args.batch_size = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&b: &usize| b >= 1)
                        .ok_or_else(usage)?,
                )
            }
            "--zipf" => {
                args.zipf = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|t: &f64| *t >= 0.0 && t.is_finite())
                        .ok_or_else(usage)?,
                )
            }
            "--chaos" => {
                args.chaos = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|p: &f64| (0.0..=1.0).contains(p))
                    .ok_or_else(usage)?
            }
            "--seed" => {
                args.seed = Some(argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--verify" => args.verify = Some(argv.next().ok_or_else(usage)?),
            "--json" => args.json_out = Some(argv.next().ok_or_else(usage)?),
            "--shutdown" => args.shutdown_after = true,
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn load_graph(path: &str) -> Result<DiGraph<f64>, String> {
    // Sniffs the container: `.gr`/`.dimacs` text, `.csv` edge list, or
    // a binary CSR directory — so every subcommand ingests raw
    // road-network extracts directly.
    spsep::graph::import::read_instance_path(std::path::Path::new(path)).map_err(|e| match e {
        spsep::core::SpsepError::Io(io) => format!("cannot open {path}: {io}"),
        other => format!("{path}: {other}"),
    })
}

fn obtain_tree(g: &DiGraph<f64>, args: &Args) -> Result<SepTree, String> {
    let tree = match &args.tree_in {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let tree = spsep::separator::io::read_tree(BufReader::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
            if tree.n() != g.n() {
                return Err(format!(
                    "tree is over {} vertices but the graph has {}",
                    tree.n(),
                    g.n()
                ));
            }
            tree
        }
        None => {
            let adj = g.undirected_skeleton();
            match args.builder.as_str() {
                "auto" => {
                    let check = spsep::separator::certify_near_planar(&adj);
                    if check.near_planar {
                        eprintln!(
                            "builder auto: near-planar certificate holds (m = {} ≤ 3n−6, \
                             degeneracy {} ≤ 5) → planar level builder",
                            check.undirected_edges, check.degeneracy
                        );
                        spsep::separator::planar_level_tree(&adj, RecursionLimits::default())
                    } else {
                        eprintln!(
                            "builder auto: near-planar certificate fails (edge bound {}, \
                             degeneracy {}) → bfs builder",
                            if check.edge_bound_ok {
                                "ok"
                            } else {
                                "violated"
                            },
                            check.degeneracy
                        );
                        builders::bfs_tree(&adj, RecursionLimits::default())
                    }
                }
                "bfs" => builders::bfs_tree(&adj, RecursionLimits::default()),
                "centroid" => builders::centroid_tree(&adj, RecursionLimits::default()),
                "planar" => spsep::separator::planar_level_tree(&adj, RecursionLimits::default()),
                other => {
                    return Err(format!(
                        "unknown builder '{other}' (auto|bfs|centroid|planar)"
                    ))
                }
            }
        }
    };
    tree.validate(&g.undirected_skeleton())
        .map_err(|e| format!("invalid decomposition: {e}"))?;
    if let Some(path) = &args.tree_out {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        spsep::separator::io::write_tree(&tree, &mut BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote decomposition to {path}");
    }
    Ok(tree)
}

/// Render the `spsep-metrics/v1` JSON document: the PRAM report plus the
/// work-ledger entries (empty array when the command ran no augmentation).
fn metrics_json(command: &str, report: &Report, ledger: Option<&WorkLedger>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"spsep-metrics/v1\",\n  \"command\": ");
    out.push_str(&quote(command));
    write!(
        out,
        ",\n  \"work\": {{\n    \"relaxation\": {},\n    \"floyd_warshall\": {},\n    \
         \"doubling\": {},\n    \"limited\": {},\n    \"matmul\": {},\n    \
         \"dijkstra\": {},\n    \"other\": {},\n    \"total\": {}\n  }},\n  \
         \"depth\": {},\n  \"phases\": {},\n  \"ledger\": [",
        report.relaxation,
        report.floyd_warshall,
        report.doubling,
        report.limited,
        report.matmul,
        report.dijkstra,
        report.other,
        report.total_work(),
        report.depth,
        report.phases,
    )
    .unwrap();
    if let Some(ledger) = ledger {
        for (i, e) in ledger.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"label\": ");
            out.push_str(&quote(&e.label));
            write!(
                out,
                ", \"measured\": {}, \"predicted\": {}, \"ratio\": {:.6}, \"within\": {}}}",
                e.measured, e.predicted, e.ratio, e.within
            )
            .unwrap();
        }
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// The uniform observability epilogue, shared by every subcommand: the
/// `--metrics` report + ledger on stdout, the `--metrics-out` JSON, the
/// `--trace` span tree on stderr, and the `--trace-out` Chrome export
/// joined with the executor pool telemetry.
fn epilogue(args: &Args, metrics: &Metrics, ledger: Option<&WorkLedger>) -> Result<(), String> {
    let report = metrics.report();
    if args.metrics {
        println!("metrics: {report}");
        if let Some(ledger) = ledger {
            print!("{ledger}");
        }
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, metrics_json(&args.command, &report, ledger))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    if args.trace || args.trace_out.is_some() {
        let events = spsep::trace::drain();
        if args.trace {
            eprint!("{}", spsep::trace::render_tree(&events));
        }
        if let Some(path) = &args.trace_out {
            let stats = rayon::pool_stats();
            let pool = spsep::trace::PoolMeta {
                workers: stats
                    .workers
                    .iter()
                    .map(|w| spsep::trace::WorkerMeta {
                        name: w.name.clone(),
                        busy_ns: w.busy_ns,
                        tasks: w.tasks,
                    })
                    .collect(),
                steal_backs: stats.steal_backs,
                reclaimed_handles: stats.reclaimed_handles,
                max_queue_depth: stats.max_queue_depth,
            };
            let json = spsep::trace::chrome_trace_json(&events, Some(&pool));
            spsep::trace::validate_chrome_json(&json)
                .map_err(|e| format!("internal error: invalid trace export: {e}"))?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote trace to {path}");
        }
    }
    Ok(())
}

/// One record of a `serve` query stream.
enum Query {
    /// `p u v` — point-to-point distance.
    Pair(usize, usize),
    /// `s u` — full single-source table.
    Source(usize),
}

/// Parse a query file: `c` comments, `p u v` pairs, `s u` sources
/// (0-based ids). Unknown records and malformed fields are
/// line-numbered errors.
fn read_queries(path: &str) -> Result<Vec<Query>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut queries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let field = |f: Option<&str>, what: &str| -> Result<usize, String> {
            f.ok_or_else(|| format!("{path}:{lineno}: missing {what}"))?
                .parse()
                .map_err(|_| format!("{path}:{lineno}: bad {what}"))
        };
        match parts.next() {
            Some("p") => {
                let u = field(parts.next(), "query source")?;
                let v = field(parts.next(), "query target")?;
                queries.push(Query::Pair(u, v));
            }
            Some("s") => queries.push(Query::Source(field(parts.next(), "query source")?)),
            Some(other) => {
                return Err(format!(
                    "{path}:{lineno}: unknown query record '{other}' (expected p, s, or c)"
                ));
            }
            None => {}
        }
    }
    Ok(queries)
}

fn fmt_dist(d: f64) -> String {
    if d.is_finite() {
        format!("{d}")
    } else {
        "inf".into()
    }
}

/// `p`-th percentile of sorted nanosecond latencies, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1000.0
}

/// Load an `spsep-oracle/v2` snapshot (memory-mapped and borrowed
/// zero-copy) and apply the `--cache` override.
fn load_snapshot(args: &Args) -> Result<Oracle, String> {
    let snap_path = &args.graph_path;
    let t0 = std::time::Instant::now();
    let oracle = Oracle::load_path(std::path::Path::new(snap_path))
        .map_err(|e| format!("{snap_path}: {e}"))?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(capacity) = args.cache {
        oracle.set_cache_capacity(capacity);
    }
    println!(
        "loaded {snap_path}: n = {}, m = {}, |E+| = {}, algo = {:?}, (v2, mmap) {load_ms:.1} ms",
        oracle.n(),
        oracle.m(),
        oracle.stats().eplus_edges,
        oracle.algo(),
    );
    Ok(oracle)
}

/// Answer one replay query through the daemon codec (`answer_query`),
/// so one-shot replay and the TCP daemon share the exact same request
/// routing, vertex validation, and cache path — bit-identical answers.
fn replay_query(
    oracle: &Oracle,
    req: &serve::Request,
    metrics: &Metrics,
) -> Result<serve::Response, String> {
    match serve::answer_query(oracle, req, metrics) {
        Some(serve::Response::Error { message, .. }) => Err(message),
        Some(resp) => Ok(resp),
        None => Err("internal: unroutable replay request".into()),
    }
}

/// `serve`: load a snapshot, then either run the long-lived TCP daemon
/// (`--listen`) or replay a query file (`--queries`), reporting
/// throughput, latency percentiles, and cache behavior.
fn cmd_serve(args: &Args, metrics: &Metrics) -> Result<(), String> {
    if args.listen.is_some() {
        let oracle = load_snapshot(args)?;
        return cmd_daemon(args, oracle);
    }
    let q_path = args
        .queries
        .as_ref()
        .ok_or("serve needs --queries <q.txt> or --listen <addr>")?;
    let oracle = load_snapshot(args)?;
    let queries = read_queries(q_path)?;
    let num_pairs = queries
        .iter()
        .filter(|q| matches!(q, Query::Pair(..)))
        .count();
    let num_sources = queries.len() - num_pairs;

    let t1 = std::time::Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(queries.len());
    if args.batch {
        // All point queries as one parallel batch; source queries
        // individually (they already produce whole tables).
        let pairs: Vec<(usize, usize)> = queries
            .iter()
            .filter_map(|q| match *q {
                Query::Pair(u, v) => Some((u, v)),
                Query::Source(_) => None,
            })
            .collect();
        let wire_pairs: Vec<(u64, u64)> =
            pairs.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        let req = serve::Request::Batch { pairs: wire_pairs };
        let answers = match replay_query(&oracle, &req, metrics)? {
            serve::Response::Batch(answers) => answers,
            other => return Err(format!("internal: batch answered with {other:?}")),
        };
        if args.print_dists {
            let mut out = String::new();
            for (&(u, v), d) in pairs.iter().zip(&answers) {
                use std::fmt::Write;
                let _ = writeln!(out, "p {u} {v} {}", fmt_dist(*d));
            }
            print!("{out}");
        }
        for q in &queries {
            if let Query::Source(u) = *q {
                let req = serve::Request::Source { source: u as u64 };
                let row = match replay_query(&oracle, &req, metrics)? {
                    serve::Response::Table(row) => row,
                    other => return Err(format!("internal: source answered with {other:?}")),
                };
                let reachable = row.iter().filter(|d| d.is_finite()).count();
                if args.print_dists {
                    println!("s {u} reachable={reachable}");
                }
            }
        }
        let batch_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "batch: {} pairs + {} sources in {batch_ms:.1} ms",
            pairs.len(),
            num_sources
        );
    } else {
        for q in &queries {
            let q0 = std::time::Instant::now();
            match *q {
                Query::Pair(u, v) => {
                    let req = serve::Request::Point {
                        source: u as u64,
                        target: v as u64,
                    };
                    let d = match replay_query(&oracle, &req, metrics)? {
                        serve::Response::Dist(d) => d,
                        other => return Err(format!("internal: point answered with {other:?}")),
                    };
                    if args.print_dists {
                        println!("p {u} {v} {}", fmt_dist(d));
                    }
                }
                Query::Source(u) => {
                    let req = serve::Request::Source { source: u as u64 };
                    let row = match replay_query(&oracle, &req, metrics)? {
                        serve::Response::Table(row) => row,
                        other => return Err(format!("internal: source answered with {other:?}")),
                    };
                    let reachable = row.iter().filter(|d| d.is_finite()).count();
                    if args.print_dists {
                        println!("s {u} reachable={reachable}");
                    }
                }
            }
            latencies_ns.push(q0.elapsed().as_nanos() as u64);
        }
    }
    let total_s = t1.elapsed().as_secs_f64();
    let throughput = if total_s > 0.0 {
        queries.len() as f64 / total_s
    } else {
        0.0
    };
    println!(
        "serve: {} queries ({num_pairs} pairs, {num_sources} sources) in {:.1} ms, {throughput:.0} q/s",
        queries.len(),
        total_s * 1e3
    );
    if !latencies_ns.is_empty() {
        latencies_ns.sort_unstable();
        println!(
            "latency: p50 = {:.1} us, p90 = {:.1} us, p99 = {:.1} us \
             (service time; queue-wait = 0 in one-shot replay)",
            percentile_us(&latencies_ns, 50.0),
            percentile_us(&latencies_ns, 90.0),
            percentile_us(&latencies_ns, 99.0)
        );
    }
    print_cache_stats(&oracle);
    Ok(())
}

/// The cache report shared by replay and daemon epilogues: aggregate
/// counters plus the per-shard breakdown of the sharded-lock row cache.
fn print_cache_stats(oracle: &Oracle) {
    let cs = oracle.cache_stats();
    println!(
        "cache: hits = {}, misses = {}, evictions = {}, entries = {}/{}",
        cs.hits, cs.misses, cs.evictions, cs.entries, cs.capacity
    );
    let per_shard: Vec<String> = cs
        .shards
        .iter()
        .map(|s| format!("{}/{}/{}", s.hits, s.misses, s.evictions))
        .collect();
    println!(
        "cache shards: {} (hits/misses/evictions per shard: {})",
        cs.shards.len(),
        per_shard.join(" ")
    );
}

/// `serve --listen`: the long-lived daemon. Binds, announces the bound
/// address on stdout (port 0 resolves to a real port), serves until a
/// SIGINT/SIGTERM or a wire `Shutdown` request starts the drain, then
/// prints the final stats — queue-wait separated from service time —
/// and returns cleanly (exit 0).
fn cmd_daemon(args: &Args, mut oracle: Oracle) -> Result<(), String> {
    let listen = args.listen.as_deref().unwrap_or("127.0.0.1:0");
    // A `<snapshot>.ledger` sidecar written by `prepare` carries the
    // Theorem 4.1/5.1 work/depth ledger into the daemon, where the
    // telemetry plane exports it as `spsep_ledger_*` gauges. Absence is
    // fine (old snapshots); a corrupt sidecar is a hard error rather
    // than silently serving without the paper's envelopes.
    let sidecar = format!("{}.ledger", args.graph_path);
    match std::fs::read_to_string(&sidecar) {
        Ok(text) => {
            let ledger = spsep::core::analysis::ledger_from_text(&text)
                .map_err(|e| format!("{sidecar}: {e}"))?;
            oracle.set_ledger(ledger);
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot read {sidecar}: {e}")),
    }
    let oracle = std::sync::Arc::new(oracle);
    serve::install_signal_handlers();
    let server = serve::Server::bind(
        std::sync::Arc::clone(&oracle),
        serve::ServeConfig {
            addr: listen.to_string(),
            workers: args.workers,
            queue_depth: args.queue_depth,
            telemetry: !args.no_telemetry,
            metrics_addr: args.metrics_listen.clone(),
            slow_us: args.slow_us,
            ..serve::ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    // Stdout is line-buffered: this announcement is visible to a parent
    // process (or test harness) as soon as it is printed.
    println!(
        "listening on {addr} ({} workers, queue depth {})",
        args.workers, args.queue_depth
    );
    if let Some(maddr) = server.metrics_addr() {
        println!("metrics on http://{maddr}/metrics");
    }
    let stats = server.run().map_err(|e| format!("daemon failed: {e}"))?;
    println!("shutdown: drained, final stats follow");
    print_wire_stats(&stats);
    print_cache_stats(&oracle);
    let dumps = handle.flight_dumps();
    if !dumps.is_empty() {
        println!("flight recorder: {} dump(s) captured", dumps.len());
    }
    if let Some(path) = &args.flight_out {
        let mut out = String::new();
        for dump in &dumps {
            out.push_str(&spsep::telemetry::render_dump(dump));
            out.push('\n');
        }
        std::fs::write(path, &out).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("flight dumps written to {path}");
    }
    Ok(())
}

/// Render a [`serve::WireStats`] snapshot: admission counters, the
/// error taxonomy, and the queue-wait vs service-time split.
fn print_wire_stats(stats: &serve::WireStats) {
    println!(
        "daemon: workers = {}, accepted = {}, shed = {}, served = {}, io_errors = {}",
        stats.workers, stats.accepted, stats.shed, stats.served, stats.io_errors
    );
    println!(
        "errors: parse = {}, invalid_query = {}, overloaded = {}, \
         shutting_down = {}, internal = {}",
        stats.errors[0], stats.errors[1], stats.errors[2], stats.errors[3], stats.errors[4]
    );
    println!(
        "latency: queue-wait p50 = {:.1} us, p99 = {:.1} us, p999 = {:.1} us; \
         service p50 = {:.1} us, p99 = {:.1} us, p999 = {:.1} us",
        stats.queue_wait_us[0],
        stats.queue_wait_us[1],
        stats.queue_wait_us[2],
        stats.service_us[0],
        stats.service_us[1],
        stats.service_us[2]
    );
}

/// Parse a `--mix p:s:b` weight triple.
fn parse_mix(text: &str) -> Result<serve::Mix, String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [p, s, b] = parts.as_slice() else {
        return Err(format!("--mix wants point:source:batch, got '{text}'"));
    };
    let w = |t: &str, what: &str| -> Result<u32, String> {
        t.parse()
            .map_err(|_| format!("--mix: bad {what} weight '{t}'"))
    };
    let mix = serve::Mix {
        point: w(p, "point")?,
        source: w(s, "source")?,
        batch: w(b, "batch")?,
    };
    if mix.point + mix.source + mix.batch == 0 {
        return Err("--mix: at least one weight must be positive".into());
    }
    Ok(mix)
}

/// `load`: drive the open-loop chaos load harness against a running
/// daemon, print the report, optionally write the validated
/// `spsep-load-report/v1` artifact, and optionally ask the daemon to
/// shut down. Exits non-zero when any answer diverged from the
/// verification oracle or a chaos injection went unhandled.
fn cmd_load(args: &Args) -> Result<(), String> {
    let addr = &args.graph_path;
    // Reject malformed flags before touching the network.
    let mix = match &args.mix {
        Some(text) => Some(parse_mix(text)?),
        None => None,
    };
    // The sampling range: from the --verify snapshot when given (which
    // then also checks every answer bit-for-bit), else from the
    // daemon's own Info response.
    let (n, verify) = match &args.verify {
        Some(path) => {
            let oracle = Oracle::load_path(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            (oracle.n(), Some(std::sync::Arc::new(oracle)))
        }
        None => {
            let mut client =
                serve::Client::connect(addr.as_str(), std::time::Duration::from_secs(5))
                    .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
            match client.request(&serve::Request::Info) {
                Ok(serve::Response::Info { n, .. }) => (n as usize, None),
                Ok(other) => return Err(format!("daemon Info answered with {other:?}")),
                Err(e) => return Err(format!("daemon Info failed: {e}")),
            }
        }
    };
    let defaults = serve::LoadConfig::default();
    let config = serve::LoadConfig {
        addr: addr.clone(),
        rate: args.rate,
        duration: std::time::Duration::from_secs_f64(args.duration_s),
        connections: args.conns,
        mix: mix.unwrap_or(defaults.mix),
        batch_size: args.batch_size.unwrap_or(defaults.batch_size),
        zipf_theta: args.zipf.unwrap_or(defaults.zipf_theta),
        n,
        chaos: args.chaos,
        seed: args.seed.unwrap_or(defaults.seed),
        verify,
        ..defaults
    };
    let report = serve::run_load(&config).map_err(|e| format!("load against {addr}: {e}"))?;

    println!(
        "load: scheduled = {}, ok = {}, chaos handled = {}/{}, {:.2} s elapsed, {:.0} q/s",
        report.scheduled,
        report.ok,
        report.chaos_handled,
        report.chaos_sent,
        report.elapsed.as_secs_f64(),
        report.qps
    );
    println!(
        "latency (open-loop, from scheduled arrival): p50 = {:.1} us, \
         p99 = {:.1} us, p999 = {:.1} us",
        report.latency_us[0], report.latency_us[1], report.latency_us[2]
    );
    if report.errors.is_empty() {
        println!("errors: none");
    } else {
        let parts: Vec<String> = report
            .errors
            .iter()
            .map(|(name, count)| format!("{name} = {count}"))
            .collect();
        println!("errors: {}", parts.join(", "));
    }
    if let Some(stats) = &report.daemon {
        print_wire_stats(stats);
        println!(
            "cache (daemon): hits = {}, misses = {}, evictions = {}, shards = {}",
            stats.cache_hits, stats.cache_misses, stats.cache_evictions, stats.cache_shards
        );
    }
    match report.metrics_valid {
        Some(true) => println!(
            "metrics: exposition valid, {} counter(s) moved during the run",
            report.metrics_delta.len()
        ),
        Some(false) => println!("metrics: exposition INVALID (validator rejected it)"),
        None => println!("metrics: scrape unavailable (telemetry off or old daemon)"),
    }

    if let Some(path) = &args.json_out {
        let json = serve::load_report_json(addr, args.rate, args.duration_s, args.conns, &report);
        serve::validate_load_report_json(&json)
            .map_err(|e| format!("load report failed validation: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote spsep-load-report/v1 to {path}");
    }

    if args.shutdown_after {
        let mut client = serve::Client::connect(addr.as_str(), std::time::Duration::from_secs(5))
            .map_err(|e| format!("cannot reach daemon for shutdown: {e}"))?;
        match client.request(&serve::Request::Shutdown) {
            Ok(serve::Response::ShutdownAck) => println!("daemon acknowledged shutdown"),
            Ok(other) => return Err(format!("shutdown answered with {other:?}")),
            Err(e) => return Err(format!("shutdown request failed: {e}")),
        }
    }

    let mismatches = *report.errors.get("verify_mismatch").unwrap_or(&0);
    let unhandled = *report.errors.get("chaos_unhandled").unwrap_or(&0);
    if mismatches > 0 || unhandled > 0 {
        return Err(format!(
            "load failed: {mismatches} verification mismatches, \
             {unhandled} unhandled chaos injections"
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(code) => {
            std::process::exit(if code == ExitCode::SUCCESS { 0 } else { 2 });
        }
    };
    if args.trace || args.trace_out.is_some() {
        spsep::trace::enable();
    }
    let metrics = Metrics::new();
    if args.command == "serve" {
        // `serve` takes a snapshot, not a DIMACS graph.
        cmd_serve(&args, &metrics)?;
        return epilogue(&args, &metrics, None);
    }
    if args.command == "load" {
        // `load` takes a daemon address, not a file at all.
        cmd_load(&args)?;
        return epilogue(&args, &metrics, None);
    }
    if args.command == "import" {
        // `import` reads a *raw* instance (any sniffable format) and
        // writes the cleaned canonical `.gr`.
        let out_path = args.tree_out.take().ok_or("import needs -o <out.gr>")?;
        let opts = spsep::graph::import::ImportOptions {
            largest_scc: !args.keep_all,
            normalize: args.normalize,
        };
        let (g, report) =
            spsep::graph::import::import_path(std::path::Path::new(&args.graph_path), opts)
                .map_err(|e| format!("{}: {e}", args.graph_path))?;
        let file = File::create(&out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
        let mut out = BufWriter::new(file);
        spsep::graph::io::write_dimacs(&g, &mut out).map_err(|e| format!("{out_path}: {e}"))?;
        println!(
            "parsed : n = {}, m = {}, {} strongly connected component{}",
            report.nodes_parsed,
            report.arcs_parsed,
            report.scc_count,
            if report.scc_count == 1 { "" } else { "s" }
        );
        println!(
            "kept   : n = {}, m = {} ({})",
            report.nodes_kept,
            report.arcs_kept,
            if args.keep_all {
                "all vertices".to_string()
            } else {
                format!(
                    "largest SCC, dropped {} vertices",
                    report.nodes_parsed - report.nodes_kept
                )
            }
        );
        if report.weight_scale != 1.0 {
            println!("scale  : weights divided by {}", report.weight_scale);
        }
        let check = spsep::separator::certify_near_planar(&g.undirected_skeleton());
        println!(
            "planar : {} (m = {}, degeneracy = {}) → builder auto picks {}",
            if check.near_planar {
                "near-planar certificate holds"
            } else {
                "near-planar certificate fails"
            },
            check.undirected_edges,
            check.degeneracy,
            if check.near_planar { "planar" } else { "bfs" }
        );
        println!("wrote  : {out_path}");
        return epilogue(&args, &metrics, None);
    }
    let g = load_graph(&args.graph_path)?;
    let mut ledger: Option<WorkLedger> = None;
    match args.command.as_str() {
        "info" => {
            let tree = obtain_tree(&g, &args)?;
            println!("graph: n = {}, m = {}", g.n(), g.m());
            // One shared implementation with the E23 bench (satellite
            // of ISSUE 10): the c·√k claim is measured here and there
            // by the same code.
            let q = spsep::separator::separator_quality(&tree);
            println!(
                "tree : {} nodes, height {}, max leaf {}, Σ|S| = {}, root |S| = {}",
                q.nodes, q.height, q.max_leaf, q.total_separator, q.root_separator
            );
            println!(
                "sep  : max |S| = {}, c = max |S(t)|/√|V(t)| = {:.3}, balance = {:.3}, \
                 E+ candidates = {}",
                q.max_separator, q.sqrt_coefficient, q.balance, q.eplus_candidates
            );
            let pre = preprocess::<Tropical>(&g, &tree, args.algo, &metrics)
                .map_err(|e| e.to_string())?;
            println!(
                "E+   : {} shortcut edges; preprocessing {}",
                pre.stats().eplus_edges,
                metrics.report()
            );
            ledger = Some(work_ledger(&tree, args.algo, &metrics.report(), None));
        }
        "tree" => {
            if args.tree_out.is_none() {
                return Err("tree command needs -o <out.st>".into());
            }
            let tree = obtain_tree(&g, &args)?;
            println!(
                "built decomposition: {} nodes, height {}",
                tree.nodes().len(),
                tree.height()
            );
        }
        "sssp" => {
            if args.source >= g.n() {
                return Err(format!("source {} out of range", args.source));
            }
            let tree = obtain_tree(&g, &args)?;
            let pre = preprocess::<Tropical>(&g, &tree, args.algo, &metrics)
                .map_err(|e| e.to_string())?;
            // Ledger snapshot before the query: the Theorem 4.1/5.1
            // envelopes cover preprocessing work only.
            ledger = Some(work_ledger(&tree, args.algo, &metrics.report(), None));
            let (dist, stats) = pre.distances_seq(args.source);
            let reachable = dist.iter().filter(|d| d.is_finite()).count();
            let max = dist
                .iter()
                .filter(|d| d.is_finite())
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            println!(
                "sssp from {}: {} reachable of {}, max distance {:.6}, {} relaxations",
                args.source,
                reachable,
                g.n(),
                max,
                stats.relaxations
            );
            if args.print_dists {
                let mut out = String::new();
                for (v, d) in dist.iter().enumerate() {
                    use std::fmt::Write;
                    if d.is_finite() {
                        writeln!(out, "{v} {d}").unwrap();
                    } else {
                        writeln!(out, "{v} inf").unwrap();
                    }
                }
                print!("{out}");
            }
        }
        "prepare" => {
            // `-o` names the snapshot here; take it so obtain_tree does
            // not also write a text tree to the same path.
            let out_path = args
                .tree_out
                .take()
                .ok_or("prepare needs -o <oracle.sps>")?;
            let tree = obtain_tree(&g, &args)?;
            let t0 = std::time::Instant::now();
            let (n, m) = (g.n(), g.m());
            let oracle =
                Oracle::prepare(g, tree, args.algo, &metrics).map_err(|e| e.to_string())?;
            let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
            ledger = oracle.ledger().cloned();
            // Sidecar for the daemon's telemetry plane: `serve --listen`
            // reads `<snapshot>.ledger` and exports the Theorem 4.1/5.1
            // envelopes as gauges.
            if let Some(l) = &ledger {
                let sidecar = format!("{out_path}.ledger");
                std::fs::write(&sidecar, spsep::core::analysis::ledger_to_text(l))
                    .map_err(|e| format!("cannot write {sidecar}: {e}"))?;
            }
            let mut buf = Vec::new();
            oracle.save_v2(&mut buf).map_err(|e| e.to_string())?;
            std::fs::write(&out_path, &buf).map_err(|e| format!("cannot write {out_path}: {e}"))?;
            println!(
                "prepared oracle: n = {n}, m = {m}, |E+| = {}, algo = {:?}",
                oracle.stats().eplus_edges,
                oracle.algo()
            );
            println!(
                "snapshot (v2): {} bytes → {out_path} ({prepare_ms:.1} ms preprocessing)",
                buf.len()
            );
        }
        "reach" => {
            if args.source >= g.n() {
                return Err(format!("source {} out of range", args.source));
            }
            let tree = obtain_tree(&g, &args)?;
            let gb = g.map_weights(|_| true);
            let pre = spsep::core::reach::preprocess_reach(&gb, &tree, &metrics);
            let (row, _) = pre.distances_seq(args.source);
            let count = row.iter().filter(|&&r| r).count();
            println!(
                "reach from {}: {} of {} vertices",
                args.source,
                count,
                g.n()
            );
            if args.print_dists {
                let ids: Vec<String> = row
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r)
                    .map(|(v, _)| v.to_string())
                    .collect();
                println!("{}", ids.join(" "));
            }
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    epilogue(&args, &metrics, ledger.as_ref())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
