//! The system under test. Every call the benchmark makes into the spsep
//! crates is in this module, each wrapped in a span named after the
//! layer function it calls, so an API change touches this file and no
//! measurement code. Errors leave as strings: the workloads count and
//! report them, they never branch on their kind.

use crate::gen::{self, Query};
use crate::trace::{self, span};
use rayon::prelude::*;
use spsep_core::Algorithm;
pub use spsep_core::Oracle;
use spsep_graph::import::{import, read_instance_path, ImportOptions};
use spsep_graph::DiGraph;
use spsep_pram::{Counter, Metrics};
use spsep_separator::{builders, RecursionLimits, SepTree};
use spsep_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle, WireStats};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A weighted digraph of the library.
pub type Graph = DiGraph<f64>;

/// `Result` with the failure as text.
pub type Res<T> = Result<T, String>;

fn err(what: &str) -> impl Fn(spsep_graph::SpsepError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------- graph

/// Read a raw instance (DIMACS `.gr`, CSV or CSR directory) and keep its
/// largest strongly connected component.
pub fn read_and_import(path: &Path) -> Res<Graph> {
    let raw = {
        let _s = span("graph.read_instance");
        read_instance_path(path).map_err(err("read instance"))?
    };
    let _s = span("graph.import");
    let (g, _report) = import(&raw, ImportOptions::default()).map_err(err("import"))?;
    Ok(g)
}

/// The seeded `side³` grid with weights in `[1, 2)`.
pub fn grid3d(side: usize, seed: u64) -> Graph {
    let _s = span("graph.generate_grid");
    let mut rng = gen::rng(seed, gen::stream::GRID_WEIGHTS);
    spsep_graph::generators::grid(&[side; 3], &mut rng).0
}

/// The undirected skeleton the separator builders work on.
pub fn skeleton(g: &Graph) -> Vec<Vec<u32>> {
    let _s = span("graph.undirected_skeleton");
    g.undirected_skeleton()
}

/// Generate the road instance `road_network(w, h, seed)` and write it
/// to `path` as DIMACS text: the small road of `--tiny` runs.
pub fn write_road(w: usize, h: usize, seed: u64, path: &Path) -> Res<()> {
    let (g, _, _) = spsep_separator::road_network(w, h, seed);
    let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    spsep_graph::io::write_dimacs(&g, &mut file).map_err(|e| e.to_string())
}

// ------------------------------------------------------------ separator

/// Shape of a separator tree, exact counts.
#[derive(Clone, Copy, Debug)]
pub struct TreeShape {
    /// Max `|S(t)|`.
    pub max_sep: usize,
    /// `Σ_t |S(t)|`.
    pub total_sep: usize,
    /// Tree height `d_G`.
    pub height: u32,
    /// `Σ_t (|S(t)|² + |B(t)|²)`.
    pub eplus_candidates: usize,
}

/// The planar level tree, after checking the near-planar certificate
/// that makes it the right builder.
pub fn planar_tree(adj: &[Vec<u32>]) -> Res<SepTree> {
    let check = {
        let _s = span("separator.certify_near_planar");
        spsep_separator::certify_near_planar(adj)
    };
    if !check.near_planar {
        return Err(format!("not near-planar: {check:?}"));
    }
    let _s = span("separator.planar_level_tree");
    Ok(spsep_separator::planar_level_tree(
        adj,
        RecursionLimits::default(),
    ))
}

/// The geometric tree of a `side³` grid.
pub fn grid_tree(side: usize) -> SepTree {
    let _s = span("separator.grid_tree");
    builders::grid_tree(&[side; 3], RecursionLimits::default())
}

/// Check the tree against the skeleton (Prop 2.1 and the set algebra).
pub fn validate_tree(tree: &SepTree, adj: &[Vec<u32>]) -> Res<TreeShape> {
    {
        let _s = span("separator.validate");
        tree.validate(adj).map_err(err("separator tree"))?;
    }
    let q = spsep_separator::separator_quality(tree);
    Ok(TreeShape {
        max_sep: q.max_separator,
        total_sep: q.total_separator,
        height: q.height,
        eplus_candidates: q.eplus_candidates,
    })
}

// ----------------------------------------------------- core: augmentation

/// Which `E⁺` construction a workload prepares with.
#[derive(Clone, Copy, Debug)]
pub enum Alg {
    /// Algorithm 4.1, leaves up.
    LeavesUp,
    /// Algorithm 4.3, path doubling.
    PathDoubling,
}

/// What preparation reports about itself.
#[derive(Clone, Copy, Debug)]
pub struct PrepareFacts {
    /// Floyd–Warshall inner steps.
    pub work_fw: u64,
    /// 3-limited Bellman–Ford steps.
    pub work_limited: u64,
    /// Path-doubling inner steps.
    pub work_doubling: u64,
    /// PRAM depth.
    pub depth: u64,
    /// Largest measured/predicted ratio of the Thm 4.1/5.1 ledger.
    pub ledger_max_ratio: f64,
    /// Every ledger entry within its envelope.
    pub ledger_ok: bool,
    /// `|E⁺|`.
    pub eplus_edges: u64,
}

/// Build `E⁺` and the query schedule (Alg 4.1 or 4.3).
pub fn prepare(g: Graph, tree: SepTree, alg: Alg) -> Res<(Oracle, PrepareFacts)> {
    let _s = span("core.prepare");
    let algo = match alg {
        Alg::LeavesUp => Algorithm::LeavesUp,
        Alg::PathDoubling => Algorithm::PathDoubling,
    };
    let metrics = Metrics::new();
    let oracle = Oracle::prepare(g, tree, algo, &metrics).map_err(err("prepare"))?;
    let report = metrics.report();
    let ledger = oracle.ledger().ok_or("prepared oracle without a ledger")?;
    let facts = PrepareFacts {
        work_fw: report.floyd_warshall,
        work_limited: report.limited,
        work_doubling: report.doubling,
        depth: report.depth,
        ledger_max_ratio: ledger.entries.iter().map(|e| e.ratio).fold(0.0, f64::max),
        ledger_ok: ledger.all_within(),
        eplus_edges: oracle.stats().eplus_edges as u64,
    };
    Ok((oracle, facts))
}

// ------------------------------------------------------- core: snapshot

/// Write the `spsep-oracle/v2` snapshot; returns its size in bytes. Not
/// synced to disk: the file is scratch, read back at once through the
/// page cache, and a sync would time the disk, not the library.
pub fn save_v2(oracle: &Oracle, path: &Path) -> Res<u64> {
    let _s = span("core.save_v2");
    let mut file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    oracle.save_v2(&mut file).map_err(err("save_v2"))?;
    Ok(file.metadata().map_err(|e| e.to_string())?.len())
}

/// Memory-map a v2 snapshot into a servable oracle.
pub fn load(path: &Path) -> Res<Oracle> {
    let _s = span("core.load_path");
    let oracle = Oracle::load_path(path).map_err(err("load_path"))?;
    if !oracle.is_slab_backed() {
        return Err("snapshot was not memory-mapped".into());
    }
    Ok(oracle)
}

/// Sizes that must survive a snapshot round trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Vertices.
    pub n: usize,
    /// Original arcs.
    pub m: usize,
    /// `|E⁺|`.
    pub eplus_edges: usize,
    /// Arc scans of one scheduled source run.
    pub arcs_per_query: u64,
}

/// The [`Shape`] of an oracle.
pub fn shape(oracle: &Oracle) -> Shape {
    Shape {
        n: oracle.n(),
        m: oracle.m(),
        eplus_edges: oracle.stats().eplus_edges,
        arcs_per_query: oracle.arcs_per_query(),
    }
}

// ---------------------------------------------------------- core: query

/// An oracle plus the work counter its queries charge.
pub struct Queries {
    oracle: Arc<Oracle>,
    metrics: Metrics,
}

/// Row-cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounts {
    /// Lookups answered from a cached row.
    pub hits: u64,
    /// Lookups that computed a row.
    pub misses: u64,
    /// Rows evicted.
    pub evictions: u64,
}

impl CacheCounts {
    /// The counts accrued since `before`.
    pub fn since(self, before: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

impl Queries {
    /// Query `oracle` (shared with a daemon, if any).
    pub fn new(oracle: Arc<Oracle>) -> Queries {
        Queries {
            oracle,
            metrics: Metrics::new(),
        }
    }

    /// The shared oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// `distance(s, t)`.
    pub fn distance(&self, s: usize, t: usize) -> Res<f64> {
        let _s = span("core.distance");
        self.oracle
            .distance(s, t, &self.metrics)
            .map_err(err("distance"))
    }

    /// The distance table of `s`.
    pub fn table(&self, s: usize) -> Res<Arc<[f64]>> {
        let _s = span("core.source_table");
        self.oracle
            .source_table(s, &self.metrics)
            .map_err(err("source_table"))
    }

    /// Many pairs at once; missing rows are computed in parallel.
    pub fn batch(&self, pairs: &[(usize, usize)]) -> Res<Vec<f64>> {
        let _s = span("core.batch");
        self.oracle
            .batch(pairs, &self.metrics)
            .map_err(err("batch"))
    }

    /// Turn the row cache off (and reset its counters): every later
    /// query computes its row.
    pub fn disable_cache(&self) {
        self.oracle.set_cache_capacity(0);
    }

    /// Relaxations charged by this handle's queries so far.
    pub fn relaxations(&self) -> u64 {
        self.metrics.work_of(Counter::Relaxation)
    }

    /// The oracle's row-cache counters.
    pub fn cache(&self) -> CacheCounts {
        let c = self.oracle.cache_stats();
        CacheCounts {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
        }
    }
}

// ------------------------------------------------------------ baselines

/// Dijkstra distance rows from `sources`, in parallel over sources.
pub fn dijkstra_rows(g: &Graph, sources: &[usize]) -> Vec<Vec<f64>> {
    let ctx = trace::context();
    sources
        .par_iter()
        .map(|&s| {
            trace::adopt(ctx, || {
                let _s = span("baselines.dijkstra");
                spsep_baselines::dijkstra::dijkstra(g, s).dist
            })
        })
        .collect()
}

// ---------------------------------------------------------------- rayon

/// Pool counters over a measured region.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounts {
    /// Nanoseconds the pool's workers spent running tasks.
    pub busy_ns: u64,
    /// `join` closures their caller took back.
    pub steal_backs: u64,
    /// Threads a parallel region may use.
    pub threads: usize,
}

/// Zero the pool counters.
pub fn pool_reset() {
    rayon::reset_pool_stats();
}

/// The pool counters since [`pool_reset`].
pub fn pool_counts() -> PoolCounts {
    let s = rayon::pool_stats();
    PoolCounts {
        busy_ns: s.workers.iter().map(|w| w.busy_ns).sum(),
        steal_backs: s.steal_backs,
        threads: rayon::current_num_threads(),
    }
}

// ---------------------------------------------------------------- serve

/// An in-process daemon serving one oracle on a loopback port.
pub struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<WireStats, spsep_graph::SpsepError>>>,
}

/// What the daemon counted, from its own stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonCounts {
    /// Connections shed by admission control.
    pub shed: u64,
    /// Error responses plus dropped connections.
    pub errors: u64,
}

/// What one metrics scrape read.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scrape {
    /// `spsep_served_total`.
    pub served: f64,
    /// `spsep_request_service_ns_sum`.
    pub service_ns_sum: f64,
    /// `spsep_request_service_ns_count`.
    pub service_count: f64,
}

/// Client deadline: a request that takes longer counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One answer off the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// A point distance.
    Dist(f64),
    /// A whole table.
    Table(Vec<f64>),
    /// Batch distances in input order.
    Batch(Vec<f64>),
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    /// Send `q`, wait for its answer.
    pub fn send(&mut self, q: &Query) -> Res<Answer> {
        let _s = span("serve.request");
        let req = match q {
            Query::Point(s, t) => Request::Point {
                source: *s as u64,
                target: *t as u64,
            },
            Query::Source(s) => Request::Source { source: *s as u64 },
            Query::Batch(pairs) => Request::Batch {
                pairs: pairs.iter().map(|&(s, t)| (s as u64, t as u64)).collect(),
            },
        };
        match self.0.request(&req).map_err(err("request"))? {
            Response::Dist(d) => Ok(Answer::Dist(d)),
            Response::Table(row) => Ok(Answer::Table(row)),
            Response::Batch(ds) => Ok(Answer::Batch(ds)),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}

impl Daemon {
    /// Bind a daemon with `workers` threads, telemetry on and the default
    /// cache, and start serving.
    pub fn start(oracle: Arc<Oracle>, workers: usize) -> Res<Daemon> {
        let _s = span("serve.bind");
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            telemetry: true,
            ..ServeConfig::default()
        };
        let server = Server::bind(oracle, config).map_err(err("bind"))?;
        let addr = server.local_addr().map_err(err("local_addr"))?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("bench-daemon".into())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Open a client connection.
    pub fn connect(&self) -> Res<Conn> {
        let _s = span("serve.connect");
        Client::connect(self.addr, CLIENT_TIMEOUT)
            .map(Conn)
            .map_err(err("connect"))
    }

    /// One `Request::Metrics` scrape on its own connection, validated as
    /// Prometheus text.
    pub fn scrape(&self) -> Res<Scrape> {
        let _s = span("telemetry.scrape");
        let mut client = Client::connect(self.addr, CLIENT_TIMEOUT).map_err(err("connect"))?;
        let text = match client.request(&Request::Metrics).map_err(err("scrape"))? {
            Response::Metrics(text) => text,
            other => return Err(format!("scrape answered {other:?}")),
        };
        spsep_telemetry::validate_prometheus_text(&text)?;
        let counters = spsep_telemetry::counter_samples(&text)?;
        let get = |name: &str| {
            counters
                .get(name)
                .copied()
                .ok_or_else(|| format!("scrape lacks {name}"))
        };
        Ok(Scrape {
            served: get("spsep_served_total")?,
            service_ns_sum: get("spsep_request_service_ns_sum")?,
            service_count: get("spsep_request_service_ns_count")?,
        })
    }

    /// Drain, stop and join the daemon; its final counts.
    pub fn stop(mut self) -> Res<DaemonCounts> {
        let _s = span("serve.shutdown");
        self.handle.shutdown();
        let thread = self.thread.take().ok_or("daemon already stopped")?;
        let stats = thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(err("daemon"))?;
        Ok(DaemonCounts {
            shed: stats.shed,
            errors: stats.errors.iter().sum::<u64>() + stats.io_errors,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}
