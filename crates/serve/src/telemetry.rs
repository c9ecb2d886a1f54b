//! The daemon's telemetry bundle: every metric the server exports,
//! registered once at bind time, plus the flight recorder.
//!
//! Hot-path handles (`Arc<Counter>` / `Arc<Histogram>`) are plain
//! relaxed atomics; the registry lock is touched only at registration
//! and on scrape. The whole bundle honours a kill switch — the
//! `telemetry` cargo feature (on by default) compiles the recording
//! calls out entirely, and [`ServeConfig::telemetry`] disables them at
//! runtime. The benchmark's road-serve-zipf workload runs with
//! recording on, so its `p50_ms` and `ops_per_s` carry the plane's
//! cost. Exposition keeps working either way; with recording off the
//! counters simply stay at zero.
//!
//! [`ServeConfig::telemetry`]: crate::server::ServeConfig

use std::sync::Arc;
use std::time::Duration;

use spsep_core::oracle::CacheStats;
use spsep_telemetry::{
    fnv1a, Counter, DumpReason, FlightConfig, FlightDump, FlightRecorder, Gauge, Histogram,
    Registry, RequestRecord,
};

use crate::protocol::{Request, WireError};

/// Stable label of a request opcode, indexed by [`op_index`].
pub(crate) const OP_LABELS: [&str; 8] = [
    "ping", "info", "point", "source", "batch", "stats", "metrics", "shutdown",
];

/// Dense index of a request for the per-opcode counters.
pub(crate) fn op_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Info => 1,
        Request::Point { .. } => 2,
        Request::Source { .. } => 3,
        Request::Batch { .. } => 4,
        Request::Stats => 5,
        Request::Metrics => 6,
        Request::Shutdown => 7,
    }
}

/// All server metrics plus the flight recorder, behind one struct so
/// `Shared` carries a single field.
pub(crate) struct ServerTelemetry {
    on: bool,
    pub(crate) registry: Arc<Registry>,
    pub(crate) flight: Arc<FlightRecorder>,
    requests: [Arc<Counter>; 8],
    errors: [Arc<Counter>; 5],
    pub(crate) served: Arc<Counter>,
    pub(crate) accepted: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) io_errors: Arc<Counter>,
    pub(crate) yields: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    flight_dumps: Arc<Counter>,
    pub(crate) scrapes: Arc<Counter>,
    pub(crate) queue_wait_ns: Arc<Histogram>,
    pub(crate) service_ns: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    draining: Arc<Gauge>,
    workers_g: Arc<Gauge>,
}

impl ServerTelemetry {
    /// Register every metric and size the flight recorder. `on` is the
    /// runtime kill switch; `slow_us` arms the flight recorder's slow
    /// trigger.
    pub(crate) fn new(workers: usize, on: bool, slow_us: Option<u64>) -> ServerTelemetry {
        let r = Arc::new(Registry::new());
        let requests = OP_LABELS.map(|op| {
            r.counter_with(
                "spsep_requests_total",
                &[("op", op)],
                "Requests decoded, by wire opcode",
            )
        });
        let errors = [
            WireError::Parse,
            WireError::InvalidQuery,
            WireError::Overloaded,
            WireError::ShuttingDown,
            WireError::Internal,
        ]
        .map(|e| {
            r.counter_with(
                "spsep_errors_total",
                &[("kind", e.label())],
                "Error responses sent, by taxonomy code",
            )
        });
        let flight_cfg = FlightConfig {
            slow_ns: slow_us.map_or(u64::MAX, |us| us.saturating_mul(1000)),
            ..FlightConfig::default()
        };
        ServerTelemetry {
            on,
            requests,
            errors,
            served: r.counter("spsep_served_total", "Requests answered successfully"),
            accepted: r.counter(
                "spsep_connections_accepted_total",
                "Connections admitted to the queue",
            ),
            shed: r.counter(
                "spsep_connections_shed_total",
                "Connections shed by admission control",
            ),
            io_errors: r.counter(
                "spsep_io_errors_total",
                "Connections dropped on an I/O failure or deadline expiry",
            ),
            yields: r.counter(
                "spsep_yields_total",
                "Connections yielded back to the queue at a frame boundary",
            ),
            panics: r.counter(
                "spsep_panics_total",
                "Worker panics caught and answered as internal errors",
            ),
            flight_dumps: r.counter(
                "spsep_flight_dumps_total",
                "Flight-recorder dumps triggered by slow or erroring requests",
            ),
            scrapes: r.counter(
                "spsep_metrics_scrapes_total",
                "Metrics expositions served (wire opcode or HTTP)",
            ),
            queue_wait_ns: r.histogram(
                "spsep_request_queue_wait_ns",
                "Admission-queue wait per connection, nanoseconds",
            ),
            service_ns: r.histogram(
                "spsep_request_service_ns",
                "Per-request service time (decode, answer, encode), nanoseconds",
            ),
            queue_depth: r.gauge("spsep_queue_depth", "Connections waiting for a worker"),
            draining: r.gauge("spsep_draining", "1 while graceful shutdown is draining"),
            workers_g: r.gauge("spsep_workers", "Worker threads serving requests"),
            flight: Arc::new(FlightRecorder::new(workers, flight_cfg)),
            registry: r,
        }
    }

    /// Whether recording is live: the `telemetry` cargo feature must be
    /// compiled in *and* the runtime switch must be on. With the
    /// feature off this is a constant `false` and the optimizer strips
    /// every recording call.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        cfg!(feature = "telemetry") && self.on
    }

    /// Count a decoded request by opcode.
    #[inline]
    pub(crate) fn count_request(&self, op: usize) {
        if self.on() {
            self.requests[op].inc();
        }
    }

    /// Count an error response by taxonomy code.
    #[inline]
    pub(crate) fn count_error(&self, code: WireError) {
        if self.on() {
            self.errors[code as usize - 1].inc();
        }
    }

    /// Record an admission-queue wait sample.
    #[inline]
    pub(crate) fn observe_queue_wait(&self, d: Duration) {
        if self.on() {
            self.queue_wait_ns.record(duration_ns(d));
        }
    }

    /// Record a service-time sample.
    #[inline]
    pub(crate) fn observe_service(&self, d: Duration) {
        if self.on() {
            self.service_ns.record(duration_ns(d));
        }
    }

    /// Feed one request into the flight recorder; returns the dump
    /// reason when this request tripped a window dump.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flight_record(
        &self,
        worker: u32,
        seq: u64,
        opcode: &'static str,
        frame: &[u8],
        start_ns: u64,
        queue_wait_ns: u64,
        service: Duration,
        cache_hits: u64,
        error: Option<&'static str>,
    ) -> Option<DumpReason> {
        if !self.on() {
            return None;
        }
        let reason = self.flight.record(RequestRecord {
            seq,
            worker,
            opcode,
            args_digest: fnv1a(frame),
            start_ns,
            queue_wait_ns,
            service_ns: duration_ns(service),
            cache_hits,
            error: error.map(str::to_string),
        });
        if reason.is_some() {
            self.flight_dumps.inc();
        }
        reason
    }

    /// The retained flight dumps.
    pub(crate) fn flight_dumps(&self) -> Vec<FlightDump> {
        self.flight.dumps()
    }

    /// A histogram-derived quantile in microseconds (the wire unit).
    pub(crate) fn quantile_us(h: &Histogram, q: f64) -> f64 {
        h.snapshot().quantile(q) as f64 / 1000.0
    }

    /// Refresh every scrape-time gauge. Called under no lock except the
    /// registry's registration mutex (idempotent re-registration
    /// returns the existing handles), so it is safe from any thread.
    pub(crate) fn refresh_gauges(
        &self,
        queue_depth: usize,
        draining: bool,
        workers: usize,
        cache: &CacheStats,
    ) {
        self.queue_depth.set(queue_depth as f64);
        self.draining.set(if draining { 1.0 } else { 0.0 });
        self.workers_g.set(workers as f64);

        let r = &self.registry;
        r.gauge("spsep_cache_hits", "Row-cache hits across all shards")
            .set(cache.hits as f64);
        r.gauge("spsep_cache_misses", "Row-cache misses across all shards")
            .set(cache.misses as f64);
        r.gauge(
            "spsep_cache_evictions",
            "Row-cache evictions across all shards",
        )
        .set(cache.evictions as f64);
        r.gauge("spsep_cache_entries", "Rows resident across all shards")
            .set(cache.entries as f64);
        r.gauge("spsep_cache_capacity", "Configured row-cache capacity")
            .set(cache.capacity as f64);
        for (i, s) in cache.shards.iter().enumerate() {
            let shard = i.to_string();
            r.gauge_with(
                "spsep_cache_shard_hits",
                &[("shard", &shard)],
                "Row-cache hits, per shard",
            )
            .set(s.hits as f64);
            r.gauge_with(
                "spsep_cache_shard_misses",
                &[("shard", &shard)],
                "Row-cache misses, per shard",
            )
            .set(s.misses as f64);
            r.gauge_with(
                "spsep_cache_shard_entries",
                &[("shard", &shard)],
                "Rows resident, per shard",
            )
            .set(s.entries as f64);
        }

        // Executor pool telemetry: the query path runs on the global
        // `rayon`-shim pool, whose counters accumulate from pool
        // creation — monotone, but exported as gauges because they are
        // sampled, not owned, by this registry.
        let pool = rayon::pool_stats();
        r.gauge(
            "spsep_pool_steal_backs",
            "join second-closures stolen back by their caller",
        )
        .set(pool.steal_backs as f64);
        r.gauge(
            "spsep_pool_reclaimed_handles",
            "Stale batch handles reclaimed by their caller",
        )
        .set(pool.reclaimed_handles as f64);
        r.gauge(
            "spsep_pool_max_queue_depth",
            "Maximum executor injector queue depth observed",
        )
        .set(pool.max_queue_depth as f64);
        for w in &pool.workers {
            r.gauge_with(
                "spsep_pool_worker_busy_ns",
                &[("worker", &w.name)],
                "Nanoseconds spent executing tasks, per executor worker",
            )
            .set(w.busy_ns as f64);
            r.gauge_with(
                "spsep_pool_worker_tasks",
                &[("worker", &w.name)],
                "Tasks executed, per executor worker",
            )
            .set(w.tasks as f64);
        }
    }

    /// Export the Theorem 4.1/5.1 work/depth ledger as one gauge pair
    /// per entry: the measured/predicted ratio and the envelope
    /// verdict. Called once at bind time when the served oracle carries
    /// a ledger (prepared in-process or reloaded from the sidecar).
    pub(crate) fn set_ledger(&self, ledger: &spsep_core::analysis::WorkLedger) {
        for e in &ledger.entries {
            self.registry
                .gauge_with(
                    "spsep_ledger_ratio",
                    &[("entry", &e.label)],
                    "Work/depth ledger: measured / predicted envelope ratio",
                )
                .set(e.ratio);
            self.registry
                .gauge_with(
                    "spsep_ledger_within",
                    &[("entry", &e.label)],
                    "Work/depth ledger: 1 when measured <= slack * predicted",
                )
                .set(if e.within { 1.0 } else { 0.0 });
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
