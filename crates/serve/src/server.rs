//! The daemon: bounded-admission TCP listener, thread-per-worker
//! request loop, live telemetry plane, graceful shutdown.
//!
//! ```text
//!          accept loop (main thread, non-blocking poll)
//!                 │  queue full → Overloaded frame, close (shed)
//!                 │  draining   → ShuttingDown frame, close
//!                 ▼
//!        bounded connection queue (Mutex<VecDeque> + Condvar)
//!                 │  pop ⇒ queue-wait sample
//!                 ▼
//!      worker 0 … worker W−1   (thread per worker, catch_unwind)
//!                 │  framed requests, per-request deadlines
//!                 │  per-request: counters, histograms, flight record
//!                 ▼
//!        Arc<Oracle> — sharded LRU row cache (spsep-core)
//!
//!   side port (optional): GET /metrics → Prometheus text exposition
//! ```
//!
//! Robustness invariants (pinned by `spsep-testkit`'s wire-corruption
//! and shutdown suites):
//!
//! * **no panic escapes a worker** — connection handlers run under
//!   [`std::panic::catch_unwind`]; a panic answers `Internal` and
//!   closes only that connection;
//! * **no hung connection** — every socket carries read/write
//!   deadlines, so a dead or stalled peer costs at most one timeout;
//! * **every refusal is typed** — shed connections get `Overloaded`,
//!   drain-phase requests get `ShuttingDown`, malformed frames get
//!   `Parse`, out-of-range queries get `InvalidQuery`;
//! * **shutdown drains** — in-flight requests complete, queued
//!   connections are answered with a typed error, the listener closes,
//!   and [`Server::run`] returns the final stats (the daemon exits 0);
//! * **telemetry is passive** — recording is relaxed atomics off the
//!   lock path; disabling it (runtime switch or compiling without the
//!   `telemetry` feature) never changes an answer byte.

use crate::protocol::{self, Request, Response, WireError, WireStats, MAX_FRAME};
use crate::telemetry::{op_index, ServerTelemetry, OP_LABELS};
use spsep_core::{Algorithm, Oracle};
use spsep_graph::SpsepError;
use spsep_pram::Metrics;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; each serves one connection at a time.
    pub workers: usize,
    /// Pending-connection queue bound. An accept that would exceed it
    /// is shed with a typed `Overloaded` error — the admission-control
    /// cap.
    pub queue_depth: usize,
    /// Frame payload bound in bytes (both directions).
    pub max_frame: u32,
    /// Per-request read deadline; doubles as the idle keep-alive at a
    /// frame boundary.
    pub read_timeout: Duration,
    /// Per-response write deadline.
    pub write_timeout: Duration,
    /// Runtime telemetry switch. When `false` the registry and flight
    /// recorder exist but record nothing (exposition still answers,
    /// with zeroed counters). Compile with `--no-default-features` to
    /// strip the recording calls entirely.
    pub telemetry: bool,
    /// Optional plain-HTTP side port serving `GET /metrics` for
    /// scrapers that do not speak the framed protocol (port 0 picks a
    /// free port). `None` disables the listener; the wire opcode
    /// `Request::Metrics` works regardless.
    pub metrics_addr: Option<String>,
    /// Slow-query threshold for the flight recorder, microseconds: a
    /// request at or above it triggers a window dump. `None` arms the
    /// error trigger only.
    pub slow_us: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_frame: MAX_FRAME,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            telemetry: true,
            metrics_addr: None,
            slow_us: None,
        }
    }
}

/// Paper-facing algorithm code used on the wire (Algorithm 4.1 → 41,
/// Algorithm 4.3 → 43, Remark 4.4 → 44).
fn algo_wire_code(algo: Algorithm) -> u8 {
    match algo {
        Algorithm::LeavesUp => 41,
        Algorithm::PathDoubling => 43,
        Algorithm::SharedDoubling => 44,
    }
}

/// Atomic serving counters, snapshotted into [`WireStats`]. These are
/// the wire-stats source of truth and always count (they predate the
/// telemetry plane and cost one relaxed add each); the registry's
/// counters mirror them for Prometheus exposition.
struct ServerStats {
    accepted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    errors: [AtomicU64; 5],
    io_errors: AtomicU64,
}

impl ServerStats {
    fn new() -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            io_errors: AtomicU64::new(0),
        }
    }

    fn count_error(&self, code: WireError) {
        self.errors[code as usize - 1].fetch_add(1, Ordering::Relaxed);
    }
}

/// A connection in the pending queue. Connections enter once at
/// admission and re-enter each time a worker *yields* them at a frame
/// boundary (round-robin fairness: one keep-alive client cannot pin a
/// worker while others wait).
struct Conn {
    stream: TcpStream,
    /// When the connection (re-)entered the queue.
    enqueued: Instant,
    /// `true` until the first pop: the admission queue-wait sample is
    /// taken once, not per yield cycle.
    fresh: bool,
    /// Last time a byte arrived — the keep-alive clock, preserved
    /// across yields so the idle expiry stays `read_timeout` total.
    last_activity: Instant,
    /// The admission queue-wait, carried into every flight record this
    /// connection produces.
    queue_wait_ns: u64,
}

/// Everything a worker needs, shared behind one `Arc`.
struct Shared {
    oracle: Arc<Oracle>,
    config: ServeConfig,
    metrics: Metrics,
    stats: ServerStats,
    tel: ServerTelemetry,
    queue: Mutex<VecDeque<Conn>>,
    available: Condvar,
    /// Set by [`ServerHandle::shutdown`], a `Shutdown` request, or a
    /// Unix signal: stop admitting, start draining.
    draining: AtomicBool,
    /// Set once the accept loop has exited; lets idle workers leave.
    accept_done: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal_received()
    }

    fn snapshot(&self) -> WireStats {
        let cache = self.oracle.cache_stats();
        WireStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            served: self.stats.served.load(Ordering::Relaxed),
            errors: std::array::from_fn(|i| self.stats.errors[i].load(Ordering::Relaxed)),
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
            // Percentiles come from the fixed-footprint telemetry
            // histograms (≤3.125% relative bucket width); zeros when
            // telemetry is off.
            queue_wait_us: [
                ServerTelemetry::quantile_us(&self.tel.queue_wait_ns, 0.50),
                ServerTelemetry::quantile_us(&self.tel.queue_wait_ns, 0.99),
                ServerTelemetry::quantile_us(&self.tel.queue_wait_ns, 0.999),
            ],
            service_us: [
                ServerTelemetry::quantile_us(&self.tel.service_ns, 0.50),
                ServerTelemetry::quantile_us(&self.tel.service_ns, 0.99),
                ServerTelemetry::quantile_us(&self.tel.service_ns, 0.999),
            ],
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_shards: cache.shards.len() as u32,
            workers: self.config.workers as u32,
        }
    }
}

/// Render the Prometheus exposition: refresh the scrape-time gauges
/// (queue depth, drain flag, cache shards, executor pool), then walk
/// the registry. Served by both the `Request::Metrics` wire opcode and
/// the HTTP side port.
fn metrics_text(shared: &Shared) -> String {
    if shared.tel.on() {
        shared.tel.scrapes.inc();
    }
    let queue_depth = lock_queue(shared).len();
    shared.tel.refresh_gauges(
        queue_depth,
        shared.shutting_down(),
        shared.config.workers,
        &shared.oracle.cache_stats(),
    );
    spsep_telemetry::render(&shared.tel.registry)
}

/// Remote control for a running [`Server`] — clone it into another
/// thread and ask the daemon to drain and exit.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: refuse new connections, drain the
    /// queue with typed errors, let in-flight requests finish.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Live stats snapshot.
    pub fn stats(&self) -> WireStats {
        self.shared.snapshot()
    }

    /// The Prometheus text exposition, exactly as a scrape would see
    /// it (refreshes the gauges; counts as a scrape).
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// The flight-recorder dumps retained so far (bounded; oldest
    /// evicted first).
    pub fn flight_dumps(&self) -> Vec<spsep_telemetry::FlightDump> {
        self.shared.tel.flight_dumps()
    }
}

/// The query daemon. Bind with [`Server::bind`], then block on
/// [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    /// Optional plain-HTTP `GET /metrics` side listener.
    http: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener (and the metrics side port, when configured)
    /// and set up the shared worker state. The daemon does not serve
    /// until [`Server::run`]. When the oracle carries a work/depth
    /// ledger (prepared in-process or reloaded from a sidecar), the
    /// Theorem 4.1/5.1 envelope verdicts are exported as gauges.
    ///
    /// # Errors
    ///
    /// [`SpsepError::Io`] when an address cannot be bound.
    pub fn bind(oracle: Arc<Oracle>, config: ServeConfig) -> Result<Server, SpsepError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let http = match &config.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tel = ServerTelemetry::new(config.workers.max(1), config.telemetry, config.slow_us);
        if let Some(ledger) = oracle.ledger() {
            tel.set_ledger(ledger);
        }
        let shared = Arc::new(Shared {
            oracle,
            config,
            metrics: Metrics::new(),
            stats: ServerStats::new(),
            tel,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
        });
        Ok(Server {
            listener,
            http,
            shared,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`SpsepError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, SpsepError> {
        Ok(self.listener.local_addr()?)
    }

    /// The bound metrics side-port address, when one was configured.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A control handle for triggering shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is requested (via [`ServerHandle`], a
    /// `Shutdown` request, or SIGINT/SIGTERM once
    /// [`install_signal_handlers`] ran), then drain and return the
    /// final stats report.
    ///
    /// # Errors
    ///
    /// [`SpsepError::Io`] only for hard listener failures; per-
    /// connection errors are counted, answered, and never abort the
    /// daemon.
    pub fn run(self) -> Result<WireStats, SpsepError> {
        let Server {
            listener,
            http,
            shared,
        } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spsep-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i as u32))
            })
            .collect::<Result<_, _>>()?;
        let http_thread = match http {
            Some(l) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("spsep-metrics-http".to_string())
                        .spawn(move || http_loop(&l, &shared))?,
                )
            }
            None => None,
        };

        while !shared.shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => admit(&shared, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(SpsepError::Io(e)),
            }
        }
        // Stop admitting: close the listener before draining so the
        // port is released the moment shutdown begins.
        drop(listener);
        shared.accept_done.store(true, Ordering::SeqCst);
        shared.available.notify_all();
        for w in workers {
            // A worker that panicked already counted an Internal error;
            // joining it must not take the daemon down with it.
            let _ = w.join();
        }
        if let Some(t) = http_thread {
            let _ = t.join();
        }
        Ok(shared.snapshot())
    }
}

/// Admission control: enqueue the connection or shed it with a typed
/// error frame.
fn admit(shared: &Shared, stream: TcpStream) {
    // Deadlines are set before any byte moves: even the shed path must
    // not let a dead peer pin the accept loop.
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut q = lock_queue(shared);
    if q.len() >= shared.config.queue_depth {
        drop(q);
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        if shared.tel.on() {
            shared.tel.shed.inc();
        }
        refuse(
            shared,
            stream,
            WireError::Overloaded,
            "connection queue full",
        );
        return;
    }
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    if shared.tel.on() {
        shared.tel.accepted.inc();
    }
    let now = Instant::now();
    q.push_back(Conn {
        stream,
        enqueued: now,
        fresh: true,
        last_activity: now,
        queue_wait_ns: 0,
    });
    drop(q);
    shared.available.notify_one();
}

/// Best-effort typed refusal: write one error frame and close.
fn refuse(shared: &Shared, mut stream: TcpStream, code: WireError, message: &str) {
    shared.stats.count_error(code);
    shared.tel.count_error(code);
    let resp = Response::Error {
        code,
        message: message.to_string(),
    };
    if let Ok(bytes) = protocol::encode_response(&resp, shared.config.max_frame) {
        let _ = protocol::write_frame(&mut stream, &bytes);
    }
}

fn lock_queue(shared: &Shared) -> std::sync::MutexGuard<'_, VecDeque<Conn>> {
    match shared.queue.lock() {
        Ok(g) => g,
        // The queue holds plain values; a panic inside a critical
        // section cannot leave it inconsistent.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// What a worker does with a connection after serving it for a while.
enum ConnFate {
    /// Closed (clean close, expiry, framing violation, drain).
    Closed,
    /// Other connections are waiting: put this one back in the queue
    /// and serve them first (frame-granularity round-robin).
    Yielded,
}

/// Worker thread: pop connections until shutdown has drained the
/// queue.
fn worker_loop(shared: &Shared, worker: u32) {
    loop {
        let popped = {
            let mut q = lock_queue(shared);
            loop {
                if let Some(conn) = q.pop_front() {
                    break Some(conn);
                }
                if shared.shutting_down() && shared.accept_done.load(Ordering::SeqCst) {
                    break None;
                }
                q = match shared.available.wait_timeout(q, Duration::from_millis(50)) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(mut conn) = popped else {
            return;
        };
        if conn.fresh {
            let wait = conn.enqueued.elapsed();
            shared.tel.observe_queue_wait(wait);
            conn.queue_wait_ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
            conn.fresh = false;
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(shared, &mut conn, worker)
        }));
        match outcome {
            Ok(ConnFate::Yielded) => {
                if shared.tel.on() {
                    shared.tel.yields.inc();
                }
                conn.enqueued = Instant::now();
                let mut q = lock_queue(shared);
                q.push_back(conn);
                drop(q);
                shared.available.notify_one();
            }
            Ok(ConnFate::Closed) => {}
            Err(_) => {
                // A panic in the oracle or codec must cost exactly one
                // connection: answer Internal best-effort and move on.
                let resp = Response::Error {
                    code: WireError::Internal,
                    message: "internal server error".to_string(),
                };
                shared.stats.count_error(WireError::Internal);
                shared.tel.count_error(WireError::Internal);
                if shared.tel.on() {
                    shared.tel.panics.inc();
                }
                if let Ok(bytes) = protocol::encode_response(&resp, shared.config.max_frame) {
                    let _ = protocol::write_frame(&mut conn.stream, &bytes);
                }
            }
        }
    }
}

/// `true` when other connections are waiting for a worker.
fn others_waiting(shared: &Shared) -> bool {
    !lock_queue(shared).is_empty()
}

/// The interval at which a worker waiting at a frame boundary
/// re-checks the shutdown flag and the queue: bounds both graceful-
/// shutdown latency and the yield latency for waiting connections,
/// without shortening any mid-frame deadline.
const BOUNDARY_POLL: Duration = Duration::from_millis(50);

/// What arrived at a frame boundary.
enum Boundary {
    Frame(Vec<u8>),
    /// Clean close or keep-alive expiry.
    Close,
    /// Nothing yet, but other connections are waiting — yield.
    Yield,
    /// Framing violation (answer typed, then close).
    Broken(SpsepError),
    /// Transport failure.
    Dead,
}

/// Wait for the next frame. Polls the frame *start* at
/// [`BOUNDARY_POLL`] so an idle connection notices shutdown within one
/// tick and yields to waiting connections between requests; once the
/// first byte arrives, the full per-request read deadline applies to
/// the rest of the frame. The keep-alive clock (`last_activity`)
/// spans yields, so the idle expiry is `read_timeout` of genuine
/// silence, not per-visit.
fn next_frame(shared: &Shared, conn: &mut Conn) -> Boundary {
    let poll = shared.config.read_timeout.min(BOUNDARY_POLL);
    let _ = conn.stream.set_read_timeout(Some(poll));
    loop {
        match protocol::poll_frame_start(&mut conn.stream) {
            Ok(protocol::FrameStart::Eof) => return Boundary::Close,
            Ok(protocol::FrameStart::Idle) => {
                if shared.shutting_down()
                    || conn.last_activity.elapsed() >= shared.config.read_timeout
                {
                    return Boundary::Close;
                }
                if others_waiting(shared) {
                    return Boundary::Yield;
                }
            }
            Ok(protocol::FrameStart::Started(b)) => {
                conn.last_activity = Instant::now();
                let _ = conn
                    .stream
                    .set_read_timeout(Some(shared.config.read_timeout));
                return match protocol::read_frame_rest(&mut conn.stream, b, shared.config.max_frame)
                {
                    Ok(payload) => Boundary::Frame(payload),
                    Err(SpsepError::Io(_)) => Boundary::Dead,
                    Err(e) => Boundary::Broken(e),
                };
            }
            Err(_) => return Boundary::Dead,
        }
    }
}

/// Serve one connection until it closes, breaks, or yields to waiting
/// connections at a frame boundary.
fn serve_connection(shared: &Shared, conn: &mut Conn, worker: u32) -> ConnFate {
    loop {
        let frame = match next_frame(shared, conn) {
            Boundary::Frame(payload) => payload,
            Boundary::Close => return ConnFate::Closed,
            Boundary::Yield => return ConnFate::Yielded,
            Boundary::Dead => {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                if shared.tel.on() {
                    shared.tel.io_errors.inc();
                }
                return ConnFate::Closed;
            }
            Boundary::Broken(e) => {
                // Framing violation (oversized/zero prefix, mid-frame
                // truncation or stall): answer typed, then close — the
                // stream position is unrecoverable.
                send(
                    shared,
                    &mut conn.stream,
                    Response::Error {
                        code: WireError::Parse,
                        message: e.to_string(),
                    },
                );
                return ConnFate::Closed;
            }
        };
        let started = Instant::now();
        // Flight-recorder bookkeeping is gathered up front so the
        // record covers decode + answer + encode. The cache-hit delta
        // is sampled lock-free; under concurrency it may attribute
        // another worker's hits to this request (documented, bounded
        // imprecision).
        let tel_on = shared.tel.on();
        let (seq, start_ns, hits_before) = if tel_on {
            (
                shared.tel.flight.next_seq(),
                shared.tel.flight.now_ns(),
                shared.oracle.cache_hits_total(),
            )
        } else {
            (0, 0, 0)
        };
        let stream = &mut conn.stream;
        let req = match protocol::decode_request(&frame) {
            Ok(req) => req,
            Err(e) => {
                // Payload-level damage: the framing is intact, so the
                // connection stays usable after the typed reply.
                let keep = send(
                    shared,
                    stream,
                    Response::Error {
                        code: WireError::Parse,
                        message: e.to_string(),
                    },
                );
                shared.tel.flight_record(
                    worker,
                    seq,
                    "parse",
                    &frame,
                    start_ns,
                    conn.queue_wait_ns,
                    started.elapsed(),
                    0,
                    Some(WireError::Parse.label()),
                );
                if keep {
                    continue;
                }
                return ConnFate::Closed;
            }
        };
        shared.tel.count_request(op_index(&req));
        let op_label = OP_LABELS[op_index(&req)];
        // Requests arriving once the drain has begun are refused with a
        // typed error; the request currently executing on each worker
        // (and the control plane: Ping/Stats/Metrics/Shutdown) still
        // completes — a scraper can watch the drain happen.
        if shared.shutting_down()
            && matches!(
                req,
                Request::Point { .. }
                    | Request::Source { .. }
                    | Request::Batch { .. }
                    | Request::Info
            )
        {
            send(
                shared,
                stream,
                Response::Error {
                    code: WireError::ShuttingDown,
                    message: "daemon is draining for shutdown".to_string(),
                },
            );
            return ConnFate::Closed;
        }
        let resp = match req {
            Request::Stats => Response::Stats(shared.snapshot()),
            Request::Metrics => Response::Metrics(metrics_text(shared)),
            Request::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                shared.available.notify_all();
                count_served(shared, tel_on);
                send(shared, stream, Response::ShutdownAck);
                return ConnFate::Closed;
            }
            ref q => match answer_query(&shared.oracle, q, &shared.metrics) {
                Some(resp) => resp,
                // Unreachable: Stats/Metrics/Shutdown are handled above.
                None => Response::Error {
                    code: WireError::Internal,
                    message: "unroutable request".to_string(),
                },
            },
        };
        let service = started.elapsed();
        shared.tel.observe_service(service);
        let was_error = matches!(resp, Response::Error { .. });
        let err_label = match &resp {
            Response::Error { code, .. } => Some(code.label()),
            _ => None,
        };
        let hits = if tel_on {
            shared.oracle.cache_hits_total().saturating_sub(hits_before)
        } else {
            0
        };
        shared.tel.flight_record(
            worker,
            seq,
            op_label,
            &frame,
            start_ns,
            conn.queue_wait_ns,
            service,
            hits,
            err_label,
        );
        if !was_error {
            count_served(shared, tel_on);
        }
        if !send(shared, stream, resp) {
            return ConnFate::Closed;
        }
    }
}

/// Count one successful answer. Called after the response is built and
/// before it is written: a client holding the reply must see it counted
/// by any scrape it sends next (a scrape's own rendering does not count
/// itself, since its response is built first).
fn count_served(shared: &Shared, tel_on: bool) {
    shared.stats.served.fetch_add(1, Ordering::Relaxed);
    if tel_on {
        shared.tel.served.inc();
    }
}

/// Encode and write one response, downgrading an unencodable (over-
/// sized) response to a typed `InvalidQuery` error and counting every
/// error by taxonomy code. Returns `false` when the connection is no
/// longer writable.
fn send(shared: &Shared, stream: &mut TcpStream, resp: Response) -> bool {
    if let Response::Error { code, .. } = resp {
        shared.stats.count_error(code);
        shared.tel.count_error(code);
    }
    let bytes = match protocol::encode_response(&resp, shared.config.max_frame) {
        Ok(bytes) => bytes,
        Err(e) => {
            let fallback = Response::Error {
                code: WireError::InvalidQuery,
                message: format!("response exceeds the frame bound: {e}"),
            };
            shared.stats.count_error(WireError::InvalidQuery);
            shared.tel.count_error(WireError::InvalidQuery);
            match protocol::encode_response(&fallback, shared.config.max_frame) {
                Ok(bytes) => bytes,
                Err(_) => return false,
            }
        }
    };
    match protocol::write_frame(stream, &bytes) {
        Ok(()) => true,
        Err(_) => {
            shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            if shared.tel.on() {
                shared.tel.io_errors.inc();
            }
            false
        }
    }
}

/// Serve the plain-HTTP metrics side port until shutdown: a minimal
/// HTTP/1.1 responder that answers `GET /metrics` with the text
/// exposition and anything else with 404. One request per connection
/// (`Connection: close`); deadlines bound every socket operation.
fn http_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => serve_http(shared, stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A hard listener failure kills only the side port; the
            // wire opcode keeps serving scrapes.
            Err(_) => return,
        }
    }
}

/// Answer one HTTP request on the metrics side port, best-effort.
fn serve_http(shared: &Shared, mut stream: TcpStream) {
    use std::io::{Read, Write};
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    // Read until the header terminator (we ignore the headers) with a
    // hard cap so a hostile peer cannot balloon the buffer.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = buf
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let (status, body) = if request_line.starts_with(b"GET /metrics ") {
        ("200 OK", metrics_text(shared))
    } else {
        (
            "404 Not Found",
            "only GET /metrics is served here\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Answer a data-plane request directly against the oracle — the same
/// routine serves the daemon and `spsep-cli serve`'s one-shot replay
/// mode, so both speak the identical codec and produce bit-identical
/// answers. Returns `None` for the daemon-only control requests
/// (`Stats`, `Metrics`, `Shutdown`).
pub fn answer_query(oracle: &Oracle, req: &Request, metrics: &Metrics) -> Option<Response> {
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Info => Response::Info {
            n: oracle.n() as u64,
            m: oracle.m() as u64,
            eplus: oracle.stats().eplus_edges as u64,
            algo: algo_wire_code(oracle.algo()),
        },
        Request::Point { source, target } => {
            match checked_pair(oracle, *source, *target)
                .and_then(|(u, v)| oracle.distance(u, v, metrics))
            {
                Ok(d) => Response::Dist(d),
                Err(e) => query_error(&e),
            }
        }
        Request::Source { source } => {
            match checked_vertex(oracle, *source).and_then(|u| oracle.source_table(u, metrics)) {
                Ok(row) => Response::Table(row.to_vec()),
                Err(e) => query_error(&e),
            }
        }
        Request::Batch { pairs } => {
            let checked: Result<Vec<(usize, usize)>, SpsepError> = pairs
                .iter()
                .map(|&(u, v)| checked_pair(oracle, u, v))
                .collect();
            match checked.and_then(|pairs| oracle.batch(&pairs, metrics)) {
                Ok(dists) => Response::Batch(dists),
                Err(e) => query_error(&e),
            }
        }
        Request::Stats | Request::Metrics | Request::Shutdown => return None,
    };
    Some(resp)
}

/// Reject wire vertex ids that do not fit `usize` or the instance.
fn checked_vertex(oracle: &Oracle, v: u64) -> Result<usize, SpsepError> {
    let n = oracle.n() as u64;
    if v >= n {
        return Err(SpsepError::invalid_vertex(
            v.min(u32::MAX as u64) as u32,
            format!("query vertex out of range 0..{n}"),
        ));
    }
    Ok(v as usize)
}

fn checked_pair(oracle: &Oracle, u: u64, v: u64) -> Result<(usize, usize), SpsepError> {
    Ok((checked_vertex(oracle, u)?, checked_vertex(oracle, v)?))
}

/// Map an oracle error onto the wire taxonomy.
fn query_error(e: &SpsepError) -> Response {
    let code = match e {
        SpsepError::InvalidGraph { .. } | SpsepError::InvalidDecomposition { .. } => {
            WireError::InvalidQuery
        }
        SpsepError::Parse { .. } => WireError::Parse,
        _ => WireError::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Set by the signal handler; polled by the accept loop and workers.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT/SIGTERM arrived since [`install_signal_handlers`].
pub fn signal_received() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work: flip the flag; the serving threads
    // poll it at their next loop iteration.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM into the graceful-shutdown flag so `kill`
/// and Ctrl-C drain the daemon instead of aborting it mid-request.
/// Uses the raw libc `signal(2)` binding (the workspace links libc
/// through std already); a no-op on non-Unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is async-signal-safe (a single atomic
        // store) and has the exact `extern "C" fn(i32)` ABI signal(2)
        // expects.
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_codes_follow_the_paper_numbering() {
        assert_eq!(algo_wire_code(Algorithm::LeavesUp), 41);
        assert_eq!(algo_wire_code(Algorithm::PathDoubling), 43);
        assert_eq!(algo_wire_code(Algorithm::SharedDoubling), 44);
    }

    // Recording is dead-coded without the `telemetry` feature, so the
    // two tests below only make sense with it compiled in.
    #[cfg(feature = "telemetry")]
    #[test]
    fn server_telemetry_exposition_validates() {
        let tel = ServerTelemetry::new(2, true, Some(1_000));
        tel.count_request(op_index(&Request::Ping));
        tel.count_request(op_index(&Request::Point {
            source: 0,
            target: 1,
        }));
        tel.count_error(WireError::Parse);
        tel.observe_queue_wait(Duration::from_micros(3));
        tel.observe_service(Duration::from_micros(120));
        let text = spsep_telemetry::render(&tel.registry);
        spsep_telemetry::validate_prometheus_text(&text).expect("exposition validates");
        assert!(text.contains("spsep_requests_total{op=\"ping\"} 1"));
        assert!(text.contains("spsep_requests_total{op=\"point\"} 1"));
        assert!(text.contains("spsep_errors_total{kind=\"parse\"} 1"));
        assert!(text.contains("spsep_request_service_ns_count 1"));
    }

    #[test]
    fn telemetry_switch_gates_recording() {
        let tel = ServerTelemetry::new(1, false, None);
        tel.count_request(op_index(&Request::Ping));
        tel.observe_service(Duration::from_micros(50));
        assert!(!tel.on());
        let text = spsep_telemetry::render(&tel.registry);
        assert!(
            text.contains("spsep_requests_total{op=\"ping\"} 0"),
            "counters stay zero with the runtime switch off"
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn slow_trigger_produces_a_flight_dump() {
        let tel = ServerTelemetry::new(1, true, Some(0));
        let reason = tel.flight_record(
            0,
            tel.flight.next_seq(),
            "point",
            b"frame",
            tel.flight.now_ns(),
            7,
            Duration::from_micros(10),
            1,
            None,
        );
        assert!(matches!(reason, Some(spsep_telemetry::DumpReason::Slow)));
        let dumps = tel.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].records[0].opcode, "point");
    }
}
