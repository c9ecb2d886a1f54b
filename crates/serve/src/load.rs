//! Open-loop load harness with zipfian skew and chaos injection.
//!
//! **Open-loop** means arrivals are scheduled on a fixed clock
//! (`rate` requests/second, spread round-robin over `connections`
//! independent connections) and latency is measured from the
//! *scheduled arrival*, not from when the client got around to
//! sending. A daemon that falls behind therefore shows the queueing
//! delay it actually inflicts — closed-loop harnesses hide exactly
//! this (coordinated omission).
//!
//! The query stream mixes point, single-source, and batch requests
//! with zipfian-skewed sources (hot sources exercise the cache shards;
//! the tail defeats them). Chaos mode replaces a fraction of requests
//! with protocol corruptions and mid-stream disconnects — the daemon
//! must answer every one with a typed error or a clean close while
//! healthy traffic continues on the other connections.

use crate::client::Client;
use crate::protocol::{Request, Response, WireStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep_core::Oracle;
use spsep_graph::SpsepError;
use spsep_pram::Metrics;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative weights of the request kinds in the generated stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Point-to-point queries.
    pub point: u32,
    /// Full single-source table queries.
    pub source: u32,
    /// Batch queries ([`LoadConfig::batch_size`] pairs each).
    pub batch: u32,
}

impl Default for Mix {
    fn default() -> Mix {
        Mix {
            point: 8,
            source: 1,
            batch: 1,
        }
    }
}

/// Load-harness configuration.
#[derive(Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Target arrival rate, requests per second (all connections
    /// combined).
    pub rate: f64,
    /// How long to generate arrivals for.
    pub duration: Duration,
    /// Concurrent connections; arrivals are assigned round-robin.
    pub connections: usize,
    /// Request-kind mix.
    pub mix: Mix,
    /// Pairs per batch request.
    pub batch_size: usize,
    /// Zipf exponent θ for source skew (0 = uniform). Source `k` is
    /// drawn with probability ∝ 1/(k+1)^θ over the vertex range.
    pub zipf_theta: f64,
    /// Number of vertices in the served instance (the sampling range).
    pub n: usize,
    /// Probability that a generated request is replaced by a chaos
    /// injection (0 disables chaos).
    pub chaos: f64,
    /// RNG seed — the schedule, query stream, and injections are fully
    /// deterministic given the seed.
    pub seed: u64,
    /// Per-request client deadline.
    pub timeout: Duration,
    /// When set, every point/source/batch answer is compared
    /// bit-for-bit against this oracle; mismatches are counted as
    /// `verify_mismatch` (and fail the harness's callers).
    pub verify: Option<Arc<Oracle>>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            rate: 500.0,
            duration: Duration::from_secs(2),
            connections: 4,
            mix: Mix::default(),
            batch_size: 8,
            zipf_theta: 0.8,
            n: 1,
            chaos: 0.0,
            seed: 0x5eed,
            timeout: Duration::from_secs(5),
            verify: None,
        }
    }
}

/// What the harness observed for the whole run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests scheduled (including chaos injections).
    pub scheduled: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Chaos injections sent.
    pub chaos_sent: u64,
    /// Chaos injections that ended in a typed error or clean close
    /// (the only acceptable outcomes).
    pub chaos_handled: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Sustained throughput: `ok / elapsed`.
    pub qps: f64,
    /// Latency percentiles over successful requests, microseconds:
    /// p50, p99, p999 (open-loop: measured from scheduled arrival).
    pub latency_us: [f64; 3],
    /// Error taxonomy: wire-error labels, transport failures
    /// (`io`), verification failures (`verify_mismatch`), and
    /// unexpected chaos outcomes (`chaos_unhandled`).
    pub errors: BTreeMap<String, u64>,
    /// The daemon's own final stats (fetched over the wire after the
    /// run; `None` if the daemon became unreachable).
    pub daemon: Option<WireStats>,
    /// Monotone-sample deltas from the daemon's Prometheus exposition,
    /// scraped over the `Request::Metrics` opcode immediately before
    /// and after the run: canonical sample id → increase. Only samples
    /// that moved are kept. Empty when either scrape failed.
    pub metrics_delta: BTreeMap<String, f64>,
    /// Whether both scraped expositions passed the strict validator
    /// (`None` when a scrape itself failed, e.g. telemetry-less
    /// daemon builds).
    pub metrics_valid: Option<bool>,
}

impl LoadReport {
    /// Total requests that did not complete successfully.
    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }
}

/// One scheduled arrival.
struct Arrival {
    /// Offset from the run start.
    at: Duration,
    action: Action,
}

#[derive(Debug)]
enum Action {
    Query(Request),
    Chaos(ChaosKind),
}

/// The inline chaos catalog — the same corruption *styles* as
/// `spsep_testkit::wire_corruptions` (which is the authoritative,
/// exhaustively-tested catalog; this copy keeps the load harness free
/// of a dev-only dependency).
#[derive(Clone, Copy, Debug)]
enum ChaosKind {
    /// A frame whose length prefix promises more bytes than are sent,
    /// followed by a half-close: mid-frame disconnect.
    TruncatedFrame,
    /// A length prefix beyond the frame bound.
    OversizedPrefix,
    /// A well-framed payload with an unassigned opcode.
    BadOpcode,
    /// Random bytes that do not even frame.
    Garbage,
    /// A valid request, then a disconnect before reading the answer.
    DisconnectAfterSend,
}

const CHAOS_KINDS: [ChaosKind; 5] = [
    ChaosKind::TruncatedFrame,
    ChaosKind::OversizedPrefix,
    ChaosKind::BadOpcode,
    ChaosKind::Garbage,
    ChaosKind::DisconnectAfterSend,
];

/// Cumulative zipfian distribution over `0..n` with exponent `theta`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().unwrap_or(&1.0);
        let u = rng.gen_range(0.0..total);
        // First index whose cumulative weight exceeds the draw.
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Build the full deterministic arrival schedule up front.
fn build_schedule(config: &LoadConfig) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.n.max(1), config.zipf_theta.max(0.0));
    let total = (config.rate * config.duration.as_secs_f64()).floor() as u64;
    let gap = Duration::from_secs_f64(1.0 / config.rate.max(1e-9));
    let mix_total = (config.mix.point + config.mix.source + config.mix.batch).max(1);
    let mut schedule = Vec::with_capacity(total as usize);
    for i in 0..total {
        let at = gap * (i as u32);
        let action = if config.chaos > 0.0 && rng.gen_bool(config.chaos) {
            Action::Chaos(CHAOS_KINDS[rng.gen_range(0..CHAOS_KINDS.len())])
        } else {
            let roll = rng.gen_range(0..mix_total);
            let req = if roll < config.mix.point {
                Request::Point {
                    source: zipf.sample(&mut rng) as u64,
                    target: rng.gen_range(0..config.n.max(1)) as u64,
                }
            } else if roll < config.mix.point + config.mix.source {
                Request::Source {
                    source: zipf.sample(&mut rng) as u64,
                }
            } else {
                let pairs = (0..config.batch_size.max(1))
                    .map(|_| {
                        (
                            zipf.sample(&mut rng) as u64,
                            rng.gen_range(0..config.n.max(1)) as u64,
                        )
                    })
                    .collect();
                Request::Batch { pairs }
            };
            Action::Query(req)
        };
        schedule.push(Arrival { at, action });
    }
    schedule
}

/// Per-connection tallies, merged after the join.
#[derive(Default)]
struct ConnOutcome {
    ok: u64,
    chaos_sent: u64,
    chaos_handled: u64,
    latencies_us: Vec<u64>,
    errors: BTreeMap<String, u64>,
}

impl ConnOutcome {
    fn count_error(&mut self, label: &str) {
        *self.errors.entry(label.to_string()).or_insert(0) += 1;
    }
}

/// Compare a response bit-for-bit against direct oracle answers.
fn verify_response(oracle: &Oracle, metrics: &Metrics, req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Point { source, target }, Response::Dist(d)) => oracle
            .distance(*source as usize, *target as usize, metrics)
            .map(|want| want.to_bits() == d.to_bits())
            .unwrap_or(false),
        (Request::Source { source }, Response::Table(row)) => oracle
            .source_table(*source as usize, metrics)
            .map(|want| {
                want.len() == row.len()
                    && want
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
            .unwrap_or(false),
        (Request::Batch { pairs }, Response::Batch(dists)) => {
            let pairs: Vec<(usize, usize)> = pairs
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect();
            oracle
                .batch(&pairs, metrics)
                .map(|want| {
                    want.len() == dists.len()
                        && want
                            .iter()
                            .zip(dists)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
                .unwrap_or(false)
        }
        _ => false,
    }
}

/// Send one chaos injection on a dedicated throwaway connection (so
/// the connection-poisoning corruptions cannot take healthy traffic
/// down with them). Returns `true` when the daemon's reaction was a
/// typed error or a clean close.
fn inject_chaos(config: &LoadConfig, kind: ChaosKind, rng: &mut StdRng) -> bool {
    let Ok(mut client) = Client::connect(config.addr.as_str(), config.timeout) else {
        return false;
    };
    let outcome = match kind {
        ChaosKind::TruncatedFrame => {
            let mut bytes = 64u32.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0x03; 7]); // 7 of the promised 64
            let _ = client.send_raw(&bytes);
            let _ = client.shutdown_write();
            client.read_response_or_close()
        }
        ChaosKind::OversizedPrefix => {
            let bytes = u32::MAX.to_le_bytes().to_vec();
            if client.send_raw(&bytes).is_err() {
                return true; // daemon already slammed the door: clean
            }
            client.read_response_or_close()
        }
        ChaosKind::BadOpcode => {
            let mut bytes = 1u32.to_le_bytes().to_vec();
            bytes.push(0xee);
            let _ = client.send_raw(&bytes);
            client.read_response_or_close()
        }
        ChaosKind::Garbage => {
            let mut bytes = vec![0u8; 32];
            for b in &mut bytes {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            let _ = client.send_raw(&bytes);
            let _ = client.shutdown_write();
            client.read_response_or_close()
        }
        ChaosKind::DisconnectAfterSend => {
            let req = Request::Point {
                source: rng.gen_range(0..config.n.max(1)) as u64,
                target: rng.gen_range(0..config.n.max(1)) as u64,
            };
            let bytes = crate::protocol::encode_request(&req);
            let _ = client.send_raw(&bytes);
            drop(client); // full disconnect before the answer
            return true;
        }
    };
    matches!(
        outcome,
        Ok(None) | Ok(Some(Response::Error { .. })) | Err(SpsepError::Io(_))
    )
}

/// The per-connection send loop over its slice of the schedule.
fn run_connection(
    config: &LoadConfig,
    arrivals: &[Arrival],
    start: Instant,
    seed: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let metrics = Metrics::new();
    let mut client: Option<Client> = None;
    for arrival in arrivals {
        // Open-loop pacing: wait for the scheduled instant, never for
        // the previous response.
        let now = start.elapsed();
        if now < arrival.at {
            std::thread::sleep(arrival.at - now);
        }
        match &arrival.action {
            Action::Chaos(kind) => {
                out.chaos_sent += 1;
                if inject_chaos(config, *kind, &mut rng) {
                    out.chaos_handled += 1;
                } else {
                    out.count_error("chaos_unhandled");
                }
            }
            Action::Query(req) => {
                let c = match &mut client {
                    Some(c) => c,
                    None => match Client::connect(config.addr.as_str(), config.timeout) {
                        Ok(c) => client.insert(c),
                        Err(_) => {
                            out.count_error("io");
                            continue;
                        }
                    },
                };
                match c.request(req) {
                    Ok(Response::Error { code, .. }) => {
                        out.count_error(code.label());
                    }
                    Ok(resp) => {
                        if let Some(oracle) = &config.verify {
                            if !verify_response(oracle, &metrics, req, &resp) {
                                out.count_error("verify_mismatch");
                                continue;
                            }
                        }
                        out.ok += 1;
                        let latency = start.elapsed().saturating_sub(arrival.at);
                        out.latencies_us
                            .push(latency.as_micros().min(u64::MAX as u128) as u64);
                    }
                    Err(_) => {
                        out.count_error("io");
                        client = None; // reconnect on the next arrival
                    }
                }
            }
        }
    }
    out
}

/// Percentile over an unsorted sample set (nearest-rank); 0 when
/// empty.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Run the load harness against a daemon and collect the report.
///
/// Deterministic schedule, skew, and chaos per [`LoadConfig::seed`];
/// wall-clock results obviously vary with the machine.
///
/// # Errors
///
/// [`SpsepError::Io`] only when the daemon is unreachable at startup
/// (a liveness ping fails); per-request failures are *reported*, not
/// raised.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, SpsepError> {
    Client::connect(config.addr.as_str(), config.timeout)?.request(&Request::Ping)?;
    let scrape_before = scrape_metrics(config);
    let schedule = build_schedule(config);
    let conns = config.connections.max(1);
    // Round-robin assignment keeps each connection's arrivals in
    // schedule order.
    let mut per_conn: Vec<Vec<Arrival>> = (0..conns).map(|_| Vec::new()).collect();
    for (i, arrival) in schedule.into_iter().enumerate() {
        per_conn[i % conns].push(arrival);
    }
    let scheduled: u64 = per_conn.iter().map(|v| v.len() as u64).sum();

    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .enumerate()
            .map(|(i, arrivals)| {
                let seed = config.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                scope.spawn(move || run_connection(config, arrivals, start, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = start.elapsed();

    let mut report = LoadReport {
        scheduled,
        elapsed,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for out in outcomes {
        report.ok += out.ok;
        report.chaos_sent += out.chaos_sent;
        report.chaos_handled += out.chaos_handled;
        latencies.extend(out.latencies_us);
        for (label, count) in out.errors {
            *report.errors.entry(label).or_insert(0) += count;
        }
    }
    latencies.sort_unstable();
    report.qps = report.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    report.latency_us = [
        percentile_us(&latencies, 0.50),
        percentile_us(&latencies, 0.99),
        percentile_us(&latencies, 0.999),
    ];
    report.daemon = Client::connect(config.addr.as_str(), config.timeout)
        .and_then(|mut c| c.request(&Request::Stats))
        .ok()
        .and_then(|resp| match resp {
            Response::Stats(s) => Some(s),
            _ => None,
        });
    let scrape_after = scrape_metrics(config);
    report.metrics_valid = match (&scrape_before, &scrape_after) {
        (Some((_, a)), Some((_, b))) => Some(*a && *b),
        _ => None,
    };
    if let (Some((before, _)), Some((after, _))) = (scrape_before, scrape_after) {
        for (id, now) in after {
            let delta = now - before.get(&id).copied().unwrap_or(0.0);
            if delta != 0.0 {
                report.metrics_delta.insert(id, delta);
            }
        }
    }
    Ok(report)
}

/// Scrape the daemon's exposition over the wire opcode: the monotone
/// samples (for deltas) plus the strict validator's verdict.
fn scrape_metrics(config: &LoadConfig) -> Option<(BTreeMap<String, f64>, bool)> {
    let text = Client::connect(config.addr.as_str(), config.timeout)
        .and_then(|mut c| c.request(&Request::Metrics))
        .ok()
        .and_then(|resp| match resp {
            Response::Metrics(text) => Some(text),
            _ => None,
        })?;
    let valid = spsep_telemetry::validate_prometheus_text(&text).is_ok();
    let samples = spsep_telemetry::counter_samples(&text).unwrap_or_default();
    Some((samples, valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_paced() {
        let config = LoadConfig {
            rate: 1000.0,
            duration: Duration::from_millis(100),
            n: 50,
            chaos: 0.2,
            ..LoadConfig::default()
        };
        let a = build_schedule(&config);
        let b = build_schedule(&config);
        assert_eq!(a.len(), 100);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            match (&x.action, &y.action) {
                (Action::Query(p), Action::Query(q)) => assert_eq!(p, q),
                (Action::Chaos(_), Action::Chaos(_)) => {}
                other => panic!("schedules diverged: {other:?}"),
            }
        }
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let chaos = a
            .iter()
            .filter(|ar| matches!(ar.action, Action::Chaos(_)))
            .count();
        assert!(chaos > 0, "chaos 0.2 over 100 arrivals produced none");
    }

    #[test]
    fn zipf_skews_toward_small_sources() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        const DRAWS: usize = 2000;
        for _ in 0..DRAWS {
            let s = zipf.sample(&mut rng);
            assert!(s < 1000);
            if s < 10 {
                head += 1;
            }
        }
        assert!(
            head > DRAWS / 4,
            "zipf(1.1): only {head}/{DRAWS} draws in the head"
        );
    }

    #[test]
    fn uniform_theta_zero_covers_the_range() {
        let zipf = Zipf::new(8, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[zipf.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform sampling missed a source");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50.0);
        assert_eq!(percentile_us(&sorted, 0.99), 99.0);
        assert_eq!(percentile_us(&sorted, 0.999), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }
}
