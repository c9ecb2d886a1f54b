//! The telemetry plane driven against a *live* daemon.
//!
//! DESIGN.md §14's acceptance bar, as integration tests: a daemon
//! under chaos load must serve a Prometheus exposition that passes the
//! strict validator over both transports (the wire `Metrics` opcode
//! and plain-HTTP `GET /metrics`), with counters that only ever move
//! forward; forced slow and erroring requests must each produce a
//! flight-recorder dump containing the trigger; histogram-derived
//! percentiles must sit within one log-bucket width of the exact
//! nearest-rank value; and turning telemetry on must not change a
//! single answer bit at any worker count.

use rand::{Rng, SeedableRng};
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{
    run_load, Client, LoadConfig, Request, Response, ServeConfig, Server, ServerHandle,
};
use spsep_telemetry::{counter_samples, validate_prometheus_text, DumpReason, Histogram};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn grid_oracle(dims: [usize; 2], seed: u64) -> Arc<Oracle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    Arc::new(Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap())
}

/// Spawn a daemon with the given telemetry config; returns the query
/// address, the optional metrics side-port address, the handle, and a
/// closure that drains it.
fn spawn_daemon(
    oracle: Arc<Oracle>,
    config: ServeConfig,
) -> (
    SocketAddr,
    Option<SocketAddr>,
    ServerHandle,
    impl FnOnce() -> spsep_serve::WireStats,
) {
    let server = Server::bind(oracle, config).unwrap();
    let addr = server.local_addr().unwrap();
    let metrics_addr = server.metrics_addr();
    let handle = server.handle();
    let shutdown = handle.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run().unwrap());
    });
    (addr, metrics_addr, handle, move || {
        shutdown.shutdown();
        rx.recv_timeout(Duration::from_secs(120))
            .expect("daemon did not drain")
    })
}

fn scrape_wire(addr: SocketAddr) -> String {
    let mut client = Client::connect(addr.to_string(), Duration::from_secs(5)).unwrap();
    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics(text) => text,
        other => panic!("Metrics answered with {other:?}"),
    }
}

fn scrape_http(addr: SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "GET /metrics answered: {}",
        response.lines().next().unwrap_or("<empty>")
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .expect("HTTP response has a body")
}

/// Chaos load against a telemetry-on daemon: both transports must
/// serve a validator-clean exposition, counters must be monotone
/// across scrapes, and the served counter must cover the harness view.
#[test]
fn chaos_load_scrape_stays_valid_and_monotone() {
    let oracle = grid_oracle([8, 8], 141);
    let (addr, metrics_addr, _handle, drain) = spawn_daemon(
        Arc::clone(&oracle),
        ServeConfig {
            workers: 4,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    );
    let metrics_addr = metrics_addr.expect("side port bound");

    let before_text = scrape_wire(addr);
    validate_prometheus_text(&before_text).expect("pre-load exposition is valid");
    let before = counter_samples(&before_text).unwrap();

    let report = run_load(&LoadConfig {
        addr: addr.to_string(),
        rate: 600.0,
        duration: Duration::from_millis(400),
        connections: 4,
        n: oracle.n(),
        zipf_theta: 0.9,
        chaos: 0.05,
        seed: 0x7e1,
        verify: Some(Arc::clone(&oracle)),
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(
        report.chaos_handled, report.chaos_sent,
        "{:?}",
        report.errors
    );
    assert_eq!(*report.errors.get("verify_mismatch").unwrap_or(&0), 0);

    let wire_text = scrape_wire(addr);
    let http_text = scrape_http(metrics_addr);
    validate_prometheus_text(&wire_text).expect("wire exposition is valid");
    validate_prometheus_text(&http_text).expect("HTTP exposition is valid");

    let after = counter_samples(&wire_text).unwrap();
    for (id, v0) in &before {
        let v1 = after
            .get(id)
            .copied()
            .unwrap_or_else(|| panic!("counter {id} disappeared between scrapes"));
        assert!(v1 >= *v0, "counter {id} moved backwards: {v0} -> {v1}");
    }
    let served = after.get("spsep_served_total").copied().unwrap_or(0.0);
    assert!(
        served >= report.ok as f64,
        "daemon served {served} but the harness saw {} succeed",
        report.ok
    );
    // The HTTP scrape is later than the wire scrape, so it must agree
    // or be ahead on every shared counter.
    let http = counter_samples(&http_text).unwrap();
    for (id, v1) in &after {
        if let Some(v2) = http.get(id) {
            assert!(v2 >= v1, "counter {id} regressed across transports");
        }
    }
    drain();
}

/// `slow_us = 0` marks every request slow: the flight recorder must
/// capture a dump whose window contains the trigger record.
#[test]
fn forced_slow_query_produces_a_flight_dump() {
    let oracle = grid_oracle([6, 6], 142);
    let (addr, _, handle, drain) = spawn_daemon(
        oracle,
        ServeConfig {
            workers: 2,
            slow_us: Some(0),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(addr.to_string(), Duration::from_secs(5)).unwrap();
    for v in 1..5u64 {
        let resp = client
            .request(&Request::Point {
                source: 0,
                target: v,
            })
            .unwrap();
        assert!(matches!(resp, Response::Dist(_)), "{resp:?}");
    }
    drop(client);
    let dumps = handle.flight_dumps();
    assert!(!dumps.is_empty(), "no dump despite slow_us = 0");
    for dump in &dumps {
        assert_eq!(dump.reason, DumpReason::Slow);
        assert!(
            dump.records.iter().any(|r| r.seq == dump.trigger_seq),
            "window is missing its own trigger (seq {})",
            dump.trigger_seq
        );
        let windows: Vec<u64> = dump.records.iter().map(|r| r.seq).collect();
        let mut sorted = windows.clone();
        sorted.sort_unstable();
        assert_eq!(windows, sorted, "dump window is not seq-ordered");
    }
    drain();
}

/// An erroring request triggers a dump labelled with the wire-error
/// taxonomy, and the rendered dump names it.
#[test]
fn erroring_query_produces_a_labelled_flight_dump() {
    let oracle = grid_oracle([6, 6], 143);
    let n = oracle.n() as u64;
    let (addr, _, handle, drain) = spawn_daemon(
        oracle,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(addr.to_string(), Duration::from_secs(5)).unwrap();
    // A healthy request first, so the window has context.
    let _ = client
        .request(&Request::Point {
            source: 0,
            target: 1,
        })
        .unwrap();
    let resp = client
        .request(&Request::Point {
            source: n + 7,
            target: 0,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    drop(client);
    let dumps = handle.flight_dumps();
    assert_eq!(dumps.len(), 1, "exactly the erroring request triggers");
    let dump = &dumps[0];
    assert_eq!(dump.reason, DumpReason::Error);
    let trigger = dump
        .records
        .iter()
        .find(|r| r.seq == dump.trigger_seq)
        .expect("trigger record present");
    assert_eq!(trigger.error.as_deref(), Some("invalid_query"));
    let rendered = spsep_telemetry::render_dump(dump);
    assert!(rendered.contains("invalid_query"), "{rendered}");
    drain();
}

/// Histogram quantiles must land within one log-bucket width
/// (≤ 3.125% relative) of the exact nearest-rank value over a
/// latency-shaped sample set.
#[test]
fn histogram_quantiles_sit_within_one_bucket_of_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(144);
    let hist = Histogram::new();
    let mut exact: Vec<u64> = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        // Log-uniform over [1µs, 100ms) in ns — spans 17 octaves, the
        // shape real service times take.
        let exp = rng.gen_range(0.0..5.0);
        let v = (1_000.0 * 10f64.powf(exp)) as u64;
        hist.record(v);
        exact.push(v);
    }
    exact.sort_unstable();
    let snap = hist.snapshot();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len()) - 1;
        let truth = exact[rank] as f64;
        let got = snap.quantile(q) as f64;
        let rel = (got - truth).abs() / truth;
        assert!(
            rel <= 0.04,
            "q{q}: histogram said {got}, exact nearest-rank is {truth} \
             ({:.2}% off; bucket width is 3.125%)",
            rel * 100.0
        );
    }
}

/// Telemetry must be observational: the same queries at 1/2/4/8
/// workers, telemetry and flight recorder fully on, return answers
/// bit-identical to direct `Oracle` calls.
#[test]
fn answers_are_bit_identical_across_workers_with_telemetry_on() {
    let oracle = grid_oracle([8, 8], 145);
    let n = oracle.n();
    let mut rng = rand::rngs::StdRng::seed_from_u64(146);
    let pairs: Vec<(u64, u64)> = (0..64)
        .map(|_| (rng.gen_range(0..n) as u64, rng.gen_range(0..n) as u64))
        .collect();
    let metrics = Metrics::new();
    let expected: Vec<u64> = pairs
        .iter()
        .map(|&(u, v)| {
            oracle
                .distance(u as usize, v as usize, &metrics)
                .unwrap()
                .to_bits()
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let (addr, metrics_addr, _handle, drain) = spawn_daemon(
            Arc::clone(&oracle),
            ServeConfig {
                workers,
                metrics_addr: Some("127.0.0.1:0".into()),
                slow_us: Some(0),
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(addr.to_string(), Duration::from_secs(5)).unwrap();
        let got: Vec<u64> = pairs
            .iter()
            .map(|&(source, target)| {
                match client.request(&Request::Point { source, target }).unwrap() {
                    Response::Dist(d) => d.to_bits(),
                    other => panic!("workers={workers}: {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            got, expected,
            "workers={workers}: telemetry changed an answer bit"
        );
        validate_prometheus_text(&scrape_http(metrics_addr.unwrap())).unwrap();
        drop(client);
        drain();
    }
}
