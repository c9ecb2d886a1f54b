//! End-to-end tests of the daemon over real TCP connections: protocol
//! round-trips, bit-identity against direct oracle calls at several
//! worker counts, admission shedding, deadline enforcement, graceful
//! shutdown, and concurrent cache reconfiguration.
//!
//! The adversarial suites (wire corruptions, shutdown under load)
//! live in `spsep-testkit`; these tests pin the happy paths and the
//! daemon's own contracts.

use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle, WireError};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn grid_oracle(dims: [usize; 2], seed: u64) -> Arc<Oracle> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    Arc::new(Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap())
}

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    finished: mpsc::Receiver<spsep_serve::WireStats>,
}

fn spawn_daemon(oracle: Arc<Oracle>, config: ServeConfig) -> Daemon {
    let server = Server::bind(oracle, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let stats = server.run().unwrap();
        let _ = tx.send(stats);
    });
    Daemon {
        addr,
        handle,
        finished: rx,
    }
}

impl Daemon {
    fn client(&self) -> Client {
        Client::connect(self.addr, Duration::from_secs(5)).unwrap()
    }

    /// Trigger shutdown and wait for `run()` to return its final
    /// stats — bounded, so a wedged daemon fails the test instead of
    /// hanging it.
    fn stop(self) -> spsep_serve::WireStats {
        self.handle.shutdown();
        self.finished
            .recv_timeout(Duration::from_secs(30))
            .expect("daemon did not shut down within 30s")
    }
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

#[test]
fn ping_info_and_stats_round_trip() {
    let oracle = grid_oracle([5, 5], 1);
    let daemon = spawn_daemon(Arc::clone(&oracle), config(1));
    let mut c = daemon.client();
    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
    match c.request(&Request::Info).unwrap() {
        Response::Info { n, m, eplus, algo } => {
            assert_eq!(n, oracle.n() as u64);
            assert_eq!(m, oracle.m() as u64);
            assert_eq!(eplus, oracle.stats().eplus_edges as u64);
            assert_eq!(algo, 41);
        }
        other => panic!("wrong response {other:?}"),
    }
    match c.request(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.workers, 1);
            assert!(s.cache_shards >= 1);
        }
        other => panic!("wrong response {other:?}"),
    }
    let final_stats = daemon.stop();
    assert!(final_stats.accepted >= 1);
}

#[test]
fn answers_are_bit_identical_to_direct_oracle_calls_at_every_worker_count() {
    let oracle = grid_oracle([7, 6], 2);
    let metrics = Metrics::new();
    let n = oracle.n() as u64;
    for workers in [1usize, 2, 4, 8] {
        let daemon = spawn_daemon(Arc::clone(&oracle), config(workers));
        let mut c = daemon.client();
        for s in 0..n.min(6) {
            for t in [0, 1, n - 1] {
                let want = oracle.distance(s as usize, t as usize, &metrics).unwrap();
                match c
                    .request(&Request::Point {
                        source: s,
                        target: t,
                    })
                    .unwrap()
                {
                    Response::Dist(d) => {
                        assert_eq!(d.to_bits(), want.to_bits(), "workers={workers} {s}->{t}")
                    }
                    other => panic!("wrong response {other:?}"),
                }
            }
        }
        let want = oracle.source_table(3, &metrics).unwrap();
        match c.request(&Request::Source { source: 3 }).unwrap() {
            Response::Table(row) => {
                assert_eq!(row.len(), want.len());
                for (a, b) in row.iter().zip(want.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
                }
            }
            other => panic!("wrong response {other:?}"),
        }
        let pairs: Vec<(u64, u64)> = (0..n).map(|s| (s, (s + 7) % n)).collect();
        let want = oracle
            .batch(
                &pairs
                    .iter()
                    .map(|&(u, v)| (u as usize, v as usize))
                    .collect::<Vec<_>>(),
                &metrics,
            )
            .unwrap();
        match c.request(&Request::Batch { pairs }).unwrap() {
            Response::Batch(dists) => {
                assert_eq!(dists.len(), want.len());
                for (a, b) in dists.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
                }
            }
            other => panic!("wrong response {other:?}"),
        }
        daemon.stop();
    }
}

#[test]
fn out_of_range_queries_get_typed_invalid_query_errors() {
    let oracle = grid_oracle([5, 5], 3);
    let n = oracle.n() as u64;
    let daemon = spawn_daemon(oracle, config(2));
    let mut c = daemon.client();
    for req in [
        Request::Point {
            source: n,
            target: 0,
        },
        Request::Point {
            source: 0,
            target: u64::MAX,
        },
        Request::Source { source: n + 7 },
        Request::Batch {
            pairs: vec![(0, 0), (n, 0)],
        },
    ] {
        match c.request(&req).unwrap() {
            Response::Error { code, .. } => {
                assert_eq!(code, WireError::InvalidQuery, "req {req:?}")
            }
            other => panic!("req {req:?}: wrong response {other:?}"),
        }
    }
    // The connection survives query rejections.
    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
    let stats = daemon.stop();
    assert_eq!(stats.errors[WireError::InvalidQuery as usize - 1], 4);
}

#[test]
fn malformed_payload_answers_parse_and_keeps_the_connection() {
    let oracle = grid_oracle([5, 5], 4);
    let daemon = spawn_daemon(oracle, config(1));
    let mut c = daemon.client();
    // Well-framed payload, unassigned opcode.
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.push(0xe7);
    c.send_raw(&frame).unwrap();
    match c.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, WireError::Parse),
        other => panic!("wrong response {other:?}"),
    }
    // Same connection still serves.
    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
    daemon.stop();
}

#[test]
fn admission_control_sheds_with_a_typed_overloaded_error() {
    let oracle = grid_oracle([5, 5], 5);
    // One worker, queue depth 1, and the worker is kept busy by an
    // open connection it is waiting on — so the queue fills with the
    // second connection and the third must be shed.
    let daemon = spawn_daemon(
        oracle,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    // Occupies the single worker (keep-alive, no request yet).
    let mut pinned = daemon.client();
    assert_eq!(pinned.request(&Request::Ping).unwrap(), Response::Pong);
    // Sits in the queue.
    let _queued = daemon.client();
    std::thread::sleep(Duration::from_millis(100));
    // Must be shed: the daemon answers Overloaded without a request.
    let mut shed = Client::connect(daemon.addr, Duration::from_secs(5)).unwrap();
    match shed.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, WireError::Overloaded),
        other => panic!("wrong response {other:?}"),
    }
    let stats = daemon.stop();
    assert!(stats.shed >= 1, "shed counter not charged: {stats:?}");
}

#[test]
fn slow_clients_cannot_pin_a_worker_forever() {
    let oracle = grid_oracle([5, 5], 6);
    let daemon = spawn_daemon(
        oracle,
        ServeConfig {
            workers: 1,
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    // A client that sends half a frame and stalls: the daemon's read
    // deadline must fire and free the worker.
    let mut staller = daemon.client();
    staller.send_raw(&100u32.to_le_bytes()).unwrap(); // prefix only
    std::thread::sleep(Duration::from_millis(500));
    // The worker is free again: a healthy client gets served.
    let mut healthy = daemon.client();
    assert_eq!(healthy.request(&Request::Ping).unwrap(), Response::Pong);
    daemon.stop();
}

#[test]
fn shutdown_request_acks_drains_and_exits() {
    let oracle = grid_oracle([5, 5], 7);
    let daemon = spawn_daemon(oracle, config(2));
    let mut c = daemon.client();
    assert_eq!(
        c.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    let stats = daemon
        .finished
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon did not exit after a Shutdown request");
    assert!(stats.served >= 1);
    // New connections are refused outright.
    assert!(Client::connect(daemon.addr, Duration::from_millis(500)).is_err());
}

#[test]
fn queries_during_drain_get_a_typed_shutting_down_error() {
    let oracle = grid_oracle([5, 5], 8);
    let daemon = spawn_daemon(oracle, config(2));
    let mut c = daemon.client();
    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
    daemon.handle.shutdown();
    // The already-admitted connection's next query is refused, typed.
    match c.request(&Request::Point {
        source: 0,
        target: 1,
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, WireError::ShuttingDown),
        // Worker may already have closed the drained connection.
        Ok(other) => panic!("wrong response {other:?}"),
        Err(_) => {}
    }
    daemon
        .finished
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon did not drain");
}

#[test]
fn cache_reconfiguration_races_serving_without_changing_answers() {
    let oracle = grid_oracle([6, 6], 9);
    let metrics = Metrics::new();
    let n = oracle.n() as u64;
    let want: Vec<u64> = (0..n)
        .map(|s| {
            oracle
                .distance(s as usize, ((s + 5) % n) as usize, &metrics)
                .unwrap()
                .to_bits()
        })
        .collect();
    let daemon = spawn_daemon(Arc::clone(&oracle), config(4));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let resizer = {
        let oracle = Arc::clone(&oracle);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut cap = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                oracle.set_cache_capacity(cap % 5);
                cap += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let mut c = daemon.client();
    for round in 0..4 {
        for s in 0..n {
            match c
                .request(&Request::Point {
                    source: s,
                    target: (s + 5) % n,
                })
                .unwrap()
            {
                Response::Dist(d) => {
                    assert_eq!(d.to_bits(), want[s as usize], "round {round} source {s}")
                }
                other => panic!("wrong response {other:?}"),
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    resizer.join().unwrap();
    daemon.stop();
}

#[test]
fn oversized_responses_become_invalid_query_not_a_panic() {
    let oracle = grid_oracle([8, 8], 10);
    // A frame bound so small the 64-entry distance table cannot fit.
    let daemon = spawn_daemon(
        oracle,
        ServeConfig {
            workers: 1,
            max_frame: 128,
            ..ServeConfig::default()
        },
    );
    let mut c = daemon.client();
    match c.request(&Request::Source { source: 0 }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, WireError::InvalidQuery),
        other => panic!("wrong response {other:?}"),
    }
    // Small answers still fit and still serve.
    match c
        .request(&Request::Point {
            source: 0,
            target: 1,
        })
        .unwrap()
    {
        Response::Dist(d) => assert!(d.is_finite()),
        other => panic!("wrong response {other:?}"),
    }
    daemon.stop();
}

/// `served` as a scrape on a fresh connection sees it: the wire-stats
/// counter, and the Prometheus `spsep_served_total` when the telemetry
/// plane is compiled in.
fn scrape_served(daemon: &Daemon) -> (u64, Option<f64>) {
    let mut c = daemon.client();
    let wire = match c.request(&Request::Stats).unwrap() {
        Response::Stats(s) => s.served,
        other => panic!("wrong response {other:?}"),
    };
    let text = match c.request(&Request::Metrics).unwrap() {
        Response::Metrics(text) => text,
        other => panic!("wrong response {other:?}"),
    };
    let prom = spsep_telemetry::counter_samples(&text)
        .unwrap()
        .get("spsep_served_total")
        .copied();
    (wire, prom)
}

#[test]
fn a_reply_in_hand_is_already_counted_as_served() {
    let oracle = grid_oracle([6, 6], 11);
    let daemon = spawn_daemon(oracle, config(2));
    let mut c = daemon.client();
    let (mut wire_before, mut prom_before) = scrape_served(&daemon);
    for round in 0..300u64 {
        match c.request(&Request::Point {
            source: round % 36,
            target: 35 - round % 36,
        }) {
            Ok(Response::Dist(_)) => {}
            other => panic!("round {round}: wrong response {other:?}"),
        }
        // Scrape at once, on another connection and so possibly another
        // worker. The delta is exact: the point query, plus the previous
        // scrape's Stats and Metrics requests; a scrape's own rendering
        // does not count itself, the Stats reply is counted before the
        // Metrics one renders.
        let (wire, prom) = scrape_served(&daemon);
        assert_eq!(
            wire - wire_before,
            3,
            "round {round}: wire-stats served delta"
        );
        if cfg!(feature = "telemetry") {
            let (Some(now), Some(then)) = (prom, prom_before) else {
                panic!("round {round}: scrape lacks spsep_served_total");
            };
            assert_eq!(now - then, 3.0, "round {round}: spsep_served_total delta");
        }
        (wire_before, prom_before) = (wire, prom);
    }
    let last = daemon.stop();
    assert!(last.served >= wire_before + 2);
}

#[test]
fn replies_in_hand_are_counted_under_concurrent_clients() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let daemon = spawn_daemon(grid_oracle([6, 6], 12), config(2));
    let addr = daemon.addr;
    // Replies any client holds: each must already be in `served`.
    let delivered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4u64)
        .map(|t| {
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                let connect = || Client::connect(addr, Duration::from_secs(5)).unwrap();
                let (mut query, mut scrape) = (connect(), connect());
                for round in 0..500u64 {
                    let point = Request::Point {
                        source: (round + t) % 36,
                        target: 35,
                    };
                    match query.request(&point) {
                        Ok(Response::Dist(_)) => {}
                        other => panic!("client {t} round {round}: wrong response {other:?}"),
                    }
                    let held = delivered.fetch_add(1, Ordering::SeqCst) + 1;
                    let served = match scrape.request(&Request::Stats) {
                        Ok(Response::Stats(s)) => s.served,
                        other => panic!("client {t} round {round}: wrong response {other:?}"),
                    };
                    delivered.fetch_add(1, Ordering::SeqCst);
                    assert!(
                        served >= held,
                        "client {t} round {round}: served {served} < {held} replies held"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    daemon.stop();
}
