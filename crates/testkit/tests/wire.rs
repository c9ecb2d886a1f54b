//! The wire-corruption catalog driven against a *live* daemon.
//!
//! Every [`wire_corruptions`] entry is sent over a real TCP connection
//! to a running daemon, under a watchdog: the daemon must react with a
//! typed error response or a clean close — never a panic, never a hung
//! connection — and must stay fully healthy for other clients
//! afterward. The suite finishes with the acceptance-bar chaos run:
//! 10k mixed requests with chaos injections enabled and every answer
//! verified bit-for-bit against direct `Oracle` calls, at 1, 2, 4, and
//! 8 workers.

use rand::SeedableRng;
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{load, Client, LoadConfig, Request, Response, ServeConfig, Server, WireError};
use spsep_testkit::{wire_corruptions, WireExpectation};
use std::net::SocketAddr;
use std::panic::resume_unwind;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Generous bound for CI under load; a pass takes well under a second
/// per corruption.
const WATCHDOG: Duration = Duration::from_secs(120);

fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog thread");
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => resume_unwind(payload),
            Ok(_) => unreachable!("sender dropped without a panic"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: '{name}' exceeded {WATCHDOG:?} — hung connection or deadlock")
        }
    }
}

fn grid_oracle(dims: [usize; 2], seed: u64) -> Arc<Oracle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    Arc::new(Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap())
}

/// Spawn a daemon; returns its address and a closure that shuts it
/// down and returns the final stats.
fn spawn_daemon(
    oracle: Arc<Oracle>,
    workers: usize,
) -> (SocketAddr, impl FnOnce() -> spsep_serve::WireStats) {
    let server = Server::bind(
        oracle,
        ServeConfig {
            workers,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run().unwrap());
    });
    let stop = move || {
        handle.shutdown();
        rx.recv_timeout(Duration::from_secs(30))
            .expect("daemon did not shut down within 30s")
    };
    (addr, stop)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("connect to live daemon")
}

/// Drain responses after a corruption until the daemon closes the
/// connection (or a few frames arrive), asserting every decoded frame
/// is well-formed. Returns the decoded responses.
fn drain_responses(client: &mut Client, name: &str) -> Vec<Response> {
    let mut out = Vec::new();
    for _ in 0..4 {
        match client.read_response_or_close() {
            Ok(Some(resp)) => out.push(resp),
            Ok(None) => break, // clean close
            Err(_) => break,   // daemon closed mid-read: acceptable
        }
    }
    for resp in &out {
        assert!(
            matches!(resp, Response::Error { .. } | Response::Pong),
            "'{name}': unexpected response {resp:?}"
        );
    }
    out
}

#[test]
fn every_wire_corruption_yields_a_typed_error_or_clean_close() {
    let oracle = grid_oracle([6, 6], 90);
    let (addr, stop) = spawn_daemon(Arc::clone(&oracle), 2);
    for corruption in wire_corruptions() {
        let name = corruption.name;
        with_watchdog(name, move || {
            let mut client = connect(addr);
            client.send_raw(&(corruption.bytes)()).expect(name);
            if corruption.disconnect_after {
                let _ = client.shutdown_write();
            }
            match corruption.expect {
                WireExpectation::TypedErrorKeepsConnection => {
                    // Exactly one typed Parse error, and the same
                    // connection must still serve afterward.
                    match client.read_response().expect(name) {
                        Response::Error {
                            code: WireError::Parse,
                            ..
                        } => {}
                        other => panic!("'{name}': expected a Parse error, got {other:?}"),
                    }
                    assert_eq!(
                        client.request(&Request::Ping).expect(name),
                        Response::Pong,
                        "'{name}': connection did not survive a payload-level error"
                    );
                }
                WireExpectation::TypedErrorOrClose => {
                    let responses = drain_responses(&mut client, name);
                    for resp in &responses {
                        assert!(
                            matches!(resp, Response::Error { .. }),
                            "'{name}': non-error response {resp:?}"
                        );
                    }
                }
                WireExpectation::AnswerThenTypedErrorOrClose => {
                    let responses = drain_responses(&mut client, name);
                    assert_eq!(
                        responses.first(),
                        Some(&Response::Pong),
                        "'{name}': pipelined valid request was not answered first: {responses:?}"
                    );
                    for resp in &responses[1..] {
                        assert!(
                            matches!(resp, Response::Error { .. }),
                            "'{name}': non-error response after the answer {resp:?}"
                        );
                    }
                }
            }
        });
        // The daemon as a whole stays healthy after every entry: a
        // fresh connection gets a correct answer.
        let metrics = Metrics::new();
        let want = oracle.distance(0, 5, &metrics).unwrap();
        let mut probe = connect(addr);
        match probe
            .request(&Request::Point {
                source: 0,
                target: 5,
            })
            .unwrap_or_else(|e| panic!("'{name}': daemon unhealthy after corruption: {e}"))
        {
            Response::Dist(d) => assert_eq!(d.to_bits(), want.to_bits(), "'{name}'"),
            other => panic!("'{name}': wrong response {other:?}"),
        }
    }
    let stats = stop();
    assert!(
        stats.errors[WireError::Parse as usize - 1] > 0,
        "no Parse errors were charged across the catalog: {stats:?}"
    );
}

/// The acceptance bar: 10k-request mixed load with chaos injections,
/// answers verified bit-for-bit against the oracle, at every worker
/// count. Zero panics and zero hangs are enforced by the daemon
/// thread's `unwrap` and the watchdog; typed-only errors by the
/// report's taxonomy.
#[test]
fn chaos_load_of_10k_requests_stays_typed_and_bit_identical() {
    let oracle = grid_oracle([7, 6], 91);
    let n = oracle.n();
    for workers in [1usize, 2, 4, 8] {
        let (addr, stop) = spawn_daemon(Arc::clone(&oracle), workers);
        let oracle = Arc::clone(&oracle);
        let report = with_watchdog("chaos-load", move || {
            let config = LoadConfig {
                addr: addr.to_string(),
                // 2500 requests per worker count → 10k across the test.
                rate: 2500.0,
                duration: Duration::from_secs(1),
                connections: 4,
                n,
                zipf_theta: 0.9,
                chaos: 0.05,
                seed: 0xc4a05 + workers as u64,
                verify: Some(oracle),
                ..LoadConfig::default()
            };
            load::run_load(&config).expect("daemon reachable")
        });
        assert_eq!(report.scheduled, 2500, "workers={workers}");
        assert!(
            report.chaos_sent > 0,
            "workers={workers}: chaos never fired"
        );
        assert_eq!(
            report.chaos_handled, report.chaos_sent,
            "workers={workers}: unhandled chaos injections: {:?}",
            report.errors
        );
        assert_eq!(
            *report.errors.get("verify_mismatch").unwrap_or(&0),
            0,
            "workers={workers}: answers diverged from direct Oracle calls"
        );
        assert_eq!(
            *report.errors.get("chaos_unhandled").unwrap_or(&0),
            0,
            "workers={workers}"
        );
        // Healthy requests overwhelmingly succeed; the only tolerated
        // error classes are transport blips from chaos neighbors.
        assert!(
            report.ok as f64 >= (report.scheduled - report.chaos_sent) as f64 * 0.95,
            "workers={workers}: only {}/{} ok ({:?})",
            report.ok,
            report.scheduled - report.chaos_sent,
            report.errors
        );
        let stats = stop();
        assert!(stats.served > 0, "workers={workers}");
        assert!(
            stats.workers == workers as u32,
            "workers={workers}: daemon reports {}",
            stats.workers
        );
    }
}
