//! Graceful-shutdown coverage under concurrent load, at 1, 2, 4, and
//! 8 workers: in-flight requests complete with correct answers,
//! requests after the drain begins get a typed `ShuttingDown` error
//! (or at worst a clean close), the listener closes so new connections
//! are refused, and `Server::run` returns its final stats (the daemon
//! process exits 0 — pinned end-to-end by the CLI suite).

use rand::SeedableRng;
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{Client, Request, Response, ServeConfig, Server, WireError};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

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
            panic!("watchdog: '{name}' exceeded {WATCHDOG:?} — shutdown hung")
        }
    }
}

fn grid_oracle(dims: [usize; 2], seed: u64) -> Arc<Oracle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    Arc::new(Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap())
}

#[test]
fn shutdown_under_concurrent_load_drains_typed_at_every_worker_count() {
    let oracle = grid_oracle([7, 6], 95);
    let n = oracle.n() as u64;
    for workers in [1usize, 2, 4, 8] {
        let oracle = Arc::clone(&oracle);
        with_watchdog("shutdown-under-load", move || {
            let server = Server::bind(
                Arc::clone(&oracle),
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let addr = server.local_addr().unwrap();
            let handle = server.handle();
            let daemon = std::thread::spawn(move || server.run().unwrap());

            // Sustained load from several client threads; each counts
            // what it observed. The shutdown fires mid-stream.
            let completed = Arc::new(AtomicU64::new(0));
            let refused_typed = Arc::new(AtomicU64::new(0));
            let closed = Arc::new(AtomicU64::new(0));
            let clients: Vec<_> = (0..4)
                .map(|ci| {
                    let completed = Arc::clone(&completed);
                    let refused_typed = Arc::clone(&refused_typed);
                    let closed = Arc::clone(&closed);
                    let oracle = Arc::clone(&oracle);
                    std::thread::spawn(move || {
                        let metrics = Metrics::new();
                        let mut client = match Client::connect(addr, Duration::from_secs(5)) {
                            Ok(c) => c,
                            Err(_) => return, // shed or post-shutdown: fine
                        };
                        // Send until the drain ends the loop (typed
                        // refusal or close) — the watchdog bounds the
                        // whole test, so a shutdown that never reaches
                        // this client still fails loudly.
                        for i in 0..u64::MAX {
                            let (s, t) = ((ci as u64 + i) % n, (ci as u64 + 3 * i) % n);
                            match client.request(&Request::Point {
                                source: s,
                                target: t,
                            }) {
                                Ok(Response::Dist(d)) => {
                                    // An answer delivered during the run —
                                    // including in-flight at shutdown —
                                    // must be the correct one.
                                    let want =
                                        oracle.distance(s as usize, t as usize, &metrics).unwrap();
                                    assert_eq!(
                                        d.to_bits(),
                                        want.to_bits(),
                                        "workers={workers} {s}->{t}"
                                    );
                                    completed.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(Response::Error {
                                    code: WireError::ShuttingDown,
                                    ..
                                }) => {
                                    refused_typed.fetch_add(1, Ordering::Relaxed);
                                    return;
                                }
                                Ok(other) => {
                                    panic!("workers={workers}: unexpected response {other:?}")
                                }
                                Err(_) => {
                                    // Clean close during drain.
                                    closed.fetch_add(1, Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    })
                })
                .collect();

            // Let the load establish, then pull the plug mid-traffic.
            std::thread::sleep(Duration::from_millis(150));
            handle.shutdown();
            for c in clients {
                if let Err(payload) = c.join() {
                    resume_unwind(payload);
                }
            }
            let stats = daemon.join().expect("daemon thread panicked");

            assert!(
                completed.load(Ordering::Relaxed) > 0,
                "workers={workers}: no requests completed before shutdown"
            );
            let drained = refused_typed.load(Ordering::Relaxed) + closed.load(Ordering::Relaxed);
            assert!(
                drained > 0,
                "workers={workers}: shutdown fired mid-load but nothing was drained"
            );
            // The listener is gone: new connections are refused (a
            // RST/refusal or an unanswered connect, never a served one).
            if let Ok(mut late) = Client::connect(addr, Duration::from_millis(300)) {
                if let Ok(resp) = late.request(&Request::Ping) {
                    panic!("workers={workers}: post-shutdown request served: {resp:?}");
                }
            }
            assert!(
                stats.served >= completed.load(Ordering::Relaxed),
                "workers={workers}: daemon served counter below client count"
            );
        });
    }
}

#[test]
fn shutdown_with_an_empty_queue_is_immediate() {
    let oracle = grid_oracle([5, 5], 96);
    for workers in [1usize, 8] {
        let server = Server::bind(
            Arc::clone(&oracle),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());
        let started = std::time::Instant::now();
        handle.shutdown();
        let stats = daemon.join().expect("daemon thread panicked");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "workers={workers}: idle shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(stats.served, 0);
    }
}
