//! End-to-end `spsep-oracle/v2` serving: `spsep-cli prepare` produces
//! one slab snapshot, TWO independent `spsep-cli serve` daemons mmap
//! that same file concurrently, and both must answer an identical query
//! stream bit-for-bit — matching each other *and* an oracle prepared in
//! process from the same graph and tree, with no snapshot in between.
//! This is the operational payoff of the v2 format: many server
//! processes sharing one physical copy of the oracle through the page
//! cache, with zero answer drift across process boundaries. A chaos
//! load run (`spsep-cli load --verify`) then hammers one of the daemons
//! and must report zero mismatches.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use spsep::core::{Algorithm, Oracle};
use spsep::graph::DiGraph;
use spsep::pram::Metrics;
use spsep::separator::{builders, RecursionLimits, SepTree};
use spsep::serve::{Client, Request, Response};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spsep-cli"))
}

const DIMS: [usize; 2] = [12, 12];

/// A grid big enough that distance tables exercise real scheduling,
/// written as 1-based DIMACS the way `spsep-cli` reads it.
fn write_grid_graph(dir: &std::path::Path) -> (std::path::PathBuf, DiGraph<f64>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(42);
    let (g, _) = spsep::graph::generators::grid(&DIMS, &mut rng);
    let path = dir.join("grid.gr");
    let mut buf = Vec::new();
    spsep::graph::io::write_dimacs(&g, &mut buf).unwrap();
    std::fs::File::create(&path)
        .unwrap()
        .write_all(&buf)
        .unwrap();
    (path, g)
}

/// The geometric tree of the grid, written as a text tree file so
/// `prepare -t` and the in-process reference use the same tree.
fn write_grid_tree(dir: &std::path::Path) -> (std::path::PathBuf, SepTree) {
    let tree = builders::grid_tree(&DIMS, RecursionLimits::default());
    let path = dir.join("grid.st");
    let mut buf = Vec::new();
    spsep::separator::io::write_tree(&tree, &mut buf).unwrap();
    std::fs::write(&path, &buf).unwrap();
    (path, tree)
}

/// Spawn `spsep-cli serve --listen 127.0.0.1:0` on `snapshot` and wait
/// for its address announcement. The stdout reader is returned too:
/// dropping it would close the pipe and SIGPIPE the daemon when it
/// prints its shutdown epilogue.
fn spawn_daemon(
    snapshot: &std::path::Path,
) -> (
    Child,
    String,
    std::io::Lines<BufReader<std::process::ChildStdout>>,
) {
    let mut daemon = cli()
        .arg("serve")
        .arg(snapshot)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-depth",
            "16",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(daemon.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    (daemon, addr, lines)
}

/// The deterministic mixed query stream both daemons are driven with.
fn query_stream(n: usize) -> Vec<Request> {
    let mut reqs = vec![Request::Ping, Request::Info];
    for s in [0, n / 3, n / 2, n - 1] {
        reqs.push(Request::Source { source: s as u64 });
    }
    for i in 0..16u64 {
        // A simple deterministic spread of (source, target) pairs.
        let s = (i * 37) % n as u64;
        let t = (i * 61 + 5) % n as u64;
        reqs.push(Request::Point {
            source: s,
            target: t,
        });
    }
    reqs.push(Request::Batch {
        pairs: (0..8u64)
            .map(|i| (i % n as u64, (i * 13 + 1) % n as u64))
            .collect(),
    });
    reqs
}

/// Bitwise equality for responses carrying floats (`==` on f64 would
/// conflate distinct NaN payloads and is not the contract under test).
fn bits(resp: &Response) -> Vec<u64> {
    match resp {
        Response::Pong => vec![u64::MAX],
        Response::Info { n, m, eplus, algo } => vec![*n, *m, *eplus, *algo as u64],
        Response::Dist(d) => vec![d.to_bits()],
        Response::Table(t) | Response::Batch(t) => t.iter().map(|d| d.to_bits()).collect(),
        other => panic!("unexpected response in the stream: {other:?}"),
    }
}

#[test]
fn two_daemons_on_one_v2_snapshot_answer_bit_identically() {
    let dir = std::env::temp_dir().join("spsep-daemon-v2-test-1");
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, g) = write_grid_graph(&dir);
    let (tree_path, tree) = write_grid_tree(&dir);
    let n = g.n();

    let v2 = dir.join("grid.v2.sps");
    let out = cli()
        .arg("prepare")
        .arg(&graph)
        .arg("-t")
        .arg(&tree_path)
        .arg("-o")
        .arg(&v2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Two independent daemon processes mmap the SAME v2 file.
    let (mut daemon_a, addr_a, out_a) = spawn_daemon(&v2);
    let (mut daemon_b, addr_b, out_b) = spawn_daemon(&v2);

    // The snapshot-free truth: the same graph and tree prepared in
    // process.
    let metrics = Metrics::new();
    let truth = Oracle::prepare(g, tree, Algorithm::LeavesUp, &metrics).unwrap();

    let timeout = Duration::from_secs(30);
    let mut client_a = Client::connect(addr_a.as_str(), timeout).unwrap();
    let mut client_b = Client::connect(addr_b.as_str(), timeout).unwrap();

    for req in query_stream(n) {
        let ra = client_a.request(&req).unwrap();
        let rb = client_b.request(&req).unwrap();
        assert_eq!(
            bits(&ra),
            bits(&rb),
            "daemons on the same v2 file diverged on {req:?}"
        );
        // Spot-check the daemons against the in-process oracle too: the
        // snapshot must not change a single bit of any answer.
        if let Request::Source { source } = req {
            let want = truth.source_table(source as usize, &metrics).unwrap();
            let got = bits(&ra);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(
                    *g,
                    w.to_bits(),
                    "v2-served table diverged from the fresh oracle"
                );
            }
        }
    }

    // Clean shutdown of both daemons through the protocol.
    for client in [&mut client_a, &mut client_b] {
        match client.request(&Request::Shutdown).unwrap() {
            Response::ShutdownAck => {}
            other => panic!("expected ShutdownAck, got {other:?}"),
        }
    }
    for (daemon, out) in [(&mut daemon_a, out_a), (&mut daemon_b, out_b)] {
        let tail: Vec<String> = out.map(|l| l.unwrap()).collect();
        assert!(daemon.wait().unwrap().success(), "{}", tail.join("\n"));
        assert!(tail.iter().any(|l| l.contains("shutdown: drained")));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_load_against_a_v2_daemon_has_zero_mismatches() {
    let dir = std::env::temp_dir().join("spsep-daemon-v2-test-2");
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, _g) = write_grid_graph(&dir);

    let v2 = dir.join("grid.v2.sps");
    let out = cli()
        .arg("prepare")
        .arg(&graph)
        .arg("-o")
        .arg(&v2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (mut daemon, addr, daemon_out) = spawn_daemon(&v2);

    // The load harness verifies every data answer bit-for-bit against
    // its own copy of the snapshot (which it mmaps too — the `--verify`
    // path goes through the same `Oracle::load_path`). Any mismatch or
    // unhandled chaos injection makes `load` exit nonzero.
    let out = cli()
        .arg("load")
        .arg(&addr)
        .args(["--rate", "400", "--duration", "1", "--conns", "2"])
        .args(["--chaos", "0.1", "--seed", "20", "--zipf", "0.5"])
        .arg("--verify")
        .arg(&v2)
        .arg("--shutdown")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "chaos load failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("load: scheduled = 400"), "{text}");
    assert!(text.contains("daemon acknowledged shutdown"), "{text}");

    let tail: Vec<String> = daemon_out.map(|l| l.unwrap()).collect();
    assert!(daemon.wait().unwrap().success(), "{}", tail.join("\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
