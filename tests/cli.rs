//! End-to-end tests of the `spsep-cli` binary: build a graph file, run
//! every subcommand, check outputs and exit codes.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spsep-cli"))
}

fn write_demo_graph(dir: &std::path::Path) -> std::path::PathBuf {
    // A 4-cycle plus a chord, 1-based DIMACS.
    let path = dir.join("demo.gr");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "c tiny demo").unwrap();
    writeln!(f, "p sp 4 5").unwrap();
    writeln!(f, "a 1 2 1.0").unwrap();
    writeln!(f, "a 2 3 1.0").unwrap();
    writeln!(f, "a 3 4 1.0").unwrap();
    writeln!(f, "a 4 1 1.0").unwrap();
    writeln!(f, "a 1 3 5.0").unwrap();
    path
}

#[test]
fn info_and_sssp() {
    let dir = std::env::temp_dir().join("spsep-cli-test-1");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);

    let out = cli().arg("info").arg(&graph).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("n = 4"));
    assert!(text.contains("E+"));

    let out = cli()
        .args(["sssp"])
        .arg(&graph)
        .args(["-s", "0", "--print-dists"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 reachable of 4"));
    // dist(0→2) = 2 via the cycle, beating the chord weight 5.
    assert!(text.lines().any(|l| l.trim() == "2 2"), "{text}");
}

#[test]
fn tree_roundtrip_through_cli() {
    let dir = std::env::temp_dir().join("spsep-cli-test-2");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let tree = dir.join("demo.st");

    let out = cli()
        .arg("tree")
        .arg(&graph)
        .arg("-o")
        .arg(&tree)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(tree.exists());

    // Reuse the saved tree for a query with algorithm 4.4.
    let out = cli()
        .arg("sssp")
        .arg(&graph)
        .args(["-s", "1", "-a", "44", "-t"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 reachable"));
}

#[test]
fn reach_and_centroid_builder() {
    let dir = std::env::temp_dir().join("spsep-cli-test-3");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let out = cli()
        .arg("reach")
        .arg(&graph)
        .args(["-s", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 of 4"));

    // Centroid builder on a path-shaped graph.
    let path_graph = dir.join("path.gr");
    let mut f = std::fs::File::create(&path_graph).unwrap();
    writeln!(f, "p sp 5 8").unwrap();
    for v in 1..5 {
        writeln!(f, "a {} {} 1.0", v, v + 1).unwrap();
        writeln!(f, "a {} {} 1.0", v + 1, v).unwrap();
    }
    drop(f);
    let out = cli()
        .arg("info")
        .arg(&path_graph)
        .args(["-b", "centroid"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn observability_flags_produce_artifacts() {
    let dir = std::env::temp_dir().join("spsep-cli-test-5");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");

    let out = cli()
        .arg("sssp")
        .arg(&graph)
        .args(["-s", "0", "-a", "43", "--metrics", "--trace"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --metrics: uniform report + ledger on stdout.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics: work="), "{text}");
    assert!(text.contains("work ledger (PathDoubling)"), "{text}");
    assert!(text.contains("augment work"), "{text}");
    assert!(!text.contains("OVER BUDGET"), "{text}");

    // --trace: human span tree on stderr.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("preprocess.augment"), "{err}");
    assert!(err.contains("alg43.round"), "{err}");

    // --metrics-out: spsep-metrics/v1 document.
    let mjson = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        mjson.contains("\"schema\": \"spsep-metrics/v1\""),
        "{mjson}"
    );
    assert!(mjson.contains("\"ledger\""), "{mjson}");
    assert!(mjson.contains("\"within\": true"), "{mjson}");

    // --trace-out: structurally valid Chrome trace-event JSON.
    let tjson = std::fs::read_to_string(&trace).unwrap();
    let events = spsep::trace::validate_chrome_json(&tjson)
        .unwrap_or_else(|e| panic!("invalid trace export: {e}\n{tjson}"));
    assert!(events >= 3, "expected preprocess spans, got {events}");
    assert!(tjson.contains("pool_stats"), "{tjson}");
}

#[test]
fn metrics_flag_is_uniform_across_subcommands() {
    let dir = std::env::temp_dir().join("spsep-cli-test-6");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let tree = dir.join("demo.st");
    for argv in [
        vec!["info"],
        vec!["tree"],
        vec!["sssp", "-s", "1"],
        vec!["reach", "-s", "0"],
    ] {
        let mut cmd = cli();
        cmd.arg(argv[0])
            .arg(&graph)
            .args(&argv[1..])
            .arg("--metrics");
        if argv[0] == "tree" {
            cmd.arg("-o").arg(&tree);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            argv[0],
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("metrics: work="),
            "`{}` lacks the metrics epilogue: {text}",
            argv[0]
        );
    }
}

#[test]
fn prepare_then_serve_roundtrip() {
    let dir = std::env::temp_dir().join("spsep-cli-test-7");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let snapshot = dir.join("demo.sps");
    let queries = dir.join("q.txt");
    let mut f = std::fs::File::create(&queries).unwrap();
    writeln!(f, "c demo query stream").unwrap();
    writeln!(f, "p 0 2").unwrap();
    writeln!(f, "p 1 3").unwrap();
    writeln!(f, "s 0").unwrap();
    writeln!(f, "p 0 2").unwrap();
    drop(f);

    let out = cli()
        .arg("prepare")
        .arg(&graph)
        .arg("-o")
        .arg(&snapshot)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("prepared oracle"), "{text}");
    // The default prepare format is the v2 mmap snapshot.
    assert!(text.contains("snapshot (v2):"), "{text}");
    assert!(snapshot.exists());

    // Serve, one query at a time: answers + latency + cache report.
    let out = cli()
        .arg("serve")
        .arg(&snapshot)
        .arg("--queries")
        .arg(&queries)
        .args(["--print-dists", "--metrics"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // dist(0→2) = 2 via the cycle, beating the chord weight 5.
    assert!(text.lines().any(|l| l.trim() == "p 0 2 2"), "{text}");
    assert!(text.contains("s 0 reachable=4"), "{text}");
    assert!(text.contains("4 queries (3 pairs, 1 sources)"), "{text}");
    assert!(text.contains("latency: p50"), "{text}");
    // The repeated `p 0 2` and the `s 0` hit the cached row of source 0.
    assert!(text.contains("hits = 2, misses = 2"), "{text}");
    // The uniform observability epilogue also covers serve.
    assert!(text.contains("metrics: work="), "{text}");

    // Batched mode answers identically.
    let out = cli()
        .arg("serve")
        .arg(&snapshot)
        .arg("--queries")
        .arg(&queries)
        .args(["--batch", "--print-dists"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.trim() == "p 0 2 2"), "{text}");
    assert!(text.contains("batch: 3 pairs + 1 sources"), "{text}");
}

#[test]
fn serve_error_paths_are_messages_not_panics() {
    let dir = std::env::temp_dir().join("spsep-cli-test-8");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let snapshot = dir.join("demo.sps");
    let out = cli()
        .arg("prepare")
        .arg(&graph)
        .arg("-o")
        .arg(&snapshot)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // prepare without -o.
    let out = cli().arg("prepare").arg(&graph).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-o <oracle.sps>"));

    // serve without --queries.
    let out = cli().arg("serve").arg(&snapshot).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queries"));

    // A corrupted snapshot is a typed parse error, not a panic.
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let bad = dir.join("bad.sps");
    std::fs::write(&bad, &bytes).unwrap();
    let queries = dir.join("q.txt");
    std::fs::write(&queries, "p 0 1\n").unwrap();
    let out = cli()
        .arg("serve")
        .arg(&bad)
        .arg("--queries")
        .arg(&queries)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    // An out-of-range query in the stream is reported, not panicked on.
    std::fs::write(&queries, "p 0 99\n").unwrap();
    let out = cli()
        .arg("serve")
        .arg(&snapshot)
        .arg("--queries")
        .arg(&queries)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    // A malformed query record names its line.
    std::fs::write(&queries, "p 0 1\nx 2 3\n").unwrap();
    let out = cli()
        .arg("serve")
        .arg(&snapshot)
        .arg("--queries")
        .arg(&queries)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(":2:"), "{err}");
}

#[test]
fn error_paths() {
    let out = cli().arg("info").arg("/nonexistent.gr").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let dir = std::env::temp_dir().join("spsep-cli-test-4");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let out = cli()
        .arg("sssp")
        .arg(&graph)
        .args(["-s", "99"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    let out = cli().arg("bogus").arg(&graph).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn mkroad_regenerates_the_committed_instance_bit_exactly() {
    // data/README.md's provenance claim: the committed road instance is
    // a pure function of (w, h, seed), so regenerating it reproduces
    // the checked-in bytes exactly — nobody edited the file by hand.
    let dir = std::env::temp_dir().join("spsep-cli-test-mkroad");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("regen.gr");
    let out = Command::new(env!("CARGO_BIN_EXE_spsep-mkroad"))
        .args(["160", "150", "20260808"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/data/road-160x150.gr");
    let want = std::fs::read(committed).unwrap();
    let got = std::fs::read(&out_path).unwrap();
    assert_eq!(
        got.len(),
        want.len(),
        "regenerated instance differs in size from data/road-160x150.gr"
    );
    assert!(
        got == want,
        "regenerated instance differs from data/road-160x150.gr"
    );
}

#[test]
fn committed_road_instance_parses_and_certifies_near_planar() {
    // Importer smoke on the real committed instance (CI runs this):
    // the file parses through the hardened DIMACS reader, is strongly
    // connected (largest-SCC extraction keeps everything), and the
    // near-planar certificate that drives `-b auto` holds.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/data/road-160x150.gr");
    let g = spsep::graph::io::read_dimacs(
        std::fs::File::open(committed)
            .map(std::io::BufReader::new)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((g.n(), g.m()), (24_000, 142_762));
    let (_, report) = spsep::graph::import::import(&g, Default::default()).unwrap();
    assert_eq!(
        report.scc_count, 1,
        "road instance must be strongly connected"
    );
    assert_eq!(report.nodes_kept, g.n());
    let check = spsep::separator::certify_near_planar(&g.undirected_skeleton());
    assert!(check.near_planar, "{check:?}");
}

#[test]
fn import_subcommand_ingests_csv_and_writes_canonical_gr() {
    let dir = std::env::temp_dir().join("spsep-cli-test-import");
    std::fs::create_dir_all(&dir).unwrap();
    // A 3-cycle plus a dangling sink vertex: largest-SCC extraction
    // must drop vertex 3 and renumber, and the report must say so.
    let csv = dir.join("edges.csv");
    std::fs::write(
        &csv,
        "from,to,weight\n0,1,1.5\n1,2,2.25\n2,0,0.5\n2,3,9.0\n",
    )
    .unwrap();
    let gr = dir.join("edges.gr");
    let out = cli()
        .arg("import")
        .arg(&csv)
        .arg("-o")
        .arg(&gr)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("n = 4"), "{text}");
    assert!(text.contains("dropped 1 vert"), "{text}");
    let g = spsep::graph::io::read_dimacs(std::fs::read(&gr).unwrap().as_slice()).unwrap();
    assert_eq!((g.n(), g.m()), (3, 3));

    // The emitted .gr is canonical: importing it again is a fixed point.
    let gr2 = dir.join("edges2.gr");
    let out = cli()
        .arg("import")
        .arg(&gr)
        .arg("-o")
        .arg(&gr2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&gr).unwrap(), std::fs::read(&gr2).unwrap());

    // Malformed input: typed line-numbered error on stderr, no panic.
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "from,to,weight\n0,1,NaN\n").unwrap();
    let out = cli()
        .arg("import")
        .arg(&bad)
        .arg("-o")
        .arg(dir.join("bad.gr"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn daemon_serves_load_and_exits_zero_on_shutdown() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("spsep-cli-test-9");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_demo_graph(&dir);
    let snapshot = dir.join("demo.sps");
    let out = cli()
        .arg("prepare")
        .arg(&graph)
        .arg("-o")
        .arg(&snapshot)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Start the daemon on an ephemeral port; its first stdout line
    // announces the resolved address (stdout is line-buffered).
    let mut daemon = cli()
        .arg("serve")
        .arg(&snapshot)
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

    // Chaos load with bit-identity verification against the snapshot,
    // the spsep-load-report/v1 record, and a final shutdown request.
    let report_path = dir.join("load.json");
    let out = cli()
        .arg("load")
        .arg(&addr)
        .args(["--rate", "400", "--duration", "1", "--conns", "2"])
        .args(["--chaos", "0.1", "--seed", "7", "--zipf", "0.5"])
        .arg("--verify")
        .arg(&snapshot)
        .arg("--json")
        .arg(&report_path)
        .arg("--shutdown")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "load failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("load: scheduled = 400"), "{text}");
    assert!(text.contains("latency (open-loop"), "{text}");
    assert!(text.contains("daemon acknowledged shutdown"), "{text}");

    // The written report validates, and carries the daemon's view and
    // the scraped counter deltas of this run.
    let json = std::fs::read_to_string(&report_path).unwrap();
    assert_eq!(
        spsep::serve::validate_load_report_json(&json),
        Ok(()),
        "{json}"
    );
    assert!(json.contains("\"scheduled\": 400"), "{json}");
    assert!(json.contains("\"daemon\": {\"workers\": 2"), "{json}");
    assert!(json.contains("\"metrics_valid\": true"), "{json}");
    assert!(json.contains("spsep_served_total"), "{json}");

    // The daemon drains and exits 0, with the final stats separating
    // queue-wait from service time.
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited {status:?}");
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    let tail = rest.join("\n");
    assert!(tail.contains("shutdown: drained"), "{tail}");
    assert!(tail.contains("queue-wait p50"), "{tail}");
    assert!(tail.contains("service p50"), "{tail}");
    assert!(tail.contains("cache shards:"), "{tail}");
}

#[test]
fn load_error_paths_are_messages_not_panics() {
    // No daemon at this address: a connect error, not a panic.
    let out = cli()
        .arg("load")
        .arg("127.0.0.1:1")
        .args(["--duration", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    // Malformed --mix is a usage error.
    let out = cli()
        .arg("load")
        .arg("127.0.0.1:1")
        .args(["--mix", "1:2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--mix"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
