//! The `spsep-oracle/v2` corruption suite.
//!
//! Contracts under test:
//!
//! 1. **Catalog robustness** — every [`snapshot_corruptions_v2`] entry
//!    makes `Oracle::load` return a typed [`SpsepError`], never panic
//!    (asserted under `catch_unwind` inside a watchdog), never a usable
//!    oracle.
//! 2. **Truncation sweep** — a cut at *every* header/table byte and at
//!    every slab page boundary (±1) is a typed error.
//!    A semantic patch resealed with the section checksum must be
//!    rejected by its validator, never as a checksum mismatch.
//! 3. **Version skew** — a v1-layout file relabeled with the current
//!    version word (3) and current bytes relabeled as a future version
//!    both fail with typed errors.
//! 4. **Re-prepare errors** — an `spsep-oracle/v1` file, a file in
//!    the older 14-section v2 layout (trailing `TREE` section), one
//!    in the older bucket layout (one `E` bucket for the entry and
//!    exit phases, `3(d_G+1)+1` buckets) and one carrying the previous
//!    version word 2 (byte-wise section checksums) are refused by
//!    `Oracle::load` and `Oracle::load_path` with a
//!    [`SpsepError::Parse`] that names what was found and says to
//!    re-run `spsep-cli prepare`.
//! 5. **Daemon on v2** — a live daemon serving an mmapped v2 snapshot
//!    answers bit-identically to the in-memory oracle, and a corrupted
//!    snapshot can never boot a daemon in the first place.

use spsep_core::{Algorithm, Oracle, SpsepError};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use spsep_serve::{Client, Request, Response, ServeConfig, Server};
use spsep_testkit::{
    snapshot_corruptions_v2, v1_snapshot_header, v2_section_bounds, v2_with_byte_checksum_version,
    v2_with_one_e_bucket, v2_with_trailing_tree_section,
};
use std::panic::resume_unwind;
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
            panic!("watchdog: '{name}' exceeded {WATCHDOG:?} — hang or deadlock")
        }
    }
}

fn grid_oracle(dims: [usize; 2], seed: u64) -> Oracle {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap()
}

fn save_v2(oracle: &Oracle) -> Vec<u8> {
    let mut buf = Vec::new();
    oracle
        .save_v2(&mut buf)
        .expect("save_v2 to a Vec cannot fail");
    buf
}

fn assert_typed(err: SpsepError, name: &str) {
    assert!(
        matches!(
            err,
            SpsepError::Parse { .. }
                | SpsepError::Io { .. }
                | SpsepError::InvalidGraph { .. }
                | SpsepError::InvalidDecomposition { .. }
        ),
        "{name}: unexpected error kind: {err:?}"
    );
    // Errors must render without panicking, too.
    let _ = err.to_string();
}

#[test]
fn every_v2_corruption_is_a_typed_error_never_a_panic() {
    let fresh = grid_oracle([8, 8], 21);
    assert!(
        fresh.stats().eplus_edges > 0,
        "catalog precondition: instance must have shortcuts"
    );
    let snapshot = Arc::new(save_v2(&fresh));

    for corruption in snapshot_corruptions_v2() {
        let name = corruption.name;
        let snapshot = Arc::clone(&snapshot);
        with_watchdog(name, move || {
            let bad = (corruption.apply)(&snapshot);
            assert_ne!(
                bad.as_slice(),
                snapshot.as_slice(),
                "{name}: corruption did not change the bytes"
            );
            match std::panic::catch_unwind(|| Oracle::load(bad.as_slice())) {
                Ok(Err(err)) => {
                    // A resealed semantic patch must get past the
                    // checksums to the validator it targets.
                    if name.contains("checksum fixed") {
                        let msg = err.to_string();
                        assert!(
                            !msg.contains("checksum mismatch"),
                            "{name}: rejected by the checksum, not its validator: {msg}"
                        );
                    }
                    assert_typed(err, name)
                }
                Ok(Ok(_)) => panic!("{name}: corrupted snapshot loaded successfully"),
                Err(_) => panic!("{name}: load panicked"),
            }
        });
    }
}

#[test]
fn truncation_at_every_header_byte_and_slab_boundary_is_a_typed_error() {
    let fresh = grid_oracle([6, 6], 22);
    let snapshot = save_v2(&fresh);

    // Every byte of the fixed header + section table region…
    let header_end = 24 + 13 * 32;
    let mut cuts: Vec<usize> = (0..=header_end).collect();
    // …every slab boundary (start and end of every section, ±1)…
    for (off, len) in v2_section_bounds(&snapshot) {
        for cut in [
            off.saturating_sub(1),
            off,
            off + 1,
            (off + len).saturating_sub(1),
            off + len,
            off + len + 1,
        ] {
            cuts.push(cut);
        }
    }
    // …and the trailer region.
    for back in 1..=9 {
        cuts.push(snapshot.len() - back);
    }
    cuts.retain(|&c| c < snapshot.len());
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        match std::panic::catch_unwind(|| Oracle::load(&snapshot[..cut])) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("prefix of {cut} bytes loaded as a full v2 snapshot"),
            Err(_) => panic!("load panicked at a {cut}-byte prefix"),
        }
    }
}

#[test]
fn version_skew_both_directions_is_a_typed_error() {
    let v2 = save_v2(&grid_oracle([6, 6], 23));

    // A v1-layout file relabeled with the current version word (3): the
    // v2 reader rejects it.
    let mut v1_as_v2 = v1_snapshot_header(&v2);
    v1_as_v2[8..12].copy_from_slice(&v2[8..12]);
    let Err(err) = Oracle::load(v1_as_v2.as_slice()) else {
        panic!("v1 bytes relabeled with the current version loaded successfully");
    };
    assert_typed(err, "v1 relabeled current");

    // Current bytes relabeled as a future version.
    let mut future = v2;
    future[8..12].copy_from_slice(&4u32.to_le_bytes());
    let Err(err) = Oracle::load(future.as_slice()) else {
        panic!("bytes relabeled v4 loaded successfully");
    };
    assert_typed(err, "relabeled v4");
}

#[test]
fn older_snapshots_are_refused_with_a_re_prepare_error() {
    let v2 = save_v2(&grid_oracle([6, 6], 24));
    let dir = std::env::temp_dir().join(format!("spsep-v2-reprepare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("spsep-oracle/v1", v1_snapshot_header(&v2)),
        ("14-section", v2_with_trailing_tree_section(&v2)),
        ("one E bucket", v2_with_one_e_bucket(&v2)),
        (
            "byte-wise section checksums",
            v2_with_byte_checksum_version(&v2),
        ),
    ];
    for (found, bytes) in cases {
        let path = dir.join("old.sps");
        std::fs::write(&path, &bytes).unwrap();
        let loads = [
            std::panic::catch_unwind(|| Oracle::load(bytes.as_slice())),
            std::panic::catch_unwind(|| Oracle::load_path(&path)),
        ];
        for outcome in loads {
            match outcome {
                Ok(Err(err @ SpsepError::Parse { .. })) => {
                    let msg = err.to_string();
                    assert!(
                        msg.contains(found),
                        "{found}: message names the find: {msg}"
                    );
                    assert!(msg.contains("re-run `spsep-cli prepare`"), "{found}: {msg}");
                }
                Ok(Err(err)) => panic!("{found}: expected a parse error, got {err:?}"),
                Ok(Ok(_)) => panic!("{found}: an older snapshot loaded"),
                Err(_) => panic!("{found}: load panicked"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_on_v2_mmap_answers_bit_identically_and_corrupt_files_never_boot() {
    let fresh = grid_oracle([8, 8], 25);
    let snapshot = save_v2(&fresh);
    let dir = std::env::temp_dir().join(format!("spsep-v2-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.v2");
    std::fs::write(&path, &snapshot).unwrap();

    let served = Oracle::load_path(&path).expect("load_path on a valid v2 snapshot");
    #[cfg(unix)]
    assert!(served.is_slab_backed(), "v2 load_path must borrow the mmap");

    // Live daemon on the mmapped oracle: answers must equal the
    // in-memory oracle's bit for bit.
    with_watchdog("daemon-on-v2", move || {
        let server = Server::bind(
            Arc::new(served),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let metrics = Metrics::new();
        let n = fresh.n();
        for s in [0usize, n / 3, n - 1] {
            let want = fresh.source_table(s, &metrics).unwrap();
            match client
                .request(&Request::Source { source: s as u64 })
                .unwrap()
            {
                Response::Table(got) => {
                    assert_eq!(got.len(), n, "table length from daemon");
                    for v in 0..n {
                        assert_eq!(
                            want[v].to_bits(),
                            got[v].to_bits(),
                            "daemon answer drifted at source {s} vertex {v}"
                        );
                    }
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        drop(client);
        handle.shutdown();
        join.join().unwrap();
    });

    // A corrupted file must be rejected at load — the daemon can never
    // come up on damaged bytes.
    for corruption in snapshot_corruptions_v2().into_iter().take(6) {
        let bad = (corruption.apply)(&snapshot);
        let bad_path = dir.join("snap.bad");
        std::fs::write(&bad_path, &bad).unwrap();
        match Oracle::load_path(&bad_path) {
            Err(err) => assert_typed(err, corruption.name),
            Ok(_) => panic!("{}: corrupted file booted an oracle", corruption.name),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
