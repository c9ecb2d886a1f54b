//! `tables` argument errors: an unknown experiment id, a retired one,
//! or any flag other than `--smoke` exits with status 2 before
//! measuring anything, and names the valid ids on stderr.

use std::process::Command;

fn reject(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run the tables binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("valid ids: e1 e2 e3") && stderr.contains("e23 check all"),
        "{args:?} does not print the valid set: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} measured something");
}

#[test]
fn unknown_and_retired_ids_exit_2() {
    reject(&["e99"]);
    reject(&["e17"]);
    reject(&["e1", "e17"]);
}

#[test]
fn every_flag_but_smoke_exits_2() {
    // The six artifact flags `tables` once took: `--<artifact>-in` and
    // `--<artifact>-out` for E18, E21 and E23.
    for artifact in ["amortize", "simd", "sep"] {
        for dir in ["in", "out"] {
            let flag = format!("--{artifact}-{dir}");
            reject(&["e18", "--smoke", &flag, "artifact.json"]);
            reject(&[&flag]);
        }
    }
    reject(&["--verbose"]);
}
