//! `spsep-benchmark` — measure the spsep distance oracle end to end and
//! per layer.
//!
//! One workload (the form `BENCHMARK.json` runs):
//!
//! ```text
//! spsep-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--trace-dir DIR] [--tiny]
//! ```
//!
//! Every workload, each in its own child process, optionally followed
//! by a traced run of each that writes `DIR/<workload>.trace.json`:
//!
//! ```text
//! spsep-benchmark run [--seed N] [--seconds S] [--trace DIR] [--tiny]
//! ```
//!
//! Exit status: 0 when every answer was right, 1 when some operation
//! failed or answered wrong (the result is still printed), 2 when the
//! benchmark could not run.

use spsep_benchmark::workloads::{self, Config, Workload};
use std::path::PathBuf;
use std::process::Command;

/// The measured window when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Threads of the rayon pool: the benchmark host has 2 vCPUs.
const THREADS: &str = "2";

fn main() {
    // Before anything starts the pool, which reads it once.
    std::env::set_var("SPSEP_THREADS", THREADS);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        _ => run_one(&args),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("spsep-benchmark: {e}");
        2
    }));
}

/// The value after `flag`, if present.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).map(String::as_str).unwrap_or(""))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {name} value {v:?}")),
    }
}

/// The directory of this executable: the build's target directory,
/// where scratch files and default traces go.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

fn run_one(args: &[String]) -> Result<i32, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let dir = exe_dir()?;
    let cfg = Config {
        workload,
        seed: parsed(args, "--seed", 1)?,
        seconds,
        trace,
        trace_dir: flag(args, "--trace-dir").map_or_else(|| dir.join("traces"), PathBuf::from),
        scratch: dir.join("bench-scratch"),
        tiny: args.iter().any(|a| a == "--tiny"),
    };
    let outcome = workloads::run(&cfg)?;
    print!("{}", outcome.render(workload.name(), trace)?);
    Ok(if outcome.correct() { 0 } else { 1 })
}

fn run_all(args: &[String]) -> Result<i32, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let trace_dir = flag(args, "--trace").map(PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let mut modes = vec![("0", None)];
        if let Some(dir) = &trace_dir {
            modes.push(("1", Some(dir)));
        }
        for (trace, dir) in modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace]).args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ]);
            if let Some(dir) = dir {
                cmd.arg("--trace-dir").arg(dir);
            }
            if args.iter().any(|a| a == "--tiny") {
                cmd.arg("--tiny");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            // The last line is the JSON result; the lines before it name
            // every metric with its unit.
            let lines: Vec<&str> = stdout.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            if !out.status.success() {
                failed.push(format!("{} (trace {trace}): {}", w.name(), out.status));
            }
        }
    }
    if failed.is_empty() {
        println!("# run: every workload answered correctly");
        Ok(0)
    } else {
        println!("# run: FAILED: {}", failed.join("; "));
        Ok(1)
    }
}
