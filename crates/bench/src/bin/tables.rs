//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p spsep-bench --bin tables            # everything
//! cargo run --release -p spsep-bench --bin tables -- e1 fig2 # a subset
//! cargo run --release -p spsep-bench --bin tables -- \
//!     e18 --amortize-out BENCH_amortize.json   # oracle snapshot bench
//! cargo run --release -p spsep-bench --bin tables -- \
//!     e21 --simd-out BENCH_simd.json           # dense kernels vs naive
//! cargo run --release -p spsep-bench --bin tables -- \
//!     e23 --sep-out BENCH_sep.json             # road-network separators
//! ```
//!
//! Experiment ids: e1 e2 e3 e4 e5 fig1 fig2 e8 e9 e10 e11 e12 e13 e14
//! e15 e18 e21 e23 check (see DESIGN.md §4 for the paper-artifact
//! mapping; E16, E17, E19, E20 and E22 are retired).
//!
//! Flags: `--amortize-out <path>` writes E18's `spsep-amortize/v2`
//! oracle-snapshot artifact; `--amortize-in <path>` renders E18 from a
//! committed artifact instead of re-measuring. `--simd-out <path>` /
//! `--simd-in <path>` do the same for E21's `spsep-simd-bench/v2`
//! production-vs-naive dense kernel benchmark, and `--sep-out <path>` /
//! `--sep-in <path>` for E23's `spsep-sep-bench/v1` road-network
//! separator-quality benchmark; `--smoke` shrinks E18/E21/E23 to
//! CI-sized instances.
//!
//! Unknown experiment ids and flags are reported with the valid set —
//! never a bare panic.

use spsep_bench::{amortize, experiments, sep, simd};

/// Every experiment id `tables` understands, in presentation order.
const VALID_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "fig1", "fig2", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e18", "e21", "e23", "check", "all",
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tables [ids...] [--smoke] [--amortize-out p] [--amortize-in p] \
         [--simd-out p] [--simd-in p] [--sep-out p] [--sep-in p]\n\
         valid ids: {}",
        VALID_IDS.join(" ")
    );
    std::process::exit(2);
}

fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a path")))
}

fn write_or_fail(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {what} to {path}: {e}"));
    }
}

fn read_or_fail(path: &str, what: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {what} from {path}: {e}")))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut amortize_out: Option<String> = None;
    let mut amortize_in: Option<String> = None;
    let mut simd_out: Option<String> = None;
    let mut simd_in: Option<String> = None;
    let mut sep_out: Option<String> = None;
    let mut sep_in: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--amortize-out" => amortize_out = Some(flag_value(&mut it, "--amortize-out")),
            "--amortize-in" => amortize_in = Some(flag_value(&mut it, "--amortize-in")),
            "--simd-out" => simd_out = Some(flag_value(&mut it, "--simd-out")),
            "--simd-in" => simd_in = Some(flag_value(&mut it, "--simd-in")),
            "--sep-out" => sep_out = Some(flag_value(&mut it, "--sep-out")),
            "--sep-in" => sep_in = Some(flag_value(&mut it, "--sep-in")),
            flag if flag.starts_with("--") => fail(&format!("unknown flag '{flag}'")),
            id if !VALID_IDS.contains(&id) => fail(&format!("unknown experiment id '{id}'")),
            _ => args.push(a),
        }
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);
    let mut sweep = None;
    let sweep_points = || experiments::run_sweep();
    let get_sweep = |sweep: &mut Option<Vec<experiments::SweepPoint>>| {
        if sweep.is_none() {
            eprintln!("[tables] running the Table 1 sweep (E1–E3 share it)…");
            *sweep = Some(sweep_points());
        }
    };

    let hr = "=".repeat(78);
    if want("e1") {
        get_sweep(&mut sweep);
        println!(
            "{hr}\n{}",
            experiments::e1_preprocessing_work(sweep.as_ref().unwrap())
        );
    }
    if want("e2") {
        get_sweep(&mut sweep);
        println!(
            "{hr}\n{}",
            experiments::e2_per_source_work(sweep.as_ref().unwrap())
        );
    }
    if want("e3") {
        get_sweep(&mut sweep);
        println!(
            "{hr}\n{}",
            experiments::e3_eplus_size(sweep.as_ref().unwrap())
        );
    }
    if want("e4") {
        println!("{hr}\n{}", experiments::e4_diameter());
    }
    if want("e5") {
        println!("{hr}\n{}", experiments::e5_alg41_vs_alg43());
    }
    if want("fig1") {
        println!("{hr}\n{}", experiments::fig1());
    }
    if want("fig2") {
        println!("{hr}\n{}", experiments::fig2());
    }
    if want("e8") {
        println!("{hr}\n{}", experiments::e8_reachability());
    }
    if want("e9") {
        println!("{hr}\n{}", experiments::e9_thread_scaling());
    }
    if want("e10") {
        println!("{hr}\n{}", experiments::e10_qfaces());
    }
    if want("e11") {
        println!("{hr}\n{}", experiments::e11_crossover());
    }
    if want("e12") {
        println!("{hr}\n{}", experiments::e12_tvpi());
    }
    if want("e13") {
        println!("{hr}\n{}", experiments::e13_leaf_ablation());
    }
    if want("e14") {
        println!("{hr}\n{}", experiments::e14_builder_comparison());
    }
    if want("e15") {
        println!("{hr}\n{}", experiments::e15_family_speedup());
    }
    if want("e18") || amortize_out.is_some() || amortize_in.is_some() {
        if let Some(path) = &amortize_in {
            let json = read_or_fail(path, "amortize artifact");
            let records = amortize::read_amortize_json(&json)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            println!(
                "{hr}\nE18 — snapshot amortization from {path} ({} entries):\n\n{}",
                records.len(),
                amortize::render_amortize_table(&records)
            );
        } else {
            let (report, records) = amortize::e18_amortization(smoke);
            println!("{hr}\n{report}");
            assert!(
                records.iter().all(|r| r.bit_identical),
                "snapshot round-trip diverged from fresh preprocessing — \
                 determinism contract broken"
            );
            let json = amortize::amortize_json(&records);
            let entries = amortize::validate_amortize_json(&json)
                .unwrap_or_else(|e| fail(&format!("amortize artifact failed validation: {e}")));
            if let Some(path) = &amortize_out {
                write_or_fail(path, &json, "amortize artifact");
                eprintln!("[tables] wrote {path} ({entries} entries)");
            }
        }
    }
    if want("e21") || simd_out.is_some() || simd_in.is_some() {
        if let Some(path) = &simd_in {
            let json = read_or_fail(path, "simd artifact");
            let records =
                simd::read_simd_json(&json).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            println!(
                "{hr}\nE21 — dense kernels vs naive from {path} ({} entries):\n\n{}",
                records.len(),
                simd::render_simd_table(&records)
            );
        } else {
            let (report, records) = simd::e21_simd_speedup(smoke);
            println!("{hr}\n{report}");
            assert!(
                records.iter().all(|r| r.bit_identical),
                "production kernels diverged from naive — determinism \
                 contract broken"
            );
            let json = simd::simd_json(&records);
            let entries = simd::validate_simd_json(&json)
                .unwrap_or_else(|e| fail(&format!("simd artifact failed validation: {e}")));
            if let Some(path) = &simd_out {
                write_or_fail(path, &json, "simd artifact");
                eprintln!("[tables] wrote {path} ({entries} entries)");
            }
        }
    }
    if want("e23") || sep_out.is_some() || sep_in.is_some() {
        if let Some(path) = &sep_in {
            let json = read_or_fail(path, "sep artifact");
            let records =
                sep::read_sep_json(&json).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            println!(
                "{hr}\nE23 — separator quality from {path} ({} entries):\n\n{}",
                records.len(),
                sep::render_sep_table(&records)
            );
        } else {
            let (report, records) = sep::e23_separators(smoke);
            println!("{hr}\n{report}");
            let json = sep::sep_json(&records);
            let entries = sep::validate_sep_json(&json)
                .unwrap_or_else(|e| fail(&format!("sep artifact failed validation: {e}")));
            if let Some(path) = &sep_out {
                write_or_fail(path, &json, "sep artifact");
                eprintln!("[tables] wrote {path} ({entries} entries)");
            }
        }
    }
    if want("check") {
        println!("{hr}\n{}", experiments::consistency_check());
    }
}
