//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p spsep-bench --bin tables            # everything
//! cargo run --release -p spsep-bench --bin tables -- e1 fig2 # a subset
//! cargo run --release -p spsep-bench --bin tables -- e18 e21 e23 --smoke
//! ```
//!
//! Experiment ids: e1 e2 e3 e4 e5 fig1 fig2 e8 e9 e10 e11 e12 e13 e14
//! e15 e18 e21 e23 check (see DESIGN.md §4 for the paper-artifact
//! mapping; E16, E17, E19, E20 and E22 are retired).
//!
//! The one flag, `--smoke`, shrinks E18/E21/E23 to CI-sized instances.
//! Every number is measured by the run that prints it; nothing is read
//! back from a file. E18, E21 and E23 check their own records
//! (`check_amortization`, `check_kernels`, `check_separators`) and exit
//! with status 1, after printing the table, if a claim fails.
//!
//! Unknown experiment ids and flags exit with status 2 and the valid
//! set — never a bare panic.

use spsep_bench::{amortize, experiments, sep, simd};

/// Every experiment id `tables` understands, in presentation order.
const VALID_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "fig1", "fig2", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e18", "e21", "e23", "check", "all",
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tables [ids...] [--smoke]\nvalid ids: {}",
        VALID_IDS.join(" ")
    );
    std::process::exit(2);
}

/// Exit with status 1 if an experiment's records break one of its claims.
fn enforce(id: &str, verdict: Result<(), String>) {
    if let Err(e) = verdict {
        eprintln!("error: {id} check failed: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut smoke = false;
    let mut args: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
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
    if want("e18") {
        let (report, records) = amortize::e18_amortization(smoke);
        println!("{hr}\n{report}");
        enforce("E18", amortize::check_amortization(&records));
    }
    if want("e21") {
        let (report, records) = simd::e21_simd_speedup(smoke);
        println!("{hr}\n{report}");
        enforce("E21", simd::check_kernels(&records));
    }
    if want("e23") {
        let (report, records) = sep::e23_separators(smoke);
        println!("{hr}\n{report}");
        enforce("E23", sep::check_separators(&records));
    }
    if want("check") {
        println!("{hr}\n{}", experiments::consistency_check());
    }
}
