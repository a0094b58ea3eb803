//! `rafiki-bench`: regenerates the paper's tables and figures and gates
//! the committed benchmark records.
//!
//! ```text
//! rafiki-bench <experiment> [--quick]   one experiment (a module of `experiments`)
//! rafiki-bench all [--quick]            every experiment, then EXPERIMENTS_RESULTS.md
//! rafiki-bench check [paths...]         gate BENCH_*.json records (default: the committed set)
//! ```
//!
//! `--quick` is a reduced smoke run. Outputs land in `target/experiments/`.

use rafiki_bench::experiments::{self, Finding, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: rafiki-bench <experiment>|all [--quick]");
    eprintln!("       rafiki-bench check [paths...]");
    eprintln!("experiments:");
    for (name, label, _) in EXPERIMENTS {
        eprintln!("  {name:<28} {label}");
    }
    ExitCode::from(2)
}

/// Runs every experiment in table order and writes the consolidated
/// paper-vs-measured table to `target/experiments/EXPERIMENTS_RESULTS.md`
/// (the hand-maintained narrative lives in the repository's EXPERIMENTS.md).
fn run_all(quick: bool) {
    let t0 = std::time::Instant::now();
    let mut findings: Vec<Finding> = Vec::new();
    for (_, label, run) in EXPERIMENTS {
        println!("\n=== {label} ===");
        let t = std::time::Instant::now();
        findings.extend(run(quick));
        println!("=== {label} done in {:.1?} ===", t.elapsed());
    }

    let table = experiments::findings_table(&findings);
    let header = format!(
        "# Rafiki reproduction — measured results\n\n\
         Generated by `cargo run --release -p rafiki-bench -- all{}`\n\
         in {:.0?}. Seed {}.\n\n",
        if quick { " --quick" } else { "" },
        t0.elapsed(),
        rafiki_bench::EXPERIMENT_SEED
    );
    rafiki_bench::write_output("EXPERIMENTS_RESULTS.md", &format!("{header}{table}"));
    println!("\n{table}");
    println!("total: {:.0?}", t0.elapsed());
}

fn main() -> ExitCode {
    let (flags, mut args): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    if args.is_empty() {
        return usage();
    }
    let command = args.remove(0);
    if command == "check" {
        if !flags.is_empty() {
            return usage();
        }
        let paths: Vec<PathBuf> = if args.is_empty() {
            rafiki_bench::check::committed_paths()
        } else {
            args.iter().map(PathBuf::from).collect()
        };
        return if rafiki_bench::check::check_all(&paths) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if !args.is_empty() || flags.iter().any(|f| f != "--quick") {
        return usage();
    }
    let quick = !flags.is_empty();
    if command == "all" {
        run_all(quick);
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(name, _, _)| *name == command) {
        Some((_, _, run)) => {
            let findings = run(quick);
            println!("\n{}", experiments::findings_table(&findings));
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}
