//! Runs every experiment in sequence and writes the consolidated
//! paper-vs-measured table to `target/experiments/EXPERIMENTS_RESULTS.md`
//! (the hand-maintained narrative lives in the repository's
//! EXPERIMENTS.md). Pass `--quick` for a reduced smoke run.

use rafiki_bench::experiments::{self, Finding};

/// A named experiment suite: display label + entry point.
type Suite = (&'static str, fn(bool) -> Vec<Finding>);

fn main() {
    let quick = experiments::quick_flag();
    let t0 = std::time::Instant::now();
    let mut findings: Vec<Finding> = Vec::new();

    let suites: Vec<Suite> = vec![
        ("Fig 3", experiments::fig3_workload_pattern::run),
        ("Fig 5", experiments::fig5_anova::run),
        ("Fig 4", experiments::fig4_default_vs_rafiki::run),
        ("Table 1", experiments::table1_throughput_extremes::run),
        ("Fig 6", experiments::fig6_interdependency::run),
        ("Fig 7", experiments::fig7_training_curve::run),
        (
            "Fig 8/9 + Table 2",
            experiments::fig8_fig9_error_histograms::run,
        ),
        ("Fig 10", experiments::fig10_throughput_variance::run),
        ("Table 3", experiments::table3_multiserver::run),
        ("Table 4", experiments::table4_scylladb::run),
        ("ablation", experiments::ablation_param_count::run),
        ("surrogate ablation", experiments::ablation_surrogates::run),
        ("strategy bake-off", experiments::bake_off::run),
    ];
    for (name, run) in suites {
        println!("\n=== {name} ===");
        let t = std::time::Instant::now();
        findings.extend(run(quick));
        println!("=== {name} done in {:.1?} ===", t.elapsed());
    }

    let table = experiments::findings_table(&findings);
    let header = format!(
        "# Rafiki reproduction — measured results\n\n\
         Generated by `cargo run --release -p rafiki-bench --bin run_all_experiments`{}\n\
         in {:.0?}. Seed {}.\n\n",
        if quick { " (--quick)" } else { "" },
        t0.elapsed(),
        rafiki_bench::EXPERIMENT_SEED
    );
    rafiki_bench::write_output("EXPERIMENTS_RESULTS.md", &format!("{header}{table}"));
    println!("\n{table}");
    println!("total: {:.0?}", t0.elapsed());
}
