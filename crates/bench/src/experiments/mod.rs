//! One module per table/figure of the paper. Every module exposes
//! `run(quick) -> Vec<Finding>`; [`EXPERIMENTS`] names them for the
//! `rafiki-bench` dispatcher, whose `all` composes the findings into
//! `EXPERIMENTS_RESULTS.md`.

pub mod ablation_param_count;
pub mod ablation_surrogates;
pub mod bake_off;
pub mod common;
pub mod fig10_throughput_variance;
pub mod fig3_workload_pattern;
pub mod fig4_default_vs_rafiki;
pub mod fig5_anova;
pub mod fig6_interdependency;
pub mod fig7_training_curve;
pub mod fig8_fig9_error_histograms;
pub mod table1_throughput_extremes;
pub mod table3_multiserver;
pub mod table4_scylladb;

/// One dispatchable experiment: module name (the `rafiki-bench`
/// argument), display label, entry point.
pub type Experiment = (&'static str, &'static str, fn(bool) -> Vec<Finding>);

/// Every experiment, in the order `rafiki-bench all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig3_workload_pattern", "Fig 3", fig3_workload_pattern::run),
    ("fig5_anova", "Fig 5", fig5_anova::run),
    (
        "fig4_default_vs_rafiki",
        "Fig 4",
        fig4_default_vs_rafiki::run,
    ),
    (
        "table1_throughput_extremes",
        "Table 1",
        table1_throughput_extremes::run,
    ),
    ("fig6_interdependency", "Fig 6", fig6_interdependency::run),
    ("fig7_training_curve", "Fig 7", fig7_training_curve::run),
    (
        "fig8_fig9_error_histograms",
        "Fig 8/9 + Table 2",
        fig8_fig9_error_histograms::run,
    ),
    (
        "fig10_throughput_variance",
        "Fig 10",
        fig10_throughput_variance::run,
    ),
    ("table3_multiserver", "Table 3", table3_multiserver::run),
    ("table4_scylladb", "Table 4", table4_scylladb::run),
    (
        "ablation_param_count",
        "ablation",
        ablation_param_count::run,
    ),
    (
        "ablation_surrogates",
        "surrogate ablation",
        ablation_surrogates::run,
    ),
    ("bake_off", "strategy bake-off", bake_off::run),
];

/// One reproduced quantity: what the paper reports vs what we measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Experiment id ("Fig 4", "Table 1", …).
    pub experiment: String,
    /// The quantity.
    pub metric: String,
    /// The paper's value (as reported).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(
        experiment: impl Into<String>,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Finding {
            experiment: experiment.into(),
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// Renders findings as a markdown table.
pub fn findings_table(findings: &[Finding]) -> String {
    let rows: Vec<Vec<String>> = findings
        .iter()
        .map(|f| {
            vec![
                f.experiment.clone(),
                f.metric.clone(),
                f.paper.clone(),
                f.measured.clone(),
            ]
        })
        .collect();
    crate::markdown_table(&["experiment", "metric", "paper", "measured"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_module_is_dispatched_exactly_once() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(&dir)
            .expect("list experiment modules")
            .map(|e| e.expect("dir entry").path())
            .filter_map(|p| p.file_stem()?.to_str().map(str::to_string))
            .filter(|m| m != "mod" && m != "common")
            .collect();
        modules.sort();
        let mut names: Vec<String> = EXPERIMENTS.iter().map(|e| e.0.to_string()).collect();
        names.sort();
        assert_eq!(names, modules);
    }
}
