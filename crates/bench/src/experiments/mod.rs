//! One module per table/figure of the paper. Every module exposes
//! `run(quick) -> Vec<Finding>`; binaries wrap these and
//! `run_all_experiments` composes the findings into EXPERIMENTS.md.

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

/// Reads the `--quick` flag from the process arguments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}
