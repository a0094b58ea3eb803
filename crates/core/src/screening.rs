//! Important-parameter identification via one-way ANOVA (§3.4).
//!
//! Each catalogued parameter is varied individually — a handful of values
//! across its domain, all other parameters at their defaults — and scored
//! by the variance of mean throughput across its values. The top-k
//! parameters (selected at the distinct variance drop) become the "key
//! parameters" that the surrogate and GA operate on.

use crate::evaluator::EvalContext;
use rafiki_engine::{param_catalog, EngineConfig, ParamDomain, ParamInfo};
use rafiki_stats::anova::{select_top_k_by_drop, OneWayAnova, ParameterEffect};

/// Screening settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningConfig {
    /// Workload read ratio used for the screen (a representative MG-RAST
    /// mix).
    pub read_ratio: f64,
    /// Number of values tested per numeric parameter (§3.4: "a number of
    /// values (4) are tested"); categoricals test every option.
    pub levels: usize,
    /// Repetitions per value (averaged before scoring).
    pub replicates: usize,
    /// Minimum number of key parameters to keep.
    pub min_keep: usize,
    /// Maximum number of key parameters to keep.
    pub max_keep: usize,
}

impl Default for ScreeningConfig {
    fn default() -> Self {
        ScreeningConfig {
            read_ratio: 0.8,
            levels: 4,
            replicates: 1,
            min_keep: 4,
            max_keep: 8,
        }
    }
}

/// One parameter's screening outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterScreen {
    /// Catalog entry.
    pub info: ParamInfo,
    /// Values tested.
    pub values: Vec<f64>,
    /// Mean throughput at each value.
    pub mean_throughput: Vec<f64>,
    /// Variance-of-means effect score (Figure 5 plots its square root).
    pub effect: ParameterEffect,
    /// Full ANOVA when replicates >= 2 (needs within-group variance).
    pub anova: Option<AnovaSummary>,
}

/// Serializable subset of the ANOVA result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnovaSummary {
    /// F statistic.
    pub f_statistic: f64,
    /// p-value.
    pub p_value: f64,
    /// Effect size η².
    pub eta_squared: f64,
}

/// The full screening report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningReport {
    /// Per-parameter outcomes, sorted by descending effect.
    pub screens: Vec<ParameterScreen>,
    /// The selected key parameters, in descending effect order.
    pub key_parameters: Vec<ParamInfo>,
    /// Throughput of the all-defaults configuration under the screen
    /// workload.
    pub default_throughput: f64,
}

/// The values tested for one parameter: categoricals enumerate every
/// option; numeric domains take `levels` evenly spaced values (including
/// both endpoints), always containing the default.
pub fn screening_values(info: &ParamInfo, levels: usize) -> Vec<f64> {
    let mut values = match info.domain {
        ParamDomain::Categorical { options } => (0..options).map(|v| v as f64).collect(),
        ParamDomain::Int { min, max } => {
            let levels = levels.max(2);
            (0..levels)
                .map(|i| (min as f64 + (max - min) as f64 * i as f64 / (levels - 1) as f64).round())
                .collect::<Vec<f64>>()
        }
        ParamDomain::Real { min, max } => {
            let levels = levels.max(2);
            (0..levels)
                .map(|i| min + (max - min) * i as f64 / (levels - 1) as f64)
                .collect()
        }
    };
    if !values.iter().any(|&v| (v - info.default).abs() < 1e-9) {
        values.push(info.default);
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    values.dedup();
    values
}

/// Runs the full parameter screen over the engine catalog.
pub fn identify_key_parameters(ctx: &EvalContext, cfg: &ScreeningConfig) -> ScreeningReport {
    let catalog = param_catalog();
    // Build the full measurement matrix up front and run it through the
    // deterministic parallel grid runner ([`crate::grid`]). Each point
    // gets an independent index-derived workload seed, so replicates of
    // the same value observe different streams — giving the ANOVA a real
    // within-group variance instead of identical repeats.
    let mut points: Vec<(f64, EngineConfig)> = Vec::new();
    let mut layout: Vec<(usize, Vec<f64>)> = Vec::new(); // (catalog idx, values)
    for (pi, info) in catalog.iter().enumerate() {
        let values = screening_values(info, cfg.levels);
        for &v in &values {
            for _ in 0..cfg.replicates.max(1) {
                let mut config = EngineConfig::default();
                config.set(info.id, v);
                points.push((cfg.read_ratio, config));
            }
        }
        layout.push((pi, values));
    }
    points.push((cfg.read_ratio, EngineConfig::default()));
    let throughputs = ctx.run_grid_scored(crate::dba::PerformanceMetric::Throughput, &points);
    let default_throughput = *throughputs.last().expect("non-empty measurements");

    let mut screens = Vec::new();
    let mut at = 0usize;
    for (pi, values) in layout {
        let info = &catalog[pi];
        let mut groups: Vec<Vec<f64>> = Vec::with_capacity(values.len());
        for _ in &values {
            let reps = cfg.replicates.max(1);
            groups.push(throughputs[at..at + reps].to_vec());
            at += reps;
        }
        let mean_throughput: Vec<f64> = groups
            .iter()
            .map(|g| rafiki_stats::descriptive::mean(g))
            .collect();
        let effect = ParameterEffect::from_group_means(info.name, &groups);
        let anova = if cfg.replicates >= 2 {
            OneWayAnova::from_groups(&groups)
                .ok()
                .map(|a| AnovaSummary {
                    f_statistic: a.f_statistic,
                    p_value: a.p_value,
                    eta_squared: a.eta_squared,
                })
        } else {
            None
        };
        screens.push(ParameterScreen {
            info: info.clone(),
            values,
            mean_throughput,
            effect,
            anova,
        });
    }

    screens.sort_by(|a, b| {
        b.effect
            .std_dev
            .partial_cmp(&a.effect.std_dev)
            .expect("finite effects")
    });
    let effects: Vec<ParameterEffect> = screens.iter().map(|s| s.effect.clone()).collect();
    let top = select_top_k_by_drop(&effects, cfg.min_keep, cfg.max_keep);
    let key_names: Vec<&str> = top.iter().map(|e| e.name.as_str()).collect();
    let key_parameters: Vec<ParamInfo> = screens
        .iter()
        .filter(|s| key_names.contains(&s.info.name))
        .map(|s| s.info.clone())
        .collect();

    ScreeningReport {
        screens,
        key_parameters,
        default_throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_engine::ParamId;

    #[test]
    fn screening_values_cover_domain() {
        let catalog = param_catalog();
        for info in &catalog {
            let values = screening_values(info, 4);
            assert!(
                values.len() >= 2,
                "{} has {} values",
                info.name,
                values.len()
            );
            assert!(
                values.iter().any(|&v| (v - info.default).abs() < 1e-9),
                "{} misses its default",
                info.name
            );
            match info.domain {
                ParamDomain::Int { min, max } => {
                    assert_eq!(values[0], min as f64);
                    assert_eq!(*values.last().unwrap(), max as f64);
                }
                ParamDomain::Real { min, max } => {
                    assert!((values[0] - min).abs() < 1e-12);
                    assert!((*values.last().unwrap() - max).abs() < 1e-12);
                }
                ParamDomain::Categorical { options } => {
                    assert_eq!(values.len(), options as usize);
                }
            }
        }
    }

    // The full screen is exercised by the integration suite; here we run a
    // heavily reduced version to keep unit-test time low.
    #[test]
    fn reduced_screen_ranks_compaction_method_high() {
        let ctx = EvalContext::small();
        let cfg = ScreeningConfig {
            levels: 2,
            ..ScreeningConfig::default()
        };
        let report = identify_key_parameters(&ctx, &cfg);
        assert_eq!(report.screens.len(), 30);
        assert!(report.default_throughput > 0.0);
        assert!(
            (cfg.min_keep..=cfg.max_keep).contains(&report.key_parameters.len()),
            "selected {} key params",
            report.key_parameters.len()
        );
        // The screens are sorted by effect.
        for w in report.screens.windows(2) {
            assert!(w[0].effect.std_dev >= w[1].effect.std_dev);
        }
        // Compaction method must rank among the keys (the paper's dominant
        // parameter).
        assert!(
            report
                .key_parameters
                .iter()
                .any(|p| p.id == ParamId::CompactionMethod),
            "CM missing from {:?}",
            report
                .key_parameters
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
        );
    }
}
