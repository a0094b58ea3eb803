//! Table 4 (+ §4.10): tuning the ScyllaDB-like engine. Its internal
//! auto-tuner ignores many user parameters, so the search space is the
//! Cassandra ANOVA set stripped of ignored parameters and refilled with the
//! next-ranked respected ones (the paper keeps 5). Gains are modest
//! compared to Cassandra: ~12.3% (Rafiki) vs 21.8% (grid) at WL1 = 70%
//! reads, ~9% vs 4.57% at WL2 = 100% reads.

use super::common::{coarse_genome_grid, load_or_collect_dataset, paper_surrogate_config};
use super::Finding;
use rafiki::{CollectionPlan, ConfigSearchSpace, DbFlavor, EvalContext, PerformanceMetric};
use rafiki_engine::{param_catalog, scylla_ignored_params, EngineConfig, ParamId};
use rafiki_ga::GaConfig;
use rafiki_neural::{Matrix, SurrogateModel};
use rafiki_search::{run_strategy, GaSearch};

/// The ScyllaDB search space: respected parameters only, five in total
/// (compaction, commit-log, and bloom settings survive the auto-tuner).
pub fn scylla_param_space() -> ConfigSearchSpace {
    let ignored = scylla_ignored_params();
    // Rank-order of respected parameters from the Cassandra screen.
    let preferred = [
        ParamId::CompactionMethod,
        ParamId::CommitlogSync,
        ParamId::BloomFilterFpChance,
        ParamId::CommitlogSegmentSizeMb,
        ParamId::ColumnIndexSizeKb,
    ];
    let params = param_catalog()
        .into_iter()
        .filter(|p| preferred.contains(&p.id) && !ignored.contains(&p.id))
        .collect();
    ConfigSearchSpace::new(params, EngineConfig::default())
}

/// Regenerates Table 4.
pub fn run(quick: bool) -> Vec<Finding> {
    let base = if quick {
        crate::quick_context()
    } else {
        crate::experiment_context()
    };
    let ctx = EvalContext {
        flavor: DbFlavor::Scylla,
        ..base
    };
    let space = scylla_param_space();
    let plan = CollectionPlan {
        configurations: if quick { 5 } else { 14 },
        read_ratios: if quick {
            vec![0.7, 1.0]
        } else {
            vec![0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0]
        },
        seed: crate::EXPERIMENT_SEED,
        ..CollectionPlan::default()
    };
    let dataset = load_or_collect_dataset("scylla", &ctx, &space, &plan);
    let surrogate =
        SurrogateModel::fit(&dataset.to_training_data(), &paper_surrogate_config(quick));

    let default_cfg = EngineConfig::default();
    let grid: Vec<Vec<f64>> = coarse_genome_grid(&space, if quick { 2 } else { 3 });
    let mut rows = Vec::new();
    let mut findings = Vec::new();
    let paper = [
        ("WL1 (R=70%)", "12.29% (Rafiki) / 21.8% (grid)"),
        ("WL2 (R=100%)", "9% (Rafiki) / 4.57% (grid)"),
    ];
    for (i, &rr) in [0.7, 1.0].iter().enumerate() {
        let default_tput = ctx.measure(rr, &default_cfg);

        // Rafiki: GA over the surrogate, one batched pass per generation.
        let mut ga = GaSearch::new(
            space.to_ga_space(),
            GaConfig {
                seed: crate::EXPERIMENT_SEED,
                ..GaConfig::default()
            },
        );
        let result = run_strategy(&mut ga, |population| {
            let rows: Vec<Vec<f64>> = population
                .iter()
                .map(|g| space.feature_row(rr, g))
                .collect();
            surrogate.predict_batch(&Matrix::from_rows(&rows))
        });
        let rafiki_cfg = space.config_from_genome(&result.best_genome);
        let rafiki_tput = ctx.measure(rr, &rafiki_cfg);

        // Grid search on the real engine, through the deterministic
        // parallel grid runner.
        println!("[table4] grid at RR={rr} ({} configs)…", grid.len());
        let points: Vec<(f64, EngineConfig)> = grid
            .iter()
            .map(|g| (rr, space.config_from_genome(g)))
            .collect();
        let grid_tput = ctx
            .run_grid_scored(PerformanceMetric::Throughput, &points)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);

        let rafiki_gain = (rafiki_tput / default_tput - 1.0) * 100.0;
        let grid_gain = (grid_tput / default_tput - 1.0) * 100.0;
        println!(
            "[table4] RR={rr}: default {default_tput:.0}, rafiki {rafiki_tput:.0} ({rafiki_gain:+.1}%), grid best {grid_tput:.0} ({grid_gain:+.1}%)"
        );
        rows.push(vec![
            paper[i].0.to_string(),
            format!("{rafiki_tput:.0}"),
            format!("{grid_tput:.0}"),
            format!("{rafiki_gain:+.1}%"),
            format!("{grid_gain:+.1}%"),
        ]);
        findings.push(Finding::new(
            "Table 4",
            format!("ScyllaDB gain over default, {}", paper[i].0),
            paper[i].1,
            format!("{rafiki_gain:+.1}% (Rafiki) / {grid_gain:+.1}% (grid)"),
        ));
        // Within-X% of grid (the 9.5% claim of §4.8 for ScyllaDB).
        if i == 0 {
            findings.push(Finding::new(
                "§4.8",
                "ScyllaDB gap to grid best",
                "within 9.5% of the theoretically best",
                format!(
                    "{:.1}% below grid best",
                    (1.0 - rafiki_tput / grid_tput.max(1.0)) * 100.0
                ),
            ));
        }
    }
    let table = crate::markdown_table(
        &[
            "workload",
            "Rafiki ops/s",
            "Grid ops/s",
            "Rafiki gain",
            "Grid gain",
        ],
        &rows,
    );
    crate::write_output("table4_scylladb.md", &table);
    println!("{table}");
    findings
}
