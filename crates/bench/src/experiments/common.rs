//! Shared experiment plumbing: the key-parameter search space, dataset
//! caching (so independent experiment runs don't re-collect the same 220
//! points), surrogate settings, and coarse configuration grids for the exhaustive
//! baselines.

use rafiki::{CollectionPlan, ConfigSearchSpace, EvalContext, PerfDataset, PerfSample};
use rafiki_engine::{param_catalog, EngineConfig, ParamId};
use rafiki_neural::{Dataset, Surrogate, SurrogateConfig, TrainConfig};

/// The search space over the paper's five key Cassandra parameters.
pub fn key_param_space() -> ConfigSearchSpace {
    let want = [
        ParamId::CompactionMethod,
        ParamId::ConcurrentWrites,
        ParamId::FileCacheSizeMb,
        ParamId::MemtableCleanupThreshold,
        ParamId::ConcurrentCompactors,
    ];
    let params = param_catalog()
        .into_iter()
        .filter(|p| want.contains(&p.id))
        .collect();
    ConfigSearchSpace::new(params, EngineConfig::default())
}

/// The search space over all 30 catalogued parameters (ablation).
pub fn full_param_space() -> ConfigSearchSpace {
    ConfigSearchSpace::new(param_catalog(), EngineConfig::default())
}

/// The widened tuning space for the strategy bake-off: every
/// performance-bearing knob the engine exposes, 14 parameters deep —
/// the high-dimensional regime where the choice of search strategy
/// actually matters (5-knob spaces are easy for everything).
pub fn wide_param_space() -> ConfigSearchSpace {
    let want = [
        ParamId::CompactionMethod,
        ParamId::ConcurrentWrites,
        ParamId::ConcurrentReads,
        ParamId::FileCacheSizeMb,
        ParamId::FileCacheEviction,
        ParamId::MemtableCleanupThreshold,
        ParamId::MemtableHeapSpaceMb,
        ParamId::ConcurrentCompactors,
        ParamId::CommitlogSyncPeriodMs,
        ParamId::BloomFilterFpChance,
        ParamId::SstableBlockSizeKb,
        ParamId::StcsMinThreshold,
        ParamId::StcsMaxThreshold,
        ParamId::LeveledFanout,
    ];
    let params: Vec<_> = param_catalog()
        .into_iter()
        .filter(|p| want.contains(&p.id))
        .collect();
    assert_eq!(params.len(), want.len(), "catalog is missing a wide knob");
    ConfigSearchSpace::new(params, EngineConfig::default())
}

/// The data-collection plan of §4.2: 20 configurations x 11 read ratios.
pub fn paper_collection_plan(quick: bool) -> CollectionPlan {
    if quick {
        CollectionPlan {
            configurations: 6,
            read_ratios: vec![0.0, 0.5, 1.0],
            seed: crate::EXPERIMENT_SEED,
            ..CollectionPlan::default()
        }
    } else {
        CollectionPlan {
            configurations: 20,
            read_ratios: (0..=10).map(|i| i as f64 / 10.0).collect(),
            seed: crate::EXPERIMENT_SEED,
            ..CollectionPlan::default()
        }
    }
}

/// The surrogate settings of §4.3: 6 -> [14, 4] -> 1, ensemble of 20 with
/// 30% pruning, Bayesian regularization, <= 200 epochs.
pub fn paper_surrogate_config(quick: bool) -> SurrogateConfig {
    SurrogateConfig {
        hidden: vec![14, 4],
        ensemble_size: if quick { 6 } else { 20 },
        prune_fraction: 0.30,
        train: TrainConfig {
            max_epochs: if quick { 60 } else { 200 },
            ..TrainConfig::default()
        },
        seed: crate::EXPERIMENT_SEED,
    }
}

/// MAPE (%) of any [`Surrogate`] on a held-out dataset, computed through
/// the batched trait path (one matrix pass per model). The ablation
/// experiments evaluate every model family through this one helper, so no
/// per-model code is left at call sites.
pub fn surrogate_mape(model: &dyn Surrogate, test: &Dataset) -> f64 {
    rafiki_neural::surrogate::evaluate_on(model, test).mape
}

fn dataset_cache_path(tag: &str) -> std::path::PathBuf {
    crate::output::output_dir().join(format!("dataset_{tag}.csv"))
}

/// Writes a dataset as CSV (header + one row per sample).
pub fn dataset_to_csv(data: &PerfDataset) -> String {
    let dims = data.samples.first().map_or(0, |s| s.genome.len());
    let mut out = String::from("read_ratio,config_index,throughput");
    for i in 0..dims {
        out.push_str(&format!(",g{i}"));
    }
    out.push('\n');
    for s in &data.samples {
        out.push_str(&format!(
            "{},{},{}",
            s.read_ratio, s.config_index, s.throughput
        ));
        for g in &s.genome {
            out.push_str(&format!(",{g}"));
        }
        out.push('\n');
    }
    out
}

/// Parses a dataset CSV produced by [`dataset_to_csv`].
///
/// # Panics
///
/// Panics on malformed input (cache files are trusted; delete
/// `target/experiments/dataset_*.csv` to force re-collection).
pub fn dataset_from_csv(csv: &str) -> PerfDataset {
    let mut samples = Vec::new();
    for line in csv.lines().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        assert!(fields.len() >= 3, "malformed dataset row: {line}");
        samples.push(PerfSample {
            read_ratio: fields[0].parse().expect("read_ratio"),
            config_index: fields[1].parse().expect("config_index"),
            throughput: fields[2].parse().expect("throughput"),
            genome: fields[3..]
                .iter()
                .map(|f| f.parse().expect("genome value"))
                .collect(),
        });
    }
    PerfDataset { samples }
}

/// Loads the cached dataset for `tag` or collects it afresh and caches it.
/// The cache key includes the plan shape, so `--quick` runs don't poison
/// full runs.
pub fn load_or_collect_dataset(
    tag: &str,
    ctx: &EvalContext,
    space: &ConfigSearchSpace,
    plan: &CollectionPlan,
) -> PerfDataset {
    let tag = format!(
        "{tag}_{}x{}_{}d",
        plan.configurations,
        plan.read_ratios.len(),
        space.dims()
    );
    let path = dataset_cache_path(&tag);
    if let Ok(csv) = std::fs::read_to_string(&path) {
        let data = dataset_from_csv(&csv);
        let expected = plan.configurations * plan.read_ratios.len();
        if data.len() == expected {
            println!(
                "[dataset] loaded {} samples from {}",
                data.len(),
                path.display()
            );
            return data;
        }
    }
    println!(
        "[dataset] collecting {} samples ({} configs x {} workloads)…",
        plan.configurations * plan.read_ratios.len(),
        plan.configurations,
        plan.read_ratios.len()
    );
    let t0 = std::time::Instant::now();
    let data = plan.collect(ctx, space);
    println!("[dataset] collected in {:.1?}", t0.elapsed());
    crate::write_output(
        path.file_name()
            .expect("cache file name")
            .to_str()
            .expect("utf8"),
        &dataset_to_csv(&data),
    );
    data
}

/// An explicit coarse grid over a search space: categorical genes take all
/// options, numeric genes `levels` evenly spaced values. This is the
/// "exhaustive grid search" baseline (§4.8 tests 80 configuration sets per
/// workload; levels = 3 over the five key parameters gives 2*3*3*3*3 = 162,
/// and `levels = [3 with CC fixed]`-style trims land near 80).
pub fn coarse_genome_grid(space: &ConfigSearchSpace, levels: usize) -> Vec<Vec<f64>> {
    use rafiki_ga::GeneSpec;
    let ga = space.to_ga_space();
    let per_gene: Vec<Vec<f64>> = ga
        .genes()
        .iter()
        .map(|g| match *g {
            GeneSpec::Categorical { options } => (0..options).map(|v| v as f64).collect(),
            GeneSpec::Int { min, max } => (0..levels)
                .map(|i| {
                    (min as f64 + (max - min) as f64 * i as f64 / (levels - 1).max(1) as f64)
                        .round()
                })
                .collect(),
            GeneSpec::Real { min, max } => (0..levels)
                .map(|i| min + (max - min) * i as f64 / (levels - 1).max(1) as f64)
                .collect(),
        })
        .collect();
    let mut grid: Vec<Vec<f64>> = vec![Vec::new()];
    for level in &per_gene {
        let mut next = Vec::with_capacity(grid.len() * level.len());
        for prefix in &grid {
            for &v in level {
                let mut g = prefix.clone();
                g.push(v);
                next.push(g);
            }
        }
        grid = next;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_csv_roundtrip() {
        let data = PerfDataset {
            samples: vec![
                PerfSample {
                    read_ratio: 0.5,
                    config_index: 0,
                    genome: vec![0.0, 32.0],
                    throughput: 12_345.6,
                },
                PerfSample {
                    read_ratio: 1.0,
                    config_index: 3,
                    genome: vec![1.0, 64.0],
                    throughput: 9_876.5,
                },
            ],
        };
        let csv = dataset_to_csv(&data);
        assert_eq!(dataset_from_csv(&csv), data);
    }

    #[test]
    fn coarse_grid_covers_space() {
        let space = key_param_space();
        let grid = coarse_genome_grid(&space, 3);
        // CM(2) x CW(3) x FCZ(3) x MT(3) x CC(3)
        assert_eq!(grid.len(), 2 * 3 * 3 * 3 * 3);
        let ga = space.to_ga_space();
        assert!(grid.iter().all(|g| ga.is_feasible(g)));
    }

    #[test]
    fn spaces_have_expected_dims() {
        assert_eq!(key_param_space().dims(), 5);
        assert_eq!(wide_param_space().dims(), 14);
        assert_eq!(full_param_space().dims(), 30);
    }

    #[test]
    fn wide_space_quantizes_to_valid_configs() {
        use rand::SeedableRng;
        let space = wide_param_space();
        let ga = space.to_ga_space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let genome = ga.sample(&mut rng);
            space.config_from_genome(&genome).validate();
        }
    }
}
