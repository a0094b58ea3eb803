//! Search-strategy bake-off over the widened configuration space
//! (`BENCH_bakeoff.json`).
//!
//! The paper's online phase is a GA over the surrogate (§3.7.2). This
//! experiment asks the question the paper doesn't: *on a 14-knob space,
//! does the GA still earn its keep?* Four strategies — the GA, a
//! BestConfig-style divide-and-diverge sampler, a LatentTune-style
//! autoencoder search, and pure random sampling — run on identical
//! seeds and identical surrogate-evaluation budgets; each winner is
//! then measured on the *real* engine, so the record compares delivered
//! throughput, not surrogate flattery.
//!
//! Budget parity: the GA's budget is structural
//! (`population * (generations + 1) + 1`); the other strategies are
//! sized to consume at most that many surrogate evaluations, and the
//! record carries each strategy's actual count.

use super::common::{
    load_or_collect_dataset, paper_collection_plan, paper_surrogate_config, wide_param_space,
};
use super::Finding;
use rafiki::ConfigSearchSpace;
use rafiki_neural::{Matrix, Surrogate, SurrogateModel};
use rafiki_search::{
    BestConfigConfig, BestConfigSearch, GaConfig, GaSearch, LatentConfig, LatentSearch,
    RandomSearch, SearchStrategy,
};
use rafiki_serve::wire::Json;

/// The four contestants, in record order.
pub const STRATEGIES: &[&str] = &["ga", "bestconfig", "latent", "random"];

struct StrategyRun {
    name: &'static str,
    read_ratio: f64,
    predicted: f64,
    ops_per_sec: f64,
    surrogate_calls: usize,
    batches: usize,
    search_secs: f64,
}

fn build_strategies(
    space: &ConfigSearchSpace,
    seed: u64,
    quick: bool,
) -> Vec<Box<dyn SearchStrategy>> {
    let ga_space = space.to_ga_space();
    let (population, generations) = if quick { (12, 5) } else { (30, 30) };
    let ga_cfg = GaConfig {
        population,
        generations,
        seed,
        ..GaConfig::default()
    };
    // Structural GA budget; every other strategy fits inside it.
    let budget = population * (generations + 1) + 1;
    let design = if quick { 16 } else { 64 };
    let latent_generations = ((budget - design - 1) / population).saturating_sub(1);
    vec![
        Box::new(GaSearch::new(ga_space.clone(), ga_cfg)),
        Box::new(BestConfigSearch::new(
            ga_space.clone(),
            BestConfigConfig {
                samples_per_round: population,
                rounds: budget / population,
                seed,
                ..BestConfigConfig::default()
            },
        )),
        Box::new(LatentSearch::new(
            ga_space.clone(),
            LatentConfig {
                design_samples: design,
                latent_dim: 4,
                autoencoder_epochs: if quick { 60 } else { 200 },
                ga: GaConfig {
                    population,
                    generations: latent_generations,
                    seed,
                    ..GaConfig::default()
                },
                seed,
            },
        )),
        Box::new(RandomSearch::new(ga_space, budget, population, seed)),
    ]
}

/// The shared evaluation budget the strategies are held to.
pub fn bakeoff_budget(quick: bool) -> usize {
    let (population, generations) = if quick { (12, 5) } else { (30, 30) };
    population * (generations + 1) + 1
}

/// `x` rounded to `places` decimals, as the record stores it.
fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Runs the bake-off and writes `BENCH_bakeoff.json` under
/// `target/experiments/`; a full run (not `quick`) also refreshes the
/// committed copy at the repository root.
pub fn run(quick: bool) -> Vec<Finding> {
    let ctx = if quick {
        crate::quick_context()
    } else {
        crate::experiment_context()
    };
    let space = wide_param_space();
    let plan = paper_collection_plan(quick);
    let dataset = load_or_collect_dataset("cassandra_wide", &ctx, &space, &plan);
    let t0 = std::time::Instant::now();
    let surrogate =
        SurrogateModel::fit(&dataset.to_training_data(), &paper_surrogate_config(quick));
    println!(
        "[bakeoff] surrogate trained on {} samples over {} dims in {:.1?}",
        dataset.len(),
        space.dims(),
        t0.elapsed()
    );
    let surrogate: &dyn Surrogate = &surrogate;

    let seed = crate::EXPERIMENT_SEED;
    let read_ratios: Vec<f64> = if quick {
        vec![0.5]
    } else {
        vec![0.1, 0.5, 0.9]
    };
    let budget = bakeoff_budget(quick);

    // Reference point: the stock configuration on the real engine.
    let defaults: Vec<(f64, f64)> = read_ratios
        .iter()
        .map(|&rr| (rr, ctx.measure(rr, space.base())))
        .collect();

    let mut runs: Vec<StrategyRun> = Vec::new();
    for &rr in &read_ratios {
        for mut strategy in build_strategies(&space, seed, quick) {
            let t = std::time::Instant::now();
            let outcome = rafiki_search::run_strategy(strategy.as_mut(), |population| {
                let rows: Vec<Vec<f64>> = population
                    .iter()
                    .map(|g| space.feature_row(rr, g))
                    .collect();
                surrogate.predict_batch(&Matrix::from_rows(&rows))
            });
            let search_secs = t.elapsed().as_secs_f64();
            assert!(
                outcome.evaluations <= budget,
                "{} overspent: {} > {budget}",
                outcome.strategy,
                outcome.evaluations
            );
            let cfg = space.config_from_genome(&outcome.best_genome);
            cfg.validate();
            let ops = ctx.measure(rr, &cfg);
            println!(
                "[bakeoff] rr={rr:.1} {:>10}: predicted {:.0}, measured {ops:.0} ops/s \
                 ({} surrogate evals, {} batches, {search_secs:.2}s)",
                outcome.strategy, outcome.best_fitness, outcome.evaluations, outcome.batches
            );
            runs.push(StrategyRun {
                name: outcome.strategy,
                read_ratio: rr,
                predicted: outcome.best_fitness,
                ops_per_sec: ops,
                surrogate_calls: outcome.evaluations,
                batches: outcome.batches,
                search_secs,
            });
        }
    }

    // Assemble the record, one entry per strategy with per-workload cells.
    let default_cells = defaults
        .iter()
        .map(|&(rr, ops)| {
            Json::obj(vec![
                ("read_ratio", Json::Num(rr)),
                ("ops_per_sec", Json::Num(round_to(ops, 1))),
            ])
        })
        .collect();
    let strategies = STRATEGIES
        .iter()
        .map(|&name| {
            let cells: Vec<&StrategyRun> = runs.iter().filter(|r| r.name == name).collect();
            let mean_ops = cells.iter().map(|r| r.ops_per_sec).sum::<f64>() / cells.len() as f64;
            let calls: usize = cells.iter().map(|r| r.surrogate_calls).sum();
            let cells = cells
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("read_ratio", Json::Num(r.read_ratio)),
                        ("predicted", Json::Num(round_to(r.predicted, 1))),
                        ("ops_per_sec", Json::Num(round_to(r.ops_per_sec, 1))),
                        ("surrogate_calls", Json::Num(r.surrogate_calls as f64)),
                        ("batches", Json::Num(r.batches as f64)),
                        ("search_secs", Json::Num(round_to(r.search_secs, 3))),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("strategy", Json::str(name)),
                ("surrogate_calls", Json::Num(calls as f64)),
                ("mean_ops_per_sec", Json::Num(round_to(mean_ops, 1))),
                ("cells", Json::Arr(cells)),
            ])
        })
        .collect();
    let record = Json::obj(vec![
        ("experiment", Json::str("bake_off")),
        ("units", Json::str("ops_per_sec")),
        ("measured", Json::Bool(true)),
        ("space_dims", Json::Num(space.dims() as f64)),
        ("budget", Json::Num(budget as f64)),
        ("seed", Json::Num(seed as f64)),
        ("default", Json::Arr(default_cells)),
        ("strategies", Json::Arr(strategies)),
    ]);
    let json = record.encode() + "\n";
    crate::write_output("BENCH_bakeoff.json", &json);
    // Only a full run may refresh the committed record.
    if !quick {
        crate::write_repo_root("BENCH_bakeoff.json", &json);
    }

    let mut findings = Vec::new();
    for &name in STRATEGIES {
        let cells: Vec<&StrategyRun> = runs.iter().filter(|r| r.name == name).collect();
        let mean_ops = cells.iter().map(|r| r.ops_per_sec).sum::<f64>() / cells.len() as f64;
        let mean_default =
            defaults.iter().map(|&(_, ops)| ops).sum::<f64>() / defaults.len() as f64;
        findings.push(Finding::new(
            "bake-off",
            format!("{name} on the {}-knob space", space.dims()),
            "(not in paper — strategy comparison at high dimension)",
            format!(
                "{mean_ops:.0} ops/s measured mean vs default {mean_default:.0} \
                 ({} surrogate evals/workload)",
                cells.first().map_or(0, |r| r.surrogate_calls)
            ),
        ));
    }
    findings
}
