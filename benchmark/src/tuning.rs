//! The tuning recipe `tune_job` times and the serve workloads set up
//! with: collect on a quick context, train an ensemble, install both in
//! a `RafikiTuner`; plus the four budget-matched search strategies.

use crate::common::{eval_context, key_space};
use rafiki::{CollectionPlan, EvalContext, PerfDataset, RafikiTuner, TunerConfig};
use rafiki_ga::{GaConfig, SearchSpace};
use rafiki_neural::{SurrogateConfig, SurrogateModel, TrainConfig};
use rafiki_search::{
    BestConfigConfig, BestConfigSearch, GaSearch, LatentConfig, LatentSearch, RandomSearch,
    SearchStrategy,
};

/// How big a fit is.
#[derive(Debug, Clone)]
pub struct FitSpec {
    pub keys: u64,
    pub clients: usize,
    /// Simulated warm-up and measured seconds per collected point.
    pub sim_s: (f64, f64),
    pub configurations: usize,
    pub read_ratios: Vec<f64>,
    /// Networks trained (30% pruned, as in the paper) and their epoch cap.
    pub ensemble: usize,
    pub epochs: usize,
}

impl FitSpec {
    pub fn context(&self, seed: u64) -> EvalContext {
        eval_context(self.keys, self.clients, self.sim_s.0, self.sim_s.1, seed)
    }

    pub fn plan(&self, seed: u64) -> CollectionPlan {
        CollectionPlan {
            configurations: self.configurations,
            read_ratios: self.read_ratios.clone(),
            seed,
            ..CollectionPlan::default()
        }
    }

    /// The paper's 6 -> [14, 4] -> 1 network shape.
    pub fn surrogate(&self, seed: u64) -> SurrogateConfig {
        SurrogateConfig {
            hidden: vec![14, 4],
            ensemble_size: self.ensemble,
            prune_fraction: 0.30,
            train: TrainConfig {
                max_epochs: self.epochs,
                ..TrainConfig::default()
            },
            seed,
        }
    }

    pub fn collect(&self, seed: u64) -> PerfDataset {
        self.plan(seed).collect(&self.context(seed), &key_space())
    }

    pub fn train(&self, data: &PerfDataset, seed: u64) -> SurrogateModel {
        SurrogateModel::fit(&data.to_training_data(), &self.surrogate(seed))
    }

    /// A tuner holding `model` and `data`, searching with the paper's GA
    /// (`GaConfig::default()`, ~3,351 surrogate calls per search).
    pub fn install(&self, model: SurrogateModel, data: PerfDataset, seed: u64) -> RafikiTuner {
        let cfg = TunerConfig {
            screening: None,
            fixed_params: None,
            collection: self.plan(seed),
            surrogate: self.surrogate(seed),
            ga: GaConfig {
                seed,
                ..GaConfig::default()
            },
        };
        let mut tuner = RafikiTuner::new(self.context(seed), cfg);
        tuner.install(key_space(), model, data);
        tuner
    }

    /// Collect, train and install in one go.
    pub fn fit(&self, seed: u64) -> RafikiTuner {
        let data = self.collect(seed);
        let model = self.train(&data, seed);
        self.install(model, data, seed)
    }
}

/// The GA and the three strategies sized to fit inside its budget, on
/// one seed (the bake-off's parity rule).
pub fn strategies(space: &SearchSpace, seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    let ga = GaConfig {
        seed,
        ..GaConfig::default()
    };
    // The GA's budget is structural; the others are sized to fit it.
    let budget = ga.population * (ga.generations + 1) + 1;
    let design = 64;
    let latent_generations = ((budget - design - 1) / ga.population).saturating_sub(1);
    vec![
        Box::new(GaSearch::new(space.clone(), ga)),
        Box::new(BestConfigSearch::new(
            space.clone(),
            BestConfigConfig {
                samples_per_round: ga.population,
                rounds: budget / ga.population,
                seed,
                ..BestConfigConfig::default()
            },
        )),
        Box::new(LatentSearch::new(
            space.clone(),
            LatentConfig {
                design_samples: design,
                latent_dim: 3,
                autoencoder_epochs: 100,
                ga: GaConfig {
                    generations: latent_generations,
                    ..ga
                },
                seed,
            },
        )),
        Box::new(RandomSearch::new(
            space.clone(),
            budget,
            ga.population,
            seed,
        )),
    ]
}
