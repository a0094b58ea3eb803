//! The Rafiki tuner: screening → data collection → surrogate training →
//! GA-based configuration optimization (the full workflow of §3.1).

use crate::dataset::{CollectionPlan, PerfDataset};
use crate::evaluator::EvalContext;
use crate::screening::{identify_key_parameters, ScreeningConfig, ScreeningReport};
use crate::search_space::ConfigSearchSpace;
use rafiki_engine::{param_catalog, EngineConfig, ParamId, ParamInfo};
use rafiki_ga::{GaConfig, Optimizer};
use rafiki_neural::{Matrix, Surrogate, SurrogateConfig, SurrogateModel};
use rafiki_obs as obs;
use rafiki_stats::parallel_indexed;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Tuner-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunerError {
    /// `optimize` was called before `fit`.
    NotFitted,
    /// Data collection produced no samples.
    EmptyDataset,
}

impl std::fmt::Display for TunerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerError::NotFitted => write!(f, "tuner has not been fitted yet"),
            TunerError::EmptyDataset => write!(f, "data collection produced no samples"),
        }
    }
}

impl std::error::Error for TunerError {}

/// Tuner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// ANOVA screening settings; `None` skips the screen and uses
    /// [`TunerConfig::fixed_params`] (or the paper's five key parameters).
    pub screening: Option<ScreeningConfig>,
    /// Parameters to tune when screening is disabled.
    pub fixed_params: Option<Vec<ParamId>>,
    /// Data-collection plan.
    pub collection: CollectionPlan,
    /// Surrogate-model settings.
    pub surrogate: SurrogateConfig,
    /// GA settings for the online search.
    pub ga: GaConfig,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            screening: Some(ScreeningConfig::default()),
            fixed_params: None,
            collection: CollectionPlan::default(),
            surrogate: SurrogateConfig::default(),
            ga: GaConfig::default(),
        }
    }
}

impl TunerConfig {
    /// A reduced configuration for tests and examples: skips the ANOVA
    /// screen (uses the paper's five key parameters), collects a small
    /// dataset, and trains a small ensemble.
    pub fn fast() -> Self {
        TunerConfig {
            screening: None,
            fixed_params: None,
            collection: CollectionPlan {
                configurations: 8,
                read_ratios: vec![0.0, 0.25, 0.5, 0.75, 1.0],
                ..CollectionPlan::default()
            },
            surrogate: SurrogateConfig {
                hidden: vec![10, 4],
                ensemble_size: 6,
                train: rafiki_neural::TrainConfig {
                    max_epochs: 80,
                    ..rafiki_neural::TrainConfig::default()
                },
                ..SurrogateConfig::default()
            },
            ga: GaConfig {
                population: 30,
                generations: 30,
                ..GaConfig::default()
            },
        }
    }

    /// The paper's five key parameters for Cassandra (§3.4.1), used when
    /// screening is disabled and no explicit list is given.
    pub fn paper_key_params() -> Vec<ParamId> {
        vec![
            ParamId::CompactionMethod,
            ParamId::ConcurrentWrites,
            ParamId::FileCacheSizeMb,
            ParamId::MemtableCleanupThreshold,
            ParamId::ConcurrentCompactors,
        ]
    }
}

/// Result of fitting the tuner.
#[derive(Debug, Clone)]
pub struct TunerReport {
    /// The ANOVA screen (when it ran).
    pub screening: Option<ScreeningReport>,
    /// Names of the tuned parameters.
    pub key_parameters: Vec<String>,
    /// Number of training samples collected.
    pub samples_collected: usize,
}

/// A configuration suggested by the tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedConfig {
    /// The full engine configuration.
    pub config: EngineConfig,
    /// Genome over the key parameters.
    pub genome: Vec<f64>,
    /// Surrogate-predicted throughput at this configuration.
    pub predicted_throughput: f64,
    /// Surrogate evaluations the search used.
    pub surrogate_evaluations: usize,
}

/// Read-ratio buckets in the policy table: rr = 0.00, 0.05, …, 1.00.
/// The 0.05 step is a third of the controller's default
/// `rr_change_threshold` dead band (0.15), so a finer table would only
/// distinguish workloads the controller does not act on; and 21
/// searches built in parallel cost ~50 ms of start-up on two cores
/// where 101 would cost ~0.5 s.
const POLICY_BUCKETS: usize = 21;

/// The Rafiki middleware tuner.
#[derive(Debug)]
pub struct RafikiTuner {
    ctx: EvalContext,
    cfg: TunerConfig,
    space: Option<ConfigSearchSpace>,
    surrogate: Option<SurrogateModel>,
    dataset: Option<PerfDataset>,
    screening: Option<ScreeningReport>,
    /// [`RafikiTuner::policy`], built on first use; emptied whenever the
    /// model it was searched over is replaced.
    policy: OnceLock<Vec<OptimizedConfig>>,
}

impl RafikiTuner {
    /// Creates an unfitted tuner.
    pub fn new(ctx: EvalContext, cfg: TunerConfig) -> Self {
        RafikiTuner {
            ctx,
            cfg,
            space: None,
            surrogate: None,
            dataset: None,
            screening: None,
            policy: OnceLock::new(),
        }
    }

    /// The evaluation context.
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// The search space over the key parameters (after fitting).
    pub fn space(&self) -> Option<&ConfigSearchSpace> {
        self.space.as_ref()
    }

    /// The collected dataset (after fitting).
    pub fn dataset(&self) -> Option<&PerfDataset> {
        self.dataset.as_ref()
    }

    /// The trained surrogate (after fitting).
    pub fn surrogate(&self) -> Option<&SurrogateModel> {
        self.surrogate.as_ref()
    }

    /// Runs the offline phases: parameter screen (optional), data
    /// collection, and surrogate training.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::EmptyDataset`] when the collection plan is
    /// degenerate.
    pub fn fit(&mut self) -> Result<TunerReport, TunerError> {
        let fit_span = obs::span("tuner", "fit", obs::Level::Info);
        // Phase 1-2: identify key parameters.
        let key_params: Vec<ParamInfo> = if let Some(scfg) = &self.cfg.screening {
            let report = identify_key_parameters(&self.ctx, scfg);
            let keys = report.key_parameters.clone();
            self.screening = Some(report);
            keys
        } else {
            let ids = self
                .cfg
                .fixed_params
                .clone()
                .unwrap_or_else(TunerConfig::paper_key_params);
            param_catalog()
                .into_iter()
                .filter(|p| ids.contains(&p.id))
                .collect()
        };
        let space = ConfigSearchSpace::new(key_params, EngineConfig::default());

        // Phase 3: data collection.
        let dataset = self.cfg.collection.collect(&self.ctx, &space);
        if dataset.is_empty() {
            return Err(TunerError::EmptyDataset);
        }

        // Phase 4: surrogate training.
        let surrogate = SurrogateModel::fit(&dataset.to_training_data(), &self.cfg.surrogate);

        let report = TunerReport {
            screening: self.screening.clone(),
            key_parameters: space.params().iter().map(|p| p.name.to_string()).collect(),
            samples_collected: dataset.len(),
        };
        fit_span.close(vec![
            (
                "key_parameters",
                obs::Value::U64(report.key_parameters.len() as u64),
            ),
            ("samples", obs::Value::U64(report.samples_collected as u64)),
            ("screened", obs::Value::Bool(report.screening.is_some())),
        ]);
        self.space = Some(space);
        self.dataset = Some(dataset);
        self.surrogate = Some(surrogate);
        self.policy = OnceLock::new();
        Ok(report)
    }

    /// Installs a pre-trained surrogate + dataset (used by experiments
    /// that train with custom splits).
    pub fn install(
        &mut self,
        space: ConfigSearchSpace,
        surrogate: SurrogateModel,
        dataset: PerfDataset,
    ) {
        self.space = Some(space);
        self.surrogate = Some(surrogate);
        self.dataset = Some(dataset);
        self.policy = OnceLock::new();
    }

    /// Phase 5: searches the configuration space for the given workload
    /// read ratio using the GA over the surrogate.
    ///
    /// This is the exact search — thousands of surrogate evaluations,
    /// milliseconds of wall time — and what the CLI, the experiments and
    /// offline tuning jobs call. The online path does not: the
    /// controller answers window closes from [`RafikiTuner::policy`],
    /// whose every entry is this function's result at a bucket's read
    /// ratio.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    pub fn optimize(&self, read_ratio: f64) -> Result<OptimizedConfig, TunerError> {
        self.optimize_seeded(read_ratio, self.cfg.ga.seed)
    }

    /// Like [`RafikiTuner::optimize`] with an explicit GA seed.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    pub fn optimize_seeded(
        &self,
        read_ratio: f64,
        seed: u64,
    ) -> Result<OptimizedConfig, TunerError> {
        let (space, surrogate) = match (&self.space, &self.surrogate) {
            (Some(s), Some(m)) => (s, m),
            _ => return Err(TunerError::NotFitted),
        };
        let ga_cfg = GaConfig {
            seed,
            ..self.cfg.ga
        };
        let optimizer = Optimizer::new(space.to_ga_space(), ga_cfg);
        let search_span = obs::span("tuner", "optimize", obs::Level::Debug);
        // Batch-first hot path: assemble one feature matrix per generation
        // and score it with a single pass through the surrogate trait
        // object (one matrix–matrix product per ensemble member).
        let surrogate: &dyn Surrogate = surrogate;
        let result = optimizer.run_batch(|population| {
            let rows: Vec<Vec<f64>> = population
                .iter()
                .map(|g| space.feature_row(read_ratio, g))
                .collect();
            surrogate.predict_batch(&Matrix::from_rows(&rows))
        });
        search_span.close(vec![
            ("read_ratio", obs::Value::F64(read_ratio)),
            ("seed", obs::Value::U64(seed)),
            (
                "generations",
                obs::Value::U64(self.cfg.ga.generations as u64),
            ),
            ("evaluations", obs::Value::U64(result.evaluations as u64)),
            ("best_fitness", obs::Value::F64(result.best_fitness)),
        ]);
        Ok(OptimizedConfig {
            config: space.config_from_genome(&result.best_genome),
            genome: result.best_genome,
            predicted_throughput: result.best_fitness,
            surrogate_evaluations: result.evaluations,
        })
    }

    /// Phase 5 (online) with a pluggable search strategy: drives any
    /// [`rafiki_search::SearchStrategy`] over the surrogate instead of
    /// the built-in GA. The strategy must have been constructed over
    /// this tuner's [`ConfigSearchSpace::to_ga_space`] (genome
    /// dimensions must match the key parameters).
    ///
    /// Driving a [`rafiki_search::GaSearch`] through this path yields
    /// the exact result of [`RafikiTuner::optimize_seeded`] — the GA
    /// strategy is bit-identical to the built-in loop.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    pub fn optimize_with_strategy(
        &self,
        read_ratio: f64,
        strategy: &mut dyn rafiki_search::SearchStrategy,
    ) -> Result<OptimizedConfig, TunerError> {
        let (space, surrogate) = match (&self.space, &self.surrogate) {
            (Some(s), Some(m)) => (s, m),
            _ => return Err(TunerError::NotFitted),
        };
        let search_span = obs::span("tuner", "optimize_strategy", obs::Level::Debug);
        let surrogate: &dyn Surrogate = surrogate;
        let outcome = rafiki_search::run_strategy(strategy, |population| {
            let rows: Vec<Vec<f64>> = population
                .iter()
                .map(|g| space.feature_row(read_ratio, g))
                .collect();
            surrogate.predict_batch(&Matrix::from_rows(&rows))
        });
        search_span.close(vec![
            ("read_ratio", obs::Value::F64(read_ratio)),
            ("strategy", obs::Value::Str(outcome.strategy.to_string())),
            ("evaluations", obs::Value::U64(outcome.evaluations as u64)),
            ("best_fitness", obs::Value::F64(outcome.best_fitness)),
        ]);
        Ok(OptimizedConfig {
            config: space.config_from_genome(&outcome.best_genome),
            genome: outcome.best_genome,
            predicted_throughput: outcome.best_fitness,
            surrogate_evaluations: outcome.evaluations,
        })
    }

    /// The policy table the online controller decides from: entry `i` is
    /// exactly [`RafikiTuner::optimize`] at [`RafikiTuner::policy_rr`]`(i)`
    /// (`optimize` is a pure function of the fitted model and the read
    /// ratio, so the table can be searched before the first window
    /// closes). The first call builds the whole table, one search per
    /// bucket across the host's cores; later calls are a load.
    /// [`RafikiTuner::fit`] and [`RafikiTuner::install`] drop it.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    ///
    /// # Panics
    ///
    /// Panics if a search worker thread panics.
    pub fn policy(&self) -> Result<&[OptimizedConfig], TunerError> {
        if self.space.is_none() || self.surrogate.is_none() {
            return Err(TunerError::NotFitted);
        }
        Ok(self.policy.get_or_init(|| {
            let span = obs::span("tuner", "policy", obs::Level::Info);
            let table = parallel_indexed(POLICY_BUCKETS, |bucket| {
                self.optimize(Self::policy_rr(bucket))
                    .expect("fitted: checked above")
            })
            .expect("a policy search does not panic");
            span.close(vec![("buckets", obs::Value::U64(POLICY_BUCKETS as u64))]);
            table
        }))
    }

    /// The read ratio policy bucket `bucket` was searched at.
    pub fn policy_rr(bucket: usize) -> f64 {
        bucket as f64 / (POLICY_BUCKETS - 1) as f64
    }

    /// The policy bucket nearest `read_ratio`. A ratio halfway between
    /// two buckets goes to the upper one (0.025 → bucket 1); ratios
    /// outside `[0, 1]` — a forecast can overshoot — go to the end
    /// buckets.
    pub fn policy_bucket(read_ratio: f64) -> usize {
        (read_ratio.clamp(0.0, 1.0) * (POLICY_BUCKETS - 1) as f64).round() as usize
    }

    /// Predicts throughput for a (read ratio, genome) pair with the
    /// trained surrogate.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    pub fn predict(&self, read_ratio: f64, genome: &[f64]) -> Result<f64, TunerError> {
        let (space, surrogate) = match (&self.space, &self.surrogate) {
            (Some(s), Some(m)) => (s, m),
            _ => return Err(TunerError::NotFitted),
        };
        let surrogate: &dyn Surrogate = surrogate;
        Ok(surrogate.predict(&space.feature_row(read_ratio, genome)))
    }

    /// Predicts throughput for many genomes at one read ratio with a
    /// single batched surrogate pass — the same path
    /// [`RafikiTuner::optimize_seeded`] runs per GA generation.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] before [`RafikiTuner::fit`].
    pub fn predict_many(
        &self,
        read_ratio: f64,
        genomes: &[Vec<f64>],
    ) -> Result<Vec<f64>, TunerError> {
        let (space, surrogate) = match (&self.space, &self.surrogate) {
            (Some(s), Some(m)) => (s, m),
            _ => return Err(TunerError::NotFitted),
        };
        if genomes.is_empty() {
            return Ok(Vec::new());
        }
        let rows: Vec<Vec<f64>> = genomes
            .iter()
            .map(|g| space.feature_row(read_ratio, g))
            .collect();
        let surrogate: &dyn Surrogate = surrogate;
        Ok(surrogate.predict_batch(&Matrix::from_rows(&rows)))
    }
}

/// The `TunerConfig::fast()` tuner on `EvalContext::small()` that this
/// crate's unit tests borrow, with the report of its one `fit`. Fitting
/// is seed-deterministic and takes ~20 s, so each test binary does it
/// once instead of once per test.
#[cfg(test)]
pub(crate) fn fitted_fixture() -> &'static (RafikiTuner, TunerReport) {
    static FITTED: OnceLock<(RafikiTuner, TunerReport)> = OnceLock::new();
    FITTED.get_or_init(|| {
        let mut tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
        let report = tuner.fit().expect("fit succeeds");
        (tuner, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_before_fit_errors() {
        let tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
        assert_eq!(tuner.optimize(0.5).unwrap_err(), TunerError::NotFitted);
        assert_eq!(tuner.policy().unwrap_err(), TunerError::NotFitted);
        assert_eq!(
            tuner.predict(0.5, &[0.0; 5]).unwrap_err(),
            TunerError::NotFitted
        );
    }

    #[test]
    fn fast_fit_and_optimize_improve_over_default() {
        let (tuner, report) = fitted_fixture();
        assert_eq!(report.samples_collected, 8 * 5);
        assert_eq!(report.key_parameters.len(), 5);

        let best = tuner.optimize(0.9).expect("fitted");
        assert!(best.predicted_throughput > 0.0);
        assert!(best.surrogate_evaluations > 100);

        // The suggested configuration should genuinely beat the default on
        // the real system for a read-heavy workload.
        let default_tput = tuner.context().measure(0.9, &EngineConfig::default());
        let tuned_tput = tuner.context().measure(0.9, &best.config);
        assert!(
            tuned_tput > default_tput,
            "tuned {tuned_tput:.0} ops/s should beat default {default_tput:.0} ops/s"
        );
    }

    #[test]
    fn latency_objective_produces_lower_latency_configs() {
        // §3.8 item 1: the DBA may tune for latency instead of throughput.
        let ctx = EvalContext::small();
        let mut cfg = TunerConfig::fast();
        cfg.collection.metric = crate::dba::PerformanceMetric::MeanLatency;
        let mut tuner = RafikiTuner::new(ctx, cfg);
        tuner.fit().expect("fit succeeds");
        let best = tuner.optimize(0.9).expect("fitted");
        let default_lat = tuner
            .context()
            .measure_detailed(0.9, &EngineConfig::default())
            .mean_latency_ms;
        let tuned_lat = tuner
            .context()
            .measure_detailed(0.9, &best.config)
            .mean_latency_ms;
        assert!(
            tuned_lat <= default_lat * 1.05,
            "latency-tuned config ({tuned_lat:.2} ms) should not be slower than default ({default_lat:.2} ms)"
        );
    }

    #[test]
    fn predict_many_matches_scalar_predict() {
        let (tuner, _) = fitted_fixture();
        let base = tuner.space().unwrap().default_genome();
        let mut other = base.clone();
        other[0] = 1.0 - other[0].min(1.0);
        let genomes = vec![base, other];
        let batch = tuner.predict_many(0.7, &genomes).unwrap();
        assert_eq!(batch.len(), 2);
        for (b, g) in batch.iter().zip(&genomes) {
            assert_eq!(*b, tuner.predict(0.7, g).unwrap());
        }
        assert!(tuner.predict_many(0.7, &[]).unwrap().is_empty());
    }

    #[test]
    fn optimization_is_deterministic_per_seed() {
        let (tuner, _) = fitted_fixture();
        let a = tuner.optimize_seeded(0.5, 3).unwrap();
        let b = tuner.optimize_seeded(0.5, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ga_strategy_is_bit_identical_to_builtin_optimize() {
        let (tuner, _) = fitted_fixture();
        for seed in [0u64, 7, 42] {
            let builtin = tuner.optimize_seeded(0.6, seed).unwrap();
            let ga_cfg = GaConfig {
                seed,
                ..TunerConfig::fast().ga
            };
            let mut strategy =
                rafiki_search::GaSearch::new(tuner.space().unwrap().to_ga_space(), ga_cfg);
            let via_strategy = tuner.optimize_with_strategy(0.6, &mut strategy).unwrap();
            assert_eq!(via_strategy, builtin, "seed {seed}");
        }
    }

    /// What `policy()` must hold for `tuner`'s current model: one exact
    /// search per bucket, in bucket order.
    fn sequential_policy(tuner: &RafikiTuner) -> Vec<OptimizedConfig> {
        (0..POLICY_BUCKETS)
            .map(|b| tuner.optimize(RafikiTuner::policy_rr(b)).expect("fitted"))
            .collect()
    }

    #[test]
    fn policy_entries_are_the_exact_searches_at_their_buckets() {
        let (tuner, _) = fitted_fixture();
        let policy = tuner.policy().expect("fitted");
        assert_eq!(policy.len(), 21);
        // Built across threads, equal bit for bit to the sequential loop.
        assert_eq!(policy, sequential_policy(tuner));
        // Built once: a second call hands out the same table.
        assert!(std::ptr::eq(policy, tuner.policy().expect("fitted")));
    }

    #[test]
    fn policy_buckets_round_to_nearest_and_clamp() {
        assert_eq!(RafikiTuner::policy_rr(0), 0.0);
        assert_eq!(RafikiTuner::policy_rr(17), 0.85);
        assert_eq!(RafikiTuner::policy_rr(20), 1.0);
        assert_eq!(RafikiTuner::policy_bucket(0.0), 0);
        assert_eq!(RafikiTuner::policy_bucket(0.024_999), 0);
        assert_eq!(RafikiTuner::policy_bucket(0.025), 1, "halfway goes up");
        assert_eq!(RafikiTuner::policy_bucket(0.874), 17);
        assert_eq!(RafikiTuner::policy_bucket(1.0), 20);
        // A forecast may overshoot the unit interval.
        assert_eq!(RafikiTuner::policy_bucket(1.2), 20);
        assert_eq!(RafikiTuner::policy_bucket(-0.3), 0);
        for b in 0..POLICY_BUCKETS {
            assert_eq!(RafikiTuner::policy_bucket(RafikiTuner::policy_rr(b)), b);
        }
    }

    #[test]
    fn a_new_model_drops_the_policy() {
        // A tuner small enough to fit twice: 2 x 2 short measurements,
        // two tiny networks, a 4 x 8 GA.
        let keys = 2_000;
        let ctx = EvalContext {
            bench: rafiki_workload::BenchmarkSpec {
                duration_secs: 0.3,
                warmup_secs: 0.1,
                clients: 8,
                sample_window_secs: 0.1,
            },
            workload: rafiki_workload::WorkloadSpec {
                initial_keys: keys,
                ..rafiki_workload::WorkloadSpec::with_read_ratio(0.5)
            },
            preload_keys: keys,
            ..EvalContext::small()
        };
        let mut cfg = TunerConfig::fast();
        cfg.collection.configurations = 2;
        cfg.collection.read_ratios = vec![0.0, 1.0];
        cfg.surrogate.ensemble_size = 2;
        cfg.surrogate.train.max_epochs = 5;
        cfg.ga.population = 8;
        cfg.ga.generations = 4;
        let mut tuner = RafikiTuner::new(ctx, cfg);
        tuner.fit().expect("fit succeeds");
        let first = tuner.policy().expect("fitted").to_vec();
        assert_eq!(first, sequential_policy(&tuner));

        // A second fit — here with other initial weights — replaces the
        // model, so the table searched over the old one must go.
        tuner.cfg.surrogate.seed = 99;
        tuner.fit().expect("fit succeeds");
        assert!(tuner.policy.get().is_none(), "fit keeps a stale policy");
        let second = tuner.policy().expect("fitted").to_vec();
        assert_eq!(second, sequential_policy(&tuner));
        assert_ne!(first, second, "the refit changed nothing; test is vacuous");

        // So does installing a model trained elsewhere.
        let (other, _) = fitted_fixture();
        tuner.install(
            other.space().expect("fitted").clone(),
            other.surrogate().expect("fitted").clone(),
            other.dataset().expect("fitted").clone(),
        );
        assert!(tuner.policy.get().is_none(), "install keeps a stale policy");
        let third = tuner.policy().expect("fitted").to_vec();
        assert_eq!(third, sequential_policy(&tuner));
        assert_ne!(second, third);
    }

    #[test]
    fn every_strategy_yields_a_valid_engine_config() {
        // All four strategies, searched over the full widened catalog:
        // whatever genome wins must quantize into an EngineConfig that
        // passes validation (the latent decoder in particular must not
        // smuggle out-of-range values past repair).
        let (tuner, _) = fitted_fixture();
        let wide = crate::search_space::ConfigSearchSpace::new(
            rafiki_engine::param_catalog(),
            EngineConfig::default(),
        );
        let installed = tuner.space().unwrap().clone();
        // The surrogate was trained on the fast 5-param space; for this
        // validity test we only need *some* deterministic objective, so
        // score wide genomes by their distance to the default genome.
        let default_genome = wide.default_genome();
        let score = |g: &[f64]| -> f64 {
            -g.iter()
                .zip(&default_genome)
                .map(|(a, b)| ((a - b) / (1.0 + b.abs())).powi(2))
                .sum::<f64>()
        };
        drop(installed);
        let ga_space = wide.to_ga_space();
        let ga_cfg = GaConfig {
            population: 12,
            generations: 4,
            seed: 5,
            ..GaConfig::default()
        };
        let mut strategies: Vec<Box<dyn rafiki_search::SearchStrategy>> = vec![
            Box::new(rafiki_search::GaSearch::new(ga_space.clone(), ga_cfg)),
            Box::new(rafiki_search::BestConfigSearch::new(
                ga_space.clone(),
                rafiki_search::BestConfigConfig {
                    samples_per_round: 12,
                    rounds: 5,
                    seed: 5,
                    ..rafiki_search::BestConfigConfig::default()
                },
            )),
            Box::new(rafiki_search::LatentSearch::new(
                ga_space.clone(),
                rafiki_search::LatentConfig {
                    design_samples: 16,
                    latent_dim: 4,
                    autoencoder_epochs: 30,
                    ga: ga_cfg,
                    seed: 5,
                },
            )),
            Box::new(rafiki_search::RandomSearch::new(ga_space, 60, 12, 5)),
        ];
        for strategy in &mut strategies {
            let out = rafiki_search::run_strategy(strategy.as_mut(), |pop| {
                pop.iter().map(|g| score(g)).collect()
            });
            let cfg = wide.config_from_genome(&out.best_genome);
            cfg.validate(); // panics on any out-of-range knob
            assert_eq!(wide.genome_of(&cfg), out.best_genome, "{}", out.strategy);
        }
    }
}
