//! Pluggable search strategies over a typed parameter space.
//!
//! The paper tunes with a single GA-over-surrogate loop (§3.7.2). At
//! high dimension — the engine's widened 12+-knob catalog — that is one
//! point in a family: BestConfig-style divide-and-diverge sampling and
//! LatentTune-style latent-space search attack the same problem with
//! very different structure. This crate makes "a search strategy" a
//! first-class value so they can be compared on identical seeds and
//! budgets:
//!
//! - [`SearchStrategy`] — the propose/observe contract. A strategy emits
//!   *batches* of genomes (so a surrogate scores a whole generation with
//!   one [`rafiki_neural::Surrogate::predict_batch`]-style matrix pass),
//!   receives raw fitness values back, and is deterministic for a fixed
//!   seed.
//! - [`GaSearch`] — the paper's GA ([`rafiki_ga::GaStepper`]) as a
//!   strategy, and the tuner's default search; its trajectory is pinned
//!   by test.
//! - [`BestConfigSearch`] — divide-and-diverge: Latin-hypercube rounds
//!   that recursively bound the space around the incumbent on
//!   improvement and diverge back to the full space when stuck.
//! - [`LatentSearch`] — train a small [`rafiki_neural::Autoencoder`]
//!   over a sampled design, run the GA in its latent box, decode with
//!   bounds clamping.
//! - [`RandomSearch`] — uniform sampling, the floor every strategy must
//!   clear.
//!
//! Genomes are plain `Vec<f64>` over a [`rafiki_ga::SearchSpace`] — the
//! same typed space the engine's parameter catalog maps onto — so any
//! strategy plugs into the tuner unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bestconfig;
mod ga;
mod latent;
mod random;

pub use bestconfig::{BestConfigConfig, BestConfigSearch};
pub use ga::GaSearch;
pub use latent::{LatentConfig, LatentSearch};
pub use random::RandomSearch;

pub use rafiki_ga::{GaConfig, GeneSpec, SearchSpace};

/// The best genome a strategy has seen so far, with its raw fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchBest {
    /// The genome (feasible — strategies repair before reporting).
    pub genome: Vec<f64>,
    /// Raw fitness the evaluator returned for it.
    pub fitness: f64,
}

impl SearchBest {
    fn improve(slot: &mut Option<SearchBest>, genome: &[f64], fitness: f64) {
        let better = match slot {
            Some(b) => fitness > b.fitness,
            None => true,
        };
        if better && fitness.is_finite() {
            *slot = Some(SearchBest {
                genome: genome.to_vec(),
                fitness,
            });
        }
    }
}

/// A batch-first, deterministic black-box maximization strategy.
///
/// The loop contract:
///
/// 1. [`SearchStrategy::propose`] returns the genomes awaiting fitness —
///    an empty batch means the strategy is finished;
/// 2. the caller scores the batch (surrogate, real engine, anything) and
///    feeds one raw value per genome, in order, to
///    [`SearchStrategy::observe`];
/// 3. repeat until [`SearchStrategy::is_done`].
///
/// Determinism: a strategy seeded identically and fed identical
/// observation sequences must emit identical proposal sequences. All
/// randomness comes from seeded RNGs; nothing may depend on wall clock,
/// addresses, or iteration order of unordered containers.
pub trait SearchStrategy {
    /// Short stable identifier (used in records and tables).
    fn name(&self) -> &'static str;

    /// The batch of genomes currently awaiting fitness. Empty once done.
    fn propose(&mut self) -> Vec<Vec<f64>>;

    /// Feeds back one raw fitness per genome of the last
    /// [`SearchStrategy::propose`] batch, in order.
    ///
    /// # Panics
    ///
    /// Implementations panic on a length mismatch or when called after
    /// completion.
    fn observe(&mut self, raw: &[f64]);

    /// Whether the strategy has exhausted its budget.
    fn is_done(&self) -> bool;

    /// Fitness evaluations consumed so far.
    fn evaluations(&self) -> usize;

    /// Best (feasible genome, raw fitness) seen so far.
    fn best(&self) -> Option<SearchBest>;
}

/// Outcome of driving a strategy to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// [`SearchStrategy::name`] of the strategy that produced this.
    pub strategy: &'static str,
    /// Best genome found (feasible).
    pub best_genome: Vec<f64>,
    /// Raw fitness of the best genome.
    pub best_fitness: f64,
    /// Total fitness evaluations consumed.
    pub evaluations: usize,
    /// Number of propose/observe round trips.
    pub batches: usize,
}

/// Drives a strategy to completion against a batch evaluator and
/// returns its outcome. This is the whole orchestration loop — the
/// bake-off harness, the tuner, and the tests all go through it.
///
/// # Panics
///
/// Panics when the strategy finishes without having seen a single
/// finite-fitness genome (nothing to report as best).
pub fn run_strategy<S, F>(strategy: &mut S, mut fitness: F) -> SearchOutcome
where
    S: SearchStrategy + ?Sized,
    F: FnMut(&[Vec<f64>]) -> Vec<f64>,
{
    let mut batches = 0usize;
    while !strategy.is_done() {
        let batch = strategy.propose();
        if batch.is_empty() {
            break;
        }
        let raw = fitness(&batch);
        strategy.observe(&raw);
        batches += 1;
    }
    let best = strategy
        .best()
        .expect("strategy finished without a best genome");
    SearchOutcome {
        strategy: strategy.name(),
        best_genome: best.genome,
        best_fitness: best.fitness,
        evaluations: strategy.evaluations(),
        batches,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::SearchSpace;
    use rafiki_ga::GeneSpec;

    /// A 14-gene space shaped like the widened engine catalog: one
    /// categorical method, pool sizes, cache MB, thresholds — enough
    /// type mix to exercise repair on every strategy.
    pub fn wide_space() -> SearchSpace {
        SearchSpace::new(vec![
            GeneSpec::Categorical { options: 2 },
            GeneSpec::Int { min: 8, max: 128 },
            GeneSpec::Int { min: 16, max: 64 },
            GeneSpec::Int { min: 32, max: 512 },
            GeneSpec::Categorical { options: 3 },
            GeneSpec::Real {
                min: 0.10,
                max: 0.90,
            },
            GeneSpec::Int { min: 64, max: 512 },
            GeneSpec::Int { min: 1, max: 16 },
            GeneSpec::Int {
                min: 1_000,
                max: 20_000,
            },
            GeneSpec::Real {
                min: 0.001,
                max: 0.2,
            },
            GeneSpec::Int { min: 16, max: 256 },
            GeneSpec::Int { min: 2, max: 8 },
            GeneSpec::Int { min: 2, max: 32 },
            GeneSpec::Int { min: 4, max: 16 },
        ])
    }

    /// Smooth multimodal objective over the wide space, maximized at a
    /// known interior point; deterministic and cheap.
    pub fn objective(g: &[f64]) -> f64 {
        let mut s = 0.0;
        for (i, &v) in g.iter().enumerate() {
            let t = (i as f64 + 1.0) * 0.37;
            s -= ((v - t * 10.0) / (10.0 * (i as f64 + 1.0))).powi(2);
        }
        s
    }

    pub fn batch_objective(pop: &[Vec<f64>]) -> Vec<f64> {
        pop.iter().map(|g| objective(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{batch_objective, wide_space};
    use super::*;

    fn all_strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
        let space = wide_space();
        let ga_cfg = GaConfig {
            population: 16,
            generations: 8,
            seed,
            ..GaConfig::default()
        };
        vec![
            Box::new(GaSearch::new(space.clone(), ga_cfg)),
            Box::new(BestConfigSearch::new(
                space.clone(),
                BestConfigConfig {
                    samples_per_round: 16,
                    rounds: 9,
                    seed,
                    ..BestConfigConfig::default()
                },
            )),
            Box::new(LatentSearch::new(
                space.clone(),
                LatentConfig {
                    design_samples: 32,
                    latent_dim: 4,
                    autoencoder_epochs: 40,
                    ga: GaConfig {
                        population: 16,
                        generations: 6,
                        seed,
                        ..GaConfig::default()
                    },
                    seed,
                },
            )),
            Box::new(RandomSearch::new(space, 144, 16, seed)),
        ]
    }

    #[test]
    fn every_strategy_completes_and_reports_a_feasible_best() {
        let space = wide_space();
        for mut s in all_strategies(7) {
            let out = run_strategy(s.as_mut(), batch_objective);
            assert!(out.evaluations > 0, "{} did no work", out.strategy);
            assert!(out.batches > 0);
            assert!(
                space.is_feasible(&out.best_genome),
                "{} best infeasible: {:?}",
                out.strategy,
                out.best_genome
            );
            assert!(out.best_fitness.is_finite());
        }
    }

    #[test]
    fn same_seed_same_observations_identical_proposals() {
        // The determinism contract, checked for all four strategies: two
        // instances with the same seed fed the same observation sequence
        // must produce identical proposal sequences end to end.
        for (a, b) in all_strategies(42).into_iter().zip(all_strategies(42)) {
            let (mut a, mut b) = (a, b);
            let mut rounds = 0usize;
            while !a.is_done() || !b.is_done() {
                assert_eq!(a.is_done(), b.is_done(), "{} desynced", a.name());
                let (pa, pb) = (a.propose(), b.propose());
                assert_eq!(pa, pb, "{} proposals diverged at round {rounds}", a.name());
                if pa.is_empty() {
                    break;
                }
                let raw = batch_objective(&pa);
                a.observe(&raw);
                b.observe(&raw);
                rounds += 1;
            }
            assert_eq!(a.evaluations(), b.evaluations());
            assert_eq!(a.best(), b.best(), "{} bests diverged", a.name());
            assert!(rounds > 0);
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        for (a, b) in all_strategies(1).into_iter().zip(all_strategies(2)) {
            let (mut a, mut b) = (a, b);
            let (pa, pb) = (a.propose(), b.propose());
            assert_ne!(pa, pb, "{} ignored its seed", a.name());
        }
    }

    /// A 5-gene real box, the domain of [`sphere`].
    fn box5() -> SearchSpace {
        SearchSpace::new(vec![
            GeneSpec::Real {
                min: -5.0,
                max: 5.0
            };
            5
        ])
    }

    /// A sphere maximized at `(2, …, 2)`.
    fn sphere(pop: &[Vec<f64>]) -> Vec<f64> {
        pop.iter()
            .map(|g| -g.iter().map(|x| (x - 2.0) * (x - 2.0)).sum::<f64>())
            .collect()
    }

    #[test]
    fn ga_beats_random_search_at_equal_budget() {
        // On a smooth landscape the GA should out-optimize random sampling
        // given the same evaluation budget.
        let space = box5();
        let cfg = GaConfig {
            population: 30,
            generations: 30,
            seed: 9,
            ..GaConfig::default()
        };
        let ga = run_strategy(&mut GaSearch::new(space.clone(), cfg), sphere);
        let rnd = run_strategy(&mut RandomSearch::new(space, ga.evaluations, 30, 9), sphere);
        assert_eq!(rnd.evaluations, ga.evaluations);
        assert!(
            ga.best_fitness > rnd.best_fitness,
            "ga {} vs random {}",
            ga.best_fitness,
            rnd.best_fitness
        );
    }

    #[test]
    fn random_search_improves_with_budget() {
        // Same seed and batch size: the large run's samples extend the
        // small run's, so its best can only be at least as good.
        let small = run_strategy(&mut RandomSearch::new(box5(), 10, 10, 5), sphere);
        let large = run_strategy(&mut RandomSearch::new(box5(), 1_000, 10, 5), sphere);
        assert!(large.best_fitness >= small.best_fitness);
    }

    #[test]
    fn run_strategy_counts_match_strategy_accounting() {
        let mut total = 0usize;
        let space = wide_space();
        let mut s = RandomSearch::new(space, 50, 16, 3);
        let out = run_strategy(&mut s, |pop| {
            total += pop.len();
            batch_objective(pop)
        });
        assert_eq!(out.evaluations, total);
        assert_eq!(out.evaluations, 50);
        // ceil(50 / 16) batches.
        assert_eq!(out.batches, 4);
    }
}
