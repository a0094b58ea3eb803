//! Genetic-algorithm configuration search for the Rafiki reproduction.
//!
//! §3.7.2 of the paper: the GA's fitness is the surrogate model with the
//! workload fixed; crossover interpolates between parents ("a
//! random-weighted average between two points in the population", which
//! enforces interpolation rather than extrapolation); integer and bound
//! constraints are handled by Deb's feasibility rule (Deb, 2000): any
//! feasible genome outranks any infeasible one, and infeasible genomes
//! rank by violation alone. The search uses ~3,350 surrogate calls per
//! workload.
//!
//! [`GaStepper`] is the whole GA, as a propose/observe state machine: it
//! hands out one generation at a time, so the caller can score it with a
//! single population-batched surrogate pass.
//!
//! # Example
//!
//! ```
//! use rafiki_ga::{GaConfig, GaStepper, GeneSpec, SearchSpace};
//!
//! // Maximize a concave function of one integer and one real gene.
//! let space = SearchSpace::new(vec![
//!     GeneSpec::Int { min: 0, max: 10 },
//!     GeneSpec::Real { min: -1.0, max: 1.0 },
//! ]);
//! let cfg = GaConfig { population: 30, generations: 40, ..GaConfig::default() };
//! let mut ga = GaStepper::new(space, cfg);
//! while !ga.is_done() {
//!     let fitness: Vec<f64> = ga
//!         .propose()
//!         .iter()
//!         .map(|g| -((g[0] - 7.0).powi(2)) - (g[1] - 0.25).powi(2))
//!         .collect();
//!     ga.observe(&fitness);
//! }
//! let result = ga.into_result();
//! assert_eq!(result.best_genome[0], 7.0);
//! assert!((result.best_genome[1] - 0.25).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod space;

pub use space::{GeneSpec, SearchSpace};

use rafiki_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters for the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability that a child is produced by crossover (otherwise it is
    /// a mutated copy of one parent).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Mutation step as a fraction of each gene's range.
    pub mutation_scale: f64,
    /// Number of elite genomes copied unchanged into the next generation.
    pub elitism: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 50,
            generations: 66, // ~3,350 evaluations, matching §4.8
            crossover_rate: 0.8,
            mutation_rate: 0.15,
            mutation_scale: 0.2,
            elitism: 2,
            tournament: 3,
            seed: 0,
        }
    }
}

/// Total-order fitness comparison for ranking: ordinary values compare by
/// [`f64::total_cmp`] and NaN sinks below everything (including
/// `-inf`) instead of panicking mid-search.
fn cmp_fitness(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// Outcome of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// The best feasible genome found (repaired onto the constraint set).
    pub best_genome: Vec<f64>,
    /// Fitness of [`GaResult::best_genome`].
    pub best_fitness: f64,
    /// Number of fitness-function evaluations performed.
    pub evaluations: usize,
    /// Best fitness after each generation (monotone thanks to elitism).
    pub history: Vec<f64>,
}

/// Where a [`GaStepper`] is in its propose/observe loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepPhase {
    /// A full population batch is pending evaluation.
    Scoring,
    /// The single repaired best genome is pending its final raw score.
    Final,
    /// The run is complete; [`GaStepper::into_result`] is available.
    Done,
}

/// The genetic algorithm as a resumable propose/observe state machine.
///
/// 1. [`GaStepper::propose`] returns the batch of genomes awaiting
///    fitness — a full generation, then a final single repaired genome;
/// 2. the caller scores the batch however it likes (one batched
///    surrogate pass, a latent-space decoder in front, …);
/// 3. [`GaStepper::observe`] accepts the raw fitness values and advances
///    the GA (rank, breed, or finish).
///
/// The fitness is always taken on raw (possibly infeasible) genomes;
/// Deb's rule ranks them on top of it, mirroring the paper's scheme where
/// infeasible configuration files score a penalized fitness. The
/// trajectory is a pure function of the space, the config and the
/// observed values, so a fixed seed reproduces it bit for bit.
#[derive(Debug, Clone)]
pub struct GaStepper {
    space: SearchSpace,
    cfg: GaConfig,
    rng: StdRng,
    /// The batch awaiting scores (a population, or `[repaired best]`).
    pending: Vec<Vec<f64>>,
    /// Generations ranked-and-bred so far.
    gen_index: usize,
    history: Vec<f64>,
    evaluations: usize,
    phase: StepPhase,
    result: Option<GaResult>,
}

impl GaStepper {
    /// Creates a stepper and samples the initial population (the first
    /// batch [`GaStepper::propose`] returns).
    ///
    /// # Panics
    ///
    /// Panics when population or generations are zero, the tournament
    /// size is zero or exceeds the population, or elitism is not below
    /// the population.
    pub fn new(space: SearchSpace, cfg: GaConfig) -> Self {
        assert!(cfg.population > 0, "population must be positive");
        assert!(cfg.generations > 0, "generations must be positive");
        assert!(
            cfg.tournament > 0 && cfg.tournament <= cfg.population,
            "tournament size must be in 1..=population"
        );
        assert!(
            cfg.elitism < cfg.population,
            "elitism must be below population"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Initial population: uniformly random feasible genomes.
        let pending: Vec<Vec<f64>> = (0..cfg.population)
            .map(|_| space.sample(&mut rng))
            .collect();
        GaStepper {
            space,
            cfg,
            rng,
            pending,
            gen_index: 0,
            history: Vec::with_capacity(cfg.generations),
            evaluations: 0,
            phase: StepPhase::Scoring,
            result: None,
        }
    }

    /// The batch of genomes currently awaiting fitness values. Empty once
    /// the run is done.
    pub fn propose(&self) -> Vec<Vec<f64>> {
        match self.phase {
            StepPhase::Scoring | StepPhase::Final => self.pending.clone(),
            StepPhase::Done => Vec::new(),
        }
    }

    /// Feeds back one raw fitness per genome of the last
    /// [`GaStepper::propose`] batch, in order, and advances the GA.
    ///
    /// # Panics
    ///
    /// Panics when `raw` has the wrong length or the run is already done.
    pub fn observe(&mut self, raw: &[f64]) {
        assert_eq!(
            raw.len(),
            self.pending.len(),
            "batch evaluator length mismatch"
        );
        match self.phase {
            StepPhase::Scoring => {
                self.evaluations += self.pending.len();
                let scores = deb_scores(&self.space, &self.pending, raw);
                if self.gen_index < self.cfg.generations {
                    self.rank_and_breed(scores);
                    self.gen_index += 1;
                } else {
                    self.finalize(scores);
                }
            }
            StepPhase::Final => {
                let best_fitness = raw[0];
                self.history.push(best_fitness);
                if obs::enabled(obs::Level::Debug) {
                    obs::event(
                        "ga",
                        "search_done",
                        obs::Level::Debug,
                        vec![
                            ("generations", obs::Value::U64(self.cfg.generations as u64)),
                            ("evaluations", obs::Value::U64(self.evaluations as u64)),
                            ("best_fitness", obs::Value::F64(best_fitness)),
                        ],
                    );
                }
                self.result = Some(GaResult {
                    best_genome: self.pending.pop().expect("final batch has one genome"),
                    best_fitness,
                    evaluations: self.evaluations,
                    history: std::mem::take(&mut self.history),
                });
                self.pending.clear();
                self.phase = StepPhase::Done;
            }
            StepPhase::Done => panic!("observe called on a finished GaStepper"),
        }
    }

    /// Ranks the scored population and breeds the next generation into
    /// `pending`.
    fn rank_and_breed(&mut self, scores: Vec<f64>) {
        let cfg = self.cfg;
        let population = &self.pending;
        // Rank current population (descending score, NaN last).
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| cmp_fitness(scores[b], scores[a]));
        self.history.push(scores[order[0]]);
        // Emitted between RNG draws, so instrumentation cannot perturb
        // the deterministic trajectory.
        if obs::enabled(obs::Level::Trace) {
            obs::event(
                "ga",
                "generation",
                obs::Level::Trace,
                vec![
                    ("gen", obs::Value::U64(self.gen_index as u64)),
                    ("best_so_far", obs::Value::F64(scores[order[0]])),
                    ("evaluations", obs::Value::U64(self.evaluations as u64)),
                ],
            );
        }

        let rng = &mut self.rng;
        let mut next: Vec<Vec<f64>> = Vec::with_capacity(cfg.population);
        // Elites survive unchanged.
        for &i in order.iter().take(cfg.elitism) {
            next.push(population[i].clone());
        }
        while next.len() < cfg.population {
            let a = tournament_select(&scores, cfg.tournament, rng);
            let child = if rng.gen_bool(cfg.crossover_rate) {
                let b = tournament_select(&scores, cfg.tournament, rng);
                crossover(&population[a], &population[b], rng)
            } else {
                population[a].clone()
            };
            next.push(mutate(&self.space, &cfg, child, rng));
        }
        self.pending = next;
    }

    /// Picks the best of the final generation, repairs it onto the
    /// feasible set, and stages it as the last single-genome batch.
    fn finalize(&mut self, scores: Vec<f64>) {
        let (best_idx, _) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| cmp_fitness(*a.1, *b.1))
            .expect("non-empty population");
        let best_genome = self.space.repair(&self.pending[best_idx]);
        self.evaluations += 1;
        self.pending = vec![best_genome];
        self.phase = StepPhase::Final;
    }

    /// Whether the run has finished (no further batches to score).
    pub fn is_done(&self) -> bool {
        self.phase == StepPhase::Done
    }

    /// Fitness evaluations charged so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The finished result.
    ///
    /// # Panics
    ///
    /// Panics when the run is not done yet.
    pub fn into_result(self) -> GaResult {
        self.result.expect("GaStepper still has batches to score")
    }
}

/// Deb's feasibility rule over one generation's raw fitness values:
/// feasible genomes keep their raw value; infeasible ones are anchored
/// strictly below the generation's worst finite feasible fitness and
/// ranked by violation alone. With no finite feasible genome this
/// generation, infeasible ones rank below zero by violation.
fn deb_scores(space: &SearchSpace, population: &[Vec<f64>], raw: &[f64]) -> Vec<f64> {
    let viols: Vec<f64> = population.iter().map(|g| space.violation(g)).collect();
    let worst_feasible = raw
        .iter()
        .zip(&viols)
        .filter(|(r, &v)| v == 0.0 && r.is_finite())
        .map(|(&r, _)| r)
        .fold(f64::INFINITY, f64::min);
    let anchor = if worst_feasible.is_finite() {
        worst_feasible
    } else {
        0.0
    };
    raw.iter()
        .zip(&viols)
        .map(|(&r, &v)| if v > 0.0 { anchor - v } else { r })
        .collect()
}

fn tournament_select(scores: &[f64], size: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..size {
        let c = rng.gen_range(0..scores.len());
        if cmp_fitness(scores[c], scores[best]) == std::cmp::Ordering::Greater {
            best = c;
        }
    }
    best
}

/// `child_i = r_i * a_i + (1 - r_i) * b_i` with `r_i ~ U(0,1)`: a
/// random-weighted average that interpolates within the population's
/// bounding box, as §3.7.2 describes.
fn crossover(a: &[f64], b: &[f64], rng: &mut StdRng) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let r: f64 = rng.gen_range(0.0..1.0);
            r * x + (1.0 - r) * y
        })
        .collect()
}

fn mutate(space: &SearchSpace, cfg: &GaConfig, mut genome: Vec<f64>, rng: &mut StdRng) -> Vec<f64> {
    for (g, spec) in genome.iter_mut().zip(space.genes()) {
        if rng.gen_bool(cfg.mutation_rate) {
            match *spec {
                GeneSpec::Categorical { .. } => {
                    // Resample categorical genes: a Gaussian nudge makes
                    // no sense for unordered options.
                    *g = spec.sample(rng);
                }
                GeneSpec::Int { .. } => {
                    // Feasibility-preserving integer mutation (the
                    // standard companion to Deb's rule): nudge, then
                    // round, so mutation keeps introducing new *integer*
                    // values instead of leaving integrality reachable
                    // only through the initial samples.
                    let range = (spec.hi() - spec.lo()).max(1e-12);
                    let step = cfg.mutation_scale * range;
                    let noise: f64 = rng.gen_range(-0.5..0.5) + rng.gen_range(-0.5..0.5);
                    *g = (*g + noise * step).round().clamp(spec.lo(), spec.hi());
                }
                GeneSpec::Real { .. } => {
                    let range = (spec.hi() - spec.lo()).max(1e-12);
                    let step = cfg.mutation_scale * range;
                    // Triangular noise around 0 (sum of two uniforms).
                    let noise: f64 = rng.gen_range(-0.5..0.5) + rng.gen_range(-0.5..0.5);
                    *g = (*g + noise * step).clamp(spec.lo(), spec.hi());
                }
            }
        }
    }
    genome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a stepper to completion, scoring one genome at a time.
    fn run(space: SearchSpace, cfg: GaConfig, mut fitness: impl FnMut(&[f64]) -> f64) -> GaResult {
        let mut ga = GaStepper::new(space, cfg);
        while !ga.is_done() {
            let raw: Vec<f64> = ga.propose().iter().map(|g| fitness(g)).collect();
            ga.observe(&raw);
        }
        ga.into_result()
    }

    fn unit_space(dims: usize) -> SearchSpace {
        SearchSpace::new(
            (0..dims)
                .map(|_| GeneSpec::Real {
                    min: -5.0,
                    max: 5.0,
                })
                .collect(),
        )
    }

    #[test]
    fn maximizes_a_sphere() {
        let space = unit_space(3);
        let cfg = GaConfig {
            population: 40,
            generations: 60,
            ..GaConfig::default()
        };
        let r = run(space, cfg, |g| {
            -g.iter().map(|x| (x - 1.5) * (x - 1.5)).sum::<f64>()
        });
        for &v in &r.best_genome {
            assert!((v - 1.5).abs() < 0.2, "{:?}", r.best_genome);
        }
    }

    #[test]
    fn escapes_local_maxima_of_multimodal_function() {
        // Rastrigin-like landscape flipped for maximization; global max at 0.
        let space = unit_space(2);
        let cfg = GaConfig {
            population: 60,
            generations: 80,
            mutation_rate: 0.3,
            seed: 3,
            ..GaConfig::default()
        };
        let r = run(space, cfg, |g| {
            -g.iter()
                .map(|&x| x * x - 10.0 * (2.0 * std::f64::consts::PI * x).cos() + 10.0)
                .sum::<f64>()
        });
        assert!(r.best_fitness > -2.0, "fitness {}", r.best_fitness);
    }

    #[test]
    fn respects_integer_constraints() {
        let space = SearchSpace::new(vec![
            GeneSpec::Int { min: 0, max: 100 },
            GeneSpec::Real { min: 0.0, max: 1.0 },
        ]);
        let r = run(space.clone(), GaConfig::default(), |g| {
            -(g[0] - 42.3).abs() - (g[1] - 0.5).abs()
        });
        assert!(space.is_feasible(&r.best_genome));
        // The best integer for |x - 42.3| is 42.
        assert_eq!(r.best_genome[0], 42.0);
    }

    #[test]
    fn categorical_gene_is_searched() {
        let space = SearchSpace::new(vec![GeneSpec::Categorical { options: 5 }]);
        let cfg = GaConfig {
            population: 20,
            generations: 10,
            ..GaConfig::default()
        };
        let r = run(space, cfg, |g| {
            if g[0].round() as usize == 3 {
                10.0
            } else {
                0.0
            }
        });
        assert_eq!(r.best_genome[0], 3.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = unit_space(4);
        let cfg = GaConfig {
            seed: 77,
            generations: 20,
            ..GaConfig::default()
        };
        let f = |g: &[f64]| -g.iter().map(|x| x * x).sum::<f64>();
        let r1 = run(space.clone(), cfg, f);
        let r2 = run(space, cfg, f);
        assert_eq!(r1.best_genome, r2.best_genome);
        assert_eq!(r1.evaluations, r2.evaluations);
    }

    #[test]
    fn evaluation_count_is_reported() {
        let space = unit_space(2);
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            ..GaConfig::default()
        };
        let mut calls = 0usize;
        let r = run(space, cfg, |_| {
            calls += 1;
            0.0
        });
        assert_eq!(r.evaluations, calls);
        // init pop + 5 generations of re-scores + final repair score
        assert_eq!(calls, 10 + 5 * 10 + 1);
    }

    #[test]
    fn default_budget_matches_paper_scale() {
        // §4.8: ~3,350 surrogate evaluations on average per workload.
        let cfg = GaConfig::default();
        let evals = cfg.population * (cfg.generations + 1) + 1;
        assert!((3_000..3_700).contains(&evals), "evals = {evals}");
    }

    #[test]
    fn batch_evaluator_sees_whole_generations() {
        let cfg = GaConfig {
            population: 8,
            generations: 4,
            ..GaConfig::default()
        };
        let mut ga = GaStepper::new(unit_space(2), cfg);
        let mut batch_sizes = Vec::new();
        while !ga.is_done() {
            let pop = ga.propose();
            batch_sizes.push(pop.len());
            ga.observe(&pop.iter().map(|g| -g[0].abs()).collect::<Vec<_>>());
        }
        // init pop + 4 generations of full batches + final 1-genome batch.
        assert_eq!(batch_sizes, vec![8, 8, 8, 8, 8, 1]);
        assert_eq!(ga.into_result().evaluations, 8 + 4 * 8 + 1);
    }

    #[test]
    fn nan_fitness_sinks_instead_of_panicking() {
        let space = unit_space(2);
        let cfg = GaConfig {
            population: 16,
            generations: 8,
            seed: 4,
            ..GaConfig::default()
        };
        let r = run(
            space,
            cfg,
            |g| if g[0] > 0.0 { f64::NAN } else { -g[1].abs() },
        );
        // The search must complete with full history; NaN genomes rank
        // below every numeric score, so the tracked best is numeric
        // whenever any genome in the generation scored one.
        assert_eq!(r.history.len(), 8 + 1);
        if !r.best_fitness.is_nan() {
            assert!(r.best_genome[0] <= 0.0);
        }
    }

    #[test]
    fn deb_rule_prefers_feasible_on_negative_objectives() {
        // Crossover produces fractional (infeasible) values for an Int
        // gene. With a large negative objective a multiplicative penalty
        // could leave infeasible genomes on top; Deb's rule must not.
        let space = SearchSpace::new(vec![GeneSpec::Int { min: 0, max: 20 }]);
        let cfg = GaConfig {
            population: 30,
            generations: 30,
            seed: 2,
            ..GaConfig::default()
        };
        let r = run(space.clone(), cfg, |g| -1_000.0 - (g[0] - 7.0).abs());
        assert!(space.is_feasible(&r.best_genome), "{:?}", r.best_genome);
        assert!(
            (r.best_genome[0] - 7.0).abs() <= 2.0,
            "best genome {:?}",
            r.best_genome
        );
    }

    #[test]
    fn history_is_monotone_with_elitism() {
        let cfg = GaConfig {
            generations: 30,
            ..GaConfig::default()
        };
        let r = run(unit_space(3), cfg, |g| {
            -g.iter().map(|x| x.abs()).sum::<f64>()
        });
        for w in r.history.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "history regressed: {w:?}");
        }
    }
}
