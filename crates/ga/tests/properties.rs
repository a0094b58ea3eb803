//! Property-based tests for the genetic algorithm.

use proptest::prelude::*;
use rafiki_ga::{GaConfig, GaResult, GaStepper, GeneSpec, SearchSpace};

/// Drives a stepper to completion, scoring one genome at a time.
fn run(space: SearchSpace, cfg: GaConfig, fitness: impl Fn(&[f64]) -> f64) -> GaResult {
    let mut ga = GaStepper::new(space, cfg);
    while !ga.is_done() {
        let raw: Vec<f64> = ga.propose().iter().map(|g| fitness(g)).collect();
        ga.observe(&raw);
    }
    ga.into_result()
}

fn arb_space() -> impl Strategy<Value = SearchSpace> {
    prop::collection::vec(
        prop_oneof![
            (1usize..6).prop_map(|options| GeneSpec::Categorical { options }),
            (-50i64..0, 1i64..50).prop_map(|(min, max)| GeneSpec::Int { min, max }),
            (-10.0f64..0.0, 0.1f64..10.0).prop_map(|(min, span)| GeneSpec::Real {
                min,
                max: min + span,
            }),
        ],
        1..5,
    )
    .prop_map(SearchSpace::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repair_is_idempotent_and_feasible(space in arb_space(), seed in 0u64..1_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Perturb a feasible genome far out of range.
        let mut genome = space.sample(&mut rng);
        for (g, _) in genome.iter_mut().zip(space.genes()) {
            *g = *g * 17.5 + 100.0;
        }
        let repaired = space.repair(&genome);
        prop_assert!(space.is_feasible(&repaired), "{repaired:?}");
        prop_assert_eq!(space.repair(&repaired), repaired.clone());
        prop_assert_eq!(space.violation(&repaired), 0.0);
    }

    #[test]
    fn sampled_genomes_have_zero_violation(space in arb_space(), seed in 0u64..1_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let g = space.sample(&mut rng);
            prop_assert_eq!(space.violation(&g), 0.0);
        }
    }

    #[test]
    fn ga_result_is_always_feasible(space in arb_space(), seed in 0u64..200) {
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            seed,
            ..GaConfig::default()
        };
        let result = run(space.clone(), cfg, |g| -g.iter().map(|x| x * x).sum::<f64>());
        prop_assert!(space.is_feasible(&result.best_genome), "{:?}", result.best_genome);
        prop_assert!(result.evaluations > 0);
    }

    #[test]
    fn ga_never_loses_to_its_own_population_history(seed in 0u64..100) {
        let space = SearchSpace::new(vec![
            GeneSpec::Real { min: -3.0, max: 3.0 },
            GeneSpec::Int { min: 0, max: 20 },
        ]);
        let cfg = GaConfig { population: 20, generations: 15, seed, ..GaConfig::default() };
        let result = run(space, cfg, |g| -(g[0] - 1.0).abs() - (g[1] - 7.0).abs());
        // Elitism: history is non-decreasing.
        for w in result.history.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
        prop_assert!(result.best_fitness >= *result.history.first().unwrap() - 1e-9);
    }

    #[test]
    fn nan_fitness_regions_never_panic(space in arb_space(), seed in 0u64..100) {
        let cfg = GaConfig {
            population: 8,
            generations: 4,
            seed,
            ..GaConfig::default()
        };
        let result = run(space.clone(), cfg, |g| if g[0] < 0.0 { f64::NAN } else { g[0] });
        prop_assert_eq!(result.history.len(), 5);
        prop_assert!(space.is_feasible(&result.best_genome));
    }

    #[test]
    fn deb_rule_top_rank_is_feasible_when_any_genome_is(space in arb_space(), seed in 0u64..100) {
        // Even with a strongly negative objective (where a multiplicative
        // penalty can invert the ranking), the returned best genome is
        // feasible under Deb's rule.
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            seed,
            ..GaConfig::default()
        };
        let result = run(space.clone(), cfg, |g| -1_000.0 - g.iter().map(|x| x.abs()).sum::<f64>());
        prop_assert!(space.is_feasible(&result.best_genome), "{:?}", result.best_genome);
    }
}
