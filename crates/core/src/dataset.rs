//! Data collection for surrogate training (§3.5, §4.2).
//!
//! The paper benchmarks 20 sampled configurations x 11 workloads
//! (RR = 0%, 10%, …, 100%) for 220 points. Configurations are sampled so
//! that every key parameter's minimum, maximum, and default each occur at
//! least once, with the rest drawn uniformly at random — "but not in a
//! fully combinatorial way".

use crate::dba::PerformanceMetric;
use crate::evaluator::EvalContext;
use crate::search_space::ConfigSearchSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One benchmark sample `S_i = {W_i, C_i, P_i}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSample {
    /// Workload read ratio.
    pub read_ratio: f64,
    /// Index of the configuration in the sampled set.
    pub config_index: usize,
    /// Genome of the configuration over the key parameters.
    pub genome: Vec<f64>,
    /// Measured performance score. Mean throughput (ops/s) under the
    /// default metric; negated latency when the DBA tunes for latency
    /// (larger is always better).
    pub throughput: f64,
}

/// A collected dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfDataset {
    /// All samples.
    pub samples: Vec<PerfSample>,
}

impl PerfDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Converts into the neural crate's dataset: features
    /// `[read_ratio, p1..pJ]`, target = throughput.
    pub fn to_training_data(&self) -> rafiki_neural::Dataset {
        let rows: Vec<Vec<f64>> = self
            .samples
            .iter()
            .map(|s| {
                let mut row = Vec::with_capacity(1 + s.genome.len());
                row.push(s.read_ratio);
                row.extend_from_slice(&s.genome);
                row
            })
            .collect();
        let targets: Vec<f64> = self.samples.iter().map(|s| s.throughput).collect();
        rafiki_neural::Dataset::from_rows(&rows, targets)
    }

    /// The best sample for a given read ratio (within `tol`).
    pub fn best_for(&self, read_ratio: f64, tol: f64) -> Option<&PerfSample> {
        self.samples
            .iter()
            .filter(|s| (s.read_ratio - read_ratio).abs() <= tol)
            .max_by(|a, b| {
                a.throughput
                    .partial_cmp(&b.throughput)
                    .expect("finite throughput")
            })
    }

    /// The sample measured with the default configuration (config 0) for a
    /// given read ratio.
    pub fn default_for(&self, read_ratio: f64, tol: f64) -> Option<&PerfSample> {
        self.samples
            .iter()
            .find(|s| s.config_index == 0 && (s.read_ratio - read_ratio).abs() <= tol)
    }
}

/// Plan for a data-collection run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionPlan {
    /// Number of sampled configurations (the paper uses 20; index 0 is
    /// always the default configuration).
    pub configurations: usize,
    /// Workload read ratios (the paper uses 0.0..=1.0 in 0.1 steps).
    pub read_ratios: Vec<f64>,
    /// RNG seed for configuration sampling.
    pub seed: u64,
    /// The performance objective the DBA selected (§3.8).
    pub metric: PerformanceMetric,
}

impl Default for CollectionPlan {
    fn default() -> Self {
        CollectionPlan {
            configurations: 20,
            read_ratios: (0..=10).map(|i| i as f64 / 10.0).collect(),
            seed: 17,
            metric: PerformanceMetric::Throughput,
        }
    }
}

impl CollectionPlan {
    /// Samples the configuration genomes: the default first, then per-key
    /// extreme probes (min and max of each parameter on an otherwise
    /// default genome), then uniform random genomes.
    pub fn sample_genomes(&self, space: &ConfigSearchSpace) -> Vec<Vec<f64>> {
        assert!(self.configurations >= 1, "need at least one configuration");
        let ga_space = space.to_ga_space();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut genomes = vec![space.default_genome()];
        // Min/max coverage per parameter (§3.5: "for each parameter, the
        // minimum and maximum value occurs at least once in the set").
        'outer: for (i, gene) in ga_space.genes().iter().enumerate() {
            for extreme in [gene.lo(), gene.hi()] {
                if genomes.len() >= self.configurations {
                    break 'outer;
                }
                let mut g = space.default_genome();
                g[i] = extreme;
                if !genomes.contains(&g) {
                    genomes.push(g);
                }
            }
        }
        while genomes.len() < self.configurations {
            let g = ga_space.sample(&mut rng);
            if !genomes.contains(&g) {
                genomes.push(g);
            }
        }
        genomes.truncate(self.configurations);
        genomes
    }

    /// Executes the plan: benchmarks every (configuration, read-ratio)
    /// combination through the deterministic parallel grid runner
    /// ([`crate::grid`]) — each point gets an independent, index-derived
    /// workload seed — scoring with the plan's metric.
    pub fn collect(&self, ctx: &EvalContext, space: &ConfigSearchSpace) -> PerfDataset {
        let genomes = self.sample_genomes(space);
        let mut points = Vec::with_capacity(genomes.len() * self.read_ratios.len());
        let mut meta = Vec::with_capacity(points.capacity());
        for (ci, genome) in genomes.iter().enumerate() {
            let cfg = space.config_from_genome(genome);
            for &rr in &self.read_ratios {
                points.push((rr, cfg.clone()));
                meta.push((ci, rr, genome.clone()));
            }
        }
        let scores = ctx.run_grid_scored(self.metric, &points);
        let samples = meta
            .into_iter()
            .zip(scores)
            .map(
                |((config_index, read_ratio, genome), throughput)| PerfSample {
                    read_ratio,
                    config_index,
                    genome,
                    throughput,
                },
            )
            .collect();
        PerfDataset { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_engine::{param_catalog, EngineConfig, ParamId};

    fn space() -> ConfigSearchSpace {
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

    #[test]
    fn genome_sampling_covers_extremes_and_default() {
        let plan = CollectionPlan::default();
        let space = space();
        let genomes = plan.sample_genomes(&space);
        assert_eq!(genomes.len(), 20);
        assert_eq!(genomes[0], space.default_genome());
        let ga = space.to_ga_space();
        for (i, gene) in ga.genes().iter().enumerate() {
            assert!(
                genomes.iter().any(|g| g[i] == gene.lo()),
                "min of gene {i} never sampled"
            );
            assert!(
                genomes.iter().any(|g| g[i] == gene.hi()),
                "max of gene {i} never sampled"
            );
        }
        // All feasible.
        assert!(genomes.iter().all(|g| ga.is_feasible(g)));
    }

    #[test]
    fn sampling_is_deterministic() {
        let plan = CollectionPlan::default();
        assert_eq!(plan.sample_genomes(&space()), plan.sample_genomes(&space()));
    }

    #[test]
    fn tiny_collection_produces_full_grid() {
        let ctx = crate::EvalContext::small();
        let plan = CollectionPlan {
            configurations: 3,
            read_ratios: vec![0.0, 1.0],
            seed: 5,
            ..CollectionPlan::default()
        };
        let data = plan.collect(&ctx, &space());
        assert_eq!(data.len(), 6);
        assert!(data.samples.iter().all(|s| s.throughput > 0.0));
        // Conversion to training data keeps dimensions.
        let training = data.to_training_data();
        assert_eq!(training.len(), 6);
        assert_eq!(training.dims(), 6); // RR + 5 params
    }

    #[test]
    fn best_and_default_lookups() {
        let data = PerfDataset {
            samples: vec![
                PerfSample {
                    read_ratio: 0.5,
                    config_index: 0,
                    genome: vec![0.0],
                    throughput: 100.0,
                },
                PerfSample {
                    read_ratio: 0.5,
                    config_index: 1,
                    genome: vec![1.0],
                    throughput: 150.0,
                },
                PerfSample {
                    read_ratio: 0.9,
                    config_index: 0,
                    genome: vec![0.0],
                    throughput: 80.0,
                },
            ],
        };
        assert_eq!(data.best_for(0.5, 0.01).unwrap().throughput, 150.0);
        assert_eq!(data.default_for(0.5, 0.01).unwrap().throughput, 100.0);
        assert!(data.best_for(0.2, 0.01).is_none());
    }
}
