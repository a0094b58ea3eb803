//! Mapping between engine configurations and GA genomes: the tuner's
//! search space is the subset of catalogued parameters that survived the
//! ANOVA screen.

use rafiki_engine::{EngineConfig, ParamDomain, ParamInfo};
use rafiki_ga::{GeneSpec, SearchSpace};

/// The configuration search space over a chosen set of key parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSearchSpace {
    params: Vec<ParamInfo>,
    base: EngineConfig,
}

impl ConfigSearchSpace {
    /// Builds a search space over `params`; all other parameters stay at
    /// the values in `base`.
    ///
    /// # Panics
    ///
    /// Panics when `params` is empty.
    pub fn new(params: Vec<ParamInfo>, base: EngineConfig) -> Self {
        assert!(!params.is_empty(), "search space needs parameters");
        ConfigSearchSpace { params, base }
    }

    /// The tuned parameters, in genome order.
    pub fn params(&self) -> &[ParamInfo] {
        &self.params
    }

    /// The base configuration (defaults for untuned parameters).
    pub fn base(&self) -> &EngineConfig {
        &self.base
    }

    /// Number of genes.
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// Converts to the GA's gene specification.
    pub fn to_ga_space(&self) -> SearchSpace {
        SearchSpace::new(
            self.params
                .iter()
                .map(|p| match p.domain {
                    ParamDomain::Categorical { options } => GeneSpec::Categorical {
                        options: options as usize,
                    },
                    ParamDomain::Int { min, max } => GeneSpec::Int { min, max },
                    ParamDomain::Real { min, max } => GeneSpec::Real { min, max },
                })
                .collect(),
        )
    }

    /// Instantiates an engine configuration from a genome.
    ///
    /// # Panics
    ///
    /// Panics on genome length mismatch.
    pub fn config_from_genome(&self, genome: &[f64]) -> EngineConfig {
        assert_eq!(genome.len(), self.params.len(), "genome length mismatch");
        let mut cfg = self.base.clone();
        for (p, &v) in self.params.iter().zip(genome) {
            cfg.set(p.id, v);
        }
        cfg
    }

    /// Extracts the genome of a configuration (inverse of
    /// [`ConfigSearchSpace::config_from_genome`]).
    pub fn genome_of(&self, cfg: &EngineConfig) -> Vec<f64> {
        self.params.iter().map(|p| cfg.get(p.id)).collect()
    }

    /// The default genome.
    pub fn default_genome(&self) -> Vec<f64> {
        self.params.iter().map(|p| p.default).collect()
    }

    /// Builds the surrogate feature row `[read_ratio, p1, …, pJ]` — the
    /// input layout of Equation (2) in the paper.
    pub fn feature_row(&self, read_ratio: f64, genome: &[f64]) -> Vec<f64> {
        let mut row = Vec::with_capacity(1 + genome.len());
        row.push(read_ratio);
        row.extend_from_slice(genome);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_engine::{param_catalog, ParamId};

    fn key_five() -> Vec<ParamInfo> {
        let want = [
            ParamId::CompactionMethod,
            ParamId::ConcurrentWrites,
            ParamId::FileCacheSizeMb,
            ParamId::MemtableCleanupThreshold,
            ParamId::ConcurrentCompactors,
        ];
        param_catalog()
            .into_iter()
            .filter(|p| want.contains(&p.id))
            .collect()
    }

    #[test]
    fn genome_roundtrip() {
        let space = ConfigSearchSpace::new(key_five(), EngineConfig::default());
        let genome = vec![1.0, 64.0, 128.0, 0.5, 4.0];
        let cfg = space.config_from_genome(&genome);
        assert_eq!(space.genome_of(&cfg), genome);
    }

    #[test]
    fn default_genome_matches_default_config() {
        let space = ConfigSearchSpace::new(key_five(), EngineConfig::default());
        assert_eq!(
            space.default_genome(),
            space.genome_of(&EngineConfig::default())
        );
    }

    #[test]
    fn untuned_parameters_keep_base_values() {
        let base = EngineConfig {
            concurrent_reads: 48,
            ..EngineConfig::default()
        };
        let space = ConfigSearchSpace::new(key_five(), base.clone());
        let cfg = space.config_from_genome(&space.default_genome());
        assert_eq!(cfg.concurrent_reads, 48);
    }

    #[test]
    fn ga_space_matches_dimensions() {
        let space = ConfigSearchSpace::new(key_five(), EngineConfig::default());
        assert_eq!(space.to_ga_space().len(), 5);
    }

    #[test]
    fn feature_row_prepends_read_ratio() {
        let space = ConfigSearchSpace::new(key_five(), EngineConfig::default());
        let row = space.feature_row(0.7, &space.default_genome());
        assert_eq!(row.len(), 6);
        assert_eq!(row[0], 0.7);
    }
}
