//! Mixed real/integer/categorical search spaces.
//!
//! Rafiki's configuration space mixes continuous parameters (memtable
//! cleanup threshold), integers (concurrent writers/compactors, cache MB),
//! and categoricals (compaction strategy). Candidates are plain `Vec<f64>`
//! genomes; integer and categorical genes are *soft* constraints handled by
//! Deb's feasibility rule during the search (§3.7.2) and repaired on
//! extraction.

use rand::Rng;

/// The type and bounds of one gene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneSpec {
    /// A continuous value in `[min, max]`.
    Real {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
    /// An integer in `[min, max]`.
    Int {
        /// Lower bound (inclusive).
        min: i64,
        /// Upper bound (inclusive).
        max: i64,
    },
    /// One of `options` unordered choices, encoded as `0..options`.
    Categorical {
        /// Number of choices (must be at least 1).
        options: usize,
    },
}

impl GeneSpec {
    /// Lower bound as `f64`.
    pub fn lo(&self) -> f64 {
        match *self {
            GeneSpec::Real { min, .. } => min,
            GeneSpec::Int { min, .. } => min as f64,
            GeneSpec::Categorical { .. } => 0.0,
        }
    }

    /// Upper bound as `f64`.
    pub fn hi(&self) -> f64 {
        match *self {
            GeneSpec::Real { max, .. } => max,
            GeneSpec::Int { max, .. } => max as f64,
            GeneSpec::Categorical { options } => (options.max(1) - 1) as f64,
        }
    }

    /// Whether this gene must take an integral value to be feasible.
    pub fn is_discrete(&self) -> bool {
        !matches!(self, GeneSpec::Real { .. })
    }

    /// Distance from feasibility: bound violations plus, for discrete
    /// genes, the distance to the nearest integer.
    pub fn violation(&self, v: f64) -> f64 {
        let mut viol = (self.lo() - v).max(0.0) + (v - self.hi()).max(0.0);
        if self.is_discrete() {
            viol += (v - v.round()).abs();
        }
        viol
    }

    /// Projects a value onto the feasible set (clamp + round for discrete
    /// genes).
    pub fn repair(&self, v: f64) -> f64 {
        let clamped = v.clamp(self.lo(), self.hi());
        if self.is_discrete() {
            clamped.round().clamp(self.lo(), self.hi())
        } else {
            clamped
        }
    }

    /// Samples a feasible value uniformly.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            GeneSpec::Real { min, max } => {
                if min == max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
            GeneSpec::Int { min, max } => rng.gen_range(min..=max) as f64,
            GeneSpec::Categorical { options } => rng.gen_range(0..options.max(1)) as f64,
        }
    }
}

/// An ordered collection of genes describing the whole search space.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    genes: Vec<GeneSpec>,
}

impl SearchSpace {
    /// Builds a search space.
    ///
    /// # Panics
    ///
    /// Panics when `genes` is empty, any bound is inverted, or a
    /// categorical gene has zero options.
    pub fn new(genes: Vec<GeneSpec>) -> Self {
        assert!(!genes.is_empty(), "search space needs at least one gene");
        for g in &genes {
            match *g {
                GeneSpec::Real { min, max } => {
                    assert!(min <= max, "real gene with min > max")
                }
                GeneSpec::Int { min, max } => assert!(min <= max, "int gene with min > max"),
                GeneSpec::Categorical { options } => {
                    assert!(options >= 1, "categorical gene needs options")
                }
            }
        }
        SearchSpace { genes }
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the space has no genes (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Gene specifications.
    pub fn genes(&self) -> &[GeneSpec] {
        &self.genes
    }

    /// Samples a feasible genome uniformly.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        self.genes.iter().map(|g| g.sample(rng)).collect()
    }

    /// Total constraint violation of a genome.
    ///
    /// # Panics
    ///
    /// Panics on genome length mismatch.
    pub fn violation(&self, genome: &[f64]) -> f64 {
        assert_eq!(genome.len(), self.genes.len(), "genome length mismatch");
        self.genes
            .iter()
            .zip(genome)
            .map(|(g, &v)| g.violation(v))
            .sum()
    }

    /// Whether a genome satisfies every gene constraint.
    pub fn is_feasible(&self, genome: &[f64]) -> bool {
        self.violation(genome) == 0.0
    }

    /// Projects a genome onto the feasible set.
    pub fn repair(&self, genome: &[f64]) -> Vec<f64> {
        assert_eq!(genome.len(), self.genes.len(), "genome length mismatch");
        self.genes
            .iter()
            .zip(genome)
            .map(|(g, &v)| g.repair(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_space() -> SearchSpace {
        SearchSpace::new(vec![
            GeneSpec::Categorical { options: 2 },
            GeneSpec::Int { min: 2, max: 8 },
            GeneSpec::Real { min: 0.1, max: 0.9 },
        ])
    }

    #[test]
    fn sampling_is_feasible() {
        let space = mixed_space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let g = space.sample(&mut rng);
            assert!(space.is_feasible(&g), "{g:?}");
        }
    }

    #[test]
    fn violation_detects_non_integer_and_bounds() {
        let space = mixed_space();
        assert_eq!(space.violation(&[0.0, 4.0, 0.5]), 0.0);
        assert!(space.violation(&[0.5, 4.0, 0.5]) > 0.0); // non-integer categorical
        assert!(space.violation(&[0.0, 9.0, 0.5]) > 0.0); // out of bounds int
        assert!(space.violation(&[0.0, 4.0, 1.5]) > 0.0); // out of bounds real
    }

    #[test]
    fn repair_projects_to_feasible() {
        let space = mixed_space();
        let fixed = space.repair(&[1.7, 9.3, 1.5]);
        assert!(space.is_feasible(&fixed));
        assert_eq!(fixed, vec![1.0, 8.0, 0.9]);
    }

    #[test]
    fn paper_penalty_example() {
        // §3.7.2: r1 = 0.3 over parents 3 and 2 with the paper's halving
        // crossover gives v1 = 1.15, infeasible for an integer gene.
        let g = GeneSpec::Int { min: 1, max: 10 };
        assert!(g.violation(1.15) > 0.0);
        assert_eq!(g.repair(1.15), 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_space_rejected() {
        let _ = SearchSpace::new(vec![]);
    }
}
