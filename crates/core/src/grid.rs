//! The deterministic parallel grid runner for data collection.
//!
//! The paper's offline phase (§4.2) benchmarks a grid of
//! `(read ratio, configuration)` points — 11 workloads x 20
//! configurations of multi-minute runs. Each point is an independent
//! deterministic simulation, so the grid is embarrassingly parallel;
//! what must be pinned down is that parallel execution produces
//! **bit-identical** results to a sequential loop. Two rules enforce
//! that contract:
//!
//! 1. **Per-point seeds depend only on the point's index** — derived by
//!    [`rafiki_stats::mix64`] from `ctx.seed ^ index`, never from which
//!    thread runs the point or in which order points finish. Distinct
//!    indices also get decorrelated workload streams, which makes
//!    screening replicates and collection-plan repeats statistically
//!    meaningful instead of byte-for-byte repeats of one stream.
//! 2. **Index-scatter collection** — results are placed by index
//!    ([`rafiki_stats::parallel_indexed`]), so the output vector's order
//!    is the points' order regardless of scheduling.
//!
//! `run_grid` and `run_grid_sequential` therefore return equal vectors
//! (enforced by a test here and checked on every run of the repository's
//! benchmark); the parallel path is purely a wall-clock optimization.

use crate::dba::PerformanceMetric;
use crate::evaluator::EvalContext;
use rafiki_engine::EngineConfig;
use rafiki_stats::{mix64, parallel_indexed};
use rafiki_workload::BenchmarkResult;

/// One grid point: a read ratio and the configuration to benchmark.
pub type GridPoint = (f64, EngineConfig);

impl EvalContext {
    /// The workload seed of grid point `index`: a [`mix64`] avalanche of
    /// the context seed and the index. Depends on nothing else, so any
    /// execution order — or thread assignment — yields the same seed.
    pub fn point_seed(&self, index: usize) -> u64 {
        mix64(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Measures grid point `index` of `points` with its index-derived
    /// seed, hydrating the engine from `snap`. The unit of work both
    /// grid runners share.
    fn measure_grid_point(
        &self,
        points: &[GridPoint],
        index: usize,
        snap: &rafiki_engine::EngineSnapshot,
    ) -> BenchmarkResult {
        let (rr, cfg) = &points[index];
        self.measure_detailed_seeded_snapshot(*rr, cfg, self.point_seed(index), Some(snap))
    }

    /// Runs every grid point in parallel across OS threads and returns
    /// the detailed results in point order — bit-identical to
    /// [`EvalContext::run_grid_sequential`].
    ///
    /// Both runners build one [`rafiki_engine::EngineSnapshot`] for the
    /// whole grid: the preload layout is constructed once per distinct
    /// (compaction method, bloom, block size) combination and every
    /// point's engine is hydrated from it — bit-identical to a fresh
    /// preload, but the per-point preload replay cost is gone.
    ///
    /// # Panics
    ///
    /// Panics when a grid worker panics (e.g. an invalid configuration);
    /// the panic surfaces as an error from the worker scope first, so no
    /// lock is poisoned and no partial results leak.
    pub fn run_grid(&self, points: &[GridPoint]) -> Vec<BenchmarkResult> {
        let snap = self.snapshot();
        parallel_indexed(points.len(), |i| self.measure_grid_point(points, i, &snap))
            .expect("grid worker panicked")
    }

    /// The sequential reference loop: same seeds, same order, one point
    /// at a time (with the same per-grid snapshot reuse as
    /// [`EvalContext::run_grid`]). Exists so the determinism contract is
    /// testable, and as the reference the benchmark compares
    /// [`EvalContext::run_grid`] against.
    pub fn run_grid_sequential(&self, points: &[GridPoint]) -> Vec<BenchmarkResult> {
        let snap = self.snapshot();
        (0..points.len())
            .map(|i| self.measure_grid_point(points, i, &snap))
            .collect()
    }

    /// Runs the grid in parallel and scores each result with `metric`
    /// (larger is better, latencies negated — see
    /// [`PerformanceMetric::score`]).
    pub fn run_grid_scored(&self, metric: PerformanceMetric, points: &[GridPoint]) -> Vec<f64> {
        self.run_grid(points)
            .iter()
            .map(|r| metric.score(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_3x3() -> Vec<GridPoint> {
        let mut points = Vec::new();
        for &rr in &[0.1, 0.5, 0.9] {
            for cw in [2u32, 8, 32] {
                let cfg = EngineConfig {
                    concurrent_writes: cw,
                    ..EngineConfig::default()
                };
                points.push((rr, cfg));
            }
        }
        points
    }

    #[test]
    fn parallel_grid_is_bit_identical_to_sequential() {
        let ctx = EvalContext::small();
        let points = grid_3x3();
        let sequential = ctx.run_grid_sequential(&points);
        let parallel = ctx.run_grid(&points);
        assert_eq!(sequential.len(), 9);
        // Full BenchmarkResult equality: throughput, latencies, and every
        // per-window sample must match bit-for-bit.
        assert_eq!(sequential, parallel);
        // And the parallel path is itself reproducible.
        assert_eq!(parallel, ctx.run_grid(&points));
    }

    #[test]
    fn snapshot_hydrated_point_matches_fresh_preload() {
        // The scored result of a grid point must not depend on whether
        // its engine came from a snapshot or a fresh preload — across
        // both compaction layouts.
        let ctx = EvalContext::small();
        let snap = ctx.snapshot();
        for method in [
            rafiki_engine::CompactionMethod::SizeTiered,
            rafiki_engine::CompactionMethod::Leveled,
        ] {
            let cfg = EngineConfig {
                compaction_method: method,
                ..EngineConfig::default()
            };
            let seed = ctx.point_seed(3);
            let fresh = ctx.measure_detailed_seeded(0.7, &cfg, seed);
            let hydrated = ctx.measure_detailed_seeded_snapshot(0.7, &cfg, seed, Some(&snap));
            assert_eq!(fresh, hydrated, "results diverged under {method:?}");
        }
        assert_eq!(snap.variant_count(), 2);
    }

    #[test]
    fn point_seeds_are_index_stable_and_distinct() {
        let ctx = EvalContext::small();
        let seeds: Vec<u64> = (0..64).map(|i| ctx.point_seed(i)).collect();
        assert_eq!(
            seeds,
            (0..64).map(|i| ctx.point_seed(i)).collect::<Vec<_>>()
        );
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-point seeds collide");
        // Different base seeds shift every point seed.
        let other = EvalContext {
            seed: ctx.seed.wrapping_add(1),
            ..ctx
        };
        assert_ne!(seeds[0], other.point_seed(0));
    }

    #[test]
    fn distinct_points_get_decorrelated_workloads() {
        // Two identical configurations at the same read ratio but at
        // different grid indices must not replay the same stream.
        let ctx = EvalContext::small();
        let cfg = EngineConfig::default();
        let points = vec![(0.5, cfg.clone()), (0.5, cfg)];
        let results = ctx.run_grid(&points);
        assert_ne!(
            results[0], results[1],
            "replicates at different indices should differ"
        );
    }

    /// A [`mix64`] fold of every field's bits, samples included.
    fn result_fold(r: &BenchmarkResult) -> u64 {
        let mut words = vec![
            r.total_ops,
            r.read_ops,
            r.write_ops,
            r.duration_secs.to_bits(),
            r.avg_ops_per_sec.to_bits(),
            r.mean_latency_ms.to_bits(),
            r.p99_latency_ms.to_bits(),
            r.samples.len() as u64,
        ];
        for s in &r.samples {
            words.extend([s.time_secs.to_bits(), s.ops_per_sec.to_bits()]);
        }
        words.into_iter().fold(0, |h, w| mix64(h ^ w))
    }

    #[test]
    fn grid_results_match_their_golden_folds() {
        // Pins the engine's simulated clock end to end: the default
        // size-tiered layout, the leveled layout, the smallest file
        // cache and a disabled key cache, each at its own read ratio.
        let ctx = EvalContext::small();
        let points: Vec<GridPoint> = vec![
            (0.5, EngineConfig::default()),
            (
                0.9,
                EngineConfig {
                    compaction_method: rafiki_engine::CompactionMethod::Leveled,
                    ..EngineConfig::default()
                },
            ),
            (
                0.1,
                EngineConfig {
                    file_cache_size_mb: 32,
                    ..EngineConfig::default()
                },
            ),
            (
                0.7,
                EngineConfig {
                    key_cache_size_mb: 0,
                    ..EngineConfig::default()
                },
            ),
        ];
        let folds: Vec<u64> = ctx
            .run_grid_sequential(&points)
            .iter()
            .map(result_fold)
            .collect();
        assert_eq!(
            folds,
            [
                0xd4ee_56eb_7879_652c,
                0xd004_d09a_9fbb_556f,
                0xb48d_af1f_b486_016a,
                0x31af_db72_f884_fb78,
            ],
            "a grid point's result diverged: {folds:#018x?}"
        );
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_death_mid_grid_propagates() {
        let ctx = EvalContext::small();
        // Point 1 carries an invalid configuration: the engine's
        // validation panics inside the worker thread, and the grid
        // runner must propagate that instead of hanging or returning
        // partial results.
        let bad = EngineConfig {
            bloom_filter_fp_chance: 1.5,
            ..EngineConfig::default()
        };
        let points = vec![
            (0.5, EngineConfig::default()),
            (0.5, bad),
            (0.5, EngineConfig::default()),
        ];
        let _ = ctx.run_grid(&points);
    }
}
