//! The performance evaluator: runs one `(workload, configuration)`
//! combination against the simulated datastore and reports mean
//! throughput. This is the "ground truth" oracle Rafiki samples during its
//! data-collection phase and that exhaustive search queries directly.

use rafiki_engine::{run_benchmark, Engine, EngineConfig, EngineSnapshot, ServerSpec};
use rafiki_workload::{BenchmarkResult, BenchmarkSpec, WorkloadGenerator, WorkloadSpec};

/// Which datastore flavor to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbFlavor {
    /// The Cassandra-like engine: every configuration parameter respected.
    Cassandra,
    /// The ScyllaDB-like engine: internal auto-tuner, many parameters
    /// ignored (see [`rafiki_engine::scylla`]).
    Scylla,
}

/// Everything needed to benchmark a configuration under a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalContext {
    /// Hardware specification.
    pub server: ServerSpec,
    /// Datastore flavor.
    pub flavor: DbFlavor,
    /// Benchmark harness settings.
    pub bench: BenchmarkSpec,
    /// Workload template; `read_ratio` is overridden per measurement.
    pub workload: WorkloadSpec,
    /// Rows preloaded before measuring (the paper's ~2-minute load phase).
    pub preload_keys: u64,
    /// Payload size of preloaded rows.
    pub preload_payload: u32,
    /// Seed for the workload generator.
    pub seed: u64,
}

impl Default for EvalContext {
    fn default() -> Self {
        let preload_keys = 120_000;
        EvalContext {
            server: ServerSpec::default(),
            flavor: DbFlavor::Cassandra,
            bench: BenchmarkSpec {
                duration_secs: 8.0,
                warmup_secs: 2.0,
                clients: 64,
                sample_window_secs: 1.0,
            },
            workload: WorkloadSpec {
                initial_keys: preload_keys,
                ..WorkloadSpec::with_read_ratio(0.5)
            },
            preload_keys,
            preload_payload: 1_000,
            seed: 0,
        }
    }
}

impl EvalContext {
    /// A faster, smaller context for tests and examples.
    pub fn small() -> Self {
        let preload_keys = 40_000;
        EvalContext {
            bench: BenchmarkSpec {
                duration_secs: 3.0,
                warmup_secs: 1.0,
                clients: 32,
                sample_window_secs: 1.0,
            },
            workload: WorkloadSpec {
                initial_keys: preload_keys,
                ..WorkloadSpec::with_read_ratio(0.5)
            },
            preload_keys,
            preload_payload: 1_000,
            ..EvalContext::default()
        }
    }

    /// A preload snapshot sized for this context, for
    /// [`EvalContext::measure_detailed_seeded_snapshot`]: engines
    /// hydrated from it are bit-identical to freshly preloaded ones, and
    /// the preload work is paid once per distinct layout instead of once
    /// per measurement.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::new(self.preload_keys, self.preload_payload)
    }

    fn build_engine_with(&self, cfg: &EngineConfig, snap: Option<&EngineSnapshot>) -> Engine {
        let mut engine = match self.flavor {
            DbFlavor::Cassandra => Engine::new(cfg.clone(), self.server),
            DbFlavor::Scylla => rafiki_engine::scylla_engine(cfg, self.server),
        };
        match snap {
            Some(snap) => {
                assert_eq!(
                    (snap.keys(), snap.payload_len()),
                    (self.preload_keys, self.preload_payload),
                    "snapshot was built for a different preload"
                );
                engine.preload_from(snap);
            }
            None => engine.preload(self.preload_keys, self.preload_payload),
        }
        engine
    }

    /// Runs one full benchmark and returns the detailed result.
    pub fn measure_detailed(&self, read_ratio: f64, cfg: &EngineConfig) -> BenchmarkResult {
        self.measure_detailed_seeded(read_ratio, cfg, self.seed.wrapping_add(1))
    }

    /// Runs one full benchmark with an explicit workload-generator seed.
    /// The deterministic grid runner ([`crate::grid`]) uses this to give
    /// every grid point an independent, index-derived seed.
    pub fn measure_detailed_seeded(
        &self,
        read_ratio: f64,
        cfg: &EngineConfig,
        workload_seed: u64,
    ) -> BenchmarkResult {
        self.measure_detailed_seeded_snapshot(read_ratio, cfg, workload_seed, None)
    }

    /// Like [`EvalContext::measure_detailed_seeded`], but hydrates the
    /// engine from `snapshot` when one is supplied instead of replaying
    /// the preload. Results are bit-identical either way (pinned by
    /// test); passing a snapshot shared across many measurements is
    /// purely a wall-clock optimization.
    pub fn measure_detailed_seeded_snapshot(
        &self,
        read_ratio: f64,
        cfg: &EngineConfig,
        workload_seed: u64,
        snapshot: Option<&EngineSnapshot>,
    ) -> BenchmarkResult {
        let mut engine = self.build_engine_with(cfg, snapshot);
        let spec = WorkloadSpec {
            read_ratio,
            ..self.workload
        };
        let mut workload = WorkloadGenerator::new(spec, workload_seed);
        run_benchmark(&mut engine, &mut workload, &self.bench)
    }

    /// Runs one benchmark and returns mean throughput (average operations
    /// per second — the paper's performance metric, §2.3).
    pub fn measure(&self, read_ratio: f64, cfg: &EngineConfig) -> f64 {
        self.measure_detailed(read_ratio, cfg).avg_ops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_stats::parallel_indexed;

    #[test]
    fn measure_is_deterministic() {
        let ctx = EvalContext::small();
        let cfg = EngineConfig::default();
        assert_eq!(ctx.measure(0.5, &cfg), ctx.measure(0.5, &cfg));
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_poisoned_lock() {
        let res = parallel_indexed(8, |i| {
            assert!(i != 3, "boom");
            i * 2
        });
        let err = res.unwrap_err();
        assert!(err.contains("panicked"), "unexpected error: {err}");
        // A clean run over the same range still succeeds.
        let ok = parallel_indexed(8, |i| i * 2).unwrap();
        assert_eq!(ok, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn parallel_indexed_handles_empty_input() {
        let out: Vec<usize> = parallel_indexed(0, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scylla_flavor_runs() {
        let ctx = EvalContext {
            flavor: DbFlavor::Scylla,
            ..EvalContext::small()
        };
        let t = ctx.measure(0.7, &EngineConfig::default());
        assert!(t > 1_000.0, "scylla throughput {t}");
    }
}
