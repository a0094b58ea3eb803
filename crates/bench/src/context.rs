//! Evaluation contexts at experiment scale.
//!
//! The paper benchmarks each point for 5 wall-clock minutes on a Dell
//! R430. One simulated second here corresponds to the same steady-state
//! dynamics; the shapes reported in EXPERIMENTS.md are stable from a few
//! simulated seconds once warm-up is excluded.

use rafiki::EvalContext;
use rafiki_workload::{BenchmarkSpec, WorkloadSpec};

/// Seed shared by all experiments (reported in EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 20171211; // Middleware '17 opening day

/// The context used by every headline experiment.
pub fn experiment_context() -> EvalContext {
    let preload_keys = 60_000;
    EvalContext {
        bench: BenchmarkSpec {
            duration_secs: 4.0,
            warmup_secs: 1.0,
            clients: 64,
            sample_window_secs: 1.0,
        },
        workload: WorkloadSpec {
            initial_keys: preload_keys,
            ..WorkloadSpec::with_read_ratio(0.5)
        },
        preload_keys,
        preload_payload: 1_000,
        seed: EXPERIMENT_SEED,
        ..EvalContext::default()
    }
}

/// A faster context for `--quick` smoke runs of the experiments.
pub fn quick_context() -> EvalContext {
    let preload_keys = 30_000;
    EvalContext {
        bench: BenchmarkSpec {
            duration_secs: 1.5,
            warmup_secs: 0.5,
            clients: 32,
            sample_window_secs: 0.5,
        },
        workload: WorkloadSpec {
            initial_keys: preload_keys,
            ..WorkloadSpec::with_read_ratio(0.5)
        },
        preload_keys,
        preload_payload: 1_000,
        seed: EXPERIMENT_SEED,
        ..EvalContext::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_are_valid() {
        experiment_context().bench.validate();
        quick_context().bench.validate();
    }
}
