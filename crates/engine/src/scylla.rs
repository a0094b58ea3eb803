//! The ScyllaDB-like engine: the same LSM substrate wrapped with an
//! internal auto-tuner.
//!
//! §4.10 of the paper: *"ScyllaDB provides a user-transparent auto-tuning
//! system internal to its operation … user settings for many configuration
//! parameters are ignored by ScyllaDB, giving preference to its internal
//! auto-tuning. Consequently, even in an otherwise stationary system …
//! the throughput of ScyllaDB varies significantly."* (Figure 10.)
//!
//! This module reproduces both properties:
//!
//! - **Ignored parameters**: concurrency knobs (`concurrent_writes`,
//!   `concurrent_reads`, `concurrent_compactors`, `memtable_flush_writers`)
//!   and memory knobs (`file_cache_size_mb`, `memtable_cleanup_threshold`,
//!   `memtable_heap_space_mb`, caches) are overridden with the engine's own
//!   shard-per-core choices before construction.
//! - **Fluctuation**: a high-gain bang-bang controller perturbs an internal
//!   service-cost factor every control period, chasing a throughput
//!   gradient it can only observe noisily — it perpetually overshoots, so
//!   10-second throughput windows vary much more than Cassandra's.

use crate::config::{EngineConfig, ServerSpec};
use crate::server::{Engine, Flavor};
use crate::sim::SimDuration;

/// The internal auto-tuner state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScyllaTuner {
    period: SimDuration,
    factor: f64,
    direction: f64,
    step: f64,
    min_factor: f64,
    max_factor: f64,
    last_ops: u64,
    last_delta: u64,
}

impl Default for ScyllaTuner {
    fn default() -> Self {
        ScyllaTuner {
            period: SimDuration::from_secs_f64(6.0),
            factor: 1.0,
            direction: 1.0,
            step: 0.22,
            min_factor: 0.70,
            max_factor: 1.60,
            last_ops: 0,
            last_delta: 0,
        }
    }
}

impl ScyllaTuner {
    /// Control period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Current internal cost factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// One control step: `total_ops` is the engine's cumulative completed
    /// operation count. The controller keeps moving its knob in the same
    /// direction while throughput improves and reverses when it degrades —
    /// with a gain high enough that it never settles.
    pub fn tick(&mut self, total_ops: u64) -> f64 {
        let delta = total_ops.saturating_sub(self.last_ops);
        if self.last_ops != 0 && delta < self.last_delta {
            self.direction = -self.direction;
        }
        self.last_ops = total_ops;
        self.last_delta = delta;
        self.factor =
            (self.factor + self.direction * self.step).clamp(self.min_factor, self.max_factor);
        // Bounce off the rails so the oscillation persists.
        if self.factor <= self.min_factor || self.factor >= self.max_factor {
            self.direction = -self.direction;
        }
        self.factor
    }
}

/// Rewrites a user configuration the way ScyllaDB does: concurrency and
/// memory parameters are replaced by the engine's own shard-per-core
/// choices; compaction strategy, commit-log and bloom settings are
/// respected.
pub fn scylla_effective_config(user: &EngineConfig, spec: &ServerSpec) -> EngineConfig {
    let mut cfg = user.clone();
    // Shard-per-core architecture: one reactor per core, no user override.
    cfg.concurrent_writes = (spec.cores * 3) as u32;
    cfg.concurrent_reads = (spec.cores * 3) as u32;
    cfg.concurrent_compactors = (spec.cores / 2).max(1) as u32;
    cfg.memtable_flush_writers = 2;
    // Memory is self-managed.
    cfg.file_cache_size_mb = spec.heap_mb / 4;
    cfg.memtable_heap_space_mb = spec.heap_mb / 4;
    cfg.memtable_offheap_space_mb = 0;
    cfg.memtable_cleanup_threshold = 0.33;
    cfg.key_cache_size_mb = 64;
    cfg.row_cache_size_mb = 0;
    // Scylla schedules compaction bandwidth itself instead of honouring a
    // static cap, so backlogs clear quickly and the engine runs closer to
    // its own optimum out of the box (which is why external tuning gains
    // are modest, Table 4).
    cfg.compaction_throughput_mb_per_sec = 64;
    cfg
}

/// Set of parameter names ScyllaDB ignores (used by the tuner to strip
/// them from the search space, §4.10: "stripping out any parameters that
/// are ignored by ScyllaDB").
pub fn scylla_ignored_params() -> Vec<crate::config::ParamId> {
    use crate::config::ParamId::*;
    vec![
        ConcurrentWrites,
        ConcurrentReads,
        ConcurrentCompactors,
        MemtableFlushWriters,
        FileCacheSizeMb,
        MemtableHeapSpaceMb,
        MemtableOffheapSpaceMb,
        MemtableCleanupThreshold,
        KeyCacheSizeMb,
        RowCacheSizeMb,
        CompactionThroughputMbPerSec,
    ]
}

/// Builds a ScyllaDB-like engine from a user configuration.
pub fn scylla_engine(user_cfg: &EngineConfig, spec: ServerSpec) -> Engine {
    let cfg = scylla_effective_config(user_cfg, &spec);
    let flavor = Flavor {
        // Seastar's C++ data path is leaner per operation than the JVM's.
        cpu_cost_factor: 0.62,
        compact_on_every_flush: true,
    };
    let mut engine = Engine::with_flavor(cfg, spec, flavor);
    engine.install_tuner(ScyllaTuner::default());
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_oscillates_forever() {
        let mut t = ScyllaTuner::default();
        let mut factors = Vec::new();
        let mut ops = 0u64;
        for i in 0..50 {
            // Feed a throughput signal that peaks at factor 1.0: the
            // controller should hunt around the peak, not converge.
            let rate = (120_000.0 * (1.0 - (t.factor() - 1.0).abs())) as u64;
            ops += rate;
            factors.push(t.tick(ops));
            let _ = i;
        }
        let tail = &factors[20..];
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.15,
            "tuner settled ({min}..{max}); it should keep oscillating"
        );
    }

    #[test]
    fn tuner_respects_bounds() {
        let mut t = ScyllaTuner::default();
        for i in 0..200 {
            let f = t.tick(i * 1_000);
            assert!((0.70..=1.60).contains(&f), "factor {f} out of bounds");
        }
    }

    #[test]
    fn effective_config_overrides_concurrency() {
        let user = EngineConfig {
            concurrent_writes: 128,
            file_cache_size_mb: 32,
            ..EngineConfig::default()
        };
        let spec = ServerSpec::default();
        let eff = scylla_effective_config(&user, &spec);
        assert_eq!(eff.concurrent_writes, 24);
        assert_eq!(eff.file_cache_size_mb, spec.heap_mb / 4);
        // Respected settings survive.
        assert_eq!(eff.compaction_method, user.compaction_method);
        assert_eq!(eff.commitlog_sync, user.commitlog_sync);
    }

    #[test]
    fn ignored_param_list_is_consistent_with_override() {
        let spec = ServerSpec::default();
        let mut user = EngineConfig::default();
        for id in scylla_ignored_params() {
            // Perturb the user value; the effective config must not change.
            let baseline = scylla_effective_config(&user, &spec);
            let before = baseline.get(id);
            let info = crate::config::param_catalog()
                .into_iter()
                .find(|p| p.id == id)
                .expect("catalogued");
            let probe = match info.domain {
                crate::config::ParamDomain::Categorical { options } => (options - 1) as f64,
                crate::config::ParamDomain::Int { min, max } => ((min + max) / 2) as f64,
                crate::config::ParamDomain::Real { min, max } => (min + max) / 2.0,
            };
            user.set(id, probe);
            let after = scylla_effective_config(&user, &spec).get(id);
            assert_eq!(before, after, "{:?} leaked through", id);
        }
    }
}
