//! Every workload and metric this benchmark reports, by name — the lists
//! `BENCHMARK.json` at the repo root is generated from (`benchmark
//! manifest`; a unit test compares the two). To add a counter, append a
//! row here, return its value from the code that measures it, and
//! regenerate; never rename or redefine an existing row, or every
//! earlier run stops being comparable.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by
    /// before a change counts as a regression; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "offline_grid",
        "66-point read-ratio x config grid through run_grid at experiment scale: engine (+ workload op generation) does nearly all the work; serve, neural and search do none",
    ),
    (
        "tune_job",
        "whole tuning jobs, collect -> train -> search -> replay -> apply: neural and ga/search/controller do most of the work, engine little, serve none; scores what the tuner picked",
    ),
    (
        "serve_steady",
        "daemon wire path, closed loop, 2 connections, stationary rr 0.9: syscalls, codec, routing and shard queues dominate, windows close but nothing is decided",
    ),
    (
        "serve_mgrast",
        "daemon under the MG-RAST regime-switching stream, closed loop, 1 connection: writes beside reads, and window closes that run the GA on the shard worker mid-frame",
    ),
];

/// Measured with tracing off. Every workload reports every one; what
/// "op" and "request" mean on each workload is in the README.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_tail_us", "us", Lower, 0.25),
    e2e("sim_ops_per_s", "1/s", Higher, 0.10),
];

/// Per-layer metrics taken from the workload's own traced loop: counts
/// and shares, 0 where the workload never enters the layer.
pub const PER_LAYER_OWN: &[Metric] = &[
    layer("bench.traced_ops_per_s", "1/s", Higher),
    layer("bench.spans_recorded", "count", Lower),
    layer("share.engine", "ratio", Lower),
    layer("share.workload", "ratio", Lower),
    layer("share.neural", "ratio", Lower),
    layer("share.search", "ratio", Lower),
    layer("share.serve", "ratio", Lower),
    layer("share.stats", "ratio", Lower),
    layer("share.other", "ratio", Lower),
    layer("grid.write_points_per_s", "1/s", Higher),
    layer("grid.mixed_points_per_s", "1/s", Higher),
    layer("grid.read_points_per_s", "1/s", Higher),
    layer("grid.stage_sum_ratio", "ratio", Higher),
    layer("grid.own_driver_overhead_pct", "%", Lower),
    layer("stats.parallel_efficiency", "ratio", Higher),
    layer("core.tuned_over_default", "ratio", Higher),
    layer("core.reopt_per_window", "ratio", Lower),
    layer("core.switch_per_reopt", "ratio", Higher),
    layer("neural.pred_abs_err", "ratio", Lower),
    layer("neural.holdout_mape", "%", Lower),
    layer("neural.train_epochs", "count", Lower),
    layer("neural.ensemble_kept", "count", Higher),
    layer("search.evals_per_search", "count", Lower),
    layer("serve.windows_closed", "count", Higher),
    layer("serve.reoptimizations", "count", Lower),
    layer("serve.reconfigurations", "count", Lower),
    layer("serve.sim_op_p50_us", "sim_us", Lower),
    layer("serve.sim_op_p99_us", "sim_us", Lower),
    layer("serve.slow_frames", "count", Lower),
    layer("serve.stall_share", "ratio", Lower),
    layer("obs.events_per_window", "ratio", Lower),
];

/// Per-layer unit costs, replayed in-process through the crates' public
/// functions after the traced loop — the same way on every workload, so
/// every one of them is a fresh measurement in every traced run.
pub const PER_LAYER_UNIT: &[Metric] = &[
    layer("workload.gen_ns_per_op", "ns", Lower),
    layer("workload.characterize_ns_per_op", "ns", Lower),
    layer("workload.krd_tracked_keys", "count", Lower),
    layer("workload.krd_evictions", "count", Lower),
    layer("engine.snapshot_build_ms", "ms", Lower),
    layer("engine.hydrate_ms", "ms", Lower),
    layer("engine.step_ns_per_op.write", "ns", Lower),
    layer("engine.step_ns_per_op.mixed", "ns", Lower),
    layer("engine.step_ns_per_op.read", "ns", Lower),
    layer("engine.steps_per_op", "ratio", Lower),
    layer("engine.summarize_ms", "ms", Lower),
    layer("engine.conc1_step_ns_per_op", "ns", Lower),
    layer("engine.preload_filtered_ms", "ms", Lower),
    layer("engine.reconfigure_us", "us", Lower),
    layer("engine.bloom_negative_ratio", "ratio", Higher),
    layer("engine.candidates_per_read", "ratio", Lower),
    layer("engine.file_cache_hit_ratio", "ratio", Higher),
    layer("engine.disk_reads_per_read", "ratio", Lower),
    layer("engine.compacted_bytes_per_write_byte", "ratio", Lower),
    layer("engine.flushes", "count", Lower),
    layer("engine.compactions", "count", Lower),
    layer("engine.write_stall_sim_ms", "sim_ms", Lower),
    layer("engine.disk_bytes_per_user_byte", "ratio", Lower),
    layer("engine.sim_ops_per_s.rr10", "1/s", Higher),
    layer("engine.sim_ops_per_s.rr50", "1/s", Higher),
    layer("engine.sim_ops_per_s.rr90", "1/s", Higher),
    layer("stats.hist_record_ns", "ns", Lower),
    layer("stats.hist_quantile_us", "us", Lower),
    layer("neural.train_ms", "ms", Lower),
    layer("neural.predict_ns_per_row", "ns", Lower),
    layer("neural.predict1_us", "us", Lower),
    layer("search.ga_ms", "ms", Lower),
    layer("search.bestconfig_ms", "ms", Lower),
    layer("search.latent_ms", "ms", Lower),
    layer("search.random_ms", "ms", Lower),
    layer("search.surrogate_share", "ratio", Lower),
    layer("ga.self_ns_per_eval", "ns", Lower),
    layer("core.collect_ms", "ms", Lower),
    layer("core.optimize_ms", "ms", Lower),
    layer("core.decide_hold_us", "us", Lower),
    layer("core.decide_reopt_ms", "ms", Lower),
    layer("serve.encode_req_ns_per_op", "ns", Lower),
    layer("serve.decode_req_ns_per_op", "ns", Lower),
    layer("serve.encode_resp_ns_per_op", "ns", Lower),
    layer("serve.decode_resp_ns_per_op", "ns", Lower),
    layer("serve.req_bytes_per_op", "B", Lower),
    layer("serve.resp_bytes_per_op", "B", Lower),
    layer("serve.route_ns_per_op", "ns", Lower),
    layer("serve.frame_p50_us", "us", Lower),
    layer("serve.wire_residual_us_per_frame", "us", Lower),
    layer("serve.stats_frame_us", "us", Lower),
    layer("serve.metrics_frame_us", "us", Lower),
    layer("serve.config_frame_us", "us", Lower),
    layer("serve.bind_to_first_reply_ms", "ms", Lower),
    layer("serve.shutdown_ms", "ms", Lower),
    layer("obs.disabled_span_ns", "ns", Lower),
    layer("bench.span_record_ns", "ns", Lower),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<Metric> {
    [PER_LAYER_OWN, PER_LAYER_UNIT].concat()
}

/// Metric values by name, as the measuring code hands them over.
pub type Values = BTreeMap<&'static str, f64>;

/// Orders `values` as `metrics` lists them.
///
/// # Errors
///
/// Names the first metric that is missing or not a finite number: a run
/// reports every metric of its mode or it reports nothing.
pub fn ordered(metrics: &[Metric], values: &Values) -> Result<Vec<(Metric, f64)>, String> {
    metrics
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => Ok((*m, *v)),
            Some(v) => Err(format!("metric {} is not finite: {v}", m.name)),
            None => Err(format!("metric {} was not measured", m.name)),
        })
        .collect()
}

/// Reports 0 for every own-loop metric the workload did not fill in: it
/// never entered that layer.
pub fn fill_idle(values: &mut Values) {
    for m in PER_LAYER_OWN {
        values.entry(m.name).or_insert(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in END_TO_END.iter().chain(&per_layer()) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }

    #[test]
    fn ordered_refuses_a_missing_or_non_finite_metric() {
        let mut values = Values::new();
        for m in END_TO_END {
            values.insert(m.name, 1.0);
        }
        assert_eq!(
            ordered(END_TO_END, &values).unwrap().len(),
            END_TO_END.len()
        );
        values.insert("ops_per_s", f64::NAN);
        assert!(ordered(END_TO_END, &values)
            .unwrap_err()
            .contains("ops_per_s"));
        values.remove("ops_per_s");
        assert!(ordered(END_TO_END, &values)
            .unwrap_err()
            .contains("ops_per_s"));
    }
}
