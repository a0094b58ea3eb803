//! The DBA intervention surface (§3.8): the three inputs a database
//! administrator supplies to Rafiki — the performance metric to optimize,
//! the list of candidate parameters with valid ranges, and a
//! representative application trace.

use rafiki_engine::{param_catalog, ParamId, ParamInfo};
use rafiki_workload::WorkloadTrace;

/// The application-specific performance objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PerformanceMetric {
    /// Mean operations per second — the MG-RAST objective (§2.3: "our
    /// workload is not latency sensitive, but rather is throughput
    /// sensitive").
    #[default]
    Throughput,
    /// Mean latency (minimized). Provided for latency-sensitive tenants.
    MeanLatency,
    /// 99th-percentile latency (minimized).
    P99Latency,
}

impl PerformanceMetric {
    /// Extracts the objective from a benchmark result, oriented so that
    /// **larger is always better** (latencies are negated).
    pub fn score(&self, result: &rafiki_workload::BenchmarkResult) -> f64 {
        match self {
            PerformanceMetric::Throughput => result.avg_ops_per_sec,
            PerformanceMetric::MeanLatency => -result.mean_latency_ms,
            PerformanceMetric::P99Latency => -result.p99_latency_ms,
        }
    }
}

/// What the DBA provides before Rafiki can run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbaSpec {
    /// The metric to optimize.
    pub metric: PerformanceMetric,
    /// Candidate performance parameters (security/networking/consistency
    /// parameters excluded, per §3.8). `None` means the full catalog.
    pub candidate_params: Option<Vec<ParamId>>,
    /// A representative workload trace for characterization.
    pub trace: WorkloadTrace,
}

impl DbaSpec {
    /// Resolves the candidate parameter list against the catalog.
    pub fn resolve_params(&self) -> Vec<ParamInfo> {
        let catalog = param_catalog();
        match &self.candidate_params {
            None => catalog,
            Some(ids) => catalog
                .into_iter()
                .filter(|p| ids.contains(&p.id))
                .collect(),
        }
    }

    /// Characterizes the supplied trace: overall mean read ratio and the
    /// per-window series.
    pub fn characterize_trace(&self) -> (f64, Vec<f64>) {
        let rrs = self.trace.read_ratios();
        (rafiki_stats::descriptive::mean(&rrs), rrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_workload::MgRastModel;

    #[test]
    fn metric_orientation_is_maximize() {
        let result = rafiki_workload::BenchmarkResult {
            total_ops: 100,
            read_ops: 50,
            write_ops: 50,
            duration_secs: 1.0,
            avg_ops_per_sec: 100.0,
            mean_latency_ms: 2.0,
            p99_latency_ms: 9.0,
            samples: vec![],
        };
        assert_eq!(PerformanceMetric::Throughput.score(&result), 100.0);
        assert_eq!(PerformanceMetric::MeanLatency.score(&result), -2.0);
        assert_eq!(PerformanceMetric::P99Latency.score(&result), -9.0);
    }

    #[test]
    fn resolve_params_filters() {
        let spec = DbaSpec {
            metric: PerformanceMetric::Throughput,
            candidate_params: Some(vec![ParamId::CompactionMethod, ParamId::ConcurrentWrites]),
            trace: MgRastModel::default().generate(),
        };
        assert_eq!(spec.resolve_params().len(), 2);
        let all = DbaSpec {
            candidate_params: None,
            ..spec
        };
        assert_eq!(all.resolve_params().len(), 30);
    }

    #[test]
    fn trace_characterization() {
        let spec = DbaSpec {
            metric: PerformanceMetric::Throughput,
            candidate_params: None,
            trace: MgRastModel::default().generate(),
        };
        let (mean_rr, series) = spec.characterize_trace();
        assert_eq!(series.len(), 384);
        assert!((0.0..=1.0).contains(&mean_rr));
    }
}
