//! Benchmark-harness types shared between the workload generators and the
//! datastore engines: the run specification (the paper's YCSB "shooter"
//! settings, §4.1–4.2) and the measured results.

/// Specification of one benchmark run against a datastore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Measured duration in *simulated* seconds. The paper measures each
    /// point over 5 minutes of wall clock; the simulated engine compresses
    /// that (the shape of the response surface is duration-invariant once
    /// compaction reaches steady state).
    pub duration_secs: f64,
    /// Warm-up time excluded from the measurement (the paper's ~2 minutes
    /// of loading "to remove the startup costs").
    pub warmup_secs: f64,
    /// Number of closed-loop client connections ("multiple shooters are
    /// used … to ensure that it is adequately loaded").
    pub clients: usize,
    /// Length of each throughput sample window in seconds (Figure 10 uses
    /// 10-second samples).
    pub sample_window_secs: f64,
}

impl Default for BenchmarkSpec {
    fn default() -> Self {
        BenchmarkSpec {
            duration_secs: 60.0,
            warmup_secs: 10.0,
            clients: 64,
            sample_window_secs: 10.0,
        }
    }
}

impl BenchmarkSpec {
    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics when any duration is non-positive or there are no clients.
    pub fn validate(&self) {
        assert!(self.duration_secs > 0.0, "duration must be positive");
        assert!(self.warmup_secs >= 0.0, "warmup must be non-negative");
        assert!(self.clients > 0, "need at least one client");
        assert!(
            self.sample_window_secs > 0.0,
            "sample window must be positive"
        );
    }
}

/// One throughput sample over a fixed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// Window end time in simulated seconds since the measurement began.
    pub time_secs: f64,
    /// Operations completed per second in the window.
    pub ops_per_sec: f64,
}

/// The measured outcome of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Operations completed during the measured (post-warm-up) period.
    pub total_ops: u64,
    /// Reads completed.
    pub read_ops: u64,
    /// Writes (inserts + updates) completed.
    pub write_ops: u64,
    /// Measured duration in simulated seconds.
    pub duration_secs: f64,
    /// Mean throughput in operations per second — the paper's performance
    /// metric (§2.3).
    pub avg_ops_per_sec: f64,
    /// Mean operation latency in simulated milliseconds.
    pub mean_latency_ms: f64,
    /// 99th-percentile operation latency in simulated milliseconds.
    pub p99_latency_ms: f64,
    /// Throughput per sample window (10 s by default), for the
    /// fluctuation analysis of Figure 10.
    pub samples: Vec<ThroughputSample>,
}

impl BenchmarkResult {
    /// Observed read ratio of completed operations.
    pub fn observed_read_ratio(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.read_ops as f64 / self.total_ops as f64
        }
    }

    /// Coefficient of variation of the per-window throughput — the
    /// fluctuation metric used to contrast ScyllaDB with Cassandra.
    pub fn throughput_cv(&self) -> f64 {
        let xs: Vec<f64> = self.samples.iter().map(|s| s.ops_per_sec).collect();
        if xs.len() < 2 {
            return 0.0;
        }
        let mean = rafiki_stats::descriptive::mean(&xs);
        if mean == 0.0 {
            return 0.0;
        }
        rafiki_stats::descriptive::population_variance(&xs).sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> BenchmarkResult {
        BenchmarkResult {
            total_ops: 1_000,
            read_ops: 700,
            write_ops: 300,
            duration_secs: 10.0,
            avg_ops_per_sec: 100.0,
            mean_latency_ms: 1.0,
            p99_latency_ms: 4.0,
            samples: vec![
                ThroughputSample {
                    time_secs: 5.0,
                    ops_per_sec: 90.0,
                },
                ThroughputSample {
                    time_secs: 10.0,
                    ops_per_sec: 110.0,
                },
            ],
        }
    }

    #[test]
    fn observed_read_ratio_computed() {
        assert!((sample_result().observed_read_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn throughput_cv_of_two_samples() {
        // mean 100, population sd 10 -> CV 0.1
        assert!((sample_result().throughput_cv() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cv_degenerate_cases() {
        let mut r = sample_result();
        r.samples.truncate(1);
        assert_eq!(r.throughput_cv(), 0.0);
    }

    #[test]
    fn spec_validation() {
        BenchmarkSpec::default().validate();
    }

    #[test]
    #[should_panic]
    fn spec_rejects_zero_clients() {
        BenchmarkSpec {
            clients: 0,
            ..BenchmarkSpec::default()
        }
        .validate();
    }
}
