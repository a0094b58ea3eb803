//! Workload characterization (§3.3): extracting the read ratio and the
//! key-reuse-distance distribution from an observed operation stream, plus
//! the stationarity check Rafiki uses to pick the RR window length.

use crate::op::{Key, Operation};
use rafiki_stats::dist::Exponential;
use rafiki_stats::StatsError;
use std::collections::HashMap;

/// The two workload features Rafiki feeds to its surrogate pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Characterization {
    /// Fraction of reads.
    pub read_ratio: f64,
    /// Mean key-reuse distance, from the exponential MLE fit. `None` when
    /// no key was ever re-accessed.
    pub krd_mean: Option<f64>,
    /// Number of operations characterized.
    pub operations: usize,
}

/// Computes the read ratio of an operation slice. Returns 0 for empty input.
pub fn read_ratio(ops: &[Operation]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let reads = ops.iter().filter(|o| !o.kind.is_write()).count();
    reads as f64 / ops.len() as f64
}

/// Read ratio per consecutive window of `window_ops` operations — the
/// discrete analogue of the paper's 15-minute RR series. The trailing
/// partial window is included when it has at least half the window size.
///
/// # Panics
///
/// Panics when `window_ops == 0`.
pub fn windowed_read_ratio(ops: &[Operation], window_ops: usize) -> Vec<f64> {
    assert!(window_ops > 0, "window must be positive");
    let mut out = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let end = (at + window_ops).min(ops.len());
        if end - at > window_ops / 2 {
            out.push(read_ratio(&ops[at..end]));
        }
        at = end;
    }
    out
}

/// Measures every observed key-reuse distance: for each access to a key
/// previously accessed `d` operations earlier, yields `d`.
pub fn reuse_distances(ops: &[Operation]) -> Vec<f64> {
    let mut last_seen: HashMap<Key, usize> = HashMap::new();
    let mut distances = Vec::new();
    for (t, op) in ops.iter().enumerate() {
        if let Some(prev) = last_seen.insert(op.key, t) {
            distances.push((t - prev) as f64);
        }
    }
    distances
}

/// Fits the exponential KRD model over an operation stream, as the paper
/// does over its full 4-day trace.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when no key is ever re-accessed.
pub fn fit_krd(ops: &[Operation]) -> Result<Exponential, StatsError> {
    Exponential::fit_mle(&reuse_distances(ops))
}

/// Characterizes an operation stream: RR plus fitted KRD.
pub fn characterize(ops: &[Operation]) -> Characterization {
    Characterization {
        read_ratio: read_ratio(ops),
        krd_mean: fit_krd(ops).ok().map(|e| e.mean()),
        operations: ops.len(),
    }
}

/// Tests whether the RR statistic is stationary at a given window size:
/// the paper picks the window "such that the RR statistic is stationary"
/// (§3.3). We call the series stationary when the standard deviation of
/// per-window RR in the first half differs from the second half by at most
/// `tolerance`, and the half-means agree within `tolerance`.
pub fn is_rr_stationary(window_rrs: &[f64], tolerance: f64) -> bool {
    if window_rrs.len() < 4 {
        return false;
    }
    let mid = window_rrs.len() / 2;
    let (a, b) = window_rrs.split_at(mid);
    let mean = rafiki_stats::descriptive::mean;
    let sd = |xs: &[f64]| rafiki_stats::descriptive::population_variance(xs).sqrt();
    (mean(a) - mean(b)).abs() <= tolerance && (sd(a) - sd(b)).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadGenerator, WorkloadSpec};
    use crate::op::OperationSource;

    fn ops_of(rr: f64, n: usize, seed: u64) -> Vec<Operation> {
        let mut gen = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(rr), seed);
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn read_ratio_recovers_spec() {
        let ops = ops_of(0.65, 20_000, 1);
        assert!((read_ratio(&ops) - 0.65).abs() < 0.02);
        assert_eq!(read_ratio(&[]), 0.0);
    }

    #[test]
    fn windowed_rr_tracks_changes() {
        let mut ops = ops_of(0.9, 5_000, 2);
        ops.extend(ops_of(0.1, 5_000, 3));
        let rrs = windowed_read_ratio(&ops, 1_000);
        assert_eq!(rrs.len(), 10);
        assert!(rrs[..5].iter().all(|&r| r > 0.8));
        assert!(rrs[5..].iter().all(|&r| r < 0.2));
    }

    #[test]
    fn reuse_distance_measurement_is_exact() {
        use crate::op::{Key, Operation};
        let ops = vec![
            Operation::read(Key(1)),
            Operation::read(Key(2)),
            Operation::read(Key(1)), // distance 2
            Operation::read(Key(2)), // distance 2
            Operation::read(Key(1)), // distance 2
        ];
        assert_eq!(reuse_distances(&ops), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn krd_fit_recovers_generator_scale() {
        // Small KRD so most accesses reuse via the history mechanism.
        let spec = WorkloadSpec {
            krd_mean: 16.0,
            initial_keys: 1_000_000, // large keyspace: uniform fallback rarely re-hits
            ..WorkloadSpec::with_read_ratio(1.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 4);
        let ops: Vec<Operation> = (0..50_000).map(|_| gen.next_op()).collect();
        // The distance distribution is the scheduled exponential (mean 16,
        // median ~11) plus a long tail of accidental uniform re-hits; the
        // median-based estimate `median / ln 2` recovers the bulk's mean.
        let distances = reuse_distances(&ops);
        let median = rafiki_stats::descriptive::percentile(&distances, 50.0);
        let est_mean = median / std::f64::consts::LN_2;
        assert!(
            (8.0..40.0).contains(&est_mean),
            "median-estimated KRD mean {est_mean}"
        );
        // The MLE fit still produces a usable (tail-inflated) model.
        assert!(fit_krd(&ops).unwrap().mean() >= est_mean * 0.5);
    }

    #[test]
    fn characterize_bundles_both_features() {
        let ops = ops_of(0.4, 10_000, 5);
        let c = characterize(&ops);
        assert!((c.read_ratio - 0.4).abs() < 0.03);
        assert!(c.krd_mean.is_some());
        assert_eq!(c.operations, 10_000);
    }

    #[test]
    fn no_reuse_means_no_krd() {
        use crate::op::{Key, Operation};
        let ops: Vec<Operation> = (0..100).map(|i| Operation::read(Key(i))).collect();
        assert!(fit_krd(&ops).is_err());
        assert_eq!(characterize(&ops).krd_mean, None);
    }

    #[test]
    fn stationarity_detects_stable_series() {
        let stable: Vec<f64> = (0..40).map(|i| 0.6 + 0.01 * ((i % 3) as f64)).collect();
        assert!(is_rr_stationary(&stable, 0.05));
        let mut drifting: Vec<f64> = (0..20).map(|_| 0.2).collect();
        drifting.extend((0..20).map(|_| 0.9));
        assert!(!is_rr_stationary(&drifting, 0.05));
        assert!(!is_rr_stationary(&[0.5, 0.5], 0.05));
    }
}
