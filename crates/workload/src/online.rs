//! Streaming workload characterization for the online middleware: the
//! bounded-memory counterpart of [`crate::characterize`].
//!
//! The paper's middleware watches the *live* operation stream, computes
//! the read ratio per 15-minute window and maintains the key-reuse-distance
//! (KRD) fit continuously (§3.3) — it cannot buffer a 4-day trace in
//! memory. [`OnlineCharacterizer`] therefore keeps only:
//!
//! - O(1) counters for the global and per-window read ratios;
//! - a *bounded* last-seen-position map for KRD measurement, with exact
//!   least-recently-accessed eviction once `key_capacity` distinct keys
//!   are tracked (evicting the stalest key loses only reuse distances
//!   longer than the horizon the map can observe);
//! - running sum/count of observed distances — which is exactly the
//!   sufficient statistic of the exponential MLE the batch path fits
//!   ([`rafiki_stats::dist::Exponential::fit_mle`] estimates
//!   `lambda = 1/mean`), so while no key has been evicted the streaming
//!   KRD mean is *bit-identical* to the batch fit over the same ops.

use crate::characterize::Characterization;
use crate::op::{Key, Operation};
use std::collections::{BTreeMap, HashMap};

/// Summary of one closed characterization window, emitted by
/// [`OnlineCharacterizer::observe`] every `window_ops` operations — the
/// discrete analogue of the paper's 15-minute windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Zero-based window index.
    pub index: usize,
    /// Fraction of reads within the window.
    pub read_ratio: f64,
    /// Operations in the window (always the configured window size).
    pub operations: usize,
    /// Mean of the reuse distances *observed during this window*; `None`
    /// when no tracked key was re-accessed within the window.
    pub krd_mean: Option<f64>,
}

/// Incremental RR/KRD characterization over an unbounded operation
/// stream, in bounded memory.
///
/// # Example
///
/// ```
/// use rafiki_workload::online::OnlineCharacterizer;
/// use rafiki_workload::{Key, Operation};
///
/// let mut c = OnlineCharacterizer::new(4, 1024);
/// let ops = [
///     Operation::read(Key(1)),
///     Operation::read(Key(2)),
///     Operation::insert(Key(9), 64),
///     Operation::read(Key(1)), // closes the window; distance 3
/// ];
/// let mut summaries = ops.iter().filter_map(|op| c.observe(op));
/// let w = summaries.next().expect("window of 4 ops closed");
/// assert_eq!(w.index, 0);
/// assert_eq!(w.read_ratio, 0.75);
/// assert_eq!(w.krd_mean, Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct OnlineCharacterizer {
    window_ops: usize,
    key_capacity: usize,

    /// Stream position (1-based; the number of operations observed).
    position: u64,
    reads: u64,

    window_index: usize,
    window_seen: usize,
    window_reads: usize,
    window_distance_sum: f64,
    window_distance_count: u64,

    /// Last access position per tracked key.
    last_seen: HashMap<Key, u64>,
    /// Exact LRU index over `last_seen`: access positions are unique, so
    /// the smallest entry is always the least-recently-accessed key.
    by_position: BTreeMap<u64, Key>,

    distance_sum: f64,
    distance_count: u64,
    evictions: u64,
}

impl OnlineCharacterizer {
    /// Creates a characterizer closing a window every `window_ops`
    /// operations and tracking at most `key_capacity` distinct keys for
    /// KRD measurement.
    ///
    /// # Panics
    ///
    /// Panics when `window_ops == 0` or `key_capacity == 0`.
    pub fn new(window_ops: usize, key_capacity: usize) -> Self {
        assert!(window_ops > 0, "window must be positive");
        assert!(key_capacity > 0, "key capacity must be positive");
        OnlineCharacterizer {
            window_ops,
            key_capacity,
            position: 0,
            reads: 0,
            window_index: 0,
            window_seen: 0,
            window_reads: 0,
            window_distance_sum: 0.0,
            window_distance_count: 0,
            last_seen: HashMap::new(),
            by_position: BTreeMap::new(),
            distance_sum: 0.0,
            distance_count: 0,
            evictions: 0,
        }
    }

    /// Feeds one operation; returns the window summary when this
    /// operation closes a window.
    pub fn observe(&mut self, op: &Operation) -> Option<WindowSummary> {
        self.position += 1;
        let t = self.position;
        if !op.kind.is_write() {
            self.reads += 1;
            self.window_reads += 1;
        }
        match self.last_seen.insert(op.key, t) {
            Some(prev) => {
                let d = (t - prev) as f64;
                self.distance_sum += d;
                self.distance_count += 1;
                self.window_distance_sum += d;
                self.window_distance_count += 1;
                self.by_position.remove(&prev);
                self.by_position.insert(t, op.key);
            }
            None => {
                self.by_position.insert(t, op.key);
                if self.last_seen.len() > self.key_capacity {
                    let (_, victim) = self
                        .by_position
                        .pop_first()
                        .expect("capacity exceeded implies a tracked key");
                    self.last_seen.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.window_seen += 1;
        if self.window_seen < self.window_ops {
            return None;
        }
        let summary = WindowSummary {
            index: self.window_index,
            read_ratio: self.window_reads as f64 / self.window_ops as f64,
            operations: self.window_ops,
            krd_mean: (self.window_distance_count > 0)
                .then(|| self.window_distance_sum / self.window_distance_count as f64),
        };
        self.window_index += 1;
        self.window_seen = 0;
        self.window_reads = 0;
        self.window_distance_sum = 0.0;
        self.window_distance_count = 0;
        Some(summary)
    }

    /// Operations observed so far.
    pub fn operations(&self) -> u64 {
        self.position
    }

    /// Configured operations per window.
    pub fn window_ops(&self) -> usize {
        self.window_ops
    }

    /// Read ratio over the whole stream (0 before any operation).
    pub fn read_ratio(&self) -> f64 {
        if self.position == 0 {
            0.0
        } else {
            self.reads as f64 / self.position as f64
        }
    }

    /// Streaming KRD mean over the whole stream — the exponential-MLE
    /// mean over every observed reuse distance. `None` while no tracked
    /// key has been re-accessed.
    pub fn krd_mean(&self) -> Option<f64> {
        (self.distance_count > 0).then(|| self.distance_sum / self.distance_count as f64)
    }

    /// Reads observed over the whole stream. Together with
    /// [`operations`](Self::operations) this is the sufficient statistic
    /// for merging read ratios across shards exactly:
    /// `Σreads / Σoperations`.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Sum of observed reuse distances over the whole stream. Together
    /// with [`distances_observed`](Self::distances_observed) this merges
    /// KRD means across shards exactly: `Σdistance_sum / Σdistance_count`.
    pub fn distance_sum(&self) -> f64 {
        self.distance_sum
    }

    /// Number of reuse distances observed.
    pub fn distances_observed(&self) -> u64 {
        self.distance_count
    }

    /// Distinct keys currently tracked (bounded by the configured
    /// capacity).
    pub fn tracked_keys(&self) -> usize {
        self.last_seen.len()
    }

    /// Keys evicted from the last-seen map so far. While this is zero the
    /// streaming estimate is exactly the batch estimate.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whole-stream characterization snapshot, shaped like the batch
    /// [`crate::characterize::characterize`].
    pub fn characterization(&self) -> Characterization {
        Characterization {
            read_ratio: self.read_ratio(),
            krd_mean: self.krd_mean(),
            operations: self.position as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize;
    use crate::generator::{WorkloadGenerator, WorkloadSpec};
    use crate::op::OperationSource;

    fn ops_of(rr: f64, n: usize, seed: u64) -> Vec<Operation> {
        let mut gen = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(rr), seed);
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn matches_batch_characterization_without_eviction() {
        let ops = ops_of(0.6, 20_000, 11);
        let mut online = OnlineCharacterizer::new(1_000, 1 << 20);
        for op in &ops {
            online.observe(op);
        }
        assert_eq!(online.evictions(), 0, "capacity must not be exceeded");
        let batch = characterize::characterize(&ops);
        let streamed = online.characterization();
        assert_eq!(streamed.operations, batch.operations);
        assert!((streamed.read_ratio - batch.read_ratio).abs() < 1e-12);
        let (s, b) = (streamed.krd_mean.unwrap(), batch.krd_mean.unwrap());
        assert!(
            (s - b).abs() / b < 1e-12,
            "streaming KRD {s} != batch KRD {b}"
        );
        assert_eq!(
            online.distances_observed() as usize,
            characterize::reuse_distances(&ops).len()
        );
    }

    #[test]
    fn window_series_matches_batch_windowed_rr() {
        let mut ops = ops_of(0.9, 5_000, 2);
        ops.extend(ops_of(0.1, 5_000, 3));
        let mut online = OnlineCharacterizer::new(1_000, 1 << 20);
        let summaries: Vec<WindowSummary> =
            ops.iter().filter_map(|op| online.observe(op)).collect();
        let batch = characterize::windowed_read_ratio(&ops, 1_000);
        assert_eq!(summaries.len(), batch.len());
        for (w, rr) in summaries.iter().zip(&batch) {
            assert!((w.read_ratio - rr).abs() < 1e-12, "window {}", w.index);
            assert_eq!(w.operations, 1_000);
        }
        assert!(summaries[..5].iter().all(|w| w.read_ratio > 0.8));
        assert!(summaries[5..].iter().all(|w| w.read_ratio < 0.2));
        assert_eq!(summaries.last().unwrap().index, 9);
    }

    #[test]
    fn memory_stays_bounded_under_eviction() {
        let spec = WorkloadSpec {
            initial_keys: 1_000_000,
            ..WorkloadSpec::with_read_ratio(1.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 7);
        let mut online = OnlineCharacterizer::new(1_000, 200);
        for _ in 0..30_000 {
            online.observe(&gen.next_op());
            assert!(online.tracked_keys() <= 200, "capacity violated");
        }
        assert!(online.evictions() > 0, "huge keyspace must evict");
        assert!(
            online.krd_mean().is_some(),
            "short-distance reuses survive eviction"
        );
    }

    #[test]
    fn eviction_preserves_short_distance_estimate() {
        // With KRD mean 64 and capacity 4096, essentially every scheduled
        // reuse lands while its key is still tracked, so the streaming
        // estimate stays close to the batch estimate despite evictions.
        // Reuse probability 1 keeps the stream in that scheduled regime:
        // with the default 0.5, the batch mean is dominated by rare
        // long-distance uniform-fallback collisions, making the ratio
        // below hostage to the tail realization of the RNG stream.
        let spec = WorkloadSpec {
            krd_mean: 64.0,
            initial_keys: 1_000_000,
            reuse_probability: 1.0,
            ..WorkloadSpec::with_read_ratio(1.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 13);
        let ops: Vec<Operation> = (0..50_000).map(|_| gen.next_op()).collect();
        let mut online = OnlineCharacterizer::new(1_000, 4_096);
        for op in &ops {
            online.observe(op);
        }
        let batch = characterize::fit_krd(&ops).unwrap().mean();
        let streamed = online.krd_mean().unwrap();
        // The bounded map can only *miss* long distances, so the streaming
        // mean sits at or below the batch mean, within the bulk tolerance.
        assert!(
            streamed <= batch * 1.01,
            "streamed {streamed} above batch {batch}"
        );
        assert!(
            streamed >= batch * 0.5,
            "streamed {streamed} lost the bulk of batch {batch}"
        );
    }

    #[test]
    fn no_reuse_means_no_krd() {
        let mut online = OnlineCharacterizer::new(10, 100);
        for i in 0..50 {
            online.observe(&Operation::read(Key(i)));
        }
        assert_eq!(online.krd_mean(), None);
        assert_eq!(online.characterization().krd_mean, None);
        assert_eq!(online.read_ratio(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = OnlineCharacterizer::new(0, 10);
    }
}
