//! Histograms: fixed-bin ([`Histogram`], used to regenerate Figures 8
//! and 9 of the paper — distribution of surrogate prediction errors for
//! unseen configurations and unseen workloads) and log-linear streaming
//! ([`StreamingHistogram`], used by the benchmark harness to compute
//! latency percentiles without retaining or sorting the full sample
//! vector).

use crate::StatsError;

/// A histogram with equally sized bins over `[lo, hi)`; values outside the
/// range are clamped into the first/last bin so that every observation is
/// counted (matching how the paper's ±20% error plots bucket outliers).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] when `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 || lo >= hi {
            return Err(StatsError::Domain {
                what: "histogram range/bins",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Adds one observation (clamped into range).
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let idx = if x < self.lo {
            0
        } else {
            (((x - self.lo) / w) as usize).min(bins - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= bins()`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// `(bin_center, count)` pairs, ready for plotting.
    pub fn centers(&self) -> Vec<(f64, u64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * w, c))
            .collect()
    }

    /// Fraction of observations whose bin center lies within `[-b, b]`.
    /// Used to report "most projections lie in the |5|% range" style claims.
    pub fn mass_within(&self, b: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let inside: u64 = self
            .centers()
            .iter()
            .filter(|(c, _)| c.abs() <= b)
            .map(|&(_, n)| n)
            .sum();
        inside as f64 / self.total as f64
    }

    /// Renders a small ASCII bar chart (one line per bin).
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (center, count) in self.centers() {
            let bar = (count as usize * width) / max as usize;
            out.push_str(&format!(
                "{center:>8.2} | {:<width$} {count}\n",
                "#".repeat(bar),
                width = width
            ));
        }
        out
    }
}

/// Sub-bucket resolution of [`StreamingHistogram`]: each power-of-two
/// range is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantile error at `2^-(SUB_BITS + 1)` (≤ 0.4%).
const SUB_BITS: u32 = 7;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// An HDR-style log-linear histogram over non-negative integers
/// (latencies in nanoseconds, in the benchmark harness).
///
/// Values below `2^7` are recorded exactly; above that, each
/// power-of-two range `[2^e, 2^(e+1))` is split into 128 equal
/// sub-buckets, so any reported quantile is within 0.4% of the true
/// order statistic. Recording is O(1) and quantile extraction is a
/// single cumulative walk — no per-sample storage, no sort. The exact
/// minimum, maximum, and sum are tracked on the side, so `mean()` and
/// the extreme quantiles are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = ((value >> shift) & (SUB_COUNT - 1)) as usize;
        ((((exp - SUB_BITS) as usize) + 1) << SUB_BITS) + sub
    }

    /// The midpoint of bucket `idx`'s value range (exact for the linear
    /// buckets below `2^7`).
    fn bucket_midpoint(idx: usize) -> u64 {
        if idx < SUB_COUNT as usize {
            return idx as u64;
        }
        let group = (idx >> SUB_BITS) as u32; // >= 1
        let shift = group - 1;
        let sub = (idx as u64) & (SUB_COUNT - 1);
        let lo = (SUB_COUNT + sub) << shift;
        lo + (1u64 << shift) / 2
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded values (zero when empty). Exposed for
    /// Prometheus-style `_sum` exposition, where the scraper derives
    /// rates from the running sum.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        Some(self.sum as f64 / self.total as f64)
    }

    /// Exact maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Merges another histogram into this one. Because both sides share
    /// the same fixed bucket layout, merging is exact: the result is
    /// indistinguishable from having recorded every observation of both
    /// histograms into one. Used to aggregate per-client latency
    /// histograms into the `stats` view of the serving daemon.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 < q <= 1`) by the nearest-rank definition:
    /// the smallest recorded value whose cumulative count reaches
    /// `ceil(q * total)`. For `n = 100` and `q = 0.99` this is the 99th
    /// smallest value — **not** the maximum (the off-by-one that
    /// `(n as f64 * q) as usize` indexing commits). Approximated to
    /// within one sub-bucket (≤ 0.4% relative error); the top rank
    /// returns the exact maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == self.total {
            return Some(self.max);
        }
        let mut cumulative = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(Self::bucket_midpoint(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.extend([0.5, 1.5, 9.9, 5.0, 4.999]);
        assert_eq!(h.count(0), 2); // 0.5, 1.5
        assert_eq!(h.count(2), 2); // 4.999, 5.0
        assert_eq!(h.count(4), 1); // 9.9
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = Histogram::new(-1.0, 1.0, 4).unwrap();
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 1);
    }

    #[test]
    fn centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4).unwrap();
        let centers: Vec<f64> = h.centers().iter().map(|&(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn mass_within_band() {
        let mut h = Histogram::new(-10.0, 10.0, 20).unwrap();
        for _ in 0..8 {
            h.add(0.1);
        }
        h.add(9.0);
        h.add(-9.0);
        assert!((h.mass_within(5.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(Histogram::new(0.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3).unwrap();
        h.extend([0.5, 1.5, 1.6, 2.5]);
        let s = h.render_ascii(10);
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn streaming_buckets_are_monotone_and_midpoints_consistent() {
        // Bucket index must be non-decreasing in the value, and each
        // value's bucket midpoint must be within half a bucket width.
        let mut prev = 0usize;
        for v in (0u64..100_000).step_by(37).chain([u64::MAX / 2, u64::MAX]) {
            let idx = StreamingHistogram::bucket_of(v);
            assert!(idx >= prev || v < 37, "bucket order broke at {v}");
            prev = prev.max(idx);
            let mid = StreamingHistogram::bucket_midpoint(idx);
            let tolerance = (v / 128).max(1);
            assert!(
                mid.abs_diff(v) <= tolerance,
                "midpoint {mid} too far from {v}"
            );
        }
    }

    #[test]
    fn streaming_small_values_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in [0u64, 1, 5, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.2), Some(0));
        assert_eq!(h.quantile(0.6), Some(5));
        assert_eq!(h.quantile(1.0), Some(127));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(127));
    }

    #[test]
    fn streaming_p99_of_1_to_100_is_99_not_100() {
        // The known-distribution check from the nearest-rank definition:
        // ranks 1..=100 in milliseconds-as-nanoseconds; p99 must select
        // the 99th value, not the max.
        let mut h = StreamingHistogram::new();
        for ms in 1..=100u64 {
            h.record(ms * 1_000_000);
        }
        let p99 = h.quantile(0.99).unwrap();
        let err = (p99 as f64 - 99.0e6).abs() / 99.0e6;
        assert!(err < 0.004, "p99 {p99} deviates {err:.4} from 99 ms");
        assert!(p99 < 100_000_000, "p99 selected the max");
        assert_eq!(h.quantile(1.0), Some(100_000_000));
        let mean = h.mean().unwrap();
        assert!((mean - 50.5e6).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn streaming_quantiles_track_exact_within_error_bound() {
        let mut h = StreamingHistogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 7_777_777).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for &q in &[0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = h.quantile(q).unwrap();
            let tolerance = (exact / 128).max(1);
            assert!(
                approx.abs_diff(exact) <= tolerance,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn streaming_merge_of_halves_equals_whole() {
        // Counts, totals, extremes and every interesting quantile of
        // merge(first half, second half) must equal the histogram of the
        // whole stream.
        let values: Vec<u64> = (0..9_999u64)
            .map(|i| (i * 2_654_435_761) % 5_000_000)
            .collect();
        let mut whole = StreamingHistogram::new();
        let mut first = StreamingHistogram::new();
        let mut second = StreamingHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < values.len() / 2 {
                first.record(v);
            } else {
                second.record(v);
            }
        }
        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(merged, whole, "merge must be bucket-exact");
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.mean(), whole.mean());
        for &q in &[0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn streaming_merge_with_empty_is_identity() {
        let mut h = StreamingHistogram::new();
        h.record(42);
        h.record(7);
        let snapshot = h.clone();
        h.merge(&StreamingHistogram::new());
        assert_eq!(h, snapshot);
        let mut empty = StreamingHistogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn streaming_merge_of_two_empties_stays_usable() {
        // The empty-histogram min sentinel (u64::MAX) must not leak
        // through a merge of two empties into later recordings.
        let mut a = StreamingHistogram::new();
        a.merge(&StreamingHistogram::new());
        assert_eq!(a.total(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.quantile(0.5), None);
        a.record(9);
        assert_eq!(a.min(), Some(9));
        assert_eq!(a.max(), Some(9));
    }

    #[test]
    fn streaming_merge_handles_mismatched_bucket_arrays() {
        // A histogram of tiny values has a short bucket array; one that
        // saw u64::MAX has the longest possible. Merging must work in
        // both directions and agree with recording the union directly.
        let mut small = StreamingHistogram::new();
        small.record(3);
        small.record(100);
        let mut huge = StreamingHistogram::new();
        huge.record(u64::MAX);
        huge.record(1 << 40);

        let mut union = StreamingHistogram::new();
        for v in [3, 100, u64::MAX, 1 << 40] {
            union.record(v);
        }
        let mut small_into_huge = huge.clone();
        small_into_huge.merge(&small);
        let mut huge_into_small = small.clone();
        huge_into_small.merge(&huge);
        assert_eq!(small_into_huge, union);
        assert_eq!(huge_into_small, union);
        assert_eq!(union.min(), Some(3));
        assert_eq!(union.max(), Some(u64::MAX));
        assert_eq!(union.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn streaming_merge_accumulates_the_exact_sum() {
        // `sum` is u128 so even repeated u64::MAX observations merge
        // without overflow, keeping `_sum` exposition and mean() exact.
        let mut a = StreamingHistogram::new();
        a.record(u64::MAX);
        a.record(u64::MAX);
        let mut b = StreamingHistogram::new();
        b.record(1);
        b.merge(&a);
        assert_eq!(b.sum(), 2 * (u64::MAX as u128) + 1);
        assert_eq!(b.total(), 3);
        let expected_mean = (2.0 * u64::MAX as f64 + 1.0) / 3.0;
        assert!((b.mean().unwrap() - expected_mean).abs() < 1e3);
    }

    #[test]
    fn streaming_empty_histogram_reports_none() {
        let h = StreamingHistogram::new();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.total(), 0);
    }
}
