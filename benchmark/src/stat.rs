//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! selector, and the geometric mean.

/// Sorts a sample in place (timings are never NaN).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// The `q`-quantile of a **sorted**, non-empty sample by the nearest-rank
/// definition: the smallest value whose rank reaches `ceil(q * n)`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of a non-empty sample (mean of the two middle values when
/// the count is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median over the samples not marked `stolen` (see
/// `common::Region::stolen`); over all of them when that leaves none.
pub fn median_undisturbed(xs: &[f64], stolen: &[bool]) -> f64 {
    let kept: Vec<f64> = xs
        .iter()
        .zip(stolen)
        .filter(|(_, &s)| !s)
        .map(|(&x, _)| x)
        .collect();
    median(if kept.is_empty() { xs } else { &kept })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The percentiles a timing may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [0.75, 0.90, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`; `None` when even the lowest has
/// fewer (report the median alone).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|&q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + 10
    })
}

/// "`n` samples, tail = pQ" for a run's notes: every timing states its
/// sample count, and says so when the workload's fixed tail percentile
/// `q` has fewer than ten of them beyond it.
pub fn tail_note(n: usize, q: f64) -> String {
    let supported = tail_percentile(n).is_some_and(|best| best >= q);
    let caveat = if supported {
        ""
    } else {
        " (fewer than ten samples beyond it)"
    };
    format!("{n} samples, tail = p{}{caveat}", (q * 1e4).round() / 1e2)
}

/// Geometric mean of positive values.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile_is_not_the_maximum() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn stolen_samples_are_left_out_unless_all_are() {
        let xs = [1.0, 2.0, 30.0, 40.0];
        assert_eq!(median_undisturbed(&xs, &[false; 4]), 16.0);
        assert_eq!(median_undisturbed(&xs, &[false, false, true, true]), 1.5);
        assert_eq!(median_undisturbed(&xs, &[true; 4]), 16.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75)); // rank 30, 10 beyond
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90)); // rank 90, 10 beyond
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1_000), Some(0.99)); // rank 990
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999)); // rank 9990
        assert_eq!(tail_percentile(5_000_000), Some(0.999));
    }

    #[test]
    fn tail_note_admits_a_thin_tail() {
        assert_eq!(tail_note(20_000, 0.999), "20000 samples, tail = p99.9");
        assert_eq!(
            tail_note(11, 0.75),
            "11 samples, tail = p75 (fewer than ten samples beyond it)"
        );
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.41, 1.41, 1.41]) - 1.41).abs() < 1e-12);
        // Below the arithmetic mean whenever the values differ.
        assert!(geometric_mean(&[1.0, 2.0, 4.0]) < 7.0 / 3.0);
    }
}
