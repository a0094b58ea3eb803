//! Descriptive statistics: mean, variance, percentiles, and the regression
//! quality metrics (MAPE, RMSE, R²) reported in Table 2 of the paper.

use crate::StatsError;

/// Arithmetic mean. Returns `0.0` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (divides by `n - 1`).
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when fewer than two observations
/// are supplied.
pub fn sample_variance(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData {
            what: "sample variance",
            needed: 2,
            got: xs.len(),
        });
    }
    let m = mean(xs);
    let ss = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Unbiased sample standard deviation.
///
/// # Errors
///
/// Propagates the error from [`sample_variance`].
pub fn sample_std_dev(xs: &[f64]) -> Result<f64, StatsError> {
    sample_variance(xs).map(f64::sqrt)
}

/// Population variance (divides by `n`). Returns `0.0` for fewer than two
/// samples, matching the convention the paper's ANOVA scoring uses when a
/// parameter only admits one value.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated percentile, `p ∈ [0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile requires p in [0,100]"
    );
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Mean absolute percentage error between predictions and targets, in
/// percent (e.g. `7.5` for 7.5%). Target entries equal to zero are skipped.
pub fn mape(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mape length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&p, &a) in predicted.iter().zip(actual) {
        if a != 0.0 {
            sum += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// Root-mean-square error.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let ss = predicted
        .iter()
        .zip(actual)
        .map(|(&p, &a)| (p - a) * (p - a))
        .sum::<f64>();
    (ss / predicted.len() as f64).sqrt()
}

/// Coefficient of determination R². Can be negative for models worse than
/// predicting the mean.
pub fn r_squared(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "r_squared length mismatch");
    let m = mean(actual);
    let ss_tot = actual.iter().map(|&a| (a - m) * (a - m)).sum::<f64>();
    let ss_res = predicted
        .iter()
        .zip(actual)
        .map(|(&p, &a)| (a - p) * (a - p))
        .sum::<f64>();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased standard deviation (0 when n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] for empty input.
    pub fn of(xs: &[f64]) -> Result<Self, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughData {
                what: "summary",
                needed: 1,
                got: 0,
            });
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: sample_std_dev(xs).unwrap_or(0.0),
            min,
            median: percentile(xs, 50.0),
            max,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} med={:.2} max={:.2}",
            self.n, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((population_variance(&xs) - 4.0).abs() < 1e-12);
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_requires_two_points() {
        assert!(sample_variance(&[1.0]).is_err());
        assert_eq!(population_variance(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let pred = [110.0, 50.0];
        let act = [100.0, 0.0];
        assert!((mape(&pred, &act) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_and_r2() {
        let act = [1.0, 2.0, 3.0, 4.0];
        let perfect = act;
        assert_eq!(rmse(&perfect, &act), 0.0);
        assert_eq!(r_squared(&perfect, &act), 1.0);
        let mean_model = [2.5, 2.5, 2.5, 2.5];
        assert!((r_squared(&mean_model, &act)).abs() < 1e-12);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 3.0, 5.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!(Summary::of(&[]).is_err());
    }
}
