//! One-way analysis of variance (ANOVA), the parameter screen of Rafiki.
//!
//! §3.4 of the paper: each configuration parameter is varied individually
//! (all other parameters at defaults), the resulting throughputs form one
//! group per tested value, and parameters are ranked by the variance of the
//! per-value mean throughput. A "distinct drop" between the top-k and
//! top-(k+1) scores selects the key parameters.

use crate::descriptive::{mean, population_variance};
use crate::dist::FDist;
use crate::StatsError;

/// Result of a one-way ANOVA over groups of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct OneWayAnova {
    /// Between-group sum of squares.
    pub ss_between: f64,
    /// Within-group sum of squares.
    pub ss_within: f64,
    /// Between-group degrees of freedom (`k - 1`).
    pub df_between: usize,
    /// Within-group degrees of freedom (`n - k`).
    pub df_within: usize,
    /// The F statistic.
    pub f_statistic: f64,
    /// p-value for the F statistic.
    pub p_value: f64,
    /// Effect size η² = SSB / (SSB + SSW).
    pub eta_squared: f64,
}

impl OneWayAnova {
    /// Runs a one-way ANOVA over `groups` (one group per factor level).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] unless there are at least two
    /// groups and at least one more observation than groups (so that the
    /// within-group degrees of freedom are positive).
    pub fn from_groups(groups: &[Vec<f64>]) -> Result<Self, StatsError> {
        let k = groups.len();
        let n: usize = groups.iter().map(Vec::len).sum();
        if k < 2 {
            return Err(StatsError::NotEnoughData {
                what: "ANOVA groups",
                needed: 2,
                got: k,
            });
        }
        if n <= k {
            return Err(StatsError::NotEnoughData {
                what: "ANOVA observations",
                needed: k + 1,
                got: n,
            });
        }
        let all: Vec<f64> = groups.iter().flatten().copied().collect();
        let grand = mean(&all);
        let mut ssb = 0.0;
        let mut ssw = 0.0;
        for g in groups {
            if g.is_empty() {
                continue;
            }
            let gm = mean(g);
            ssb += g.len() as f64 * (gm - grand) * (gm - grand);
            ssw += g.iter().map(|x| (x - gm) * (x - gm)).sum::<f64>();
        }
        let df_b = k - 1;
        let df_w = n - k;
        let msb = ssb / df_b as f64;
        let msw = ssw / df_w as f64;
        let f_statistic = if msw == 0.0 {
            if msb == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            msb / msw
        };
        let p_value = if f_statistic.is_finite() {
            FDist::new(df_b as f64, df_w as f64)?.sf(f_statistic)
        } else {
            0.0
        };
        let eta_squared = if ssb + ssw == 0.0 {
            0.0
        } else {
            ssb / (ssb + ssw)
        };
        Ok(OneWayAnova {
            ss_between: ssb,
            ss_within: ssw,
            df_between: df_b,
            df_within: df_w,
            f_statistic,
            p_value,
            eta_squared,
        })
    }
}

/// The screening score for one configuration parameter: the spread of mean
/// throughput across its tested values. This is the quantity plotted in
/// Figure 5 of the paper ("standard deviation in throughput for the top 20
/// configuration parameters").
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterEffect {
    /// Parameter name.
    pub name: String,
    /// Standard deviation of per-value mean throughput.
    pub std_dev: f64,
    /// Variance of per-value mean throughput (`std_dev²`), the paper's
    /// `var(S1, S2, S3)` score.
    pub variance: f64,
}

impl ParameterEffect {
    /// Scores a parameter from one group of throughput samples per tested
    /// value: the groups are first collapsed to their means (`S1..Sk` in the
    /// paper's notation), then the population variance of those means is the
    /// score.
    pub fn from_group_means(name: impl Into<String>, groups: &[Vec<f64>]) -> Self {
        let means: Vec<f64> = groups.iter().map(|g| mean(g)).collect();
        let variance = population_variance(&means);
        ParameterEffect {
            name: name.into(),
            std_dev: variance.sqrt(),
            variance,
        }
    }
}

/// Sorts effects by descending standard deviation and selects the top-k
/// where `k` is chosen at the largest relative drop between consecutive
/// scores ("we find empirically that there is a distinct drop in the
/// variance when going from top-k to top-(k+1)", §3.4.1).
///
/// `min_keep`/`max_keep` bound the selection so a freak plateau cannot
/// select one parameter or all of them.
pub fn select_top_k_by_drop(
    effects: &[ParameterEffect],
    min_keep: usize,
    max_keep: usize,
) -> Vec<ParameterEffect> {
    assert!(min_keep >= 1 && min_keep <= max_keep, "invalid keep bounds");
    let mut sorted: Vec<ParameterEffect> = effects.to_vec();
    sorted.sort_by(|a, b| {
        b.std_dev
            .partial_cmp(&a.std_dev)
            .expect("NaN parameter effect")
    });
    if sorted.len() <= min_keep {
        return sorted;
    }
    let max_keep = max_keep.min(sorted.len());
    // Find the cut with the largest relative drop sd[k-1] / sd[k] within
    // [min_keep, max_keep].
    let mut best_k = min_keep;
    let mut best_ratio = 0.0f64;
    for k in min_keep..max_keep {
        // Drop between index k-1 (last kept) and k (first discarded).
        let kept = sorted[k - 1].std_dev;
        let next = sorted[k].std_dev;
        let ratio = if next <= f64::EPSILON {
            f64::INFINITY
        } else {
            kept / next
        };
        if ratio > best_ratio {
            best_ratio = ratio;
            best_k = k;
        }
    }
    sorted.truncate(best_k);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anova_detects_separated_groups() {
        let groups = vec![
            vec![10.0, 11.0, 9.0],
            vec![20.0, 21.0, 19.0],
            vec![30.0, 29.0, 31.0],
        ];
        let a = OneWayAnova::from_groups(&groups).unwrap();
        assert!(a.f_statistic > 100.0);
        assert!(a.p_value < 1e-6);
        assert!(a.eta_squared > 0.95);
    }

    #[test]
    fn anova_flat_groups_give_small_f() {
        let groups = vec![vec![10.0, 11.0, 9.0, 10.5], vec![10.2, 10.8, 9.4, 10.1]];
        let a = OneWayAnova::from_groups(&groups).unwrap();
        assert!(a.f_statistic < 2.0);
        assert!(a.p_value > 0.1);
    }

    #[test]
    fn anova_reference_value() {
        // Classic textbook example; F should match a hand computation.
        let groups = vec![
            vec![6.0, 8.0, 4.0, 5.0, 3.0, 4.0],
            vec![8.0, 12.0, 9.0, 11.0, 6.0, 8.0],
            vec![13.0, 9.0, 11.0, 8.0, 7.0, 12.0],
        ];
        let a = OneWayAnova::from_groups(&groups).unwrap();
        assert_eq!(a.df_between, 2);
        assert_eq!(a.df_within, 15);
        assert!(
            (a.f_statistic - 9.264).abs() < 0.05,
            "F = {}",
            a.f_statistic
        );
        assert!(a.p_value < 0.01);
    }

    #[test]
    fn anova_needs_enough_data() {
        assert!(OneWayAnova::from_groups(&[vec![1.0, 2.0]]).is_err());
        assert!(OneWayAnova::from_groups(&[vec![1.0], vec![2.0]]).is_err());
    }

    #[test]
    fn effect_score_is_variance_of_means() {
        let groups = vec![vec![10.0, 10.0], vec![20.0, 20.0]];
        let e = ParameterEffect::from_group_means("p", &groups);
        // Means 10 and 20, population variance 25, sd 5.
        assert!((e.variance - 25.0).abs() < 1e-12);
        assert!((e.std_dev - 5.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_selection_finds_the_drop() {
        let effects: Vec<ParameterEffect> = [
            ("a", 110.0),
            ("b", 100.0),
            ("c", 90.0),
            ("d", 85.0),
            ("e", 80.0),
            ("f", 8.0), // distinct drop here -> keep 5
            ("g", 7.0),
        ]
        .iter()
        .map(|&(n, sd)| ParameterEffect {
            name: n.to_string(),
            std_dev: sd,
            variance: sd * sd,
        })
        .collect();
        let top = select_top_k_by_drop(&effects, 2, 6);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].name, "a");
        assert_eq!(top[4].name, "e");
    }

    #[test]
    fn top_k_respects_bounds() {
        let effects: Vec<ParameterEffect> = (0..10)
            .map(|i| ParameterEffect {
                name: format!("p{i}"),
                std_dev: 100.0 - i as f64, // smooth decay, no clear drop
                variance: 0.0,
            })
            .collect();
        let top = select_top_k_by_drop(&effects, 3, 5);
        assert!(top.len() >= 3 && top.len() <= 5);
    }
}
