//! The ensemble surrogate model: several identically shaped networks
//! trained from different initial weights, pruned, and averaged.
//!
//! §3.6.2 of the paper: *"to improve generalizability, we initialize the
//! same neural network using different edge weights and utilize the average
//! across multiple (20) networks. Further, we utilize simple ensemble
//! pruning by removing the top 30% of the networks that produce the highest
//! reported training error. The final performance value would be an average
//! of 14 networks in this case."*

use crate::dataset::Dataset;
use crate::linalg::Matrix;
use crate::network::Network;
use crate::scaler::MinMaxScaler;
use crate::surrogate::Surrogate;
use crate::train::{train_levenberg_marquardt, TrainConfig, TrainReport};

/// Configuration for fitting a [`SurrogateModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Hidden layer sizes; the paper uses `[14, 4]`.
    pub hidden: Vec<usize>,
    /// Number of networks trained; the paper uses 20 (100 for the final
    /// GA experiments).
    pub ensemble_size: usize,
    /// Fraction of networks discarded (those with the highest training
    /// error); the paper prunes 30%.
    pub prune_fraction: f64,
    /// Optimizer settings.
    pub train: TrainConfig,
    /// Base RNG seed; network `i` is initialized from `seed + i`.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            hidden: vec![14, 4],
            ensemble_size: 20,
            prune_fraction: 0.30,
            train: TrainConfig::default(),
            seed: 0,
        }
    }
}

impl SurrogateConfig {
    /// A single-network configuration (the "1 Net" columns of Table 2).
    pub fn single_net(seed: u64) -> Self {
        SurrogateConfig {
            ensemble_size: 1,
            prune_fraction: 0.0,
            seed,
            ..SurrogateConfig::default()
        }
    }
}

/// Regression quality metrics in the units the paper reports (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionMetrics {
    /// Mean absolute percentage error, in percent.
    pub mape: f64,
    /// Root mean squared error, in target units (ops/s).
    pub rmse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// An ensemble of trained networks plus the input/target scalers — the
/// trained surrogate `fnet` of Equation (2).
#[derive(Debug, Clone)]
pub struct SurrogateModel {
    nets: Vec<Network>,
    x_scaler: MinMaxScaler,
    y_scaler: MinMaxScaler,
    reports: Vec<TrainReport>,
    pruned: usize,
}

impl SurrogateModel {
    /// Fits the surrogate on a dataset (unscaled feature/target units).
    /// Networks are trained in parallel through
    /// [`rafiki_stats::parallel_indexed`]: one worker per available core,
    /// workers claim member indices from a shared atomic counter (no
    /// lockstep batches, no stragglers) and borrow the scaled training data
    /// instead of cloning it per thread. Results come back in index order,
    /// so fitting is deterministic for a given `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics when `dataset` is empty or `cfg.ensemble_size == 0`, or when
    /// training a member panics.
    pub fn fit(dataset: &Dataset, cfg: &SurrogateConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot fit surrogate on empty dataset");
        assert!(cfg.ensemble_size > 0, "ensemble_size must be positive");
        let x_scaler = MinMaxScaler::fit(dataset.features());
        let y_matrix = Matrix::from_vec(dataset.len(), 1, dataset.targets().to_vec());
        let y_scaler = MinMaxScaler::fit(&y_matrix);
        let x = x_scaler.transform(dataset.features());
        let y: Vec<f64> = dataset
            .targets()
            .iter()
            .map(|&t| y_scaler.transform_scalar(t))
            .collect();

        let mut trained: Vec<(Network, TrainReport)> =
            rafiki_stats::parallel_indexed(cfg.ensemble_size, |i| {
                let seed = cfg.seed.wrapping_add(i as u64);
                let mut net = Network::new(x.cols(), &cfg.hidden, seed);
                let report = train_levenberg_marquardt(&mut net, &x, &y, &cfg.train);
                (net, report)
            })
            .expect("surrogate training thread panicked");

        // Prune the worst `prune_fraction` by training SSE.
        let keep = cfg.ensemble_size
            - ((cfg.ensemble_size as f64 * cfg.prune_fraction).floor() as usize)
                .min(cfg.ensemble_size - 1);
        trained.sort_by(|a, b| a.1.sse.partial_cmp(&b.1.sse).expect("NaN training error"));
        let pruned = trained.len() - keep;
        trained.truncate(keep);
        let (nets, reports): (Vec<_>, Vec<_>) = trained.into_iter().unzip();
        SurrogateModel {
            nets,
            x_scaler,
            y_scaler,
            reports,
            pruned,
        }
    }

    /// Number of networks kept after pruning.
    pub fn ensemble_size(&self) -> usize {
        self.nets.len()
    }

    /// Number of networks discarded by pruning.
    pub fn pruned_count(&self) -> usize {
        self.pruned
    }

    /// Training reports of the surviving networks (sorted by training error).
    pub fn reports(&self) -> &[TrainReport] {
        &self.reports
    }

    /// Predicts the target for one unscaled feature row. This is the 45 µs
    /// "surrogate call" of §4.8.
    ///
    /// # Panics
    ///
    /// Panics when the row dimension does not match the training data.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(
            row.len(),
            self.x_scaler.dims(),
            "feature dimension mismatch"
        );
        let mut scaled = row.to_vec();
        self.x_scaler.transform_row(&mut scaled);
        let sum: f64 = self.nets.iter().map(|n| n.forward(&scaled)).sum();
        self.y_scaler.inverse_scalar(sum / self.nets.len() as f64)
    }

    /// Predicts every row of an unscaled feature matrix with one
    /// matrix–matrix forward pass per ensemble member — the batch-first
    /// hot path the GA population evaluation runs on. Bit-identical to
    /// calling [`SurrogateModel::predict`] per row: the per-member sum
    /// accumulates in the same member order and each member's forward
    /// pass preserves the scalar accumulation order.
    ///
    /// # Panics
    ///
    /// Panics when the column count does not match the training data.
    pub fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        assert_eq!(
            rows.cols(),
            self.x_scaler.dims(),
            "feature dimension mismatch"
        );
        let scaled = self.x_scaler.transform(rows);
        let mut sums = vec![0.0f64; rows.rows()];
        for net in &self.nets {
            let preds = Surrogate::predict_batch(net, &scaled);
            for (s, p) in sums.iter_mut().zip(&preds) {
                *s += *p;
            }
        }
        let n = self.nets.len() as f64;
        sums.into_iter()
            .map(|s| self.y_scaler.inverse_scalar(s / n))
            .collect()
    }

    /// Predicts every row of a dataset (one batched pass).
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        self.predict_batch(data.features())
    }

    /// Evaluates prediction quality on a held-out dataset.
    pub fn evaluate(&self, test: &Dataset) -> RegressionMetrics {
        crate::surrogate::evaluate_on(self, test)
    }

    /// Per-sample percentage errors `(pred − actual)/actual · 100`, the
    /// quantity whose distribution Figures 8 and 9 plot.
    pub fn percent_errors(&self, test: &Dataset) -> Vec<f64> {
        crate::surrogate::percent_errors_on(self, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_dataset(n_per_axis: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                let a = i as f64 / (n_per_axis - 1) as f64;
                let b = j as f64 / (n_per_axis - 1) as f64;
                rows.push(vec![a * 100.0, b * 8.0]);
                // Non-linear response surface in "throughput" units.
                targets.push(
                    50_000.0
                        + 30_000.0 * (2.0 * a - 1.0).tanh() * b
                        + 10_000.0 * (a * std::f64::consts::PI).sin(),
                );
            }
        }
        Dataset::from_rows(&rows, targets)
    }

    fn quick_cfg(size: usize) -> SurrogateConfig {
        SurrogateConfig {
            hidden: vec![8],
            ensemble_size: size,
            prune_fraction: 0.30,
            train: TrainConfig {
                max_epochs: 60,
                ..TrainConfig::default()
            },
            seed: 42,
        }
    }

    #[test]
    fn ensemble_prunes_thirty_percent() {
        let data = smooth_dataset(6);
        let model = SurrogateModel::fit(&data, &quick_cfg(10));
        assert_eq!(model.ensemble_size(), 7);
        assert_eq!(model.pruned_count(), 3);
    }

    #[test]
    fn single_net_keeps_one() {
        let data = smooth_dataset(5);
        let model = SurrogateModel::fit(
            &data,
            &SurrogateConfig {
                hidden: vec![6],
                train: TrainConfig {
                    max_epochs: 40,
                    ..TrainConfig::default()
                },
                ..SurrogateConfig::single_net(1)
            },
        );
        assert_eq!(model.ensemble_size(), 1);
        assert_eq!(model.pruned_count(), 0);
    }

    #[test]
    fn surrogate_interpolates_accurately() {
        let data = smooth_dataset(7);
        let model = SurrogateModel::fit(&data, &quick_cfg(6));
        let metrics = model.evaluate(&data);
        assert!(metrics.mape < 5.0, "training MAPE {}", metrics.mape);
        assert!(metrics.r_squared > 0.9, "R2 {}", metrics.r_squared);
    }

    #[test]
    fn surrogate_generalizes_to_holdout() {
        let data = smooth_dataset(9);
        let (train, test) = data.split_random(0.25, 3);
        let model = SurrogateModel::fit(&train, &quick_cfg(8));
        let metrics = model.evaluate(&test);
        assert!(metrics.mape < 8.0, "holdout MAPE {}", metrics.mape);
    }

    #[test]
    fn fit_is_deterministic() {
        let data = smooth_dataset(5);
        let m1 = SurrogateModel::fit(&data, &quick_cfg(4));
        let m2 = SurrogateModel::fit(&data, &quick_cfg(4));
        let probe = vec![37.0, 5.0];
        assert_eq!(m1.predict(&probe), m2.predict(&probe));
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_scalar() {
        let data = smooth_dataset(5);
        let model = SurrogateModel::fit(&data, &quick_cfg(4));
        let rows = vec![vec![10.0, 2.0], vec![55.5, 7.1], vec![90.0, 0.5]];
        let batch = model.predict_batch(&Matrix::from_rows(&rows));
        for (b, row) in batch.iter().zip(&rows) {
            assert_eq!(*b, model.predict(row));
        }
    }

    /// `predict_batch` bits of a six-network, 30%-pruned fit: pinned for
    /// the same reason as the trainer's golden bits.
    const GOLDEN_PREDICTIONS: [u64; 6] = [
        4677100132509784180,
        4676850978573665649,
        4677713773725307909,
        4678856353897162218,
        4677697202186572725,
        4679740148958331892,
    ];

    #[test]
    fn fit_matches_golden_bits() {
        let data = smooth_dataset(6);
        let model = SurrogateModel::fit(&data, &quick_cfg(6));
        assert_eq!((model.ensemble_size(), model.pruned_count()), (5, 1));
        let rows = vec![
            vec![0.0, 0.0],
            vec![10.0, 2.0],
            vec![37.0, 5.0],
            vec![55.5, 7.1],
            vec![90.0, 0.5],
            vec![100.0, 8.0],
        ];
        let bits: Vec<u64> = model
            .predict_batch(&Matrix::from_rows(&rows))
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(bits, GOLDEN_PREDICTIONS);
    }

    #[test]
    fn percent_errors_have_expected_scale() {
        let data = smooth_dataset(6);
        let model = SurrogateModel::fit(&data, &quick_cfg(6));
        let errs = model.percent_errors(&data);
        assert_eq!(errs.len(), data.len());
        assert!(errs.iter().all(|e| e.abs() < 50.0));
    }
}
