//! Levenberg–Marquardt training with MacKay Bayesian regularization — the
//! algorithm behind MATLAB's `trainbr`, which the paper uses to fit its
//! surrogate (§3.6.2, §4.3).
//!
//! The regularized objective is `F(w) = β·E_D + α·E_W` with
//! `E_D = Σ (f(x_n) − y_n)²` and `E_W = Σ w_i²`. After each accepted LM
//! step the hyperparameters are re-estimated with the evidence framework:
//!
//! ```text
//! γ = W − 2α·tr(H⁻¹)          (effective number of parameters)
//! α = γ / (2 E_W)
//! β = (N − γ) / (2 E_D)
//! ```
//!
//! where `H ≈ 2β JᵀJ + 2α I` is the Gauss–Newton Hessian of `F`.

use crate::linalg::Matrix;
use crate::network::{ForwardCache, Network};

/// Why training stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Reached the epoch budget (the paper trains "until convergence or 200
    /// epochs, whichever comes first").
    MaxEpochs,
    /// Gradient infinity-norm fell below tolerance.
    GradientTolerance,
    /// The LM damping factor exceeded its maximum: no descent direction.
    MuOverflow,
    /// The objective improvement fell below the relative tolerance.
    Converged,
}

/// Hyperparameters for [`train_levenberg_marquardt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Epoch budget. The paper uses 200.
    pub max_epochs: usize,
    /// Initial LM damping μ.
    pub mu_init: f64,
    /// Multiplier applied to μ after a rejected step.
    pub mu_inc: f64,
    /// Multiplier applied to μ after an accepted step.
    pub mu_dec: f64,
    /// Training aborts when μ exceeds this value.
    pub mu_max: f64,
    /// Stop when the gradient infinity norm is below this.
    pub grad_tol: f64,
    /// Stop when the relative objective improvement is below this.
    pub f_tol: f64,
    /// Enable Bayesian re-estimation of α/β (`trainbr`); when false this is
    /// plain Levenberg–Marquardt on the sum of squared errors (`trainlm`).
    pub bayesian: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 200,
            mu_init: 5e-3,
            mu_inc: 10.0,
            mu_dec: 0.1,
            mu_max: 1e10,
            grad_tol: 1e-7,
            f_tol: 1e-10,
            bayesian: true,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Final sum of squared errors on the (scaled) training data.
    pub sse: f64,
    /// Final mean squared error.
    pub mse: f64,
    /// Final α (weight-decay strength). `0` for non-Bayesian runs.
    pub alpha: f64,
    /// Final β (data-fit strength). `1` for non-Bayesian runs.
    pub beta: f64,
    /// Effective number of parameters γ; equals the raw parameter count
    /// for non-Bayesian runs.
    pub effective_params: f64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Trains `net` in place on pre-scaled inputs `x` (one sample per row) and
/// targets `y`.
///
/// # Panics
///
/// Panics when `x.rows() != y.len()` or the dataset is empty.
pub fn train_levenberg_marquardt(
    net: &mut Network,
    x: &Matrix,
    y: &[f64],
    cfg: &TrainConfig,
) -> TrainReport {
    let n = x.rows();
    assert_eq!(n, y.len(), "sample/target count mismatch");
    assert!(n > 0, "cannot train on empty dataset");
    let w_count = net.num_params();

    let mut alpha = if cfg.bayesian { 1e-2 } else { 0.0 };
    let mut beta = 1.0;
    let mut mu = cfg.mu_init;
    let mut params = net.params();

    // One forward cache per sample: a trial step fills them while computing
    // residuals, and only an accepted step turns them into a Jacobian.
    let mut caches = vec![ForwardCache::default(); n];
    let mut residuals = forward_residuals(net, x, y, &mut caches);
    let mut jac = jacobian(net, x, &caches);
    // JᵀJ at the accepted point, shared by the Bayesian re-estimate and the
    // next epoch's Hessian.
    let mut gram = jac.gram();
    let mut ed: f64 = residuals.iter().map(|r| r * r).sum();
    let mut ew: f64 = params.iter().map(|w| w * w).sum();
    let mut f_obj = beta * ed + alpha * ew;
    let mut gamma = w_count as f64;

    let mut stop = StopReason::MaxEpochs;
    let mut epochs_done = 0;

    for epoch in 0..cfg.max_epochs {
        epochs_done = epoch + 1;
        // Gradient of F: 2β Jᵀ r + 2α w
        let jt_r = jac.matvec_t(&residuals);
        let grad: Vec<f64> = jt_r
            .iter()
            .zip(&params)
            .map(|(&jr, &w)| 2.0 * beta * jr + 2.0 * alpha * w)
            .collect();
        let gmax = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if gmax < cfg.grad_tol {
            stop = StopReason::GradientTolerance;
            break;
        }

        // Gauss-Newton Hessian of F (without damping).
        let mut hessian = gram.clone();
        hessian.scale(2.0 * beta);
        hessian.add_diagonal(2.0 * alpha);

        // Inner damping loop.
        let mut accepted = false;
        while mu <= cfg.mu_max {
            let mut damped = hessian.clone();
            damped.add_diagonal(mu);
            let Some(chol) = damped.cholesky() else {
                mu *= cfg.mu_inc;
                continue;
            };
            let neg_g: Vec<f64> = grad.iter().map(|g| -g).collect();
            let delta = chol.solve(&neg_g);
            let trial: Vec<f64> = params.iter().zip(&delta).map(|(&p, &d)| p + d).collect();
            net.set_params(&trial);
            let r_new = forward_residuals(net, x, y, &mut caches);
            let ed_new: f64 = r_new.iter().map(|r| r * r).sum();
            let ew_new: f64 = trial.iter().map(|w| w * w).sum();
            let f_new = beta * ed_new + alpha * ew_new;
            if f_new < f_obj && f_new.is_finite() {
                let improvement = (f_obj - f_new) / f_obj.max(1e-300);
                params = trial;
                residuals = r_new;
                jac = jacobian(net, x, &caches);
                gram = jac.gram();
                ed = ed_new;
                ew = ew_new;
                f_obj = f_new;
                mu = (mu * cfg.mu_dec).max(1e-20);
                accepted = true;
                if improvement < cfg.f_tol {
                    stop = StopReason::Converged;
                }
                break;
            }
            mu *= cfg.mu_inc;
        }
        if !accepted {
            net.set_params(&params);
            stop = StopReason::MuOverflow;
            break;
        }
        if stop == StopReason::Converged {
            break;
        }

        if cfg.bayesian {
            // Re-estimate alpha/beta with the evidence framework, using the
            // Hessian at the accepted point.
            let mut h = gram.clone();
            h.scale(2.0 * beta);
            h.add_diagonal(2.0 * alpha);
            if let Some(chol) = h.cholesky() {
                let tr_inv = chol.inverse_trace();
                gamma = (w_count as f64 - 2.0 * alpha * tr_inv).clamp(1e-3, w_count as f64);
                alpha = (gamma / (2.0 * ew.max(1e-12))).min(1e6);
                let dof = (n as f64 - gamma).max(1e-3);
                beta = (dof / (2.0 * ed.max(1e-12))).min(1e9);
                f_obj = beta * ed + alpha * ew;
            }
        }
    }

    net.set_params(&params);
    TrainReport {
        epochs: epochs_done,
        sse: ed,
        mse: ed / n as f64,
        alpha,
        beta,
        effective_params: if cfg.bayesian { gamma } else { w_count as f64 },
        stop,
    }
}

/// Computes the residual vector `r_n = f(x_n) − y_n`, leaving sample n's
/// forward pass in `caches[n]`.
fn forward_residuals(
    net: &Network,
    x: &Matrix,
    y: &[f64],
    caches: &mut [ForwardCache],
) -> Vec<f64> {
    y.iter()
        .zip(caches.iter_mut())
        .enumerate()
        .map(|(s, (&y_s, cache))| net.forward_cached(x.row(s), cache) - y_s)
        .collect()
}

/// Builds the Jacobian `J[n][i] = ∂f(x_n)/∂w_i` from the forward passes
/// [`forward_residuals`] left in `caches` for the network's current parameters.
fn jacobian(net: &Network, x: &Matrix, caches: &[ForwardCache]) -> Matrix {
    let mut jac = Matrix::zeros(x.rows(), net.num_params());
    for (s, cache) in caches.iter().enumerate() {
        net.output_gradient(x.row(s), cache, jac.row_mut(s));
    }
    jac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem(f: impl Fn(f64, f64) -> f64) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let a = -1.0 + 2.0 * i as f64 / 9.0;
                let b = -1.0 + 2.0 * j as f64 / 9.0;
                rows.push(vec![a, b]);
                targets.push(f(a, b));
            }
        }
        (Matrix::from_rows(&rows), targets)
    }

    #[test]
    fn lm_fits_linear_function_exactly() {
        let (x, y) = toy_problem(|a, b| 0.3 * a - 0.7 * b + 0.1);
        let mut net = Network::new(2, &[], 42);
        let cfg = TrainConfig {
            bayesian: false,
            ..TrainConfig::default()
        };
        let report = train_levenberg_marquardt(&mut net, &x, &y, &cfg);
        assert!(report.mse < 1e-12, "mse = {}", report.mse);
    }

    #[test]
    fn lm_fits_nonlinear_surface() {
        let (x, y) = toy_problem(|a, b| (2.0 * a).tanh() * b + 0.5 * a * a);
        let mut net = Network::new(2, &[8], 7);
        let cfg = TrainConfig {
            bayesian: false,
            max_epochs: 300,
            ..TrainConfig::default()
        };
        let report = train_levenberg_marquardt(&mut net, &x, &y, &cfg);
        assert!(report.mse < 1e-3, "mse = {}", report.mse);
    }

    #[test]
    fn bayesian_regularization_controls_effective_params() {
        let (x, y) = toy_problem(|a, b| 0.5 * a + 0.2 * b);
        // Deliberately over-parameterized network on a linear target.
        let mut net = Network::new(2, &[14, 4], 3);
        let report = train_levenberg_marquardt(&mut net, &x, &y, &TrainConfig::default());
        let w = net.num_params() as f64;
        assert!(
            report.effective_params < w,
            "gamma {} should be below {} for a simple target",
            report.effective_params,
            w
        );
        assert!(report.mse < 1e-3, "mse = {}", report.mse);
        assert!(report.alpha > 0.0);
    }

    #[test]
    fn bayesian_generalizes_better_on_noisy_data() {
        // Train both variants on noisy samples of a smooth function and
        // compare error on a clean grid.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..40 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            rows.push(vec![a, b]);
            targets.push(a.tanh() + 0.3 * b + rng.gen_range(-0.1..0.1));
        }
        let x = Matrix::from_rows(&rows);

        let clean = toy_problem(|a, b| a.tanh() + 0.3 * b);
        let test_err = |net: &Network| -> f64 {
            let mut sse = 0.0;
            for i in 0..clean.0.rows() {
                let d = net.forward(clean.0.row(i)) - clean.1[i];
                sse += d * d;
            }
            sse / clean.1.len() as f64
        };

        let mut reg = Network::new(2, &[14, 4], 5);
        train_levenberg_marquardt(&mut reg, &x, &targets, &TrainConfig::default());
        let mut unreg = Network::new(2, &[14, 4], 5);
        let cfg = TrainConfig {
            bayesian: false,
            ..TrainConfig::default()
        };
        train_levenberg_marquardt(&mut unreg, &x, &targets, &cfg);

        let (e_reg, e_unreg) = (test_err(&reg), test_err(&unreg));
        assert!(
            e_reg < e_unreg * 1.5,
            "regularized {e_reg} should not be much worse than unregularized {e_unreg}"
        );
        assert!(e_reg < 0.05, "regularized test mse too high: {e_reg}");
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = toy_problem(|a, b| a * b);
        let run = || {
            let mut net = Network::new(2, &[6], 9);
            let r = train_levenberg_marquardt(&mut net, &x, &y, &TrainConfig::default());
            (net.params(), r.sse)
        };
        let (p1, s1) = run();
        let (p2, s2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
    }

    /// A deterministic 6 → [14, 4] → 1 problem of 40 rows: the shape of
    /// the tuner's surrogate at the size of a quick tuning job.
    fn golden_problem() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for s in 0..40 {
            let row: Vec<f64> = (0..6)
                .map(|d| (0.37 * (s * (d + 1)) as f64 + d as f64).sin())
                .collect();
            targets.push(
                (row[0] + 0.5 * row[1]).tanh() - 0.3 * row[2] * row[3]
                    + 0.2 * (3.0 * row[4]).sin()
                    + 0.1 * row[5]
                    + 0.05 * (17.0 * s as f64).sin(),
            );
            rows.push(row);
        }
        (Matrix::from_rows(&rows), targets)
    }

    /// Folds every parameter's bit pattern into one `u64`.
    fn params_fingerprint(net: &Network) -> u64 {
        net.params()
            .iter()
            .fold(0, |h, p| rafiki_stats::mix64(h ^ p.to_bits()))
    }

    /// (seed, bayesian, epochs, stop, sse, alpha, beta, effective_params,
    /// params fingerprint); the floats are `f64::to_bits`.
    type Golden = (u64, bool, usize, StopReason, u64, u64, u64, u64, u64);

    /// Pinned bits. The trainer's kernels must keep every scalar's term
    /// order (see [`crate::linalg`]), so a change that moves a bit here
    /// changed the arithmetic, not just its cost.
    #[rustfmt::skip]
    const GOLDEN: [Golden; 6] = [
        (3, true, 200, StopReason::MaxEpochs, 4490809630228746420, 4609401494665760294, 4718778674123058687, 4630681066532886344, 12444852425184484357),
        (3, false, 13, StopReason::GradientTolerance, 4313385546487598912, 0, 4607182418800017408, 4639939069214720000, 2306696108268915138),
        (17, true, 200, StopReason::MaxEpochs, 4496107708387944288, 4610476201020316764, 4718448395076181195, 4630505433476348642, 2438984476162107705),
        (17, false, 10, StopReason::GradientTolerance, 4284871073404534784, 0, 4607182418800017408, 4639939069214720000, 15136552713965234367),
        (20171211, true, 200, StopReason::MaxEpochs, 4491112939761555596, 4610270116834112414, 4722032248222560960, 4630566897052654298, 846626141322321831),
        (20171211, false, 200, StopReason::MaxEpochs, 4485739376885911327, 0, 4607182418800017408, 4639939069214720000, 3200275774593675413),
    ];

    #[test]
    fn training_matches_golden_bits() {
        let (x, y) = golden_problem();
        let mut got = Vec::new();
        for seed in [3, 17, 20171211] {
            for bayesian in [true, false] {
                let mut net = Network::new(6, &[14, 4], seed);
                let cfg = TrainConfig {
                    bayesian,
                    ..TrainConfig::default()
                };
                let r = train_levenberg_marquardt(&mut net, &x, &y, &cfg);
                got.push((
                    seed,
                    bayesian,
                    r.epochs,
                    r.stop,
                    r.sse.to_bits(),
                    r.alpha.to_bits(),
                    r.beta.to_bits(),
                    r.effective_params.to_bits(),
                    params_fingerprint(&net),
                ));
            }
        }
        assert_eq!(got, GOLDEN);
    }

    #[test]
    fn report_stop_reason_is_informative() {
        let (x, y) = toy_problem(|a, _| a);
        let mut net = Network::new(2, &[], 1);
        let cfg = TrainConfig {
            max_epochs: 1,
            bayesian: false,
            ..TrainConfig::default()
        };
        let r = train_levenberg_marquardt(&mut net, &x, &y, &cfg);
        assert_eq!(r.epochs, 1);
    }
}
