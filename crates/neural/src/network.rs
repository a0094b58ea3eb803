//! Feed-forward regression network with a single output and Jacobian
//! computation for Levenberg–Marquardt training.
//!
//! The paper's surrogate is a 6 → 14 → 4 → 1 network (tanh hidden layers,
//! linear output), trained with Bayesian regularization; see
//! [`crate::train`].

use crate::activation::Activation;
use crate::linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dense layer: `out = act(W * in + b)`.
#[derive(Debug, Clone)]
struct Layer {
    /// Weight matrix, `out_dim x in_dim` stored row-major in a flat vec.
    weights: Vec<f64>,
    bias: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl Layer {
    fn forward(&self, input: &[f64], z: &mut Vec<f64>, a: &mut Vec<f64>) {
        z.clear();
        a.clear();
        for o in 0..self.out_dim {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut s = self.bias[o];
            for (w, x) in row.iter().zip(input) {
                s += w * x;
            }
            z.push(s);
            a.push(self.activation.apply(s));
        }
    }
}

/// A fully connected feed-forward network with one linear output unit.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    input_dim: usize,
}

/// Forward-pass cache used for Jacobian computation.
#[derive(Debug, Default, Clone)]
pub struct ForwardCache {
    /// Pre-activations per layer.
    zs: Vec<Vec<f64>>,
    /// Activations per layer (the last entry is the network output).
    activations: Vec<Vec<f64>>,
}

impl Network {
    /// Creates a network with the given input dimension and hidden layer
    /// sizes; hidden layers use `tanh`, the single output is linear.
    /// Weights are initialized with Xavier-uniform scaling from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or any hidden size is 0.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden sizes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::new();
        let mut prev = input_dim;
        for &h in hidden {
            layers.push(Self::init_layer(prev, h, Activation::Tanh, &mut rng));
            prev = h;
        }
        layers.push(Self::init_layer(prev, 1, Activation::Linear, &mut rng));
        Network { layers, input_dim }
    }

    fn init_layer(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Layer {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        Layer {
            weights: (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-limit..limit))
                .collect(),
            bias: (0..out_dim).map(|_| rng.gen_range(-limit..limit)).collect(),
            in_dim,
            out_dim,
            activation,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total number of trainable parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Flattens all parameters into one vector (layer by layer, weights
    /// then biases).
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(&l.weights);
            out.extend_from_slice(&l.bias);
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Network::params`].
    ///
    /// # Panics
    ///
    /// Panics when the length does not match [`Network::num_params`].
    pub fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.num_params(), "parameter count mismatch");
        let mut at = 0;
        for l in &mut self.layers {
            let w = l.weights.len();
            l.weights.copy_from_slice(&p[at..at + w]);
            at += w;
            let b = l.bias.len();
            l.bias.copy_from_slice(&p[at..at + b]);
            at += b;
        }
    }

    /// Runs the network on one (already scaled) input row.
    ///
    /// # Panics
    ///
    /// Panics when `input.len() != input_dim`.
    pub fn forward(&self, input: &[f64]) -> f64 {
        let mut cache = ForwardCache::default();
        self.forward_cached(input, &mut cache)
    }

    /// Runs the network while filling `cache` for a later Jacobian row.
    pub fn forward_cached(&self, input: &[f64], cache: &mut ForwardCache) -> f64 {
        assert_eq!(input.len(), self.input_dim, "input dimension mismatch");
        cache.zs.resize(self.layers.len(), Vec::new());
        cache.activations.resize(self.layers.len(), Vec::new());
        let mut prev: Vec<f64> = input.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = std::mem::take(&mut cache.zs[i]);
            let mut a = std::mem::take(&mut cache.activations[i]);
            layer.forward(&prev, &mut z, &mut a);
            prev.clear();
            prev.extend_from_slice(&a);
            cache.zs[i] = z;
            cache.activations[i] = a;
        }
        prev[0]
    }

    /// Computes the gradient of the scalar output with respect to every
    /// parameter, laid out exactly like [`Network::params`]. `input` must be
    /// the row that produced `cache`.
    pub fn output_gradient(&self, input: &[f64], cache: &ForwardCache, grad: &mut [f64]) {
        assert_eq!(grad.len(), self.num_params(), "gradient buffer mismatch");
        let nl = self.layers.len();
        // delta[l] = d out / d z_l
        let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); nl];
        // Output layer: single linear unit.
        let out_layer = &self.layers[nl - 1];
        deltas[nl - 1] = vec![out_layer.activation.derivative(cache.zs[nl - 1][0])];
        for l in (0..nl - 1).rev() {
            let next = &self.layers[l + 1];
            let dn = &deltas[l + 1];
            let mut d = vec![0.0; self.layers[l].out_dim];
            for (j, dj) in d.iter_mut().enumerate() {
                let mut s = 0.0;
                for (o, dno) in dn.iter().enumerate() {
                    s += next.weights[o * next.in_dim + j] * dno;
                }
                *dj = s * self.layers[l].activation.derivative(cache.zs[l][j]);
            }
            deltas[l] = d;
        }
        // Fill gradient: dout/dW_l[o][i] = delta_l[o] * a_{l-1}[i]
        let mut at = 0;
        for (l, layer) in self.layers.iter().enumerate() {
            let prev_act: &[f64] = if l == 0 {
                input
            } else {
                &cache.activations[l - 1]
            };
            let d = &deltas[l];
            for (o, &d_o) in d.iter().enumerate().take(layer.out_dim) {
                let base = at + o * layer.in_dim;
                for (i, &p) in prev_act.iter().enumerate() {
                    grad[base + i] = d_o * p;
                }
            }
            at += layer.weights.len();
            grad[at..at + layer.bias.len()].copy_from_slice(d);
            at += layer.bias.len();
        }
    }

    /// Predicts a batch of (already scaled) rows with one matrix–matrix
    /// pass per layer instead of a per-row forward loop.
    ///
    /// Bit-identical to calling [`Network::forward`] on each row: every
    /// output accumulates `bias + w₀·x₀ + w₁·x₁ + …` in the same index
    /// order, only the loop nest differs (inputs outer, weights
    /// transposed so the inner loop runs contiguously over outputs).
    ///
    /// # Panics
    ///
    /// Panics when `inputs.cols() != input_dim`.
    pub fn predict_batch(&self, inputs: &Matrix) -> Vec<f64> {
        assert_eq!(inputs.cols(), self.input_dim, "input dimension mismatch");
        let n = inputs.rows();
        let mut act = inputs.clone();
        for layer in &self.layers {
            // Transpose the `out_dim x in_dim` weights once so the
            // accumulation loop strides unit-length over outputs.
            let mut wt = vec![0.0; layer.in_dim * layer.out_dim];
            for o in 0..layer.out_dim {
                for k in 0..layer.in_dim {
                    wt[k * layer.out_dim + o] = layer.weights[o * layer.in_dim + k];
                }
            }
            let mut next = Matrix::zeros(n, layer.out_dim);
            for r in 0..n {
                let input = act.row(r);
                let out = next.row_mut(r);
                out.copy_from_slice(&layer.bias);
                for (k, &x) in input.iter().enumerate() {
                    let wrow = &wt[k * layer.out_dim..(k + 1) * layer.out_dim];
                    for (acc, &w) in out.iter_mut().zip(wrow) {
                        *acc += w * x;
                    }
                }
                for v in out.iter_mut() {
                    *v = layer.activation.apply(*v);
                }
            }
            act = next;
        }
        (0..n).map(|r| act.row(r)[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::identity_op)] // per-layer weight/bias terms kept explicit
    fn params_roundtrip() {
        let mut net = Network::new(3, &[5, 2], 7);
        let p = net.params();
        assert_eq!(p.len(), net.num_params());
        assert_eq!(net.num_params(), 3 * 5 + 5 + 5 * 2 + 2 + 2 * 1 + 1);
        let mut p2 = p.clone();
        p2[0] = 42.0;
        net.set_params(&p2);
        assert_eq!(net.params(), p2);
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let a = Network::new(4, &[6], 123);
        let b = Network::new(4, &[6], 123);
        let x = [0.1, -0.2, 0.3, 0.9];
        assert_eq!(a.forward(&x), b.forward(&x));
        let c = Network::new(4, &[6], 124);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut net = Network::new(3, &[4, 3], 99);
        let x = [0.5, -0.3, 0.8];
        let mut cache = ForwardCache::default();
        net.forward_cached(&x, &mut cache);
        let mut grad = vec![0.0; net.num_params()];
        net.output_gradient(&x, &cache, &mut grad);

        let p0 = net.params();
        let h = 1e-6;
        for i in (0..p0.len()).step_by(5) {
            let mut p = p0.clone();
            p[i] += h;
            net.set_params(&p);
            let up = net.forward(&x);
            p[i] -= 2.0 * h;
            net.set_params(&p);
            let dn = net.forward(&x);
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-5,
                "param {i}: analytic {} vs fd {fd}",
                grad[i]
            );
            net.set_params(&p0);
        }
    }

    #[test]
    fn single_linear_unit_is_affine() {
        // Network with no hidden layers: out = w·x + b.
        let mut net = Network::new(2, &[], 1);
        net.set_params(&[2.0, -1.0, 0.5]);
        assert!((net.forward(&[3.0, 4.0]) - (6.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn batch_prediction_matches_single() {
        let net = Network::new(2, &[3], 5);
        let m = Matrix::from_rows(&[vec![0.1, 0.2], vec![-0.4, 0.9]]);
        let batch = net.predict_batch(&m);
        assert_eq!(batch[0], net.forward(&[0.1, 0.2]));
        assert_eq!(batch[1], net.forward(&[-0.4, 0.9]));
    }
}
