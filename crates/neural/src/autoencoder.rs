//! A small deterministic autoencoder for latent-space configuration
//! search (the LatentTune family: compress the high-dimensional
//! configuration space into a low-dimensional latent manifold, search
//! there, decode back).
//!
//! Architecture: `d → k` tanh encoder, `k → d` linear decoder — the
//! smallest shape that learns an affine-plus-saturation embedding of the
//! sampled configuration cloud. Training is full-batch gradient descent
//! with momentum on mean squared reconstruction error; everything is
//! seeded, so a (data, config) pair always yields the same weights.
//!
//! The encoder's tanh output pins every latent coordinate into
//! `(-1, 1)`, which is what makes the latent box `[-1, 1]^k` a sound
//! search domain: any decoded point of that box is a legitimate output
//! of the decoder head, and out-of-range reconstructions are clamped by
//! the caller against its parameter bounds.

use crate::linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters for [`Autoencoder::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoencoderConfig {
    /// Latent dimension `k` (must be ≥ 1 and ≤ the input dimension).
    pub latent_dim: usize,
    /// Full-batch gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient on the parameter velocity.
    pub momentum: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        AutoencoderConfig {
            latent_dim: 4,
            epochs: 400,
            learning_rate: 0.05,
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// A trained `d → k → d` autoencoder (tanh bottleneck, linear output).
#[derive(Debug, Clone)]
pub struct Autoencoder {
    /// Encoder weights, `k x d` row-major.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Decoder weights, `d x k` row-major.
    w2: Vec<f64>,
    b2: Vec<f64>,
    input_dim: usize,
    latent_dim: usize,
}

impl Autoencoder {
    /// Trains an autoencoder on the rows of `data` (one sample per row).
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty, `latent_dim` is 0 or exceeds the
    /// input dimension, or `epochs` is 0.
    pub fn train(data: &Matrix, cfg: &AutoencoderConfig) -> Self {
        let n = data.rows();
        let d = data.cols();
        let k = cfg.latent_dim;
        assert!(n > 0 && d > 0, "autoencoder needs non-empty training data");
        assert!(
            k >= 1 && k <= d,
            "latent_dim must be in 1..=input_dim ({k} vs {d})"
        );
        assert!(cfg.epochs > 0, "epochs must be positive");

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut init = |fan_in: usize, fan_out: usize, len: usize| -> Vec<f64> {
            let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
            (0..len).map(|_| rng.gen_range(-limit..limit)).collect()
        };
        let mut ae = Autoencoder {
            w1: init(d, k, d * k),
            b1: vec![0.0; k],
            w2: init(k, d, d * k),
            b2: vec![0.0; d],
            input_dim: d,
            latent_dim: k,
        };

        let mut vw1 = vec![0.0; ae.w1.len()];
        let mut vb1 = vec![0.0; ae.b1.len()];
        let mut vw2 = vec![0.0; ae.w2.len()];
        let mut vb2 = vec![0.0; ae.b2.len()];
        let mut gw1 = vec![0.0; ae.w1.len()];
        let mut gb1 = vec![0.0; ae.b1.len()];
        let mut gw2 = vec![0.0; ae.w2.len()];
        let mut gb2 = vec![0.0; ae.b2.len()];

        for _ in 0..cfg.epochs {
            gw1.iter_mut().for_each(|g| *g = 0.0);
            gb1.iter_mut().for_each(|g| *g = 0.0);
            gw2.iter_mut().for_each(|g| *g = 0.0);
            gb2.iter_mut().for_each(|g| *g = 0.0);
            let scale = 1.0 / n as f64;
            for r in 0..n {
                let x = data.row(r);
                let h = ae.encode(x);
                let xh = ae.decode(&h);
                // Output delta: d(MSE)/d(x̂), averaged over the batch.
                let delta_out: Vec<f64> =
                    xh.iter().zip(x).map(|(&o, &t)| (o - t) * scale).collect();
                for (o, &dout) in delta_out.iter().enumerate() {
                    gb2[o] += dout;
                    for (j, &hj) in h.iter().enumerate() {
                        gw2[o * k + j] += dout * hj;
                    }
                }
                // Back through the linear decoder and the tanh bottleneck.
                for (j, &hj) in h.iter().enumerate() {
                    let mut dh = 0.0;
                    for (o, &dout) in delta_out.iter().enumerate() {
                        dh += ae.w2[o * k + j] * dout;
                    }
                    let dz = dh * (1.0 - hj * hj);
                    gb1[j] += dz;
                    for (i, &xi) in x.iter().enumerate() {
                        gw1[j * d + i] += dz * xi;
                    }
                }
            }
            let step = |w: &mut [f64], v: &mut [f64], g: &[f64]| {
                for ((wi, vi), &gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                    *vi = cfg.momentum * *vi - cfg.learning_rate * gi;
                    *wi += *vi;
                }
            };
            step(&mut ae.w1, &mut vw1, &gw1);
            step(&mut ae.b1, &mut vb1, &gb1);
            step(&mut ae.w2, &mut vw2, &gw2);
            step(&mut ae.b2, &mut vb2, &gb2);
        }
        ae
    }

    /// Input (and reconstruction) dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Latent dimension `k`.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Encodes one sample into the latent space; every coordinate lands
    /// in `(-1, 1)` (tanh bottleneck).
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong dimension.
    pub fn encode(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim, "encode dimension mismatch");
        let d = self.input_dim;
        (0..self.latent_dim)
            .map(|j| {
                let row = &self.w1[j * d..(j + 1) * d];
                let s: f64 = self.b1[j] + row.iter().zip(x).map(|(&w, &v)| w * v).sum::<f64>();
                s.tanh()
            })
            .collect()
    }

    /// Decodes one latent point back into input space (linear head — the
    /// caller clamps against its own bounds).
    ///
    /// # Panics
    ///
    /// Panics when `z` has the wrong dimension.
    pub fn decode(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.latent_dim, "decode dimension mismatch");
        let k = self.latent_dim;
        (0..self.input_dim)
            .map(|o| {
                let row = &self.w2[o * k..(o + 1) * k];
                self.b2[o] + row.iter().zip(z).map(|(&w, &v)| w * v).sum::<f64>()
            })
            .collect()
    }

    /// Mean squared reconstruction error over the rows of `data`.
    pub fn reconstruction_mse(&self, data: &Matrix) -> f64 {
        assert!(data.rows() > 0, "mse over empty data");
        let mut sum = 0.0;
        for r in 0..data.rows() {
            let x = data.row(r);
            let xh = self.decode(&self.encode(x));
            sum += xh
                .iter()
                .zip(x)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        sum / (data.rows() * self.input_dim) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples on a 2-D affine manifold embedded in 6-D, the shape a
    /// config cloud with correlated knobs takes after normalization.
    fn low_rank_cloud(n: usize) -> Matrix {
        let mut rows = Vec::with_capacity(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..n {
            let (u, v) = (unit() * 2.0 - 1.0, unit() * 2.0 - 1.0);
            rows.push(vec![
                0.5 * u,
                0.3 * v,
                0.2 * u + 0.1 * v,
                -0.4 * v,
                0.25 * u - 0.25 * v,
                0.1 * u,
            ]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn learns_a_low_rank_embedding() {
        let data = low_rank_cloud(200);
        let cfg = AutoencoderConfig {
            latent_dim: 2,
            ..AutoencoderConfig::default()
        };
        let ae = Autoencoder::train(&data, &cfg);
        let mse = ae.reconstruction_mse(&data);
        assert!(mse < 0.01, "reconstruction MSE {mse}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = low_rank_cloud(64);
        let cfg = AutoencoderConfig {
            latent_dim: 3,
            epochs: 50,
            ..AutoencoderConfig::default()
        };
        let a = Autoencoder::train(&data, &cfg);
        let b = Autoencoder::train(&data, &cfg);
        let probe = vec![0.1, -0.2, 0.3, 0.0, -0.1, 0.2];
        assert_eq!(a.encode(&probe), b.encode(&probe));
        assert_eq!(a.decode(&[0.5, -0.5, 0.0]), b.decode(&[0.5, -0.5, 0.0]));
    }

    #[test]
    fn latent_coordinates_are_bounded_by_tanh() {
        let data = low_rank_cloud(64);
        let ae = Autoencoder::train(
            &data,
            &AutoencoderConfig {
                latent_dim: 2,
                epochs: 30,
                ..AutoencoderConfig::default()
            },
        );
        for r in 0..data.rows() {
            for z in ae.encode(data.row(r)) {
                assert!(z > -1.0 && z < 1.0, "latent {z} escaped (-1, 1)");
            }
        }
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let data = low_rank_cloud(128);
        let short = Autoencoder::train(
            &data,
            &AutoencoderConfig {
                latent_dim: 2,
                epochs: 1,
                ..AutoencoderConfig::default()
            },
        );
        let long = Autoencoder::train(
            &data,
            &AutoencoderConfig {
                latent_dim: 2,
                epochs: 300,
                ..AutoencoderConfig::default()
            },
        );
        assert!(long.reconstruction_mse(&data) < short.reconstruction_mse(&data));
    }

    #[test]
    #[should_panic(expected = "latent_dim")]
    fn rejects_oversized_latent() {
        let data = low_rank_cloud(8);
        let _ = Autoencoder::train(
            &data,
            &AutoencoderConfig {
                latent_dim: 7,
                ..AutoencoderConfig::default()
            },
        );
    }
}
