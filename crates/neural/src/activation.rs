//! Activation functions for the feed-forward layers.

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Hyperbolic tangent — MATLAB's `tansig`, the default hidden-layer
    /// activation for the paper's surrogate.
    Tanh,
    /// Logistic sigmoid.
    Logistic,
    /// Rectified linear unit.
    Relu,
    /// Identity — used by the output layer of a regression network.
    Linear,
}

impl Activation {
    /// Applies the activation.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Logistic => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative of the activation, expressed in terms of the
    /// *pre-activation* input `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Logistic => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for act in [
            Activation::Tanh,
            Activation::Logistic,
            Activation::Relu,
            Activation::Linear,
        ] {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (act.derivative(x) - fd).abs() < 1e-5,
                    "{act:?} at {x}: {} vs {fd}",
                    act.derivative(x)
                );
            }
        }
    }

    #[test]
    fn ranges_are_respected() {
        assert!(Activation::Tanh.apply(100.0) <= 1.0);
        assert!(Activation::Tanh.apply(-100.0) >= -1.0);
        assert!(Activation::Logistic.apply(-100.0) >= 0.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Linear.apply(42.0), 42.0);
    }
}
