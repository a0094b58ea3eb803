//! Min–max feature scaling to `[-1, 1]`, the equivalent of MATLAB's
//! `mapminmax` preprocessing that the paper's toolbox applies by default.

use crate::linalg::Matrix;

/// Per-column min–max scaler mapping each feature to `[-1, 1]`.
///
/// Columns that are constant in the fitting data are mapped to `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-column ranges from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn fit(data: &Matrix) -> Self {
        assert!(data.rows() > 0, "cannot fit scaler on empty data");
        let cols = data.cols();
        let mut mins = vec![f64::INFINITY; cols];
        let mut maxs = vec![f64::NEG_INFINITY; cols];
        for r in 0..data.rows() {
            for (c, &v) in data.row(r).iter().enumerate() {
                mins[c] = mins[c].min(v);
                maxs[c] = maxs[c].max(v);
            }
        }
        MinMaxScaler { mins, maxs }
    }

    /// Number of columns this scaler was fitted on.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Scales one row in place.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.mins.len(), "scaler dimension mismatch");
        for (i, v) in row.iter_mut().enumerate() {
            let range = self.maxs[i] - self.mins[i];
            *v = if range == 0.0 {
                0.0
            } else {
                2.0 * (*v - self.mins[i]) / range - 1.0
            };
        }
    }

    /// Returns a scaled copy of a matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = data.clone();
        for r in 0..out.rows() {
            self.transform_row(out.row_mut(r));
        }
        out
    }

    /// Inverse of [`MinMaxScaler::transform_row`] for a single column
    /// scaler (used for the scalar regression target).
    ///
    /// # Panics
    ///
    /// Panics unless the scaler has exactly one column.
    pub fn inverse_scalar(&self, v: f64) -> f64 {
        assert_eq!(self.mins.len(), 1, "inverse_scalar needs 1-column scaler");
        let range = self.maxs[0] - self.mins[0];
        if range == 0.0 {
            self.mins[0]
        } else {
            (v + 1.0) / 2.0 * range + self.mins[0]
        }
    }

    /// Scales a scalar with a single-column scaler.
    ///
    /// # Panics
    ///
    /// Panics unless the scaler has exactly one column.
    pub fn transform_scalar(&self, v: f64) -> f64 {
        assert_eq!(self.mins.len(), 1, "transform_scalar needs 1-column scaler");
        let mut row = [v];
        self.transform_row(&mut row);
        row[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_to_unit_interval() {
        let m = Matrix::from_rows(&[vec![0.0, 10.0], vec![4.0, 20.0], vec![2.0, 15.0]]);
        let s = MinMaxScaler::fit(&m);
        let t = s.transform(&m);
        assert_eq!(t.row(0), &[-1.0, -1.0]);
        assert_eq!(t.row(1), &[1.0, 1.0]);
        assert_eq!(t.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let m = Matrix::from_rows(&[vec![5.0], vec![5.0]]);
        let s = MinMaxScaler::fit(&m);
        assert_eq!(s.transform(&m).row(0), &[0.0]);
    }

    #[test]
    fn scalar_roundtrip() {
        let m = Matrix::from_rows(&[vec![100.0], vec![300.0]]);
        let s = MinMaxScaler::fit(&m);
        for &v in &[100.0, 150.0, 300.0] {
            let fwd = s.transform_scalar(v);
            assert!((s.inverse_scalar(fwd) - v).abs() < 1e-10);
        }
    }

    #[test]
    fn out_of_range_values_extrapolate() {
        let m = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let s = MinMaxScaler::fit(&m);
        assert!(s.transform_scalar(20.0) > 1.0);
        assert!(s.transform_scalar(-10.0) < -1.0);
    }
}
