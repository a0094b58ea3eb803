//! Workload forecasting — the paper's stated future work (§6: *"We are
//! also developing a prediction model for the workloads"*).
//!
//! [`RegimeMarkovForecaster`] learns, online, a first-order Markov chain
//! over the three MG-RAST regimes (read-heavy / write-heavy / mixed) plus
//! each regime's mean read ratio, and predicts the next window's regime
//! and expected RR. A controller can use the prediction to reconfigure
//! *before* an anticipated shift instead of one window after it.

use crate::trace::Regime;

const REGIMES: [Regime; 3] = [Regime::ReadHeavy, Regime::WriteHeavy, Regime::Mixed];

fn regime_index(r: Regime) -> usize {
    match r {
        Regime::ReadHeavy => 0,
        Regime::WriteHeavy => 1,
        Regime::Mixed => 2,
    }
}

/// An online first-order Markov forecaster over workload regimes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegimeMarkovForecaster {
    transitions: [[u64; 3]; 3],
    rr_sums: [f64; 3],
    rr_counts: [u64; 3],
    last: Option<Regime>,
    observations: u64,
}

impl RegimeMarkovForecaster {
    /// Creates an empty forecaster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of windows observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds one observed window's read ratio.
    ///
    /// # Panics
    ///
    /// Panics when `read_ratio` is outside `[0, 1]`.
    pub fn observe(&mut self, read_ratio: f64) {
        assert!(
            (0.0..=1.0).contains(&read_ratio),
            "read ratio out of range: {read_ratio}"
        );
        let regime = Regime::classify(read_ratio);
        let idx = regime_index(regime);
        self.rr_sums[idx] += read_ratio;
        self.rr_counts[idx] += 1;
        if let Some(prev) = self.last {
            self.transitions[regime_index(prev)][idx] += 1;
        }
        self.last = Some(regime);
        self.observations += 1;
    }

    /// The learned transition probabilities `P(next | current)`, row per
    /// current regime in the order [read-heavy, write-heavy, mixed].
    /// Unvisited rows fall back to "stay put".
    pub fn transition_matrix(&self) -> [[f64; 3]; 3] {
        let mut m = [[0.0; 3]; 3];
        for (i, row) in self.transitions.iter().enumerate() {
            let total: u64 = row.iter().sum();
            if total == 0 {
                m[i][i] = 1.0;
            } else {
                for (j, &c) in row.iter().enumerate() {
                    m[i][j] = c as f64 / total as f64;
                }
            }
        }
        m
    }

    /// Mean observed read ratio of a regime (regime midpoint before any
    /// observation).
    pub fn regime_mean_rr(&self, regime: Regime) -> f64 {
        let idx = regime_index(regime);
        if self.rr_counts[idx] == 0 {
            let (lo, hi) = regime.rr_range();
            (lo + hi) / 2.0
        } else {
            self.rr_sums[idx] / self.rr_counts[idx] as f64
        }
    }

    /// Most likely next regime. `None` before the first observation.
    pub fn predict_next_regime(&self) -> Option<Regime> {
        let last = self.last?;
        let row = self.transition_matrix()[regime_index(last)];
        let best = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probability"))
            .map(|(i, _)| i)
            .expect("three regimes");
        Some(REGIMES[best])
    }

    /// Expected next-window read ratio:
    /// `Σ_r P(next = r | current) · mean_rr(r)`. `None` before the first
    /// observation.
    pub fn predict_next_rr(&self) -> Option<f64> {
        let last = self.last?;
        let row = self.transition_matrix()[regime_index(last)];
        Some(
            REGIMES
                .iter()
                .enumerate()
                .map(|(i, &r)| row[i] * self.regime_mean_rr(r))
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MgRastModel;

    #[test]
    fn empty_forecaster_predicts_nothing() {
        let f = RegimeMarkovForecaster::new();
        assert_eq!(f.predict_next_regime(), None);
        assert_eq!(f.predict_next_rr(), None);
        assert_eq!(f.observations(), 0);
    }

    #[test]
    fn learns_a_deterministic_alternation() {
        // read-heavy <-> write-heavy strictly alternating.
        let mut f = RegimeMarkovForecaster::new();
        for i in 0..40 {
            f.observe(if i % 2 == 0 { 0.95 } else { 0.05 });
        }
        // Last observation was write-heavy (i = 39); next must be read-heavy.
        assert_eq!(f.predict_next_regime(), Some(Regime::ReadHeavy));
        let rr = f.predict_next_rr().unwrap();
        assert!((rr - 0.95).abs() < 0.02, "predicted RR {rr}");
    }

    #[test]
    fn stationary_workload_predicts_persistence() {
        let mut f = RegimeMarkovForecaster::new();
        for _ in 0..20 {
            f.observe(0.5);
        }
        assert_eq!(f.predict_next_regime(), Some(Regime::Mixed));
        assert!((f.predict_next_rr().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn transition_matrix_rows_are_distributions() {
        let mut f = RegimeMarkovForecaster::new();
        let trace = MgRastModel::default().generate();
        for w in &trace.windows {
            f.observe(w.read_ratio);
        }
        for row in f.transition_matrix() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn beats_naive_persistence_on_mgrast_traces() {
        // Train on day 1-3, evaluate regime prediction accuracy on day 4,
        // against the "next regime == current regime" baseline. With long
        // dwell times persistence is strong; the forecaster must at least
        // match it (it learns dwell behaviour too).
        let trace = MgRastModel::default().generate();
        let rrs = trace.read_ratios();
        let split = rrs.len() * 3 / 4;
        let mut f = RegimeMarkovForecaster::new();
        for &rr in &rrs[..split] {
            f.observe(rr);
        }
        let mut correct = 0usize;
        let mut persist_correct = 0usize;
        let mut total = 0usize;
        for w in split..rrs.len() - 1 {
            f.observe(rrs[w]);
            let predicted = f.predict_next_regime().expect("trained");
            let actual = Regime::classify(rrs[w + 1]);
            let persisted = Regime::classify(rrs[w]);
            correct += (predicted == actual) as usize;
            persist_correct += (persisted == actual) as usize;
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        let persist_acc = persist_correct as f64 / total as f64;
        assert!(
            acc >= persist_acc - 0.02,
            "forecaster accuracy {acc:.2} well below persistence {persist_acc:.2}"
        );
    }

    #[test]
    fn mean_rr_tracks_observations() {
        let mut f = RegimeMarkovForecaster::new();
        f.observe(0.9);
        f.observe(1.0);
        assert!((f.regime_mean_rr(Regime::ReadHeavy) - 0.95).abs() < 1e-9);
        // Unobserved regime falls back to its midpoint.
        let (lo, hi) = Regime::WriteHeavy.rr_range();
        assert_eq!(f.regime_mean_rr(Regime::WriteHeavy), (lo + hi) / 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_rr() {
        RegimeMarkovForecaster::new().observe(1.5);
    }
}
