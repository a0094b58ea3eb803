//! Workload traces: read-ratio time series over fixed windows, and the
//! regime-switching MG-RAST model that generates them.
//!
//! §2.4.1 of the paper (Figure 3): over 4 observed days the MG-RAST
//! read/write mix shows *"periods of read heavy, write heavy, and a few
//! mixed … the transition between these periods is not smooth and often
//! occurs abruptly and lasts for 15 minutes or less"*. The generator here
//! is a three-state Markov chain over {read-heavy, write-heavy, mixed}
//! regimes with geometric dwell times and per-window jitter, producing RR
//! series with exactly those properties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One characterization window of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceWindow {
    /// Window index (0-based).
    pub index: usize,
    /// Read ratio observed/assigned in this window, in `[0, 1]`.
    pub read_ratio: f64,
}

/// A workload trace: an RR value per fixed-length window plus the global
/// key-reuse characteristics (the paper computes the KRD over the whole
/// trace because it is stationary for MG-RAST, §3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Window length in minutes (15 for MG-RAST).
    pub window_minutes: u32,
    /// Per-window read ratios.
    pub windows: Vec<TraceWindow>,
    /// Mean key-reuse distance (stationary across the trace).
    pub krd_mean: f64,
}

impl WorkloadTrace {
    /// Total duration covered, in minutes.
    pub fn duration_minutes(&self) -> u64 {
        self.windows.len() as u64 * self.window_minutes as u64
    }

    /// Read-ratio series as a plain vector.
    pub fn read_ratios(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.read_ratio).collect()
    }

    /// Counts abrupt transitions: adjacent windows whose RR differs by at
    /// least `threshold`.
    pub fn abrupt_transitions(&self, threshold: f64) -> usize {
        self.windows
            .windows(2)
            .filter(|w| (w[1].read_ratio - w[0].read_ratio).abs() >= threshold)
            .count()
    }

    /// Writes the trace as CSV (`window,read_ratio` rows with a
    /// metadata header comment).
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "# window_minutes={} krd_mean={}\nwindow,read_ratio\n",
            self.window_minutes, self.krd_mean
        );
        for w in &self.windows {
            out.push_str(&format!("{},{}\n", w.index, w.read_ratio));
        }
        out
    }

    /// Parses a trace produced by [`WorkloadTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut window_minutes = 15u32;
        let mut krd_mean = 200_000.0f64;
        let mut windows = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line == "window,read_ratio" {
                continue;
            }
            if let Some(meta) = line.strip_prefix('#') {
                for field in meta.split_whitespace() {
                    if let Some(v) = field.strip_prefix("window_minutes=") {
                        window_minutes = v
                            .parse()
                            .map_err(|_| format!("line {}: bad window_minutes", lineno + 1))?;
                    } else if let Some(v) = field.strip_prefix("krd_mean=") {
                        krd_mean = v
                            .parse()
                            .map_err(|_| format!("line {}: bad krd_mean", lineno + 1))?;
                    }
                }
                continue;
            }
            let (idx, rr) = line
                .split_once(',')
                .ok_or_else(|| format!("line {}: expected window,read_ratio", lineno + 1))?;
            let index: usize = idx
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad window index", lineno + 1))?;
            let read_ratio: f64 = rr
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad read ratio", lineno + 1))?;
            if !(0.0..=1.0).contains(&read_ratio) {
                return Err(format!(
                    "line {}: read ratio {read_ratio} out of [0,1]",
                    lineno + 1
                ));
            }
            windows.push(TraceWindow { index, read_ratio });
        }
        if windows.is_empty() {
            return Err("trace has no windows".to_string());
        }
        Ok(WorkloadTrace {
            window_minutes,
            windows,
            krd_mean,
        })
    }
}

/// Workload regimes observed in MG-RAST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Mostly reads (analysis phases).
    ReadHeavy,
    /// Mostly writes (bursty ingest/re-insert phases).
    WriteHeavy,
    /// A dynamic mix.
    Mixed,
}

impl Regime {
    /// RR range characteristic of the regime.
    pub fn rr_range(self) -> (f64, f64) {
        match self {
            Regime::ReadHeavy => (0.80, 1.00),
            Regime::WriteHeavy => (0.00, 0.25),
            Regime::Mixed => (0.35, 0.70),
        }
    }

    /// Classifies a read ratio into a regime using the paper's thresholds
    /// (read-heavy ⇔ RR ≥ 70%, write-heavy ⇔ RR ≤ 30%, §4.8).
    pub fn classify(rr: f64) -> Regime {
        if rr >= 0.7 {
            Regime::ReadHeavy
        } else if rr <= 0.3 {
            Regime::WriteHeavy
        } else {
            Regime::Mixed
        }
    }
}

/// Generator for MG-RAST-like traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgRastModel {
    /// Trace length in days (the paper observed 4).
    pub days: u32,
    /// Window length in minutes (the paper uses 15).
    pub window_minutes: u32,
    /// Mean regime dwell time in windows; transitions are geometric, so
    /// many dwells are a single window ("lasts for 15 minutes or less").
    pub mean_dwell_windows: f64,
    /// Mean key-reuse distance in operations.
    pub krd_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MgRastModel {
    fn default() -> Self {
        MgRastModel {
            days: 4,
            window_minutes: 15,
            mean_dwell_windows: 4.0,
            krd_mean: 50_000.0,
            seed: 0,
        }
    }
}

impl MgRastModel {
    /// Generates a trace.
    ///
    /// # Panics
    ///
    /// Panics when days/window sizes are zero or the dwell time is below 1.
    pub fn generate(&self) -> WorkloadTrace {
        assert!(self.days > 0 && self.window_minutes > 0, "empty trace");
        assert!(self.mean_dwell_windows >= 1.0, "dwell below one window");
        let n_windows = (self.days as u64 * 24 * 60 / self.window_minutes as u64) as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut windows = Vec::with_capacity(n_windows);

        // MG-RAST spends most time reading (analysis) with shorter bursts
        // of writes: read-heavy dwells are long, write bursts short.
        let mut regime = Regime::ReadHeavy;
        let leave_prob = |r: Regime| match r {
            Regime::ReadHeavy => 1.0 / (1.8 * self.mean_dwell_windows),
            Regime::WriteHeavy => 1.0 / (0.6 * self.mean_dwell_windows).max(1.0),
            Regime::Mixed => 1.0 / (0.8 * self.mean_dwell_windows).max(1.0),
        };
        for index in 0..n_windows {
            if index > 0 && rng.gen_bool(leave_prob(regime).clamp(0.0, 1.0)) {
                regime = match (regime, rng.gen::<f64>()) {
                    (Regime::ReadHeavy, p) if p < 0.55 => Regime::WriteHeavy,
                    (Regime::ReadHeavy, _) => Regime::Mixed,
                    (Regime::WriteHeavy, p) if p < 0.7 => Regime::ReadHeavy,
                    (Regime::WriteHeavy, _) => Regime::Mixed,
                    (Regime::Mixed, p) if p < 0.6 => Regime::ReadHeavy,
                    (Regime::Mixed, _) => Regime::WriteHeavy,
                };
            }
            let (lo, hi) = regime.rr_range();
            let read_ratio = rng.gen_range(lo..=hi);
            windows.push(TraceWindow { index, read_ratio });
        }
        WorkloadTrace {
            window_minutes: self.window_minutes,
            windows,
            krd_mean: self.krd_mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_day_trace_has_384_windows() {
        let trace = MgRastModel::default().generate();
        assert_eq!(trace.windows.len(), 4 * 24 * 4);
        assert_eq!(trace.duration_minutes(), 4 * 24 * 60);
    }

    #[test]
    fn read_ratios_are_valid() {
        let trace = MgRastModel::default().generate();
        assert!(trace
            .read_ratios()
            .iter()
            .all(|&rr| (0.0..=1.0).contains(&rr)));
    }

    #[test]
    fn trace_visits_all_regimes() {
        let trace = MgRastModel::default().generate();
        let mut seen = std::collections::HashSet::new();
        for w in &trace.windows {
            seen.insert(Regime::classify(w.read_ratio));
        }
        assert!(seen.contains(&Regime::ReadHeavy));
        assert!(seen.contains(&Regime::WriteHeavy));
        assert!(seen.contains(&Regime::Mixed));
    }

    #[test]
    fn transitions_are_abrupt() {
        // Figure 3's key property: many adjacent windows jump by large RR
        // steps rather than drifting smoothly.
        let trace = MgRastModel::default().generate();
        let abrupt = trace.abrupt_transitions(0.4);
        assert!(
            abrupt > trace.windows.len() / 20,
            "only {abrupt} abrupt transitions in {} windows",
            trace.windows.len()
        );
    }

    #[test]
    fn read_heavy_dominates() {
        // MG-RAST is read-heavy most of the time (§4.8).
        let trace = MgRastModel::default().generate();
        let read_heavy = trace
            .windows
            .iter()
            .filter(|w| Regime::classify(w.read_ratio) == Regime::ReadHeavy)
            .count();
        assert!(read_heavy * 2 > trace.windows.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MgRastModel::default().generate();
        let b = MgRastModel::default().generate();
        assert_eq!(a, b);
        let c = MgRastModel {
            seed: 1,
            ..MgRastModel::default()
        }
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn csv_roundtrip_preserves_trace() {
        let trace = MgRastModel {
            days: 1,
            ..MgRastModel::default()
        }
        .generate();
        let csv = trace.to_csv();
        let parsed = WorkloadTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed.window_minutes, trace.window_minutes);
        assert_eq!(parsed.windows.len(), trace.windows.len());
        for (a, b) in parsed.windows.iter().zip(&trace.windows) {
            assert_eq!(a.index, b.index);
            assert!((a.read_ratio - b.read_ratio).abs() < 1e-12);
        }
        assert!((parsed.krd_mean - trace.krd_mean).abs() < 1e-9);
    }

    #[test]
    fn csv_parser_rejects_garbage() {
        assert!(WorkloadTrace::from_csv("").is_err());
        assert!(WorkloadTrace::from_csv("window,read_ratio\n0,1.5").is_err());
        assert!(WorkloadTrace::from_csv("window,read_ratio\nnope").is_err());
        assert!(WorkloadTrace::from_csv("window,read_ratio\n0,abc").is_err());
    }

    #[test]
    fn regime_classification_thresholds() {
        assert_eq!(Regime::classify(0.9), Regime::ReadHeavy);
        assert_eq!(Regime::classify(0.7), Regime::ReadHeavy);
        assert_eq!(Regime::classify(0.5), Regime::Mixed);
        assert_eq!(Regime::classify(0.3), Regime::WriteHeavy);
        assert_eq!(Regime::classify(0.0), Regime::WriteHeavy);
    }
}
