//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The engine executes real data-structure work but charges every hardware
//! cost (CPU service, disk transfers, network hops) to a virtual clock, so
//! experiments are deterministic and run orders of magnitude faster than
//! wall time while preserving queueing behaviour.

/// An instant on the simulated clock, in nanoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Duration in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite factors.
    pub fn scale(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "invalid scale {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.since(SimTime::ZERO).as_secs_f64(), 1.5);
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_micros_f64(2.0).0, 2_000);
        assert_eq!(SimDuration::from_millis_f64(3.0).0, 3_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.0).as_millis_f64(), 1.0);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs_f64(2.0).scale(1.5);
        assert_eq!(d.as_secs_f64(), 3.0);
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
