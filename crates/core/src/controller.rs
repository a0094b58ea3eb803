//! The online reconfiguration controller: watches the workload's read
//! ratio per window (15 minutes for MG-RAST) and, whenever it shifts,
//! looks the new ratio up in the tuner's policy table
//! ([`RafikiTuner::policy`], one GA search per 0.05 read-ratio bucket,
//! all run before the first window), applying the bucket's
//! configuration when the predicted gain justifies the switch. No
//! search runs inside [`OnlineController::observe_window`].
//!
//! This is the "online stage" of §3.1 step 5 plus the dynamics the
//! introduction motivates: *"large step changes in workloads are rapidly
//! met with large step changes in configuration parameters."*

use crate::tuner::{RafikiTuner, TunerError};
use rafiki_engine::EngineConfig;
use rafiki_obs as obs;
use rafiki_workload::{RegimeMarkovForecaster, WorkloadTrace};

/// Controller settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Minimum read-ratio change (absolute) that triggers re-optimization.
    pub rr_change_threshold: f64,
    /// Minimum predicted relative improvement over the active
    /// configuration required to actually switch (switching has a cost).
    pub min_predicted_gain: f64,
    /// Proactive mode (the paper's future-work §6 extension): learn a
    /// regime-Markov workload forecaster online and tune for the
    /// *predicted next* window instead of the current one.
    pub proactive: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            rr_change_threshold: 0.15,
            min_predicted_gain: 0.02,
            proactive: false,
        }
    }
}

/// One window of the controller's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDecision {
    /// Window index within the trace.
    pub window: usize,
    /// Observed read ratio.
    pub read_ratio: f64,
    /// Whether the controller consulted the policy table this window:
    /// the first window, an observed read-ratio shift, or (proactive
    /// mode) a forecast shift. Not a GA run — the table's searches all
    /// happened in [`OnlineController::new`].
    pub reoptimized: bool,
    /// Whether the configuration actually changed.
    pub switched: bool,
    /// Predicted throughput of the active configuration.
    pub predicted_throughput: f64,
    /// Human-readable explanation of why the controller switched or
    /// held.
    pub rationale: String,
}

/// Outcome of driving a controller across a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerReport {
    /// Per-window decisions.
    pub decisions: Vec<WindowDecision>,
    /// Number of windows that consulted the policy table (decisions
    /// with `reoptimized` set).
    pub reoptimizations: usize,
    /// Number of configuration switches.
    pub switches: usize,
}

/// The online controller. Owns the active configuration and consults the
/// fitted tuner on workload shifts.
#[derive(Debug)]
pub struct OnlineController<'t> {
    tuner: &'t RafikiTuner,
    cfg: ControllerConfig,
    active: EngineConfig,
    active_predicted: f64,
    last_rr: Option<f64>,
    forecaster: RegimeMarkovForecaster,
}

impl<'t> OnlineController<'t> {
    /// Creates a controller starting from the default configuration,
    /// and builds the tuner's policy table if this is its first
    /// controller — so the searches are paid here, at start-up, and
    /// never while a window closes.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] when the tuner has not been
    /// fitted.
    pub fn new(tuner: &'t RafikiTuner, cfg: ControllerConfig) -> Result<Self, TunerError> {
        tuner.policy()?;
        Ok(OnlineController {
            tuner,
            cfg,
            active: EngineConfig::default(),
            active_predicted: 0.0,
            last_rr: None,
            forecaster: RegimeMarkovForecaster::new(),
        })
    }

    /// The currently active configuration.
    pub fn active_config(&self) -> &EngineConfig {
        &self.active
    }

    /// The online workload forecaster (useful for inspection in proactive
    /// mode).
    pub fn forecaster(&self) -> &RegimeMarkovForecaster {
        &self.forecaster
    }

    /// Surrogate-predicted throughput of `genome` at `read_ratio`, on
    /// the batched path the GA itself scores populations with.
    fn predicted(&self, read_ratio: f64, genome: &[f64]) -> Result<f64, TunerError> {
        Ok(self.tuner.predict_many(read_ratio, &[genome.to_vec()])?[0])
    }

    /// Feeds one observed workload window; returns the decision taken.
    ///
    /// # Errors
    ///
    /// Propagates tuner errors (cannot occur after successful
    /// construction).
    pub fn observe_window(
        &mut self,
        window: usize,
        read_ratio: f64,
    ) -> Result<WindowDecision, TunerError> {
        let first_window = self.last_rr.is_none();
        let shifted = self
            .last_rr
            .is_none_or(|prev| (read_ratio - prev).abs() >= self.cfg.rr_change_threshold);
        self.last_rr = Some(read_ratio);
        self.forecaster.observe(read_ratio);

        // In proactive mode, tune for where the workload is *going*; the
        // forecast also triggers re-optimization when it anticipates a
        // shift away from the current mix.
        let target_rr = if self.cfg.proactive {
            self.forecaster.predict_next_rr().unwrap_or(read_ratio)
        } else {
            read_ratio
        };
        let forecast_shift =
            self.cfg.proactive && (target_rr - read_ratio).abs() >= self.cfg.rr_change_threshold;

        let space = self.tuner.space().ok_or(TunerError::NotFitted)?;
        let active_genome = space.genome_of(&self.active);
        let mut reoptimized = false;
        let mut switched = false;
        let rationale;
        if shifted || forecast_shift {
            reoptimized = true;
            let trigger = if forecast_shift && !shifted {
                "forecast shift"
            } else if first_window {
                "first window"
            } else {
                "observed rr shift"
            };
            // Only the choice of candidate is quantized to a bucket: it
            // is scored at the exact target ratio, so the gain test
            // compares two predictions for the workload at hand.
            let bucket = RafikiTuner::policy_bucket(target_rr);
            let candidate = &self.tuner.policy()?[bucket];
            let candidate_pred = self.predicted(target_rr, &candidate.genome)?;
            let active_pred = self.predicted(read_ratio, &active_genome)?;
            let gain = if active_pred > 0.0 {
                (candidate_pred - active_pred) / active_pred
            } else {
                f64::INFINITY
            };
            let consulted = format!("{trigger}; policy rr={:.2}", RafikiTuner::policy_rr(bucket));
            if candidate.config != self.active && gain >= self.cfg.min_predicted_gain {
                self.active = candidate.config.clone();
                self.active_predicted = candidate_pred;
                switched = true;
                rationale = format!(
                    "switch: {consulted}; predicted gain {:.1}% >= min {:.1}%",
                    gain * 100.0,
                    self.cfg.min_predicted_gain * 100.0
                );
            } else {
                self.active_predicted = active_pred;
                rationale = if candidate.config == self.active {
                    format!("hold: {consulted}; re-derived the active config")
                } else {
                    format!(
                        "hold: {consulted}; predicted gain {:.1}% < min {:.1}%",
                        gain * 100.0,
                        self.cfg.min_predicted_gain * 100.0
                    )
                };
            }
        } else {
            self.active_predicted = self.predicted(read_ratio, &active_genome)?;
            rationale = format!(
                "hold: rr change below threshold {:.2}",
                self.cfg.rr_change_threshold
            );
        }

        if obs::enabled(obs::Level::Info) {
            obs::event(
                "controller",
                "decision",
                obs::Level::Info,
                vec![
                    ("window", obs::Value::U64(window as u64)),
                    ("read_ratio", obs::Value::F64(read_ratio)),
                    ("target_rr", obs::Value::F64(target_rr)),
                    ("reoptimized", obs::Value::Bool(reoptimized)),
                    ("switched", obs::Value::Bool(switched)),
                    (
                        "predicted_throughput",
                        obs::Value::F64(self.active_predicted),
                    ),
                    ("rationale", obs::Value::str(rationale.clone())),
                ],
            );
        }

        Ok(WindowDecision {
            window,
            read_ratio,
            reoptimized,
            switched,
            predicted_throughput: self.active_predicted,
            rationale,
        })
    }

    /// Drives the controller across a whole trace.
    ///
    /// # Errors
    ///
    /// Propagates tuner errors.
    pub fn run_trace(&mut self, trace: &WorkloadTrace) -> Result<ControllerReport, TunerError> {
        let mut decisions = Vec::with_capacity(trace.windows.len());
        for w in &trace.windows {
            decisions.push(self.observe_window(w.index, w.read_ratio)?);
        }
        let reoptimizations = decisions.iter().filter(|d| d.reoptimized).count();
        let switches = decisions.iter().filter(|d| d.switched).count();
        Ok(ControllerReport {
            decisions,
            reoptimizations,
            switches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalContext;
    use crate::tuner::{fitted_fixture, TunerConfig};
    use rafiki_workload::MgRastModel;

    fn fitted_tuner() -> &'static RafikiTuner {
        &fitted_fixture().0
    }

    /// The trace subscriber is process-global and tests run on parallel
    /// threads: the tests that install one take turns.
    fn subscriber_turn() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn controller_requires_fitted_tuner() {
        let tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
        assert!(OnlineController::new(&tuner, ControllerConfig::default()).is_err());
    }

    #[test]
    fn stable_workload_avoids_reoptimization() {
        let tuner = fitted_tuner();
        let mut ctrl = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
        let d0 = ctrl.observe_window(0, 0.8).unwrap();
        assert!(d0.reoptimized, "first window always optimizes");
        let d1 = ctrl.observe_window(1, 0.82).unwrap();
        assert!(!d1.reoptimized, "small shift must not re-optimize");
        let d2 = ctrl.observe_window(2, 0.2).unwrap();
        assert!(d2.reoptimized, "large shift must re-optimize");
    }

    #[test]
    fn decisions_explain_themselves() {
        let tuner = fitted_tuner();
        let mut ctrl = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
        let d0 = ctrl.observe_window(0, 0.9).unwrap();
        assert!(
            d0.rationale.contains("first window"),
            "got: {}",
            d0.rationale
        );
        let d1 = ctrl.observe_window(1, 0.88).unwrap();
        assert!(
            d1.rationale.contains("below threshold"),
            "got: {}",
            d1.rationale
        );
        let d2 = ctrl.observe_window(2, 0.1).unwrap();
        assert!(d2.reoptimized);
        assert!(
            d2.rationale.contains("observed rr shift"),
            "got: {}",
            d2.rationale
        );
        if d2.switched {
            assert!(d2.rationale.starts_with("switch:"), "got: {}", d2.rationale);
        } else {
            assert!(d2.rationale.starts_with("hold:"), "got: {}", d2.rationale);
        }
    }

    #[test]
    fn decision_events_reach_an_installed_subscriber() {
        // Other tests in this binary may emit controller events while our
        // subscriber is installed (tests run in parallel and the
        // subscriber is process-global), so pick read ratios no other
        // test uses and assert existence, not exact counts.
        const RR_A: f64 = 0.912_345;
        const RR_B: f64 = 0.112_345;
        let tuner = fitted_tuner();
        let _turn = subscriber_turn();
        let sink = std::sync::Arc::new(rafiki_obs::MemorySink::new());
        rafiki_obs::set_subscriber(sink.clone(), rafiki_obs::Level::Info);
        let mut ctrl = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
        ctrl.observe_window(0, RR_A).unwrap();
        ctrl.observe_window(1, RR_B).unwrap();
        rafiki_obs::clear_subscriber();
        let mine: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| {
                e.target == "controller"
                    && e.name == "decision"
                    && e.fields.iter().any(|(k, v)| {
                        *k == "read_ratio"
                            && matches!(v, rafiki_obs::Value::F64(x) if *x == RR_A || *x == RR_B)
                    })
            })
            .collect();
        assert_eq!(mine.len(), 2, "one decision event per observed window");
        for e in &mine {
            assert!(e.fields.iter().any(|(k, _)| *k == "rationale"));
            assert!(e.fields.iter().any(|(k, _)| *k == "predicted_throughput"));
        }
    }

    #[test]
    fn proactive_mode_anticipates_learned_alternation() {
        let tuner = fitted_tuner();
        let cfg = ControllerConfig {
            proactive: true,
            ..ControllerConfig::default()
        };
        let mut ctrl = OnlineController::new(tuner, cfg).unwrap();
        // Teach it a strict read-heavy/write-heavy alternation.
        for w in 0..16 {
            let rr = if w % 2 == 0 { 0.95 } else { 0.05 };
            ctrl.observe_window(w, rr).unwrap();
        }
        // After observing a write-heavy window, the forecaster predicts a
        // read-heavy next window; proactive mode should already be running
        // a read-oriented configuration (leveled compaction).
        let d = ctrl.observe_window(16, 0.05).unwrap();
        assert!(d.reoptimized, "forecast shift must consult the policy");
        assert_eq!(
            ctrl.active_config().compaction_method,
            rafiki_engine::CompactionMethod::Leveled,
            "proactive controller should pre-position for the read-heavy window"
        );
        assert!(ctrl.forecaster().observations() >= 17);
    }

    #[test]
    fn trace_run_reports_switch_counts() {
        let tuner = fitted_tuner();
        let mut ctrl = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
        let trace = MgRastModel {
            days: 1,
            seed: 5,
            ..MgRastModel::default()
        }
        .generate();
        let report = ctrl.run_trace(&trace).unwrap();
        assert_eq!(report.decisions.len(), trace.windows.len());
        assert!(report.reoptimizations >= 1);
        assert!(report.switches <= report.reoptimizations);
        // The MG-RAST trace shifts regimes often; the controller must react.
        assert!(
            report.reoptimizations > trace.windows.len() / 20,
            "only {} reoptimizations",
            report.reoptimizations
        );
    }

    #[test]
    fn decisions_name_the_policy_bucket() {
        let mut ctrl = OnlineController::new(fitted_tuner(), ControllerConfig::default()).unwrap();
        let d0 = ctrl.observe_window(0, 0.86).unwrap();
        assert!(
            d0.rationale.contains("first window; policy rr=0.85"),
            "got: {}",
            d0.rationale
        );
        let d1 = ctrl.observe_window(1, 0.84).unwrap();
        assert!(!d1.rationale.contains("policy"), "got: {}", d1.rationale);
    }

    #[test]
    fn shifts_into_one_bucket_do_not_flap() {
        // 0.86 and 0.874 are both nearest the 0.85 bucket. Two separate
        // searches at those ratios would return two near-identical
        // winners and reconfigure the engine to move between them.
        let mut ctrl = OnlineController::new(fitted_tuner(), ControllerConfig::default()).unwrap();
        let d0 = ctrl.observe_window(0, 0.86).unwrap();
        assert!(d0.switched, "got: {}", d0.rationale);
        let after_first = ctrl.active_config().clone();
        let d1 = ctrl.observe_window(1, 0.72).unwrap();
        assert!(!d1.reoptimized, "0.14 is inside the dead band");
        let d2 = ctrl.observe_window(2, 0.874).unwrap();
        assert!(d2.reoptimized && !d2.switched);
        assert_eq!(
            d2.rationale,
            "hold: observed rr shift; policy rr=0.85; re-derived the active config"
        );
        assert_eq!(ctrl.active_config(), &after_first);
    }

    #[test]
    fn no_search_runs_while_a_trace_is_observed() {
        let tuner = fitted_tuner();
        // A seed no other test uses, so this trace's read ratios tell
        // its spans and events from those of tests running beside it.
        let trace = MgRastModel {
            days: 1,
            seed: 20_171_211,
            ..MgRastModel::default()
        }
        .generate();
        let is_mine = |e: &rafiki_obs::Event| {
            e.fields.iter().any(|(k, v)| {
                *k == "read_ratio"
                    && matches!(v, rafiki_obs::Value::F64(x)
                        if trace.windows.iter().any(|w| w.read_ratio == *x))
            })
        };
        // The policy is searched here, before anything is recorded.
        let mut ctrl = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
        let _turn = subscriber_turn();
        let sink = std::sync::Arc::new(rafiki_obs::MemorySink::new());
        rafiki_obs::set_subscriber(sink.clone(), rafiki_obs::Level::Debug);
        let report = ctrl.run_trace(&trace).unwrap();
        rafiki_obs::clear_subscriber();
        assert!(report.reoptimizations > 1);
        let events = sink.events();
        let decisions = events
            .iter()
            .filter(|e| e.target == "controller" && e.name == "decision" && is_mine(e))
            .count();
        assert_eq!(decisions, trace.windows.len(), "the sink saw the run");
        let searches = events
            .iter()
            .filter(|e| e.target == "tuner" && e.name == "optimize" && is_mine(e))
            .count();
        assert_eq!(searches, 0, "observe_window ran a search");
    }
}
