//! Cluster-level online tuning: one fitted tuner driving N engine
//! shards, either independently (each shard reacts to its own windows)
//! or in lockstep (one decision stream reconfigures every shard).
//!
//! This is the SOPHIA/OtterTune deployment shape at cluster scale: the
//! expensive artifacts (surrogate model, the policy table of GA
//! searches built by the first controller) are shared, while
//! the *policy* of how many configurations the cluster runs at once is
//! a mode switch. Independent mode lets shards with skewed workloads
//! diverge (a hot read shard can run a read-optimized config while a
//! write-heavy neighbour compacts aggressively); lockstep mode keeps a
//! homogeneous cluster — one config everywhere — which is what the
//! paper's multi-server experiment (Table 3) models.

use crate::controller::{ControllerConfig, OnlineController, WindowDecision};
use crate::tuner::{RafikiTuner, TunerError};
use rafiki_engine::EngineConfig;

/// How the cluster maps controller decisions onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuningMode {
    /// Each shard owns a private [`OnlineController`]; a switch
    /// reconfigures only the shard whose window triggered it.
    #[default]
    Independent,
    /// One shared controller observes every shard's windows; a switch
    /// reconfigures *all* shards to the same configuration.
    Lockstep,
}

/// A cluster-level decision: the underlying controller verdict plus the
/// exact set of `(shard, config)` reconfigurations to apply. Empty
/// `apply` means hold everywhere.
#[derive(Debug, Clone)]
pub struct ClusterDecision {
    /// The controller's per-window decision (rationale included).
    pub decision: WindowDecision,
    /// Shard indices to reconfigure, with the configuration each one
    /// should adopt. Singleton in independent mode; every shard in
    /// lockstep mode when the shared controller switches.
    pub apply: Vec<(usize, EngineConfig)>,
}

/// A fleet of per-shard controllers (or one shared one) over a single
/// fitted tuner. See the module docs.
#[derive(Debug)]
pub struct ClusterController<'t> {
    mode: TuningMode,
    shards: usize,
    /// `shards` controllers in independent mode; exactly one (index 0)
    /// in lockstep mode.
    controllers: Vec<OnlineController<'t>>,
}

impl<'t> ClusterController<'t> {
    /// Builds the controller fleet.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NotFitted`] when the tuner has not been
    /// fitted.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(
        tuner: &'t RafikiTuner,
        cfg: ControllerConfig,
        shards: usize,
        mode: TuningMode,
    ) -> Result<Self, TunerError> {
        assert!(shards >= 1, "cluster needs at least one shard");
        let n = match mode {
            TuningMode::Independent => shards,
            TuningMode::Lockstep => 1,
        };
        let controllers = (0..n)
            .map(|_| OnlineController::new(tuner, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterController {
            mode,
            shards,
            controllers,
        })
    }

    /// Number of shards under management.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The tuning mode.
    pub fn mode(&self) -> TuningMode {
        self.mode
    }

    /// The configuration the controller currently wants `shard` to run.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn active_config(&self, shard: usize) -> &EngineConfig {
        assert!(shard < self.shards, "shard {shard} out of range");
        match self.mode {
            TuningMode::Independent => self.controllers[shard].active_config(),
            TuningMode::Lockstep => self.controllers[0].active_config(),
        }
    }

    /// Feeds one closed window from `shard` and returns the cluster
    /// decision: which shards (if any) must reconfigure, and to what.
    ///
    /// # Errors
    ///
    /// Propagates tuner errors (cannot occur after successful
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn observe_window(
        &mut self,
        shard: usize,
        window: usize,
        read_ratio: f64,
    ) -> Result<ClusterDecision, TunerError> {
        assert!(shard < self.shards, "shard {shard} out of range");
        match self.mode {
            TuningMode::Independent => {
                let decision = self.controllers[shard].observe_window(window, read_ratio)?;
                let apply = if decision.switched {
                    vec![(shard, self.controllers[shard].active_config().clone())]
                } else {
                    Vec::new()
                };
                Ok(ClusterDecision { decision, apply })
            }
            TuningMode::Lockstep => {
                let decision = self.controllers[0].observe_window(window, read_ratio)?;
                let apply = if decision.switched {
                    let cfg = self.controllers[0].active_config().clone();
                    (0..self.shards).map(|s| (s, cfg.clone())).collect()
                } else {
                    Vec::new()
                };
                Ok(ClusterDecision { decision, apply })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalContext;
    use crate::tuner::{fitted_fixture, TunerConfig};

    fn fitted_tuner() -> &'static RafikiTuner {
        &fitted_fixture().0
    }

    #[test]
    fn unfitted_tuner_is_rejected() {
        let tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
        let err = ClusterController::new(
            &tuner,
            ControllerConfig::default(),
            2,
            TuningMode::default(),
        );
        assert!(matches!(err, Err(TunerError::NotFitted)));
    }

    #[test]
    fn independent_shards_tune_separately() {
        let tuner = fitted_tuner();
        let mut cluster = ClusterController::new(
            tuner,
            ControllerConfig::default(),
            2,
            TuningMode::Independent,
        )
        .expect("cluster");
        // Shard 0 sees a read-heavy first window: first window always
        // reoptimizes, and any switch must target shard 0 alone.
        let d0 = cluster.observe_window(0, 0, 0.95).expect("decision");
        assert!(d0.decision.reoptimized);
        for &(shard, _) in &d0.apply {
            assert_eq!(shard, 0);
        }
        // Shard 1 has seen nothing: its controller still runs the
        // default config regardless of what shard 0 decided.
        assert_eq!(cluster.active_config(1), &EngineConfig::default());
        // Shard 1's own first window drives its own controller.
        let d1 = cluster.observe_window(1, 0, 0.05).expect("decision");
        assert!(d1.decision.reoptimized);
        for &(shard, _) in &d1.apply {
            assert_eq!(shard, 1);
        }
    }

    #[test]
    fn lockstep_switch_applies_to_every_shard() {
        let tuner = fitted_tuner();
        let mut cluster =
            ClusterController::new(tuner, ControllerConfig::default(), 3, TuningMode::Lockstep)
                .expect("cluster");
        let d = cluster.observe_window(1, 0, 0.9).expect("decision");
        assert!(d.decision.reoptimized);
        if d.decision.switched {
            let shards: Vec<usize> = d.apply.iter().map(|&(s, _)| s).collect();
            assert_eq!(shards, vec![0, 1, 2]);
            let cfg = &d.apply[0].1;
            assert!(d.apply.iter().all(|(_, c)| c == cfg));
        } else {
            assert!(d.apply.is_empty());
        }
        // Every shard reports the same active configuration.
        let c0 = cluster.active_config(0).clone();
        assert_eq!(cluster.active_config(1), &c0);
        assert_eq!(cluster.active_config(2), &c0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_panics() {
        let tuner = fitted_tuner();
        let cluster = ClusterController::new(
            tuner,
            ControllerConfig::default(),
            2,
            TuningMode::Independent,
        )
        .expect("cluster");
        let _ = cluster.active_config(2);
    }
}
