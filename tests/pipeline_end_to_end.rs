//! End-to-end middleware tests: the full Rafiki pipeline — screening,
//! data collection, surrogate training, GA search, online control —
//! exercised together on the small evaluation context.

use rafiki::{ControllerConfig, EvalContext, OnlineController, RafikiTuner, TunerConfig};
use rafiki_engine::EngineConfig;
use rafiki_workload::MgRastModel;
use std::sync::OnceLock;

/// Fitting is seed-deterministic and every test here only borrows the
/// tuner, so the ~20 s fit is paid once for the whole binary.
fn fitted() -> &'static RafikiTuner {
    static FITTED: OnceLock<RafikiTuner> = OnceLock::new();
    FITTED.get_or_init(|| {
        let mut tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
        tuner.fit().expect("fit succeeds");
        tuner
    })
}

#[test]
fn surrogate_predictions_track_measurements() {
    let tuner = fitted();
    let space = tuner.space().expect("fitted").clone();
    // Probe three configurations x two workloads; the surrogate should be
    // within a loose band of the true measurement (the paper reports ~6-8%
    // on held-out data at full scale; the fast profile is coarser).
    let genomes = [space.default_genome(), {
        let mut g = space.default_genome();
        g[0] = 1.0; // leveled
        g
    }];
    for rr in [0.25, 0.75] {
        for genome in &genomes {
            let cfg = space.config_from_genome(genome);
            let actual = tuner.context().measure(rr, &cfg);
            let predicted = tuner.predict(rr, genome).expect("fitted");
            let err = ((predicted - actual) / actual).abs();
            assert!(
                err < 0.5,
                "prediction error {err:.2} too large at RR={rr} genome {genome:?}"
            );
        }
    }
}

#[test]
fn tuned_configs_beat_defaults_across_regimes() {
    let tuner = fitted();
    let mut wins = 0;
    let regimes = [0.1, 0.5, 0.9];
    for &rr in &regimes {
        let best = tuner.optimize(rr).expect("fitted");
        let default_tput = tuner.context().measure(rr, &EngineConfig::default());
        let tuned_tput = tuner.context().measure(rr, &best.config);
        if tuned_tput >= default_tput * 0.98 {
            wins += 1;
        }
    }
    // The tuner must never be catastrophically wrong, and must win in at
    // least two of the three regimes even with the fast profile.
    assert!(wins >= 2, "tuned config won in only {wins}/3 regimes");
}

#[test]
fn read_heavy_optimization_prefers_leveled_compaction() {
    let tuner = fitted();
    let best = tuner.optimize(0.95).expect("fitted");
    assert_eq!(
        best.config.compaction_method,
        rafiki_engine::CompactionMethod::Leveled,
        "read-heavy tuning should choose leveled compaction (§2.2.2)"
    );
}

#[test]
fn controller_follows_the_trace_and_improves_throughput() {
    let tuner = fitted();
    let mut controller = OnlineController::new(tuner, ControllerConfig::default()).unwrap();
    let trace = MgRastModel {
        days: 1,
        seed: 21,
        ..MgRastModel::default()
    }
    .generate();
    let report = controller.run_trace(&trace).unwrap();
    assert_eq!(report.decisions.len(), trace.windows.len());
    assert!(report.switches >= 1, "controller never switched configs");

    // Spot-check: measure one read-heavy window with the configuration the
    // controller would be running vs the static default.
    let read_heavy = trace
        .windows
        .iter()
        .find(|w| w.read_ratio > 0.85)
        .expect("trace has a read-heavy window");
    let tuned_cfg = tuner.optimize(read_heavy.read_ratio).unwrap().config;
    let tuned = tuner.context().measure(read_heavy.read_ratio, &tuned_cfg);
    let default_tput = tuner
        .context()
        .measure(read_heavy.read_ratio, &EngineConfig::default());
    assert!(
        tuned > default_tput,
        "tuned {tuned:.0} vs default {default_tput:.0} on a read-heavy window"
    );
}

#[test]
fn search_uses_only_surrogate_evaluations() {
    // §4.8: the GA consults the surrogate thousands of times but the
    // datastore zero times during the online search.
    let tuner = fitted();
    let best = tuner.optimize(0.5).expect("fitted");
    assert!(
        best.surrogate_evaluations >= 500,
        "GA used only {} evaluations",
        best.surrogate_evaluations
    );
}
