//! Dynamic tuning: drive the online controller across a day of
//! MG-RAST-like workload (abrupt read-heavy/write-heavy/mixed regime
//! switches, Figure 3 of the paper) and report how it reacts.
//!
//! ```text
//! cargo run --release --example dynamic_tuning
//! ```

use rafiki::{ControllerConfig, EvalContext, OnlineController, RafikiTuner, TunerConfig};
use rafiki_workload::{MgRastModel, Regime};

fn main() {
    // Offline phase: fit the tuner once.
    let mut tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
    tuner.fit().expect("offline training succeeds");

    // A one-day trace at 15-minute windows with MG-RAST's regime dynamics.
    let trace = MgRastModel {
        days: 1,
        seed: 42,
        ..MgRastModel::default()
    }
    .generate();
    println!(
        "trace: {} windows of {} min, {} abrupt transitions (|ΔRR| >= 0.4)",
        trace.windows.len(),
        trace.window_minutes,
        trace.abrupt_transitions(0.4)
    );

    // Online phase: observe each window; the controller re-optimizes on
    // large read-ratio shifts and switches configurations when the
    // predicted gain justifies it.
    let mut controller =
        OnlineController::new(&tuner, ControllerConfig::default()).expect("tuner is fitted");
    let report = controller.run_trace(&trace).expect("trace replay succeeds");

    println!(
        "controller: {} re-optimizations, {} configuration switches",
        report.reoptimizations, report.switches
    );

    // Proactive mode (the paper's §6 future work): an online regime-Markov
    // forecaster lets the controller tune for the *predicted next* window.
    let mut proactive = OnlineController::new(
        &tuner,
        ControllerConfig {
            proactive: true,
            ..ControllerConfig::default()
        },
    )
    .expect("tuner is fitted");
    let proactive_report = proactive.run_trace(&trace).expect("trace replay succeeds");
    println!(
        "proactive controller: {} re-optimizations, {} switches (forecaster saw {} windows)",
        proactive_report.reoptimizations,
        proactive_report.switches,
        proactive.forecaster().observations()
    );
    for d in report.decisions.iter().take(24) {
        println!(
            "  window {:>3}  RR={:>5.2}  regime={:<10}  {}{}  predicted {:>8.0} ops/s",
            d.window,
            d.read_ratio,
            format!("{:?}", Regime::classify(d.read_ratio)),
            if d.reoptimized { "tbl" } else { "-  " },
            if d.switched { "switch" } else { "      " },
            d.predicted_throughput,
        );
    }
    println!(
        "  … ({} more windows)",
        report.decisions.len().saturating_sub(24)
    );
}
