//! Rafiki: a middleware for parameter tuning of NoSQL datastores for
//! dynamic workloads — a full reproduction of Mahgoub et al.,
//! Middleware '17.
//!
//! The workflow (§3.1 of the paper):
//!
//! 1. **Workload characterization** — [`rafiki_workload::characterize`]
//!    extracts the read ratio and key-reuse distance.
//! 2. **Important parameter identification** — [`screening`] varies each of
//!    the 30 catalogued parameters individually and ranks them with ANOVA.
//! 3. **Data collection** — [`dataset`] benchmarks sampled configurations
//!    across workloads.
//! 4. **Surrogate modelling** — [`tuner`] trains an ensemble DNN
//!    ([`rafiki_neural::SurrogateModel`]) mapping {workload, config} to
//!    throughput.
//! 5. **Configuration optimization** — [`tuner`] searches the space with a
//!    genetic algorithm over the surrogate, once per read-ratio bucket
//!    for the online policy table; [`controller`] looks the table up
//!    whenever the observed workload shifts, and
//!    [`cluster_controller`] scales that decision loop across N engine
//!    shards (independent or lockstep tuning).
//!
//! # Example
//!
//! ```no_run
//! use rafiki::{EvalContext, RafikiTuner, TunerConfig};
//!
//! let ctx = EvalContext::small();
//! let mut tuner = RafikiTuner::new(ctx, TunerConfig::fast());
//! let report = tuner.fit().expect("training data collection succeeds");
//! println!("trained on {} samples", report.samples_collected);
//! let best = tuner.optimize(0.9).expect("surrogate is trained");
//! println!("suggested config: {:?}", best.config);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_controller;
pub mod controller;
pub mod dataset;
pub mod dba;
pub mod evaluator;
pub mod grid;
pub mod screening;
pub mod search_space;
pub mod tuner;

pub use cluster_controller::{ClusterController, ClusterDecision, TuningMode};
pub use controller::{ControllerConfig, ControllerReport, OnlineController};
pub use dataset::{CollectionPlan, PerfDataset, PerfSample};
pub use dba::{DbaSpec, PerformanceMetric};
pub use evaluator::{DbFlavor, EvalContext};
pub use grid::GridPoint;
pub use screening::{identify_key_parameters, ScreeningConfig, ScreeningReport};
pub use search_space::ConfigSearchSpace;
pub use tuner::{OptimizedConfig, RafikiTuner, TunerConfig, TunerError, TunerReport};
