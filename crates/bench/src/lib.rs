//! The paper's experiments and the benchmark-record gate behind the
//! `rafiki-bench` binary: experiment-scale evaluation contexts, result
//! tables, and simple file output.
//!
//! Every module in [`experiments`] regenerates one table or figure of
//! the paper (or an ablation); `rafiki-bench all` chains them into
//! `EXPERIMENTS_RESULTS.md`, and [`check`] gates the committed
//! `BENCH_*.json` records. Output files land in `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod context;
pub mod experiments;
pub mod output;

pub use context::{experiment_context, quick_context, EXPERIMENT_SEED};
pub use output::{markdown_table, write_output, write_repo_root, OutputFile};
