//! Observability for the Rafiki middleware: structured tracing and
//! metric snapshots, both dependency-free.
//!
//! Rafiki's pitch is visibility into a running datastore, so the
//! middleware itself must be inspectable: *why* did the controller
//! switch configurations, what did a reconfiguration cost, what is the
//! engine doing right now? This crate is the substrate every layer
//! reports through:
//!
//! - [`trace`] — a lightweight structured tracing facade: [`Event`]s
//!   with monotonic timestamps and typed key/value fields, RAII
//!   [`Span`]s that time an operation, and a process-global
//!   [`Subscriber`] whose default is a no-op costing one relaxed atomic
//!   load per instrumentation site;
//! - [`sink`] — subscribers that write somewhere: [`JsonlSink`] (one
//!   JSON object per line, same hand-rolled deterministic encoding
//!   conventions as the serve wire codec), [`HumanSink`] (aligned
//!   human-readable lines), [`MemorySink`] (for tests), and
//!   [`TeeSink`] (fan-out);
//! - [`metrics`] — point-in-time [`Snapshot`]s of named counters,
//!   gauges and latency [`HistogramSummary`]s (condensed from a
//!   [`rafiki_stats::StreamingHistogram`]), [`labeled`] series names,
//!   and Prometheus text exposition. The counts themselves live with
//!   whoever owns them; a snapshot is built from them when asked.
//!
//! # Example
//!
//! ```
//! use rafiki_obs::{self as obs, Level, Value};
//! use std::sync::Arc;
//!
//! // Tracing: events go nowhere until a subscriber is installed.
//! let sink = Arc::new(obs::MemorySink::new());
//! obs::set_subscriber(sink.clone(), Level::Debug);
//! let span = obs::span("demo", "work", Level::Info);
//! obs::event("demo", "step", Level::Debug, vec![("n", Value::U64(1))]);
//! span.close(vec![("outcome", Value::str("ok"))]);
//! assert_eq!(sink.events().len(), 2);
//! obs::clear_subscriber();
//!
//! // Metrics: a snapshot is plain data, rendered on demand.
//! let snapshot = obs::Snapshot {
//!     counters: vec![
//!         ("demo_ops_total".to_string(), 3),
//!         (obs::labeled("demo_ops_total", &[("shard", "0")]), 3),
//!     ],
//!     ..obs::Snapshot::default()
//! };
//! let text = snapshot.prometheus_text();
//! assert!(text.contains("demo_ops_total 3"));
//! assert!(text.contains("demo_ops_total{shard=\"0\"} 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod sink;
pub mod trace;

pub use metrics::{labeled, HistogramSummary, Snapshot};
pub use sink::{FilterSink, HumanSink, JsonlSink, MemorySink, TeeSink};
pub use trace::{
    clear_subscriber, enabled, event, set_subscriber, span, Event, EventKind, Level, Span,
    Subscriber, Value,
};
