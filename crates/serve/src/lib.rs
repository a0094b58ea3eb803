//! The online tuning middleware daemon of the Rafiki reproduction.
//!
//! Rafiki (Mahgoub et al., Middleware '17) sits *between* the
//! application and the datastore: it watches the live request stream,
//! characterizes it (read ratio per window, key-reuse distance), and
//! retunes the datastore when the workload shifts. The batch pipeline in
//! [`rafiki`] reproduces the offline stages; this crate closes the loop
//! online:
//!
//! - [`wire`] — a dependency-free newline-delimited JSON codec;
//! - [`protocol`] — typed request/response frames (`op`, `batch`,
//!   `stats`, `config`, `metrics`, `shutdown`);
//! - [`server`] — the daemon: a consistent-hash ring routes every
//!   operation to one of N engine shards, each behind its own mutex.
//!   The connection thread that read a frame runs each shard's slice of
//!   it itself, to completion on that shard's private simulated engine;
//!   each shard feeds its own streaming
//!   [`rafiki_workload::OnlineCharacterizer`] and hands each closed
//!   window to the shared [`rafiki::ClusterController`], whose switches
//!   are applied to the live shard engines via `Engine::reconfigure`;
//! - [`client`] — a blocking client plus load-generator mode, used by
//!   the CLI (`rafiki-tune serve` / `rafiki-tune client`) and the
//!   loopback tests.
//!
//! # Example
//!
//! Frames are plain JSON lines, so the protocol is usable from anything
//! that can speak TCP:
//!
//! ```
//! use rafiki_serve::{Json, Request};
//! use rafiki_workload::{Key, Operation};
//!
//! let frame = Request::Op(Operation::read(Key(42))).to_json().encode();
//! assert_eq!(frame, r#"{"type":"op","kind":"read","key":42}"#);
//! let back = Request::from_json(&Json::parse(&frame).unwrap()).unwrap();
//! assert_eq!(back, Request::Op(Operation::read(Key(42))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod shard;
pub mod wire;

pub use client::Client;
pub use protocol::{
    BatchResult, ClusterEvent, ConfigReport, ConfigSummary, LatencySummary, MetricsHistogram,
    MetricsReport, ParamChange, ReconfigEvent, Request, Response, ShardConfig, ShardStats,
    StatsReport, WindowActivity, MAX_BATCH, MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, ServeReport, Server};
pub use wire::{Json, JsonError};
