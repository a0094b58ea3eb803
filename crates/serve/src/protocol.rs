//! Typed request/response frames and their JSON mapping.
//!
//! One frame per line. Requests:
//!
//! ```json
//! {"type":"op","kind":"read","key":42}
//! {"type":"op","kind":"insert","key":7,"len":800}
//! {"type":"op","kind":"scan","key":100,"len":50}
//! {"type":"batch","ops":[[0,42],[1,7,800],[4,100,50]]}
//! {"type":"stats"}
//! {"type":"config"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! ```
//!
//! Responses mirror the request kind: `done` (with the simulated latency)
//! for operations, `batch` with one result per op, `stats`/`config`/
//! `metrics` reports, `bye` for shutdown, and `error` with a message for
//! malformed or failed requests.
//!
//! A report's wire object has one member per struct field, named as the
//! field, in declaration order, and every member is required. Keys and
//! other integers on the wire are below 2^53, the range in which every
//! integer survives the generic parser's `f64` exactly.
//!
//! A `batch` frame carries up to [`MAX_BATCH`] operations. Unlike
//! single-op frames, batch elements use a *compact positional form*
//! `[code, key]` / `[code, key, len]` with numeric op codes (0 read,
//! 1 insert, 2 update, 3 delete, 4 scan): parsing hundreds of
//! `{"kind":...,"key":...}` objects per frame costs more CPU than the
//! engine work itself (string keys, one allocation per member), which
//! would cancel most of what batching saves. A `batch` response is the
//! mirror image — `results` holds a plain latency number per completed
//! op, or an `{"error":...}` object for a failed one.
//!
//! Batch decoding is per-op: one malformed element becomes an error
//! entry in the `batch` response at the same index, while the rest of
//! the frame — and the connection — proceed normally. Only a frame
//! exceeding [`MAX_BATCH`], or one whose `ops` member is missing or not
//! an array, is rejected as a whole with a top-level `error` response.

use crate::wire::Json;
use rafiki_engine::{CompactionMethod, EngineConfig};
use rafiki_workload::{Key, OpKind, Operation};

/// Most operations a single `batch` frame may carry. Oversized frames
/// are rejected whole (top-level `error`), bounding per-frame memory and
/// the time one client can hold the engine lock.
pub const MAX_BATCH: usize = 1024;

/// Longest frame line, newline excluded, the daemon reads; a client that
/// sends more without a newline gets one `error` frame and is
/// disconnected. The longest canonical batch element is 36 bytes
/// (`[4,18446744073709551615,4294967295],` — code, u64 key, u32 len), so
/// a full [`MAX_BATCH`] frame is at most ~37 KB; four times that
/// (147,456 bytes) leaves room for the whitespace the generic parser
/// accepts between tokens.
pub const MAX_FRAME_BYTES: usize = 4 * 36 * MAX_BATCH;

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one datastore operation.
    Op(Operation),
    /// Execute up to [`MAX_BATCH`] operations in one frame. Each element
    /// is the *decode outcome* of one op: a malformed element survives
    /// decoding as `Err(message)` so the server can answer it with a
    /// per-op error while executing the rest.
    Batch(Vec<Result<Operation, String>>),
    /// Report aggregate statistics.
    Stats,
    /// Report the active configuration and reconfiguration history.
    Config,
    /// Report every metric series (counters, gauges, histogram
    /// summaries) plus their Prometheus text exposition.
    Metrics,
    /// Stop the daemon (all connections drain, the accept loop exits).
    Shutdown,
}

impl Request {
    /// A batch frame of well-formed operations.
    pub fn batch<I: IntoIterator<Item = Operation>>(ops: I) -> Request {
        Request::Batch(ops.into_iter().map(Ok).collect())
    }
}

/// The per-op outcome inside a `batch` response.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchResult {
    /// The operation completed with the given simulated latency.
    Done {
        /// Simulated operation latency in microseconds.
        latency_us: u64,
    },
    /// The operation failed (malformed, or rejected by the engine).
    Error {
        /// What went wrong.
        message: String,
    },
}

/// A value with one JSON wire form: the report structs declared through
/// `wire_structs!` and the leaf types their fields use.
trait Wire: Sized {
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected an integer in 0..2^53".to_string())
    }
}

impl Wire for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| "expected a u32".to_string())
    }
}

impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

impl Wire for Option<f64> {
    fn to_json(&self) -> Json {
        self.map_or(Json::Null, Json::Num)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => f64::from_json(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// The `metrics` frame's name→value objects, in member order.
impl<T: Wire> Wire for Vec<(String, T)> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(name, value)| (name.clone(), value.to_json()))
                .collect(),
        )
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_obj()
            .ok_or("expected an object")?
            .iter()
            .map(|(name, value)| {
                let value = T::from_json(value).map_err(|e| format!("{name}: {e}"))?;
                Ok((name.clone(), value))
            })
            .collect()
    }
}

fn require<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
    v.get(key).ok_or_else(|| format!("missing field: {key}"))
}

fn require_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    require(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key} must be a string"))
}

/// Decodes the required member `key` of object `v`.
fn field<T: Wire>(v: &Json, key: &str) -> Result<T, String> {
    T::from_json(require(v, key)?).map_err(|e| format!("field {key}: {e}"))
}

/// Declares report structs whose wire form is a JSON object with one
/// member per field, named as the field, in declaration order — the one
/// place a field's wire name, type and position are written.
macro_rules! wire_structs {
    ($($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$field_attr:meta])* pub $field:ident: $ty:ty,)*
    })*) => {$(
        $(#[$attr])*
        pub struct $name {
            $($(#[$field_attr])* pub $field: $ty,)*
        }

        impl $name {
            fn members(&self) -> Vec<(&'static str, Json)> {
                vec![$((stringify!($field), Wire::to_json(&self.$field)),)*]
            }
        }

        impl Wire for $name {
            fn to_json(&self) -> Json {
                Json::obj(self.members())
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                Ok($name {
                    $($field: field(v, stringify!($field))?,)*
                })
            }
        }
    )*};
}

wire_structs! {
    /// Aggregated latency digest, from the merged per-client histograms.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct LatencySummary {
        /// Operations recorded.
        pub count: u64,
        /// Mean latency in microseconds.
        pub mean_us: f64,
        /// Median latency in microseconds.
        pub p50_us: u64,
        /// 95th-percentile latency in microseconds.
        pub p95_us: u64,
        /// 99th-percentile latency in microseconds.
        pub p99_us: u64,
        /// Maximum latency in microseconds.
        pub max_us: u64,
    }

    /// Engine work completed during the most recently closed window
    /// (a [`rafiki_engine::EngineMetrics`] delta plus the window's latency
    /// quantiles).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct WindowActivity {
        /// Reads completed in the window.
        pub reads_completed: u64,
        /// Writes completed in the window.
        pub writes_completed: u64,
        /// Memtable flushes in the window.
        pub flushes: u64,
        /// Compactions in the window.
        pub compactions: u64,
        /// Median operation latency within the window, µs (0 when the
        /// window recorded no operations).
        pub p50_us: u64,
        /// 99th-percentile operation latency within the window, µs.
        pub p99_us: u64,
    }

    /// One shard's view inside a [`StatsReport`]: the same shape as the
    /// aggregate, scoped to the keys the shard owns. The aggregate fields
    /// are exact merges of these (`Σ` for counts, sufficient-statistic
    /// merges for ratios, histogram merges for latency), so
    /// `Σ shards == aggregate` holds field by field.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ShardStats {
        /// Shard index (`0..shards`).
        pub shard: u64,
        /// Operations this shard's characterizer observed.
        pub operations: u64,
        /// Whole-stream read ratio on this shard.
        pub read_ratio: f64,
        /// Streaming KRD mean on this shard, when any reuse was observed.
        pub krd_mean: Option<f64>,
        /// Characterization windows this shard closed.
        pub windows_closed: u64,
        /// Controller re-optimizations triggered by this shard's windows.
        pub reoptimizations: u64,
        /// Configuration switches applied to this shard's engine.
        pub reconfigurations: u64,
        /// Latency digest of the ops routed to this shard.
        pub latency: LatencySummary,
        /// Engine activity in this shard's last closed window.
        pub last_window: WindowActivity,
    }

    /// The `stats` response payload.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatsReport {
        /// Operations observed by the characterizer.
        pub operations: u64,
        /// Whole-stream read ratio.
        pub read_ratio: f64,
        /// Streaming KRD mean (operations), when any reuse was observed.
        pub krd_mean: Option<f64>,
        /// Characterization windows closed so far.
        pub windows_closed: u64,
        /// Windows on which the controller consulted its policy table.
        pub reoptimizations: u64,
        /// Applied configuration switches.
        pub reconfigurations: u64,
        /// Latency digest across all clients.
        pub latency: LatencySummary,
        /// Engine activity in the last closed window (across all shards).
        pub last_window: WindowActivity,
        /// Per-shard breakdowns, one entry per shard, in shard order.
        pub shards: Vec<ShardStats>,
    }

    /// The key tuning parameters of a configuration, as reported on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ConfigSummary {
        /// Compaction method (`"size_tiered"` or `"leveled"`).
        pub compaction_method: String,
        /// Writer pool size.
        pub concurrent_writes: u32,
        /// Reader pool size.
        pub concurrent_reads: u32,
        /// File (block) cache size in MB.
        pub file_cache_size_mb: u32,
        /// Row cache size in MB.
        pub row_cache_size_mb: u32,
        /// Key cache size in MB.
        pub key_cache_size_mb: u32,
        /// Memtable heap space in MB.
        pub memtable_heap_space_mb: u32,
    }

    /// One parameter's old→new values inside a [`ReconfigEvent`] diff.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ParamChange {
        /// `cassandra.yaml`-style parameter name.
        pub param: String,
        /// Value before the switch (`f64` encoding of the engine catalog).
        pub from: f64,
        /// Value after the switch.
        pub to: f64,
    }

    /// One applied reconfiguration, as reported by the `config` endpoint.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReconfigEvent {
        /// The shard whose engine was reconfigured.
        pub shard: u64,
        /// Window index whose closure triggered the switch.
        pub window: u64,
        /// Read ratio of that window.
        pub read_ratio: f64,
        /// Tuner-predicted throughput of the new configuration at decision
        /// time.
        pub predicted_throughput: f64,
        /// The configuration that was applied.
        pub to: ConfigSummary,
        /// Exactly which parameters changed, old→new.
        pub diff: Vec<ParamChange>,
        /// Wall-clock duration of the engine apply, µs.
        pub apply_us: u64,
    }

    /// One shard's active configuration inside a [`ConfigReport`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardConfig {
        /// Shard index (`0..shards`).
        pub shard: u64,
        /// The configuration the shard's engine currently runs.
        pub active: ConfigSummary,
    }

    /// A cluster-topology event on the audit trail: keyspace scale-out at
    /// startup, or a lockstep reconfiguration that touched every shard at
    /// once. Per-shard engine switches stay [`ReconfigEvent`]s.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClusterEvent {
        /// Event kind: `"scale_out"` or `"lockstep_reconfigure"`.
        pub kind: String,
        /// Window index that triggered the event (0 for startup events).
        pub window: u64,
        /// Number of shards involved.
        pub shards: u64,
        /// Fraction of the keyspace whose owner changed (scale-out events;
        /// 0 otherwise).
        pub moved_fraction: f64,
        /// Human-readable description.
        pub detail: String,
    }

    /// The `config` response payload.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ConfigReport {
        /// The currently active configuration (shard 0's when shards have
        /// diverged — see `shards` for the full per-shard picture).
        pub active: ConfigSummary,
        /// Every applied reconfiguration, oldest first.
        pub events: Vec<ReconfigEvent>,
        /// Per-shard active configurations, in shard order.
        pub shards: Vec<ShardConfig>,
        /// Cluster-topology events, oldest first.
        pub cluster_events: Vec<ClusterEvent>,
    }

    /// Point-in-time summary of one histogram in a `metrics` response.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct MetricsHistogram {
        /// Observations recorded.
        pub count: u64,
        /// Sum of all recorded values (as `f64` on the wire).
        pub sum: f64,
        /// Exact minimum (0 when empty).
        pub min: u64,
        /// Median (0 when empty).
        pub p50: u64,
        /// 99th percentile (0 when empty).
        pub p99: u64,
        /// Exact maximum (0 when empty).
        pub max: u64,
    }

    /// The `metrics` response payload: every metric series, each
    /// section in sorted name order, plus the equivalent Prometheus text
    /// exposition for scraping.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsReport {
        /// `(name, value)` for every counter.
        pub counters: Vec<(String, u64)>,
        /// `(name, value)` for every gauge.
        pub gauges: Vec<(String, f64)>,
        /// `(name, summary)` for every histogram.
        pub histograms: Vec<(String, MetricsHistogram)>,
        /// The snapshot rendered in the Prometheus text exposition format.
        pub prometheus: String,
    }
}

impl From<&EngineConfig> for ConfigSummary {
    fn from(cfg: &EngineConfig) -> Self {
        ConfigSummary {
            compaction_method: match cfg.compaction_method {
                CompactionMethod::SizeTiered => "size_tiered".to_string(),
                CompactionMethod::Leveled => "leveled".to_string(),
            },
            concurrent_writes: cfg.concurrent_writes,
            concurrent_reads: cfg.concurrent_reads,
            file_cache_size_mb: cfg.file_cache_size_mb,
            row_cache_size_mb: cfg.row_cache_size_mb,
            key_cache_size_mb: cfg.key_cache_size_mb,
            memtable_heap_space_mb: cfg.memtable_heap_space_mb,
        }
    }
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An operation completed with the given simulated latency.
    Done {
        /// Simulated operation latency in microseconds.
        latency_us: u64,
    },
    /// Per-op results for a `batch` request, in request order.
    Batch(Vec<BatchResult>),
    /// Statistics report.
    Stats(StatsReport),
    /// Configuration report.
    Config(ConfigReport),
    /// Metric series snapshot.
    Metrics(MetricsReport),
    /// Shutdown acknowledged; the server closes the connection.
    Bye,
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// A frame of type `tag` whose other members are `members`.
fn frame(tag: &str, members: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("type", Json::str(tag))];
    pairs.extend(members);
    Json::obj(pairs)
}

/// Every operation kind's wire forms, indexed by its compact op code:
/// the kind, its `kind` name in `op` frames, and whether it carries
/// `len` (reads and deletes ignore it).
const OPS: [(OpKind, &str, bool); 5] = [
    (OpKind::Read, "read", false),
    (OpKind::Insert, "insert", true),
    (OpKind::Update, "update", true),
    (OpKind::Delete, "delete", false),
    (OpKind::Scan, "scan", true),
];

/// The compact op code of `kind`: its row in [`OPS`].
fn op_code(kind: OpKind) -> usize {
    OPS.iter()
        .position(|row| row.0 == kind)
        .expect("OPS has a row for every OpKind")
}

/// Builds one operation from its op code, key and `len`.
fn op_from_parts(code: u64, key: u64, len: u32) -> Result<Operation, String> {
    let &(kind, _, carries_len) = usize::try_from(code)
        .ok()
        .and_then(|code| OPS.get(code))
        .ok_or("unknown op code")?;
    if kind == OpKind::Scan && len == 0 {
        return Err("scan needs len >= 1".to_string());
    }
    Ok(Operation {
        kind,
        key: Key(key),
        payload_len: if carries_len { len } else { 0 },
    })
}

/// The `kind`/`key`[/`len`] members describing one operation in an `op`
/// frame.
fn op_pairs(op: &Operation) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![
        ("kind", Json::str(OPS[op_code(op.kind)].1)),
        ("key", op.key.0.to_json()),
    ];
    if op.payload_len > 0 {
        pairs.push(("len", op.payload_len.to_json()));
    }
    pairs
}

/// Encodes one operation in the compact batch-element form.
fn op_compact(op: &Operation) -> Json {
    let mut parts = vec![(op_code(op.kind) as u64).to_json(), op.key.0.to_json()];
    if op.payload_len > 0 {
        parts.push(op.payload_len.to_json());
    }
    Json::Arr(parts)
}

/// The exact frame prefix [`Request::to_json`] emits for batch frames.
const BATCH_FRAME_PREFIX: &str = "{\"type\":\"batch\",\"ops\":[";

/// Encodes a batch of operations directly into `out` — byte-identical
/// to `Request::batch(ops).to_json().encode_into(out)` but with no
/// intermediate `Json` tree (no per-op allocations). The client's frame
/// hot path.
pub fn encode_batch_into(ops: &[Operation], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str(BATCH_FRAME_PREFIX);
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}", op_code(op.kind), op.key.0);
        if op.payload_len > 0 {
            let _ = write!(out, ",{}", op.payload_len);
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// Scans one decimal `u64` starting at `i`; returns `(value, next)`.
fn scan_u64(bytes: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut value: u64 = 0;
    while let Some(d) = bytes.get(i).and_then(|b| (*b as char).to_digit(10)) {
        value = value.checked_mul(10)?.checked_add(d as u64)?;
        i += 1;
    }
    (i > start).then_some((value, i))
}

/// Zero-allocation (per element) decoder for *canonical* batch frames —
/// exactly the shape [`encode_batch_into`] emits, no whitespace.
/// Returns `None` for anything else (including frames over
/// [`MAX_BATCH`] and keys from 2^53 up); the caller falls back to the
/// generic `Json` path, which reports precise per-op and whole-frame
/// errors. The server's frame hot path: parsing hundreds of elements
/// through the generic `Json` tree costs more than the engine work in a
/// batch.
pub fn decode_batch_fast(line: &str) -> Option<Request> {
    let body = line
        .strip_prefix(BATCH_FRAME_PREFIX)?
        .strip_suffix("]}")?
        .as_bytes();
    if body.is_empty() {
        return Some(Request::Batch(Vec::new()));
    }
    let mut items = Vec::new();
    let mut i = 0;
    loop {
        if items.len() >= MAX_BATCH {
            return None; // oversized: generic path rejects it properly
        }
        if body.get(i) != Some(&b'[') {
            return None;
        }
        let (code, next) = scan_u64(body, i + 1)?;
        if body.get(next) != Some(&b',') {
            return None;
        }
        let (key, next) = scan_u64(body, next + 1)?;
        if key >= 1 << 53 {
            return None; // the generic path cannot read it exactly
        }
        let (len, next) = match body.get(next) {
            Some(&b']') => (0u32, next + 1),
            Some(&b',') => {
                let (len, next) = scan_u64(body, next + 1)?;
                if body.get(next) != Some(&b']') {
                    return None;
                }
                (u32::try_from(len).ok()?, next + 1)
            }
            _ => return None,
        };
        items.push(op_from_parts(code, key, len));
        match body.get(next) {
            None if next == body.len() => return Some(Request::Batch(items)),
            Some(&b',') => i = next + 1,
            _ => return None,
        }
    }
}

/// Decodes one compact batch element.
fn decode_op_compact(v: &Json) -> Result<Operation, String> {
    let parts = v.as_arr().ok_or("batch element must be an array")?;
    let (code, key, len) = match parts {
        [code, key] => (code, key, 0u32),
        [code, key, len] => {
            let len = len
                .as_u64()
                .and_then(|l| u32::try_from(l).ok())
                .ok_or("batch element len must be a u32")?;
            (code, key, len)
        }
        _ => return Err("batch element must be [code, key] or [code, key, len]".to_string()),
    };
    let key = key
        .as_u64()
        .ok_or("batch element key must be an integer in 0..2^53")?;
    op_from_parts(code.as_u64().ok_or("unknown op code")?, key, len)
}

/// Decodes one operation from its `kind`/`key`[/`len`] members.
fn decode_op(v: &Json) -> Result<Operation, String> {
    let key = field(v, "key")?;
    let len = match v.get("len") {
        None => 0,
        Some(_) => field(v, "len")?,
    };
    let kind = require_str(v, "kind")?;
    let code = OPS
        .iter()
        .position(|row| row.1 == kind)
        .ok_or_else(|| format!("unknown op kind: {kind}"))?;
    op_from_parts(code as u64, key, len)
}

impl Request {
    /// Encodes the request as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Op(op) => frame("op", op_pairs(op)),
            Request::Batch(items) => Json::obj(vec![
                ("type", Json::str("batch")),
                (
                    "ops",
                    Json::Arr(
                        items
                            .iter()
                            .map(|item| match item {
                                Ok(op) => op_compact(op),
                                // An undecodable element has no faithful
                                // encoding; `null` round-trips back to an
                                // error entry.
                                Err(_) => Json::Null,
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Stats => frame("stats", Vec::new()),
            Request::Config => frame("config", Vec::new()),
            Request::Metrics => frame("metrics", Vec::new()),
            Request::Shutdown => frame("shutdown", Vec::new()),
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field. Malformed
    /// *elements* of a `batch` frame do not error here — they decode to
    /// `Err` entries answered per-op by the server.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        match require_str(v, "type")? {
            "op" => Ok(Request::Op(decode_op(v)?)),
            "batch" => {
                let ops = require(v, "ops")?
                    .as_arr()
                    .ok_or("field ops must be an array")?;
                if ops.len() > MAX_BATCH {
                    return Err(format!(
                        "batch of {} exceeds the {MAX_BATCH}-op limit",
                        ops.len()
                    ));
                }
                Ok(Request::Batch(ops.iter().map(decode_op_compact).collect()))
            }
            "stats" => Ok(Request::Stats),
            "config" => Ok(Request::Config),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type: {other}")),
        }
    }
}

impl Response {
    /// Encodes the response as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Done { latency_us } => Json::obj(vec![
                ("type", Json::str("done")),
                ("latency_us", latency_us.to_json()),
            ]),
            Response::Batch(results) => Json::obj(vec![
                ("type", Json::str("batch")),
                (
                    "results",
                    Json::Arr(
                        results
                            .iter()
                            .map(|r| match r {
                                // Compact form: a completed op is its
                                // latency, bare.
                                BatchResult::Done { latency_us } => latency_us.to_json(),
                                BatchResult::Error { message } => {
                                    Json::obj(vec![("error", Json::str(message))])
                                }
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Stats(s) => frame("stats", s.members()),
            Response::Config(c) => frame("config", c.members()),
            Response::Metrics(m) => frame("metrics", m.members()),
            Response::Bye => frame("bye", Vec::new()),
            Response::Error { message } => frame("error", vec![("message", Json::str(message))]),
        }
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        match require_str(v, "type")? {
            "done" => Ok(Response::Done {
                latency_us: field(v, "latency_us")?,
            }),
            "batch" => {
                let results = require(v, "results")?
                    .as_arr()
                    .ok_or("field results must be an array")?
                    .iter()
                    .map(|r| {
                        if let Some(latency_us) = r.as_u64() {
                            Ok(BatchResult::Done { latency_us })
                        } else if let Some(msg) = r.get("error") {
                            Ok(BatchResult::Error {
                                message: msg
                                    .as_str()
                                    .ok_or("field error must be a string")?
                                    .to_string(),
                            })
                        } else {
                            Err("batch result must be a latency or an error".to_string())
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Batch(results))
            }
            "stats" => Ok(Response::Stats(StatsReport::from_json(v)?)),
            "config" => Ok(Response::Config(ConfigReport::from_json(v)?)),
            "metrics" => Ok(Response::Metrics(MetricsReport::from_json(v)?)),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: field(v, "message")?,
            }),
            other => Err(format!("unknown response type: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_stats::mix64;

    /// `ConfigSummary::from(&EngineConfig::default())` on the wire.
    macro_rules! default_summary {
        () => {
            concat!(
                r#"{"compaction_method":"size_tiered","concurrent_writes":32,"#,
                r#""concurrent_reads":32,"file_cache_size_mb":256,"row_cache_size_mb":0,"#,
                r#""key_cache_size_mb":100,"memtable_heap_space_mb":128}"#
            )
        };
    }

    const STATS_LINE: &str = concat!(
        r#"{"type":"stats","operations":12000,"read_ratio":0.83,"krd_mean":412.5,"#,
        r#""windows_closed":12,"reoptimizations":3,"reconfigurations":2,"#,
        r#""latency":{"count":12000,"mean_us":812.25,"p50_us":700,"p95_us":1900,"#,
        r#""p99_us":3200,"max_us":9000},"#,
        r#""last_window":{"reads_completed":800,"writes_completed":200,"flushes":2,"#,
        r#""compactions":1,"p50_us":640,"p99_us":2100},"#,
        r#""shards":[{"shard":0,"operations":7000,"read_ratio":0.8,"krd_mean":400,"#,
        r#""windows_closed":7,"reoptimizations":2,"reconfigurations":1,"#,
        r#""latency":{"count":7000,"mean_us":800,"p50_us":690,"p95_us":1850,"#,
        r#""p99_us":3100,"max_us":9000},"#,
        r#""last_window":{"reads_completed":500,"writes_completed":100,"flushes":1,"#,
        r#""compactions":1,"p50_us":630,"p99_us":2000}},"#,
        r#"{"shard":1,"operations":5000,"read_ratio":0.87,"krd_mean":null,"#,
        r#""windows_closed":5,"reoptimizations":1,"reconfigurations":1,"#,
        r#""latency":{"count":0,"mean_us":0,"p50_us":0,"p95_us":0,"p99_us":0,"max_us":0},"#,
        r#""last_window":{"reads_completed":0,"writes_completed":0,"flushes":0,"#,
        r#""compactions":0,"p50_us":0,"p99_us":0}}]}"#
    );

    const EMPTY_STATS_LINE: &str = concat!(
        r#"{"type":"stats","operations":0,"read_ratio":0,"krd_mean":null,"#,
        r#""windows_closed":0,"reoptimizations":0,"reconfigurations":0,"#,
        r#""latency":{"count":0,"mean_us":0,"p50_us":0,"p95_us":0,"p99_us":0,"max_us":0},"#,
        r#""last_window":{"reads_completed":0,"writes_completed":0,"flushes":0,"#,
        r#""compactions":0,"p50_us":0,"p99_us":0},"shards":[]}"#
    );

    const CONFIG_LINE: &str = concat!(
        r#"{"type":"config","active":"#,
        default_summary!(),
        r#","events":[{"shard":1,"window":4,"read_ratio":0.1,"#,
        r#""predicted_throughput":15000,"to":"#,
        default_summary!(),
        r#","diff":[{"param":"concurrent_writes","from":32,"to":64},"#,
        r#"{"param":"file_cache_size_mb","from":512,"to":1024}],"apply_us":87}],"#,
        r#""shards":[{"shard":0,"active":"#,
        default_summary!(),
        r#"},{"shard":1,"active":"#,
        default_summary!(),
        r#"}],"cluster_events":[{"kind":"scale_out","window":0,"shards":2,"#,
        r#""moved_fraction":0.48,"detail":"keyspace partitioned across 2 shards"}]}"#
    );

    const METRICS_LINE: &str = concat!(
        r#"{"type":"metrics","#,
        r#""counters":{"serve_ops_total":12000,"serve_windows_closed_total":12},"#,
        r#""gauges":{"serve_read_ratio":0.83},"#,
        r#""histograms":{"serve_op_latency_us":{"count":12000,"sum":9747000,"min":11,"#,
        r#""p50":700,"p99":3200,"max":9000}},"#,
        r##""prometheus":"# TYPE serve_ops_total counter\nserve_ops_total 12000\n"}"##
    );

    /// Every fixture encodes to exactly its recorded line, and the line
    /// decodes back to the fixture.
    fn assert_requests_on_wire(frames: Vec<(Request, &str)>) {
        for (frame, line) in frames {
            assert_eq!(frame.to_json().encode(), line);
            assert_eq!(Request::from_json(&Json::parse(line).unwrap()), Ok(frame));
        }
    }

    #[test]
    fn requests_round_trip() {
        assert_requests_on_wire(vec![
            (
                Request::Op(Operation::read(Key(42))),
                r#"{"type":"op","kind":"read","key":42}"#,
            ),
            (
                Request::Op(Operation::insert(Key(7), 800)),
                r#"{"type":"op","kind":"insert","key":7,"len":800}"#,
            ),
            (
                Request::Op(Operation::update(Key(9), 256)),
                r#"{"type":"op","kind":"update","key":9,"len":256}"#,
            ),
            (
                Request::Op(Operation::delete(Key(1))),
                r#"{"type":"op","kind":"delete","key":1}"#,
            ),
            (
                Request::Op(Operation::scan(Key(100), 50)),
                r#"{"type":"op","kind":"scan","key":100,"len":50}"#,
            ),
            (Request::Stats, r#"{"type":"stats"}"#),
            (Request::Config, r#"{"type":"config"}"#),
            (Request::Metrics, r#"{"type":"metrics"}"#),
            (Request::Shutdown, r#"{"type":"shutdown"}"#),
        ]);
    }

    #[test]
    fn batch_requests_round_trip() {
        assert_requests_on_wire(vec![
            (
                Request::batch(vec![
                    Operation::read(Key(42)),
                    Operation::insert(Key(7), 800),
                    Operation::update(Key(9), 256),
                    Operation::delete(Key(1)),
                    Operation::scan(Key(100), 50),
                ]),
                r#"{"type":"batch","ops":[[0,42],[1,7,800],[2,9,256],[3,1],[4,100,50]]}"#,
            ),
            // An empty batch is a valid frame.
            (Request::batch(Vec::new()), r#"{"type":"batch","ops":[]}"#),
            (
                Request::batch(vec![Operation::read(Key(0))]),
                r#"{"type":"batch","ops":[[0,0]]}"#,
            ),
        ]);
    }

    #[test]
    fn batch_frame_wire_format_is_stable() {
        let line = Request::batch(vec![
            Operation::read(Key(3)),
            Operation::insert(Key(7), 800),
        ])
        .to_json()
        .encode();
        assert_eq!(line, r#"{"type":"batch","ops":[[0,3],[1,7,800]]}"#);
        assert_eq!(
            Request::batch(Vec::new()).to_json().encode(),
            r#"{"type":"batch","ops":[]}"#
        );
    }

    #[test]
    fn oversized_batch_is_rejected_whole() {
        let ok = Request::batch(vec![Operation::read(Key(1)); MAX_BATCH])
            .to_json()
            .encode();
        assert!(Request::from_json(&Json::parse(&ok).unwrap()).is_ok());

        let too_big = Request::batch(vec![Operation::read(Key(1)); MAX_BATCH + 1])
            .to_json()
            .encode();
        let err = Request::from_json(&Json::parse(&too_big).unwrap()).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn malformed_batch_element_decodes_to_a_per_op_error() {
        let line = r#"{"type":"batch","ops":[
            [0,1],
            [9,2],
            7,
            [4,3],
            [0]
        ]}"#;
        let Request::Batch(items) = Request::from_json(&Json::parse(line).unwrap()).unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!(items.len(), 5);
        assert_eq!(items[0], Ok(Operation::read(Key(1))));
        assert!(items[1].as_ref().unwrap_err().contains("unknown op code"));
        assert!(items[2].as_ref().unwrap_err().contains("must be an array"));
        assert!(items[3].as_ref().unwrap_err().contains("scan needs len"));
        assert!(items[4].as_ref().unwrap_err().contains("[code, key]"));
    }

    #[test]
    fn missing_or_invalid_ops_member_rejects_the_frame() {
        for bad in [
            r#"{"type":"batch"}"#,
            r#"{"type":"batch","ops":7}"#,
            r#"{"type":"batch","ops":{"kind":"read","key":1}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} must be rejected");
        }
    }

    /// Every fixture encodes to exactly its recorded line, and the line
    /// decodes back to the fixture.
    fn assert_responses_on_wire(frames: Vec<(Response, &str)>) {
        for (frame, line) in frames {
            assert_eq!(frame.to_json().encode(), line);
            assert_eq!(Response::from_json(&Json::parse(line).unwrap()), Ok(frame));
        }
    }

    #[test]
    fn batch_responses_round_trip() {
        assert_responses_on_wire(vec![
            (
                Response::Batch(vec![
                    BatchResult::Done { latency_us: 731 },
                    BatchResult::Error {
                        message: "unknown op kind: warp".to_string(),
                    },
                    BatchResult::Done { latency_us: 0 },
                ]),
                r#"{"type":"batch","results":[731,{"error":"unknown op kind: warp"},0]}"#,
            ),
            (
                Response::Batch(Vec::new()),
                r#"{"type":"batch","results":[]}"#,
            ),
        ]);
    }

    #[test]
    fn op_frame_wire_format_is_stable() {
        let line = Request::Op(Operation::insert(Key(7), 800))
            .to_json()
            .encode();
        assert_eq!(line, r#"{"type":"op","kind":"insert","key":7,"len":800}"#);
        let read = Request::Op(Operation::read(Key(3))).to_json().encode();
        assert_eq!(read, r#"{"type":"op","kind":"read","key":3}"#);
    }

    #[test]
    fn responses_round_trip() {
        let summary = ConfigSummary::from(&EngineConfig::default());
        assert_responses_on_wire(vec![
            (
                Response::Done { latency_us: 731 },
                r#"{"type":"done","latency_us":731}"#,
            ),
            (
                Response::Stats(StatsReport {
                    operations: 12_000,
                    read_ratio: 0.83,
                    krd_mean: Some(412.5),
                    windows_closed: 12,
                    reoptimizations: 3,
                    reconfigurations: 2,
                    latency: LatencySummary {
                        count: 12_000,
                        mean_us: 812.25,
                        p50_us: 700,
                        p95_us: 1_900,
                        p99_us: 3_200,
                        max_us: 9_000,
                    },
                    last_window: WindowActivity {
                        reads_completed: 800,
                        writes_completed: 200,
                        flushes: 2,
                        compactions: 1,
                        p50_us: 640,
                        p99_us: 2_100,
                    },
                    shards: vec![
                        ShardStats {
                            shard: 0,
                            operations: 7_000,
                            read_ratio: 0.8,
                            krd_mean: Some(400.0),
                            windows_closed: 7,
                            reoptimizations: 2,
                            reconfigurations: 1,
                            latency: LatencySummary {
                                count: 7_000,
                                mean_us: 800.0,
                                p50_us: 690,
                                p95_us: 1_850,
                                p99_us: 3_100,
                                max_us: 9_000,
                            },
                            last_window: WindowActivity {
                                reads_completed: 500,
                                writes_completed: 100,
                                flushes: 1,
                                compactions: 1,
                                p50_us: 630,
                                p99_us: 2_000,
                            },
                        },
                        ShardStats {
                            shard: 1,
                            operations: 5_000,
                            read_ratio: 0.87,
                            krd_mean: None,
                            windows_closed: 5,
                            reoptimizations: 1,
                            reconfigurations: 1,
                            latency: LatencySummary::default(),
                            last_window: WindowActivity::default(),
                        },
                    ],
                }),
                STATS_LINE,
            ),
            (Response::Stats(StatsReport::default()), EMPTY_STATS_LINE),
            (
                Response::Config(ConfigReport {
                    active: summary.clone(),
                    events: vec![ReconfigEvent {
                        shard: 1,
                        window: 4,
                        read_ratio: 0.1,
                        predicted_throughput: 15_000.0,
                        to: summary.clone(),
                        diff: vec![
                            ParamChange {
                                param: "concurrent_writes".to_string(),
                                from: 32.0,
                                to: 64.0,
                            },
                            ParamChange {
                                param: "file_cache_size_mb".to_string(),
                                from: 512.0,
                                to: 1024.0,
                            },
                        ],
                        apply_us: 87,
                    }],
                    shards: vec![
                        ShardConfig {
                            shard: 0,
                            active: summary.clone(),
                        },
                        ShardConfig {
                            shard: 1,
                            active: summary,
                        },
                    ],
                    cluster_events: vec![ClusterEvent {
                        kind: "scale_out".to_string(),
                        window: 0,
                        shards: 2,
                        moved_fraction: 0.48,
                        detail: "keyspace partitioned across 2 shards".to_string(),
                    }],
                }),
                CONFIG_LINE,
            ),
            (
                Response::Metrics(MetricsReport {
                    counters: vec![
                        ("serve_ops_total".to_string(), 12_000),
                        ("serve_windows_closed_total".to_string(), 12),
                    ],
                    gauges: vec![("serve_read_ratio".to_string(), 0.83)],
                    histograms: vec![(
                        "serve_op_latency_us".to_string(),
                        MetricsHistogram {
                            count: 12_000,
                            sum: 9_747_000.0,
                            min: 11,
                            p50: 700,
                            p99: 3_200,
                            max: 9_000,
                        },
                    )],
                    prometheus: "# TYPE serve_ops_total counter\nserve_ops_total 12000\n"
                        .to_string(),
                }),
                METRICS_LINE,
            ),
            (
                Response::Metrics(MetricsReport::default()),
                r#"{"type":"metrics","counters":{},"gauges":{},"histograms":{},"prometheus":""}"#,
            ),
            (Response::Bye, r#"{"type":"bye"}"#),
            (
                Response::Error {
                    message: "scan needs len >= 1".to_string(),
                },
                r#"{"type":"error","message":"scan needs len >= 1"}"#,
            ),
        ]);
    }

    #[test]
    fn every_report_field_is_required() {
        for (line, member) in [
            (STATS_LINE, r#","p99_us":2000"#),
            (EMPTY_STATS_LINE, r#","shards":[]"#),
            (CONFIG_LINE, r#","apply_us":87"#),
            (CONFIG_LINE, r#""shard":1,"#),
            (METRICS_LINE, r#","p99":3200"#),
        ] {
            let cut = line.replacen(member, "", 1);
            assert_ne!(cut, line, "{member} not in the line");
            let err = Response::from_json(&Json::parse(&cut).unwrap()).unwrap_err();
            assert!(err.contains("missing field"), "{member}: {err}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            r#"{"kind":"read","key":1}"#,
            r#"{"type":"op","kind":"read"}"#,
            r#"{"type":"op","kind":"warp","key":1}"#,
            r#"{"type":"op","kind":"scan","key":1}"#,
            r#"{"type":"op","kind":"read","key":-3}"#,
            r#"{"type":"noop"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn fast_batch_encode_matches_generic_encoder() {
        let ops = vec![
            Operation::read(Key(3)),
            Operation::insert(Key(7), 800),
            // Largest key the generic `f64`-backed encoder keeps exact.
            Operation::update(Key((1 << 53) - 1), 1),
            Operation::delete(Key(0)),
            Operation::scan(Key(12), 50),
        ];
        let generic = Request::batch(ops.iter().copied()).to_json().encode();
        let mut fast = String::new();
        encode_batch_into(&ops, &mut fast);
        assert_eq!(fast, generic);

        let mut empty = String::new();
        encode_batch_into(&[], &mut empty);
        assert_eq!(empty, Request::Batch(Vec::new()).to_json().encode());
    }

    #[test]
    fn fast_batch_decode_matches_generic_decoder() {
        let ops = vec![
            Operation::read(Key(3)),
            Operation::insert(Key(7), 800),
            Operation::scan(Key(12), 50),
        ];
        let mut line = String::new();
        encode_batch_into(&ops, &mut line);
        let fast = decode_batch_fast(&line).expect("canonical frame decodes fast");
        let generic = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(fast, generic);
        assert_eq!(
            decode_batch_fast(r#"{"type":"batch","ops":[]}"#),
            Some(Request::Batch(Vec::new()))
        );
        // In-band per-op errors survive the fast path too.
        match decode_batch_fast(r#"{"type":"batch","ops":[[9,1],[4,2,0]]}"#) {
            Some(Request::Batch(items)) => {
                assert_eq!(items[0], Err("unknown op code".to_string()));
                assert_eq!(items[1], Err("scan needs len >= 1".to_string()));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn keys_from_2_pow_53_up_are_an_error_on_every_path() {
        const EXACT: u64 = (1 << 53) - 1;
        // 2^53 + 1 is the first key whose text rounds onto another key.
        let canonical = format!(r#"{{"type":"batch","ops":[[0,{}]]}}"#, EXACT + 2);
        let spaced = canonical.replace("[[", "[ [");
        assert_eq!(decode_batch_fast(&canonical), None);
        for line in [&canonical, &spaced] {
            assert_eq!(
                Request::from_json(&Json::parse(line).unwrap()),
                Ok(Request::Batch(vec![Err(
                    "batch element key must be an integer in 0..2^53".to_string()
                )])),
                "{line}"
            );
        }
        let op = format!(r#"{{"type":"op","kind":"read","key":{}}}"#, EXACT + 2);
        assert!(Request::from_json(&Json::parse(&op).unwrap()).is_err());

        // The largest exact key round-trips through both decoders.
        let ops = [Operation::read(Key(EXACT))];
        let mut line = String::new();
        encode_batch_into(&ops, &mut line);
        assert_eq!(decode_batch_fast(&line), Some(Request::batch(ops)));
        for frame in [Request::batch(ops), Request::Op(ops[0])] {
            let line = frame.to_json().encode();
            assert_eq!(Request::from_json(&Json::parse(&line).unwrap()), Ok(frame));
        }
    }

    /// `decode_batch_fast` either declines `line` or returns exactly what
    /// the generic decoder does.
    fn assert_fast_agrees_with_generic(line: &str) {
        if let Some(fast) = decode_batch_fast(line) {
            let generic = Json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|v| Request::from_json(&v));
            assert_eq!(Ok(fast), generic, "{line}");
        }
    }

    #[test]
    fn fast_and_generic_batch_decoders_agree() {
        let mut state = 20_171_211;
        let mut next = move || {
            state = mix64(state);
            state
        };
        // A value near one of the bounds the decoders check, or anywhere.
        let near_edge = |r: u64| match r % 5 {
            0 => r >> 60,
            1 => (1 << 53) - 2 + (r >> 62),
            2 => u64::from(u32::MAX) - 1 + (r >> 62),
            3 => u64::MAX - (r >> 62),
            _ => r >> (r % 64),
        };
        const MUTANTS: &[u8] = b"0123456789[],{}\" -.e";
        for _ in 0..4_000 {
            let mut line = BATCH_FRAME_PREFIX.to_string();
            for i in 0..next() % 5 {
                if i > 0 {
                    line.push(',');
                }
                let (code, key) = (next() % 7, near_edge(next()));
                match next() % 3 {
                    0 => line.push_str(&format!("[{code},{key}]")),
                    _ => line.push_str(&format!("[{code},{key},{}]", near_edge(next()))),
                }
            }
            line.push_str("]}");
            assert_fast_agrees_with_generic(&line);

            let mut mutant = line.clone().into_bytes();
            let at = next() as usize % mutant.len();
            mutant[at] = MUTANTS[next() as usize % MUTANTS.len()];
            assert_fast_agrees_with_generic(std::str::from_utf8(&mutant).unwrap());
            assert_fast_agrees_with_generic(&line[..next() as usize % line.len()]);
        }
    }

    #[test]
    fn non_canonical_frames_fall_back_to_the_generic_parser() {
        for frame in [
            r#"{"type":"stats"}"#,
            r#"{"type":"op","kind":"read","key":1}"#,
            r#"{"type":"batch", "ops":[[0,1]]}"#, // whitespace
            r#"{"type":"batch","ops":[[0,1]] }"#,
            r#"{"type":"batch","ops":[[0,1],"x"]}"#,
            r#"{"type":"batch","ops":[[0,-1]]}"#,
            r#"{"type":"batch","ops":[[0,1],]}"#,
            "not json at all",
        ] {
            assert_eq!(decode_batch_fast(frame), None, "{frame}");
        }
        // Oversized frames defer to the generic path's error message.
        let many: Vec<Operation> = (0..=MAX_BATCH as u64)
            .map(|k| Operation::read(Key(k)))
            .collect();
        let mut line = String::new();
        encode_batch_into(&many, &mut line);
        assert_eq!(decode_batch_fast(&line), None);
    }

    #[test]
    fn config_summary_tracks_engine_config() {
        let cfg = EngineConfig {
            compaction_method: CompactionMethod::Leveled,
            concurrent_writes: 96,
            ..EngineConfig::default()
        };
        let s = ConfigSummary::from(&cfg);
        assert_eq!(s.compaction_method, "leveled");
        assert_eq!(s.concurrent_writes, 96);
        assert_eq!(s.file_cache_size_mb, cfg.file_cache_size_mb);
    }
}
