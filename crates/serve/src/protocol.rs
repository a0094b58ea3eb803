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
//! for operations, `batch` with one result per op, `stats`/`config`
//! reports, `bye` for shutdown, and `error` with a message for malformed
//! or failed requests.
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
    /// Report a full metrics-registry snapshot (counters, gauges,
    /// histogram summaries) plus its Prometheus text exposition.
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
    /// window recorded no operations; absent on pre-quantile servers).
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
    /// Empty when talking to a pre-sharding server.
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
    /// The shard whose engine was reconfigured (0 when reported by a
    /// pre-sharding server).
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
    /// Exactly which parameters changed, old→new (empty when reported
    /// by a pre-diff server).
    pub diff: Vec<ParamChange>,
    /// Wall-clock duration of the engine apply, µs (0 when reported by
    /// a pre-diff server).
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
    /// Per-shard active configurations, in shard order. Empty when
    /// talking to a pre-sharding server.
    pub shards: Vec<ShardConfig>,
    /// Cluster-topology events, oldest first. Empty when talking to a
    /// pre-sharding server.
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

/// The `metrics` response payload: a full registry snapshot, each
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
    /// Metrics-registry snapshot.
    Metrics(MetricsReport),
    /// Shutdown acknowledged; the server closes the connection.
    Bye,
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn latency_json(l: &LatencySummary) -> Json {
    Json::obj(vec![
        ("count", num(l.count)),
        ("mean_us", Json::Num(l.mean_us)),
        ("p50_us", num(l.p50_us)),
        ("p95_us", num(l.p95_us)),
        ("p99_us", num(l.p99_us)),
        ("max_us", num(l.max_us)),
    ])
}

fn window_json(w: &WindowActivity) -> Json {
    Json::obj(vec![
        ("reads_completed", num(w.reads_completed)),
        ("writes_completed", num(w.writes_completed)),
        ("flushes", num(w.flushes)),
        ("compactions", num(w.compactions)),
        ("p50_us", num(w.p50_us)),
        ("p99_us", num(w.p99_us)),
    ])
}

fn require<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
    v.get(key).ok_or_else(|| format!("missing field: {key}"))
}

fn require_u64(v: &Json, key: &str) -> Result<u64, String> {
    require(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key} must be a non-negative integer"))
}

fn require_f64(v: &Json, key: &str) -> Result<f64, String> {
    require(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key} must be a number"))
}

fn require_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    require(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key} must be a string"))
}

/// A `u64` field that older peers may omit entirely (defaults to 0), but
/// which must still be a non-negative integer when present.
fn optional_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("field {key} must be a non-negative integer")),
    }
}

fn decode_latency(v: &Json) -> Result<LatencySummary, String> {
    Ok(LatencySummary {
        count: require_u64(v, "count")?,
        mean_us: require_f64(v, "mean_us")?,
        p50_us: require_u64(v, "p50_us")?,
        p95_us: require_u64(v, "p95_us")?,
        p99_us: require_u64(v, "p99_us")?,
        max_us: require_u64(v, "max_us")?,
    })
}

fn decode_window(v: &Json) -> Result<WindowActivity, String> {
    Ok(WindowActivity {
        reads_completed: require_u64(v, "reads_completed")?,
        writes_completed: require_u64(v, "writes_completed")?,
        flushes: require_u64(v, "flushes")?,
        compactions: require_u64(v, "compactions")?,
        // Absent on pre-quantile servers; default to 0.
        p50_us: optional_u64(v, "p50_us")?,
        p99_us: optional_u64(v, "p99_us")?,
    })
}

/// The `kind`/`key`[/`len`] members describing one operation (shared by
/// single-op frames and batch elements).
fn op_pairs(op: &Operation) -> Vec<(&'static str, Json)> {
    let kind = match op.kind {
        OpKind::Read => "read",
        OpKind::Insert => "insert",
        OpKind::Update => "update",
        OpKind::Delete => "delete",
        OpKind::Scan => "scan",
    };
    let mut pairs = vec![("kind", Json::str(kind)), ("key", num(op.key.0))];
    if op.payload_len > 0 {
        pairs.push(("len", num(op.payload_len as u64)));
    }
    pairs
}

/// Numeric op codes of the compact batch-element form `[code, key]` /
/// `[code, key, len]`.
const CODE_READ: u64 = 0;
const CODE_INSERT: u64 = 1;
const CODE_UPDATE: u64 = 2;
const CODE_DELETE: u64 = 3;
const CODE_SCAN: u64 = 4;

/// Encodes one operation in the compact batch-element form.
fn op_compact(op: &Operation) -> Json {
    let code = match op.kind {
        OpKind::Read => CODE_READ,
        OpKind::Insert => CODE_INSERT,
        OpKind::Update => CODE_UPDATE,
        OpKind::Delete => CODE_DELETE,
        OpKind::Scan => CODE_SCAN,
    };
    let mut parts = vec![num(code), num(op.key.0)];
    if op.payload_len > 0 {
        parts.push(num(op.payload_len as u64));
    }
    Json::Arr(parts)
}

/// Builds one operation from the parts of a compact batch element.
fn op_from_parts(code: u64, key: u64, len: u32) -> Result<Operation, String> {
    let key = Key(key);
    match code {
        CODE_READ => Ok(Operation::read(key)),
        CODE_INSERT => Ok(Operation::insert(key, len)),
        CODE_UPDATE => Ok(Operation::update(key, len)),
        CODE_DELETE => Ok(Operation::delete(key)),
        CODE_SCAN if len > 0 => Ok(Operation::scan(key, len)),
        CODE_SCAN => Err("scan needs len >= 1".to_string()),
        _ => Err("unknown op code".to_string()),
    }
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
        let code = match op.kind {
            OpKind::Read => CODE_READ,
            OpKind::Insert => CODE_INSERT,
            OpKind::Update => CODE_UPDATE,
            OpKind::Delete => CODE_DELETE,
            OpKind::Scan => CODE_SCAN,
        };
        let _ = write!(out, "[{code},{}", op.key.0);
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
/// [`MAX_BATCH`]); the caller falls back to the generic `Json` path,
/// which reports precise per-op and whole-frame errors. The server's
/// frame hot path: parsing hundreds of elements through the generic
/// `Json` tree costs more than the engine work in a batch.
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
    let key = Key(key.as_u64().ok_or("batch element key must be a u64")?);
    match code.as_u64() {
        Some(CODE_READ) => Ok(Operation::read(key)),
        Some(CODE_INSERT) => Ok(Operation::insert(key, len)),
        Some(CODE_UPDATE) => Ok(Operation::update(key, len)),
        Some(CODE_DELETE) => Ok(Operation::delete(key)),
        Some(CODE_SCAN) if len > 0 => Ok(Operation::scan(key, len)),
        Some(CODE_SCAN) => Err("scan needs len >= 1".to_string()),
        _ => Err("unknown op code".to_string()),
    }
}

/// Decodes one operation from its `kind`/`key`[/`len`] members.
fn decode_op(v: &Json) -> Result<Operation, String> {
    let key = Key(require_u64(v, "key")?);
    let len = match v.get("len") {
        None => 0,
        Some(l) => u32::try_from(
            l.as_u64()
                .ok_or("field len must be a non-negative integer")?,
        )
        .map_err(|_| "field len too large".to_string())?,
    };
    match require_str(v, "kind")? {
        "read" => Ok(Operation::read(key)),
        "insert" => Ok(Operation::insert(key, len)),
        "update" => Ok(Operation::update(key, len)),
        "delete" => Ok(Operation::delete(key)),
        "scan" if len > 0 => Ok(Operation::scan(key, len)),
        "scan" => Err("scan needs len >= 1".to_string()),
        other => Err(format!("unknown op kind: {other}")),
    }
}

impl Request {
    /// Encodes the request as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Op(op) => {
                let mut pairs = vec![("type", Json::str("op"))];
                pairs.extend(op_pairs(op));
                Json::obj(pairs)
            }
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
            Request::Stats => Json::obj(vec![("type", Json::str("stats"))]),
            Request::Config => Json::obj(vec![("type", Json::str("config"))]),
            Request::Metrics => Json::obj(vec![("type", Json::str("metrics"))]),
            Request::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
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

impl ConfigSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("compaction_method", Json::str(&self.compaction_method)),
            ("concurrent_writes", num(self.concurrent_writes as u64)),
            ("concurrent_reads", num(self.concurrent_reads as u64)),
            ("file_cache_size_mb", num(self.file_cache_size_mb as u64)),
            ("row_cache_size_mb", num(self.row_cache_size_mb as u64)),
            ("key_cache_size_mb", num(self.key_cache_size_mb as u64)),
            (
                "memtable_heap_space_mb",
                num(self.memtable_heap_space_mb as u64),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<ConfigSummary, String> {
        let u32_of = |key: &str| -> Result<u32, String> {
            u32::try_from(require_u64(v, key)?).map_err(|_| format!("field {key} too large"))
        };
        Ok(ConfigSummary {
            compaction_method: require_str(v, "compaction_method")?.to_string(),
            concurrent_writes: u32_of("concurrent_writes")?,
            concurrent_reads: u32_of("concurrent_reads")?,
            file_cache_size_mb: u32_of("file_cache_size_mb")?,
            row_cache_size_mb: u32_of("row_cache_size_mb")?,
            key_cache_size_mb: u32_of("key_cache_size_mb")?,
            memtable_heap_space_mb: u32_of("memtable_heap_space_mb")?,
        })
    }
}

impl Response {
    /// Encodes the response as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Done { latency_us } => Json::obj(vec![
                ("type", Json::str("done")),
                ("latency_us", num(*latency_us)),
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
                                BatchResult::Done { latency_us } => num(*latency_us),
                                BatchResult::Error { message } => {
                                    Json::obj(vec![("error", Json::str(message))])
                                }
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Stats(s) => {
                let shards = Json::Arr(
                    s.shards
                        .iter()
                        .map(|sh| {
                            Json::obj(vec![
                                ("shard", num(sh.shard)),
                                ("operations", num(sh.operations)),
                                ("read_ratio", Json::Num(sh.read_ratio)),
                                ("krd_mean", sh.krd_mean.map_or(Json::Null, Json::Num)),
                                ("windows_closed", num(sh.windows_closed)),
                                ("reoptimizations", num(sh.reoptimizations)),
                                ("reconfigurations", num(sh.reconfigurations)),
                                ("latency", latency_json(&sh.latency)),
                                ("last_window", window_json(&sh.last_window)),
                            ])
                        })
                        .collect(),
                );
                Json::obj(vec![
                    ("type", Json::str("stats")),
                    ("operations", num(s.operations)),
                    ("read_ratio", Json::Num(s.read_ratio)),
                    ("krd_mean", s.krd_mean.map_or(Json::Null, Json::Num)),
                    ("windows_closed", num(s.windows_closed)),
                    ("reoptimizations", num(s.reoptimizations)),
                    ("reconfigurations", num(s.reconfigurations)),
                    ("latency", latency_json(&s.latency)),
                    ("last_window", window_json(&s.last_window)),
                    ("shards", shards),
                ])
            }
            Response::Config(c) => Json::obj(vec![
                ("type", Json::str("config")),
                ("active", c.active.to_json()),
                (
                    "events",
                    Json::Arr(
                        c.events
                            .iter()
                            .map(|e| {
                                Json::obj(vec![
                                    ("shard", num(e.shard)),
                                    ("window", num(e.window)),
                                    ("read_ratio", Json::Num(e.read_ratio)),
                                    ("predicted_throughput", Json::Num(e.predicted_throughput)),
                                    ("to", e.to.to_json()),
                                    (
                                        "diff",
                                        Json::Arr(
                                            e.diff
                                                .iter()
                                                .map(|c| {
                                                    Json::obj(vec![
                                                        ("param", Json::str(&c.param)),
                                                        ("from", Json::Num(c.from)),
                                                        ("to", Json::Num(c.to)),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    ("apply_us", num(e.apply_us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "shards",
                    Json::Arr(
                        c.shards
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("shard", num(s.shard)),
                                    ("active", s.active.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "cluster_events",
                    Json::Arr(
                        c.cluster_events
                            .iter()
                            .map(|e| {
                                Json::obj(vec![
                                    ("kind", Json::str(&e.kind)),
                                    ("window", num(e.window)),
                                    ("shards", num(e.shards)),
                                    ("moved_fraction", Json::Num(e.moved_fraction)),
                                    ("detail", Json::str(&e.detail)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Metrics(m) => Json::obj(vec![
                ("type", Json::str("metrics")),
                (
                    "counters",
                    Json::Obj(
                        m.counters
                            .iter()
                            .map(|(name, value)| (name.clone(), num(*value)))
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Json::Obj(
                        m.gauges
                            .iter()
                            .map(|(name, value)| (name.clone(), Json::Num(*value)))
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Json::Obj(
                        m.histograms
                            .iter()
                            .map(|(name, h)| {
                                (
                                    name.clone(),
                                    Json::obj(vec![
                                        ("count", num(h.count)),
                                        ("sum", Json::Num(h.sum)),
                                        ("min", num(h.min)),
                                        ("p50", num(h.p50)),
                                        ("p99", num(h.p99)),
                                        ("max", num(h.max)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("prometheus", Json::str(&m.prometheus)),
            ]),
            Response::Bye => Json::obj(vec![("type", Json::str("bye"))]),
            Response::Error { message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("message", Json::str(message)),
            ]),
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
                latency_us: require_u64(v, "latency_us")?,
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
            "stats" => {
                // Absent on pre-sharding servers; default to empty.
                let shards = match v.get("shards") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_arr()
                        .ok_or("field shards must be an array")?
                        .iter()
                        .map(|sh| {
                            Ok(ShardStats {
                                shard: require_u64(sh, "shard")?,
                                operations: require_u64(sh, "operations")?,
                                read_ratio: require_f64(sh, "read_ratio")?,
                                krd_mean: match require(sh, "krd_mean")? {
                                    Json::Null => None,
                                    other => Some(
                                        other.as_f64().ok_or("field krd_mean must be a number")?,
                                    ),
                                },
                                windows_closed: require_u64(sh, "windows_closed")?,
                                reoptimizations: require_u64(sh, "reoptimizations")?,
                                reconfigurations: require_u64(sh, "reconfigurations")?,
                                latency: decode_latency(require(sh, "latency")?)?,
                                last_window: decode_window(require(sh, "last_window")?)?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                Ok(Response::Stats(StatsReport {
                    operations: require_u64(v, "operations")?,
                    read_ratio: require_f64(v, "read_ratio")?,
                    krd_mean: match require(v, "krd_mean")? {
                        Json::Null => None,
                        other => Some(other.as_f64().ok_or("field krd_mean must be a number")?),
                    },
                    windows_closed: require_u64(v, "windows_closed")?,
                    reoptimizations: require_u64(v, "reoptimizations")?,
                    reconfigurations: require_u64(v, "reconfigurations")?,
                    latency: decode_latency(require(v, "latency")?)?,
                    last_window: decode_window(require(v, "last_window")?)?,
                    shards,
                }))
            }
            "config" => {
                let active = ConfigSummary::from_json(require(v, "active")?)?;
                let events = require(v, "events")?
                    .as_arr()
                    .ok_or("field events must be an array")?
                    .iter()
                    .map(|e| {
                        // `diff`/`apply_us` are absent in frames from
                        // pre-diff servers; default to empty/0.
                        let diff = match e.get("diff") {
                            None => Vec::new(),
                            Some(d) => d
                                .as_arr()
                                .ok_or("field diff must be an array")?
                                .iter()
                                .map(|c| {
                                    Ok(ParamChange {
                                        param: require_str(c, "param")?.to_string(),
                                        from: require_f64(c, "from")?,
                                        to: require_f64(c, "to")?,
                                    })
                                })
                                .collect::<Result<Vec<_>, String>>()?,
                        };
                        Ok(ReconfigEvent {
                            // Absent on pre-sharding servers; shard 0.
                            shard: optional_u64(e, "shard")?,
                            window: require_u64(e, "window")?,
                            read_ratio: require_f64(e, "read_ratio")?,
                            predicted_throughput: require_f64(e, "predicted_throughput")?,
                            to: ConfigSummary::from_json(require(e, "to")?)?,
                            diff,
                            apply_us: optional_u64(e, "apply_us")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                // Absent on pre-sharding servers; default to empty.
                let shards = match v.get("shards") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_arr()
                        .ok_or("field shards must be an array")?
                        .iter()
                        .map(|sh| {
                            Ok(ShardConfig {
                                shard: require_u64(sh, "shard")?,
                                active: ConfigSummary::from_json(require(sh, "active")?)?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                let cluster_events = match v.get("cluster_events") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_arr()
                        .ok_or("field cluster_events must be an array")?
                        .iter()
                        .map(|e| {
                            Ok(ClusterEvent {
                                kind: require_str(e, "kind")?.to_string(),
                                window: require_u64(e, "window")?,
                                shards: require_u64(e, "shards")?,
                                moved_fraction: require_f64(e, "moved_fraction")?,
                                detail: require_str(e, "detail")?.to_string(),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                Ok(Response::Config(ConfigReport {
                    active,
                    events,
                    shards,
                    cluster_events,
                }))
            }
            "metrics" => {
                let counters = require(v, "counters")?
                    .as_obj()
                    .ok_or("field counters must be an object")?
                    .iter()
                    .map(|(name, value)| {
                        let value = value
                            .as_u64()
                            .ok_or_else(|| format!("counter {name} must be an integer"))?;
                        Ok((name.clone(), value))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let gauges = require(v, "gauges")?
                    .as_obj()
                    .ok_or("field gauges must be an object")?
                    .iter()
                    .map(|(name, value)| {
                        let value = value
                            .as_f64()
                            .ok_or_else(|| format!("gauge {name} must be a number"))?;
                        Ok((name.clone(), value))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let histograms = require(v, "histograms")?
                    .as_obj()
                    .ok_or("field histograms must be an object")?
                    .iter()
                    .map(|(name, h)| {
                        Ok((
                            name.clone(),
                            MetricsHistogram {
                                count: require_u64(h, "count")?,
                                sum: require_f64(h, "sum")?,
                                min: require_u64(h, "min")?,
                                p50: require_u64(h, "p50")?,
                                p99: require_u64(h, "p99")?,
                                max: require_u64(h, "max")?,
                            },
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Metrics(MetricsReport {
                    counters,
                    gauges,
                    histograms,
                    prometheus: require_str(v, "prometheus")?.to_string(),
                }))
            }
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: require_str(v, "message")?.to_string(),
            }),
            other => Err(format!("unknown response type: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let frames = [
            Request::Op(Operation::read(Key(42))),
            Request::Op(Operation::insert(Key(7), 800)),
            Request::Op(Operation::update(Key(9), 256)),
            Request::Op(Operation::delete(Key(1))),
            Request::Op(Operation::scan(Key(100), 50)),
            Request::Stats,
            Request::Config,
            Request::Metrics,
            Request::Shutdown,
        ];
        for frame in frames {
            let line = frame.to_json().encode();
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, frame, "{line}");
        }
    }

    #[test]
    fn batch_requests_round_trip() {
        let frames = [
            Request::batch(vec![
                Operation::read(Key(42)),
                Operation::insert(Key(7), 800),
                Operation::update(Key(9), 256),
                Operation::delete(Key(1)),
                Operation::scan(Key(100), 50),
            ]),
            Request::batch(Vec::new()), // an empty batch is a valid frame
            Request::batch(vec![Operation::read(Key(0))]),
        ];
        for frame in frames {
            let line = frame.to_json().encode();
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, frame, "{line}");
        }
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

    #[test]
    fn batch_responses_round_trip() {
        let frames = [
            Response::Batch(vec![
                BatchResult::Done { latency_us: 731 },
                BatchResult::Error {
                    message: "unknown op kind: warp".to_string(),
                },
                BatchResult::Done { latency_us: 0 },
            ]),
            Response::Batch(Vec::new()),
        ];
        for frame in frames {
            let line = frame.to_json().encode();
            let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, frame, "{line}");
        }
        let wire = Response::Batch(vec![
            BatchResult::Done { latency_us: 12 },
            BatchResult::Error {
                message: "nope".to_string(),
            },
        ])
        .to_json()
        .encode();
        assert_eq!(wire, r#"{"type":"batch","results":[12,{"error":"nope"}]}"#);
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
        let frames = [
            Response::Done { latency_us: 731 },
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
            Response::Stats(StatsReport::default()),
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
                prometheus: "# TYPE serve_ops_total counter\nserve_ops_total 12000\n".to_string(),
            }),
            Response::Metrics(MetricsReport::default()),
            Response::Bye,
            Response::Error {
                message: "scan needs len >= 1".to_string(),
            },
        ];
        for frame in frames {
            let line = frame.to_json().encode();
            let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, frame, "{line}");
        }
    }

    #[test]
    fn pre_quantile_and_pre_diff_frames_still_decode() {
        // A `stats` frame from a server that predates window quantiles.
        let stats = r#"{"type":"stats","operations":10,"read_ratio":0.5,
            "krd_mean":null,"windows_closed":1,"reoptimizations":0,
            "reconfigurations":0,
            "latency":{"count":10,"mean_us":5.0,"p50_us":4,"p95_us":9,
                       "p99_us":9,"max_us":9},
            "last_window":{"reads_completed":5,"writes_completed":5,
                           "flushes":0,"compactions":0}}"#;
        let Response::Stats(report) = Response::from_json(&Json::parse(stats).unwrap()).unwrap()
        else {
            panic!("expected stats");
        };
        assert_eq!(report.last_window.p50_us, 0);
        assert_eq!(report.last_window.p99_us, 0);
        assert!(report.shards.is_empty(), "pre-sharding stats: no shards");

        // A `config` frame from a server that predates reconfig diffs.
        let to = ConfigSummary::from(&EngineConfig::default())
            .to_json()
            .encode();
        let config = format!(
            r#"{{"type":"config","active":{to},"events":[
                {{"window":2,"read_ratio":0.9,
                  "predicted_throughput":12000.0,"to":{to}}}]}}"#
        );
        let Response::Config(report) = Response::from_json(&Json::parse(&config).unwrap()).unwrap()
        else {
            panic!("expected config");
        };
        assert!(report.events[0].diff.is_empty());
        assert_eq!(report.events[0].apply_us, 0);
        assert_eq!(report.events[0].shard, 0, "pre-sharding event: shard 0");
        assert!(report.shards.is_empty());
        assert!(report.cluster_events.is_empty());
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
        let mut cfg = EngineConfig::default();
        cfg.compaction_method = CompactionMethod::Leveled;
        cfg.concurrent_writes = 96;
        let s = ConfigSummary::from(&cfg);
        assert_eq!(s.compaction_method, "leveled");
        assert_eq!(s.concurrent_writes, 96);
        assert_eq!(s.file_cache_size_mb, cfg.file_cache_size_mb);
    }
}
