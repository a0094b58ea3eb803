//! The single-node engine: Cassandra's write and read workflows (§2.2)
//! executed over real data structures, with every hardware cost charged to
//! the discrete-event clock.
//!
//! The engine is driven through a submit/step interface:
//!
//! - [`Engine::submit`] accepts an operation at a simulated time, walks the
//!   full storage path (commit log, memtable, bloom filters, block caches,
//!   SSTable probes), reserves device time, and schedules a completion
//!   event;
//! - [`Engine::step`] advances the clock to the next event (operation
//!   completion, flush chunk, compaction chunk, auto-tuner tick) and
//!   returns finished operations.
//!
//! Background work — memtable flushes and compactions — runs as chunked
//! disk/CPU reservations that interleave with foreground traffic, so
//! compaction pressure degrades foreground throughput exactly the way the
//! paper describes.

use crate::compaction::{CompactionJob, Strategy};
use crate::config::{CompactionMethod, EngineConfig, ParamChange, ServerSpec};
use crate::fasthash::{FastHashMap, FastHashSet};
use crate::metrics::EngineMetrics;
use crate::scylla::ScyllaTuner;
use crate::sim::{CpuModel, DiskDevice, DiskReq, SimDuration, SimTime, WorkerPool};
use crate::snapshot::{self, EngineSnapshot};
use crate::store::{CommitLog, LruCache, Memtable, Row, SsTable, TableId, TableSet};
use rafiki_obs as obs;
use rafiki_workload::{Key, OpKind, Operation};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Opaque token identifying the submitter of an operation (e.g. a client
/// slot); returned with the completion.
pub type OpToken = u64;

/// Token used for fire-and-forget replica writes in cluster mode.
pub const REPLICA_TOKEN: OpToken = u64::MAX;

/// A finished operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCompletion {
    /// The token passed to [`Engine::submit`].
    pub token: OpToken,
    /// Operation kind.
    pub kind: OpKind,
    /// Submission time.
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

impl OpCompletion {
    /// Operation latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }
}

/// What an [`Engine::reconfigure`] call did: which parameters changed
/// (catalog order, old→new in the `f64` encoding) and how long the
/// apply took in wall-clock microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Parameters that differ between the old and new configuration.
    pub changed: Vec<ParamChange>,
    /// Wall-clock duration of the apply, in microseconds.
    pub apply_us: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    OpDone {
        token: OpToken,
        kind: OpKind,
        issued_at: SimTime,
    },
    FlushChunk {
        id: u64,
    },
    CompactionChunk {
        id: u64,
    },
    TunerTick,
}

#[derive(Debug)]
struct FlushJob {
    rows: Vec<Row>,
    total_bytes: u64,
    remaining_bytes: u64,
}

#[derive(Debug)]
struct CompactionRun {
    job: CompactionJob,
    remaining_bytes: u64,
}

/// Engine behavioural flavor: plain Cassandra-like, or the ScyllaDB-like
/// variant with an internal auto-tuner (see [`crate::scylla`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flavor {
    /// Multiplier on all foreground CPU costs (Scylla's C++/seastar path is
    /// leaner than Cassandra's JVM path).
    pub cpu_cost_factor: f64,
    /// Whether compaction is additionally triggered after every flush
    /// (ScyllaDB behaviour, §2.2.2).
    pub compact_on_every_flush: bool,
}

impl Default for Flavor {
    fn default() -> Self {
        Flavor {
            cpu_cost_factor: 1.0,
            compact_on_every_flush: false,
        }
    }
}

/// The single-node storage engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    spec: ServerSpec,
    flavor: Flavor,
    strategy: Strategy,

    clock: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<(SimTime, u64, EventKind)>>,

    disk: DiskDevice,
    /// Dedicated commit-log device (Cassandra's recommended layout puts
    /// the commit log on its own spindle so log bursts don't block data
    /// I/O).
    log_disk: DiskDevice,
    cpu: CpuModel,
    write_pool: WorkerPool,
    read_pool: WorkerPool,

    memtable: Memtable,
    tables: TableSet,
    commitlog: CommitLog,
    version_counter: u64,

    file_cache: LruCache<(TableId, u32), ()>,
    os_cache: LruCache<(TableId, u32), ()>,
    key_cache: LruCache<(TableId, Key), u32>,
    row_cache: LruCache<Key, u64>,

    frozen: VecDeque<Vec<Row>>,
    frozen_bytes: u64,
    flush_jobs: FastHashMap<u64, FlushJob>,
    next_flush_id: u64,
    write_block_until: SimTime,

    compaction_runs: FastHashMap<u64, CompactionRun>,
    busy_tables: FastHashSet<TableId>,
    next_compaction_id: u64,

    pub(crate) tuner: Option<ScyllaTuner>,
    tuner_factor: f64,

    metrics: EngineMetrics,
    in_flight_reads: usize,
    in_flight_writes: usize,

    // Reusable scratch buffers: the read and scan paths run once per
    // simulated operation, and per-op `Vec` churn shows up directly in
    // grid wall time.
    read_scratch: Vec<TableId>,
    scan_scratch: Vec<(TableId, usize, u32, u32)>,
}

/// Background-I/O chunk size; small enough that foreground requests
/// interleave with flush/compaction streams.
const CHUNK_BYTES: u64 = 1 << 20;
/// Fraction of disk bandwidth a flush stream may consume.
const FLUSH_DISK_SHARE: f64 = 0.6;

impl Engine {
    /// Creates an engine with the given configuration and hardware.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails validation.
    pub fn new(cfg: EngineConfig, spec: ServerSpec) -> Self {
        Self::with_flavor(cfg, spec, Flavor::default())
    }

    /// The compaction strategy a configuration maps to — the one place
    /// `compaction_method` and the tier/level shape knobs
    /// (`stcs_min_threshold`, `stcs_max_threshold`, `leveled_fanout`)
    /// become a [`Strategy`]. Construction and [`Engine::reconfigure`]
    /// both call this, so a reconfigured engine can never drift from a
    /// freshly-built one.
    fn strategy_for(cfg: &EngineConfig, flavor: &Flavor) -> Strategy {
        match cfg.compaction_method {
            CompactionMethod::SizeTiered => {
                let mut s = Strategy::size_tiered_default();
                if let Strategy::SizeTiered {
                    min_threshold,
                    max_threshold,
                    ..
                } = &mut s
                {
                    *min_threshold = cfg.stcs_min_threshold as usize;
                    *max_threshold = cfg.stcs_max_threshold_effective();
                    // ScyllaDB "triggers a compaction process with respect
                    // to each flush operation" (§2.2.2): pairs merge
                    // eagerly regardless of the configured threshold.
                    if flavor.compact_on_every_flush {
                        *min_threshold = 2;
                    }
                }
                s
            }
            CompactionMethod::Leveled => {
                let mut s = Strategy::leveled_default();
                if let Strategy::Leveled { fanout, .. } = &mut s {
                    *fanout = cfg.leveled_fanout as u64;
                }
                s
            }
        }
    }

    /// Creates an engine with an explicit behavioural flavor.
    pub fn with_flavor(cfg: EngineConfig, spec: ServerSpec, flavor: Flavor) -> Self {
        cfg.validate();
        let strategy = Self::strategy_for(&cfg, &flavor);
        let write_factor = if cfg.trickle_fsync { 0.95 } else { 1.0 };
        let disk = DiskDevice::new(
            spec.disk_seq_read_mbps,
            spec.disk_seq_write_mbps * write_factor,
            SimDuration::from_millis_f64(spec.disk_rand_access_ms),
        );
        let block = cfg.sstable_block_bytes() as usize;
        let blocks_of = |mb: u32| ((mb as usize) << 20) / block;
        let commitlog = CommitLog::new(
            cfg.commitlog_sync,
            (cfg.commitlog_segment_size_mb as u64) << 20,
            SimDuration::from_millis_f64(cfg.commitlog_sync_period_ms as f64),
            SimDuration::from_millis_f64(1.0),
        );
        Engine {
            cpu: CpuModel::new(
                spec.cores,
                spec.costs.contention_linear,
                spec.costs.contention_quadratic,
            ),
            write_pool: WorkerPool::new(cfg.concurrent_writes as usize),
            read_pool: WorkerPool::new(cfg.concurrent_reads as usize),
            file_cache: LruCache::with_policy(
                blocks_of(cfg.file_cache_size_mb),
                cfg.file_cache_eviction,
            ),
            os_cache: LruCache::new(blocks_of(spec.os_cache_mb)),
            key_cache: LruCache::new(((cfg.key_cache_size_mb as usize) << 20) / 64),
            // The row cache holds whole partitions; MG-RAST partitions are
            // wide, so each entry is charged ~8 KiB.
            row_cache: LruCache::new(((cfg.row_cache_size_mb as usize) << 20) / 16_384),
            memtable: Memtable::new(),
            tables: TableSet::new(),
            commitlog,
            version_counter: 0,
            frozen: VecDeque::new(),
            frozen_bytes: 0,
            flush_jobs: FastHashMap::default(),
            next_flush_id: 0,
            write_block_until: SimTime::ZERO,
            compaction_runs: FastHashMap::default(),
            busy_tables: FastHashSet::default(),
            next_compaction_id: 0,
            tuner: None,
            tuner_factor: 1.0,
            metrics: EngineMetrics::default(),
            in_flight_reads: 0,
            in_flight_writes: 0,
            read_scratch: Vec::new(),
            scan_scratch: Vec::new(),
            clock: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            log_disk: disk.clone(),
            disk,
            strategy,
            cfg,
            spec,
            flavor,
        }
    }

    /// Current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The hardware specification.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Resets metrics (used at the end of the warm-up phase).
    pub fn reset_metrics(&mut self) {
        self.metrics = EngineMetrics::default();
    }

    /// Applies a new configuration to the *live* engine — the online
    /// reconfiguration step of the middleware loop (§3.1 step 5). Stored
    /// data survives (memtable, frozen buffers, SSTables); the
    /// configuration-derived runtime state is rebuilt:
    ///
    /// - the compaction strategy follows `compaction_method`;
    /// - the read/write worker pools are resized;
    /// - caches whose capacity changed are rebuilt **cold** (unchanged
    ///   caches keep their contents). That is a real settle cost on the
    ///   simulated clock, but switching is not charged for it: the
    ///   controller's switch rule is its predicted gain alone (ROADMAP.md
    ///   item 2, "A switching cost that is actually charged");
    /// - the commit log is recreated under the new sync policy when any
    ///   commit-log parameter changed.
    ///
    /// Hardware devices keep their state, so `trickle_fsync` (a
    /// mount-level effect in the real system) only takes effect for
    /// freshly built engines. In-flight background flushes and
    /// compactions finish under the parameters they started with.
    ///
    /// Returns a [`ReconfigOutcome`] naming the parameters that changed
    /// and the wall-clock apply duration — the raw material of the
    /// audit trail the serving daemon publishes per switch.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails validation or when foreground operations
    /// are in flight — reconfigure between completed operations, the way
    /// the serving daemon does at window boundaries.
    pub fn reconfigure(&mut self, cfg: EngineConfig) -> ReconfigOutcome {
        cfg.validate();
        assert!(
            self.in_flight_reads == 0 && self.in_flight_writes == 0,
            "reconfigure with foreground operations in flight"
        );
        let started = std::time::Instant::now();
        let span = obs::span("engine", "reconfigure", obs::Level::Info);
        let changed = self.cfg.diff(&cfg);
        let old = std::mem::replace(&mut self.cfg, cfg);
        let cfg = &self.cfg;

        self.strategy = Self::strategy_for(cfg, &self.flavor);

        if cfg.concurrent_writes != old.concurrent_writes {
            self.write_pool = WorkerPool::new(cfg.concurrent_writes as usize);
        }
        if cfg.concurrent_reads != old.concurrent_reads {
            self.read_pool = WorkerPool::new(cfg.concurrent_reads as usize);
        }

        let block = cfg.sstable_block_bytes() as usize;
        let blocks_of = |mb: u32| ((mb as usize) << 20) / block;
        let block_changed = cfg.sstable_block_size_kb != old.sstable_block_size_kb;
        if cfg.file_cache_size_mb != old.file_cache_size_mb
            || cfg.file_cache_eviction != old.file_cache_eviction
            || block_changed
        {
            self.file_cache =
                LruCache::with_policy(blocks_of(cfg.file_cache_size_mb), cfg.file_cache_eviction);
        }
        if block_changed {
            // The OS page cache counts entries in blocks too: a new block
            // granularity resizes (and cools) it. Existing SSTables keep
            // the block layout they were written with; new flushes and
            // compaction outputs pick up the new size.
            self.os_cache = LruCache::new(blocks_of(self.spec.os_cache_mb));
        }
        if cfg.key_cache_size_mb != old.key_cache_size_mb {
            self.key_cache = LruCache::new(((cfg.key_cache_size_mb as usize) << 20) / 64);
        }
        if cfg.row_cache_size_mb != old.row_cache_size_mb {
            self.row_cache = LruCache::new(((cfg.row_cache_size_mb as usize) << 20) / 16_384);
        }

        if cfg.commitlog_sync != old.commitlog_sync
            || cfg.commitlog_sync_period_ms != old.commitlog_sync_period_ms
            || cfg.commitlog_segment_size_mb != old.commitlog_segment_size_mb
        {
            self.commitlog = CommitLog::new(
                cfg.commitlog_sync,
                (cfg.commitlog_segment_size_mb as u64) << 20,
                SimDuration::from_millis_f64(cfg.commitlog_sync_period_ms as f64),
                SimDuration::from_millis_f64(1.0),
            );
        }

        let apply_us = started.elapsed().as_micros() as u64;
        let mut fields = vec![("changed", obs::Value::U64(changed.len() as u64))];
        if obs::enabled(obs::Level::Info) {
            for c in &changed {
                fields.push((c.name, obs::Value::str(format!("{}->{}", c.from, c.to))));
            }
        }
        span.close(fields);
        ReconfigOutcome { changed, apply_us }
    }

    /// Number of live SSTables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total logical bytes across live SSTables.
    pub fn on_disk_bytes(&self) -> u64 {
        self.tables.total_logical_bytes()
    }

    /// Logical bytes currently buffered in the active memtable.
    pub fn memtable_bytes(&self) -> u64 {
        self.memtable.logical_bytes()
    }

    /// Logical bytes frozen and waiting for (or undergoing) flush.
    pub fn frozen_bytes(&self) -> u64 {
        self.frozen_bytes
    }

    /// Installs the ScyllaDB-like auto-tuner and schedules its first tick.
    pub(crate) fn install_tuner(&mut self, tuner: ScyllaTuner) {
        let first = self.clock + tuner.period();
        self.tuner = Some(tuner);
        self.push_event(first, EventKind::TunerTick);
    }

    /// Pre-loads `keys` rows of `payload_len` bytes each, arranged the way
    /// a long-running instance of the configured compaction strategy would
    /// hold them: several overlapping runs for size-tiered, non-overlapping
    /// levelled runs for leveled.
    ///
    /// # Panics
    ///
    /// Panics when called more than once or after operations ran.
    pub fn preload(&mut self, keys: u64, payload_len: u32) {
        self.preload_filtered(keys, payload_len, |_| true);
    }

    /// Like [`Engine::preload`] but only loads keys accepted by `owns`
    /// (cluster mode: each node holds the keys it replicates).
    ///
    /// # Panics
    ///
    /// Panics when called more than once or after operations ran.
    pub fn preload_filtered<F: Fn(u64) -> bool>(&mut self, keys: u64, payload_len: u32, owns: F) {
        assert!(
            self.tables.is_empty() && self.memtable.is_empty(),
            "preload must run on a fresh engine"
        );
        let base = snapshot::build_preload_base(keys, payload_len, self.preload_signature(), owns);
        self.install_preload(base.tables, base.version_counter);
    }

    /// Hydrates this fresh engine from a prebuilt [`EngineSnapshot`]
    /// instead of replaying the preload: the snapshot's table set for
    /// this engine's preload signature is cloned in (a refcount bump per
    /// table — table bodies are shared, immutable). State after this
    /// call is bit-identical to [`Engine::preload`] with the snapshot's
    /// key count and payload length: both paths run the same builder.
    ///
    /// # Panics
    ///
    /// Panics when called more than once or after operations ran.
    pub fn preload_from(&mut self, snap: &EngineSnapshot) {
        assert!(
            self.tables.is_empty() && self.memtable.is_empty(),
            "preload must run on a fresh engine"
        );
        let base = snap.base_for(self.preload_signature());
        self.install_preload(base.tables.clone(), base.version_counter);
    }

    /// The inputs the preload layout depends on (see
    /// [`snapshot::SnapshotKey`]).
    fn preload_signature(&self) -> snapshot::SnapshotKey {
        snapshot::SnapshotKey {
            method: self.cfg.compaction_method,
            fp_bits: self.cfg.bloom_filter_fp_chance.to_bits(),
            block_bytes: self.cfg.sstable_block_bytes(),
            leveled_target: self.strategy.output_target_bytes(),
        }
    }

    /// Installs a built preload: adopts the tables and version counter,
    /// warms the OS cache, and kicks off steady-state compaction work.
    fn install_preload(&mut self, tables: TableSet, version_counter: u64) {
        self.tables = tables;
        self.version_counter = version_counter;
        // Warm the OS cache with the preloaded blocks (a long-running
        // server's working set is resident).
        let ids: Vec<(TableId, u32)> = self
            .tables
            .iter()
            .flat_map(|t| (0..t.block_count()).map(move |b| (t.id(), b)))
            .collect();
        for key in ids {
            self.os_cache.insert(key, ());
        }
        // A long-running server would already have pending compaction work
        // for this table layout; start it so the benchmark observes the
        // steady-state churn.
        self.schedule_compactions();
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, kind)));
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Advances the simulation by one event. Returns the operations that
    /// completed at that event (usually zero or one). Returns `None` when
    /// no events remain.
    ///
    /// Allocating convenience wrapper around [`Engine::step_into`]; hot
    /// loops (the benchmark driver, the cluster scheduler) should reuse a
    /// scratch buffer through `step_into` instead.
    pub fn step(&mut self) -> Option<Vec<OpCompletion>> {
        let mut out = Vec::new();
        self.step_into(&mut out).then_some(out)
    }

    /// Advances the simulation by one event, appending any operations
    /// that completed at that event (usually zero or one) to `out`
    /// without clearing it. Returns `false` when no events remain.
    pub fn step_into(&mut self, out: &mut Vec<OpCompletion>) -> bool {
        let Some(Reverse((at, _, kind))) = self.events.pop() else {
            return false;
        };
        debug_assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        match kind {
            EventKind::OpDone {
                token,
                kind,
                issued_at,
            } => {
                match kind {
                    OpKind::Read | OpKind::Scan => {
                        self.metrics.reads_completed += 1;
                        self.in_flight_reads = self.in_flight_reads.saturating_sub(1);
                    }
                    OpKind::Insert | OpKind::Update | OpKind::Delete => {
                        self.metrics.writes_completed += 1;
                        self.in_flight_writes = self.in_flight_writes.saturating_sub(1);
                    }
                }
                out.push(OpCompletion {
                    token,
                    kind,
                    issued_at,
                    completed_at: at,
                });
            }
            EventKind::FlushChunk { id } => self.flush_chunk(id),
            EventKind::CompactionChunk { id } => self.compaction_chunk(id),
            EventKind::TunerTick => self.tuner_tick(),
        }
        true
    }

    /// Submits an operation at `ready` (must not precede the engine
    /// clock). The completion is delivered by a later [`Engine::step`].
    ///
    /// # Panics
    ///
    /// Panics when `ready` is before the engine clock.
    pub fn submit(&mut self, token: OpToken, op: Operation, ready: SimTime) {
        assert!(ready >= self.clock, "submission in the past");
        match op.kind {
            OpKind::Read => {
                self.in_flight_reads += 1;
                self.submit_read(token, op, ready);
            }
            OpKind::Scan => {
                self.in_flight_reads += 1;
                self.submit_scan(token, op, ready);
            }
            OpKind::Insert | OpKind::Update | OpKind::Delete => {
                self.in_flight_writes += 1;
                self.submit_write(token, op, ready);
            }
        }
    }

    /// The GC-pressure multiplier from an oversized file cache: Cassandra's
    /// guidance caps `file_cache_size_in_mb` at a quarter of the heap.
    fn gc_factor(&self) -> f64 {
        let quarter_heap = self.spec.heap_mb as f64 / 4.0;
        let excess = (self.cfg.file_cache_size_mb as f64 - quarter_heap).max(0.0);
        1.0 + self.spec.costs.cache_gc_penalty * excess / self.spec.heap_mb as f64
    }

    /// CPU slowdown at `now`: foreground workers plus background jobs
    /// compete for the cores, and grossly oversized (mostly idle) pools
    /// add scheduler churn.
    fn slowdown(&self, _now: SimTime) -> f64 {
        // Runnable threads: in-flight operations capped by their pool
        // sizes (queued requests don't run), plus background jobs.
        let runnable = self.in_flight_writes.min(self.write_pool.size())
            + self.in_flight_reads.min(self.read_pool.size())
            + self.flush_jobs.len()
            + self.compaction_runs.len();
        let configured = self.cfg.concurrent_writes
            + self.cfg.concurrent_reads
            + self.cfg.concurrent_compactors
            + self.cfg.memtable_flush_writers;
        let idle_churn = self.spec.costs.idle_thread_overhead
            * (configured as f64 - self.spec.cores as f64).max(0.0);
        (self.cpu.slowdown(runnable.max(1)) + idle_churn) * self.gc_factor() * self.tuner_factor
    }

    fn cpu_time(&self, us: f64, now: SimTime) -> SimDuration {
        SimDuration::from_micros_f64(us * self.flavor.cpu_cost_factor * self.slowdown(now))
    }

    // ----- write path (§2.2.1) -----

    fn submit_write(&mut self, token: OpToken, op: Operation, ready: SimTime) {
        let issued_at = ready;
        // Stall if memtable space is exhausted (flush backlog).
        let ready = if ready < self.write_block_until {
            self.metrics.write_stall_ns += self.write_block_until.0 - ready.0;
            self.write_block_until
        } else {
            ready
        };

        // Commit-log append; batch mode may delay the acknowledgement.
        let row_bytes = op.payload_len as u64 + crate::store::ROW_OVERHEAD_BYTES;
        let ack_after = self.commitlog.append(ready, row_bytes, &mut self.log_disk);

        // Memtable insert (real work) on a write worker.
        let service = self.cpu_time(self.spec.costs.write_cpu_us, ready);
        let (_, cpu_done) = self.write_pool.dispatch(ready, service);
        let done = cpu_done.max(ack_after);

        self.version_counter += 1;
        let row = if op.kind == OpKind::Delete {
            Row::new_tombstone(op.key, self.version_counter)
        } else {
            Row::new(op.key, op.payload_len, self.version_counter)
        };
        self.memtable.insert(row);
        if self.row_cache.capacity() > 0 {
            self.row_cache.remove(&op.key);
        }

        self.maybe_freeze_memtable();

        self.push_event(
            done,
            EventKind::OpDone {
                token,
                kind: op.kind,
                issued_at,
            },
        );
    }

    fn maybe_freeze_memtable(&mut self) {
        if self.memtable.logical_bytes() < self.cfg.memtable_flush_threshold_bytes() {
            return;
        }
        let bytes = self.memtable.logical_bytes();
        let rows = self.memtable.freeze();
        self.frozen_bytes += bytes;
        self.frozen.push_back(rows);
        self.try_start_flush();

        // Writes block when frozen data exceeds the total memtable space:
        // estimate the drain time from disk bandwidth and the flush share.
        let space = (self.cfg.memtable_heap_space_mb as u64
            + self.cfg.memtable_offheap_space_mb as u64)
            << 20;
        if self.frozen_bytes > space {
            let drain_secs = (self.frozen_bytes - space) as f64
                / (self.spec.disk_seq_write_mbps * FLUSH_DISK_SHARE * 1024.0 * 1024.0);
            let until = self.clock + SimDuration::from_secs_f64(drain_secs);
            if until > self.write_block_until {
                self.write_block_until = until;
            }
        }
    }

    fn try_start_flush(&mut self) {
        while self.flush_jobs.len() < self.cfg.memtable_flush_writers as usize {
            let Some(rows) = self.frozen.pop_front() else {
                return;
            };
            let total_bytes: u64 = rows.iter().map(Row::logical_bytes).sum();
            let id = self.next_flush_id;
            self.next_flush_id += 1;
            self.flush_jobs.insert(
                id,
                FlushJob {
                    rows,
                    total_bytes,
                    remaining_bytes: total_bytes,
                },
            );
            self.push_event(self.clock, EventKind::FlushChunk { id });
        }
    }

    fn flush_chunk(&mut self, id: u64) {
        let now = self.clock;
        let Some(job) = self.flush_jobs.get_mut(&id) else {
            return;
        };
        let bytes = job.remaining_bytes.min(CHUNK_BYTES);
        if bytes == 0 {
            // Sentinel event at the final chunk's completion time.
            self.finalize_flush(id);
            return;
        }
        job.remaining_bytes -= bytes;
        let remaining = job.remaining_bytes;
        let disk_bytes = (bytes as f64 * self.spec.costs.sstable_compression) as u64;
        let req = DiskReq::SeqWrite { bytes: disk_bytes };
        let pure_io = self.disk.service_time(req);
        let io_done = self.disk.access(now, req);
        let cpu_us = self.spec.costs.flush_cpu_per_mb_us * bytes as f64 / (1 << 20) as f64;
        let cpu = self.cpu_time(cpu_us, now);
        let chunk_done = io_done + cpu;
        let next_at = if remaining > 0 {
            // Pace the stream to its disk share (pure service time, so
            // queueing delays are not double-counted).
            let pace = (pure_io + cpu).scale(1.0 / FLUSH_DISK_SHARE);
            chunk_done.max(now + pace)
        } else {
            chunk_done
        };
        self.push_event(next_at, EventKind::FlushChunk { id });
    }

    fn finalize_flush(&mut self, id: u64) {
        let Some(job) = self.flush_jobs.remove(&id) else {
            return;
        };
        self.frozen_bytes = self.frozen_bytes.saturating_sub(job.total_bytes);
        if !job.rows.is_empty() {
            let table_id = self.tables.allocate_id();
            let table = SsTable::from_rows(
                table_id,
                0,
                job.rows,
                self.cfg.bloom_filter_fp_chance,
                self.cfg.sstable_block_bytes(),
            );
            // Freshly written blocks are in the OS cache (written through).
            for b in 0..table.block_count() {
                self.os_cache.insert((table_id, b), ());
            }
            self.tables.add(table);
        }
        self.metrics.flushes += 1;
        if obs::enabled(obs::Level::Debug) {
            obs::event(
                "engine",
                "flush",
                obs::Level::Debug,
                vec![
                    ("bytes", obs::Value::U64(job.total_bytes)),
                    ("tables", obs::Value::U64(self.tables.len() as u64)),
                    ("frozen_bytes", obs::Value::U64(self.frozen_bytes)),
                ],
            );
        }
        // Space freed: release any conservative write block.
        let space = (self.cfg.memtable_heap_space_mb as u64
            + self.cfg.memtable_offheap_space_mb as u64)
            << 20;
        if self.frozen_bytes <= space {
            self.write_block_until = self.write_block_until.min(self.clock);
        }
        self.try_start_flush();
        self.schedule_compactions();
    }

    // ----- compaction (§2.2.2) -----

    fn effective_compactors(&self) -> usize {
        self.cfg.concurrent_compactors as usize
    }

    fn schedule_compactions(&mut self) {
        while self.compaction_runs.len() < self.effective_compactors() {
            let Some(job) = self.strategy.plan(&self.tables, &self.busy_tables) else {
                return;
            };
            for &t in &job.inputs {
                self.busy_tables.insert(t);
            }
            let id = self.next_compaction_id;
            self.next_compaction_id += 1;
            self.compaction_runs.insert(
                id,
                CompactionRun {
                    remaining_bytes: job.input_bytes,
                    job,
                },
            );
            self.push_event(self.clock, EventKind::CompactionChunk { id });
        }
    }

    fn compaction_chunk(&mut self, id: u64) {
        let now = self.clock;
        let Some(run) = self.compaction_runs.get_mut(&id) else {
            return;
        };
        let bytes = run.remaining_bytes.min(CHUNK_BYTES);
        if bytes == 0 {
            // Sentinel event at the final chunk's completion time.
            self.finalize_compaction(id);
            return;
        }
        run.remaining_bytes -= bytes;
        let remaining = run.remaining_bytes;

        // Streaming merge: read a chunk, merge, write a chunk (compressed
        // on disk in both directions).
        let disk_bytes = (bytes as f64 * self.spec.costs.sstable_compression) as u64;
        let read_done = self
            .disk
            .access(now, DiskReq::SeqRead { bytes: disk_bytes });
        let write_done = self
            .disk
            .access(read_done, DiskReq::SeqWrite { bytes: disk_bytes });
        let cpu_us = self.spec.costs.compaction_cpu_per_mb_us * bytes as f64 / (1 << 20) as f64;
        let chunk_done = write_done + self.cpu_time(cpu_us, now);

        let next_at = if remaining > 0 {
            // Global throughput cap shared across active compactors.
            let cap_mbps = self.cfg.compaction_throughput_mb_per_sec.max(1) as f64;
            let active = self.compaction_runs.len().max(1) as f64;
            let pace =
                SimDuration::from_secs_f64(bytes as f64 * active / (cap_mbps * 1024.0 * 1024.0));
            chunk_done.max(now + pace)
        } else {
            chunk_done
        };
        self.push_event(next_at, EventKind::CompactionChunk { id });
    }

    fn finalize_compaction(&mut self, id: u64) {
        let Some(run) = self.compaction_runs.remove(&id) else {
            return;
        };
        let inputs: Vec<SsTable> = run
            .job
            .inputs
            .iter()
            .filter_map(|&tid| {
                self.busy_tables.remove(&tid);
                self.tables.remove(tid)
            })
            .collect();
        if inputs.is_empty() {
            self.schedule_compactions();
            return;
        }
        let refs: Vec<&SsTable> = inputs.iter().collect();
        let target = self.strategy.output_target_bytes();
        let fp = self.cfg.bloom_filter_fp_chance;
        let block = self.cfg.sstable_block_bytes();
        // Tombstones can be evicted when the merge provably covers every
        // version of its keys: a size-tiered merge of the entire table set,
        // or a leveled merge into the bottom-most level.
        let purge = if self.strategy.is_leveled() {
            run.job.output_level >= self.tables.max_level().max(run.job.output_level)
                && self.tables.at_level(run.job.output_level + 1).is_empty()
        } else {
            self.tables.is_empty() // all other tables were inputs
        };
        let tables = &mut self.tables;
        let new_tables = crate::store::merge_tables(
            &refs,
            run.job.output_level,
            fp,
            block,
            target,
            purge,
            || tables.allocate_id(),
        );
        let dead: FastHashSet<TableId> = inputs.iter().map(|t| t.id()).collect();
        drop(inputs);

        let mut output_ids = Vec::new();
        for t in new_tables {
            output_ids.push((t.id(), t.block_count()));
            self.tables.add(t);
        }

        // Dead tables' cached blocks and keys are gone.
        self.file_cache.retain_keys(|(tid, _)| !dead.contains(tid));
        self.os_cache.retain_keys(|(tid, _)| !dead.contains(tid));
        self.key_cache.retain_keys(|(tid, _)| !dead.contains(tid));

        // Output blocks were written through the OS cache; optionally
        // pre-warm the file cache (sstable_preemptive_open).
        for &(nid, blocks) in &output_ids {
            for b in 0..blocks {
                self.os_cache.insert((nid, b), ());
            }
        }
        if self.cfg.sstable_preemptive_open_mb > 0 {
            let warm_blocks = ((self.cfg.sstable_preemptive_open_mb as u64) << 20)
                / self.cfg.sstable_block_bytes();
            for &(nid, blocks) in &output_ids {
                for b in 0..blocks.min(warm_blocks as u32) {
                    if self.file_cache.insert((nid, b), ()).is_some() {
                        self.metrics.file_cache_evictions += 1;
                    }
                }
            }
        }

        self.metrics.compactions += 1;
        self.metrics.compacted_bytes += run.job.input_bytes * 2; // read + write
        if obs::enabled(obs::Level::Debug) {
            obs::event(
                "engine",
                "compaction",
                obs::Level::Debug,
                vec![
                    ("input_bytes", obs::Value::U64(run.job.input_bytes)),
                    ("inputs", obs::Value::U64(run.job.inputs.len() as u64)),
                    ("outputs", obs::Value::U64(output_ids.len() as u64)),
                    ("level", obs::Value::U64(run.job.output_level as u64)),
                    ("tables", obs::Value::U64(self.tables.len() as u64)),
                ],
            );
        }
        self.schedule_compactions();
    }

    // ----- read path (§2.2.1) -----

    fn submit_read(&mut self, token: OpToken, op: Operation, ready: SimTime) {
        let issued_at = ready;
        let costs = self.spec.costs;
        let mut cpu_us = costs.read_cpu_us;
        let mut io_ready = ready;

        // Row cache short-circuits everything below it.
        let row_cached = self.row_cache.capacity() > 0 && self.row_cache.get(&op.key).is_some();
        if row_cached {
            self.metrics.row_cache_hits += 1;
            // Hits skip the SSTable walk but still pay deserialization.
            cpu_us *= 0.85;
        } else {
            // Memtable probe (real lookup).
            let mem_version = self.memtable.get(op.key).map(|r| r.version);

            // Bloom-check every range-matching table; probe the positives
            // (one table walk, into the reused per-engine scratch buffer).
            let mut scratch = std::mem::take(&mut self.read_scratch);
            let range_matches = self.tables.probe_into(op.key, &mut scratch);
            self.metrics.bloom_checks += range_matches as u64;
            self.metrics.bloom_negatives += (range_matches - scratch.len()) as u64;
            cpu_us += costs.bloom_check_cpu_us * range_matches as f64;

            // Per-candidate probe costs, modulated by the index knobs.
            let column_index_extra = 0.04 * self.cfg.column_index_size_kb as f64;
            let summary_needed_mb = (self.tables.len() as u64 * 2).max(1) as f64; // ~2MB summary per table
            let summary_penalty = if (self.cfg.index_summary_capacity_mb as f64) < summary_needed_mb
            {
                6.0
            } else {
                0.0
            };

            let mut newest_version = mem_version.unwrap_or(0);
            for &tid in &scratch {
                self.metrics.candidates_probed += 1;
                cpu_us += costs.per_candidate_cpu_us + column_index_extra + summary_penalty;

                let key_cache_hit =
                    self.key_cache.capacity() > 0 && self.key_cache.get(&(tid, op.key)).is_some();
                if key_cache_hit {
                    self.metrics.key_cache_hits += 1;
                    // Skip the partition-index walk.
                    cpu_us -= costs.per_candidate_cpu_us * 0.4;
                }

                let table = self.tables.get(tid).expect("candidate is live");
                let (block, hit_row) = match table.get(op.key) {
                    Some((row, block)) => (block, Some(row.version)),
                    None => (table.block_of_position(op.key), None), // bloom FP
                };
                if let Some(v) = hit_row {
                    newest_version = newest_version.max(v);
                }
                if self.key_cache.capacity() > 0 && !key_cache_hit && hit_row.is_some() {
                    self.key_cache.insert((tid, op.key), block);
                }

                // Block fetch through the cache hierarchy.
                let (fetch_cpu, fetch_io) = self.fetch_block(tid, block, io_ready);
                cpu_us += fetch_cpu;
                io_ready = fetch_io;
            }
            let _ = newest_version;
            self.read_scratch = scratch;

            if self.row_cache.capacity() > 0 {
                self.row_cache.insert(op.key, self.version_counter);
            }
        }

        let service = self.cpu_time(cpu_us, ready);
        let (_, cpu_done) = self.read_pool.dispatch(ready, service);
        let done = cpu_done.max(io_ready);
        self.push_event(
            done,
            EventKind::OpDone {
                token,
                kind: OpKind::Read,
                issued_at,
            },
        );
    }

    /// Fetches one SSTable block through the file-cache / OS-cache / disk
    /// hierarchy. Returns the CPU cost in µs and the (possibly advanced)
    /// I/O completion horizon.
    fn fetch_block(&mut self, tid: TableId, block: u32, mut io_ready: SimTime) -> (f64, SimTime) {
        let costs = self.spec.costs;
        if self.file_cache.get(&(tid, block)).is_some() {
            self.metrics.file_cache_hits += 1;
            return (costs.block_file_hit_us, io_ready);
        }
        self.metrics.file_cache_misses += 1;
        let cpu = if self.os_cache.get(&(tid, block)).is_some() {
            self.metrics.os_cache_hits += 1;
            costs.block_os_hit_us
        } else {
            self.metrics.disk_reads += 1;
            io_ready = self.disk.access(
                io_ready,
                DiskReq::RandRead {
                    bytes: self.cfg.sstable_block_bytes(),
                },
            );
            self.os_cache.insert((tid, block), ());
            0.0
        };
        if self.file_cache.insert((tid, block), ()).is_some() {
            self.metrics.file_cache_evictions += 1;
        }
        (cpu, io_ready)
    }

    /// Range scan (MG-RAST pipeline stages read runs of overlapping
    /// subsequences, §2.4.2): walk `[key, key + rows]` through the
    /// memtable and every overlapping SSTable, fetching the touched
    /// blocks.
    fn submit_scan(&mut self, token: OpToken, op: Operation, ready: SimTime) {
        let issued_at = ready;
        let costs = self.spec.costs;
        let rows_wanted = op.scan_rows() as u64;
        let lo = op.key;
        let hi = Key(op.key.0.saturating_add(rows_wanted.saturating_sub(1)));

        let mut cpu_us = costs.read_cpu_us; // query setup + response assembly
        let mut io_ready = ready;

        // Memtable contribution (real range walk).
        let mem_rows = self.memtable.scan(lo, hi).count();
        cpu_us += costs.scan_row_cpu_us * mem_rows as f64;

        // Every overlapping table contributes a seek plus its row run
        // (collected into the reused per-engine scratch buffer).
        let mut touched = std::mem::take(&mut self.scan_scratch);
        touched.clear();
        touched.extend(
            self.tables
                .iter()
                .filter(|t| t.range_overlaps(lo, hi))
                .map(|t| {
                    let (rows, b0, b1) = t.range_slice(lo, hi);
                    (t.id(), rows.len(), b0, b1)
                }),
        );
        for &(tid, row_count, b0, b1) in &touched {
            self.metrics.candidates_probed += 1;
            cpu_us += costs.per_candidate_cpu_us;
            cpu_us += costs.scan_row_cpu_us * row_count as f64;
            if row_count == 0 {
                continue;
            }
            for block in b0..=b1 {
                let (fetch_cpu, fetch_io) = self.fetch_block(tid, block, io_ready);
                cpu_us += fetch_cpu;
                io_ready = fetch_io;
            }
        }
        self.scan_scratch = touched;

        let service = self.cpu_time(cpu_us, ready);
        let (_, cpu_done) = self.read_pool.dispatch(ready, service);
        let done = cpu_done.max(io_ready);
        self.push_event(
            done,
            EventKind::OpDone {
                token,
                kind: OpKind::Scan,
                issued_at,
            },
        );
    }

    fn tuner_tick(&mut self) {
        let throughput_proxy = self.metrics.reads_completed + self.metrics.writes_completed;
        if let Some(mut tuner) = self.tuner.take() {
            self.tuner_factor = tuner.tick(throughput_proxy);
            let next = self.clock + tuner.period();
            self.tuner = Some(tuner);
            self.push_event(next, EventKind::TunerTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ROW_OVERHEAD_BYTES;
    use rafiki_workload::Operation;

    fn engine(cfg: EngineConfig) -> Engine {
        let mut e = Engine::new(cfg, ServerSpec::default());
        e.preload(50_000, 1_000);
        e
    }

    fn run_ops(e: &mut Engine, ops: Vec<Operation>) -> Vec<OpCompletion> {
        let mut completions = Vec::new();
        let mut pending = ops.into_iter();
        // Closed loop with 8 clients.
        for c in 0..8u64 {
            if let Some(op) = pending.next() {
                e.submit(c, op, e.clock());
            }
        }
        while let Some(done) = e.step() {
            for comp in done {
                completions.push(comp);
                if let Some(op) = pending.next() {
                    e.submit(comp.token, op, comp.completed_at);
                }
            }
            if completions.len() >= 10_000 && e.events.is_empty() {
                break;
            }
        }
        completions
    }

    #[test]
    fn preload_creates_overlapping_runs_for_stcs() {
        let e = engine(EngineConfig::default());
        assert_eq!(e.table_count(), 8);
        assert!(e.on_disk_bytes() > 0);
    }

    #[test]
    fn preload_creates_levels_for_lcs() {
        let cfg = EngineConfig {
            compaction_method: CompactionMethod::Leveled,
            ..EngineConfig::default()
        };
        let e = engine(cfg);
        assert!(e.table_count() >= 1);
        // Non-overlapping: a point read has at most ~2 candidates.
        // (Checked indirectly through metrics in the reads test below.)
    }

    #[test]
    fn reads_complete_and_probe_fewer_tables_under_lcs() {
        let read_ops = |cfg: EngineConfig| {
            let mut e = engine(cfg);
            let ops: Vec<Operation> = (0..2_000)
                .map(|i| Operation::read(Key(i * 7 % 50_000)))
                .collect();
            let completions = run_ops(&mut e, ops);
            assert_eq!(completions.len(), 2_000);
            e.metrics().avg_candidates_per_read()
        };
        let stcs = read_ops(EngineConfig::default());
        let lcfg = EngineConfig {
            compaction_method: CompactionMethod::Leveled,
            ..EngineConfig::default()
        };
        let lcs = read_ops(lcfg);
        assert!(
            stcs > lcs,
            "STCS should probe more tables per read: {stcs} vs {lcs}"
        );
    }

    #[test]
    fn oversized_payloads_are_charged_in_full() {
        // Any u32 length a client sends is a valid payload: the row keeps
        // the length and the simulator charges every byte of it.
        fn finish(e: &mut Engine, op: Operation) {
            let token = op.key.0;
            e.submit(token, op, e.clock());
            while let Some(done) = e.step() {
                if done.iter().any(|c| c.token == token) {
                    return;
                }
            }
            panic!("{op:?} never completed");
        }
        let mut e = Engine::new(EngineConfig::default(), ServerSpec::default());
        finish(&mut e, Operation::insert(Key(1), 2_000_000));
        assert_eq!(
            e.memtable.get(Key(1)).map(|r| r.payload_len),
            Some(2_000_000)
        );
        assert_eq!(e.memtable_bytes(), 2_000_000 + ROW_OVERHEAD_BYTES);
        finish(&mut e, Operation::read(Key(1)));

        // Past the flush threshold: the memtable freezes and flushes, and
        // the bytes move with it.
        finish(&mut e, Operation::insert(Key(2), u32::MAX));
        finish(&mut e, Operation::read(Key(2)));
        assert_eq!(
            e.memtable_bytes() + e.frozen_bytes() + e.on_disk_bytes(),
            2_000_000 + u64::from(u32::MAX) + 2 * ROW_OVERHEAD_BYTES
        );
        assert_eq!(e.metrics().writes_completed, 2);
        assert_eq!(e.metrics().reads_completed, 2);
    }

    #[test]
    fn writes_trigger_flushes_and_compactions() {
        let cfg = EngineConfig {
            memtable_heap_space_mb: 64,
            memtable_cleanup_threshold: 0.1, // flush every ~6.4MB
            ..EngineConfig::default()
        };
        let mut e = engine(cfg);
        let ops: Vec<Operation> = (0..30_000)
            .map(|i| Operation::insert(Key(100_000 + i), 1_000))
            .collect();
        let completions = run_ops(&mut e, ops);
        assert_eq!(completions.len(), 30_000);
        assert!(e.metrics().flushes > 2, "flushes = {}", e.metrics().flushes);
        assert!(
            e.metrics().compactions >= 1,
            "compactions = {}",
            e.metrics().compactions
        );
    }

    #[test]
    fn snapshot_hydration_is_bit_identical_to_fresh_preload() {
        // The determinism contract behind snapshot-reuse grids: an engine
        // hydrated from an EngineSnapshot must be indistinguishable from
        // one that replayed the preload — same completions, same metrics —
        // for both preload layouts, and the equivalence must survive a
        // live reconfigure.
        let snap = EngineSnapshot::new(50_000, 1_000);
        let ops = || -> Vec<Operation> {
            (0..3_000)
                .map(|i| {
                    if i % 4 == 0 {
                        Operation::insert(Key(60_000 + i), 500)
                    } else {
                        Operation::read(Key(i * 13 % 50_000))
                    }
                })
                .collect()
        };
        for method in [CompactionMethod::SizeTiered, CompactionMethod::Leveled] {
            let cfg = EngineConfig {
                compaction_method: method,
                ..EngineConfig::default()
            };

            let mut fresh = Engine::new(cfg.clone(), ServerSpec::default());
            fresh.preload(50_000, 1_000);
            let mut hydrated = Engine::new(cfg.clone(), ServerSpec::default());
            hydrated.preload_from(&snap);

            assert_eq!(fresh.table_count(), hydrated.table_count());
            assert_eq!(fresh.on_disk_bytes(), hydrated.on_disk_bytes());

            let a = run_ops(&mut fresh, ops());
            let b = run_ops(&mut hydrated, ops());
            assert_eq!(a, b, "completions diverged under {method:?}");
            assert_eq!(
                fresh.metrics(),
                hydrated.metrics(),
                "metrics diverged under {method:?}"
            );

            // Reconfigure both identically and keep going: hydrated state
            // must stay equivalent across the boundary.
            let mut next = cfg.clone();
            next.concurrent_reads = cfg.concurrent_reads * 2;
            next.file_cache_size_mb = cfg.file_cache_size_mb / 2 + 1;
            fresh.reconfigure(next.clone());
            hydrated.reconfigure(next);
            let a = run_ops(&mut fresh, ops());
            let b = run_ops(&mut hydrated, ops());
            assert_eq!(
                a, b,
                "post-reconfigure completions diverged under {method:?}"
            );
            assert_eq!(
                fresh.metrics(),
                hydrated.metrics(),
                "post-reconfigure metrics diverged under {method:?}"
            );
        }
        // Both layouts were materialized from one snapshot.
        assert_eq!(snap.variant_count(), 2);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e = engine(EngineConfig::default());
        let ops: Vec<Operation> = (0..500).map(|i| Operation::read(Key(i))).collect();
        let completions = run_ops(&mut e, ops);
        let mut last = SimTime::ZERO;
        for c in &completions {
            assert!(c.completed_at >= c.issued_at);
        }
        // Completion stream from step() is time-ordered.
        for c in completions {
            assert!(c.completed_at >= last);
            last = c.completed_at;
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut e = engine(EngineConfig::default());
            let ops: Vec<Operation> = (0..3_000)
                .map(|i| {
                    if i % 3 == 0 {
                        Operation::insert(Key(60_000 + i), 500)
                    } else {
                        Operation::read(Key(i % 50_000))
                    }
                })
                .collect();
            let completions = run_ops(&mut e, ops);
            (completions.last().unwrap().completed_at, *e.metrics())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_writers_speed_up_write_bursts_until_contention() {
        let throughput = |cw: u32| {
            let cfg = EngineConfig {
                concurrent_writes: cw,
                ..EngineConfig::default()
            };
            let mut e = engine(cfg);
            let ops: Vec<Operation> = (0..20_000)
                .map(|i| Operation::insert(Key(60_000 + i), 1_000))
                .collect();
            let completions = run_ops(&mut e, ops);
            let span = completions.last().unwrap().completed_at.as_secs_f64();
            20_000.0 / span
        };
        let t2 = throughput(2);
        let t32 = throughput(32);
        assert!(t32 > t2 * 1.5, "CW=2: {t2:.0} ops/s, CW=32: {t32:.0} ops/s");
    }

    #[test]
    fn scans_complete_and_cost_scales_with_length() {
        let latency_of = |rows: u32| {
            let mut e = engine(EngineConfig::default());
            let ops: Vec<Operation> = (0..200)
                .map(|i| Operation::scan(Key(i * 131 % 40_000), rows))
                .collect();
            let completions = run_ops(&mut e, ops);
            assert_eq!(completions.len(), 200);
            completions
                .iter()
                .map(|c| c.latency().as_millis_f64())
                .sum::<f64>()
                / 200.0
        };
        let short = latency_of(10);
        let long = latency_of(1_000);
        assert!(
            long > short * 2.0,
            "1000-row scans ({long:.3} ms) should cost much more than 10-row scans ({short:.3} ms)"
        );
    }

    #[test]
    fn deletes_write_tombstones_and_shadow_rows() {
        let mut e = engine(EngineConfig::default());
        // Delete a preloaded key, then read it back: the memtable now holds
        // a tombstone as the newest version.
        let ops = vec![Operation::delete(Key(7)), Operation::read(Key(7))];
        let completions = run_ops(&mut e, ops);
        assert_eq!(completions.len(), 2);
        assert_eq!(e.metrics().writes_completed, 1);
        assert_eq!(e.metrics().reads_completed, 1);
    }

    #[test]
    fn full_merge_purges_tombstones() {
        use crate::store::{merge_tables, Row, SsTable};
        let live = SsTable::from_rows(
            1,
            0,
            vec![Row::new(Key(1), 50, 1), Row::new(Key(2), 50, 2)],
            0.01,
            64 << 10,
        );
        let deletes = SsTable::from_rows(
            2,
            0,
            vec![
                Row::new_tombstone(Key(1), 9),
                Row::new_tombstone(Key(2), 10),
            ],
            0.01,
            64 << 10,
        );
        // Shadowing merge keeps the tombstones…
        let mut id = 10;
        let shadowed = merge_tables(
            &[&live, &deletes],
            0,
            0.01,
            64 << 10,
            u64::MAX,
            false,
            || {
                id += 1;
                id
            },
        );
        assert_eq!(shadowed[0].len(), 2);
        assert!(shadowed[0].iter().all(|r| r.tombstone));
        // …while a covering merge evicts them entirely.
        let purged = merge_tables(
            &[&live, &deletes],
            0,
            0.01,
            64 << 10,
            u64::MAX,
            true,
            || {
                id += 1;
                id
            },
        );
        assert!(purged.is_empty(), "everything was deleted");
    }

    #[test]
    fn row_cache_short_circuits_repeat_reads() {
        let cfg = EngineConfig {
            row_cache_size_mb: 128,
            ..EngineConfig::default()
        };
        let mut e = engine(cfg);
        let ops: Vec<Operation> = (0..1_000).map(|_| Operation::read(Key(42))).collect();
        run_ops(&mut e, ops);
        assert!(e.metrics().row_cache_hits > 900);
    }

    #[test]
    fn reconfigure_swaps_parameters_and_keeps_data() {
        let mut e = engine(EngineConfig::default());
        let warm: Vec<Operation> = (0..5_000)
            .map(|i| {
                if i % 4 == 0 {
                    Operation::insert(Key(60_000 + i), 800)
                } else {
                    Operation::read(Key(i % 50_000))
                }
            })
            .collect();
        run_ops(&mut e, warm);
        let tables_before = e.table_count();
        let bytes_before = e.on_disk_bytes();
        assert!(tables_before > 0 && bytes_before > 0);
        let metrics_before = *e.metrics();

        let next = EngineConfig {
            compaction_method: CompactionMethod::Leveled,
            concurrent_writes: 64,
            file_cache_size_mb: 1_024,
            row_cache_size_mb: 64,
            ..EngineConfig::default()
        };
        let outcome = e.reconfigure(next.clone());

        let changed: Vec<&str> = outcome.changed.iter().map(|c| c.name).collect();
        assert_eq!(
            changed,
            vec![
                "compaction_method",
                "concurrent_writes",
                "file_cache_size_in_mb",
                "row_cache_size_in_mb",
            ]
        );
        let cw = &outcome.changed[1];
        assert_eq!((cw.from, cw.to), (32.0, 64.0));
        assert_eq!(*e.config(), next);
        assert_eq!(e.table_count(), tables_before, "data must survive");
        assert_eq!(e.on_disk_bytes(), bytes_before);

        // The engine keeps serving: reads on preloaded keys, new inserts,
        // and the row cache enabled by the new config all take effect.
        let after: Vec<Operation> = (0..2_000)
            .map(|i| {
                if i % 4 == 0 {
                    Operation::insert(Key(90_000 + i), 800)
                } else {
                    Operation::read(Key(42))
                }
            })
            .collect();
        let completions = run_ops(&mut e, after);
        assert_eq!(completions.len(), 2_000);
        let m = e.metrics();
        assert!(m.reads_completed > metrics_before.reads_completed);
        assert!(m.writes_completed > metrics_before.writes_completed);
        assert!(m.row_cache_hits > 1_000, "new row cache must serve hits");
    }

    #[test]
    fn metrics_delta_spans_a_reconfigure_boundary() {
        // A serving window can contain a live reconfiguration; the
        // counters must keep accumulating across it (no reset), so a
        // delta taken around the boundary counts exactly the work done
        // since the snapshot.
        let mut e = engine(EngineConfig::default());
        let warm: Vec<Operation> = (0..4_000)
            .map(|i| {
                if i % 2 == 0 {
                    Operation::insert(Key(i), 800)
                } else {
                    Operation::read(Key(i / 2))
                }
            })
            .collect();
        run_ops(&mut e, warm);
        let snapshot = *e.metrics();
        assert!(snapshot.reads_completed == 2_000 && snapshot.writes_completed == 2_000);

        let next = EngineConfig {
            file_cache_size_mb: 64, // rebuilt cold
            concurrent_reads: 24,
            ..EngineConfig::default()
        };
        let outcome = e.reconfigure(next);
        assert_eq!(outcome.changed.len(), 2);

        let after: Vec<Operation> = (0..1_000).map(|i| Operation::read(Key(i * 3))).collect();
        run_ops(&mut e, after);

        let d = e.metrics().delta(&snapshot);
        assert_eq!(
            d.reads_completed, 1_000,
            "delta counts only post-snapshot reads"
        );
        assert_eq!(d.writes_completed, 0);
        // Totals are monotone across the boundary: delta + snapshot = now.
        assert_eq!(
            snapshot.reads_completed + d.reads_completed,
            e.metrics().reads_completed
        );
        assert!(
            d.file_cache_hits + d.file_cache_misses > 0,
            "post-reconfigure reads still flow through the (rebuilt) cache"
        );
    }

    #[test]
    #[should_panic(expected = "concurrent_writes")]
    fn reconfigure_rejects_invalid_config() {
        let mut e = engine(EngineConfig::default());
        let bad = EngineConfig {
            concurrent_writes: 0,
            ..EngineConfig::default()
        };
        e.reconfigure(bad);
    }
}
