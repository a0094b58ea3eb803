//! Engine configuration: the tunable parameter catalog (the `cassandra.yaml`
//! analogue) and the simulated server's hardware specification.
//!
//! The paper screens 25+ performance-related parameters with ANOVA and
//! finds five "key parameters" (§3.4.1): compaction method (CM), concurrent
//! writes (CW), file cache size (FCZ), memtable cleanup threshold (MT), and
//! concurrent compactors (CC). This module exposes the full catalog so the
//! screen has something real to screen: every parameter is wired into the
//! engine, most with deliberately small or zero performance impact, exactly
//! like their real-world counterparts.

use crate::store::CommitlogSync;

/// Which compaction strategy a table uses (`CM`, the paper's dominant
/// parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompactionMethod {
    /// Size-tiered compaction — write-friendly, read-amplifying.
    SizeTiered,
    /// Leveled compaction — read-friendly, write-amplifying.
    Leveled,
}

/// Block-cache eviction policy (`file_cache_eviction`). Cassandra's file
/// cache is fixed-policy, but eviction is a classic knob in the wider
/// NoSQL space (RocksDB exposes exactly this), and it stresses a tuner
/// with a categorical that interacts with cache *size*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Least-recently-used: hits promote; evict the coldest entry.
    Lru,
    /// First-in-first-out: hits do not promote; evict the oldest entry.
    Fifo,
    /// Clock (second-chance): hits set a referenced bit; eviction sweeps
    /// past referenced entries once before reclaiming them.
    Clock,
}

/// The full engine configuration. Field names follow `cassandra.yaml`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// `CM`: compaction strategy.
    pub compaction_method: CompactionMethod,
    /// `CW`: writer thread-pool size.
    pub concurrent_writes: u32,
    /// `FCZ`: SSTable block-cache size in MB.
    pub file_cache_size_mb: u32,
    /// `MT`: fraction of the memtable space that triggers a flush.
    pub memtable_cleanup_threshold: f64,
    /// `CC`: concurrent compaction executors.
    pub concurrent_compactors: u32,
    /// Reader thread-pool size.
    pub concurrent_reads: u32,
    /// Memtable heap allowance in MB.
    pub memtable_heap_space_mb: u32,
    /// Memtable off-heap allowance in MB (adds to the heap allowance).
    pub memtable_offheap_space_mb: u32,
    /// Number of concurrent flush writers.
    pub memtable_flush_writers: u32,
    /// Commit-log durability mode.
    pub commitlog_sync: CommitlogSync,
    /// Periodic-mode fsync interval in ms.
    pub commitlog_sync_period_ms: u32,
    /// Commit-log segment size in MB.
    pub commitlog_segment_size_mb: u32,
    /// Total commit-log space in MB (recovery bound; no throughput effect).
    pub commitlog_total_space_mb: u32,
    /// Background compaction throughput cap in MB/s (0 = unthrottled).
    pub compaction_throughput_mb_per_sec: u32,
    /// Key cache size in MB (caches key -> block position per table).
    pub key_cache_size_mb: u32,
    /// Row cache size in MB (0 disables it, the Cassandra default).
    pub row_cache_size_mb: u32,
    /// Bloom filter false-positive target per SSTable.
    pub bloom_filter_fp_chance: f64,
    /// Column index granularity in KB (bigger = more intra-partition scan).
    pub column_index_size_kb: u32,
    /// Index summary memory cap in MB.
    pub index_summary_capacity_mb: u32,
    /// Pre-open compacted tables this many MB early (warms caches).
    pub sstable_preemptive_open_mb: u32,
    /// Continuously fsync dirty pages (slightly smooths, slightly slows).
    pub trickle_fsync: bool,
    /// Counter-write pool size (unused by this workload; inert).
    pub concurrent_counter_writes: u32,
    /// Batch size warning threshold in KB (logging only; inert).
    pub batch_size_warn_threshold_kb: u32,
    /// Tombstone GC grace period in seconds (data retention; inert at
    /// benchmark timescales).
    pub tombstone_gc_grace_seconds: u32,
    /// Streaming throughput cap in MB/s (single-node benchmarks never
    /// stream; inert).
    pub stream_throughput_outbound_mb_per_sec: u32,
    /// Eviction policy of the SSTable block (file) cache.
    pub file_cache_eviction: EvictionPolicy,
    /// SSTable block size in KB — the cache-hierarchy granularity.
    /// Bigger blocks mean fewer index probes but fewer cacheable blocks
    /// per MB of file cache.
    pub sstable_block_size_kb: u32,
    /// STCS: minimum number of similarly-sized runs that triggers a
    /// size-tiered merge (`min_threshold` in Cassandra).
    pub stcs_min_threshold: u32,
    /// STCS: maximum number of runs merged in one size-tiered compaction
    /// (`max_threshold`). Values below `stcs_min_threshold` are treated
    /// as equal to it.
    pub stcs_max_threshold: u32,
    /// LCS: level size fanout — each level holds `fanout`x the bytes of
    /// the previous one.
    pub leveled_fanout: u32,
}

impl Default for EngineConfig {
    /// Cassandra-like defaults, scaled to the simulated server (see
    /// [`ServerSpec::default`]).
    fn default() -> Self {
        EngineConfig {
            compaction_method: CompactionMethod::SizeTiered,
            concurrent_writes: 32,
            file_cache_size_mb: 256,
            memtable_cleanup_threshold: 0.30,
            concurrent_compactors: 2,
            concurrent_reads: 32,
            memtable_heap_space_mb: 128,
            memtable_offheap_space_mb: 0,
            memtable_flush_writers: 2,
            commitlog_sync: CommitlogSync::Periodic,
            commitlog_sync_period_ms: 10_000,
            commitlog_segment_size_mb: 32,
            commitlog_total_space_mb: 8_192,
            compaction_throughput_mb_per_sec: 16,
            key_cache_size_mb: 100,
            row_cache_size_mb: 0,
            bloom_filter_fp_chance: 0.01,
            column_index_size_kb: 64,
            index_summary_capacity_mb: 128,
            sstable_preemptive_open_mb: 50,
            trickle_fsync: false,
            concurrent_counter_writes: 32,
            batch_size_warn_threshold_kb: 64,
            tombstone_gc_grace_seconds: 864_000,
            stream_throughput_outbound_mb_per_sec: 200,
            file_cache_eviction: EvictionPolicy::Lru,
            sstable_block_size_kb: 64,
            stcs_min_threshold: 4,
            stcs_max_threshold: 4,
            leveled_fanout: 10,
        }
    }
}

impl EngineConfig {
    /// Validates ranges; the engine calls this at construction.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!(self.concurrent_writes >= 1, "concurrent_writes >= 1");
        assert!(self.concurrent_reads >= 1, "concurrent_reads >= 1");
        assert!(
            self.concurrent_compactors >= 1,
            "concurrent_compactors >= 1"
        );
        assert!(
            self.memtable_flush_writers >= 1,
            "memtable_flush_writers >= 1"
        );
        assert!(
            self.memtable_cleanup_threshold > 0.0 && self.memtable_cleanup_threshold <= 1.0,
            "memtable_cleanup_threshold in (0,1]"
        );
        assert!(
            self.bloom_filter_fp_chance > 0.0 && self.bloom_filter_fp_chance < 1.0,
            "bloom_filter_fp_chance in (0,1)"
        );
        assert!(
            self.memtable_heap_space_mb >= 16,
            "memtable space too small"
        );
        assert!(self.commitlog_segment_size_mb >= 1, "segment size >= 1MB");
        assert!(
            (4..=1_024).contains(&self.sstable_block_size_kb),
            "sstable_block_size_kb in [4, 1024]"
        );
        assert!(self.stcs_min_threshold >= 2, "stcs_min_threshold >= 2");
        assert!(self.stcs_max_threshold >= 2, "stcs_max_threshold >= 2");
        assert!(self.leveled_fanout >= 2, "leveled_fanout >= 2");
    }

    /// SSTable block size in bytes (the cache-hierarchy granularity).
    pub fn sstable_block_bytes(&self) -> u64 {
        (self.sstable_block_size_kb as u64) << 10
    }

    /// Effective STCS max threshold: never below the min threshold, so
    /// clamped-but-crossed search proposals stay well-formed.
    pub fn stcs_max_threshold_effective(&self) -> usize {
        self.stcs_max_threshold.max(self.stcs_min_threshold) as usize
    }

    /// The memtable flush threshold in logical bytes:
    /// `cleanup_threshold x (heap + offheap space)`.
    pub fn memtable_flush_threshold_bytes(&self) -> u64 {
        let space =
            (self.memtable_heap_space_mb as u64 + self.memtable_offheap_space_mb as u64) << 20;
        ((space as f64) * self.memtable_cleanup_threshold) as u64
    }
}

/// Identifiers for every tunable parameter, used by the tuner to map
/// genome vectors onto configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ParamId {
    CompactionMethod,
    ConcurrentWrites,
    FileCacheSizeMb,
    MemtableCleanupThreshold,
    ConcurrentCompactors,
    ConcurrentReads,
    MemtableHeapSpaceMb,
    MemtableOffheapSpaceMb,
    MemtableFlushWriters,
    CommitlogSync,
    CommitlogSyncPeriodMs,
    CommitlogSegmentSizeMb,
    CommitlogTotalSpaceMb,
    CompactionThroughputMbPerSec,
    KeyCacheSizeMb,
    RowCacheSizeMb,
    BloomFilterFpChance,
    ColumnIndexSizeKb,
    IndexSummaryCapacityMb,
    SstablePreemptiveOpenMb,
    TrickleFsync,
    ConcurrentCounterWrites,
    BatchSizeWarnThresholdKb,
    TombstoneGcGraceSeconds,
    StreamThroughputOutboundMbPerSec,
    FileCacheEviction,
    SstableBlockSizeKb,
    StcsMinThreshold,
    StcsMaxThreshold,
    LeveledFanout,
}

/// Value domain of one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamDomain {
    /// `options` unordered choices encoded as `0..options`.
    Categorical {
        /// Number of choices.
        options: u32,
    },
    /// Integers in `[min, max]`.
    Int {
        /// Lower bound.
        min: i64,
        /// Upper bound.
        max: i64,
    },
    /// Reals in `[min, max]`.
    Real {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
}

/// Catalog entry describing one tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamInfo {
    /// Identifier.
    pub id: ParamId,
    /// `cassandra.yaml`-style name.
    pub name: &'static str,
    /// Value domain.
    pub domain: ParamDomain,
    /// Default value, encoded as `f64` (see [`EngineConfig::get`]).
    pub default: f64,
}

/// The full parameter catalog in a stable order.
pub fn param_catalog() -> Vec<ParamInfo> {
    use ParamDomain::*;
    use ParamId::*;
    vec![
        ParamInfo {
            id: CompactionMethod,
            name: "compaction_method",
            domain: Categorical { options: 2 },
            default: 0.0,
        },
        ParamInfo {
            id: ConcurrentWrites,
            name: "concurrent_writes",
            domain: Int { min: 8, max: 128 },
            default: 32.0,
        },
        ParamInfo {
            id: FileCacheSizeMb,
            name: "file_cache_size_in_mb",
            domain: Int { min: 32, max: 512 },
            default: 256.0,
        },
        ParamInfo {
            id: MemtableCleanupThreshold,
            name: "memtable_cleanup_threshold",
            domain: Real {
                min: 0.10,
                max: 0.90,
            },
            default: 0.30,
        },
        ParamInfo {
            id: ConcurrentCompactors,
            name: "concurrent_compactors",
            domain: Int { min: 1, max: 16 },
            default: 2.0,
        },
        ParamInfo {
            id: ConcurrentReads,
            name: "concurrent_reads",
            domain: Int { min: 16, max: 64 },
            default: 32.0,
        },
        ParamInfo {
            id: MemtableHeapSpaceMb,
            name: "memtable_heap_space_in_mb",
            domain: Int { min: 64, max: 512 },
            default: 128.0,
        },
        ParamInfo {
            id: MemtableOffheapSpaceMb,
            name: "memtable_offheap_space_in_mb",
            domain: Int { min: 0, max: 256 },
            default: 0.0,
        },
        ParamInfo {
            id: MemtableFlushWriters,
            name: "memtable_flush_writers",
            domain: Int { min: 1, max: 8 },
            default: 2.0,
        },
        ParamInfo {
            id: CommitlogSync,
            name: "commitlog_sync",
            domain: Categorical { options: 2 },
            default: 0.0,
        },
        ParamInfo {
            id: CommitlogSyncPeriodMs,
            name: "commitlog_sync_period_in_ms",
            domain: Int {
                min: 1_000,
                max: 20_000,
            },
            default: 10_000.0,
        },
        ParamInfo {
            id: CommitlogSegmentSizeMb,
            name: "commitlog_segment_size_in_mb",
            domain: Int { min: 8, max: 64 },
            default: 32.0,
        },
        ParamInfo {
            id: CommitlogTotalSpaceMb,
            name: "commitlog_total_space_in_mb",
            domain: Int {
                min: 1_024,
                max: 16_384,
            },
            default: 8_192.0,
        },
        ParamInfo {
            id: CompactionThroughputMbPerSec,
            name: "compaction_throughput_mb_per_sec",
            domain: Int { min: 8, max: 64 },
            default: 16.0,
        },
        ParamInfo {
            id: KeyCacheSizeMb,
            name: "key_cache_size_in_mb",
            domain: Int { min: 0, max: 512 },
            default: 100.0,
        },
        ParamInfo {
            id: RowCacheSizeMb,
            name: "row_cache_size_in_mb",
            domain: Int { min: 0, max: 512 },
            default: 0.0,
        },
        ParamInfo {
            id: BloomFilterFpChance,
            name: "bloom_filter_fp_chance",
            domain: Real {
                min: 0.001,
                max: 0.2,
            },
            default: 0.01,
        },
        ParamInfo {
            id: ColumnIndexSizeKb,
            name: "column_index_size_in_kb",
            domain: Int { min: 4, max: 256 },
            default: 64.0,
        },
        ParamInfo {
            id: IndexSummaryCapacityMb,
            name: "index_summary_capacity_in_mb",
            domain: Int { min: 16, max: 256 },
            default: 128.0,
        },
        ParamInfo {
            id: SstablePreemptiveOpenMb,
            name: "sstable_preemptive_open_interval_in_mb",
            domain: Int { min: 0, max: 100 },
            default: 50.0,
        },
        ParamInfo {
            id: TrickleFsync,
            name: "trickle_fsync",
            domain: Categorical { options: 2 },
            default: 0.0,
        },
        ParamInfo {
            id: ConcurrentCounterWrites,
            name: "concurrent_counter_writes",
            domain: Int { min: 8, max: 64 },
            default: 32.0,
        },
        ParamInfo {
            id: BatchSizeWarnThresholdKb,
            name: "batch_size_warn_threshold_in_kb",
            domain: Int { min: 5, max: 500 },
            default: 64.0,
        },
        ParamInfo {
            id: TombstoneGcGraceSeconds,
            name: "gc_grace_seconds",
            domain: Int {
                min: 3_600,
                max: 864_000,
            },
            default: 864_000.0,
        },
        ParamInfo {
            id: StreamThroughputOutboundMbPerSec,
            name: "stream_throughput_outbound_megabits_per_sec",
            domain: Int { min: 25, max: 400 },
            default: 200.0,
        },
        ParamInfo {
            id: FileCacheEviction,
            name: "file_cache_eviction",
            domain: Categorical { options: 3 },
            default: 0.0,
        },
        ParamInfo {
            id: SstableBlockSizeKb,
            name: "sstable_block_size_in_kb",
            domain: Int { min: 16, max: 256 },
            default: 64.0,
        },
        ParamInfo {
            id: StcsMinThreshold,
            name: "stcs_min_threshold",
            domain: Int { min: 2, max: 8 },
            default: 4.0,
        },
        ParamInfo {
            id: StcsMaxThreshold,
            name: "stcs_max_threshold",
            domain: Int { min: 2, max: 32 },
            default: 4.0,
        },
        ParamInfo {
            id: LeveledFanout,
            name: "leveled_fanout",
            domain: Int { min: 4, max: 16 },
            default: 10.0,
        },
    ]
}

impl EngineConfig {
    /// Reads a parameter as `f64` (categoricals encode as option index).
    pub fn get(&self, id: ParamId) -> f64 {
        use ParamId::*;
        match id {
            CompactionMethod => match self.compaction_method {
                crate::config::CompactionMethod::SizeTiered => 0.0,
                crate::config::CompactionMethod::Leveled => 1.0,
            },
            ConcurrentWrites => self.concurrent_writes as f64,
            FileCacheSizeMb => self.file_cache_size_mb as f64,
            MemtableCleanupThreshold => self.memtable_cleanup_threshold,
            ConcurrentCompactors => self.concurrent_compactors as f64,
            ConcurrentReads => self.concurrent_reads as f64,
            MemtableHeapSpaceMb => self.memtable_heap_space_mb as f64,
            MemtableOffheapSpaceMb => self.memtable_offheap_space_mb as f64,
            MemtableFlushWriters => self.memtable_flush_writers as f64,
            CommitlogSync => match self.commitlog_sync {
                crate::store::CommitlogSync::Periodic => 0.0,
                crate::store::CommitlogSync::Batch => 1.0,
            },
            CommitlogSyncPeriodMs => self.commitlog_sync_period_ms as f64,
            CommitlogSegmentSizeMb => self.commitlog_segment_size_mb as f64,
            CommitlogTotalSpaceMb => self.commitlog_total_space_mb as f64,
            CompactionThroughputMbPerSec => self.compaction_throughput_mb_per_sec as f64,
            KeyCacheSizeMb => self.key_cache_size_mb as f64,
            RowCacheSizeMb => self.row_cache_size_mb as f64,
            BloomFilterFpChance => self.bloom_filter_fp_chance,
            ColumnIndexSizeKb => self.column_index_size_kb as f64,
            IndexSummaryCapacityMb => self.index_summary_capacity_mb as f64,
            SstablePreemptiveOpenMb => self.sstable_preemptive_open_mb as f64,
            TrickleFsync => self.trickle_fsync as u32 as f64,
            ConcurrentCounterWrites => self.concurrent_counter_writes as f64,
            BatchSizeWarnThresholdKb => self.batch_size_warn_threshold_kb as f64,
            TombstoneGcGraceSeconds => self.tombstone_gc_grace_seconds as f64,
            StreamThroughputOutboundMbPerSec => self.stream_throughput_outbound_mb_per_sec as f64,
            FileCacheEviction => match self.file_cache_eviction {
                EvictionPolicy::Lru => 0.0,
                EvictionPolicy::Fifo => 1.0,
                EvictionPolicy::Clock => 2.0,
            },
            SstableBlockSizeKb => self.sstable_block_size_kb as f64,
            StcsMinThreshold => self.stcs_min_threshold as f64,
            StcsMaxThreshold => self.stcs_max_threshold as f64,
            LeveledFanout => self.leveled_fanout as f64,
        }
    }

    /// Sets a parameter from its `f64` encoding, rounding and clamping into
    /// the catalog domain.
    pub fn set(&mut self, id: ParamId, value: f64) {
        use ParamId::*;
        let as_u32 = |v: f64, lo: i64, hi: i64| (v.round() as i64).clamp(lo, hi) as u32;
        match id {
            CompactionMethod => {
                self.compaction_method = if value.round() >= 0.5 {
                    crate::config::CompactionMethod::Leveled
                } else {
                    crate::config::CompactionMethod::SizeTiered
                };
            }
            ConcurrentWrites => self.concurrent_writes = as_u32(value, 8, 128),
            FileCacheSizeMb => self.file_cache_size_mb = as_u32(value, 32, 512),
            MemtableCleanupThreshold => self.memtable_cleanup_threshold = value.clamp(0.10, 0.90),
            ConcurrentCompactors => self.concurrent_compactors = as_u32(value, 1, 16),
            ConcurrentReads => self.concurrent_reads = as_u32(value, 16, 64),
            MemtableHeapSpaceMb => self.memtable_heap_space_mb = as_u32(value, 64, 512),
            MemtableOffheapSpaceMb => self.memtable_offheap_space_mb = as_u32(value, 0, 256),
            MemtableFlushWriters => self.memtable_flush_writers = as_u32(value, 1, 8),
            CommitlogSync => {
                self.commitlog_sync = if value.round() >= 0.5 {
                    crate::store::CommitlogSync::Batch
                } else {
                    crate::store::CommitlogSync::Periodic
                };
            }
            CommitlogSyncPeriodMs => self.commitlog_sync_period_ms = as_u32(value, 1_000, 20_000),
            CommitlogSegmentSizeMb => self.commitlog_segment_size_mb = as_u32(value, 8, 64),
            CommitlogTotalSpaceMb => self.commitlog_total_space_mb = as_u32(value, 1_024, 16_384),
            CompactionThroughputMbPerSec => {
                self.compaction_throughput_mb_per_sec = as_u32(value, 8, 64)
            }
            KeyCacheSizeMb => self.key_cache_size_mb = as_u32(value, 0, 512),
            RowCacheSizeMb => self.row_cache_size_mb = as_u32(value, 0, 512),
            BloomFilterFpChance => self.bloom_filter_fp_chance = value.clamp(0.001, 0.2),
            ColumnIndexSizeKb => self.column_index_size_kb = as_u32(value, 4, 256),
            IndexSummaryCapacityMb => self.index_summary_capacity_mb = as_u32(value, 16, 256),
            SstablePreemptiveOpenMb => self.sstable_preemptive_open_mb = as_u32(value, 0, 100),
            TrickleFsync => self.trickle_fsync = value.round() >= 0.5,
            ConcurrentCounterWrites => self.concurrent_counter_writes = as_u32(value, 8, 64),
            BatchSizeWarnThresholdKb => self.batch_size_warn_threshold_kb = as_u32(value, 5, 500),
            TombstoneGcGraceSeconds => {
                self.tombstone_gc_grace_seconds = as_u32(value, 3_600, 864_000)
            }
            StreamThroughputOutboundMbPerSec => {
                self.stream_throughput_outbound_mb_per_sec = as_u32(value, 25, 400)
            }
            FileCacheEviction => {
                self.file_cache_eviction = match (value.round() as i64).clamp(0, 2) {
                    0 => EvictionPolicy::Lru,
                    1 => EvictionPolicy::Fifo,
                    _ => EvictionPolicy::Clock,
                };
            }
            SstableBlockSizeKb => self.sstable_block_size_kb = as_u32(value, 16, 256),
            StcsMinThreshold => self.stcs_min_threshold = as_u32(value, 2, 8),
            StcsMaxThreshold => self.stcs_max_threshold = as_u32(value, 2, 32),
            LeveledFanout => self.leveled_fanout = as_u32(value, 4, 16),
        }
    }

    /// The parameters on which `self` and `next` differ, in catalog
    /// order, with both values in the `f64` encoding of
    /// [`EngineConfig::get`]. The backbone of reconfiguration audit
    /// trails: a switch's diff names exactly what changed and by how
    /// much.
    pub fn diff(&self, next: &EngineConfig) -> Vec<ParamChange> {
        param_catalog()
            .into_iter()
            .filter_map(|info| {
                let from = self.get(info.id);
                let to = next.get(info.id);
                (from != to).then_some(ParamChange {
                    id: info.id,
                    name: info.name,
                    from,
                    to,
                })
            })
            .collect()
    }
}

/// One parameter's change across a reconfiguration (see
/// [`EngineConfig::diff`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamChange {
    /// Identifier.
    pub id: ParamId,
    /// `cassandra.yaml`-style name from the catalog.
    pub name: &'static str,
    /// Value before the switch (`f64` encoding).
    pub from: f64,
    /// Value after the switch (`f64` encoding).
    pub to: f64,
}

/// Cost-model constants of the simulated server. These are calibration
/// inputs, not tunables: they stand in for the Dell R430's CPU and JVM
/// path lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Base CPU time of a write (commit-log append + memtable insert), µs.
    pub write_cpu_us: f64,
    /// Base CPU time of a read (memtable probe + response assembly), µs.
    pub read_cpu_us: f64,
    /// CPU per SSTable candidate probed (bloom + partition index), µs.
    pub per_candidate_cpu_us: f64,
    /// CPU per *range-matching* table whose bloom filter rejects, µs.
    pub bloom_check_cpu_us: f64,
    /// Block fetch served from the file (block) cache, µs.
    pub block_file_hit_us: f64,
    /// Block fetch served from the OS page cache, µs.
    pub block_os_hit_us: f64,
    /// CPU per row visited by a range scan, µs.
    pub scan_row_cpu_us: f64,
    /// Flush CPU per logical MB serialized, µs.
    pub flush_cpu_per_mb_us: f64,
    /// Compaction merge CPU per logical MB, µs.
    pub compaction_cpu_per_mb_us: f64,
    /// Linear CPU oversubscription coefficient.
    pub contention_linear: f64,
    /// Quadratic CPU oversubscription coefficient.
    pub contention_quadratic: f64,
    /// Slowdown added per *configured* thread beyond the core count —
    /// idle pool threads still cost wakeups and scheduler churn, which is
    /// what makes grossly oversized pools (CW = 128) counterproductive.
    pub idle_thread_overhead: f64,
    /// CPU penalty factor per byte of file cache above the recommended
    /// quarter-heap bound (GC pressure).
    pub cache_gc_penalty: f64,
    /// On-disk compression ratio applied to flush/compaction I/O volume
    /// (SSTable compression is on by default in Cassandra).
    pub sstable_compression: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            write_cpu_us: 110.0,
            read_cpu_us: 80.0,
            per_candidate_cpu_us: 35.0,
            bloom_check_cpu_us: 1.5,
            block_file_hit_us: 2.0,
            block_os_hit_us: 35.0,
            scan_row_cpu_us: 2.5,
            flush_cpu_per_mb_us: 600.0,
            compaction_cpu_per_mb_us: 1_500.0,
            contention_linear: 0.20,
            contention_quadratic: 0.02,
            idle_thread_overhead: 0.004,
            cache_gc_penalty: 0.25,
            sstable_compression: 0.6,
        }
    }
}

/// Hardware specification of the simulated server (the paper's testbed is
/// a Dell PowerEdge R430: 2x Xeon 4-core, 32 GB RAM, mirrored magnetic
/// disks; our model scales the memory hierarchy down ~8x so experiments
/// complete quickly — the response-surface *shape* is scale-invariant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Physical cores.
    pub cores: usize,
    /// JVM heap in MB (bounds the recommended file-cache size).
    pub heap_mb: u32,
    /// OS page cache in MB backing the file cache.
    pub os_cache_mb: u32,
    /// Disk sequential read bandwidth, MB/s.
    pub disk_seq_read_mbps: f64,
    /// Disk sequential write bandwidth, MB/s.
    pub disk_seq_write_mbps: f64,
    /// Disk random access time, ms.
    pub disk_rand_access_ms: f64,
    /// Network bandwidth for cluster mode, Gbit/s.
    pub network_gbps: f64,
    /// Network one-way latency, µs.
    pub network_latency_us: f64,
    /// Block size of the cache hierarchy, bytes.
    pub block_bytes: u64,
    /// Cost-model constants.
    pub costs: CostModel,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            cores: 8,
            heap_mb: 1_024,
            os_cache_mb: 1_024,
            disk_seq_read_mbps: 160.0,
            disk_seq_write_mbps: 140.0,
            disk_rand_access_ms: 2.0,
            network_gbps: 1.0,
            network_latency_us: 100.0,
            block_bytes: 64 << 10,
            costs: CostModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        EngineConfig::default().validate();
    }

    #[test]
    fn catalog_covers_30_parameters() {
        let catalog = param_catalog();
        assert_eq!(catalog.len(), 30);
        // Names are unique.
        let names: std::collections::HashSet<_> = catalog.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn get_set_roundtrip_for_every_param() {
        let catalog = param_catalog();
        let mut cfg = EngineConfig::default();
        for p in &catalog {
            // Default in catalog matches the struct default.
            assert_eq!(cfg.get(p.id), p.default, "default mismatch for {}", p.name);
            // Set to a mid-range value and read it back.
            let probe = match p.domain {
                ParamDomain::Categorical { options } => (options - 1) as f64,
                ParamDomain::Int { min, max } => ((min + max) / 2) as f64,
                ParamDomain::Real { min, max } => (min + max) / 2.0,
            };
            cfg.set(p.id, probe);
            let got = cfg.get(p.id);
            assert!(
                (got - probe).abs() < 1e-9,
                "roundtrip failed for {}: set {probe}, got {got}",
                p.name
            );
        }
        cfg.validate();
    }

    #[test]
    fn diff_names_exactly_the_changed_params_in_catalog_order() {
        let base = EngineConfig::default();
        assert!(base.diff(&base).is_empty(), "identical configs: no diff");

        let mut next = base.clone();
        next.set(ParamId::ConcurrentWrites, 64.0);
        next.set(ParamId::BloomFilterFpChance, 0.05);
        next.set(ParamId::CompactionMethod, 1.0);
        let diff = base.diff(&next);
        // Catalog order, not mutation order.
        let names: Vec<&str> = diff.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "compaction_method",
                "concurrent_writes",
                "bloom_filter_fp_chance"
            ]
        );
        for c in &diff {
            assert_eq!(c.from, base.get(c.id));
            assert_eq!(c.to, next.get(c.id));
            assert_ne!(c.from, c.to);
        }
        // The reverse diff swaps directions.
        let back = next.diff(&base);
        assert_eq!(back.len(), diff.len());
        assert_eq!(back[0].from, diff[0].to);
        assert_eq!(back[0].to, diff[0].from);
    }

    #[test]
    fn diff_of_every_param_changed_is_exactly_catalog_order() {
        // Build a config that differs from the default on *every*
        // parameter, mutating in reverse catalog order to prove the
        // diff re-canonicalises. Guards the obs reconfigure-span
        // output, which serialises diffs positionally.
        let base = EngineConfig::default();
        let mut next = base.clone();
        for p in param_catalog().into_iter().rev() {
            let flipped = match p.domain {
                ParamDomain::Categorical { options } => {
                    (p.default as u32 + 1) as f64 % options as f64
                }
                ParamDomain::Int { min, max } => {
                    if p.default as i64 == max {
                        min as f64
                    } else {
                        max as f64
                    }
                }
                ParamDomain::Real { min, max } => {
                    if (p.default - max).abs() < 1e-12 {
                        min
                    } else {
                        max
                    }
                }
            };
            next.set(p.id, flipped);
            assert_ne!(base.get(p.id), next.get(p.id), "failed to flip {}", p.name);
        }
        let diff = base.diff(&next);
        let catalog = param_catalog();
        assert_eq!(diff.len(), catalog.len(), "every param must appear");
        for (change, info) in diff.iter().zip(catalog.iter()) {
            assert_eq!(change.id, info.id, "diff order diverged at {}", info.name);
            assert_eq!(change.name, info.name);
        }
    }

    #[test]
    fn new_wide_space_params_roundtrip_and_validate() {
        let mut cfg = EngineConfig::default();
        assert_eq!(cfg.file_cache_eviction, EvictionPolicy::Lru);
        assert_eq!(cfg.sstable_block_bytes(), 64 << 10);
        cfg.set(ParamId::FileCacheEviction, 2.0);
        assert_eq!(cfg.file_cache_eviction, EvictionPolicy::Clock);
        cfg.set(ParamId::SstableBlockSizeKb, 1_000.0);
        assert_eq!(cfg.sstable_block_size_kb, 256, "clamped to domain max");
        // min > max: effective max threshold never drops below min.
        cfg.set(ParamId::StcsMinThreshold, 8.0);
        cfg.set(ParamId::StcsMaxThreshold, 2.0);
        assert_eq!(cfg.stcs_max_threshold_effective(), 8);
        cfg.set(ParamId::LeveledFanout, 4.0);
        assert_eq!(cfg.leveled_fanout, 4);
        cfg.validate();
    }

    #[test]
    fn set_clamps_out_of_range() {
        let mut cfg = EngineConfig::default();
        cfg.set(ParamId::ConcurrentWrites, 10_000.0);
        assert_eq!(cfg.concurrent_writes, 128);
        cfg.set(ParamId::ConcurrentWrites, -5.0);
        assert_eq!(cfg.concurrent_writes, 8);
        cfg.set(ParamId::MemtableCleanupThreshold, 7.0);
        assert!(cfg.memtable_cleanup_threshold <= 0.9);
        cfg.validate();
    }

    #[test]
    fn categorical_encoding() {
        let mut cfg = EngineConfig::default();
        cfg.set(ParamId::CompactionMethod, 1.0);
        assert_eq!(cfg.compaction_method, CompactionMethod::Leveled);
        cfg.set(ParamId::CompactionMethod, 0.2);
        assert_eq!(cfg.compaction_method, CompactionMethod::SizeTiered);
        cfg.set(ParamId::CommitlogSync, 1.0);
        assert_eq!(cfg.commitlog_sync, crate::store::CommitlogSync::Batch);
    }

    #[test]
    fn flush_threshold_combines_spaces() {
        let cfg = EngineConfig {
            memtable_heap_space_mb: 100,
            memtable_offheap_space_mb: 60,
            memtable_cleanup_threshold: 0.5,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.memtable_flush_threshold_bytes(), 80 << 20);
    }
}
