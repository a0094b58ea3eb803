//! Engine-internal counters, exposed for experiment analysis and tests.

/// Counters accumulated by one engine over its lifetime (reset at the end
/// of the benchmark warm-up so measurements cover steady state only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Read operations completed.
    pub reads_completed: u64,
    /// Write operations completed.
    pub writes_completed: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compaction jobs completed.
    pub compactions: u64,
    /// Logical bytes read+written by compactions.
    pub compacted_bytes: u64,
    /// Bloom-filter checks performed on the read path.
    pub bloom_checks: u64,
    /// Bloom checks that rejected the table.
    pub bloom_negatives: u64,
    /// SSTable candidates actually probed (bloom-positive).
    pub candidates_probed: u64,
    /// Block fetches served by the file (block) cache.
    pub file_cache_hits: u64,
    /// Block fetches that missed the file cache.
    pub file_cache_misses: u64,
    /// Entries evicted from the file cache to make room (eviction
    /// pressure: a high rate relative to hits means the cache is too
    /// small for the working set).
    pub file_cache_evictions: u64,
    /// Misses served by the OS page cache.
    pub os_cache_hits: u64,
    /// Misses that went all the way to disk.
    pub disk_reads: u64,
    /// Row-cache hits (0 unless the row cache is enabled).
    pub row_cache_hits: u64,
    /// Key-cache hits.
    pub key_cache_hits: u64,
    /// Nanoseconds writes spent stalled on memtable-space exhaustion.
    pub write_stall_ns: u64,
}

impl EngineMetrics {
    /// Counters accumulated since `earlier` was captured: every field of
    /// `self` minus the corresponding field of `earlier` (saturating at
    /// zero). Lets a long-running server report per-window counters from
    /// periodic snapshots without resetting the engine mid-run.
    pub fn delta(&self, earlier: &Self) -> Self {
        EngineMetrics {
            reads_completed: self.reads_completed.saturating_sub(earlier.reads_completed),
            writes_completed: self
                .writes_completed
                .saturating_sub(earlier.writes_completed),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            compacted_bytes: self.compacted_bytes.saturating_sub(earlier.compacted_bytes),
            bloom_checks: self.bloom_checks.saturating_sub(earlier.bloom_checks),
            bloom_negatives: self.bloom_negatives.saturating_sub(earlier.bloom_negatives),
            candidates_probed: self
                .candidates_probed
                .saturating_sub(earlier.candidates_probed),
            file_cache_hits: self.file_cache_hits.saturating_sub(earlier.file_cache_hits),
            file_cache_misses: self
                .file_cache_misses
                .saturating_sub(earlier.file_cache_misses),
            file_cache_evictions: self
                .file_cache_evictions
                .saturating_sub(earlier.file_cache_evictions),
            os_cache_hits: self.os_cache_hits.saturating_sub(earlier.os_cache_hits),
            disk_reads: self.disk_reads.saturating_sub(earlier.disk_reads),
            row_cache_hits: self.row_cache_hits.saturating_sub(earlier.row_cache_hits),
            key_cache_hits: self.key_cache_hits.saturating_sub(earlier.key_cache_hits),
            write_stall_ns: self.write_stall_ns.saturating_sub(earlier.write_stall_ns),
        }
    }

    /// Average number of SSTables probed per read.
    pub fn avg_candidates_per_read(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.candidates_probed as f64 / self.reads_completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_every_counter() {
        let earlier = EngineMetrics {
            reads_completed: 10,
            writes_completed: 5,
            flushes: 1,
            compactions: 1,
            compacted_bytes: 1_000,
            bloom_checks: 40,
            bloom_negatives: 30,
            candidates_probed: 12,
            file_cache_hits: 8,
            file_cache_misses: 4,
            file_cache_evictions: 3,
            os_cache_hits: 2,
            disk_reads: 2,
            row_cache_hits: 0,
            key_cache_hits: 6,
            write_stall_ns: 500,
        };
        let later = EngineMetrics {
            reads_completed: 25,
            writes_completed: 9,
            flushes: 3,
            compactions: 2,
            compacted_bytes: 5_000,
            bloom_checks: 100,
            bloom_negatives: 70,
            candidates_probed: 30,
            file_cache_hits: 20,
            file_cache_misses: 10,
            file_cache_evictions: 7,
            os_cache_hits: 5,
            disk_reads: 5,
            row_cache_hits: 1,
            key_cache_hits: 15,
            write_stall_ns: 1_500,
        };
        let d = later.delta(&earlier);
        assert_eq!(d.reads_completed, 15);
        assert_eq!(d.writes_completed, 4);
        assert_eq!(d.flushes, 2);
        assert_eq!(d.compactions, 1);
        assert_eq!(d.compacted_bytes, 4_000);
        assert_eq!(d.bloom_checks, 60);
        assert_eq!(d.bloom_negatives, 40);
        assert_eq!(d.candidates_probed, 18);
        assert_eq!(d.file_cache_hits, 12);
        assert_eq!(d.file_cache_misses, 6);
        assert_eq!(d.file_cache_evictions, 4);
        assert_eq!(d.os_cache_hits, 3);
        assert_eq!(d.disk_reads, 3);
        assert_eq!(d.row_cache_hits, 1);
        assert_eq!(d.key_cache_hits, 9);
        assert_eq!(d.write_stall_ns, 1_000);
        // Delta against self is zero; delta never goes negative.
        assert_eq!(later.delta(&later), EngineMetrics::default());
        assert_eq!(earlier.delta(&later), EngineMetrics::default());
    }
}
