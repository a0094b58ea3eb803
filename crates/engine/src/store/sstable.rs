//! SSTables: immutable, sorted, bloom-filtered on-disk runs (§2.2.1).
//!
//! Every flush produces a new SSTable; compaction merges several into one
//! (or several non-overlapping ones, for leveled compaction). Data for one
//! key may be spread over multiple SSTables, which is exactly what makes
//! reads expensive under size-tiered compaction.
//!
//! The table body lives in an immutable, reference-counted `TableCore`:
//! cloning an `SsTable` (and by extension a whole `TableSet`, as snapshot
//! hydration does) bumps a refcount instead of copying rows. Point probes
//! run against a dense `Vec<Key>` mirror of the row keys — a binary search
//! over 8-byte keys touches far fewer cache lines than one over full
//! `Row` structs — and a fence-pointer index (every `FENCE_STRIDE`-th
//! key) first narrows the search to one stride-sized window.

use super::bloom::BloomFilter;
use super::row::Row;
use rafiki_workload::Key;
use std::sync::Arc;

/// Identifier of an SSTable within one engine instance.
pub type TableId = u64;

/// Rows per fence: probes binary-search the fences, then scan one
/// 64-key window (512 bytes of key data — a few cache lines).
const FENCE_STRIDE: usize = 64;

/// The immutable body of an SSTable, shared between clones.
#[derive(Debug)]
struct TableCore {
    rows: Vec<Row>,
    /// Dense mirror of `rows[i].key` for cache-friendly binary search.
    keys: Vec<Key>,
    /// `keys[i * FENCE_STRIDE]` for each stride: the fence-pointer index.
    fences: Vec<Key>,
    bloom: BloomFilter,
    logical_bytes: u64,
    rows_per_block: usize,
}

impl TableCore {
    /// Index of the first row with `rows[i].key >= key`, fence-narrowed.
    #[inline]
    fn lower_bound(&self, key: Key) -> usize {
        // Fences hold keys at positions 0, S, 2S, ...; the first fence is
        // min_key. `j` counts fences <= key, so the answer lies in the
        // window starting at fence j-1 (or at 0 when key < min_key).
        let j = self.fences.partition_point(|&f| f <= key);
        if j == 0 {
            return 0;
        }
        let start = (j - 1) * FENCE_STRIDE;
        let end = (j * FENCE_STRIDE).min(self.keys.len());
        start + self.keys[start..end].partition_point(|&k| k < key)
    }

    /// Index one past the last row with `rows[i].key <= key`.
    #[inline]
    fn upper_bound(&self, key: Key) -> usize {
        let j = self.fences.partition_point(|&f| f <= key);
        if j == 0 {
            return 0;
        }
        let start = (j - 1) * FENCE_STRIDE;
        let end = (j * FENCE_STRIDE).min(self.keys.len());
        start + self.keys[start..end].partition_point(|&k| k <= key)
    }
}

/// An immutable sorted run of rows. Cheap to clone: the body is shared.
#[derive(Debug, Clone)]
pub struct SsTable {
    id: TableId,
    level: u8,
    core: Arc<TableCore>,
}

impl SsTable {
    /// Builds an SSTable from rows sorted by key.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or not strictly sorted by key.
    pub fn from_rows(
        id: TableId,
        level: u8,
        rows: Vec<Row>,
        fp_chance: f64,
        block_bytes: u64,
    ) -> Self {
        assert!(!rows.is_empty(), "SSTable must hold at least one row");
        assert!(
            rows.windows(2).all(|w| w[0].key < w[1].key),
            "SSTable rows must be strictly sorted by key"
        );
        let mut bloom = BloomFilter::with_capacity(rows.len(), fp_chance);
        let mut logical_bytes = 0u64;
        for r in &rows {
            bloom.insert(r.key);
            logical_bytes += r.logical_bytes();
        }
        let avg_row = (logical_bytes / rows.len() as u64).max(1);
        let rows_per_block = ((block_bytes / avg_row).max(1)) as usize;
        let keys: Vec<Key> = rows.iter().map(|r| r.key).collect();
        let fences: Vec<Key> = keys.iter().step_by(FENCE_STRIDE).copied().collect();
        SsTable {
            id,
            level,
            core: Arc::new(TableCore {
                rows,
                keys,
                fences,
                bloom,
                logical_bytes,
                rows_per_block,
            }),
        }
    }

    /// Table identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// LSM level (0 for freshly flushed tables and all size-tiered tables).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.core.rows.len()
    }

    /// SSTables are never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        self.core.rows.is_empty()
    }

    /// Total logical bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.core.logical_bytes
    }

    /// Smallest key.
    pub fn min_key(&self) -> Key {
        *self.core.keys.first().expect("non-empty")
    }

    /// Largest key.
    pub fn max_key(&self) -> Key {
        *self.core.keys.last().expect("non-empty")
    }

    /// Whether `key` falls inside this table's key range.
    pub fn range_contains(&self, key: Key) -> bool {
        self.min_key() <= key && key <= self.max_key()
    }

    /// Bloom-filter check (the cheap pre-read test Cassandra performs).
    pub fn may_contain(&self, key: Key) -> bool {
        self.range_contains(key) && self.core.bloom.may_contain(key)
    }

    /// Whether this table's range overlaps `[lo, hi]`.
    pub fn range_overlaps(&self, lo: Key, hi: Key) -> bool {
        self.min_key() <= hi && lo <= self.max_key()
    }

    /// Point lookup. Returns the row and the block number it lives in (the
    /// unit the block caches operate on).
    pub fn get(&self, key: Key) -> Option<(&Row, u32)> {
        let idx = self.core.lower_bound(key);
        if idx >= self.core.keys.len() || self.core.keys[idx] != key {
            return None;
        }
        Some((
            &self.core.rows[idx],
            (idx / self.core.rows_per_block) as u32,
        ))
    }

    /// Block number a key would occupy if present (for negative-lookup
    /// cache accounting after a bloom false positive).
    pub fn block_of_position(&self, key: Key) -> u32 {
        let idx = self.core.lower_bound(key).min(self.core.rows.len() - 1);
        (idx / self.core.rows_per_block) as u32
    }

    /// Number of blocks in this table.
    pub fn block_count(&self) -> u32 {
        self.core.rows.len().div_ceil(self.core.rows_per_block) as u32
    }

    /// The rows with keys in `[lo, hi]`, plus the block range they span
    /// (inclusive). Returns an empty slice with block range `(0, 0)` when
    /// nothing falls in range.
    pub fn range_slice(&self, lo: Key, hi: Key) -> (&[Row], u32, u32) {
        let start = self.core.lower_bound(lo);
        let end = self.core.upper_bound(hi);
        if start >= end {
            return (&[], 0, 0);
        }
        let first_block = (start / self.core.rows_per_block) as u32;
        let last_block = ((end - 1) / self.core.rows_per_block) as u32;
        (&self.core.rows[start..end], first_block, last_block)
    }

    /// Iterates rows in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.core.rows.iter()
    }

    /// The largest write stamp in this table (its "age" for time-window
    /// compaction: tables are bucketed by when their data was written).
    pub fn max_version(&self) -> u64 {
        self.core.rows.iter().map(|r| r.version).max().unwrap_or(0)
    }
}

/// Merges several SSTables, keeping the newest version of each key, and
/// splits the result into output tables of at most `target_bytes` logical
/// bytes each (size-tiered passes `u64::MAX` to emit a single table).
/// Returns the outputs in key order; `next_id` supplies their ids.
///
/// Tombstones shadow older versions in every merge; when
/// `purge_tombstones` is set (a merge known to cover every version of its
/// keys — e.g. into the bottom level) the tombstones themselves are
/// evicted too, reclaiming their space (§2.2.1: compaction "evicts
/// tombstones"). Output may be empty after purging.
///
/// # Panics
///
/// Panics when `inputs` is empty.
pub fn merge_tables<F: FnMut() -> TableId>(
    inputs: &[&SsTable],
    level: u8,
    fp_chance: f64,
    block_bytes: u64,
    target_bytes: u64,
    purge_tombstones: bool,
    mut next_id: F,
) -> Vec<SsTable> {
    assert!(!inputs.is_empty(), "merge needs at least one input");
    let total: usize = inputs.iter().map(|t| t.len()).sum();
    let mut all: Vec<Row> = Vec::with_capacity(total);
    for t in inputs {
        all.extend(t.iter().cloned());
    }
    // Newest version first within each key, then dedup keeps the newest.
    all.sort_by(|a, b| a.key.cmp(&b.key).then(b.version.cmp(&a.version)));
    all.dedup_by_key(|r| r.key);
    if purge_tombstones {
        all.retain(|r| !r.tombstone);
    }

    let mut out = Vec::new();
    let mut run: Vec<Row> = Vec::new();
    let mut run_bytes = 0u64;
    for row in all {
        let b = row.logical_bytes();
        if !run.is_empty() && run_bytes + b > target_bytes {
            out.push(SsTable::from_rows(
                next_id(),
                level,
                std::mem::take(&mut run),
                fp_chance,
                block_bytes,
            ));
            run_bytes = 0;
        }
        run_bytes += b;
        run.push(row);
    }
    if !run.is_empty() {
        out.push(SsTable::from_rows(
            next_id(),
            level,
            run,
            fp_chance,
            block_bytes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(keys: &[u64], version: u64) -> Vec<Row> {
        keys.iter()
            .map(|&k| Row::new(Key(k), 100, version))
            .collect()
    }

    fn table(id: TableId, keys: &[u64], version: u64) -> SsTable {
        SsTable::from_rows(id, 0, rows(keys, version), 0.01, 64 << 10)
    }

    #[test]
    fn lookup_hits_and_misses() {
        let t = table(1, &[1, 5, 9, 12], 1);
        assert_eq!(t.get(Key(5)).unwrap().0.key, Key(5));
        assert!(t.get(Key(6)).is_none());
        assert_eq!(t.min_key(), Key(1));
        assert_eq!(t.max_key(), Key(12));
        assert!(t.range_contains(Key(6)));
        assert!(!t.range_contains(Key(13)));
    }

    #[test]
    fn may_contain_has_no_false_negatives() {
        let keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let t = table(1, &keys, 1);
        for &k in &keys {
            assert!(t.may_contain(Key(k)));
        }
    }

    #[test]
    fn fence_narrowed_lookup_matches_full_binary_search() {
        // Spans several fence windows (FENCE_STRIDE = 64): every present
        // key must be found, every absent key rejected, and the
        // would-be position must match the plain binary-search answer.
        let keys: Vec<u64> = (0..1_000).map(|i| i * 2 + 1).collect();
        let t = table(7, &keys, 1);
        let per_block = t.rows_per_block_for_test();
        for probe in 0..2_200u64 {
            let expect = keys.binary_search(&probe).ok();
            match (t.get(Key(probe)), expect) {
                (Some((row, _)), Some(_)) => assert_eq!(row.key, Key(probe)),
                (None, None) => {}
                (got, want) => panic!("probe {probe}: got {got:?}, want hit={want:?}"),
            }
            let idx = match keys.binary_search(&probe) {
                Ok(i) | Err(i) => i.min(keys.len() - 1),
            };
            assert_eq!(t.block_of_position(Key(probe)), (idx / per_block) as u32);
        }
    }

    #[test]
    fn blocks_partition_rows() {
        // 100-byte payloads + 32 overhead = 132B rows; 1 KiB blocks -> 7 rows/block.
        let keys: Vec<u64> = (0..70).collect();
        let t = SsTable::from_rows(2, 0, rows(&keys, 1), 0.01, 1 << 10);
        assert_eq!(t.block_count(), 10);
        let (_, first_block) = t.get(Key(0)).unwrap();
        let (_, last_block) = t.get(Key(69)).unwrap();
        assert_eq!(first_block, 0);
        assert_eq!(last_block, t.block_count() - 1);
    }

    #[test]
    fn range_slice_matches_partition_points() {
        let keys: Vec<u64> = (0..300).map(|i| i * 3).collect();
        let t = table(3, &keys, 1);
        for (lo, hi) in [(0u64, 897u64), (5, 10), (100, 250), (898, 999), (0, 0)] {
            let (slice, _, _) = t.range_slice(Key(lo), Key(hi));
            let want: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|&k| lo <= k && k <= hi)
                .collect();
            let got: Vec<u64> = slice.iter().map(|r| r.key.0).collect();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn merge_keeps_newest_version() {
        let old = table(1, &[1, 2, 3], 1);
        let new = table(2, &[2, 3, 4], 9);
        let mut id = 10;
        let merged = merge_tables(&[&old, &new], 0, 0.01, 64 << 10, u64::MAX, false, || {
            id += 1;
            id
        });
        assert_eq!(merged.len(), 1);
        let m = &merged[0];
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(Key(1)).unwrap().0.version, 1);
        assert_eq!(m.get(Key(2)).unwrap().0.version, 9);
        assert_eq!(m.get(Key(4)).unwrap().0.version, 9);
        // Size shrinks: duplicates removed.
        assert!(m.logical_bytes() < old.logical_bytes() + new.logical_bytes());
    }

    #[test]
    fn merge_splits_at_target_bytes() {
        let a = table(1, &(0..100).collect::<Vec<_>>(), 1);
        let mut id = 100;
        // 132B rows; 1,000-byte targets -> 7 rows per output table.
        let outputs = merge_tables(&[&a], 1, 0.01, 64 << 10, 1_000, false, || {
            id += 1;
            id
        });
        assert!(outputs.len() > 10);
        // Outputs are non-overlapping and ordered.
        for w in outputs.windows(2) {
            assert!(w[0].max_key() < w[1].min_key());
        }
        let total_rows: usize = outputs.iter().map(|t| t.len()).sum();
        assert_eq!(total_rows, 100);
    }

    #[test]
    #[should_panic]
    fn unsorted_rows_rejected() {
        let bad = vec![Row::new(Key(5), 10, 1), Row::new(Key(1), 10, 1)];
        let _ = SsTable::from_rows(1, 0, bad, 0.01, 64 << 10);
    }

    #[test]
    fn range_overlap_logic() {
        let t = table(1, &[10, 20, 30], 1);
        assert!(t.range_overlaps(Key(25), Key(40)));
        assert!(t.range_overlaps(Key(0), Key(10)));
        assert!(!t.range_overlaps(Key(31), Key(99)));
    }

    #[test]
    fn clones_share_the_core() {
        let t = table(1, &(0..200).collect::<Vec<_>>(), 1);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.core, &c.core));
        assert_eq!(c.get(Key(150)).unwrap().0.key, Key(150));
    }

    impl SsTable {
        fn rows_per_block_for_test(&self) -> usize {
            self.core.rows_per_block
        }
    }
}
