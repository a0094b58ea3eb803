//! Storage structures: rows, memtable, SSTables, bloom filters, caches,
//! and the commit log — the write/read paths of §2.2 of the paper.

pub mod bloom;
pub mod cache;
pub mod commitlog;
pub mod memtable;
pub mod row;
pub mod sstable;

pub use bloom::BloomFilter;
pub use cache::LruCache;
pub use commitlog::{CommitLog, CommitlogSync};
pub use memtable::Memtable;
pub use row::{Row, ROW_OVERHEAD_BYTES};
pub use sstable::{merge_tables, SsTable, TableId};

use rafiki_workload::Key;
use std::collections::BTreeMap;

/// The set of live SSTables of one engine, with level bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    tables: BTreeMap<TableId, SsTable>,
    next_id: TableId,
}

impl TableSet {
    /// Creates an empty table set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh table id.
    pub fn allocate_id(&mut self) -> TableId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Registers a table.
    ///
    /// # Panics
    ///
    /// Panics on id collision.
    pub fn add(&mut self, table: SsTable) {
        let id = table.id();
        assert!(
            self.tables.insert(id, table).is_none(),
            "duplicate table id {id}"
        );
        self.next_id = self.next_id.max(id + 1);
    }

    /// Removes a table, returning it.
    pub fn remove(&mut self, id: TableId) -> Option<SsTable> {
        self.tables.remove(&id)
    }

    /// Looks up a table.
    pub fn get(&self, id: TableId) -> Option<&SsTable> {
        self.tables.get(&id)
    }

    /// Number of live tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no tables are live.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates live tables in id order (i.e. roughly creation order).
    pub fn iter(&self) -> impl Iterator<Item = &SsTable> {
        self.tables.values()
    }

    /// Tables at a given level, in id order.
    pub fn at_level(&self, level: u8) -> Vec<&SsTable> {
        self.tables
            .values()
            .filter(|t| t.level() == level)
            .collect()
    }

    /// The highest populated level.
    pub fn max_level(&self) -> u8 {
        self.tables.values().map(SsTable::level).max().unwrap_or(0)
    }

    /// Total logical bytes across live tables.
    pub fn total_logical_bytes(&self) -> u64 {
        self.tables.values().map(SsTable::logical_bytes).sum()
    }

    /// Ids of tables whose key range + bloom filter admit `key`, in
    /// newest-first order (higher id = newer). The read path probes these.
    pub fn candidates_for(&self, key: Key) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self
            .tables
            .values()
            .filter(|t| t.may_contain(key))
            .map(SsTable::id)
            .collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        ids
    }

    /// Number of tables whose *range* includes the key (bloom checks the
    /// read path must pay for, whether or not they pass).
    pub fn range_matches(&self, key: Key) -> usize {
        self.tables
            .values()
            .filter(|t| t.range_contains(key))
            .count()
    }

    /// Single-pass read probe: returns the [`TableSet::range_matches`]
    /// count while filling `out` (cleared first) with the
    /// [`TableSet::candidates_for`] ids in newest-first order. One table
    /// walk instead of two, and no allocation when `out` has capacity —
    /// this runs once per simulated read.
    pub fn probe_into(&self, key: Key, out: &mut Vec<TableId>) -> usize {
        out.clear();
        let mut range_matches = 0;
        for t in self.tables.values() {
            if t.range_contains(key) {
                range_matches += 1;
                if t.may_contain(key) {
                    out.push(t.id());
                }
            }
        }
        // Ids were collected in ascending (oldest-first) order.
        out.reverse();
        range_matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(set: &mut TableSet, keys: &[u64], level: u8, version: u64) -> TableId {
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| Row::new(Key(k), 64, version))
            .collect();
        let id = set.allocate_id();
        set.add(SsTable::from_rows(id, level, rows, 0.01, 64 << 10));
        id
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut set = TableSet::new();
        let id = table(&mut set, &[1, 2, 3], 0, 1);
        assert_eq!(set.len(), 1);
        let t = set.remove(id).unwrap();
        assert_eq!(t.id(), id);
        assert!(set.is_empty());
        assert!(set.remove(id).is_none());
    }

    #[test]
    fn candidates_are_newest_first() {
        let mut set = TableSet::new();
        let a = table(&mut set, &[1, 2, 3], 0, 1);
        let b = table(&mut set, &[2, 3, 4], 0, 2);
        let cands = set.candidates_for(Key(2));
        assert_eq!(cands, vec![b, a]);
        assert_eq!(set.candidates_for(Key(4)), vec![b]);
        assert!(set.candidates_for(Key(99)).is_empty());
    }

    #[test]
    fn level_queries() {
        let mut set = TableSet::new();
        table(&mut set, &[1], 0, 1);
        table(&mut set, &[2], 1, 1);
        table(&mut set, &[3], 1, 1);
        assert_eq!(set.at_level(0).len(), 1);
        assert_eq!(set.at_level(1).len(), 2);
        assert_eq!(set.max_level(), 1);
    }

    #[test]
    fn ids_stay_unique_after_removal() {
        let mut set = TableSet::new();
        let a = table(&mut set, &[1], 0, 1);
        set.remove(a);
        let b = table(&mut set, &[2], 0, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn probe_into_matches_two_pass_queries() {
        let mut set = TableSet::new();
        table(&mut set, &[1, 2, 3], 0, 1);
        table(&mut set, &[2, 3, 4], 0, 2);
        table(&mut set, &[10, 20], 1, 3);
        let mut scratch = Vec::new();
        for k in [0u64, 1, 2, 4, 10, 15, 99] {
            let n = set.probe_into(Key(k), &mut scratch);
            assert_eq!(n, set.range_matches(Key(k)), "range count for key {k}");
            assert_eq!(
                scratch,
                set.candidates_for(Key(k)),
                "candidates for key {k}"
            );
        }
    }

    #[test]
    fn total_bytes_sum() {
        let mut set = TableSet::new();
        table(&mut set, &[1, 2], 0, 1);
        table(&mut set, &[3], 0, 1);
        // 64B payload + 32B overhead per row.
        assert_eq!(set.total_logical_bytes(), 3 * 96);
    }
}
