//! The memtable: Cassandra's in-memory write-back cache of rows (§2.2.1).
//!
//! Writes are batched in the memtable until it crosses the flush threshold
//! (`memtable_cleanup_threshold x memtable space`), at which point it is
//! frozen and written out as an SSTable.
//!
//! Point reads vastly outnumber ordered traversals on the hot path, so
//! the memtable is a hybrid: rows live in an append-order `Vec` with an
//! FxHash index for O(1) `get`/update, and a sorted run of slot indexes
//! is (re)built lazily only when a scan or freeze actually needs key
//! order. Updates overwrite their slot in place, so a workload of updates
//! to existing keys never invalidates the sorted run.

use super::row::Row;
use crate::fasthash::FastHashMap;
use rafiki_workload::Key;

/// An in-memory, mutable table of the freshest row versions.
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    /// Row storage in first-insert order; updates replace in place.
    rows: Vec<Row>,
    /// key -> slot in `rows`.
    index: FastHashMap<Key, u32>,
    /// Slots of `rows` ordered by key; only meaningful when
    /// `sorted_valid`. New-key inserts invalidate it, updates don't.
    sorted: Vec<u32>,
    sorted_valid: bool,
    logical_bytes: u64,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a row version. Returns `true` when the key was
    /// already present (an update superseding an in-memory version).
    ///
    /// # Panics
    ///
    /// Panics if an older version would replace a newer one — the engine
    /// stamps versions monotonically, so this indicates a harness bug.
    pub fn insert(&mut self, row: Row) -> bool {
        let bytes = row.logical_bytes();
        let key = row.key;
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = *e.get() as usize;
                let old = &self.rows[slot];
                assert!(
                    old.version <= row.version,
                    "memtable version regression on {key}"
                );
                self.logical_bytes = self.logical_bytes - old.logical_bytes() + bytes;
                self.rows[slot] = row;
                true
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.rows.len() as u32);
                self.rows.push(row);
                self.sorted_valid = false;
                self.logical_bytes += bytes;
                false
            }
        }
    }

    /// Looks up the freshest in-memory version of `key`. One hash probe,
    /// no tree descent.
    pub fn get(&self, key: Key) -> Option<&Row> {
        self.index.get(&key).map(|&slot| &self.rows[slot as usize])
    }

    /// Number of distinct keys held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the memtable holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total logical bytes held (what the cleanup threshold is compared
    /// against).
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Rebuilds the sorted run if new keys arrived since the last ordered
    /// traversal.
    fn ensure_sorted(&mut self) {
        if self.sorted_valid {
            return;
        }
        self.sorted.clear();
        self.sorted.extend(0..self.rows.len() as u32);
        let rows = &self.rows;
        self.sorted
            .sort_unstable_by_key(|&slot| rows[slot as usize].key);
        self.sorted_valid = true;
    }

    /// Iterates the in-memory rows with keys in `[lo, hi]`, in key order.
    /// Takes `&mut self` because the lazy sorted run may need rebuilding.
    pub fn scan(&mut self, lo: Key, hi: Key) -> impl Iterator<Item = &Row> {
        self.ensure_sorted();
        let rows = &self.rows;
        let start = self
            .sorted
            .partition_point(|&slot| rows[slot as usize].key < lo);
        let end = self
            .sorted
            .partition_point(|&slot| rows[slot as usize].key <= hi);
        self.sorted[start..end]
            .iter()
            .map(move |&slot| &rows[slot as usize])
    }

    /// Freezes the memtable, returning its rows in key order and leaving it
    /// empty (the engine swaps in a fresh memtable and hands the frozen
    /// rows to a flush job).
    pub fn freeze(&mut self) -> Vec<Row> {
        self.logical_bytes = 0;
        self.index.clear();
        self.sorted.clear();
        self.sorted_valid = false;
        let mut rows = std::mem::take(&mut self.rows);
        rows.sort_unstable_by_key(|r| r.key);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: u64, len: u32, version: u64) -> Row {
        Row::new(Key(key), len, version)
    }

    #[test]
    fn insert_and_get() {
        let mut m = Memtable::new();
        assert!(!m.insert(row(1, 100, 1)));
        assert!(!m.insert(row(2, 50, 2)));
        assert_eq!(m.get(Key(1)).unwrap().version, 1);
        assert!(m.get(Key(3)).is_none());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn update_replaces_and_adjusts_bytes() {
        let mut m = Memtable::new();
        m.insert(row(1, 100, 1));
        let before = m.logical_bytes();
        assert!(m.insert(row(1, 300, 2)));
        assert_eq!(m.logical_bytes(), before + 200);
        assert_eq!(m.get(Key(1)).unwrap().version, 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn freeze_yields_sorted_rows_and_empties() {
        let mut m = Memtable::new();
        for k in [5u64, 1, 9, 3] {
            m.insert(row(k, 10, k));
        }
        let rows = m.freeze();
        let keys: Vec<u64> = rows.iter().map(|r| r.key.0).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert!(m.is_empty());
        assert_eq!(m.logical_bytes(), 0);
        // The memtable is reusable after a freeze.
        m.insert(row(7, 10, 100));
        assert_eq!(m.get(Key(7)).unwrap().version, 100);
        assert!(m.get(Key(5)).is_none());
    }

    #[test]
    fn scan_is_key_ordered_across_interleaved_inserts() {
        let mut m = Memtable::new();
        for k in [8u64, 2, 6, 4] {
            m.insert(row(k, 10, k));
        }
        // First scan builds the sorted run.
        let got: Vec<u64> = m.scan(Key(2), Key(6)).map(|r| r.key.0).collect();
        assert_eq!(got, vec![2, 4, 6]);
        // An update in place must not disturb the order...
        m.insert(row(4, 10, 100));
        let got: Vec<u64> = m.scan(Key(0), Key(99)).map(|r| r.key.0).collect();
        assert_eq!(got, vec![2, 4, 6, 8]);
        // ...and a new key must be picked up by the rebuild.
        m.insert(row(5, 10, 101));
        let got: Vec<u64> = m.scan(Key(3), Key(7)).map(|r| r.key.0).collect();
        assert_eq!(got, vec![4, 5, 6]);
    }

    #[test]
    fn logical_bytes_accumulate() {
        let mut m = Memtable::new();
        m.insert(row(1, 100, 1));
        m.insert(row(2, 200, 2));
        assert_eq!(m.logical_bytes(), 100 + 200 + 2 * 32);
    }

    #[test]
    #[should_panic]
    fn version_regression_panics() {
        let mut m = Memtable::new();
        m.insert(row(1, 10, 5));
        m.insert(row(1, 10, 3));
    }
}
