//! Row values.
//!
//! A row carries the length of its payload, not the payload itself: the
//! simulator charges flushes, compactions, reads and cache space by
//! logical size, and nothing reads a value's bytes. A payload of any
//! `u32` length costs a row no more memory than an empty one.

use rafiki_workload::Key;

/// Fixed per-row storage overhead (key, timestamps, flags) counted toward
/// logical sizes, matching Cassandra's per-cell overhead ballpark.
pub const ROW_OVERHEAD_BYTES: u64 = 32;

/// One version of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Row key.
    pub key: Key,
    /// Length of the value in bytes (0 for tombstones).
    pub payload_len: u32,
    /// Monotonic write stamp; the newest version wins at read/compaction.
    pub version: u64,
    /// Whether this version is a deletion marker. Tombstones shadow older
    /// versions until compaction evicts them (§2.2.1: compaction "evicts
    /// tombstones").
    pub tombstone: bool,
}

impl Row {
    /// A live row version.
    pub fn new(key: Key, payload_len: u32, version: u64) -> Self {
        Row {
            key,
            payload_len,
            version,
            tombstone: false,
        }
    }

    /// A deletion marker for `key`.
    pub fn new_tombstone(key: Key, version: u64) -> Self {
        Row {
            key,
            payload_len: 0,
            version,
            tombstone: true,
        }
    }

    /// Logical on-disk size of this row in bytes.
    pub fn logical_bytes(&self) -> u64 {
        u64::from(self.payload_len) + ROW_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_size_includes_overhead() {
        assert_eq!(Row::new(Key(1), 100, 1).logical_bytes(), 132);
        assert_eq!(
            Row::new(Key(1), u32::MAX, 1).logical_bytes(),
            u64::from(u32::MAX) + 32
        );
        assert_eq!(Row::new_tombstone(Key(1), 2).logical_bytes(), 32);
    }

    #[test]
    fn rows_stay_small() {
        // Rows are cloned on every flush and compaction, so their size
        // sets what those paths copy: key, length, version and flag.
        assert_eq!(std::mem::size_of::<Row>(), 24);
    }
}
