//! Database operations and the source abstraction that feeds them to a
//! datastore under test.

/// A row key. MG-RAST shards map naturally onto 64-bit identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

/// The kind of a database operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Point read of a row.
    Read,
    /// Insert of a new row.
    Insert,
    /// Update of an existing row (a new version of some columns).
    Update,
    /// Delete of a row (a tombstone write).
    Delete,
    /// Range scan starting at the key (MG-RAST pipeline stages read runs
    /// of overlapping subsequences, §2.4.2).
    Scan,
}

impl OpKind {
    /// Whether the operation writes data. The paper folds updates into the
    /// write ratio ("write (or update) requests", §2.2.1); deletes are
    /// tombstone writes.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Update | OpKind::Delete)
    }
}

/// One operation issued against the datastore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// What to do.
    pub kind: OpKind,
    /// Target row.
    pub key: Key,
    /// Payload size in bytes (0 for reads).
    pub payload_len: u32,
}

impl Operation {
    /// A read of `key`.
    pub fn read(key: Key) -> Self {
        Operation {
            kind: OpKind::Read,
            key,
            payload_len: 0,
        }
    }

    /// An insert of `payload_len` bytes at `key`.
    pub fn insert(key: Key, payload_len: u32) -> Self {
        Operation {
            kind: OpKind::Insert,
            key,
            payload_len,
        }
    }

    /// An update of `payload_len` bytes at `key`.
    pub fn update(key: Key, payload_len: u32) -> Self {
        Operation {
            kind: OpKind::Update,
            key,
            payload_len,
        }
    }

    /// A delete (tombstone write) of `key`.
    pub fn delete(key: Key) -> Self {
        Operation {
            kind: OpKind::Delete,
            key,
            payload_len: 0,
        }
    }

    /// A range scan of up to `rows` consecutive keys starting at `key`.
    /// For scans, [`Operation::payload_len`] carries the row count.
    ///
    /// # Panics
    ///
    /// Panics when `rows == 0`.
    pub fn scan(key: Key, rows: u32) -> Self {
        assert!(rows > 0, "scan needs at least one row");
        Operation {
            kind: OpKind::Scan,
            key,
            payload_len: rows,
        }
    }

    /// Row count of a scan operation.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-scan operation.
    pub fn scan_rows(&self) -> u32 {
        assert_eq!(self.kind, OpKind::Scan, "scan_rows on non-scan operation");
        self.payload_len
    }
}

/// An unbounded source of operations; the benchmark driver pulls one
/// operation per free client slot. Implementations must be deterministic
/// given their construction seed.
pub trait OperationSource {
    /// Produces the next operation.
    fn next_op(&mut self) -> Operation;

    /// A short human-readable description for reports.
    fn describe(&self) -> String {
        "operation source".to_string()
    }
}

impl<T: OperationSource + ?Sized> OperationSource for Box<T> {
    fn next_op(&mut self) -> Operation {
        (**self).next_op()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Replays a fixed sequence of operations, cycling when exhausted.
/// Useful for tests and for re-running captured traces.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    ops: Vec<Operation>,
    at: usize,
}

impl ReplaySource {
    /// Creates a replay source.
    ///
    /// # Panics
    ///
    /// Panics when `ops` is empty.
    pub fn new(ops: Vec<Operation>) -> Self {
        assert!(!ops.is_empty(), "replay source needs operations");
        ReplaySource { ops, at: 0 }
    }
}

impl OperationSource for ReplaySource {
    fn next_op(&mut self) -> Operation {
        let op = self.ops[self.at];
        self.at = (self.at + 1) % self.ops.len();
        op
    }

    fn describe(&self) -> String {
        format!("replay of {} operations", self.ops.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_write_classification() {
        assert!(!OpKind::Read.is_write());
        assert!(OpKind::Insert.is_write());
        assert!(OpKind::Update.is_write());
    }

    #[test]
    fn constructors_fill_fields() {
        let r = Operation::read(Key(7));
        assert_eq!(r.kind, OpKind::Read);
        assert_eq!(r.payload_len, 0);
        let w = Operation::insert(Key(9), 128);
        assert_eq!(w.kind, OpKind::Insert);
        assert_eq!(w.payload_len, 128);
    }

    #[test]
    fn replay_cycles() {
        let mut s = ReplaySource::new(vec![Operation::read(Key(1)), Operation::read(Key(2))]);
        assert_eq!(s.next_op().key, Key(1));
        assert_eq!(s.next_op().key, Key(2));
        assert_eq!(s.next_op().key, Key(1));
    }

    #[test]
    fn key_display_is_stable() {
        assert_eq!(Key(255).to_string(), "k00000000000000ff");
    }
}
