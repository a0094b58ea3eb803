//! Standard YCSB core-workload presets, expressed as [`WorkloadSpec`]s.
//!
//! The paper drives its experiments with a modified YCSB (§4.1: *"We use
//! YCSB only as a harness … while all the workload-specific details are
//! derived from actual MG-RAST queries"*). These presets provide the
//! *unmodified* YCSB mixes as reference points, so the MG-RAST-shaped
//! workloads can be contrasted with the archetypal web workloads the
//! paper calls out as unrepresentative (§1: "such accesses are atypical
//! of the archetypal web workloads that are used for benchmarking NoSQL
//! datastores").

use crate::generator::{PayloadSpec, WorkloadSpec};

/// The YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbPreset {
    /// Workload A — update heavy: 50% reads / 50% updates.
    A,
    /// Workload B — read mostly: 95% reads / 5% updates.
    B,
    /// Workload C — read only.
    C,
    /// Workload D — read latest: 95% reads skewed to recent inserts.
    D,
    /// Workload F — read-modify-write: 50% reads / 50% RMW (modelled as
    /// updates; every update is preceded by its read half in the mix).
    F,
}

impl YcsbPreset {
    /// All presets, in YCSB order.
    pub fn all() -> [YcsbPreset; 5] {
        [
            YcsbPreset::A,
            YcsbPreset::B,
            YcsbPreset::C,
            YcsbPreset::D,
            YcsbPreset::F,
        ]
    }

    /// The standard letter name.
    pub fn name(self) -> &'static str {
        match self {
            YcsbPreset::A => "A",
            YcsbPreset::B => "B",
            YcsbPreset::C => "C",
            YcsbPreset::D => "D",
            YcsbPreset::F => "F",
        }
    }

    /// Builds the workload specification for a given key population.
    /// YCSB's default record is 10 fields x 100 bytes = 1 KB.
    ///
    /// # Panics
    ///
    /// Panics when `initial_keys == 0`.
    pub fn spec(self, initial_keys: u64) -> WorkloadSpec {
        assert!(initial_keys > 0, "need a populated keyspace");
        let base = WorkloadSpec {
            initial_keys,
            payload: PayloadSpec::Fixed(1_000),
            update_fraction: 1.0, // YCSB A/B/F update existing records
            ..WorkloadSpec::with_read_ratio(0.5)
        };
        match self {
            YcsbPreset::A => WorkloadSpec {
                read_ratio: 0.5,
                // Zipfian request distribution ~ heavy reuse of hot keys.
                krd_mean: 2_000.0,
                reuse_probability: 0.8,
                ..base
            },
            YcsbPreset::B => WorkloadSpec {
                read_ratio: 0.95,
                krd_mean: 2_000.0,
                reuse_probability: 0.8,
                ..base
            },
            YcsbPreset::C => WorkloadSpec {
                read_ratio: 1.0,
                krd_mean: 2_000.0,
                reuse_probability: 0.8,
                ..base
            },
            YcsbPreset::D => WorkloadSpec {
                read_ratio: 0.95,
                // "Read latest": inserts plus tight reuse of fresh keys.
                update_fraction: 0.0,
                krd_mean: 200.0,
                reuse_probability: 0.95,
                ..base
            },
            YcsbPreset::F => WorkloadSpec {
                read_ratio: 0.5,
                krd_mean: 500.0, // RMW re-reads what it writes
                reuse_probability: 0.9,
                ..base
            },
        }
    }
}

impl std::fmt::Display for YcsbPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "YCSB-{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::op::{OpKind, OperationSource};

    #[test]
    fn presets_have_expected_mixes() {
        assert_eq!(YcsbPreset::A.spec(1_000).read_ratio, 0.5);
        assert_eq!(YcsbPreset::B.spec(1_000).read_ratio, 0.95);
        assert_eq!(YcsbPreset::C.spec(1_000).read_ratio, 1.0);
        assert_eq!(YcsbPreset::D.spec(1_000).read_ratio, 0.95);
        for p in YcsbPreset::all() {
            p.spec(1_000).validate();
        }
    }

    #[test]
    fn workload_c_is_read_only() {
        let mut g = WorkloadGenerator::new(YcsbPreset::C.spec(10_000), 1);
        for _ in 0..1_000 {
            assert_eq!(g.next_op().kind, OpKind::Read);
        }
    }

    #[test]
    fn workload_a_updates_never_insert() {
        let mut g = WorkloadGenerator::new(YcsbPreset::A.spec(10_000), 2);
        let inserts = (0..5_000)
            .filter(|_| g.next_op().kind == OpKind::Insert)
            .count();
        assert_eq!(inserts, 0, "A/B/C update existing records only");
        assert_eq!(g.keyspace(), 10_000);
    }

    #[test]
    fn workload_d_inserts_and_reads_latest() {
        let mut g = WorkloadGenerator::new(YcsbPreset::D.spec(10_000), 3);
        let mut inserts = 0;
        for _ in 0..10_000 {
            if g.next_op().kind == OpKind::Insert {
                inserts += 1;
            }
        }
        assert!(inserts > 300, "D grows the keyspace, saw {inserts} inserts");
        assert!(g.keyspace() > 10_000);
    }

    #[test]
    fn display_names() {
        assert_eq!(YcsbPreset::A.to_string(), "YCSB-A");
        assert_eq!(YcsbPreset::F.name(), "F");
    }
}
