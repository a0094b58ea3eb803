//! Compaction strategies (§2.2.2): Size-Tiered and Leveled.
//!
//! **Size-Tiered** (Cassandra's default) triggers whenever a bucket of
//! similarly sized SSTables reaches `min_threshold` (4 by default) members
//! and merges them into one. It is write-friendly but lets row versions
//! spread over many overlapping tables, so reads may have to probe all of
//! them.
//!
//! **Leveled** organizes SSTables into levels `L1, L2, …` of
//! non-overlapping, fixed-size tables, each level `fanout` (10) times
//! larger than the previous; fresh flushes land in `L0`. Reads probe at
//! most `|L0| + one table per level`, at the price of far more compaction
//! I/O — which is why it suits read-heavy workloads and hurts write-heavy
//! ones.

use crate::fasthash::FastHashSet;
use crate::store::{SsTable, TableId, TableSet};

/// A planned compaction: merge `inputs` and emit the result at
/// `output_level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionJob {
    /// Tables to merge (all must be live and not already compacting).
    pub inputs: Vec<TableId>,
    /// Level the merged output lands in.
    pub output_level: u8,
    /// Total logical bytes to read.
    pub input_bytes: u64,
}

/// Compaction strategy and its tuning constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Size-tiered compaction (STCS).
    SizeTiered {
        /// Bucket population that triggers a merge (Cassandra default: 4).
        min_threshold: usize,
        /// Maximum tables merged at once (Cassandra default: 32).
        max_threshold: usize,
        /// Tables below this size share one bucket.
        min_sstable_bytes: u64,
    },
    /// Leveled compaction (LCS).
    Leveled {
        /// Per-level size multiplier (Cassandra: 10).
        fanout: u64,
        /// Maximum logical bytes of level 1.
        base_level_bytes: u64,
        /// Target size of each output table.
        target_table_bytes: u64,
        /// Number of L0 tables that triggers an L0 -> L1 merge.
        l0_trigger: usize,
    },
    /// Time-window compaction (TWCS): tables are bucketed by the write
    /// stamp of their newest data and size-tiered merging runs only
    /// *within* the most recent window; sealed windows are never
    /// recompacted. The paper notes this strategy exists but excludes it
    /// from tuning because it only suits time-series/TTL workloads (§3.4
    /// footnote); it is implemented for engine completeness.
    TimeWindow {
        /// Width of a window in write-stamp units.
        window_versions: u64,
        /// Tables per window that trigger a merge.
        min_threshold: usize,
        /// Maximum tables merged at once.
        max_threshold: usize,
    },
}

impl Strategy {
    /// Size-tiered with Cassandra-like defaults, scaled to the simulated
    /// server.
    pub fn size_tiered_default() -> Self {
        Strategy::SizeTiered {
            min_threshold: 4,
            max_threshold: 4,
            min_sstable_bytes: 8 << 20,
        }
    }

    /// Leveled with Cassandra-like defaults, scaled to the simulated
    /// server.
    pub fn leveled_default() -> Self {
        Strategy::Leveled {
            fanout: 10,
            base_level_bytes: 128 << 20,
            target_table_bytes: 32 << 20,
            l0_trigger: 2,
        }
    }

    /// Time-window with defaults scaled to the engine's write-stamp rate.
    pub fn time_window_default() -> Self {
        Strategy::TimeWindow {
            window_versions: 500_000,
            min_threshold: 4,
            max_threshold: 8,
        }
    }

    /// Whether this is the leveled strategy.
    pub fn is_leveled(&self) -> bool {
        matches!(self, Strategy::Leveled { .. })
    }

    /// Target output-table size for merges (unbounded for size-tiered).
    pub fn output_target_bytes(&self) -> u64 {
        match *self {
            Strategy::SizeTiered { .. } | Strategy::TimeWindow { .. } => u64::MAX,
            Strategy::Leveled {
                target_table_bytes, ..
            } => target_table_bytes,
        }
    }

    /// Plans at most one compaction over the live tables, excluding any in
    /// `busy` (already being compacted). Returns `None` when nothing needs
    /// compacting.
    pub fn plan(&self, tables: &TableSet, busy: &FastHashSet<TableId>) -> Option<CompactionJob> {
        match *self {
            Strategy::SizeTiered {
                min_threshold,
                max_threshold,
                min_sstable_bytes,
            } => plan_size_tiered(
                tables,
                busy,
                min_threshold,
                max_threshold,
                min_sstable_bytes,
            ),
            Strategy::Leveled {
                fanout,
                base_level_bytes,
                l0_trigger,
                ..
            } => plan_leveled(tables, busy, fanout, base_level_bytes, l0_trigger),
            Strategy::TimeWindow {
                window_versions,
                min_threshold,
                max_threshold,
            } => plan_time_window(tables, busy, window_versions, min_threshold, max_threshold),
        }
    }
}

/// TWCS planning: bucket by newest-write window; only the most recent
/// window's tables are eligible for (size-agnostic) merging.
fn plan_time_window(
    tables: &TableSet,
    busy: &FastHashSet<TableId>,
    window_versions: u64,
    min_threshold: usize,
    max_threshold: usize,
) -> Option<CompactionJob> {
    let window_of = |t: &SsTable| t.max_version() / window_versions.max(1);
    let newest_window = tables.iter().map(window_of).max()?;
    let mut members: Vec<&SsTable> = tables
        .iter()
        .filter(|t| !busy.contains(&t.id()) && window_of(t) == newest_window)
        .collect();
    if members.len() < min_threshold {
        return None;
    }
    members.sort_by_key(|t| t.logical_bytes());
    members.truncate(max_threshold);
    Some(job_from(members, 0))
}

fn job_from(inputs: Vec<&SsTable>, output_level: u8) -> CompactionJob {
    CompactionJob {
        input_bytes: inputs.iter().map(|t| t.logical_bytes()).sum(),
        inputs: inputs.iter().map(|t| t.id()).collect(),
        output_level,
    }
}

fn plan_size_tiered(
    tables: &TableSet,
    busy: &FastHashSet<TableId>,
    min_threshold: usize,
    max_threshold: usize,
    min_sstable_bytes: u64,
) -> Option<CompactionJob> {
    // Bucket by size tier: log2 of size relative to the minimum bucket.
    let mut buckets: std::collections::BTreeMap<u32, Vec<&SsTable>> = Default::default();
    for t in tables.iter().filter(|t| !busy.contains(&t.id())) {
        let ratio = (t.logical_bytes().max(1) / min_sstable_bytes.max(1)).max(1);
        let tier = 64 - ratio.leading_zeros();
        buckets.entry(tier).or_default().push(t);
    }
    // Merge the fullest eligible bucket (most tables first => biggest read
    // amplification relief), smallest tables first within the bucket.
    let mut best: Option<Vec<&SsTable>> = None;
    for (_, mut members) in buckets {
        if members.len() >= min_threshold {
            members.sort_by_key(|t| t.logical_bytes());
            members.truncate(max_threshold);
            if best.as_ref().is_none_or(|b| members.len() > b.len()) {
                best = Some(members);
            }
        }
    }
    best.map(|inputs| job_from(inputs, 0))
}

fn plan_leveled(
    tables: &TableSet,
    busy: &FastHashSet<TableId>,
    fanout: u64,
    base_level_bytes: u64,
    l0_trigger: usize,
) -> Option<CompactionJob> {
    let available = |t: &&SsTable| !busy.contains(&t.id());

    // Priority 1: L0 build-up (every flush adds an overlapping table).
    let l0: Vec<&SsTable> = tables.at_level(0).into_iter().filter(available).collect();
    if l0.len() >= l0_trigger {
        let lo = l0.iter().map(|t| t.min_key()).min().expect("non-empty L0");
        let hi = l0.iter().map(|t| t.max_key()).max().expect("non-empty L0");
        let l1_overlapping: Vec<&SsTable> = tables
            .at_level(1)
            .into_iter()
            .filter(|t| t.range_overlaps(lo, hi))
            .collect();
        // If an overlapping L1 table is already compacting we must wait.
        if l1_overlapping.iter().all(available) {
            let mut inputs = l0;
            inputs.extend(l1_overlapping);
            return Some(job_from(inputs, 1));
        }
    }

    // Priority 2: the lowest over-full level spills into the next.
    let max_level = tables.max_level();
    for level in 1..=max_level {
        let level_tables = tables.at_level(level);
        let level_bytes: u64 = level_tables.iter().map(|t| t.logical_bytes()).sum();
        let cap = base_level_bytes.saturating_mul(fanout.pow(level.saturating_sub(1) as u32));
        if level_bytes <= cap {
            continue;
        }
        // Oldest available table spills down, with next level's overlaps.
        let Some(victim) = level_tables
            .iter()
            .filter(|t| available(t))
            .min_by_key(|t| t.id())
        else {
            continue;
        };
        let overlapping: Vec<&SsTable> = tables
            .at_level(level + 1)
            .into_iter()
            .filter(|t| t.range_overlaps(victim.min_key(), victim.max_key()))
            .collect();
        if overlapping.iter().all(available) {
            let mut inputs = vec![*victim];
            inputs.extend(overlapping);
            return Some(job_from(inputs, level + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::row::Row;
    use rafiki_workload::Key;

    fn add_table(
        set: &mut TableSet,
        keys: std::ops::Range<u64>,
        level: u8,
        payload: u32,
    ) -> TableId {
        let rows: Vec<Row> = keys.map(|k| Row::new(Key(k), payload, 1)).collect();
        let id = set.allocate_id();
        set.add(SsTable::from_rows(id, level, rows, 0.01, 64 << 10));
        id
    }

    fn stcs() -> Strategy {
        Strategy::SizeTiered {
            min_threshold: 4,
            max_threshold: 32,
            min_sstable_bytes: 1 << 10,
        }
    }

    fn lcs() -> Strategy {
        Strategy::Leveled {
            fanout: 10,
            base_level_bytes: 40_000,
            target_table_bytes: 10_000,
            l0_trigger: 2,
        }
    }

    #[test]
    fn stcs_waits_for_min_threshold() {
        let mut set = TableSet::new();
        for i in 0..3 {
            add_table(&mut set, (i * 10)..(i * 10 + 5), 0, 100);
        }
        assert!(stcs().plan(&set, &FastHashSet::default()).is_none());
        add_table(&mut set, 100..105, 0, 100);
        let job = stcs().plan(&set, &FastHashSet::default()).unwrap();
        assert_eq!(job.inputs.len(), 4);
        assert_eq!(job.output_level, 0);
        assert!(job.input_bytes > 0);
    }

    #[test]
    fn stcs_only_groups_similar_sizes() {
        let mut set = TableSet::new();
        // Three small tables and three ~16x larger ones: no bucket reaches 4.
        for i in 0..3 {
            add_table(&mut set, (i * 10)..(i * 10 + 2), 0, 100);
        }
        for i in 0..3 {
            add_table(&mut set, (1000 + i * 100)..(1000 + i * 100 + 40), 0, 100);
        }
        assert!(stcs().plan(&set, &FastHashSet::default()).is_none());
    }

    #[test]
    fn stcs_respects_busy_set() {
        let mut set = TableSet::new();
        let ids: Vec<TableId> = (0..4)
            .map(|i| add_table(&mut set, (i * 10)..(i * 10 + 5), 0, 100))
            .collect();
        let busy: FastHashSet<TableId> = [ids[0]].into_iter().collect();
        assert!(stcs().plan(&set, &busy).is_none());
    }

    #[test]
    fn lcs_compacts_l0_with_overlapping_l1() {
        let mut set = TableSet::new();
        for _ in 0..4 {
            add_table(&mut set, 0..20, 0, 100);
        }
        let l1 = add_table(&mut set, 5..15, 1, 100);
        let far = add_table(&mut set, 1000..1010, 1, 100);
        let job = lcs().plan(&set, &FastHashSet::default()).unwrap();
        assert_eq!(job.output_level, 1);
        assert_eq!(job.inputs.len(), 5);
        assert!(job.inputs.contains(&l1));
        assert!(!job.inputs.contains(&far));
    }

    #[test]
    fn lcs_spills_overfull_level() {
        let mut set = TableSet::new();
        // base_level_bytes = 40_000; add L1 tables totalling more.
        // 100B payload + 32 overhead = 132B/row, 100 rows = 13,200B each.
        for i in 0..4 {
            add_table(&mut set, (i * 100)..(i * 100 + 100), 1, 100);
        }
        let l2 = add_table(&mut set, 0..50, 2, 100);
        let job = lcs().plan(&set, &FastHashSet::default()).unwrap();
        assert_eq!(job.output_level, 2);
        // Oldest L1 table (keys 0..100) overlaps the L2 table.
        assert!(job.inputs.contains(&l2));
    }

    #[test]
    fn lcs_blocks_on_busy_overlap() {
        let mut set = TableSet::new();
        for _ in 0..4 {
            add_table(&mut set, 0..20, 0, 100);
        }
        let l1 = add_table(&mut set, 0..20, 1, 100);
        let busy: FastHashSet<TableId> = [l1].into_iter().collect();
        assert!(lcs().plan(&set, &busy).is_none());
    }

    #[test]
    fn twcs_only_compacts_the_newest_window() {
        let mut set = TableSet::new();
        // Two old-window tables (versions < 1000) and four new-window ones.
        let add_versioned = |set: &mut TableSet, keys: std::ops::Range<u64>, version: u64| {
            let rows: Vec<Row> = keys
                .map(|k| Row {
                    key: Key(k),
                    payload_len: 100,
                    version,
                    tombstone: false,
                })
                .collect();
            let id = set.allocate_id();
            set.add(SsTable::from_rows(id, 0, rows, 0.01, 64 << 10));
            id
        };
        let old_a = add_versioned(&mut set, 0..10, 50);
        let old_b = add_versioned(&mut set, 10..20, 60);
        let mut fresh = Vec::new();
        for i in 0..4 {
            fresh.push(add_versioned(
                &mut set,
                (100 + i * 10)..(100 + i * 10 + 5),
                5_000 + i,
            ));
        }
        let twcs = Strategy::TimeWindow {
            window_versions: 1_000,
            min_threshold: 4,
            max_threshold: 8,
        };
        let job = twcs.plan(&set, &FastHashSet::default()).unwrap();
        assert_eq!(job.inputs.len(), 4);
        assert!(!job.inputs.contains(&old_a));
        assert!(!job.inputs.contains(&old_b));
        for id in fresh {
            assert!(job.inputs.contains(&id));
        }
    }

    #[test]
    fn twcs_waits_below_threshold() {
        let mut set = TableSet::new();
        for i in 0..3u64 {
            let rows = vec![Row {
                key: Key(i),
                payload_len: 50,
                version: 9_000 + i,
                tombstone: false,
            }];
            let id = set.allocate_id();
            set.add(SsTable::from_rows(id, 0, rows, 0.01, 64 << 10));
        }
        let twcs = Strategy::time_window_default();
        assert!(twcs.plan(&set, &FastHashSet::default()).is_none());
        assert_eq!(twcs.output_target_bytes(), u64::MAX);
        assert!(!twcs.is_leveled());
    }

    #[test]
    fn defaults_are_consistent() {
        assert!(!Strategy::size_tiered_default().is_leveled());
        assert!(Strategy::leveled_default().is_leveled());
        assert_eq!(
            Strategy::size_tiered_default().output_target_bytes(),
            u64::MAX
        );
        assert!(Strategy::leveled_default().output_target_bytes() < u64::MAX);
    }
}
