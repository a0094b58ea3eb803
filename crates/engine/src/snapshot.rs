//! Reusable preloaded base states for grid evaluation.
//!
//! Every grid point used to replay the full preload (hundreds of
//! thousands of row constructions, bloom inserts and table builds) into a
//! fresh engine. The preload layout is a pure function of a handful of
//! inputs — compaction method, bloom fp-chance, block size, and the
//! leveled output target — so an [`EngineSnapshot`] builds each distinct
//! layout **once** and hydrates every subsequent engine from it by
//! cloning the [`crate::store::TableSet`]. Tables share their immutable
//! bodies behind `Arc`s, so hydration is a refcount bump per table, not a
//! data copy.
//!
//! Determinism contract: hydrated state is bit-identical to a fresh
//! preload because both paths run the same builder
//! (`build_preload_base`) with the same inputs — the fresh path simply
//! builds a base it uses once.

use crate::config::CompactionMethod;
use crate::fasthash::FastHashMap;
use crate::store::{Row, SsTable, TableSet};
use rafiki_workload::Key;
use std::sync::{Arc, Mutex, OnceLock};

/// The preload-layout inputs: two engines whose keys match are
/// guaranteed byte-identical preloaded table sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SnapshotKey {
    pub(crate) method: CompactionMethod,
    /// `bloom_filter_fp_chance` as raw bits (f64 is not `Hash`).
    pub(crate) fp_bits: u64,
    pub(crate) block_bytes: u64,
    /// `Strategy::output_target_bytes()` — sizes leveled preload chunks.
    pub(crate) leveled_target: u64,
}

/// One built preload layout: the table set and the version counter the
/// engine must resume stamping from.
#[derive(Debug)]
pub(crate) struct PreloadBase {
    pub(crate) tables: TableSet,
    pub(crate) version_counter: u64,
}

/// Builds the preloaded steady-state table layout for one configuration.
/// This is *the* preload builder — [`crate::Engine::preload`] and
/// snapshot hydration both run it, which is what makes the two paths
/// bit-identical by construction.
pub(crate) fn build_preload_base<F: Fn(u64) -> bool>(
    keys: u64,
    payload_len: u32,
    sig: SnapshotKey,
    owns: F,
) -> PreloadBase {
    assert!(keys > 0, "preload needs at least one key");
    let fp = f64::from_bits(sig.fp_bits);
    let block = sig.block_bytes;
    let mut tables = TableSet::new();
    let mut version_counter = 0u64;
    let mut make_row = |key: Key| {
        version_counter += 1;
        Row::new(key, payload_len, version_counter)
    };
    match sig.method {
        CompactionMethod::SizeTiered => {
            // Eight overlapping runs; each key has three versions
            // spread over three different runs — the steady state of a
            // store that has absorbed interleaved updates, where "data
            // for a given key value may be spread over multiple
            // SSTables" (§2.2.1).
            const RUNS: u64 = 8;
            for run in 0..RUNS {
                let rows: Vec<Row> = (0..keys)
                    .filter(|&k| {
                        let offset = (run + RUNS - (k % RUNS)) % RUNS;
                        matches!(offset, 0 | 3 | 5) && owns(k)
                    })
                    .map(|k| make_row(Key(k)))
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let id = tables.allocate_id();
                tables.add(SsTable::from_rows(id, 0, rows, fp, block));
            }
        }
        CompactionMethod::Leveled => {
            // Non-overlapping key-partitioned tables split between L1
            // and L2, as leveled compaction maintains.
            let target = sig.leveled_target;
            let rows_per_table = (target / (payload_len as u64 + 32)).max(1).min(keys) as usize;
            let owned: Vec<u64> = (0..keys).filter(|&k| owns(k)).collect();
            for (i, chunk) in owned.chunks(rows_per_table).enumerate() {
                let rows: Vec<Row> = chunk.iter().map(|&k| make_row(Key(k))).collect();
                let id = tables.allocate_id();
                let level = 1 + (i % 2) as u8;
                tables.add(SsTable::from_rows(id, level, rows, fp, block));
            }
        }
    }
    PreloadBase {
        tables,
        version_counter,
    }
}

/// An immutable, shareable cache of preloaded engine base states, keyed
/// by preload signature. Build one per grid and hydrate each point's
/// engine with [`crate::Engine::preload_from`]; distinct configurations
/// that share a layout (the common case — a grid varies worker pools and
/// cache sizes far more often than bloom/block parameters) share one
/// built base.
///
/// Thread-safe: grid workers on different threads hydrate from the same
/// snapshot concurrently. The map lock is held only to find a layout's
/// slot; the first worker to need a layout builds it in that slot,
/// outside the lock, while workers that need the same layout wait on
/// the slot and workers that need another layout go ahead (the build is
/// deterministic, so who wins the race is unobservable).
#[derive(Debug)]
pub struct EngineSnapshot {
    keys: u64,
    payload_len: u32,
    variants: Mutex<FastHashMap<SnapshotKey, Arc<OnceLock<Arc<PreloadBase>>>>>,
}

impl EngineSnapshot {
    /// Creates a snapshot for grids whose points preload `keys` rows of
    /// `payload_len` bytes each. No layout is built until the first
    /// hydration asks for one.
    ///
    /// # Panics
    ///
    /// Panics when `keys == 0`.
    pub fn new(keys: u64, payload_len: u32) -> Self {
        assert!(keys > 0, "snapshot needs at least one key");
        EngineSnapshot {
            keys,
            payload_len,
            variants: Mutex::new(FastHashMap::default()),
        }
    }

    /// Number of preloaded keys per point.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Payload bytes per preloaded row.
    pub fn payload_len(&self) -> u32 {
        self.payload_len
    }

    /// Number of distinct preload layouts built so far.
    pub fn variant_count(&self) -> usize {
        let variants = self.variants.lock().expect("snapshot lock");
        variants
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// The built base for `sig`, building it on first use.
    pub(crate) fn base_for(&self, sig: SnapshotKey) -> Arc<PreloadBase> {
        let slot = Arc::clone(
            self.variants
                .lock()
                .expect("snapshot lock")
                .entry(sig)
                .or_default(),
        );
        Arc::clone(slot.get_or_init(|| {
            Arc::new(build_preload_base(self.keys, self.payload_len, sig, |_| {
                true
            }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(method: CompactionMethod) -> SnapshotKey {
        SnapshotKey {
            method,
            fp_bits: 0.01f64.to_bits(),
            block_bytes: 64 << 10,
            leveled_target: 32 << 20,
        }
    }

    #[test]
    fn variants_are_built_once_and_shared() {
        let snap = EngineSnapshot::new(5_000, 200);
        assert_eq!(snap.variant_count(), 0);
        let a = snap.base_for(sig(CompactionMethod::SizeTiered));
        let b = snap.base_for(sig(CompactionMethod::SizeTiered));
        assert_eq!(snap.variant_count(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let c = snap.base_for(sig(CompactionMethod::Leveled));
        assert_eq!(snap.variant_count(), 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn concurrent_workers_build_each_layout_once() {
        // Two workers ask for both layouts in opposite orders, so each
        // layout's first request can overlap the other layout's build.
        let snap = &EngineSnapshot::new(20_000, 200);
        let (stcs, lcs) = (
            sig(CompactionMethod::SizeTiered),
            sig(CompactionMethod::Leveled),
        );
        let [a, b] = std::thread::scope(|s| {
            [[stcs, lcs], [lcs, stcs]]
                .map(|order| s.spawn(move || order.map(|k| snap.base_for(k))))
                .map(|worker| worker.join().expect("worker"))
        });
        assert_eq!(snap.variant_count(), 2);
        assert!(Arc::ptr_eq(&a[0], &b[1]), "size-tiered layout built twice");
        assert!(Arc::ptr_eq(&a[1], &b[0]), "leveled layout built twice");
        assert!(!Arc::ptr_eq(&a[0], &a[1]));
    }

    #[test]
    fn built_bases_match_a_direct_build() {
        let snap = EngineSnapshot::new(2_000, 100);
        let base = snap.base_for(sig(CompactionMethod::SizeTiered));
        let direct = build_preload_base(2_000, 100, sig(CompactionMethod::SizeTiered), |_| true);
        assert_eq!(base.version_counter, direct.version_counter);
        assert_eq!(base.tables.len(), direct.tables.len());
        for (a, b) in base.tables.iter().zip(direct.tables.iter()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.level(), b.level());
            assert_eq!(a.len(), b.len());
            assert!(a.iter().eq(b.iter()), "rows differ in table {}", a.id());
        }
    }

    #[test]
    fn leveled_layout_respects_target_chunks() {
        let snap = EngineSnapshot::new(10_000, 1_000);
        let mut s = sig(CompactionMethod::Leveled);
        s.leveled_target = 1 << 20; // ~1016 rows per table
        let base = snap.base_for(s);
        assert!(base.tables.len() >= 9, "got {} tables", base.tables.len());
        // Non-overlapping, key-partitioned.
        let mut tables: Vec<_> = base.tables.iter().collect();
        tables.sort_by_key(|t| t.min_key());
        for w in tables.windows(2) {
            assert!(w[0].max_key() < w[1].min_key());
        }
    }
}
