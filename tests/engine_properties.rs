//! Property-based tests over the storage engine's core invariants,
//! exercised across crate boundaries with proptest.

use proptest::prelude::*;
use rafiki_engine::store::{merge_tables, LruCache, Memtable, Row, SsTable};
use rafiki_engine::{replicas_of, ClusterSpec};
use rafiki_workload::{Key, OperationSource, WorkloadGenerator, WorkloadSpec};

fn rows_from_keys(keys: &[u64], version_base: u64) -> Vec<Row> {
    let mut sorted: Vec<u64> = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
        .into_iter()
        .map(|k| Row::new(Key(k), (k % 512) as u32 + 16, version_base + k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sstable_lookup_finds_exactly_inserted_keys(
        keys in prop::collection::hash_set(0u64..10_000, 1..200),
        probes in prop::collection::vec(0u64..10_000, 50),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let rows = rows_from_keys(&keys, 1);
        let table = SsTable::from_rows(1, 0, rows, 0.01, 4 << 10);
        for &p in &probes {
            let found = table.get(Key(p)).is_some();
            prop_assert_eq!(found, keys.contains(&p));
            // Bloom filters never produce false negatives.
            if keys.contains(&p) {
                prop_assert!(table.may_contain(Key(p)));
            }
        }
    }

    #[test]
    fn merge_preserves_key_union_and_newest_version(
        a in prop::collection::hash_set(0u64..500, 1..80),
        b in prop::collection::hash_set(0u64..500, 1..80),
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let older = SsTable::from_rows(1, 0, rows_from_keys(&a, 1_000), 0.01, 4 << 10);
        let newer = SsTable::from_rows(2, 0, rows_from_keys(&b, 2_000), 0.01, 4 << 10);
        let mut next = 10;
        let merged = merge_tables(&[&older, &newer], 0, 0.01, 4 << 10, u64::MAX, false, || {
            next += 1;
            next
        });
        prop_assert_eq!(merged.len(), 1);
        let m = &merged[0];

        let union: std::collections::BTreeSet<u64> =
            a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(m.len(), union.len());
        for &k in &union {
            let (row, _) = m.get(Key(k)).expect("merged key present");
            // Keys in both inputs keep the newer version.
            if b.contains(&k) {
                prop_assert_eq!(row.version, 2_000 + k);
            } else {
                prop_assert_eq!(row.version, 1_000 + k);
            }
        }
    }

    #[test]
    fn merge_splitting_never_overlaps(
        keys in prop::collection::hash_set(0u64..5_000, 50..300),
        target in 1_000u64..20_000,
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let table = SsTable::from_rows(1, 0, rows_from_keys(&keys, 1), 0.01, 4 << 10);
        let mut next = 1;
        let parts = merge_tables(&[&table], 1, 0.01, 4 << 10, target, false, || {
            next += 1;
            next
        });
        let total: usize = parts.iter().map(SsTable::len).sum();
        prop_assert_eq!(total, table.len());
        for w in parts.windows(2) {
            prop_assert!(w[0].max_key() < w[1].min_key());
        }
    }

    #[test]
    fn memtable_mirrors_a_model_map(
        ops in prop::collection::vec((0u64..200, 16u32..256), 1..400),
    ) {
        let mut memtable = Memtable::new();
        let mut model: std::collections::BTreeMap<u64, u64> = Default::default();
        for (i, &(k, len)) in ops.iter().enumerate() {
            let version = i as u64 + 1;
            memtable.insert(Row::new(Key(k), len, version));
            model.insert(k, version);
        }
        prop_assert_eq!(memtable.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(memtable.get(Key(k)).map(|r| r.version), Some(v));
        }
        // Freeze returns everything, sorted.
        let frozen = memtable.freeze();
        prop_assert_eq!(frozen.len(), model.len());
        prop_assert!(frozen.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn lru_never_exceeds_capacity_and_keeps_mru(
        capacity in 1usize..64,
        accesses in prop::collection::vec(0u64..128, 1..500),
    ) {
        let mut cache = LruCache::new(capacity);
        for &k in &accesses {
            cache.insert(k, k);
            prop_assert!(cache.len() <= capacity);
        }
        // The most recently inserted key is always resident.
        prop_assert!(cache.peek(accesses.last().unwrap()).is_some());
    }

    #[test]
    fn cluster_replicas_are_valid_for_any_topology(
        nodes in 1usize..8,
        rf_seed in 0usize..8,
        keys in prop::collection::vec(0u64..1_000_000, 20),
    ) {
        let rf = rf_seed % nodes + 1;
        let spec = ClusterSpec::new(nodes, rf);
        spec.validate();
        for &k in &keys {
            let replicas = replicas_of(k, &spec);
            prop_assert_eq!(replicas.len(), rf);
            let distinct: std::collections::HashSet<_> = replicas.iter().collect();
            prop_assert_eq!(distinct.len(), rf);
            prop_assert!(replicas.iter().all(|&n| n < nodes));
        }
    }

    #[test]
    fn workload_generator_respects_bounds(
        rr_pct in 0u32..=100,
        seed in 0u64..1_000,
    ) {
        let rr = rr_pct as f64 / 100.0;
        let spec = WorkloadSpec { initial_keys: 1_000, ..WorkloadSpec::with_read_ratio(rr) };
        let mut generator = WorkloadGenerator::new(spec, seed);
        let mut reads = 0usize;
        let n = 2_000;
        for _ in 0..n {
            let op = generator.next_op();
            if !op.kind.is_write() {
                reads += 1;
                prop_assert!(op.key.0 < generator.keyspace());
            }
        }
        let observed = reads as f64 / n as f64;
        prop_assert!((observed - rr).abs() < 0.08,
            "requested RR {}, observed {}", rr, observed);
    }
}
