//! Criterion benches for the storage-engine simulator itself: how much
//! wall-clock time one simulated benchmark point costs (the quantity that
//! bounds every experiment), split by workload mix and compaction
//! strategy — plus per-operation micro-benches for the two structures on
//! the engine's hot path (LRU cache touches and bloom-filter probes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rafiki_engine::store::{BloomFilter, LruCache, Memtable, Row, SsTable};
use rafiki_engine::{run_benchmark, CompactionMethod, Engine, EngineConfig, ServerSpec};
use rafiki_workload::{BenchmarkSpec, Key, WorkloadGenerator, WorkloadSpec};

fn one_point(read_ratio: f64, method: CompactionMethod) -> f64 {
    let cfg = EngineConfig {
        compaction_method: method,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(cfg, ServerSpec::default());
    engine.preload(30_000, 1_000);
    let spec = WorkloadSpec {
        initial_keys: 30_000,
        ..WorkloadSpec::with_read_ratio(read_ratio)
    };
    let mut workload = WorkloadGenerator::new(spec, 7);
    let bench = BenchmarkSpec {
        duration_secs: 1.0,
        warmup_secs: 0.25,
        clients: 32,
        sample_window_secs: 0.5,
    };
    run_benchmark(&mut engine, &mut workload, &bench).avg_ops_per_sec
}

fn bench_benchmark_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_benchmark_point");
    group.sample_size(10);
    for (label, rr) in [("write_heavy", 0.0), ("mixed", 0.5), ("read_heavy", 1.0)] {
        group.bench_with_input(BenchmarkId::new("stcs", label), &rr, |b, &rr| {
            b.iter(|| std::hint::black_box(one_point(rr, CompactionMethod::SizeTiered)))
        });
    }
    group.bench_function("lcs/read_heavy", |b| {
        b.iter(|| std::hint::black_box(one_point(1.0, CompactionMethod::Leveled)))
    });
    group.finish();
}

fn bench_hot_path_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_path");

    // One cache hit: a hash-map lookup plus an O(1) intrusive-list move
    // to the MRU slot. Every simulated read pays this several times.
    group.bench_function("lru_touch", |b| {
        let mut cache: LruCache<Key, u64> = LruCache::new(4_096);
        for i in 0..4_096u64 {
            cache.insert(Key(i), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 4_095;
            std::hint::black_box(cache.get(&Key(i)).copied())
        })
    });

    // One membership probe against the cache-line-blocked filter: two
    // splitmix64 rounds, one block select, then k bit tests all inside
    // a single 64-byte block. Paid once per range-matching SSTable per
    // read.
    group.bench_function("bloom_blocked_probe", |b| {
        let mut bloom = BloomFilter::with_capacity(100_000, 0.01);
        for i in 0..100_000u64 {
            bloom.insert(Key(i * 2));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(bloom.may_contain(Key(i & 0x3_ffff)))
        })
    });

    // One memtable point lookup: a single FxHash probe into the
    // slot index (the BTree descent this replaced was ~15 cache-line
    // touches at this size). Paid once per simulated read.
    group.bench_function("memtable_get", |b| {
        let mut mem = Memtable::new();
        for i in 0..50_000u64 {
            mem.insert(Row::new(Key(i), 200, i + 1));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            std::hint::black_box(mem.get(Key(i % 65_536)).map(|r| r.version))
        })
    });

    // One SSTable point probe: fence-pointer binary search narrowed to
    // a 64-key window over the dense key array. Paid once per
    // bloom-passing candidate table per read.
    group.bench_function("sstable_probe", |b| {
        let rows: Vec<Row> = (0..100_000u64)
            .map(|i| Row::new(Key(i * 2), 200, i + 1))
            .collect();
        let table = SsTable::from_rows(1, 0, rows, 0.01, 64 << 10);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            std::hint::black_box(table.get(Key(i % 220_000)).map(|(r, blk)| (r.version, blk)))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_benchmark_point, bench_hot_path_ops);
criterion_main!(benches);
