//! Criterion benches for the configuration search: the full GA run over a
//! trained surrogate (the paper's ~1.8 s "combined GA + surrogate" claim,
//! §4.8) and random search on the same budget for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rafiki_neural::{Dataset, Matrix, SurrogateConfig, SurrogateModel, TrainConfig};
use rafiki_search::{run_strategy, GaConfig, GaSearch, GeneSpec, RandomSearch, SearchSpace};

fn key_param_ga_space() -> SearchSpace {
    SearchSpace::new(vec![
        GeneSpec::Categorical { options: 2 }, // compaction method
        GeneSpec::Int { min: 2, max: 128 },   // concurrent writes
        GeneSpec::Int { min: 32, max: 512 },  // file cache MB
        GeneSpec::Real {
            min: 0.05,
            max: 0.90,
        }, // memtable cleanup
        GeneSpec::Int { min: 1, max: 16 },    // concurrent compactors
    ])
}

fn trained_surrogate() -> SurrogateModel {
    let mut rows = Vec::new();
    let mut targets = Vec::new();
    for i in 0..200usize {
        let rr = (i % 11) as f64 / 10.0;
        let cm = ((i / 11) % 2) as f64;
        let cw = 2.0 + 126.0 * (((i * 37) % 100) as f64 / 99.0);
        let fcz = 32.0 + 480.0 * (((i * 53) % 100) as f64 / 99.0);
        let mt = 0.05 + 0.85 * (((i * 71) % 100) as f64 / 99.0);
        let cc = 1.0 + 15.0 * (((i * 13) % 100) as f64 / 99.0);
        rows.push(vec![rr, cm, cw, fcz, mt, cc]);
        targets.push(
            90_000.0 - 35_000.0 * rr + 25_000.0 * cm * rr - 900.0 * (cw - 40.0).abs() + 18.0 * fcz
                - 12_000.0 * (mt - 0.4).powi(2)
                - 400.0 * cc,
        );
    }
    SurrogateModel::fit(
        &Dataset::from_rows(&rows, targets),
        &SurrogateConfig {
            ensemble_size: 20,
            train: TrainConfig {
                max_epochs: 60,
                ..TrainConfig::default()
            },
            ..SurrogateConfig::default()
        },
    )
}

/// Builds the surrogate's input rows for one batch at read ratio 0.9.
fn rows(population: &[Vec<f64>]) -> Matrix {
    let rows: Vec<Vec<f64>> = population
        .iter()
        .map(|genome| {
            let mut row = vec![0.9];
            row.extend_from_slice(genome);
            row
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn bench_ga_search(c: &mut Criterion) {
    let surrogate = trained_surrogate();
    let space = key_param_ga_space();
    let mut group = c.benchmark_group("config_search");
    group.sample_size(10);
    // The paper: GA + surrogate takes ~1.8 s with ~3,350 evaluations. Each
    // generation is scored with one `predict_batch` matrix pass per
    // ensemble member.
    group.bench_function("ga_full_search_batch_3350_evals", |b| {
        b.iter(|| {
            let mut ga = GaSearch::new(space.clone(), GaConfig::default());
            run_strategy(&mut ga, |population| {
                surrogate.predict_batch(&rows(population))
            })
        })
    });
    // Equal-budget random search baseline, batched the same way.
    group.bench_function("random_search_same_budget", |b| {
        b.iter(|| {
            let mut random = RandomSearch::new(space.clone(), 3_350, 50, 7);
            run_strategy(&mut random, |population| {
                surrogate.predict_batch(&rows(population))
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ga_search);
criterion_main!(benches);
