//! gSpan mining cost on label-erased molecules, by database size: the
//! miner alone at the default per-graph embedding cap and at one that
//! bites, and gIndex selection on top of it. Each row also prints the
//! run's `MineStats` — counts that repeat exactly, where the timing
//! does not.

#![allow(missing_docs)] // criterion_group! generates undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pis_datasets::MoleculeGenerator;
use pis_graph::LabeledGraph;
use pis_mining::{mine_with_stats, select_features, GindexConfig, GspanConfig};
use std::hint::black_box;

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining");
    group.sample_size(10);

    for db_size in [300usize, 2000] {
        let structures: Vec<LabeledGraph> = MoleculeGenerator::default()
            .database(db_size, 3)
            .iter()
            .map(LabeledGraph::erase_labels)
            .collect();

        for cap in [GspanConfig::default().max_embeddings_per_graph, 4] {
            let cfg = GspanConfig {
                min_support: (db_size / 100).max(1),
                size_support_slope: 0.1,
                max_embeddings_per_graph: cap,
                ..GspanConfig::default()
            };
            println!("mining/{db_size}/cap{cap}: {:?}", mine_with_stats(&structures, &cfg).1);
            let id = BenchmarkId::new(format!("mine_cap{cap}"), db_size);
            group.bench_with_input(id, &structures, |b, s| {
                b.iter(|| black_box(mine_with_stats(s, &cfg)));
            });
        }

        group.bench_with_input(
            BenchmarkId::new("select_features", db_size),
            &structures,
            |b, s| {
                b.iter(|| black_box(select_features(s, &GindexConfig::default())));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
