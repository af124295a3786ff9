//! Sample identity: gIndex selection on a strided sample picks the
//! features whole-database selection picks, on the benchmark corpora.
//!
//! The corpora are `MoleculeGenerator::default().database(n, 20060403)`
//! for n = 2 000 and 10 000, selected with the benchmark's gIndex
//! configuration (5 edges, 300 features, support 0.02). `ingest_2k`
//! indexes the same 2 000-graph prefix as the 2 000-graph corpus.
//!
//! [`WHOLE`] is whole-database selection, recorded at commit `9abe3b0`
//! (before `select_features` sampled) with
//!
//! ```text
//! cargo test --release -p pis-mining --test sample_identity -- --ignored --nocapture print_tables
//! ```
//!
//! run in a checkout of that commit holding this file's `print_tables`
//! (the checks name items that commit does not have). Both corpora
//! printed the same table, order included.
//!
//! The checks compare the sampled selection with [`WHOLE`] as a set,
//! and pin the sampled *order* (which gives the feature ids), recorded
//! with the same tool once selection mined a sample of at most
//! [`MINING_SAMPLE`] graphs. At 2 000 graphs that order is [`WHOLE`]'s;
//! at 10 000 the sample's supports order three pairs of same-size
//! features the other way ([`SAMPLED_10K`]). A change of that order is
//! a change of class ids, so it must not pass unnoticed.

use pis_datasets::MoleculeGenerator;
use pis_graph::LabeledGraph;
use pis_mining::gindex::MINING_SAMPLE;
use pis_mining::{select_features, select_features_with_stats, GindexConfig};

/// The code sequences of the selected features, in id order.
type Table = &'static [&'static [u32]];

fn corpus(n: usize) -> Vec<LabeledGraph> {
    MoleculeGenerator::default().database(n, 20060403)
}

fn erased(db: &[LabeledGraph]) -> Vec<LabeledGraph> {
    db.iter().map(LabeledGraph::erase_labels).collect()
}

/// The benchmark's feature selection (`examples/benchmark/harness.rs`).
fn config() -> GindexConfig {
    GindexConfig {
        max_edges: 5,
        max_features: 300,
        min_support_fraction: 0.02,
        ..GindexConfig::default()
    }
}

fn selected(structures: &[LabeledGraph]) -> Vec<Vec<u32>> {
    select_features(structures, &config()).iter().map(|f| f.code.to_sequence()).collect()
}

/// `table` as owned sequences, in order or sorted.
fn rows(table: Table, sorted: bool) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = table.iter().map(|s| s.to_vec()).collect();
    if sorted {
        rows.sort();
    }
    rows
}

fn assert_sample_keeps_features(n: usize, sampled_order: Table) {
    let db = corpus(n);
    let (features, stats) = select_features_with_stats(&db, &config());
    assert_eq!(stats.graphs, MINING_SAMPLE, "{n} graphs: the sample's size");
    let picked: Vec<Vec<u32>> = features.iter().map(|f| f.code.to_sequence()).collect();
    let mut as_set = picked.clone();
    as_set.sort();
    assert_eq!(as_set, rows(WHOLE, true), "{n} graphs: the sample must select the whole set");
    assert_eq!(picked, rows(sampled_order, false), "{n} graphs: sampled order");
    // Selection erases its own sample: the labeled database and its
    // erased copy select the same features in the same order.
    assert_eq!(selected(&erased(&db)), picked, "{n} graphs: erased input");
}

#[test]
fn sample_of_2k_keeps_the_whole_database_features() {
    assert_sample_keeps_features(2_000, WHOLE);
}

#[test]
fn sample_of_10k_keeps_the_whole_database_features() {
    assert_sample_keeps_features(10_000, SAMPLED_10K);
}

/// Prints the selected features of both corpora as Rust source (see
/// the module header).
#[test]
#[ignore = "recording tool, not a check"]
fn print_tables() {
    for n in [2_000, 10_000] {
        println!("#[rustfmt::skip]\nconst TABLE_{n}: Table = &[");
        for seq in selected(&erased(&corpus(n))) {
            println!("    &{seq:?},");
        }
        println!("];\n");
    }
}

#[rustfmt::skip]
const WHOLE: Table = &[
    &[2, 1, 0, 0, 1, 0, 0, 0],
    &[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0],
    &[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0],
    &[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 3, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 2, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 1, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 2, 5, 0, 0, 0],
    &[5, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 0, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0, 1, 5, 0, 0, 0],
];

#[rustfmt::skip]
const SAMPLED_10K: Table = &[
    &[2, 1, 0, 0, 1, 0, 0, 0],
    &[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0],
    &[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0],
    &[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0],
    &[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 2, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 3, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 1, 5, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 2, 5, 0, 0, 0],
    &[5, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 0, 0, 0, 0],
    &[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0, 1, 5, 0, 0, 0],
];
