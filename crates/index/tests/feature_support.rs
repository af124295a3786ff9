//! A built index's feature supports are exact: each feature's `support`
//! is its class's posting count, which is the number of indexed graphs
//! that contain the structure — whether the miner counted it on the
//! whole database or on a strided sample, and after inserts and a
//! snapshot round trip.

use pis_datasets::MoleculeGenerator;
use pis_distance::MutationDistance;
use pis_graph::iso::{is_subgraph, IsoConfig};
use pis_graph::LabeledGraph;
use pis_index::{decode_snapshot, encode_snapshot, FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::gindex::MINING_SAMPLE;
use pis_mining::{select_features, GindexConfig};

fn config() -> GindexConfig {
    GindexConfig {
        max_edges: 4,
        max_features: 300,
        min_support_fraction: 0.02,
        ..GindexConfig::default()
    }
}

fn build(db: &[LabeledGraph], features: pis_mining::FeatureSet) -> FragmentIndex {
    let distance = IndexDistance::Mutation(MutationDistance::edge_hamming());
    FragmentIndex::build(db, features, distance, &IndexConfig::default())
}

/// Every feature's support is its posting count and the matcher's count
/// of the database graphs that contain it.
fn assert_exact(index: &FragmentIndex, db: &[LabeledGraph], what: &str) {
    for f in index.features().iter() {
        let postings = index.class_graphs(f.id).len();
        assert_eq!(f.support, postings, "{what}: {} support vs postings", f.id);
        let contained =
            db.iter().filter(|g| is_subgraph(&f.structure, g, IsoConfig::STRUCTURE)).count();
        assert_eq!(postings, contained, "{what}: {} postings vs matcher", f.id);
    }
}

#[test]
fn gindex_supports_are_posting_counts_below_and_above_the_sample() {
    for n in [MINING_SAMPLE / 2, MINING_SAMPLE * 2 + 1] {
        let db = MoleculeGenerator::default().database(n, 20060403);
        let index = build(&db, select_features(&db, &config()));
        assert_exact(&index, &db, &format!("{n} graphs"));

        // Inserts keep supports exact, and a snapshot stores them.
        let (head, tail) = db.split_at(n - 7);
        let mut grown = build(head, index.features().clone());
        grown.insert_graphs_pending(tail);
        assert_exact(&grown, &db, &format!("{n} graphs, 7 inserted"));
        grown.compact();
        let (decoded, _) = decode_snapshot(&encode_snapshot(&grown, &db).unwrap()).unwrap();
        let supports =
            |i: &FragmentIndex| i.features().iter().map(|f| f.support).collect::<Vec<_>>();
        assert_eq!(supports(&decoded), supports(&index), "{n} graphs: decoded supports");
    }
}
