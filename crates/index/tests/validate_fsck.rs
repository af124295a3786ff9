//! Accept-side sweep for the deep structural validation
//! ([`pis_index::FragmentIndex::validate`]).
//!
//! The reject side lives next to each structure (field corruption on
//! the index, typed corruption of every check the snapshot decoder
//! makes). This file pins the other half of the contract: an index
//! reached through *any* public lifecycle — build, inserts one at a
//! time or as a run, threshold-triggered merges, compaction, snapshot
//! round trip — validates cleanly, so a validation failure in the field
//! always means corruption, never a false alarm; and a snapshot of it
//! decodes to the very classes it was written from.

use pis_distance::{LinearDistance, MutationDistance};
use pis_graph::{EdgeAttr, GraphBuilder, Label, LabeledGraph, VertexAttr};
use pis_index::{decode_snapshot, encode_snapshot, FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::exhaustive::exhaustive_features;
use proptest::prelude::*;

fn ring(labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = labels.len();
    let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
    for (i, &l) in labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
    }
    b.build()
}

fn weighted_ring(weights: &[f64]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = weights.len();
    let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
    for (i, &w) in weights.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr { label: Label(0), weight: w }).unwrap();
    }
    b.build()
}

/// Validates and surfaces the violation as the proptest failure.
fn assert_valid(index: &FragmentIndex, context: &str) -> Result<(), TestCaseError> {
    match index.validate() {
        Ok(_) => Ok(()),
        Err(m) => {
            prop_assert!(false, "{context}: {m}");
            Ok(())
        }
    }
}

/// Compacts `index` (over `db`) and round-trips it through a snapshot:
/// both validate, and every decoded class equals the live compacted
/// one — the same posting list and, column for column, the same trie.
fn assert_round_trip(index: &mut FragmentIndex, db: &[LabeledGraph]) -> Result<(), TestCaseError> {
    index.compact();
    assert_valid(index, "after compact")?;
    prop_assert_eq!(index.validate().unwrap().pending_entries, 0);
    let (restored, _) = decode_snapshot(&encode_snapshot(index, db).unwrap()).unwrap();
    assert_valid(&restored, "after snapshot round trip")?;
    for f in index.features().iter() {
        prop_assert_eq!(restored.class_graphs(f.id), index.class_graphs(f.id));
        prop_assert!(restored.class_trie(f.id) == index.class_trie(f.id), "class {}", f.id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutation distance (trie classes): every lifecycle stage
    /// validates, and the tallies stay consistent with the public
    /// counters. Most draws insert enough graphs for some class to
    /// merge at the threshold before the compaction.
    #[test]
    fn label_lifecycle_always_validates(
        extra in prop::collection::vec(prop::collection::vec(1u32..4, 4), 1..48),
        batched in 0u8..2,
    ) {
        let mut db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let mut index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        assert_valid(&index, "after build")?;
        let incoming: Vec<LabeledGraph> = extra.iter().map(|ls| ring(ls)).collect();
        if batched == 1 {
            index.insert_graphs_pending(&incoming);
            assert_valid(&index, "after a run of inserts")?;
        } else {
            for g in &incoming {
                index.insert_graph_pending(g);
                assert_valid(&index, "after insert")?;
            }
        }
        db.extend(incoming);
        let report = index.validate().unwrap();
        prop_assert_eq!(report.classes, index.features().len());
        prop_assert_eq!(
            report.frozen_entries + report.pending_entries,
            index.total_entries()
        );
        prop_assert_eq!(report.pending_entries, index.pending_entries());
        assert_round_trip(&mut index, &db)?;
    }

    /// Linear distance over weighted graphs: the posting-list classes
    /// (depth-0 tries) validate through the same lifecycle. Every graph
    /// adds one entry to every class, so 64 inserts take each class
    /// through a threshold merge before the compaction.
    #[test]
    fn weight_lifecycle_always_validates(
        extra in prop::collection::vec(prop::collection::vec(1u32..40, 4), 64..72),
    ) {
        let mut db = vec![
            weighted_ring(&[1.0, 1.0, 1.0, 1.0]),
            weighted_ring(&[1.0, 1.5, 2.0, 2.5]),
            weighted_ring(&[4.0, 4.0, 4.0, 4.0]),
        ];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let mut index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Linear(LinearDistance::edges_only()),
            &IndexConfig::default(),
        );
        assert_valid(&index, "after build")?;
        for ws in &extra {
            let ws: Vec<f64> = ws.iter().map(|&w| f64::from(w) / 4.0).collect();
            db.push(weighted_ring(&ws));
            index.insert_graph_pending(&db[db.len() - 1]);
            assert_valid(&index, "after pending insert")?;
        }
        prop_assert!(index.merge_stats().merges > 0, "a class merged at the threshold");
        assert_round_trip(&mut index, &db)?;
    }
}
