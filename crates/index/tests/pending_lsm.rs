//! Pending-trie equivalence: range queries over (frozen + pending)
//! must be *bit-identical* (f64 payloads included) to queries over the
//! merged index, under both distances, and the automatic threshold
//! merge must not change a single answer.

use pis_distance::{LinearDistance, MutationDistance};
use pis_graph::{EdgeAttr, GraphBuilder, GraphId, Label, LabeledGraph, VertexAttr};
use pis_index::{
    encode_snapshot, FragmentBuffer, FragmentIndex, IndexConfig, IndexDistance, RangeScratch,
};
use pis_mining::exhaustive::exhaustive_features;

fn ring(edge_labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = edge_labels.len();
    let vs: Vec<_> =
        (0..n).map(|i| b.add_vertex(VertexAttr::labeled(Label(i as u32 % 3)))).collect();
    for (i, &l) in edge_labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr { label: Label(l), weight: 0.25 + l as f64 })
            .unwrap();
    }
    b.build()
}

fn base_db() -> Vec<LabeledGraph> {
    vec![ring(&[1, 1, 2, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])]
}

fn incoming() -> Vec<LabeledGraph> {
    vec![ring(&[2, 1, 2, 1]), ring(&[1, 1, 1, 1]), ring(&[3, 2, 1, 2]), ring(&[1, 2, 3, 1, 2])]
}

fn build(distance: &IndexDistance) -> FragmentIndex {
    let db = base_db();
    let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
    FragmentIndex::build(
        &db,
        exhaustive_features(&structures, 3),
        distance.clone(),
        &IndexConfig::default(),
    )
}

/// Rings enough to take every class past the merge threshold of 64
/// pending entries: several times over under the mutation distance, and
/// once under the linear distance, whose classes hold one entry per
/// graph.
fn many_rings() -> Vec<LabeledGraph> {
    (0..80u32).map(|i| ring(&[1 + i % 3, 1 + i / 3 % 3, 1 + i / 9 % 3, 1 + i % 2])).collect()
}

/// Every (feature, probe, sigma) answer set, canonically ordered with
/// distances as raw bits so equality means bit-equality.
fn all_answers(index: &FragmentIndex, queries: &[LabeledGraph]) -> Vec<(u32, GraphId, u64)> {
    let (mut frags, mut scratch) = (FragmentBuffer::new(), RangeScratch::new());
    let (mut out, mut hits) = (Vec::new(), Vec::new());
    for (qi, q) in queries.iter().enumerate() {
        index.enumerate_query_fragments_into(q, &mut frags);
        for i in 0..frags.len() {
            for sigma in [0.0, 0.75, 1.5, 3.0, 1e9] {
                let (feature, probe) = (frags.feature(i), frags.vector(i));
                index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut hits);
                hits.sort_by_key(|&(g, d)| (g.0, d.to_bits()));
                out.extend(hits.iter().map(|&(g, d)| (qi as u32, g, d.to_bits())));
            }
        }
    }
    out
}

/// Both distances, named for assertion messages: label tries under
/// the mutation distance, posting-list (depth-0) tries under the linear
/// distance.
fn backends() -> [(&'static str, IndexDistance); 2] {
    [
        ("mutation", IndexDistance::Mutation(MutationDistance::edge_hamming())),
        ("linear", IndexDistance::Linear(LinearDistance::default())),
    ]
}

#[test]
fn pending_queries_are_bit_identical_to_merged() {
    for (backend, distance) in backends() {
        // `incoming()` stays below the merge threshold: `lsm` keeps its
        // pending structures, `merged` is compacted by hand.
        let mut lsm = build(&distance);
        let mut merged = build(&distance);
        for g in incoming() {
            lsm.insert_graph_pending(&g);
            merged.insert_graph_pending(&g);
        }
        let added = lsm.total_entries() - build(&distance).total_entries();
        assert_eq!(lsm.pending_entries(), added, "{backend}: inserts must stay pending");
        merged.compact();
        assert_eq!(merged.pending_entries(), 0);

        let queries: Vec<LabeledGraph> = base_db().into_iter().chain(incoming()).collect();
        assert_eq!(
            all_answers(&lsm, &queries),
            all_answers(&merged, &queries),
            "{backend}: pending structures must answer as the merged ones bit-for-bit"
        );
    }
}

#[test]
fn threshold_merges_automatically_without_changing_answers() {
    for (backend, distance) in backends() {
        let mut auto = build(&distance);
        let mut manual = build(&distance);
        for g in many_rings() {
            auto.insert_graph_pending(&g);
        }
        manual.insert_graphs_pending(&many_rings());
        // Eighty rings put at least 80 entries into every class: each
        // must have crossed the threshold and merged, one insert at a
        // time, and still holds less than it pending.
        assert!(auto.merge_stats().merges > 0, "{backend}: threshold merge did not fire");
        for f in auto.features().iter() {
            assert!(auto.class_pending_entries(f.id) < 64, "{backend}");
        }
        manual.compact();
        let queries: Vec<LabeledGraph> = base_db().into_iter().chain(many_rings()).collect();
        assert_eq!(all_answers(&auto, &queries), all_answers(&manual, &queries), "{backend}");
    }
}

/// A run of graphs applied as one batch (WAL replay) is the same index
/// as the graphs applied one at a time: identical answers while
/// pending, every class below the threshold either way, identical
/// snapshot bytes once compacted — and the batch merges each class at
/// the end of the run instead of every few graphs.
#[test]
fn batch_insert_equals_one_at_a_time() {
    for (backend, distance) in backends() {
        for (run, incoming) in [("short", incoming()), ("long", many_rings())] {
            let queries: Vec<LabeledGraph> =
                base_db().into_iter().chain(incoming.clone()).collect();
            let mut single = build(&distance);
            let mut batch = build(&distance);
            for g in &incoming {
                single.insert_graph_pending(g);
            }
            batch.insert_graphs_pending(&incoming);
            let context = format!("{backend}, {run} run");
            assert_eq!(batch.graph_count(), single.graph_count(), "{context}");
            assert_eq!(batch.total_entries(), single.total_entries(), "{context}");
            assert_eq!(all_answers(&batch, &queries), all_answers(&single, &queries), "{context}");
            for index in [&single, &batch] {
                for f in index.features().iter() {
                    assert!(index.class_pending_entries(f.id) < 64, "{context}");
                }
            }
            assert!(batch.merge_stats().merges <= single.merge_stats().merges, "{context}");
            single.compact();
            batch.compact();
            assert_eq!(all_answers(&batch, &queries), all_answers(&single, &queries), "{context}");
            assert_eq!(
                encode_snapshot(&batch, &queries).unwrap(),
                encode_snapshot(&single, &queries).unwrap(),
                "{context}"
            );
        }
    }
}

/// Merge work is visible as counts: nothing merges below the threshold,
/// a compaction merges each class holding pending entries exactly once
/// and rewrites every entry of those classes.
#[test]
fn merge_stats_count_merges_and_rewritten_entries() {
    for (backend, distance) in backends() {
        let mut index = build(&distance);
        assert_eq!(index.merge_stats(), Default::default(), "{backend}");
        index.insert_graphs_pending(&incoming());
        assert_eq!(index.merge_stats().merges, 0, "{backend}: below the threshold");
        let touched =
            index.features().iter().filter(|f| index.class_pending_entries(f.id) > 0).count();
        // incoming() holds 4- and 5-rings, so every class is touched and
        // a compaction rewrites the whole index.
        assert_eq!(touched, index.features().len(), "{backend}");
        index.compact();
        let stats = index.merge_stats();
        assert_eq!(stats.merges, touched as u64, "{backend}");
        assert_eq!(stats.entries_rewritten, index.total_entries() as u64, "{backend}");
        index.compact();
        assert_eq!(index.merge_stats(), stats, "{backend}: an idle compaction merges nothing");
    }
}
