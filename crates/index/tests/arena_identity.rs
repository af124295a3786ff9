//! Arena identity: a [`FlatTrie`] is a function of the entries it
//! stores, not of how they arrived. [`FlatTrie::merge`], the streaming
//! sorted merge behind pending inserts and threshold merges, must
//! produce, column for column, the arena a bulk
//! [`FlatTrie::from_rows`] builds from the union, duplicates
//! included — which is what keeps snapshot bytes and every query answer
//! independent of the insert history.

use pis_distance::MutationDistance;
use pis_graph::{EdgeAttr, GraphBuilder, GraphId, Label, LabeledGraph, VertexAttr};
use pis_index::{encode_snapshot, FlatTrie, FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::exhaustive::exhaustive_features;
use proptest::prelude::*;

type Entry = (Vec<Label>, GraphId);

/// Cuts raw `(labels, graph)` draws down to `depth`-long entries.
fn entries(raw: &[(Vec<u32>, u32)], depth: usize) -> Vec<Entry> {
    raw.iter()
        .map(|(ls, g)| (ls[..depth].iter().map(|&l| Label(l)).collect(), GraphId(*g)))
        .collect()
}

/// The trie of `entries`, laid out as the row matrix
/// [`FlatTrie::from_rows`] takes.
fn trie_of(depth: usize, entries: Vec<Entry>) -> FlatTrie {
    let (rows, graphs): (Vec<Vec<Label>>, Vec<GraphId>) = entries.into_iter().unzip();
    FlatTrie::from_rows(depth, rows.concat(), graphs)
}

fn dump(trie: &FlatTrie) -> Vec<Entry> {
    let mut out = Vec::new();
    trie.for_each_entry(|seq, g| out.push((seq.to_vec(), g)));
    out
}

/// `stored` merged with a trie of each of `batches`, one after another,
/// equals the bulk build of everything after every batch.
fn assert_merge_is_bulk(depth: usize, stored: &[Entry], batches: &[&[Entry]]) {
    let mut merged = trie_of(depth, stored.to_vec());
    let mut union = stored.to_vec();
    for batch in batches {
        merged.merge(&trie_of(depth, batch.to_vec()));
        union.extend_from_slice(batch);
        let bulk = trie_of(depth, union.clone());
        // `FlatTrie: PartialEq` compares every arena column.
        assert_eq!(merged, bulk, "depth {depth} stored {stored:?} batches {batches:?}");
    }
    let mut expected = union;
    expected.sort();
    expected.dedup();
    assert_eq!(dump(&merged), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random stored and added sets over a tiny alphabet (so additions
    /// duplicate stored entries and each other), with the stored labels
    /// drawn from the middle of the range so additions also sort before
    /// the first and after the last stored entry. Depths 0 and 1
    /// included; the additions land in two batches.
    #[test]
    fn merge_equals_bulk_build_of_the_union(
        depth in 0usize..4,
        stored in prop::collection::vec((prop::collection::vec(1u32..4, 3), 1u32..5), 0..40),
        added in prop::collection::vec((prop::collection::vec(0u32..5, 3), 0u32..6), 0..24),
        cut in 0usize..24,
    ) {
        let stored = entries(&stored, depth);
        let added = entries(&added, depth);
        let (first, second) = added.split_at(cut.min(added.len()));
        assert_merge_is_bulk(depth, &stored, &[first, second]);
    }

    /// Rows that arrive sorted and distinct — a walk of a stored arena —
    /// take the in-place build path; the arena equals the one built from
    /// the same entries in draw order, duplicates included.
    #[test]
    fn freeze_equals_bulk_build(
        raw in prop::collection::vec((prop::collection::vec(0u32..3, 3), 0u32..4), 0..30),
    ) {
        let all = entries(&raw, 3);
        let mut walked = all.clone();
        walked.sort();
        walked.dedup();
        prop_assert_eq!(trie_of(3, walked), trie_of(3, all));
    }
}

fn e(labels: &[u32], g: u32) -> Entry {
    (labels.iter().map(|&l| Label(l)).collect(), GraphId(g))
}

#[test]
fn merge_edge_cases() {
    let stored = [e(&[2, 2], 1), e(&[2, 4], 1), e(&[4, 2], 3)];
    // Into an empty trie; an empty batch; a batch of stored entries only.
    assert_merge_is_bulk(2, &[], &[&stored]);
    assert_merge_is_bulk(2, &stored, &[&[]]);
    assert_merge_is_bulk(2, &stored, &[&stored]);
    // Before and after every stored entry, at every level: a smaller
    // and a larger root label, inner label, and graph id.
    let around = [
        e(&[1, 9], 9),
        e(&[2, 1], 0),
        e(&[2, 2], 0),
        e(&[2, 2], 2),
        e(&[2, 3], 1),
        e(&[2, 4], 0),
        e(&[2, 4], 2),
        e(&[2, 9], 1),
        e(&[3, 0], 0),
        e(&[4, 2], 2),
        e(&[4, 2], 4),
        e(&[9, 0], 0),
    ];
    assert_merge_is_bulk(2, &stored, &[&around]);
    // Duplicates inside one batch.
    assert_merge_is_bulk(2, &stored, &[&[e(&[3, 3], 3), e(&[3, 3], 3), e(&[2, 2], 1)]]);
    // Depth 0: the virtual root's posting list is the whole arena.
    assert_merge_is_bulk(0, &[e(&[], 4), e(&[], 2)], &[&[e(&[], 3), e(&[], 2), e(&[], 9)]]);
    // Depth 1: every node is a leaf.
    assert_merge_is_bulk(1, &[e(&[5], 1), e(&[7], 1)], &[&[e(&[6], 0), e(&[5], 0), e(&[7], 2)]]);
}

fn ring(edge_labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = edge_labels.len();
    let vs: Vec<_> =
        (0..n).map(|i| b.add_vertex(VertexAttr::labeled(Label(i as u32 % 2)))).collect();
    for (i, &l) in edge_labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whole-index form: a trie index grown by inserts — one at a time
    /// or as one run, then compacted — encodes to the same snapshot
    /// bytes as a bulk build over the same graphs.
    #[test]
    fn grown_index_snapshots_like_a_bulk_build(
        graphs in prop::collection::vec(prop::collection::vec(1u32..4, 4), 3..9),
        prefix in 1usize..3,
        batched in 0u8..2,
    ) {
        let db: Vec<LabeledGraph> = graphs.iter().map(|ls| ring(ls)).collect();
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let build = |graphs: &[LabeledGraph]| {
            FragmentIndex::build(
                graphs,
                exhaustive_features(&structures, 3),
                // Vertex labels priced too, so no slot is erased and
                // classes hold many distinct sequences.
                IndexDistance::Mutation(MutationDistance::unit()),
                &IndexConfig::default(),
            )
        };
        let mut grown = build(&db[..prefix]);
        if batched == 1 {
            grown.insert_graphs_pending(&db[prefix..]);
        } else {
            for g in &db[prefix..] {
                grown.insert_graph_pending(g);
            }
        }
        grown.compact();
        prop_assert_eq!(
            encode_snapshot(&grown, &db).unwrap(),
            encode_snapshot(&build(&db), &db).unwrap()
        );
    }
}
