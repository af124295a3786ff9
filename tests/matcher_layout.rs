//! The matcher's order contract (DESIGN.md §6.4) pinned across graph
//! layouts: the full embedding sequence of `SubgraphMatcher::all()` and
//! the structure check's DFS assignment count, hashed over molecule
//! queries against targets of one, two and four row words and against a
//! target past the 4 096-vertex matrix cap (the neighbour-scan DFS).
//! Any change to how a graph stores its adjacency or its bit rows must
//! leave both numbers where they are. Beside it, the layout itself:
//! every way a graph comes to be — the builder, `erase_labels`,
//! `edge_subgraph`, snapshot decode, WAL replay — lists each vertex's
//! neighbours in edge insertion order and carries the bit rows a fresh
//! build of the same vertices and edges derives.

mod common;

use std::ops::ControlFlow;

use common::connected_graph;
use pis::datasets::query::sample_query;
use pis::graph::graph::{cycle_graph, star_graph};
use pis::graph::iso::{IsoConfig, MatchVisitor, SubgraphMatcher};
use pis::graph::Embedding;
use pis::index::{decode_snapshot, encode_snapshot, wal};
use pis::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of `x`: a hash whose value is
/// fixed by this file, not by the standard library's hasher.
fn fold(hash: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The structure check's visitor: accepts every assignment, counts it,
/// and stops at the first complete embedding.
struct CountingExists {
    assigns: u64,
    found: bool,
}

impl MatchVisitor for CountingExists {
    fn assign(&mut self, _p: VertexId, _t: VertexId) -> bool {
        self.assigns += 1;
        true
    }
    fn unassign(&mut self, _p: VertexId, _t: VertexId) {}
    fn complete(&mut self, _embedding: &Embedding) -> ControlFlow<()> {
        self.found = true;
        ControlFlow::Break(())
    }
}

/// The disjoint union of `parts`, in order.
fn union(parts: &[LabeledGraph]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for g in parts {
        let base = b.vertex_count() as u32;
        for v in g.vertex_ids() {
            b.add_vertex(g.vertex(v));
        }
        for e in g.edges() {
            b.add_edge(VertexId(base + e.source.0), VertexId(base + e.target.0), e.attr)
                .expect("a union of simple graphs is simple");
        }
    }
    b.build()
}

#[test]
fn embedding_order_and_structure_work_are_pinned() {
    let db = MoleculeGenerator::default().database(400, 11);
    let macros =
        MoleculeGenerator::new(MoleculeConfig { macro_probability: 1.0, ..Default::default() })
            .database(3, 5);
    let one_word = db.iter().filter(|g| g.vertex_count() <= 64).take(6);
    let two_words = db.iter().filter(|g| (65..=128).contains(&g.vertex_count())).take(3);
    let four_words = macros.iter().filter(|g| g.vertex_count() > 128);
    let mut targets: Vec<LabeledGraph> =
        one_word.chain(two_words).chain(four_words).cloned().collect();
    let mut parts = Vec::new();
    for g in db.iter().cycle() {
        if parts.iter().map(LabeledGraph::vertex_count).sum::<usize>() > 4_096 {
            break;
        }
        parts.push(g.clone());
    }
    targets.push(union(&parts));
    // Row words of the matrix DFS: 1, 2, or 4 (which also serves 3).
    let widths: Vec<usize> =
        targets.iter().map(|g| g.vertex_count().div_ceil(64).next_power_of_two()).collect();
    for words in [1, 2, 4] {
        assert!(widths.contains(&words), "no target of {words} row words: {widths:?}");
    }
    assert!(targets.last().is_some_and(|g| g.vertex_count() > 4_096));

    let mut rng = StdRng::seed_from_u64(17);
    let sources = db.iter().take(6).map(|g| (g, 6)).chain(macros.iter().map(|g| (g, 5)));
    let mut queries: Vec<LabeledGraph> =
        sources.filter_map(|(g, edges)| sample_query(g, edges, &mut rng)).collect();
    queries.push(cycle_graph(6, Label(0), Label(1)));
    queries.push(cycle_graph(5, Label(0), Label(1)));
    queries.push(star_graph(4, Label(0), Label(1)));
    assert!(queries.len() >= 10, "too few queries: {}", queries.len());

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut embeddings, mut assigns, mut contained) = (0u64, 0u64, 0u64);
    let mut scratch = VerifyScratch::new();
    for q in &queries {
        scratch.begin_query(q);
        for t in &targets {
            let matcher = SubgraphMatcher::new(q, t, IsoConfig::STRUCTURE);
            let all = matcher.all();
            fold(&mut hash, all.len() as u64);
            for emb in &all {
                for v in emb.vertex_map() {
                    fold(&mut hash, u64::from(v.0));
                }
            }
            let mut exists = CountingExists { assigns: 0, found: false };
            matcher.search(&mut exists);
            fold(&mut hash, exists.assigns);
            assert_eq!(exists.found, !all.is_empty());
            assert_eq!(scratch.contains_structure(q, t), exists.found);
            embeddings += all.len() as u64;
            assigns += exists.assigns;
            contained += u64::from(exists.found);
        }
    }
    assert_eq!(
        (embeddings, assigns, contained, hash),
        (571_515, 2_369, 153, 7_658_540_178_186_236_887),
        "the matcher's embedding order or its structure-check work moved"
    );
}

/// A fresh build of `g`'s vertices and edges, in order.
fn rebuilt(g: &LabeledGraph) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        b.add_vertex(g.vertex(v));
    }
    for e in g.edges() {
        b.add_edge(e.source, e.target, e.attr).expect("a simple graph rebuilds");
    }
    b.build()
}

/// `g` lists each vertex's incidences in edge insertion order and its
/// bit rows are those of a fresh build.
fn assert_layout(g: &LabeledGraph) {
    for v in g.vertex_ids() {
        let expected: Vec<(VertexId, EdgeId)> = g
            .edge_ids()
            .filter(|&e| g.edge(e).is_incident(v))
            .map(|e| (g.edge(e).other(v), e))
            .collect();
        assert_eq!(g.neighbors(v), &expected[..], "vertex {v:?}");
        assert_eq!(g.degree(v), expected.len());
    }
    let fresh = rebuilt(g);
    assert_eq!(g, &fresh);
    assert_eq!(g.bits(), fresh.bits());
}

/// `g` plus `extra` isolated vertices: vertices without incidences sit
/// between and after the others.
fn with_isolated(g: &LabeledGraph, extra: usize) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        b.add_vertex(g.vertex(v));
        if v.index() < extra {
            b.add_vertex(VertexAttr::labeled(Label(9)));
        }
    }
    let image = |v: VertexId| VertexId(v.0 + v.0.min(extra as u32));
    for e in g.edges() {
        b.add_edge(image(e.source), image(e.target), e.attr).expect("still simple");
    }
    b.build()
}

#[test]
fn the_empty_graph_is_the_default_graph() {
    let empty = GraphBuilder::new().build();
    assert_eq!(empty, LabeledGraph::default());
    assert_layout(&empty);
    assert_layout(&LabeledGraph::default());
    assert_layout(&empty.erase_labels());
    assert_eq!(empty.edge_subgraph(&[]).0, LabeledGraph::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn derived_graphs_keep_the_layout(
        g in connected_graph(9, 4, 3),
        extra in 0usize..3,
        picks in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let g = with_isolated(&g, extra);
        assert_layout(&g);
        // Derived after the rows are cached, so a copied cache is
        // checked too.
        let _ = g.bits();
        assert_layout(&g.erase_labels());
        let chosen: Vec<EdgeId> =
            picks.iter().map(|&i| EdgeId((i % g.edge_count()) as u32)).collect();
        assert_layout(&g.edge_subgraph(&chosen).0);
        let mut log = wal::MAGIC.to_vec();
        log.extend(wal::encode_record(GraphId(7), &g).expect("finite weights"));
        let replay = wal::replay_bytes(&log).expect("a clean log replays");
        prop_assert_eq!(replay.records.len(), 1);
        assert_layout(&replay.records[0].1);
        prop_assert_eq!(&replay.records[0].1, &g);
    }
}

#[test]
fn decoded_snapshots_keep_the_layout() {
    let mut db = MoleculeGenerator::default().database(12, 3);
    db.push(with_isolated(&db[0], 2));
    let system = PisSystem::builder().path_features(2).build(db.clone());
    let bytes = encode_snapshot(system.index(), system.database()).expect("encodes");
    let (_, decoded) = decode_snapshot(&bytes).expect("decodes");
    assert_eq!(decoded, db);
    for g in &decoded {
        assert_layout(g);
    }
}
