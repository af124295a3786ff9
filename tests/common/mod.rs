//! Shared helpers and proptest strategies for the integration tests.
//!
// Each test binary compiles this module independently; helpers unused
// by one binary are still used by others.
#![allow(dead_code)]

use pis::prelude::*;
use proptest::prelude::*;

/// A proptest strategy for small connected labeled graphs: a random
/// spanning tree plus a few extra edges, with labels drawn from a small
/// vocabulary (so collisions — the hard case for canonical forms and
/// distances — are common).
pub fn connected_graph(
    max_vertices: usize,
    max_extra_edges: usize,
    label_count: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_vertices).prop_flat_map(move |n| {
        let tree_parents = proptest::collection::vec(0..n, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n), 0..=max_extra_edges);
        let vlabels = proptest::collection::vec(0..label_count, n);
        let elabels = proptest::collection::vec(0..label_count, n - 1 + max_extra_edges);
        (tree_parents, extra, vlabels, elabels).prop_map(move |(parents, extra, vl, el)| {
            let mut b = GraphBuilder::new();
            let vs: Vec<VertexId> =
                (0..n).map(|i| b.add_vertex(VertexAttr::labeled(Label(vl[i])))).collect();
            let mut next_label = 0usize;
            // Spanning tree: vertex i+1 attaches to parents[i] % (i+1),
            // guaranteeing connectivity.
            for i in 1..n {
                let p = parents[i - 1] % i;
                b.add_edge(vs[p], vs[i], EdgeAttr::labeled(Label(el[next_label])))
                    .expect("tree edges are fresh");
                next_label += 1;
            }
            for &(u, v) in &extra {
                if u != v {
                    // Duplicate edges are rejected; ignore those.
                    let _ = b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label(el[next_label])));
                }
                next_label += 1;
            }
            b.build()
        })
    })
}

/// A small database of connected labeled graphs.
pub fn graph_database(
    max_graphs: usize,
    max_vertices: usize,
    label_count: u32,
) -> impl Strategy<Value = Vec<LabeledGraph>> {
    proptest::collection::vec(connected_graph(max_vertices, 2, label_count), 1..=max_graphs)
}

/// Builds a labeled ring with per-edge labels; deterministic helper for
/// example-style tests.
pub fn ring(edge_labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = edge_labels.len();
    let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
    for (i, &l) in edge_labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).expect("ring is simple");
    }
    b.build()
}

/// Number of unique `(feature, vector)` range-query probes `query`
/// issues against `index` — the count a search compares with its
/// fan-out break-even (`DEFAULT_PARALLEL_FRAGMENT_THRESHOLD`).
pub fn unique_probes(index: &pis::index::FragmentIndex, query: &LabeledGraph) -> usize {
    let mut seen = Vec::new();
    for fragment in index.enumerate_query_fragments(query) {
        let probe = (fragment.feature, fragment.vector);
        if !seen.contains(&probe) {
            seen.push(probe);
        }
    }
    seen.len()
}

/// An outcome's answer distances as raw bits, for bit-exact comparison.
pub fn distance_bits(outcome: &SearchOutcome) -> Vec<u64> {
    outcome.answer_distances.iter().map(|d| d.to_bits()).collect()
}
