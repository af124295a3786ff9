//! Shared helpers and proptest strategies for the integration tests.
#![allow(
    dead_code,
    reason = "each test binary compiles this module independently; helpers unused by one binary are used by others"
)]

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
    let frags = query_fragments(index, query);
    let mut seen = Vec::new();
    for probe in (0..frags.len()).map(|i| (frags.feature(i), frags.vector(i))) {
        if !seen.contains(&probe) {
            seen.push(probe);
        }
    }
    seen.len()
}

/// The fragments of `query` that `index` enumerates for a search.
pub fn query_fragments(
    index: &pis::index::FragmentIndex,
    query: &LabeledGraph,
) -> pis::index::FragmentBuffer {
    let mut frags = pis::index::FragmentBuffer::new();
    index.enumerate_query_fragments_into(query, &mut frags);
    frags
}

/// The distance of each of `outcome`'s answers, recomputed by the
/// bounded verifier at `sigma` under `system`'s distance, as raw bits
/// for bit-exact comparison. The search only decides `d ≤ σ`, so this is
/// where a test reads an answer's distance; an answer without a
/// superposition within `sigma` fails the test here.
pub fn answer_distance_bits(
    system: &PisSystem,
    query: &LabeledGraph,
    outcome: &SearchOutcome,
    sigma: f64,
) -> Vec<u64> {
    let distance = system.index().distance().as_dyn();
    let mut verify = VerifyScratch::new();
    verify.begin_query(query);
    outcome
        .answers
        .iter()
        .map(|&g| {
            verify
                .distance_within(query, system.graph(g), distance, sigma)
                .unwrap_or_else(|| panic!("answer {g} has no superposition within sigma {sigma}"))
                .to_bits()
        })
        .collect()
}

/// σ for the oracle properties: half the draws are the integers 0–4,
/// where edge-Hamming distances tie with σ and a bound one ulp too high
/// flips the answer; the rest are arbitrary reals in `[0, 4)`.
pub fn sigma() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..4.0).prop_map(|(k, x)| if k < 5 { f64::from(k) } else { x })
}

/// Rebuilds fragment `i` of a mutation-distance index's `frags` as a
/// standalone labeled graph (the fragment's label vector in the
/// feature's canonical layout: stored edge slots, then stored vertex
/// slots; label 0 where a kind is not stored, which the distance does
/// not price) — what the definition measures a range query from.
pub fn fragment_as_graph(
    index: &pis::index::FragmentIndex,
    frags: &pis::index::FragmentBuffer,
    i: usize,
) -> LabeledGraph {
    let feature = index.features().get(frags.feature(i));
    let (edge_slots, vertex_slots) = index.distance().slots(&feature.structure);
    let v = frags.vector(i).labels();
    let label = |stored: bool, slot: usize| if stored { v[slot] } else { Label(0) };
    let mut b = GraphBuilder::new();
    for (i, _) in feature.structure.vertex_ids().enumerate() {
        b.add_vertex(VertexAttr::labeled(label(vertex_slots > 0, edge_slots + i)));
    }
    for (j, e) in feature.structure.edges().iter().enumerate() {
        b.add_edge(e.source, e.target, EdgeAttr::labeled(label(edge_slots > 0, j)))
            .expect("feature is simple");
    }
    b.build()
}

/// Shrinks a failing `(db, query)` case for a readable report. `fails`
/// re-runs the property and returns its failure message, if any. While
/// some one-step reduction still fails — one database graph dropped; one
/// edge or vertex dropped from the query (kept connected and non-empty)
/// or from a database graph; one label moved one step toward 0 — the
/// first such reduction replaces the case. Returns the case no single
/// step shrinks further, with its message.
pub fn shrink_case(
    mut db: Vec<LabeledGraph>,
    mut query: LabeledGraph,
    mut message: String,
    fails: impl Fn(&[LabeledGraph], &LabeledGraph) -> Option<String>,
) -> (Vec<LabeledGraph>, LabeledGraph, String) {
    'shrink: loop {
        let mut cases: Vec<(Vec<LabeledGraph>, LabeledGraph)> = (0..db.len())
            .map(|i| {
                let mut fewer = db.clone();
                fewer.remove(i);
                (fewer, query.clone())
            })
            .collect();
        for q in reductions(&query) {
            if q.vertex_count() > 0 && q.is_connected() {
                cases.push((db.clone(), q));
            }
        }
        for (i, g) in db.iter().enumerate() {
            for smaller in reductions(g) {
                let mut next = db.clone();
                next[i] = smaller;
                cases.push((next, query.clone()));
            }
        }
        for (next_db, next_query) in cases {
            if let Some(m) = fails(&next_db, &next_query) {
                (db, query, message) = (next_db, next_query, m);
                continue 'shrink;
            }
        }
        return (db, query, message);
    }
}

/// Every one-step reduction of `g`: one edge dropped, one vertex dropped
/// (with its edges), or one nonzero label lowered by one.
fn reductions(g: &LabeledGraph) -> Vec<LabeledGraph> {
    let lower = |l: Label| Label(l.0 - 1);
    let mut out: Vec<LabeledGraph> = g
        .edge_ids()
        .map(|drop| rebuild(g, |_, a| Some(a), |e, a| (e != drop).then_some(a)))
        .collect();
    for drop in g.vertex_ids() {
        out.push(rebuild(g, |v, a| (v != drop).then_some(a), |_, a| Some(a)));
    }
    for at in g.vertex_ids().filter(|&v| g.vertex(v).label.0 > 0) {
        out.push(rebuild(
            g,
            |v, a| Some(if v == at { VertexAttr { label: lower(a.label), ..a } } else { a }),
            |_, a| Some(a),
        ));
    }
    for at in g.edge_ids().filter(|&e| g.edge(e).attr.label.0 > 0) {
        out.push(rebuild(
            g,
            |_, a| Some(a),
            |e, a| Some(if e == at { EdgeAttr { label: lower(a.label), ..a } } else { a }),
        ));
    }
    out
}

/// `g` with each vertex and edge passed through `vertex` / `edge`:
/// `None` drops it, and an edge goes with either endpoint.
fn rebuild(
    g: &LabeledGraph,
    vertex: impl Fn(VertexId, VertexAttr) -> Option<VertexAttr>,
    edge: impl Fn(EdgeId, EdgeAttr) -> Option<EdgeAttr>,
) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<Option<VertexId>> =
        g.vertex_ids().map(|v| vertex(v, g.vertex(v)).map(|a| b.add_vertex(a))).collect();
    for e in g.edge_ids() {
        let old = g.edge(e);
        let (u, v) = (ids[old.source.index()], ids[old.target.index()]);
        if let (Some(u), Some(v), Some(attr)) = (u, v, edge(e, old.attr)) {
            b.add_edge(u, v, attr).expect("a subgraph of a simple graph is simple");
        }
    }
    b.build()
}
