//! Oracle-equivalence suite for the bound-propagating verifier.
//!
//! [`VerifyScratch::distance_within`] prunes DFS branches with an
//! admissible remaining-cost lower bound and reuses its match plan and
//! buffers across candidates. These properties hold it **byte-identical**
//! (`f64::to_bits`) on random inputs to the exhaustive brute-force
//! oracle (`pis_distance::oracle::min_superimposed_distance_brute`),
//! filtered by the budget.
//!
//! Targets are *not* forced connected and may be smaller than the query,
//! so structural refutations (`None`) and disconnected inputs are part
//! of every run; one scratch serves every (query, target, σ) triple, so
//! state leakage across reuse would surface as a mismatch.

use pis_core::VerifyScratch;
use pis_distance::oracle::min_superimposed_distance_brute;
use pis_distance::{LinearDistance, MutationDistance, SuperimposedDistance};
use pis_graph::{EdgeAttr, GraphBuilder, Label, LabeledGraph, VertexAttr, VertexId};
use proptest::prelude::*;

/// Connected labeled graph: spanning tree plus extra edges, small label
/// vocabulary so collisions are common.
fn connected_graph(
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
            let mut next = 0usize;
            for i in 1..n {
                let p = parents[i - 1] % i;
                b.add_edge(vs[p], vs[i], EdgeAttr::labeled(Label(el[next])))
                    .expect("tree edges are fresh");
                next += 1;
            }
            for &(u, v) in &extra {
                if u != v {
                    let _ = b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label(el[next])));
                }
                next += 1;
            }
            b.build()
        })
    })
}

/// Possibly-disconnected target: random vertices plus a random edge
/// soup (self-loops and duplicates dropped). Small targets double as
/// no-match cases whenever the query is larger.
fn loose_graph(max_vertices: usize, label_count: u32) -> impl Strategy<Value = LabeledGraph> {
    (1..=max_vertices).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..=n + 2);
        let vlabels = proptest::collection::vec(0..label_count, n);
        let elabels = proptest::collection::vec(0..label_count, n + 2);
        (edges, vlabels, elabels).prop_map(move |(edges, vl, el)| {
            let mut b = GraphBuilder::new();
            let vs: Vec<VertexId> =
                (0..n).map(|i| b.add_vertex(VertexAttr::labeled(Label(vl[i])))).collect();
            for (k, &(u, v)) in edges.iter().enumerate() {
                if u != v {
                    let _ = b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label(el[k])));
                }
            }
            b.build()
        })
    })
}

/// Copies a graph, deriving numeric weights from the labels so linear
/// distances have something to measure. Weights are dyadic (multiples
/// of 0.5), so cost sums are exact and order-independent — bitwise
/// comparison stays meaningful.
fn weighted_from_labels(g: &LabeledGraph) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        let attr = g.vertex(v);
        b.add_vertex(VertexAttr { label: attr.label, weight: attr.label.0 as f64 * 0.5 });
    }
    for e in g.edges() {
        b.add_edge(
            e.source,
            e.target,
            EdgeAttr { label: e.attr.label, weight: 1.0 + e.attr.label.0 as f64 },
        )
        .expect("copying a simple graph");
    }
    b.build()
}

/// Checks one (query, target, σ) triple through a shared scratch
/// against the budget-filtered brute oracle, comparing raw `f64` bits.
fn assert_triple(
    scratch: &mut VerifyScratch,
    query: &LabeledGraph,
    target: &LabeledGraph,
    distance: &dyn SuperimposedDistance,
    sigma: f64,
) -> Result<(), TestCaseError> {
    let got = scratch.distance_within(query, target, distance, sigma);
    let brute = min_superimposed_distance_brute(query, target, distance).filter(|&d| d <= sigma);
    prop_assert_eq!(
        got.map(f64::to_bits),
        brute.map(f64::to_bits),
        "scratch vs brute oracle, sigma {}",
        sigma
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutation distances over mixed targets. σ spans zero (exact label
    /// match only), a small budget (pruning does real work) and a large
    /// one (nothing structural survives un-verified).
    #[test]
    fn verifier_matches_oracle_mutation(
        query in connected_graph(5, 2, 3),
        targets in proptest::collection::vec(loose_graph(6, 3), 1..6),
        unit in prop::sample::select(vec![false, true]),
    ) {
        let md = if unit { MutationDistance::unit() } else { MutationDistance::edge_hamming() };
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        for target in &targets {
            for sigma in [0.0, 1.5, 10.0] {
                assert_triple(&mut scratch, &query, target, &md, sigma)?;
            }
        }
    }

    /// Linear distances (numeric weights) through the same shared
    /// scratch, including the edges-only variant whose zero vertex scale
    /// takes the fast-path floor tables.
    #[test]
    fn verifier_matches_oracle_linear(
        query in connected_graph(4, 1, 3),
        targets in proptest::collection::vec(loose_graph(5, 3), 1..5),
        edges_only in prop::sample::select(vec![false, true]),
    ) {
        let ld = if edges_only { LinearDistance::edges_only() } else { LinearDistance::new() };
        let query = weighted_from_labels(&query);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        for target in &targets {
            let target = weighted_from_labels(target);
            for sigma in [0.0, 2.0, 12.0] {
                assert_triple(&mut scratch, &query, &target, &ld, sigma)?;
            }
        }
    }

    /// One scratch across a shifting workload of *queries* — every
    /// `begin_query` must fully rebuild the plan and floor tables, with
    /// no residue from the previous query or its targets.
    #[test]
    fn scratch_reuse_across_queries_is_clean(
        queries in proptest::collection::vec(connected_graph(5, 2, 3), 2..4),
        targets in proptest::collection::vec(loose_graph(6, 3), 1..5),
        sigmas in proptest::collection::vec(0.0f64..6.0, 1..3),
    ) {
        let md = MutationDistance::edge_hamming();
        let mut scratch = VerifyScratch::new();
        for query in &queries {
            scratch.begin_query(query);
            for target in &targets {
                for &sigma in &sigmas {
                    assert_triple(&mut scratch, query, target, &md, sigma)?;
                }
            }
        }
    }
}
