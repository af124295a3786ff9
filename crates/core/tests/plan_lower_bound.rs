//! The verifier's remaining-cost bound, checked exhaustively through the
//! verifier itself.
//!
//! [`VerifyScratch::distance_within`] prunes a DFS branch when the cost
//! paid plus a per-depth floor (vertex floors plus the larger of the edge
//! floors and the label deficit, then forward checking) exceeds the
//! bound. That is lossless only if the floor never exceeds what a
//! completion actually pays, so a floor that overshoots anywhere shows as
//! a wrong answer. These tests enumerate *every* simple target graph on 4
//! and 5 vertices (all edge subsets of `K4`/`K5`, plus two dense
//! six-vertex targets), run a pattern family against each at every
//! σ ∈ {0, 1, 2, 3}, and hold the verifier to the brute-force minimum
//! superimposed distance, f64 bits included. Costs are `|a − b|` on
//! three labels, so distances are small integers and a bound one too
//! tight flips a tie.

use pis_core::VerifyScratch;
use pis_distance::oracle::min_superimposed_distance_brute;
use pis_distance::{MutationDistance, ScoreMatrix};
use pis_graph::{EdgeAttr, GraphBuilder, Label, LabeledGraph, VertexAttr};

/// Vertex and edge costs `|a − b|` on labels 0–2.
fn distance() -> MutationDistance {
    let scores = || {
        ScoreMatrix::from_fn(3, 2.0, |a, b| (a.0 as f64 - b.0 as f64).abs())
            .expect("symmetric, zero diagonal, non-negative")
    };
    MutationDistance::new(scores(), scores())
}

/// Builds the graph on `n` vertices with the given edges; labels are a
/// deterministic function of position so different edge subsets get
/// different-but-collision-rich labelings.
fn labeled(n: usize, edges: &[(usize, usize)], scheme: u32) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs: Vec<_> =
        (0..n).map(|i| b.add_vertex(VertexAttr::labeled(Label((i as u32 + scheme) % 3)))).collect();
    for &(u, v) in edges {
        b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label((u as u32 + v as u32 + scheme) % 3)))
            .expect("edge subsets are simple");
    }
    b.build()
}

/// All simple graphs on exactly `n` vertices: one graph per subset of
/// the `n(n-1)/2` possible edges.
fn all_graphs(n: usize, scheme: u32) -> Vec<LabeledGraph> {
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
    (0u32..1 << pairs.len())
        .map(|mask| {
            let edges: Vec<(usize, usize)> = pairs
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| p)
                .collect();
            labeled(n, &edges, scheme)
        })
        .collect()
}

/// The pattern family: every connected graph on 2–3 vertices plus two
/// 4-vertex shapes (path and triangle-with-tail), under both label
/// schemes.
fn patterns() -> Vec<LabeledGraph> {
    let mut out = Vec::new();
    for scheme in [0, 1] {
        out.push(labeled(2, &[(0, 1)], scheme));
        out.push(labeled(3, &[(0, 1), (1, 2)], scheme));
        out.push(labeled(3, &[(0, 1), (0, 2)], scheme));
        out.push(labeled(3, &[(0, 1), (1, 2), (0, 2)], scheme));
        out.push(labeled(4, &[(0, 1), (1, 2), (2, 3)], scheme));
        out.push(labeled(4, &[(0, 1), (1, 2), (0, 2), (2, 3)], scheme));
    }
    out
}

/// Every pattern against every target at every σ: the verifier (one
/// scratch per pattern, reused across targets) returns the brute-force
/// distance when it is within σ and `None` otherwise, to the f64 bit.
fn assert_verifier_is_brute(targets: &[LabeledGraph]) {
    let md = distance();
    for pattern in &patterns() {
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(pattern);
        for target in targets {
            let brute = min_superimposed_distance_brute(pattern, target, &md);
            for sigma in [0.0, 1.0, 2.0, 3.0] {
                assert_eq!(
                    scratch.distance_within(pattern, target, &md, sigma).map(f64::to_bits),
                    brute.filter(|&d| d <= sigma).map(f64::to_bits),
                    "sigma {sigma}, pattern {pattern:?}, target {target:?}"
                );
            }
        }
    }
}

#[test]
fn suffix_bound_is_admissible_on_all_4_vertex_targets() {
    let mut targets = all_graphs(4, 0);
    targets.extend(all_graphs(4, 1));
    assert_verifier_is_brute(&targets);
}

#[test]
fn suffix_bound_is_admissible_on_all_5_vertex_targets() {
    assert_verifier_is_brute(&all_graphs(5, 0));
}

#[test]
fn suffix_bound_is_admissible_on_dense_6_vertex_targets() {
    // All 2^15 six-vertex graphs would dominate the suite's runtime;
    // K6 and K6-minus-a-perfect-matching cover the embedding-richest
    // ones, where a too-tight bound has the most chances to overshoot.
    let complete: Vec<(usize, usize)> =
        (0..6).flat_map(|u| (u + 1..6).map(move |v| (u, v))).collect();
    let minus_matching: Vec<(usize, usize)> =
        complete.iter().copied().filter(|&e| ![(0, 1), (2, 3), (4, 5)].contains(&e)).collect();
    let targets: Vec<LabeledGraph> = [0, 1]
        .into_iter()
        .flat_map(|scheme| [&complete, &minus_matching].map(|edges| labeled(6, edges, scheme)))
        .collect();
    assert_verifier_is_brute(&targets);
}

#[test]
fn no_compatible_image_floors_to_infinity() {
    // A 3-star pattern needs a degree-3 target vertex. A 4-cycle has
    // enough vertices and edges but none of degree 3, so the center's
    // floor — and the whole bound — is infinite: the verifier refutes
    // the pair before its DFS places a single vertex.
    let star = labeled(4, &[(0, 1), (0, 2), (0, 3)], 0);
    let square = labeled(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], 0);
    let md = distance();
    assert_eq!(min_superimposed_distance_brute(&star, &square, &md), None);
    let mut scratch = VerifyScratch::new();
    scratch.begin_query(&star);
    assert_eq!(scratch.distance_within(&star, &square, &md, 100.0), None);
    let stats = scratch.take_stats();
    assert_eq!((stats.calls, stats.prechecked, stats.nodes_expanded), (1, 1, 0));
}
