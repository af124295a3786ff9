//! Oracle-equivalence suite for the bound-propagating verifier.
//!
//! [`VerifyScratch::distance_within`] prunes DFS branches with an
//! admissible remaining-cost lower bound and reuses its match plan and
//! buffers across candidates. These properties hold it **byte-identical**
//! (`f64::to_bits`) on random inputs to the exhaustive brute-force
//! oracle (`pis_distance::oracle::min_superimposed_distance_brute`),
//! filtered by the budget.
//!
//! [`VerifyScratch::within`], the decision the search and the baselines
//! run, is held to the oracle's membership (`sssd_brute`) at σ drawn
//! from the oracle's own distances, to `distance_within(…).is_some()`
//! under costs whose sums round, and under a small node budget to never
//! return a wrong `Ok`.
//!
//! Targets are *not* forced connected and may be smaller than the query,
//! so structural refutations (`None`) and disconnected inputs are part
//! of every run; one scratch serves every (query, target, σ) triple, so
//! state leakage across reuse would surface as a mismatch.

use pis_core::VerifyScratch;
use pis_distance::oracle::{min_superimposed_distance_brute, sssd_brute};
use pis_distance::{LinearDistance, MutationDistance, ScoreMatrix, SuperimposedDistance};
use pis_graph::budget::{BudgetState, QueryBudget};
use pis_graph::{EdgeAttr, GraphBuilder, Label, LabeledGraph, VertexAttr, VertexId};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

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

/// Bipartite target: two sides of 6–8 vertices, each cross pair joined
/// with probability 4/5, and in half the cases a pentagon of fresh
/// vertices after them. A query pentagon embeds only in that tail, but
/// the matcher learns that a bipartite root holds no odd cycle only when
/// it closes the cycle, so each decision runs past the budget checkpoint
/// interval — refutations and, through the tail's later ids, answers.
fn bipartite_graph(label_count: u32) -> impl Strategy<Value = LabeledGraph> {
    (6usize..=8, 6usize..=8).prop_flat_map(move |(a, b)| {
        let keep = proptest::collection::vec(0u8..5, a * b);
        let vlabels = proptest::collection::vec(0..label_count, a + b);
        let elabels = proptest::collection::vec(0..label_count, a * b);
        let tail = prop::sample::select(vec![false, true]);
        (keep, vlabels, elabels, tail).prop_map(move |(keep, vl, el, tail)| {
            let mut g = GraphBuilder::new();
            let vs: Vec<VertexId> =
                (0..a + b).map(|i| g.add_vertex(VertexAttr::labeled(Label(vl[i])))).collect();
            for i in 0..a {
                for j in 0..b {
                    if keep[i * b + j] != 0 {
                        g.add_edge(vs[i], vs[a + j], EdgeAttr::labeled(Label(el[i * b + j])))
                            .expect("each pair once");
                    }
                }
            }
            if tail {
                let ring = g.add_vertices(5, VertexAttr::labeled(Label(0)));
                for k in 0..5 {
                    g.add_edge(ring[k], ring[(k + 1) % 5], EdgeAttr::labeled(Label(0)))
                        .expect("ring is simple");
                }
            }
            g.build()
        })
    })
}

/// A ring with the given edge labels (vertex labels 0).
fn ring(edge_labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = edge_labels.len();
    let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
    for (i, &l) in edge_labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).expect("ring is simple");
    }
    b.build()
}

/// The σ values where a decision can go wrong: every distance of the
/// query to a target (a tie at σ), plus the integers 0–4.
fn tie_sigmas(
    query: &LabeledGraph,
    targets: &[LabeledGraph],
    distance: &dyn SuperimposedDistance,
) -> Vec<f64> {
    let mut sigmas: Vec<f64> = targets
        .iter()
        .filter_map(|t| min_superimposed_distance_brute(query, t, distance))
        .chain((0..=4).map(f64::from))
        .collect();
    sigmas.sort_by(f64::total_cmp);
    sigmas.dedup();
    sigmas
}

/// A mutation distance whose costs (0.1, 0.2, 0.3, 0.7, by a symmetric
/// hash of the two labels) are not dyadic, so sums in different orders
/// can round apart.
fn non_dyadic_distance() -> MutationDistance {
    const COSTS: [f64; 4] = [0.1, 0.2, 0.3, 0.7];
    let scores = || {
        ScoreMatrix::from_fn(4, 0.7, |a, b| {
            if a == b {
                0.0
            } else {
                COSTS[((a.0 * b.0 + a.0 + b.0) % 4) as usize]
            }
        })
        .expect("symmetric, zero diagonal, non-negative")
    };
    MutationDistance::new(scores(), scores())
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

    /// The decision is the definition's membership: at every σ where
    /// the query ties a target's distance, and at the integers 0–4,
    /// `within` answers exactly the graphs `sssd_brute` answers, under
    /// edge-Hamming, unit and a linear distance.
    #[test]
    fn within_matches_oracle_membership(
        query in connected_graph(5, 2, 3),
        targets in proptest::collection::vec(loose_graph(6, 3), 1..6),
        kind in 0u8..3,
    ) {
        let (query, targets, distance): (_, Vec<_>, Box<dyn SuperimposedDistance>) = match kind {
            0 => (query, targets, Box::new(MutationDistance::edge_hamming())),
            1 => (query, targets, Box::new(MutationDistance::unit())),
            _ => (
                weighted_from_labels(&query),
                targets.iter().map(weighted_from_labels).collect(),
                Box::new(LinearDistance::new()),
            ),
        };
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        for sigma in tie_sigmas(&query, &targets, &*distance) {
            let got: Vec<usize> = (0..targets.len())
                .filter(|&i| scratch.within(&query, &targets[i], &*distance, sigma))
                .collect();
            prop_assert_eq!(got, sssd_brute(&targets, &query, &*distance, sigma), "sigma {}", sigma);
        }
    }

    /// Under costs whose sums round, the decision still equals the
    /// minimising search's `is_some()` on every pair, at the σ values
    /// where they could part: the two run the same DFS under the same
    /// bound up to the first completion. This is what keeps every
    /// answer of the search as it was; whether both agree with the
    /// oracle at such ties is a question for the bound, not for the
    /// decision.
    #[test]
    fn within_decides_like_distance_within_under_non_dyadic_costs(
        query in connected_graph(5, 2, 4),
        targets in proptest::collection::vec(loose_graph(6, 4), 1..6),
    ) {
        let md = non_dyadic_distance();
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        for sigma in tie_sigmas(&query, &targets, &md) {
            for (i, target) in targets.iter().enumerate() {
                let decided = scratch.within(&query, target, &md, sigma);
                let measured = scratch.distance_within(&query, target, &md, sigma);
                prop_assert_eq!(decided, measured.is_some(), "target {} sigma {}", i, sigma);
            }
        }
    }
}

/// Under a node budget small enough to trip inside the DFS, the budgeted
/// decision is the oracle's membership whenever it answers `Ok`: a trip
/// is `Err`, never a guess.
#[test]
fn within_budgeted_never_returns_a_wrong_ok() {
    let strategy = (
        connected_graph(6, 2, 2),
        proptest::collection::vec(0u32..2, 5),
        proptest::collection::vec(bipartite_graph(2), 1..4),
        0u64..3_000,
        prop::sample::select(vec![1.0, 2.0, 4.0]),
    );
    let (mut decided, mut interrupted) = (0, [0; 2]);
    let mut runner = TestRunner::new_for_test(
        ProptestConfig::with_cases(48),
        concat!(module_path!(), "::within_budgeted_never_returns_a_wrong_ok"),
    );
    let md = MutationDistance::edge_hamming();
    runner.run(&strategy, |(query, ring_labels, targets, limit, sigma)| {
        // Every other case asks for a pentagon, which only a target's
        // tail holds.
        let query = if limit % 2 == 0 { query } else { ring(&ring_labels) };
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        for target in &targets {
            let budget = BudgetState::new(&QueryBudget {
                node_limit: Some(limit),
                ..QueryBudget::default()
            });
            let exact =
                min_superimposed_distance_brute(&query, target, &md).is_some_and(|d| d <= sigma);
            match scratch.within_budgeted(&query, target, &md, sigma, &budget) {
                Ok(within) => {
                    decided += 1;
                    prop_assert_eq!(within, exact, "node limit {} sigma {}", limit, sigma);
                }
                Err(_) => {
                    interrupted[usize::from(exact)] += 1;
                    prop_assert!(budget.is_tripped(), "an interruption trips the budget");
                }
            }
        }
        Ok(())
    });
    // Both kinds of wrong `Ok` had their chance: the budget cut short
    // refutations and decisions whose answer is yes.
    assert!(
        decided > 0 && interrupted.iter().all(|&n| n > 0),
        "{decided} decided; interrupted: {} refutations, {} answers",
        interrupted[0],
        interrupted[1]
    );
}
