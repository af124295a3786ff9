//! The mask-native partition stage held to its definitions.
//!
//! Every property compares against a brute-force reading of the paper,
//! never against a second implementation: two fragments of `Q̃` are
//! adjacent iff their vertex sets intersect; every solver returns an
//! independent set; Greedy (Algorithm 1) picks the heaviest uncovered
//! node, lowest index on ties, until every node is covered, and
//! EnhancedGreedy(1) is Greedy; `Exact`'s weight equals enumeration of
//! every subset and is at least both greedy weights. Inputs span vertex
//! ids below and far beyond any fixed-width mask, duplicate vertices,
//! empty sets, multi-word (>64- and >128-node) instances and zero-weight
//! nodes.

use pis_graph::budget::BudgetState;
use pis_graph::VertexId;
use pis_partition::{
    enhanced_greedy_mwis_with, exact_mwis_budgeted_with, greedy_mwis_with, selection_weight,
    OverlapGraph, PartitionScratch, EXACT_MWIS_MAX_NODES,
};
use proptest::prelude::*;

/// `Q̃` from `(weight, vertex set)` pairs, built as the search builds it.
fn overlap(fragments: &[(f64, Vec<VertexId>)]) -> OverlapGraph {
    let mut graph = OverlapGraph::default();
    let sets = fragments.iter().map(|(w, vs)| (*w, vs.as_slice()));
    graph.rebuild_from_sets(&mut PartitionScratch::new(), sets);
    graph
}

/// The exact solver under the unlimited budget, which always finishes.
fn exact(graph: &OverlapGraph) -> Vec<usize> {
    let (mut scratch, mut selection) = (PartitionScratch::new(), Vec::new());
    let unlimited = BudgetState::unlimited();
    assert!(exact_mwis_budgeted_with(graph, &mut scratch, &mut selection, unlimited));
    selection
}

/// `selection` names distinct nodes below `n`, no two of them adjacent.
fn independent(n: usize, adjacent: &impl Fn(usize, usize) -> bool, selection: &[usize]) -> bool {
    selection
        .iter()
        .enumerate()
        .all(|(i, &u)| u < n && selection[i + 1..].iter().all(|&v| u != v && !adjacent(u, v)))
}

/// Holds `selection` to Algorithm 1: each pick is the heaviest node not
/// yet covered (picked, or next to a pick), the lowest index on ties,
/// and picking stops only once every node is covered.
fn assert_greedy_rule(
    weights: &[f64],
    adjacent: &impl Fn(usize, usize) -> bool,
    selection: &[usize],
) -> Result<(), TestCaseError> {
    let covered = |picks: &[usize], v: usize| picks.iter().any(|&p| p == v || adjacent(p, v));
    for (i, &v) in selection.iter().enumerate() {
        let picks = &selection[..i];
        let rule = (0..weights.len()).filter(|&u| !covered(picks, u)).fold(
            None,
            |best: Option<usize>, u| match best {
                Some(b) if weights[b] >= weights[u] => Some(b),
                _ => Some(u),
            },
        );
        prop_assert_eq!(Some(v), rule, "pick {} of {:?}", i, selection);
    }
    prop_assert!(
        (0..weights.len()).all(|u| covered(selection, u)),
        "greedy stopped early: {:?}",
        selection
    );
    Ok(())
}

/// The maximum independent-set weight by enumerating every subset.
fn brute_mwis_weight(weights: &[f64], adjacent: &impl Fn(usize, usize) -> bool) -> f64 {
    let n = weights.len();
    let neighbors: Vec<u32> =
        (0..n).map(|u| (0..n).filter(|&v| adjacent(u, v)).fold(0, |m, v| m | 1 << v)).collect();
    (0u32..1 << n)
        .filter(|&set| (0..n).all(|v| set >> v & 1 == 0 || neighbors[v] & set == 0))
        .map(|set| (0..n).filter(|&v| set >> v & 1 == 1).map(|v| weights[v]).sum())
        .fold(0.0, f64::max)
}

/// `Q̃` from raw draws (endpoints folded into range, self-loops
/// dropped, repeats allowed) and its adjacency from the definition: the
/// edge list as drawn.
fn instance(
    weights: &[f64],
    raw_edges: &[(usize, usize)],
) -> (OverlapGraph, impl Fn(usize, usize) -> bool) {
    let n = weights.len();
    let edges: Vec<(usize, usize)> = raw_edges
        .iter()
        .filter(|_| n >= 2)
        .map(|&(a, b)| (a % n, b % n))
        .filter(|&(u, v)| u != v)
        .collect();
    let mut matrix = vec![false; n * n];
    for &(u, v) in &edges {
        matrix[u * n + v] = true;
        matrix[v * n + u] = true;
    }
    (OverlapGraph::from_parts(weights.to_vec(), edges), move |u: usize, v: usize| matrix[u * n + v])
}

/// Greedy, EnhancedGreedy(1) and EnhancedGreedy(2) on one instance,
/// through one scratch: independent, Greedy by Algorithm 1's rule,
/// EnhancedGreedy(1) equal to it, and EnhancedGreedy(2) maximal too.
/// Returns the Greedy and EnhancedGreedy(2) selections.
fn assert_greedy_solvers(
    graph: &OverlapGraph,
    weights: &[f64],
    adjacent: &impl Fn(usize, usize) -> bool,
) -> Result<[Vec<usize>; 2], TestCaseError> {
    let n = weights.len();
    let (mut scratch, [mut greedy, mut k1, mut k2]) = (PartitionScratch::new(), Default::default());
    greedy_mwis_with(graph, &mut scratch, &mut greedy);
    enhanced_greedy_mwis_with(graph, 1, &mut scratch, &mut k1);
    enhanced_greedy_mwis_with(graph, 2, &mut scratch, &mut k2);
    prop_assert!(independent(n, adjacent, &greedy), "greedy {:?}", greedy);
    assert_greedy_rule(weights, adjacent, &greedy)?;
    prop_assert_eq!(&k1, &greedy);
    prop_assert!(independent(n, adjacent, &k2), "enhanced(2) {:?}", k2);
    prop_assert!(
        (0..n).all(|u| k2.iter().any(|&p| p == u || adjacent(p, u))),
        "enhanced(2) stopped early: {:?}",
        k2
    );
    Ok([greedy, k2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Incidence-built mask adjacency equals the definition — nodes are
    /// adjacent iff their vertex sets share a vertex — across mixed
    /// vertex-id ranges (small dense ids force duplicates and heavy
    /// sharing; ids near `u32::MAX` would overflow any fixed-width mask
    /// of vertex ids), duplicate vertices inside a set, and empty sets.
    #[test]
    fn mask_adjacency_matches_sorted_merge(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..40, 0..6),
            0..50,
        ),
        wide_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..4_000_000_000, 0..4),
            0..10,
        ),
    ) {
        let mut all = sets;
        all.extend(wide_sets);
        let frags: Vec<(f64, Vec<VertexId>)> =
            all.iter().map(|vs| (1.0, vs.iter().map(|&v| VertexId(v)).collect())).collect();
        let mask = overlap(&frags);
        prop_assert_eq!(mask.len(), all.len());
        for u in 0..all.len() {
            let expected: Vec<usize> = (0..all.len())
                .filter(|&v| v != u && all[u].iter().any(|x| all[v].contains(x)))
                .collect();
            prop_assert_eq!(mask.neighbors(u).collect::<Vec<_>>(), expected, "node {}", u);
        }
    }

    /// Greedy and EnhancedGreedy(k) against their definitions, including
    /// >128-node (multi-word) instances and zero-weight nodes.
    #[test]
    fn greedy_solvers_match_pointer_reference(
        weights in proptest::collection::vec(
            prop::sample::select(vec![0.0, 0.25, 0.5, 1.0, 1.5, 4.0]),
            0..150,
        ),
        raw_edges in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..500),
    ) {
        let (graph, adjacent) = instance(&weights, &raw_edges);
        assert_greedy_solvers(&graph, &weights, &adjacent)?;
    }

    /// Exact branch-and-bound on instances small enough to enumerate:
    /// an independent set whose weight is the brute-force optimum, and at
    /// least what either greedy solver finds. Weights are dyadic, so
    /// every sum is exact in any order.
    #[test]
    fn exact_solver_matches_pointer_reference(
        weights in proptest::collection::vec(
            prop::sample::select(vec![0.0, 0.5, 1.0, 2.5, 7.0]),
            0..15,
        ),
        raw_edges in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..60),
    ) {
        let (graph, adjacent) = instance(&weights, &raw_edges);
        let opt = exact(&graph);
        prop_assert!(independent(weights.len(), &adjacent, &opt), "exact {:?}", opt);
        prop_assert!(opt.windows(2).all(|w| w[0] < w[1]), "exact selection is sorted");
        let weight = selection_weight(&graph, &opt);
        prop_assert_eq!(weight, brute_mwis_weight(&weights, &adjacent));
        let [greedy, k2] = assert_greedy_solvers(&graph, &weights, &adjacent)?;
        prop_assert!(weight >= selection_weight(&graph, &greedy));
        prop_assert!(weight >= selection_weight(&graph, &k2));
    }

    /// Exact on multi-word (>64-node) instances: a clique plus isolated
    /// nodes, whose one optimum — the clique's heavy node and every
    /// isolated node — is known, and which keeps the branch-and-bound
    /// linear while the masks span two words.
    #[test]
    fn exact_solver_matches_reference_past_64_nodes(
        clique in 60usize..EXACT_MWIS_MAX_NODES - 8,
        isolated in 0usize..8,
        heavy in 0usize..60,
    ) {
        let n = clique + isolated;
        let mut weights = vec![1.0; n];
        weights[heavy % clique] = 3.0;
        let edges: Vec<(usize, usize)> =
            (0..clique).flat_map(|u| (u + 1..clique).map(move |v| (u, v))).collect();
        let graph = OverlapGraph::from_parts(weights, edges);
        let expected: Vec<usize> = std::iter::once(heavy % clique).chain(clique..n).collect();
        prop_assert_eq!(exact(&graph), expected);
    }
}

/// Construction and solvers end to end on fragment vertex sets: 140
/// interval fragments over a long path of query vertices (node `i`
/// covers `{i, i+1, i+2}`), so `Q̃` is a band graph — nodes adjacent iff
/// at most 2 apart — needing multi-word rows.
#[test]
fn end_to_end_sets_to_selection_agreement() {
    let weights: Vec<f64> = (0..140).map(|i| 0.5 + (i % 7) as f64 * 0.3).collect();
    let frags: Vec<(f64, Vec<VertexId>)> = (0..140u32)
        .map(|i| (weights[i as usize], vec![VertexId(i), VertexId(i + 1), VertexId(i + 2)]))
        .collect();
    let graph = overlap(&frags);
    let adjacent = |u: usize, v: usize| u != v && u.abs_diff(v) <= 2;
    for u in 0..140 {
        let expected: Vec<usize> = (0..140).filter(|&v| adjacent(u, v)).collect();
        assert_eq!(graph.neighbors(u).collect::<Vec<_>>(), expected, "node {u}");
    }
    assert_greedy_solvers(&graph, &weights, &adjacent).unwrap();
}
