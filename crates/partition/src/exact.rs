//! Exact maximum weighted independent set, mask-native.
//!
//! Branch-and-bound over the node set: branch on the highest-degree
//! remaining node (include — dropping its closed neighborhood — or
//! exclude), pruning when the current weight plus all remaining weight
//! cannot beat the incumbent. Exponential worst case; intended for the
//! small overlapping-relation graphs of real queries (tens of nodes) and
//! for measuring the greedy algorithms' optimality ratio (ablation A1).
//!
//! The alive set is a multi-word mask held in a depth-indexed arena:
//! the bound and the pivot come from one bit-scan (popcounting
//! `neighbor_mask(v) & alive` per live node), and including the pivot
//! removes its closed neighborhood with a single word-parallel AND-NOT
//! into the next arena level. The pivot rule (`max_by_key` keeps the
//! *last* maximum) fixes which of several optimal sets is returned; the
//! tests hold its weight to brute-force enumeration.

use pis_graph::budget::{BudgetState, CheckpointSite};

use crate::overlap::OverlapGraph;
use crate::scratch::{mask_and_count, mask_clear, PartitionScratch, BITS};

/// Upper bound on the instance size accepted by [`exact_mwis_budgeted_with`].
pub const EXACT_MWIS_MAX_NODES: usize = 128;

/// Computes an exact MWIS in caller-owned working memory under a query
/// budget: `selection` is cleared and filled with the optimal node
/// indices (sorted). Charges one [`CheckpointSite::Partition`] unit per
/// branch-and-bound node and returns whether the search ran to
/// optimality ([`BudgetState::unlimited`] always does). On `false` the
/// selection holds the incumbent found so far — callers degrade to a
/// greedy solve instead of trusting it.
///
/// # Panics
/// Panics if the graph has more than [`EXACT_MWIS_MAX_NODES`] nodes.
pub fn exact_mwis_budgeted_with(
    graph: &OverlapGraph,
    scratch: &mut PartitionScratch,
    selection: &mut Vec<usize>,
    budget: &BudgetState,
) -> bool {
    assert!(
        graph.len() <= EXACT_MWIS_MAX_NODES,
        "exact MWIS capped at {EXACT_MWIS_MAX_NODES} nodes ({} given)",
        graph.len()
    );
    let wpr = graph.words_per_row();
    scratch.stack.clear();
    scratch.stack.resize(wpr, 0);
    for wi in 0..wpr {
        scratch.stack[wi] = graph.full_row_word(wi);
    }
    scratch.current.clear();
    scratch.incumbent.clear();
    let mut best_weight = f64::NEG_INFINITY;
    let completed = branch(
        graph,
        &mut scratch.stack,
        0,
        0.0,
        &mut scratch.current,
        &mut scratch.incumbent,
        &mut best_weight,
        budget,
    );
    selection.clear();
    selection.extend_from_slice(&scratch.incumbent);
    selection.sort_unstable();
    completed
}

/// One branch-and-bound node; the alive mask lives at arena level
/// `depth` (`stack[depth*wpr..(depth+1)*wpr]`). Excluding the pivot
/// mutates the current level in place and recurses at the same depth —
/// every call removes at least one vertex, so nesting is bounded by the
/// node count. Returns `false` when the budget tripped and the search
/// unwound without exploring its remaining subtree.
#[expect(
    clippy::too_many_arguments,
    reason = "recursion over the branch-and-bound state split into separate borrows"
)]
fn branch(
    graph: &OverlapGraph,
    stack: &mut Vec<u64>,
    depth: usize,
    current_weight: f64,
    current: &mut Vec<usize>,
    best: &mut Vec<usize>,
    best_weight: &mut f64,
    budget: &BudgetState,
) -> bool {
    if !budget.checkpoint(CheckpointSite::Partition, 1) {
        return false;
    }
    let wpr = graph.words_per_row();
    // Bound first, from a cheap weight-only bit-scan (ascending node
    // order, like the reference): even taking every remaining node
    // cannot beat the incumbent. Bound-pruned calls dominate the search
    // tree, so the per-node degree popcounts below must not run here.
    let mut remaining_weight = 0.0;
    {
        let alive = &stack[depth * wpr..(depth + 1) * wpr];
        for (wi, &word) in alive.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = wi * BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                remaining_weight += graph.weight(v);
            }
        }
    }
    if current_weight + remaining_weight <= *best_weight {
        return true;
    }
    // Pivot: highest alive-degree node via AND+popcount per live node
    // (`>=` keeps the last maximum, matching the reference's
    // `max_by_key`).
    let mut pivot: Option<usize> = None;
    let mut pivot_degree = 0;
    {
        let alive = &stack[depth * wpr..(depth + 1) * wpr];
        for (wi, &word) in alive.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = wi * BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let degree = mask_and_count(graph.neighbor_mask(v), alive);
                if pivot.is_none() || degree >= pivot_degree {
                    pivot = Some(v);
                    pivot_degree = degree;
                }
            }
        }
    }
    let Some(v) = pivot else {
        if current_weight > *best_weight {
            *best_weight = current_weight;
            best.clone_from(current);
        }
        return true;
    };

    // Include v: the next arena level gets alive minus v's closed
    // neighborhood in one AND-NOT pass.
    if stack.len() < (depth + 2) * wpr {
        stack.resize((depth + 2) * wpr, 0);
    }
    let (level, rest) = stack[depth * wpr..].split_at_mut(wpr);
    let neighbors = graph.neighbor_mask(v);
    for wi in 0..wpr {
        rest[wi] = level[wi] & !neighbors[wi];
    }
    mask_clear(&mut rest[..wpr], v);
    current.push(v);
    let completed = branch(
        graph,
        stack,
        depth + 1,
        current_weight + graph.weight(v),
        current,
        best,
        best_weight,
        budget,
    );
    current.pop();
    if !completed {
        return false;
    }

    // Exclude v: drop it from the current level and continue in place.
    mask_clear(&mut stack[depth * wpr..(depth + 1) * wpr], v);
    branch(graph, stack, depth, current_weight, current, best, best_weight, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection_weight;
    use crate::solve::{exact, greedy};

    #[test]
    fn path_instance() {
        let g = OverlapGraph::from_parts(
            vec![4.0, 2.0, 1.0, 10.0, 6.0, 7.0, 3.0],
            (0..6).map(|i| (i, i + 1)).collect(),
        );
        let opt = exact(&g);
        assert!(g.is_independent(&opt));
        assert_eq!(selection_weight(&g, &opt), 21.0); // {w1, w4, w6}
    }

    #[test]
    fn star_instance_prefers_leaves() {
        let g = OverlapGraph::from_parts(vec![2.0, 1.5, 1.5, 1.5], vec![(0, 1), (0, 2), (0, 3)]);
        let opt = exact(&g);
        assert_eq!(opt, vec![1, 2, 3]);
    }

    #[test]
    fn greedy_never_beats_exact() {
        // Cross-check on a batch of small pseudo-random graphs.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let n = 3 + (next() % 8) as usize;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(1.0 + (next() % 100) as f64 / 10.0);
            }
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 35 {
                        edges.push((u, v));
                    }
                }
            }
            let g = OverlapGraph::from_parts(weights, edges);
            let greedy = greedy(&g);
            let opt = exact(&g);
            let ratio = selection_weight(&g, &greedy) / selection_weight(&g, &opt);
            assert!((0.0..=1.0 + 1e-12).contains(&ratio), "ratio {ratio}");
            assert!(g.is_independent(&opt));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let g = OverlapGraph::from_parts(vec![], vec![]);
        assert!(exact(&g).is_empty());
        let g = OverlapGraph::from_parts(vec![5.0], vec![]);
        assert_eq!(exact(&g), vec![0]);
    }

    #[test]
    fn multi_word_clique_past_64_nodes() {
        // 70 clique nodes need two mask words; the optimum picks the
        // single heaviest node plus the two isolated ones. (A clique
        // keeps the weak remaining-weight bound linear — sparse graphs
        // this size would blow the branch-and-bound up.)
        let n = 70;
        let mut weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();
        weights.push(0.5);
        weights.push(0.0);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        let g = OverlapGraph::from_parts(weights, edges);
        let opt = exact(&g);
        assert!(g.is_independent(&opt));
        assert_eq!(opt, vec![69, 70, 71]);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_instance_rejected() {
        let g = OverlapGraph::from_parts(vec![1.0; 129], vec![]);
        let _ = exact(&g);
    }

    #[test]
    fn budget_trip_unwinds_and_scratch_stays_usable() {
        use pis_graph::budget::QueryBudget;
        let g = OverlapGraph::from_parts(
            vec![4.0, 2.0, 1.0, 10.0, 6.0, 7.0, 3.0],
            (0..6).map(|i| (i, i + 1)).collect(),
        );
        let state =
            BudgetState::new(&QueryBudget { node_limit: Some(2), ..QueryBudget::default() });
        let mut scratch = PartitionScratch::new();
        let mut sel = Vec::new();
        let completed = exact_mwis_budgeted_with(&g, &mut scratch, &mut sel, &state);
        assert!(!completed, "a 2-node budget cannot finish this instance");
        assert!(state.is_tripped());
        assert_eq!(state.trip_site(), Some(CheckpointSite::Partition));
        // The same scratch re-solves to optimality once unconstrained.
        let mut sel2 = Vec::new();
        assert!(exact_mwis_budgeted_with(&g, &mut scratch, &mut sel2, BudgetState::unlimited()));
        assert_eq!(sel2, exact(&g));
    }

    #[test]
    fn zero_weight_nodes_do_not_hurt() {
        let g = OverlapGraph::from_parts(vec![0.0, 3.0, 0.0], vec![(0, 1), (1, 2)]);
        let opt = exact(&g);
        assert_eq!(selection_weight(&g, &opt), 3.0);
    }
}
