//! `Greedy()` — Algorithm 1 of the paper, mask-native.
//!
//! Repeatedly selects the maximum-weight remaining node and removes it
//! together with its neighbors. Runs in `O(c·n)` scans where `c` is the
//! maximum independent-set size, with optimality ratio `1/c`
//! (Theorem 2). Ties break toward the smaller node index so results are
//! deterministic; the tests check every pick against that rule.
//!
//! The removed set lives in a covered-vertex mask: each round's scan
//! iterates only the words with live bits, and retiring the chosen node
//! with its whole neighborhood is one word-parallel
//! `covered |= neighbor_mask(v)` — no per-neighbor loop.

use crate::overlap::OverlapGraph;
use crate::scratch::{mask_or, mask_set, PartitionScratch, BITS};

/// Runs Algorithm 1 in caller-owned working memory: `selection` is
/// cleared and filled with the selected node indices in selection
/// order.
pub fn greedy_mwis_with(
    graph: &OverlapGraph,
    scratch: &mut PartitionScratch,
    selection: &mut Vec<usize>,
) {
    selection.clear();
    let wpr = graph.words_per_row();
    scratch.covered.clear();
    scratch.covered.resize(wpr, 0);
    loop {
        // Scan Lv for the maximum-weight remaining node (strict > keeps
        // the smallest index on ties, matching the reference).
        let mut best: Option<usize> = None;
        for wi in 0..wpr {
            let mut bits = !scratch.covered[wi] & graph.full_row_word(wi);
            while bits != 0 {
                let v = wi * BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if best.is_none_or(|b| graph.weight(v) > graph.weight(b)) {
                    best = Some(v);
                }
            }
        }
        let Some(v) = best else { break };
        selection.push(v);
        mask_set(&mut scratch.covered, v);
        mask_or(&mut scratch.covered, graph.neighbor_mask(v));
    }
    debug_assert!(graph.is_independent(selection));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection_weight;
    use crate::solve::greedy;

    #[test]
    fn greedy_on_a_weighted_path() {
        // In the spirit of Example 5 / Figure 7: a 7-node path with
        // weight order w4 ≥ w6 ≥ w5 ≥ w1 ≥ w7 ≥ w2 ≥ w3. Greedy picks
        // w4 (removing w3, w5), then w6 (removing w7), then w1
        // (removing w2).
        let weights = vec![4.0, 2.0, 1.0, 10.0, 6.0, 7.0, 3.0]; // w1..w7
        let edges: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 1)).collect();
        let g = OverlapGraph::from_parts(weights, edges);
        let sel = greedy(&g);
        assert_eq!(sel, vec![3, 5, 0]);
        assert!(g.is_independent(&sel));
        assert_eq!(selection_weight(&g, &sel), 21.0);
    }

    #[test]
    fn greedy_is_maximal() {
        // No remaining node can be added to the result.
        let g = OverlapGraph::from_parts(vec![5.0, 1.0, 1.0, 1.0], vec![(0, 1), (0, 2), (0, 3)]);
        let sel = greedy(&g);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn greedy_can_be_suboptimal_by_at_most_c() {
        // Star: hub weight 2, three leaves weight 1.5 each. Greedy takes
        // the hub (2.0); optimal takes the leaves (4.5).
        let g = OverlapGraph::from_parts(vec![2.0, 1.5, 1.5, 1.5], vec![(0, 1), (0, 2), (0, 3)]);
        let sel = greedy(&g);
        assert_eq!(sel, vec![0]);
        // c = 3 here; ratio 2/4.5 ≈ 0.44 ≥ 1/3, within Theorem 2's bound.
        let (ratio, bound) = (2.0 / 4.5, 1.0 / 3.0);
        assert!(ratio >= bound);
    }

    #[test]
    fn empty_graph() {
        let g = OverlapGraph::from_parts(vec![], vec![]);
        assert!(greedy(&g).is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let g = OverlapGraph::from_parts(vec![1.0, 1.0, 1.0], vec![(0, 1)]);
        // Ties resolve to the smallest index: 0, then 2.
        assert_eq!(greedy(&g), vec![0, 2]);
    }

    #[test]
    fn isolated_nodes_all_selected() {
        let g = OverlapGraph::from_parts(vec![1.0, 2.0, 3.0], vec![]);
        let mut sel = greedy(&g);
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn scratch_reuse_across_calls() {
        let mut scratch = PartitionScratch::new();
        let mut sel = Vec::new();
        let big = OverlapGraph::from_parts(vec![1.0; 200], (0..199).map(|i| (i, i + 1)).collect());
        greedy_mwis_with(&big, &mut scratch, &mut sel);
        assert_eq!(sel.len(), 100);
        let small = OverlapGraph::from_parts(vec![3.0, 1.0], vec![(0, 1)]);
        greedy_mwis_with(&small, &mut scratch, &mut sel);
        assert_eq!(sel, vec![0]);
    }
}
