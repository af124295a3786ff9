//! Partition selection for PIS (Section 5).
//!
//! Choosing the optimal set of non-overlapping query fragments is the
//! *index-based partition* problem, which the paper proves NP-hard by
//! equivalence with Maximum Weighted Independent Set (Theorem 1). This
//! crate provides:
//!
//! * [`overlap::OverlapGraph`] — the overlapping-relation graph `Q̃`
//!   (Figure 6): one node per indexed query fragment, weighted by
//!   selectivity, with word-parallel neighbor-mask adjacency built from
//!   vertex→fragment incidence (edges are generated only among
//!   fragments that actually share a query vertex);
//! * [`greedy::greedy_mwis`] — Algorithm 1, `O(c·n)` with optimality
//!   ratio `1/c` (Theorem 2);
//! * [`enhanced::enhanced_greedy_mwis`] — EnhancedGreedy(k), `O(cᵏnᵏ)`
//!   with guaranteed ratio `k/c` (Theorem 3 prints `c/k`; a ratio
//!   `w(S)/w(S_opt)` is at most 1 and reduces to Theorem 2's `1/c` at
//!   `k = 1`, so `k/c` is the intended bound);
//! * [`exact::exact_mwis`] — exact branch-and-bound for ablations and
//!   tests (≤ 128 nodes);
//! * [`scratch::PartitionScratch`] — caller-owned working memory: the
//!   `*_with` solver variants and
//!   [`OverlapGraph::rebuild_from_sets`](overlap::OverlapGraph::rebuild_from_sets)
//!   draw every buffer from it, so a reused scratch makes the whole
//!   partition stage allocation-free in steady state.
//!
//! The tests hold these to definitions, not to a second implementation
//! (`tests/mask_equivalence.rs`): two fragments are adjacent iff their
//! vertex sets intersect, every selection is independent, Greedy's picks
//! follow Algorithm 1's rule, and `Exact`'s weight equals brute-force
//! enumeration on small instances.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod enhanced;
pub mod exact;
pub mod greedy;
pub mod overlap;
pub mod scratch;

pub use enhanced::{enhanced_greedy_mwis, enhanced_greedy_mwis_with};
pub use exact::{exact_mwis, exact_mwis_budgeted_with, exact_mwis_with, EXACT_MWIS_MAX_NODES};
pub use greedy::{greedy_mwis, greedy_mwis_with};
pub use overlap::OverlapGraph;
pub use scratch::PartitionScratch;

/// Total weight of a vertex selection.
pub fn selection_weight(graph: &OverlapGraph, selection: &[usize]) -> f64 {
    selection.iter().map(|&v| graph.weight(v)).sum()
}

/// The optimality ratio `w(S) / w(S_opt)` used in Section 5 to compare
/// greedy solutions against the exact optimum. Returns 1.0 when both
/// are empty.
pub fn optimality_ratio(graph: &OverlapGraph, approx: &[usize], optimal: &[usize]) -> f64 {
    let wa = selection_weight(graph, approx);
    let wo = selection_weight(graph, optimal);
    if wo == 0.0 {
        1.0
    } else {
        wa / wo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_empty_graphs_is_one() {
        let g = OverlapGraph::from_parts(vec![], vec![]);
        assert_eq!(optimality_ratio(&g, &[], &[]), 1.0);
    }

    #[test]
    fn selection_weight_sums() {
        let g = OverlapGraph::from_parts(vec![1.0, 2.0, 4.0], vec![]);
        assert_eq!(selection_weight(&g, &[0, 2]), 5.0);
    }
}
