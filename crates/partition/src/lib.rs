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
//! * [`greedy::greedy_mwis_with`] — Algorithm 1, `O(c·n)` with
//!   optimality ratio `1/c` (Theorem 2);
//! * [`enhanced::enhanced_greedy_mwis_with`] — EnhancedGreedy(k),
//!   `O(cᵏnᵏ)` with guaranteed ratio `k/c` (Theorem 3 prints `c/k`; a
//!   ratio `w(S)/w(S_opt)` is at most 1 and reduces to Theorem 2's `1/c`
//!   at `k = 1`, so `k/c` is the intended bound);
//! * [`exact::exact_mwis_budgeted_with`] — exact branch-and-bound under
//!   a query budget (≤ 128 nodes);
//! * [`scratch::PartitionScratch`] — caller-owned working memory.
//!
//! Every solver and
//! [`OverlapGraph::rebuild_from_sets`](overlap::OverlapGraph::rebuild_from_sets),
//! the one way to build `Q̃` from fragments, draws every buffer from a
//! [`PartitionScratch`] and writes into caller-owned storage, so a
//! reused scratch makes the whole partition stage allocation-free in
//! steady state. There is no allocating form beside them.
//! [`OverlapGraph::from_parts`] builds a graph from explicit edges for
//! tests and ablations.
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

pub use enhanced::enhanced_greedy_mwis_with;
pub use exact::{exact_mwis_budgeted_with, EXACT_MWIS_MAX_NODES};
pub use greedy::greedy_mwis_with;
pub use overlap::OverlapGraph;
pub use scratch::PartitionScratch;

/// Total weight of a vertex selection.
pub fn selection_weight(graph: &OverlapGraph, selection: &[usize]) -> f64 {
    selection.iter().map(|&v| graph.weight(v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_weight_sums() {
        let g = OverlapGraph::from_parts(vec![1.0, 2.0, 4.0], vec![]);
        assert_eq!(selection_weight(&g, &[0, 2]), 5.0);
    }
}

/// Each solver through a fresh scratch, and `Q̃` from owned vertex
/// sets, for the unit tests.
#[cfg(test)]
pub(crate) mod solve {
    use pis_graph::budget::BudgetState;
    use pis_graph::VertexId;

    use crate::*;

    fn run(solver: impl FnOnce(&mut PartitionScratch, &mut Vec<usize>)) -> Vec<usize> {
        let mut selection = Vec::new();
        solver(&mut PartitionScratch::new(), &mut selection);
        selection
    }

    pub(crate) fn greedy(g: &OverlapGraph) -> Vec<usize> {
        run(|scratch, selection| greedy_mwis_with(g, scratch, selection))
    }

    pub(crate) fn enhanced(g: &OverlapGraph, k: usize) -> Vec<usize> {
        run(|scratch, selection| enhanced_greedy_mwis_with(g, k, scratch, selection))
    }

    pub(crate) fn exact(g: &OverlapGraph) -> Vec<usize> {
        let unlimited = BudgetState::unlimited();
        run(|scratch, sel| assert!(exact_mwis_budgeted_with(g, scratch, sel, unlimited)))
    }

    pub(crate) fn overlap(fragments: &[(f64, Vec<VertexId>)]) -> OverlapGraph {
        let mut g = OverlapGraph::default();
        let sets = fragments.iter().map(|(w, vs)| (*w, vs.as_slice()));
        g.rebuild_from_sets(&mut PartitionScratch::new(), sets);
        g
    }
}
