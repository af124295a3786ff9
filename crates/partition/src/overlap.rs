//! The overlapping-relation graph `Q̃` (Section 5, Figure 6).
//!
//! Each indexed fragment of the query becomes a node weighted by its
//! selectivity; two nodes are adjacent iff their fragments share a query
//! vertex. A graph partition (Definition 3) is exactly an independent
//! set of `Q̃`, so the optimal partition is a maximum weighted
//! independent set.
//!
//! Adjacency is stored as word-parallel neighbor masks — one multi-word
//! bit row per node — so every independence or degree question the MWIS
//! solvers ask is an `AND`/popcount over `n/64` words, for any node
//! count (vertex ids and fragment counts beyond 128 no longer force a
//! sorted-merge fallback). Construction goes through vertex→fragment
//! incidence groups: edges are generated only among fragments that
//! actually share a query vertex, replacing the dense `O(f²)` pair loop,
//! and all working memory comes from a caller-owned
//! [`PartitionScratch`] so steady-state rebuilds allocate nothing.

use pis_graph::VertexId;

use crate::scratch::{mask_clear, mask_or, mask_set, tail_mask, PartitionScratch, BITS};

/// A small weighted graph over query fragments with mask adjacency.
#[derive(Clone, Debug, Default)]
pub struct OverlapGraph {
    weights: Vec<f64>,
    /// Row-major neighbor masks: node `v`'s row is
    /// `words[v*words_per_row..(v+1)*words_per_row]`.
    words: Vec<u64>,
    words_per_row: usize,
}

impl OverlapGraph {
    /// Rebuilds this graph in place from `(weight, query-vertex set)`
    /// pairs — arena-backed fragment stores hand in borrowed vertex
    /// slices, which need not be sorted — reusing both the graph's own
    /// storage and the scratch buffers. A fresh graph is
    /// `OverlapGraph::default()` rebuilt once.
    ///
    /// Edges are generated from vertex→fragment incidence: the
    /// `(vertex, fragment)` pairs are sorted so each query vertex's
    /// covering fragments form one group, every group ORs its membership
    /// mask into each member's neighbor row, and the self-bits come out
    /// at the end. Fragments sharing no vertex are never paired, and
    /// duplicate vertices inside a set are idempotent.
    pub fn rebuild_from_sets<'a>(
        &mut self,
        scratch: &mut PartitionScratch,
        fragments: impl IntoIterator<Item = (f64, &'a [VertexId])>,
    ) {
        self.weights.clear();
        scratch.pairs.clear();
        for (i, (w, vs)) in fragments.into_iter().enumerate() {
            self.weights.push(w);
            for v in vs {
                scratch.pairs.push((v.0, i as u32));
            }
        }
        let n = self.weights.len();
        self.words_per_row = n.div_ceil(BITS);
        self.words.clear();
        self.words.resize(n * self.words_per_row, 0);
        let wpr = self.words_per_row;

        scratch.pairs.sort_unstable();
        scratch.pairs.dedup();
        scratch.group.clear();
        scratch.group.resize(wpr, 0);
        let mut start = 0;
        while start < scratch.pairs.len() {
            let vertex = scratch.pairs[start].0;
            let mut end = start + 1;
            while end < scratch.pairs.len() && scratch.pairs[end].0 == vertex {
                end += 1;
            }
            // A lone covering fragment produces no edges.
            if end - start >= 2 {
                scratch.group.iter_mut().for_each(|w| *w = 0);
                for &(_, f) in &scratch.pairs[start..end] {
                    mask_set(&mut scratch.group, f as usize);
                }
                for &(_, f) in &scratch.pairs[start..end] {
                    let f = f as usize;
                    mask_or(&mut self.words[f * wpr..(f + 1) * wpr], &scratch.group);
                }
            }
            start = end;
        }
        for v in 0..n {
            mask_clear(&mut self.words[v * wpr..(v + 1) * wpr], v);
        }
    }

    /// Builds `Q̃` from explicit weights and edges (test/ablation use).
    pub fn from_parts(weights: Vec<f64>, edges: Vec<(usize, usize)>) -> Self {
        let n = weights.len();
        let wpr = n.div_ceil(BITS);
        let mut words = vec![0u64; n * wpr];
        for (u, v) in edges {
            assert!(u != v && u < n && v < n, "invalid overlap edge");
            mask_set(&mut words[u * wpr..(u + 1) * wpr], v);
            mask_set(&mut words[v * wpr..(v + 1) * wpr], u);
        }
        OverlapGraph { weights, words, words_per_row: wpr }
    }

    /// Number of nodes (query fragments).
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight (selectivity) of node `v`.
    #[inline]
    pub fn weight(&self, v: usize) -> f64 {
        self.weights[v]
    }

    /// Words per neighbor-mask row (`len / 64`, rounded up).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The neighbor mask of node `v`: one bit per adjacent node.
    #[inline]
    pub fn neighbor_mask(&self, v: usize) -> &[u64] {
        &self.words[v * self.words_per_row..(v + 1) * self.words_per_row]
    }

    /// Iterates the neighbors of node `v` in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_mask(v).iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * BITS + b)
            })
        })
    }

    /// Degree of node `v` (neighbor-mask popcount).
    pub fn degree(&self, v: usize) -> usize {
        self.neighbor_mask(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nodes `u` and `v` are adjacent.
    #[inline]
    pub fn is_adjacent(&self, u: usize, v: usize) -> bool {
        (self.neighbor_mask(u)[v / BITS] >> (v % BITS)) & 1 == 1
    }

    /// The all-nodes row mask (phantom tail bits zero), word `wi`.
    #[inline]
    pub(crate) fn full_row_word(&self, wi: usize) -> u64 {
        tail_mask(wi, self.len())
    }

    /// Whether `selection` is an independent set (no two selected nodes
    /// adjacent, no duplicates).
    pub fn is_independent(&self, selection: &[usize]) -> bool {
        let mut chosen = vec![0u64; self.words_per_row];
        for &v in selection {
            if v >= self.len() || crate::scratch::mask_contains(&chosen, v) {
                return false;
            }
            mask_set(&mut chosen, v);
        }
        selection.iter().all(|&v| !crate::scratch::masks_intersect(self.neighbor_mask(v), &chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::overlap;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    fn adj(g: &OverlapGraph, v: usize) -> Vec<usize> {
        g.neighbors(v).collect()
    }

    #[test]
    fn overlap_edges_from_shared_vertices() {
        let g = overlap(&[(1.0, v(&[0, 1, 2])), (2.0, v(&[2, 3])), (3.0, v(&[4, 5]))]);
        assert_eq!(g.len(), 3);
        assert_eq!(adj(&g, 0), vec![1]);
        assert_eq!(adj(&g, 1), vec![0]);
        assert!(adj(&g, 2).is_empty());
        assert!(g.is_independent(&[0, 2]));
        assert!(!g.is_independent(&[0, 1]));
    }

    #[test]
    fn unsorted_and_duplicated_vertex_sets_handled() {
        let g = overlap(&[(1.0, v(&[3, 1, 3])), (1.0, v(&[2, 1]))]);
        assert_eq!(adj(&g, 0), vec![1]);
        assert!(g.is_adjacent(1, 0));
    }

    #[test]
    fn large_vertex_ids_take_no_fallback() {
        // Ids far beyond 128 — the old u128 fast path's cutoff — build
        // through the same incidence grouping as small ids.
        let g = overlap(&[
            (1.0, v(&[4_000_000_000, 7])),
            (1.0, v(&[4_000_000_000])),
            (1.0, v(&[7, 130])),
            (1.0, v(&[129])),
        ]);
        assert_eq!(adj(&g, 0), vec![1, 2]);
        assert_eq!(adj(&g, 1), vec![0]);
        assert_eq!(adj(&g, 2), vec![0]);
        assert!(adj(&g, 3).is_empty());
    }

    #[test]
    fn empty_sets_are_isolated() {
        let g = overlap(&[(1.0, v(&[])), (2.0, v(&[1])), (3.0, v(&[1]))]);
        assert!(adj(&g, 0).is_empty());
        assert_eq!(adj(&g, 1), vec![2]);
        assert!(g.is_independent(&[0, 1]));
    }

    #[test]
    fn multi_word_rows_past_128_nodes() {
        // 140 fragments all sharing vertex 0: a clique needing 3-word
        // rows. Every pair is adjacent; degrees are n-1.
        let frags: Vec<(f64, Vec<VertexId>)> = (0..140).map(|_| (1.0, v(&[0]))).collect();
        let g = overlap(&frags);
        assert_eq!(g.words_per_row(), 3);
        assert_eq!(g.degree(0), 139);
        assert_eq!(g.degree(139), 139);
        assert!(g.is_adjacent(5, 133));
        assert!(!g.is_independent(&[5, 133]));
    }

    #[test]
    fn rebuild_reuses_buffers_across_shapes() {
        let mut g = OverlapGraph::default();
        let mut scratch = PartitionScratch::new();
        let a = [(1.0, v(&[0, 1])), (2.0, v(&[1, 2]))];
        g.rebuild_from_sets(&mut scratch, a.iter().map(|(w, vs)| (*w, vs.as_slice())));
        assert_eq!(g.len(), 2);
        assert!(g.is_adjacent(0, 1));
        let b = [(1.0, v(&[0])), (2.0, v(&[1])), (3.0, v(&[2]))];
        g.rebuild_from_sets(&mut scratch, b.iter().map(|(w, vs)| (*w, vs.as_slice())));
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(0) + g.degree(1) + g.degree(2), 0);
    }

    #[test]
    fn from_parts_dedups_edges() {
        let g = OverlapGraph::from_parts(vec![1.0, 1.0], vec![(0, 1), (1, 0)]);
        assert_eq!(adj(&g, 0), vec![1]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "invalid overlap edge")]
    fn from_parts_rejects_self_loops() {
        let _ = OverlapGraph::from_parts(vec![1.0], vec![(0, 0)]);
    }

    #[test]
    fn independence_rejects_duplicates_and_out_of_range() {
        let g = OverlapGraph::from_parts(vec![1.0, 1.0], vec![]);
        assert!(!g.is_independent(&[0, 0]));
        assert!(!g.is_independent(&[5]));
        assert!(g.is_independent(&[]));
        assert!(g.is_independent(&[0, 1]));
    }
}
