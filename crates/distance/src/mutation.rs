//! The mutation distance (MD) of Section 2.
//!
//! `MD = Σ_v D_V(l(v), l'(f(v))) + Σ_e D_E(l(e), l'(f(e)))` for a
//! superposition `f`, where `D_V`/`D_E` are [`ScoreMatrix`]es. The
//! paper's evaluation uses [`MutationDistance::edge_hamming`]: vertex
//! labels are ignored and each mismatched edge label costs 1 ("the
//! number of edges whose labels are mismatched").

// Search hot path: panic-free outside tests (DESIGN.md §6.11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use pis_graph::{EdgeAttr, Label, LabeledGraph, VertexAttr};

use crate::matrix::ScoreMatrix;
use crate::traits::{min_edge_costs_generic, min_vertex_costs_generic, SuperimposedDistance};

/// Score-matrix-based mutation distance over categorical labels.
#[derive(Clone, Debug)]
pub struct MutationDistance {
    vertex_scores: ScoreMatrix,
    edge_scores: ScoreMatrix,
}

impl MutationDistance {
    /// A mutation distance from explicit vertex and edge score matrices.
    pub fn new(vertex_scores: ScoreMatrix, edge_scores: ScoreMatrix) -> Self {
        MutationDistance { vertex_scores, edge_scores }
    }

    /// Unit mismatch costs on both vertices and edges.
    pub fn unit() -> Self {
        MutationDistance::new(ScoreMatrix::unit(0), ScoreMatrix::unit(0))
    }

    /// The paper's evaluation setting: vertex labels ignored, each edge
    /// label mismatch costs 1.
    pub fn edge_hamming() -> Self {
        MutationDistance::new(ScoreMatrix::zero(0), ScoreMatrix::unit(0))
    }

    /// The vertex score matrix.
    pub fn vertex_scores(&self) -> &ScoreMatrix {
        &self.vertex_scores
    }

    /// The edge score matrix.
    pub fn edge_scores(&self) -> &ScoreMatrix {
        &self.edge_scores
    }

    /// Cost contributed by position `pos` of a stored class vector: its
    /// `edge_slots` edge slots, then its vertex slots. `edge_slots` is
    /// the number of edge slots the vector stores — none when the edge
    /// matrix is zero, so a vertex-only vector prices from slot 0. The
    /// trie backend calls this per level while descending.
    #[inline]
    pub fn position_cost(&self, pos: usize, edge_slots: usize, a: Label, b: Label) -> f64 {
        if pos < edge_slots {
            self.edge_scores.cost(a, b)
        } else {
            self.vertex_scores.cost(a, b)
        }
    }

    /// Batched form of [`MutationDistance::position_cost`]: fills
    /// `out[k]` with the cost of mutating `query` into `stored[k]` at
    /// vector position `pos`. One call costs a whole trie level's
    /// distinct-label alphabet, which is what lets the flat trie's
    /// frontier descent price each label once instead of once per child
    /// node.
    ///
    /// # Panics
    /// Panics if `stored.len() != out.len()`.
    pub fn position_costs_into(
        &self,
        pos: usize,
        edge_slots: usize,
        query: Label,
        stored: &[Label],
        out: &mut [f64],
    ) {
        if pos < edge_slots {
            self.edge_scores.costs_into(query, stored, out);
        } else {
            self.vertex_scores.costs_into(query, stored, out);
        }
    }
}

impl SuperimposedDistance for MutationDistance {
    #[inline]
    fn vertex_cost(&self, a: VertexAttr, b: VertexAttr) -> f64 {
        self.vertex_scores.cost(a.label, b.label)
    }

    #[inline]
    fn edge_cost(&self, a: EdgeAttr, b: EdgeAttr) -> f64 {
        self.edge_scores.cost(a.label, b.label)
    }

    fn max_vertex_cost(&self) -> Option<f64> {
        Some(self.vertex_scores.max_cost())
    }

    fn max_edge_cost(&self) -> Option<f64> {
        Some(self.edge_scores.max_cost())
    }

    fn min_vertex_costs_into(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        out: &mut Vec<f64>,
    ) {
        // All-zero matrix (the paper's edge-Hamming setting): every
        // floor is 0 without scanning — weaker than the degree-filtered
        // scan's ∞ on infeasible vertices, but still admissible.
        if self.vertex_scores.is_zero() {
            out.clear();
            out.resize(pattern.vertex_count(), 0.0);
        } else {
            min_vertex_costs_generic(self, pattern, target, out);
        }
    }

    fn min_edge_costs_into(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        out: &mut Vec<f64>,
    ) {
        if self.edge_scores.is_zero() {
            out.clear();
            out.resize(pattern.edge_count(), 0.0);
        } else {
            min_edge_costs_generic(self, pattern, target, out);
        }
    }

    /// Label-histogram deficit bound, per segment: at most `count_t(l)`
    /// query elements of label `l` can land on a same-label target
    /// element, so the remaining `count_q(l) − count_t(l)` each pay at
    /// least the cheapest relabeling `min_{l'≠l present in target}
    /// cost(l, l')`. Per-element floors sum independently of where the
    /// elements actually land, so the bound is admissible for every
    /// monomorphism; under edge-Hamming it equals the structure-free
    /// minimum number of mismatched edges.
    fn pair_lower_bound(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> f64 {
        fn edge_labels(g: &LabeledGraph) -> impl ExactSizeIterator<Item = Label> + Clone + '_ {
            g.edges().iter().map(|e| e.attr.label)
        }
        fn vertex_labels(g: &LabeledGraph) -> impl ExactSizeIterator<Item = Label> + Clone + '_ {
            g.vertex_ids().map(|v| g.vertex(v).label)
        }
        let edges =
            label_deficit_bound(&self.edge_scores, edge_labels(pattern), edge_labels(target));
        if edges.is_infinite() {
            return edges;
        }
        edges
            + label_deficit_bound(
                &self.vertex_scores,
                vertex_labels(pattern),
                vertex_labels(target),
            )
    }

    /// Mutation costs depend only on labels, so the score matrix answers
    /// this exactly: the cheapest relabeling of `from` into any other
    /// label the target actually has (`∞` when the target offers no
    /// alternative, i.e. every image would have to keep the label).
    fn edge_label_substitution_floor(&self, from: Label, target_labels: &[Label]) -> Option<f64> {
        let mut cheapest = f64::INFINITY;
        for &lt in target_labels {
            if lt != from {
                cheapest = cheapest.min(self.edge_scores.cost(from, lt));
            }
        }
        Some(cheapest)
    }

    /// Mutation edge costs *are* label-pair costs, so the floor is the
    /// score matrix entry itself.
    fn edge_label_cost_floor(&self, from: Label, to: Label) -> Option<f64> {
        Some(self.edge_scores.cost(from, to))
    }
}

/// `Σ_l max(0, count_q(l) − count_t(l)) · min_{l'≠l ∈ target} cost(l, l')`
/// over one label segment, or `∞` when the query has more elements than
/// the target can injectively host at all.
///
/// Allocation-free: the sizes settle the `∞` and all-zero cases before
/// any label is read, then each distinct query label is taken in
/// ascending order (the smallest one above the last) and counted on both
/// sides. That is `O(distinct query labels × (|Q| + |T|))` — a handful
/// of passes over a few dozen labels for a molecule — and sums the terms
/// in the order a sorted scan would.
fn label_deficit_bound(
    scores: &ScoreMatrix,
    q_labels: impl ExactSizeIterator<Item = Label> + Clone,
    t_labels: impl ExactSizeIterator<Item = Label> + Clone,
) -> f64 {
    if q_labels.len() > t_labels.len() {
        return f64::INFINITY;
    }
    if scores.is_zero() || q_labels.len() == 0 {
        return 0.0;
    }
    let mut bound = 0.0;
    let mut last: Option<Label> = None;
    while let Some(l) = q_labels.clone().filter(|&x| last.is_none_or(|last| x > last)).min() {
        last = Some(l);
        let run = q_labels.clone().filter(|&x| x == l).count();
        let same = t_labels.clone().filter(|&x| x == l).count();
        if run > same {
            let cheapest = t_labels
                .clone()
                .filter(|&lt| lt != l)
                .fold(f64::INFINITY, |cheapest, lt| cheapest.min(scores.cost(l, lt)));
            bound += (run - same) as f64 * cheapest;
            if bound.is_infinite() {
                return f64::INFINITY;
            }
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::iso::{embeddings, IsoConfig};
    use pis_graph::{graph::cycle_graph, graph::path_graph};

    #[test]
    fn edge_hamming_counts_mismatched_edges() {
        let d = MutationDistance::edge_hamming();
        let q = path_graph(3, Label(1), Label(0));
        let mut g = path_graph(3, Label(2), Label(0));
        // Relabel one edge of g.
        let e = {
            let mut b = pis_graph::GraphBuilder::new();
            let vs: Vec<_> = g.vertex_ids().map(|v| b.add_vertex(g.vertex(v))).collect();
            b.add_edge(vs[0], vs[1], EdgeAttr::labeled(Label(5))).unwrap();
            b.add_edge(vs[1], vs[2], g.edges()[1].attr).unwrap();
            b.build()
        };
        g = e;
        let embs = embeddings(&q, &g, IsoConfig::STRUCTURE);
        let costs: Vec<f64> = embs.iter().map(|e| d.superposition_cost(&q, &g, e)).collect();
        // Vertex labels differ everywhere but cost nothing; exactly one
        // edge label mismatches under both orientations.
        assert_eq!(costs, vec![1.0, 1.0]);
    }

    #[test]
    fn unit_distance_counts_vertices_too() {
        let d = MutationDistance::unit();
        let q = cycle_graph(3, Label(1), Label(0));
        let g = cycle_graph(3, Label(2), Label(0));
        let embs = embeddings(&q, &g, IsoConfig::STRUCTURE);
        for e in &embs {
            assert_eq!(d.superposition_cost(&q, &g, e), 3.0);
        }
    }

    #[test]
    fn position_cost_respects_segment_boundary() {
        let d = MutationDistance::new(ScoreMatrix::uniform(0, 2.0), ScoreMatrix::unit(0));
        assert_eq!(d.position_cost(0, 1, Label(0), Label(1)), 1.0); // edge slot
        assert_eq!(d.position_cost(1, 1, Label(0), Label(1)), 2.0); // vertex slot
        assert_eq!(d.position_cost(0, 0, Label(0), Label(1)), 2.0); // no edge slot stored
    }

    #[test]
    fn batched_position_costs_match_scalar() {
        let d = MutationDistance::new(ScoreMatrix::uniform(0, 2.0), ScoreMatrix::unit(0));
        let stored = [Label(0), Label(1), Label(5), Label(1)];
        let mut out = vec![0.0; stored.len()];
        for (pos, edge_slots) in [(0usize, 1usize), (1, 1), (2, 4), (0, 0)] {
            for q in [Label(0), Label(1), Label(9)] {
                d.position_costs_into(pos, edge_slots, q, &stored, &mut out);
                for (&s, &c) in stored.iter().zip(&out) {
                    assert_eq!(c, d.position_cost(pos, edge_slots, q, s));
                }
            }
        }
    }

    #[test]
    fn max_costs_reported() {
        let d = MutationDistance::unit();
        assert_eq!(d.max_vertex_cost(), Some(1.0));
        assert_eq!(d.max_edge_cost(), Some(1.0));
    }

    #[test]
    fn zero_matrix_min_tables_are_all_zero() {
        let d = MutationDistance::edge_hamming();
        // 3-path into 2-path: the generic vertex scan would report ∞
        // for the degree-2 middle vertex, but the zero-matrix fast path
        // claims only 0 — weaker yet admissible.
        let q = path_graph(3, Label(1), Label(0));
        let g = path_graph(2, Label(2), Label(0));
        let mut out = Vec::new();
        d.min_vertex_costs_into(&q, &g, &mut out);
        assert_eq!(out, vec![0.0; 3]);
        // Edge matrix is unit, so edges go through the generic scan.
        d.min_edge_costs_into(&q, &g, &mut out);
        assert_eq!(out, vec![f64::INFINITY; 2]);
    }

    #[test]
    fn pair_lower_bound_counts_label_deficits() {
        let d = MutationDistance::edge_hamming();
        // Query ring 1,2,1,2,1,2 vs target ring 2,2,2,2,2,2: three
        // label-1 edges have no same-label image, each paying ≥ 1.
        let ring = |labels: &[u32]| {
            let mut b = pis_graph::GraphBuilder::new();
            let vs = b.add_vertices(labels.len(), VertexAttr::labeled(Label(0)));
            for (i, &l) in labels.iter().enumerate() {
                b.add_edge(vs[i], vs[(i + 1) % labels.len()], EdgeAttr::labeled(Label(l))).unwrap();
            }
            b.build()
        };
        let q = ring(&[1, 2, 1, 2, 1, 2]);
        let g = ring(&[2, 2, 2, 2, 2, 2]);
        assert_eq!(d.pair_lower_bound(&q, &g), 3.0);
        // And the bound is tight from below: the true distance is 3.
        // A matching multiset gives bound 0 even when structure differs.
        assert_eq!(d.pair_lower_bound(&q, &ring(&[1, 1, 1, 2, 2, 2])), 0.0);
    }

    #[test]
    fn label_deficit_bound_sums_like_a_sorted_scan() {
        // Fractional costs make the summation order visible in the f64
        // bits: the bound must equal a sort-and-scan of the two label
        // multisets term for term.
        fn sorted_scan(scores: &ScoreMatrix, q: &[u32], t: &[u32]) -> f64 {
            let (mut q, mut t) = (q.to_vec(), t.to_vec());
            q.sort_unstable();
            t.sort_unstable();
            let mut bound = 0.0;
            let mut i = 0;
            while i < q.len() {
                let run = q[i..].iter().take_while(|&&x| x == q[i]).count();
                let same = t.iter().filter(|&&x| x == q[i]).count();
                if run > same {
                    let cheapest = t
                        .iter()
                        .filter(|&&x| x != q[i])
                        .map(|&x| scores.cost(Label(q[i]), Label(x)))
                        .fold(f64::INFINITY, f64::min);
                    bound += (run - same) as f64 * cheapest;
                }
                i += run;
            }
            bound
        }
        let scores = ScoreMatrix::from_fn(7, 0.3, |a, b| {
            if a == b {
                0.0
            } else {
                0.1 * f64::from(a.0 * b.0 + a.0 + b.0 + 1) / 3.0
            }
        })
        .unwrap();
        let cases: [(&[u32], &[u32]); 5] = [
            (&[6, 1, 4, 1, 5, 9, 2, 6], &[5, 3, 5, 8, 9, 7, 9, 3, 2]),
            (&[3, 3, 3, 0], &[0, 1, 2, 4, 5, 6]),
            (&[2, 0, 5, 0, 2, 5, 1], &[1, 1, 1, 1, 1, 1, 1, 1]),
            (&[4], &[4, 4]),
            (&[9, 8, 7], &[7, 8, 9, 10]),
        ];
        for (q, t) in cases {
            let labels = |xs: &'static [u32]| xs.iter().map(|&x| Label(x));
            let got = label_deficit_bound(&scores, labels(q), labels(t));
            assert_eq!(got.to_bits(), sorted_scan(&scores, q, t).to_bits(), "{q:?} vs {t:?}");
        }
    }

    #[test]
    fn pair_lower_bound_refutes_oversized_queries() {
        let d = MutationDistance::edge_hamming();
        let q = path_graph(4, Label(0), Label(0));
        let g = path_graph(3, Label(0), Label(0));
        assert!(d.pair_lower_bound(&q, &g).is_infinite());
    }

    #[test]
    fn pair_lower_bound_never_exceeds_true_distance() {
        // Exhaustive check on small rings: bound ≤ brute-force minimum
        // superposition cost whenever a monomorphism exists.
        let d = MutationDistance::unit();
        let ring = |vl: [u32; 4], el: [u32; 4]| {
            let mut b = pis_graph::GraphBuilder::new();
            let vs: Vec<_> =
                vl.iter().map(|&l| b.add_vertex(VertexAttr::labeled(Label(l)))).collect();
            for (i, &l) in el.iter().enumerate() {
                b.add_edge(vs[i], vs[(i + 1) % 4], EdgeAttr::labeled(Label(l))).unwrap();
            }
            b.build()
        };
        let q = ring([0, 1, 0, 1], [2, 3, 2, 3]);
        for g in [
            ring([0, 0, 0, 0], [2, 2, 2, 2]),
            ring([1, 1, 0, 0], [3, 3, 3, 2]),
            ring([0, 1, 0, 1], [2, 3, 2, 3]),
        ] {
            let best = embeddings(&q, &g, IsoConfig::STRUCTURE)
                .iter()
                .map(|e| d.superposition_cost(&q, &g, e))
                .fold(f64::INFINITY, f64::min);
            assert!(best.is_finite());
            let lb = d.pair_lower_bound(&q, &g);
            assert!(lb <= best + 1e-12, "precheck {lb} exceeds true distance {best}");
        }
    }
}
