//! Brute-force minimum superimposed distance (Definition 1).
//!
//! `d(Q, G) = min_{Q' ⊑ G, Q' ≅ Q} d(Q, Q')` — computed by enumerating
//! *every* structure-preserving embedding of `Q` into `G` and taking the
//! cheapest superposition. `None` encodes the paper's `d(Q, G) = ∞`
//! case (`Q ⊄ G`).
//!
//! This is the reference implementation ("the naive solution" of
//! Section 2): exact but exponential. `pis-core::verify` implements the
//! branch-and-bound equivalent used in production; its tests compare
//! against this oracle. The embeddings come from [`embeddings_brute`], a
//! definition-level enumerator that shares no code with the production
//! matcher (`pis_graph::iso`), so a matcher that loses an embedding
//! cannot hide behind the oracle.

use std::ops::ControlFlow;

use pis_graph::iso::IsoConfig;
use pis_graph::{LabeledGraph, VertexId};

use crate::traits::SuperimposedDistance;

/// Every embedding of `pattern` into `target` under `config`, each as a
/// vertex map indexed by pattern vertex, in no particular order.
///
/// By definition: an embedding is an injective vertex map that sends
/// every pattern edge onto a target edge (with equal labels where
/// `config` asks for them). Pattern vertices are placed in breadth-first
/// order; a vertex's images are the neighbors of its BFS parent's image,
/// or every target vertex for a component's root, and a partial map is
/// kept only while it is injective and every pattern edge to an
/// already-placed vertex exists. There is no degree test, lookahead,
/// matching plan or bitset.
pub fn embeddings_brute(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    config: IsoConfig,
) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    for_each_embedding(pattern, target, config, &mut |map| {
        out.push(map.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// Calls `f` on every embedding [`embeddings_brute`] enumerates; `f`
/// stops the enumeration by returning `Break`.
fn for_each_embedding(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    config: IsoConfig,
    f: &mut dyn FnMut(&[VertexId]) -> ControlFlow<()>,
) {
    // Breadth-first placement order, one component after another: each
    // vertex with its BFS parent (`None` for a component's root).
    let n = pattern.vertex_count();
    let mut order: Vec<(VertexId, Option<VertexId>)> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in pattern.vertex_ids() {
        if seen[root.index()] {
            continue;
        }
        seen[root.index()] = true;
        let mut head = order.len();
        order.push((root, None));
        while head < order.len() {
            let v = order[head].0;
            head += 1;
            for &(u, _) in pattern.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    order.push((u, Some(v)));
                }
            }
        }
    }
    let mut search = Placement {
        pattern,
        target,
        config,
        order,
        map: vec![None; n],
        used: vec![false; target.vertex_count()],
        full: Vec::with_capacity(n),
    };
    let _ = search.place(0, f);
}

/// The state of [`for_each_embedding`]'s backtracking.
struct Placement<'a> {
    pattern: &'a LabeledGraph,
    target: &'a LabeledGraph,
    config: IsoConfig,
    order: Vec<(VertexId, Option<VertexId>)>,
    map: Vec<Option<VertexId>>,
    used: Vec<bool>,
    full: Vec<VertexId>,
}

impl Placement<'_> {
    fn place(
        &mut self,
        i: usize,
        f: &mut dyn FnMut(&[VertexId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some(&(v, parent)) = self.order.get(i) else {
            self.full.clear();
            self.full.extend(self.map.iter().map(|m| m.expect("every pattern vertex is placed")));
            return f(&self.full);
        };
        match parent {
            Some(u) => {
                let image = self.map[u.index()].expect("a BFS parent is placed first");
                for &(t, _) in self.target.neighbors(image) {
                    self.try_image(i, v, t, f)?;
                }
            }
            None => {
                for t in self.target.vertex_ids() {
                    self.try_image(i, v, t, f)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn try_image(
        &mut self,
        i: usize,
        v: VertexId,
        t: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (pattern, target, config) = (self.pattern, self.target, self.config);
        if self.used[t.index()]
            || (config.respect_vertex_labels && pattern.vertex(v).label != target.vertex(t).label)
        {
            return ControlFlow::Continue(());
        }
        let edges_kept = pattern.neighbors(v).iter().all(|&(u, pe)| match self.map[u.index()] {
            None => true,
            Some(tu) => target.edge_between(tu, t).is_some_and(|te| {
                !config.respect_edge_labels
                    || pattern.edge(pe).attr.label == target.edge(te).attr.label
            }),
        });
        if !edges_kept {
            return ControlFlow::Continue(());
        }
        self.map[v.index()] = Some(t);
        self.used[t.index()] = true;
        let flow = self.place(i + 1, f);
        self.used[t.index()] = false;
        self.map[v.index()] = None;
        flow
    }
}

/// Exact minimum superimposed distance by full enumeration.
///
/// Returns `None` when `pattern` is not structure-isomorphic to any
/// subgraph of `target` (infinite distance).
pub fn min_superimposed_distance_brute(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    distance: &dyn SuperimposedDistance,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for_each_embedding(pattern, target, IsoConfig::STRUCTURE, &mut |map| {
        // Definition 1: the superposition's vertex costs, then its edge
        // costs, each in id order.
        let mut cost = 0.0;
        for v in pattern.vertex_ids() {
            cost += distance.vertex_cost(pattern.vertex(v), target.vertex(map[v.index()]));
        }
        for e in pattern.edges() {
            let te = target
                .edge_between(map[e.source.index()], map[e.target.index()])
                .expect("an embedding maps every pattern edge onto a target edge");
            cost += distance.edge_cost(e.attr, target.edge(te).attr);
        }
        if best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
        if best == Some(0.0) {
            // A zero-cost superposition can never be beaten.
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    best
}

/// Exact SSSD answer set by brute force: all database indices whose
/// minimum superimposed distance from `query` is at most `sigma`
/// (Definition 2). The test-suite oracle for every search strategy.
pub fn sssd_brute(
    database: &[LabeledGraph],
    query: &LabeledGraph,
    distance: &dyn SuperimposedDistance,
    sigma: f64,
) -> Vec<usize> {
    database
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            min_superimposed_distance_brute(query, g, distance).is_some_and(|d| d <= sigma)
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::MutationDistance;
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};

    /// Builds a labeled cycle with per-edge labels.
    fn cycle_with_edge_labels(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    #[test]
    fn distance_zero_for_exact_containment() {
        let d = MutationDistance::edge_hamming();
        let q = pis_graph::graph::path_graph(3, Label(0), Label(1));
        let g = pis_graph::graph::cycle_graph(6, Label(0), Label(1));
        assert_eq!(min_superimposed_distance_brute(&q, &g, &d), Some(0.0));
    }

    #[test]
    fn distance_infinite_without_structural_match() {
        let d = MutationDistance::edge_hamming();
        let q = pis_graph::graph::cycle_graph(4, Label(0), Label(0));
        let g = pis_graph::graph::path_graph(6, Label(0), Label(0));
        assert_eq!(min_superimposed_distance_brute(&q, &g, &d), None);
    }

    #[test]
    fn minimum_over_superpositions_is_taken() {
        // Query: 6-cycle with edge labels all 1.
        // Target: 6-cycle with labels [1,1,1,1,1,2]; rotating the query
        // cannot avoid one mismatch, so MD = 1.
        let d = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let g = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 2]);
        assert_eq!(min_superimposed_distance_brute(&q, &g, &d), Some(1.0));
        // Two separated mismatches cost 2.
        let g2 = cycle_with_edge_labels(&[2, 1, 1, 2, 1, 1]);
        assert_eq!(min_superimposed_distance_brute(&q, &g2, &d), Some(2.0));
    }

    #[test]
    fn sssd_brute_filters_by_threshold() {
        let d = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1]);
        let db = vec![
            cycle_with_edge_labels(&[1, 1, 1]),                  // d = 0
            cycle_with_edge_labels(&[1, 1, 2]),                  // d = 1
            cycle_with_edge_labels(&[2, 2, 2]),                  // d = 3
            pis_graph::graph::path_graph(4, Label(0), Label(1)), // no match
        ];
        assert_eq!(sssd_brute(&db, &q, &d, 0.0), vec![0]);
        assert_eq!(sssd_brute(&db, &q, &d, 1.0), vec![0, 1]);
        assert_eq!(sssd_brute(&db, &q, &d, 3.0), vec![0, 1, 2]);
    }

    #[test]
    fn paper_example_1_mutation_distances() {
        // A compact analogue of the paper's Example 1: the query ring
        // appears in three molecules; one matches with distance 1, one
        // with 3, one with 1. Threshold 2 returns the first and third.
        let d = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]);
        let db = vec![
            cycle_with_edge_labels(&[1, 2, 1, 2, 1, 1]), // 1 mutation
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]), // 3 mutations
            cycle_with_edge_labels(&[1, 2, 1, 2, 2, 2]), // 1 mutation
        ];
        assert_eq!(sssd_brute(&db, &q, &d, 2.0 - f64::EPSILON), vec![0, 2]);
    }
}
