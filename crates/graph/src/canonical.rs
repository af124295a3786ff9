//! Canonical forms for labeled graphs.
//!
//! PIS hashes every fragment by the canonical representation of its
//! *structure* (Section 4, Figure 4): if `G ≅ G'` then `s(G) = s(G')`
//! and otherwise `s(G) ≠ s(G')`. Two representations are provided:
//!
//! * [`min_dfs_code`] — the gSpan minimum DFS code (Yan & Han, ICDM'02,
//!   reference \[15\] of the paper); works for any connected labeled graph
//!   and also powers the pattern-growth miner in `pis-mining`.
//! * [`naive_canonical`] — the paper's "naive" alternative: the minimum
//!   row-major adjacency-matrix sequence over all vertex permutations;
//!   exponential, used as a cross-check oracle in tests and ablations.
//!
//! Besides the code itself, [`CanonicalForm`] records the DFS discovery
//! order of vertices and the code order of edges. The fragment index
//! does not read them: it reads label vectors off embeddings of a
//! class's representative, [`DfsCode::to_graph`], whose vertex ids are
//! already the DFS indices and whose edges come in code order, so the
//! identity order of the representative is the class-consistent one.
//! Tests use the recorded orders to check exactly that.

use std::cmp::Ordering;

use crate::graph::{EdgeAttr, GraphBuilder, LabeledGraph, VertexAttr};
use crate::ids::{EdgeId, Label, VertexId};

/// One edge of a DFS code: `(from, to, from_label, edge_label, to_label)`.
///
/// `from`/`to` are DFS discovery indices. `from < to` marks a forward
/// edge (discovery), `from > to` a backward edge (cycle closure).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DfsEdge {
    /// DFS index of the source vertex.
    pub from: u32,
    /// DFS index of the destination vertex.
    pub to: u32,
    /// Label of the source vertex.
    pub from_label: Label,
    /// Label of the edge.
    pub edge_label: Label,
    /// Label of the destination vertex.
    pub to_label: Label,
}

impl DfsEdge {
    /// Whether this is a forward (tree) edge.
    #[inline]
    pub fn is_forward(&self) -> bool {
        self.from < self.to
    }

    #[inline]
    fn label_key(&self) -> (Label, Label, Label) {
        (self.from_label, self.edge_label, self.to_label)
    }
}

impl PartialOrd for DfsEdge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DfsEdge {
    /// The gSpan DFS-lexicographic order on code edges:
    ///
    /// * forward vs forward: smaller `to` first; ties broken by *larger*
    ///   `from` (extensions closer to the rightmost vertex first), then
    ///   by labels;
    /// * backward vs backward: smaller `from`, then smaller `to`, then
    ///   labels;
    /// * backward `(i, j)` vs forward `(i', j')`: backward first iff
    ///   `i < j'`; at `i = j'` the forward edge precedes.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_forward(), other.is_forward()) {
            (true, true) => self
                .to
                .cmp(&other.to)
                .then(other.from.cmp(&self.from))
                .then(self.label_key().cmp(&other.label_key())),
            (false, false) => self
                .from
                .cmp(&other.from)
                .then(self.to.cmp(&other.to))
                .then(self.label_key().cmp(&other.label_key())),
            (false, true) => {
                if self.from < other.to {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (true, false) => {
                if self.to <= other.from {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
        }
    }
}

/// A DFS code: an edge sequence plus the root vertex label (which is the
/// entire code for single-vertex graphs).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash, Default)]
pub struct DfsCode {
    /// Code edges in DFS-lexicographic order.
    pub edges: Vec<DfsEdge>,
    /// Label of the vertex with DFS index 0.
    pub root_label: Label,
}

impl DfsCode {
    /// Number of edges in the coded graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices in the coded graph.
    pub fn vertex_count(&self) -> usize {
        if self.edges.is_empty() {
            1
        } else {
            self.edges.iter().map(|e| e.from.max(e.to)).max().unwrap() as usize + 1
        }
    }

    /// Flat `u32` serialization used as a hash key: `[V, E, root, (from,
    /// to, l_from, l_e, l_to)*]`. Equal codes have equal sequences and
    /// vice versa.
    pub fn to_sequence(&self) -> Vec<u32> {
        let mut seq = Vec::with_capacity(3 + 5 * self.edges.len());
        seq.push(self.vertex_count() as u32);
        seq.push(self.edges.len() as u32);
        seq.push(self.root_label.0);
        for e in &self.edges {
            seq.extend_from_slice(&[e.from, e.to, e.from_label.0, e.edge_label.0, e.to_label.0]);
        }
        seq
    }

    /// Reconstructs the coded graph; vertices are created in DFS-index
    /// order, edges in code order, so the rebuilt graph *is* its own
    /// canonical representative (its identity vertex order equals the
    /// canonical order).
    pub fn to_graph(&self) -> LabeledGraph {
        let mut b = GraphBuilder::with_capacity(self.vertex_count(), self.edges.len());
        let mut labels: Vec<Option<Label>> = vec![None; self.vertex_count()];
        labels[0] = Some(self.root_label);
        for e in &self.edges {
            labels[e.from as usize].get_or_insert(e.from_label);
            labels[e.to as usize].get_or_insert(e.to_label);
        }
        for l in &labels {
            b.add_vertex(VertexAttr::labeled(l.expect("every DFS index appears in the code")));
        }
        for e in &self.edges {
            b.add_edge(VertexId(e.from), VertexId(e.to), EdgeAttr::labeled(e.edge_label))
                .expect("DFS codes never repeat edges");
        }
        b.build()
    }

    /// Whether this code is the minimum DFS code of the graph it encodes
    /// (gSpan's canonicality test, used by the miner to prune duplicate
    /// pattern growth).
    pub fn is_min(&self) -> bool {
        if self.edges.is_empty() {
            return true;
        }
        let g = self.to_graph();
        let canon = min_dfs_code(&g).expect("DFS codes encode connected graphs");
        canon.code.edges == self.edges && canon.code.root_label == self.root_label
    }
}

/// The canonical form of a connected graph: the minimum DFS code plus the
/// realizing traversal.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The minimum DFS code.
    pub code: DfsCode,
    /// `vertex_order[dfs_index]` = original vertex.
    pub vertex_order: Vec<VertexId>,
    /// `edge_order[code_position]` = original edge.
    pub edge_order: Vec<EdgeId>,
}

/// A partial DFS traversal during minimum-code search.
#[derive(Clone)]
struct SearchState {
    /// graph vertex index -> DFS index (u32::MAX = undiscovered).
    dfs_of: Vec<u32>,
    /// DFS index -> graph vertex.
    vertex_of: Vec<VertexId>,
    /// code position -> graph edge.
    edge_of: Vec<EdgeId>,
    edge_used: Vec<bool>,
    /// DFS indices from the root to the rightmost vertex.
    rightmost_path: Vec<u32>,
}

const UNSET: u32 = u32::MAX;

/// A candidate one-edge extension of a search state.
#[derive(Clone, Copy)]
struct Extension {
    code_edge: DfsEdge,
    graph_edge: EdgeId,
    /// For forward edges: the newly discovered graph vertex.
    new_vertex: Option<VertexId>,
}

impl SearchState {
    fn start(g: &LabeledGraph, root: VertexId, first: EdgeId, other: VertexId) -> Self {
        let mut dfs_of = vec![UNSET; g.vertex_count()];
        dfs_of[root.index()] = 0;
        dfs_of[other.index()] = 1;
        let mut edge_used = vec![false; g.edge_count()];
        edge_used[first.index()] = true;
        SearchState {
            dfs_of,
            vertex_of: vec![root, other],
            edge_of: vec![first],
            edge_used,
            rightmost_path: vec![0, 1],
        }
    }

    /// All gSpan-valid next edges: backward edges from the rightmost
    /// vertex to rightmost-path vertices, and forward edges from any
    /// rightmost-path vertex to an undiscovered vertex.
    fn extensions(&self, g: &LabeledGraph, out: &mut Vec<Extension>) {
        out.clear();
        let rm_idx = *self.rightmost_path.last().expect("path never empty");
        let rm = self.vertex_of[rm_idx as usize];
        // Backward: rightmost vertex -> path vertices (unused edges only).
        for &(n, e) in g.neighbors(rm) {
            if self.edge_used[e.index()] {
                continue;
            }
            let n_idx = self.dfs_of[n.index()];
            if n_idx != UNSET && self.rightmost_path.contains(&n_idx) {
                out.push(Extension {
                    code_edge: DfsEdge {
                        from: rm_idx,
                        to: n_idx,
                        from_label: g.vertex(rm).label,
                        edge_label: g.edge(e).attr.label,
                        to_label: g.vertex(n).label,
                    },
                    graph_edge: e,
                    new_vertex: None,
                });
            }
        }
        // Forward: path vertex -> undiscovered vertex.
        let next_idx = self.vertex_of.len() as u32;
        for &p_idx in &self.rightmost_path {
            let p = self.vertex_of[p_idx as usize];
            for &(n, e) in g.neighbors(p) {
                if self.edge_used[e.index()] || self.dfs_of[n.index()] != UNSET {
                    continue;
                }
                out.push(Extension {
                    code_edge: DfsEdge {
                        from: p_idx,
                        to: next_idx,
                        from_label: g.vertex(p).label,
                        edge_label: g.edge(e).attr.label,
                        to_label: g.vertex(n).label,
                    },
                    graph_edge: e,
                    new_vertex: Some(n),
                });
            }
        }
    }

    fn apply(&self, ext: &Extension) -> SearchState {
        let mut next = self.clone();
        next.edge_used[ext.graph_edge.index()] = true;
        next.edge_of.push(ext.graph_edge);
        if let Some(v) = ext.new_vertex {
            let idx = next.vertex_of.len() as u32;
            next.dfs_of[v.index()] = idx;
            next.vertex_of.push(v);
            // The rightmost path becomes root..=ext.from, then the new
            // vertex.
            let pos = next
                .rightmost_path
                .iter()
                .position(|&i| i == ext.code_edge.from)
                .expect("forward extensions start on the rightmost path");
            next.rightmost_path.truncate(pos + 1);
            next.rightmost_path.push(idx);
        }
        next
    }
}

/// Computes the minimum DFS code of a connected graph, together with the
/// realizing vertex/edge orders. Returns `None` for disconnected or
/// empty graphs (fragments are always connected and non-empty).
pub fn min_dfs_code(g: &LabeledGraph) -> Option<CanonicalForm> {
    if g.is_empty() || !g.is_connected() {
        return None;
    }
    if g.edge_count() == 0 {
        // Single vertex.
        return Some(CanonicalForm {
            code: DfsCode { edges: Vec::new(), root_label: g.vertex(VertexId(0)).label },
            vertex_order: vec![VertexId(0)],
            edge_order: Vec::new(),
        });
    }

    // Seed: all oriented edges realizing the minimal first quintuple.
    let mut best_first: Option<DfsEdge> = None;
    let mut states: Vec<SearchState> = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        for (u, v) in [(edge.source, edge.target), (edge.target, edge.source)] {
            let cand = DfsEdge {
                from: 0,
                to: 1,
                from_label: g.vertex(u).label,
                edge_label: edge.attr.label,
                to_label: g.vertex(v).label,
            };
            match best_first {
                Some(b) if cand > b => {}
                Some(b) if cand == b => states.push(SearchState::start(g, u, e, v)),
                _ => {
                    best_first = Some(cand);
                    states.clear();
                    states.push(SearchState::start(g, u, e, v));
                }
            }
        }
    }
    let mut code = vec![best_first.expect("graph has at least one edge")];

    let mut scratch = Vec::new();
    while code.len() < g.edge_count() {
        let mut best: Option<DfsEdge> = None;
        let mut survivors: Vec<SearchState> = Vec::new();
        for state in &states {
            state.extensions(g, &mut scratch);
            for ext in &scratch {
                match best {
                    Some(b) if ext.code_edge > b => {}
                    Some(b) if ext.code_edge == b => survivors.push(state.apply(ext)),
                    _ => {
                        best = Some(ext.code_edge);
                        survivors.clear();
                        survivors.push(state.apply(ext));
                    }
                }
            }
        }
        let best = best.expect("connected graphs always extend until all edges are coded");
        code.push(best);
        states = survivors;
    }

    let witness = states.into_iter().next().expect("at least one traversal realizes the code");
    Some(CanonicalForm {
        code: DfsCode { edges: code, root_label: g.vertex(witness.vertex_of[0]).label },
        vertex_order: witness.vertex_of,
        edge_order: witness.edge_of,
    })
}

/// The paper's naive canonical form: the minimum row-major sequence of
/// the labeled adjacency matrix over all vertex permutations, prefixed
/// with the permuted vertex labels.
///
/// Exponential in the vertex count — use only for small graphs (the
/// implementation refuses more than [`NAIVE_CANONICAL_MAX_VERTICES`]).
pub fn naive_canonical(g: &LabeledGraph) -> Vec<u32> {
    assert!(
        g.vertex_count() <= NAIVE_CANONICAL_MAX_VERTICES,
        "naive_canonical is factorial; {} vertices exceeds the cap of {}",
        g.vertex_count(),
        NAIVE_CANONICAL_MAX_VERTICES
    );
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best: Option<Vec<u32>> = None;
    permute(&mut perm, 0, &mut |p| {
        let mut seq = Vec::with_capacity(n + n * (n - 1) / 2);
        for &i in p {
            seq.push(g.vertex(VertexId(i as u32)).label.0);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let cell = g
                    .edge_between(VertexId(p[a] as u32), VertexId(p[b] as u32))
                    .map_or(0, |e| g.edge(e).attr.label.0 + 1);
                seq.push(cell);
            }
        }
        if best.as_ref().is_none_or(|b| seq < *b) {
            best = Some(seq);
        }
    });
    best.expect("n >= 1 yields at least one permutation")
}

/// Cap on [`naive_canonical`] input size (8! = 40 320 permutations).
pub const NAIVE_CANONICAL_MAX_VERTICES: usize = 8;

fn permute(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, f);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{cycle_graph, path_graph, star_graph};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Relabel a graph's vertices by a permutation; canonical forms must
    /// be invariant under this.
    fn shuffle(g: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let mut order: Vec<usize> = (0..g.vertex_count()).collect();
        order.sort_by_key(|&i| perm[i]);
        let mut new_id = vec![VertexId(0); g.vertex_count()];
        for &old in &order {
            new_id[old] = b.add_vertex(g.vertex(VertexId(old as u32)));
        }
        for e in g.edges() {
            b.add_edge(new_id[e.source.index()], new_id[e.target.index()], e.attr).unwrap();
        }
        b.build()
    }

    #[test]
    fn single_vertex_code() {
        let mut b = GraphBuilder::new();
        b.add_vertex(VertexAttr::labeled(l(7)));
        let g = b.build();
        let c = min_dfs_code(&g).unwrap();
        assert!(c.code.edges.is_empty());
        assert_eq!(c.code.root_label, l(7));
        assert_eq!(c.code.vertex_count(), 1);
        assert!(c.code.is_min());
    }

    #[test]
    fn empty_and_disconnected_have_no_code() {
        assert!(min_dfs_code(&LabeledGraph::default()).is_none());
        let mut b = GraphBuilder::new();
        b.add_vertex(VertexAttr::labeled(l(0)));
        b.add_vertex(VertexAttr::labeled(l(0)));
        assert!(min_dfs_code(&b.build()).is_none());
    }

    #[test]
    fn code_reconstructs_graph() {
        let g = cycle_graph(5, l(2), l(3));
        let c = min_dfs_code(&g).unwrap();
        let rebuilt = c.code.to_graph();
        assert_eq!(rebuilt.vertex_count(), 5);
        assert_eq!(rebuilt.edge_count(), 5);
        // The rebuilt graph is isomorphic: recanonicalizing is a fixpoint.
        let c2 = min_dfs_code(&rebuilt).unwrap();
        assert_eq!(c.code, c2.code);
    }

    #[test]
    fn canonical_invariant_under_relabeling() {
        let g = cycle_graph(6, l(0), l(1));
        let c1 = min_dfs_code(&g).unwrap().code;
        let g2 = shuffle(&g, &[3, 5, 0, 1, 4, 2]);
        let c2 = min_dfs_code(&g2).unwrap().code;
        assert_eq!(c1, c2);
        assert_eq!(c1.to_sequence(), c2.to_sequence());
    }

    #[test]
    fn different_structures_get_different_codes() {
        let path = path_graph(4, l(0), l(0));
        let star = star_graph(3, l(0), l(0));
        // Same vertex and edge counts, different topology.
        assert_eq!(path.vertex_count(), star.vertex_count());
        assert_eq!(path.edge_count(), star.edge_count());
        let cp = min_dfs_code(&path).unwrap().code;
        let cs = min_dfs_code(&star).unwrap().code;
        assert_ne!(cp, cs);
        assert_ne!(cp.to_sequence(), cs.to_sequence());
    }

    #[test]
    fn labels_distinguish_codes() {
        let a = cycle_graph(3, l(0), l(0));
        let b = cycle_graph(3, l(0), l(1));
        assert_ne!(min_dfs_code(&a).unwrap().code, min_dfs_code(&b).unwrap().code);
    }

    #[test]
    fn vertex_order_is_a_valid_traversal() {
        let g = cycle_graph(6, l(0), l(0));
        let c = min_dfs_code(&g).unwrap();
        assert_eq!(c.vertex_order.len(), 6);
        assert_eq!(c.edge_order.len(), 6);
        // vertex_order is a permutation.
        let mut sorted = c.vertex_order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        // Each code edge maps to the matching graph edge.
        for (pos, ce) in c.code.edges.iter().enumerate() {
            let ge = g.edge(c.edge_order[pos]);
            let (u, v) = (c.vertex_order[ce.from as usize], c.vertex_order[ce.to as usize]);
            assert!(
                (ge.source, ge.target) == (u, v) || (ge.source, ge.target) == (v, u),
                "code edge {pos} does not match its graph edge"
            );
        }
    }

    #[test]
    fn is_min_accepts_canonical_and_rejects_non_canonical() {
        let g = cycle_graph(4, l(0), l(0));
        let c = min_dfs_code(&g).unwrap().code;
        assert!(c.is_min());
        // A hand-built non-minimal code for the 4-cycle: start the
        // traversal so the backward edge closes late with a larger
        // quintuple order. Swapping two middle forward edges breaks
        // minimality while still encoding a connected graph.
        let non_min = DfsCode {
            edges: vec![
                DfsEdge { from: 0, to: 1, from_label: l(0), edge_label: l(0), to_label: l(0) },
                DfsEdge { from: 1, to: 2, from_label: l(0), edge_label: l(0), to_label: l(0) },
                DfsEdge { from: 1, to: 3, from_label: l(0), edge_label: l(0), to_label: l(0) },
                DfsEdge { from: 3, to: 2, from_label: l(0), edge_label: l(0), to_label: l(0) },
            ],
            root_label: l(0),
        };
        assert!(!non_min.is_min());
    }

    #[test]
    fn naive_agrees_with_dfs_code_on_small_graphs() {
        // naive_canonical(a) == naive_canonical(b)  <=>  min codes equal.
        let cases = [
            (cycle_graph(5, l(0), l(1)), cycle_graph(5, l(0), l(1)), true),
            (cycle_graph(5, l(0), l(1)), cycle_graph(5, l(0), l(2)), false),
            (path_graph(4, l(0), l(0)), star_graph(3, l(0), l(0)), false),
            (
                path_graph(5, l(1), l(2)),
                shuffle(&path_graph(5, l(1), l(2)), &[4, 2, 0, 1, 3]),
                true,
            ),
        ];
        for (a, b, equal) in cases {
            let naive_eq = naive_canonical(&a) == naive_canonical(&b);
            let code_eq = min_dfs_code(&a).unwrap().code == min_dfs_code(&b).unwrap().code;
            assert_eq!(naive_eq, equal);
            assert_eq!(code_eq, equal);
        }
    }

    #[test]
    fn dfs_edge_order_rules() {
        let fwd =
            |from, to| DfsEdge { from, to, from_label: l(0), edge_label: l(0), to_label: l(0) };
        // forward/forward: smaller destination first.
        assert!(fwd(1, 2) < fwd(0, 3));
        // same destination: deeper source first.
        assert!(fwd(2, 3) < fwd(0, 3));
        // backward/backward: smaller source first.
        assert!(fwd(2, 0) < fwd(3, 0));
        assert!(fwd(2, 0) < fwd(2, 1));
        // backward (i, _) before forward (_, j) iff i < j.
        assert!(fwd(2, 1) < fwd(1, 3)); // i=2 < j=3
        assert!(fwd(2, 1) > fwd(0, 2)); // i=2, j=2 -> forward first

        // label tiebreak on otherwise equal structure.
        let labeled =
            DfsEdge { from: 0, to: 1, from_label: l(0), edge_label: l(1), to_label: l(0) };
        assert!(fwd(0, 1) < labeled);
    }

    #[test]
    fn sequence_embeds_counts() {
        let g = path_graph(3, l(4), l(5));
        let seq = min_dfs_code(&g).unwrap().code.to_sequence();
        assert_eq!(seq[0], 3); // vertices
        assert_eq!(seq[1], 2); // edges
        assert_eq!(seq.len(), 3 + 2 * 5);
    }

    #[test]
    fn naive_canonical_rejects_large_graphs() {
        let g = path_graph(9, l(0), l(0));
        let res = std::panic::catch_unwind(|| naive_canonical(&g));
        assert!(res.is_err());
    }
}
