//! The labeled graph type stored in PIS graph databases.
//!
//! Graphs are undirected, simple (no self-loops, no parallel edges),
//! with a categorical [`Label`] and a numeric weight on every vertex and
//! edge. Categorical labels drive the mutation distance; weights drive
//! the linear mutation distance (Section 2 of the paper). A graph whose
//! labels are all [`Label::ERASED`] and whose weights are all zero is a
//! *bare structure* (the paper's "skeleton" / "topology").

use std::fmt;

use crate::error::GraphError;
use crate::ids::{EdgeId, Label, VertexId};
use crate::iso::AdjBits;

/// Attributes carried by a vertex.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct VertexAttr {
    /// Categorical label (atom type in the chemical datasets).
    pub label: Label,
    /// Numeric weight used by the linear mutation distance.
    pub weight: f64,
}

impl VertexAttr {
    /// A vertex attribute with the given label and zero weight.
    pub fn labeled(label: Label) -> Self {
        VertexAttr { label, weight: 0.0 }
    }
}

/// Attributes carried by an edge.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EdgeAttr {
    /// Categorical label (bond type in the chemical datasets).
    pub label: Label,
    /// Numeric weight used by the linear mutation distance.
    pub weight: f64,
}

impl EdgeAttr {
    /// An edge attribute with the given label and zero weight.
    pub fn labeled(label: Label) -> Self {
        EdgeAttr { label, weight: 0.0 }
    }
}

/// An undirected edge together with its attributes.
///
/// `source < target` is not guaranteed; use [`Edge::endpoints`] and
/// [`Edge::other`] to stay direction-agnostic.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Edge {
    /// First endpoint.
    pub source: VertexId,
    /// Second endpoint.
    pub target: VertexId,
    /// Edge attributes.
    pub attr: EdgeAttr,
}

impl Edge {
    /// Both endpoints as a pair.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.source, self.target)
    }

    /// The endpoint opposite to `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, v: VertexId) -> VertexId {
        if v == self.source {
            self.target
        } else {
            debug_assert_eq!(v, self.target, "vertex not incident to edge");
            self.source
        }
    }

    /// Whether `v` is an endpoint of this edge.
    #[inline]
    pub fn is_incident(&self, v: VertexId) -> bool {
        v == self.source || v == self.target
    }
}

/// An undirected, simple, labeled, weighted graph.
///
/// Construct with [`GraphBuilder`]; the built graph is immutable, which
/// lets the index and matcher borrow it freely.
///
/// The adjacency is one compressed block: vertex `v`'s `(neighbor,
/// edge)` pairs are `adjacency[offsets[v]..offsets[v + 1]]`, in edge
/// insertion order. The matcher's bit rows ([`AdjBits`]) are derived
/// from it when the graph is built and kept with it, so a graph checked
/// as a target many times pays for them once.
#[derive(Clone)]
pub struct LabeledGraph {
    vertices: Box<[VertexAttr]>,
    edges: Box<[Edge]>,
    /// `vertex_count() + 1` offsets into `adjacency`.
    offsets: Box<[u32]>,
    /// Every vertex's incidences, concatenated by vertex.
    adjacency: Box<[(VertexId, EdgeId)]>,
    /// The matcher's bit rows.
    bits: AdjBits,
}

impl Default for LabeledGraph {
    /// The empty graph, as [`GraphBuilder`] builds it.
    fn default() -> Self {
        GraphBuilder::new().build()
    }
}

/// Two graphs are equal when their vertices and edges are: the adjacency
/// block and the bit rows are functions of those.
impl PartialEq for LabeledGraph {
    fn eq(&self, other: &Self) -> bool {
        self.vertices == other.vertices && self.edges == other.edges
    }
}

impl fmt::Debug for LabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabeledGraph")
            .field("vertices", &self.vertices)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl LabeledGraph {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges. The paper writes `|Q|` for the edge count of a
    /// query graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Iterator over all vertex ids.
    pub fn vertex_ids(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Attributes of vertex `v`.
    #[inline]
    pub fn vertex(&self, v: VertexId) -> VertexAttr {
        self.vertices[v.index()]
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// `(neighbor, edge)` pairs incident to `v`, in edge insertion
    /// order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adjacency[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The edge connecting `u` and `v`, if any.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        // Scan the smaller adjacency list; molecular degrees are tiny so
        // a linear scan beats any auxiliary map.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).iter().find(|(n, _)| *n == b).map(|(_, e)| *e)
    }

    /// The matcher's bit rows of this graph, derived from its adjacency
    /// when it was built.
    #[inline]
    pub fn bits(&self) -> &AdjBits {
        &self.bits
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Whether the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![VertexId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(n, _) in self.neighbors(v) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.vertices.len()
    }

    /// Connected components as lists of vertex ids.
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let mut seen = vec![false; self.vertices.len()];
        let mut components = Vec::new();
        for start in self.vertex_ids() {
            if seen[start.index()] {
                continue;
            }
            let mut comp = vec![start];
            seen[start.index()] = true;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &(n, _) in self.neighbors(v) {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        comp.push(n);
                        stack.push(n);
                    }
                }
            }
            components.push(comp);
        }
        components
    }

    /// A copy with every label replaced by [`Label::ERASED`] and every
    /// weight zeroed: the bare structure (skeleton) used for
    /// structural-equivalence-class hashing (Section 4).
    pub fn erase_labels(&self) -> LabeledGraph {
        let mut g = self.clone();
        for v in g.vertices.iter_mut() {
            *v = VertexAttr::default();
        }
        for e in g.edges.iter_mut() {
            e.attr = EdgeAttr::default();
        }
        g
    }

    /// The subgraph spanned by `edge_ids`: vertices are the endpoints of
    /// the chosen edges, re-numbered densely. Returns the subgraph and
    /// the mapping `subgraph vertex -> original vertex`.
    ///
    /// Attributes are copied. Duplicate ids are ignored.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> (LabeledGraph, Vec<VertexId>) {
        let mut old_to_new: Vec<Option<VertexId>> = vec![None; self.vertices.len()];
        let mut new_to_old: Vec<VertexId> = Vec::new();
        let mut builder = GraphBuilder::new();
        let mut used = vec![false; self.edges.len()];
        let map_vertex = |v: VertexId,
                          builder: &mut GraphBuilder,
                          old_to_new: &mut Vec<Option<VertexId>>,
                          new_to_old: &mut Vec<VertexId>|
         -> VertexId {
            if let Some(nv) = old_to_new[v.index()] {
                nv
            } else {
                let nv = builder.add_vertex(self.vertex(v));
                old_to_new[v.index()] = Some(nv);
                new_to_old.push(v);
                nv
            }
        };
        for &e in edge_ids {
            if used[e.index()] {
                continue;
            }
            used[e.index()] = true;
            let edge = self.edge(e);
            let u = map_vertex(edge.source, &mut builder, &mut old_to_new, &mut new_to_old);
            let v = map_vertex(edge.target, &mut builder, &mut old_to_new, &mut new_to_old);
            builder.add_edge(u, v, edge.attr).expect("subgraph of a simple graph is simple");
        }
        (builder.build(), new_to_old)
    }

    /// Sum of all vertex and edge weights; handy for quick sanity checks
    /// of weighted datasets.
    pub fn total_weight(&self) -> f64 {
        self.vertices.iter().map(|v| v.weight).sum::<f64>()
            + self.edges.iter().map(|e| e.attr.weight).sum::<f64>()
    }
}

/// Incremental builder for [`LabeledGraph`].
///
/// ```
/// use pis_graph::{GraphBuilder, Label, VertexAttr, EdgeAttr};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(VertexAttr::labeled(Label(1)));
/// let v = b.add_vertex(VertexAttr::labeled(Label(1)));
/// b.add_edge(u, v, EdgeAttr::labeled(Label(2))).unwrap();
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    vertices: Vec<VertexAttr>,
    edges: Vec<Edge>,
    /// Degree of each vertex so far.
    degree: Vec<u32>,
    /// Each vertex's incidences as a linked list, newest first: `head[v]`
    /// is a slot (`2e` for edge `e` at its source, `2e + 1` at its
    /// target) and `next[slot]` the vertex's previous slot; `NO_SLOT`
    /// ends a list. Only duplicate-edge checks read it.
    head: Vec<u32>,
    next: Vec<u32>,
}

/// End of a [`GraphBuilder`] incidence list.
const NO_SLOT: u32 = u32::MAX;

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// A builder with pre-reserved capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            vertices: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            degree: Vec::with_capacity(vertices),
            head: Vec::with_capacity(vertices),
            next: Vec::with_capacity(2 * edges),
        }
    }

    /// Adds a vertex and returns its id.
    pub fn add_vertex(&mut self, attr: VertexAttr) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(attr);
        self.degree.push(0);
        self.head.push(NO_SLOT);
        id
    }

    /// Adds `n` vertices with the same attributes; returns their ids.
    pub fn add_vertices(&mut self, n: usize, attr: VertexAttr) -> Vec<VertexId> {
        (0..n).map(|_| self.add_vertex(attr)).collect()
    }

    /// Adds an undirected edge. Rejects self-loops, parallel edges and
    /// out-of-range endpoints (PIS graphs are simple).
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        attr: EdgeAttr,
    ) -> Result<EdgeId, GraphError> {
        let n = self.vertices.len();
        for w in [u, v] {
            if w.index() >= n {
                return Err(GraphError::InvalidVertex { vertex: w, vertex_count: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.adjacent(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { source: u, target: v, attr });
        for (slot, w) in [(2 * id.0, u), (2 * id.0 + 1, v)] {
            self.next.push(self.head[w.index()]);
            self.head[w.index()] = slot;
            self.degree[w.index()] += 1;
        }
        Ok(id)
    }

    /// Whether an edge joins `u` and `v`, by a walk of the shorter
    /// incidence list.
    fn adjacent(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree[u.index()] <= self.degree[v.index()] { (u, v) } else { (v, u) };
        let mut slot = self.head[a.index()];
        while slot != NO_SLOT {
            let edge = &self.edges[(slot / 2) as usize];
            if (if slot % 2 == 0 { edge.target } else { edge.source }) == b {
                return true;
            }
            slot = self.next[slot as usize];
        }
        false
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Edges added so far.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph: lays the incidences out as one block, each
    /// vertex's in edge insertion order, and derives the matcher's bit
    /// rows from it.
    pub fn build(self) -> LabeledGraph {
        let GraphBuilder { vertices, edges, degree: mut cursor, .. } = self;
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for d in &mut cursor {
            // The degree becomes the vertex's write cursor.
            (*d, end) = (end, end + *d);
            offsets.push(end);
        }
        let mut adjacency = vec![(VertexId(0), EdgeId(0)); 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            for (w, other) in [(e.source, e.target), (e.target, e.source)] {
                adjacency[cursor[w.index()] as usize] = (other, EdgeId(i as u32));
                cursor[w.index()] += 1;
            }
        }
        LabeledGraph {
            bits: AdjBits::from_csr(&offsets, &adjacency),
            vertices: vertices.into_boxed_slice(),
            edges: edges.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            adjacency: adjacency.into_boxed_slice(),
        }
    }
}

/// Builds a labeled path `v0 - v1 - … - v(n-1)`; test/demo helper.
pub fn path_graph(n: usize, vertex_label: Label, edge_label: Label) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs = b.add_vertices(n, VertexAttr::labeled(vertex_label));
    for w in vs.windows(2) {
        b.add_edge(w[0], w[1], EdgeAttr::labeled(edge_label)).unwrap();
    }
    b.build()
}

/// Builds a labeled cycle of `n ≥ 3` vertices; test/demo helper.
pub fn cycle_graph(n: usize, vertex_label: Label, edge_label: Label) -> LabeledGraph {
    assert!(n >= 3, "a simple cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new();
    let vs = b.add_vertices(n, VertexAttr::labeled(vertex_label));
    for i in 0..n {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(edge_label)).unwrap();
    }
    b.build()
}

/// Builds the complete graph on `n` vertices; test helper.
pub fn complete_graph(n: usize, vertex_label: Label, edge_label: Label) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs = b.add_vertices(n, VertexAttr::labeled(vertex_label));
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(vs[i], vs[j], EdgeAttr::labeled(edge_label)).unwrap();
        }
    }
    b.build()
}

/// Builds a star with `n` leaves around a hub; test helper.
pub fn star_graph(n: usize, vertex_label: Label, edge_label: Label) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let hub = b.add_vertex(VertexAttr::labeled(vertex_label));
    for _ in 0..n {
        let leaf = b.add_vertex(VertexAttr::labeled(vertex_label));
        b.add_edge(hub, leaf, EdgeAttr::labeled(edge_label)).unwrap();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(l: u32) -> VertexAttr {
        VertexAttr::labeled(Label(l))
    }

    fn eattr(l: u32) -> EdgeAttr {
        EdgeAttr::labeled(Label(l))
    }

    #[test]
    fn builder_basic() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(attr(1));
        let v = b.add_vertex(attr(2));
        let e = b.add_edge(u, v, eattr(5)).unwrap();
        let g = b.build();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.vertex(u).label, Label(1));
        assert_eq!(g.vertex(v).label, Label(2));
        assert_eq!(g.edge(e).attr.label, Label(5));
        assert_eq!(g.edge_between(u, v), Some(e));
        assert_eq!(g.edge_between(v, u), Some(e));
        assert_eq!(g.degree(u), 1);
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(attr(0));
        assert_eq!(b.add_edge(u, u, eattr(0)), Err(GraphError::SelfLoop(u)));
    }

    #[test]
    fn builder_rejects_duplicate_edge() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(attr(0));
        let v = b.add_vertex(attr(0));
        b.add_edge(u, v, eattr(0)).unwrap();
        assert_eq!(b.add_edge(v, u, eattr(1)), Err(GraphError::DuplicateEdge(v, u)));
    }

    #[test]
    fn builder_rejects_invalid_vertex() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(attr(0));
        let bad = VertexId(9);
        assert!(matches!(b.add_edge(u, bad, eattr(0)), Err(GraphError::InvalidVertex { .. })));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = path_graph(2, Label(0), Label(0));
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(VertexId(0)), VertexId(1));
        assert_eq!(e.other(VertexId(1)), VertexId(0));
        assert!(e.is_incident(VertexId(0)));
        assert!(!e.is_incident(VertexId(5)));
    }

    #[test]
    fn connectivity() {
        assert!(path_graph(5, Label(0), Label(0)).is_connected());
        assert!(cycle_graph(6, Label(0), Label(0)).is_connected());
        let mut b = GraphBuilder::new();
        b.add_vertex(attr(0));
        b.add_vertex(attr(0));
        let g = b.build();
        assert!(!g.is_connected());
        assert_eq!(g.connected_components().len(), 2);
        assert!(LabeledGraph::default().is_connected());
    }

    #[test]
    fn erase_labels_keeps_topology() {
        let g = cycle_graph(4, Label(3), Label(7));
        let s = g.erase_labels();
        assert_eq!(s.vertex_count(), 4);
        assert_eq!(s.edge_count(), 4);
        for v in s.vertex_ids() {
            assert_eq!(s.vertex(v).label, Label::ERASED);
        }
        for e in s.edges() {
            assert_eq!(e.attr.label, Label::ERASED);
        }
    }

    #[test]
    fn edge_subgraph_extracts_and_maps() {
        let g = path_graph(4, Label(1), Label(2));
        // Take the middle edge only.
        let (sub, map) = g.edge_subgraph(&[EdgeId(1)]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(map.len(), 2);
        // Mapped-back endpoints are 1 and 2 in the original path.
        let mut ends: Vec<u32> = map.iter().map(|v| v.0).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![1, 2]);
    }

    #[test]
    fn edge_subgraph_ignores_duplicates() {
        let g = path_graph(3, Label(0), Label(0));
        let (sub, _) = g.edge_subgraph(&[EdgeId(0), EdgeId(0)]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn generators_have_expected_shape() {
        let p = path_graph(5, Label(0), Label(0));
        assert_eq!((p.vertex_count(), p.edge_count()), (5, 4));
        let c = cycle_graph(6, Label(0), Label(0));
        assert_eq!((c.vertex_count(), c.edge_count()), (6, 6));
        for v in c.vertex_ids() {
            assert_eq!(c.degree(v), 2);
        }
        let k = complete_graph(5, Label(0), Label(0));
        assert_eq!((k.vertex_count(), k.edge_count()), (5, 10));
        let s = star_graph(4, Label(0), Label(0));
        assert_eq!((s.vertex_count(), s.edge_count()), (5, 4));
        assert_eq!(s.degree(VertexId(0)), 4);
    }

    #[test]
    fn total_weight_sums_vertices_and_edges() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VertexAttr { label: Label(0), weight: 1.5 });
        let v = b.add_vertex(VertexAttr { label: Label(0), weight: 2.5 });
        b.add_edge(u, v, EdgeAttr { label: Label(0), weight: 3.0 }).unwrap();
        assert_eq!(b.build().total_weight(), 7.0);
    }
}
