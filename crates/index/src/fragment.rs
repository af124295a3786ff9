//! Fragment vectors: class-canonical readouts of embeddings.
//!
//! A fragment is an occurrence of a feature structure inside a graph —
//! formally an embedding `φ: f → G`. Its *vector* is the sequence of
//! labels of the image, read in the feature's canonical order: edge
//! slots first (code order), then vertex slots (the representative's
//! vertex order). Two fragments of the same class therefore always get
//! comparable, equal-length vectors, and the per-slot distance sums to
//! the superposition distance — the key identity behind answering
//! Eq. (3) with an index-only range query.
//!
//! A vector stores a kind of slot only when the distance can price it
//! (`IndexDistance::slots`): a position whose score matrix is all zero
//! adds nothing to any sum, so under the paper's edge-Hamming distance a
//! vector is its edge labels alone, and under the linear distance a
//! class is 0 wide and every vector is empty (the index keeps no
//! weights, `crate::index`). Edges lead the layout when both kinds are
//! stored.
//!
//! Readouts append to caller-owned buffers (a build's row matrix, a
//! query's [`FragmentBuffer`]); a probe travels as a borrowed
//! [`FragmentVectorRef`], so no fragment owns a `Vec`.

use pis_graph::{Embedding, Label, LabeledGraph, VertexId};
use pis_mining::FeatureId;

use crate::symmetry::AdmitScratch;

/// A borrowed fragment vector — the slice view the query funnel passes
/// around so arena-backed fragments ([`FragmentBuffer`]) never
/// materialize per-fragment `Vec`s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FragmentVectorRef<'a> {
    /// The stored edge labels then vertex labels — every vector the
    /// index reads, empty under the linear distance.
    Labels(&'a [Label]),
    /// Edge weights then vertex weights. No longer produced: the index
    /// keeps no weight vectors. Kept for callers that still match on
    /// it, until the probe type loses its variants (ROADMAP direction
    /// 2(b)).
    Weights(&'a [f64]),
}

impl<'a> FragmentVectorRef<'a> {
    /// The vector length (its stored edge and vertex slots).
    pub fn len(&self) -> usize {
        match self {
            FragmentVectorRef::Labels(v) => v.len(),
            FragmentVectorRef::Weights(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label slots.
    ///
    /// # Panics
    /// Panics if this is a weight vector.
    pub fn labels(&self) -> &'a [Label] {
        match self {
            FragmentVectorRef::Labels(v) => v,
            FragmentVectorRef::Weights(_) => panic!("expected a label vector, found weights"),
        }
    }

    /// The weight slots.
    ///
    /// # Panics
    /// Panics if this is a label vector.
    pub fn weights(&self) -> &'a [f64] {
        match self {
            FragmentVectorRef::Weights(v) => v,
            FragmentVectorRef::Labels(_) => panic!("expected a weight vector, found labels"),
        }
    }
}

/// Appends the label vector of an embedding to `out`: the target
/// labels of the feature's edges (in code order), then of its vertices
/// (in the representative's identity order, which is canonical) —
/// `slots = (edge_slots, vertex_slots)` of each, as
/// `IndexDistance::slots` gives them: every one of a kind, or none.
pub fn label_vector_into(
    feature: &LabeledGraph,
    target: &LabeledGraph,
    embedding: &Embedding,
    (edge_slots, vertex_slots): (usize, usize),
    out: &mut Vec<Label>,
) {
    for e in feature.edge_ids().take(edge_slots) {
        let te = embedding.edge_image(feature, target, e);
        out.push(target.edge(te).attr.label);
    }
    for p in feature.vertex_ids().take(vertex_slots) {
        out.push(target.vertex(embedding.vertex_image(p)).label);
    }
}

/// Arena-backed storage for one query's enumerated fragments — what
/// Algorithm 2 enumerates on lines 3–4, one per occurrence of a feature
/// in the query. Fragment `i` has a feature (its equivalence class),
/// the sorted query vertices it covers (they drive the
/// overlapping-relation graph) and a vector: the least of its
/// occurrence's readings, which is enough because the index stores
/// every database-side reading.
///
/// All fragments share four flat arrays (features, vertex images,
/// label slots, offsets), beside the matcher's reusable state. Held
/// inside the searcher's scratch and reused across queries,
/// `FragmentIndex::enumerate_query_fragments_into` performs no
/// steady-state heap allocation.
#[derive(Debug, Default)]
pub struct FragmentBuffer {
    /// Feature of fragment `i`.
    pub(crate) features: Vec<FeatureId>,
    /// Vertex images, concatenated; fragment `i` owns
    /// `verts[vert_start[i]..vert_start[i + 1]]` (sorted ascending).
    pub(crate) vert_start: Vec<u32>,
    pub(crate) verts: Vec<VertexId>,
    /// Vector slots, concatenated; fragment `i` owns
    /// `labels[vec_start[i]..vec_start[i + 1]]`.
    pub(crate) vec_start: Vec<u32>,
    pub(crate) labels: Vec<Label>,
    /// The matcher's DFS state, reused by every feature's enumeration.
    pub(crate) admit: AdmitScratch,
}

impl FragmentBuffer {
    /// An empty buffer; it sizes itself on first use.
    pub fn new() -> Self {
        FragmentBuffer::default()
    }

    /// Resets for a new query, keeping every allocation.
    pub(crate) fn reset(&mut self) {
        self.features.clear();
        self.vert_start.clear();
        self.vert_start.push(0);
        self.verts.clear();
        self.vec_start.clear();
        self.vec_start.push(0);
        self.labels.clear();
    }

    /// Number of fragments stored.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether no fragments are stored.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature (equivalence class) of fragment `i`.
    pub fn feature(&self, i: usize) -> FeatureId {
        self.features[i]
    }

    /// Sorted query vertices covered by fragment `i`.
    pub fn vertices(&self, i: usize) -> &[VertexId] {
        &self.verts[self.vert_start[i] as usize..self.vert_start[i + 1] as usize]
    }

    /// The vector of fragment `i`, borrowed from the arena.
    pub fn vector(&self, i: usize) -> FragmentVectorRef<'_> {
        let (s, e) = (self.vec_start[i] as usize, self.vec_start[i + 1] as usize);
        FragmentVectorRef::Labels(&self.labels[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::graph::path_graph;
    use pis_graph::iso::{embeddings, IsoConfig};
    use pis_graph::{EdgeAttr, GraphBuilder, VertexAttr};

    fn labeled_path(vlabels: &[u32], elabels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = vlabels
            .iter()
            .map(|&l| b.add_vertex(VertexAttr { label: Label(l), weight: l as f64 }))
            .collect();
        for (i, &l) in elabels.iter().enumerate() {
            b.add_edge(vs[i], vs[i + 1], EdgeAttr { label: Label(l), weight: 10.0 + l as f64 })
                .unwrap();
        }
        b.build()
    }

    /// Every slot of both kinds, as a distance pricing both stores.
    fn labels_of(feature: &LabeledGraph, target: &LabeledGraph, e: &Embedding) -> Vec<Label> {
        let mut v = Vec::new();
        let slots = (feature.edge_count(), feature.vertex_count());
        label_vector_into(feature, target, e, slots, &mut v);
        v
    }

    #[test]
    fn vectors_follow_canonical_layout() {
        let feature = path_graph(3, Label::ERASED, Label::ERASED);
        let target = labeled_path(&[1, 2, 3], &[7, 8]);
        let embs = embeddings(&feature, &target, IsoConfig::STRUCTURE);
        // Identity and reversal.
        assert_eq!(embs.len(), 2);
        let vectors: Vec<Vec<Label>> =
            embs.iter().map(|e| labels_of(&feature, &target, e)).collect();
        assert!(vectors.contains(&vec![Label(7), Label(8), Label(1), Label(2), Label(3)]));
        assert!(vectors.contains(&vec![Label(8), Label(7), Label(3), Label(2), Label(1)]));
    }

    #[test]
    fn automorphic_readouts_differ_but_cover_each_other() {
        // The two readouts of a symmetric site are mutual reversals —
        // exactly why the index inserts every embedding.
        let feature = path_graph(2, Label::ERASED, Label::ERASED);
        let target = labeled_path(&[4, 9], &[1]);
        let vectors: Vec<Vec<Label>> = embeddings(&feature, &target, IsoConfig::STRUCTURE)
            .iter()
            .map(|e| labels_of(&feature, &target, e))
            .collect();
        assert_eq!(vectors.len(), 2);
        assert_ne!(vectors[0], vectors[1]);
        // Layout: [edge, v0, v1]; reversing the vertex pair gives the
        // other automorphic readout.
        let mut rev = vectors[0].clone();
        rev[1..].reverse();
        assert_eq!(rev, vectors[1]);
    }

    #[test]
    fn vector_accessors() {
        let lv = FragmentVectorRef::Labels(&[Label(1)]);
        assert_eq!(lv.len(), 1);
        assert!(!lv.is_empty());
        assert_eq!(lv.labels(), &[Label(1)]);
        let wv = FragmentVectorRef::Weights(&[1.0, 2.0]);
        assert_eq!(wv.weights(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "expected a label vector")]
    fn weights_are_not_labels() {
        let wv = FragmentVectorRef::Weights(&[1.0]);
        let _ = wv.labels();
    }
}
