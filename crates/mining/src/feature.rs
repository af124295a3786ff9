//! Deduplicated feature sets.
//!
//! A *feature* is an index structure `f` in the paper's terms: a bare
//! (label-erased) connected structure whose equivalence class `[f]` gets
//! its own entry in the fragment index's hash table. Every feature
//! stores its canonical representative graph — vertices in DFS-discovery
//! order, edges in code order — which defines the class-consistent
//! readout order for label vectors.

use std::fmt;

use pis_graph::canonical::DfsCode;
use pis_graph::util::FxHashMap;
use pis_graph::LabeledGraph;

/// Identifier of a feature within a [`FeatureSet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The feature position as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FeatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One index structure.
#[derive(Clone, Debug)]
pub struct Feature {
    /// Identifier within the owning set.
    pub id: FeatureId,
    /// Canonical representative: vertices in DFS order, edges in code
    /// order (rebuilt from the minimum DFS code, so its identity order
    /// *is* canonical).
    pub structure: LabeledGraph,
    /// The minimum DFS code of the structure.
    pub code: DfsCode,
    /// Number of graphs containing the structure, as far as known: a
    /// selector counts it in the graphs it mined (for gIndex on a large
    /// database, a sample), and an index built over the set replaces
    /// it with the class's exact posting count.
    pub support: usize,
}

impl Feature {
    /// Edge count of the structure.
    pub fn edge_count(&self) -> usize {
        self.structure.edge_count()
    }

    /// Vertex count of the structure.
    pub fn vertex_count(&self) -> usize {
        self.structure.vertex_count()
    }
}

/// A set of features, deduplicated by canonical code.
#[derive(Clone, Debug, Default)]
pub struct FeatureSet {
    features: Vec<Feature>,
    by_sequence: FxHashMap<Vec<u32>, FeatureId>,
}

impl FeatureSet {
    /// An empty set.
    pub fn new() -> Self {
        FeatureSet::default()
    }

    /// Inserts a feature by its minimum DFS code; returns the id and
    /// whether the feature was new. Re-inserting an existing code keeps
    /// the larger support.
    pub fn insert(&mut self, code: DfsCode, support: usize) -> (FeatureId, bool) {
        let seq = code.to_sequence();
        if let Some(&id) = self.by_sequence.get(&seq) {
            let f = &mut self.features[id.index()];
            f.support = f.support.max(support);
            return (id, false);
        }
        let id = FeatureId(self.features.len() as u32);
        let structure = code.to_graph();
        self.features.push(Feature { id, structure, code, support });
        self.by_sequence.insert(seq, id);
        (id, true)
    }

    /// The feature with the given id.
    pub fn get(&self, id: FeatureId) -> &Feature {
        &self.features[id.index()]
    }

    /// Sets the feature's support (an index sets it to the class's
    /// posting count, which is exact over the indexed database).
    pub fn set_support(&mut self, id: FeatureId, support: usize) {
        self.features[id.index()].support = support;
    }

    /// Looks a feature up by canonical sequence.
    pub fn lookup(&self, sequence: &[u32]) -> Option<FeatureId> {
        self.by_sequence.get(sequence).copied()
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Iterator over all features.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Feature> {
        self.features.iter()
    }

    /// The smallest feature edge count (the paper's `l`, which bounds
    /// the maximum partition size `|Q|/l` in Lemma 1).
    pub fn min_edges(&self) -> Option<usize> {
        self.features.iter().map(Feature::edge_count).min()
    }

    /// The largest feature edge count.
    pub fn max_edges(&self) -> Option<usize> {
        self.features.iter().map(Feature::edge_count).max()
    }
}

impl<'a> IntoIterator for &'a FeatureSet {
    type Item = &'a Feature;
    type IntoIter = std::slice::Iter<'a, Feature>;

    fn into_iter(self) -> Self::IntoIter {
        self.features.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::canonical::min_dfs_code;
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::Label;

    fn code_of(g: &LabeledGraph) -> DfsCode {
        min_dfs_code(g).unwrap().code
    }

    #[test]
    fn insert_dedups_by_code() {
        let mut set = FeatureSet::new();
        let c6 = code_of(&cycle_graph(6, Label(0), Label(0)));
        let (id1, new1) = set.insert(c6.clone(), 10);
        let (id2, new2) = set.insert(c6.clone(), 25);
        assert_eq!(id1, id2);
        assert!(new1);
        assert!(!new2);
        assert_eq!(set.len(), 1);
        // Larger support wins.
        assert_eq!(set.get(id1).support, 25);
    }

    #[test]
    fn lookup_by_sequence() {
        let mut set = FeatureSet::new();
        let p = code_of(&path_graph(3, Label(0), Label(0)));
        let (id, _) = set.insert(p.clone(), 1);
        assert_eq!(set.lookup(&p.to_sequence()), Some(id));
        assert_eq!(set.lookup(&[1, 2, 3]), None);
    }

    #[test]
    fn representative_is_its_own_canonical_form() {
        let mut set = FeatureSet::new();
        let c = code_of(&cycle_graph(5, Label(0), Label(0)));
        let (id, _) = set.insert(c, 1);
        let f = set.get(id);
        let recanon = min_dfs_code(&f.structure).unwrap();
        assert_eq!(recanon.code, f.code);
        // Identity orders: rebuilding preserved DFS vertex order.
        for (i, v) in recanon.vertex_order.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn size_extrema() {
        let mut set = FeatureSet::new();
        assert_eq!(set.min_edges(), None);
        set.insert(code_of(&path_graph(2, Label(0), Label(0))), 1);
        set.insert(code_of(&cycle_graph(6, Label(0), Label(0))), 1);
        assert_eq!(set.min_edges(), Some(1));
        assert_eq!(set.max_edges(), Some(6));
    }

    #[test]
    fn iteration_orders_by_id() {
        let mut set = FeatureSet::new();
        set.insert(code_of(&path_graph(2, Label(0), Label(0))), 1);
        set.insert(code_of(&path_graph(3, Label(0), Label(0))), 1);
        let ids: Vec<u32> = set.iter().map(|f| f.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        let via_ref: Vec<u32> = (&set).into_iter().map(|f| f.id.0).collect();
        assert_eq!(via_ref, ids);
    }
}
