//! LSM-style per-class pending buffers.
//!
//! The frozen arenas ([`crate::flat_trie::FlatTrie`], the packed
//! R-tree) buy query speed with immutability: merging one graph in costs
//! a copy of every class it touches. A [`PendingSet`] restores
//! cheap inserts without giving the layouts up — new entries append to
//! a small unfrozen side list, range queries scan it linearly with the
//! *same* pricing kernels as the frozen structure (so answers stay
//! bit-identical to a fully merged class), and once the buffer reaches
//! [`crate::IndexConfig::merge_threshold`] entries the class is merged
//! and re-frozen in one batch (at the end of the run, when a run of
//! graphs arrives together — see
//! [`crate::FragmentIndex::insert_graphs_pending`]).

use pis_graph::{GraphId, Label};

/// Entries inserted into a class since it was last frozen or merged.
///
/// Graph-id convention follows the owning structure: trie classes store
/// class-local posting slots, R-tree classes store global graph ids and
/// the points scale-transformed (exactly as the frozen structures do).
#[derive(Clone, Debug, Default)]
pub struct PendingSet {
    /// Label-vector entries (trie classes).
    pub(crate) labels: Vec<(Vec<Label>, GraphId)>,
    /// Weight-vector entries (R-tree classes).
    pub(crate) weights: Vec<(Vec<f64>, GraphId)>,
}

impl PendingSet {
    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.labels.len() + self.weights.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty() && self.weights.is_empty()
    }

    /// Checks every buffered entry against the owning class's shape:
    /// vectors carry exactly `slots` positions, label-entry graph ids
    /// stay below `label_bound`, weight-entry ids below `weight_bound`,
    /// and weights are finite. Returns the first violation as a
    /// description; the owning [`crate::index::FragmentIndex`] supplies
    /// the bounds (class-local slots for trie classes, global graph ids
    /// for R-tree classes) and separately rejects entries of the wrong
    /// kind for the structure.
    pub fn validate(
        &self,
        slots: usize,
        label_bound: usize,
        weight_bound: usize,
    ) -> Result<(), String> {
        for (seq, gid) in &self.labels {
            if seq.len() != slots {
                return Err(format!("pending label entry has {} of {slots} slots", seq.len()));
            }
            if gid.index() >= label_bound {
                return Err(format!("pending label entry names graph {gid} of {label_bound}"));
            }
        }
        for (v, gid) in &self.weights {
            if v.len() != slots {
                return Err(format!("pending weight entry has {} of {slots} slots", v.len()));
            }
            if v.iter().any(|x| !x.is_finite()) {
                return Err("pending weight entry holds a non-finite weight".to_string());
            }
            if gid.index() >= weight_bound {
                return Err(format!("pending weight entry names graph {gid} of {weight_bound}"));
            }
        }
        Ok(())
    }

    /// Scans label entries with sequential position pricing — the exact
    /// accumulation order of the trie descent (left-to-right sum of
    /// per-position costs starting from the first position's cost), so
    /// emitted distances are bit-identical to a post-merge descent.
    /// Costs are non-negative, so the partial sum is monotone and the
    /// scan abandons an entry as soon as it exceeds `sigma`.
    pub(crate) fn scan_labels_positional(
        &self,
        sigma: f64,
        mut position_cost: impl FnMut(usize, Label) -> f64,
        mut visit: impl FnMut(GraphId, f64),
    ) {
        for (seq, gid) in &self.labels {
            let mut acc = 0.0;
            let mut live = true;
            for (pos, &stored) in seq.iter().enumerate() {
                acc += position_cost(pos, stored);
                if acc > sigma {
                    live = false;
                    break;
                }
            }
            if live {
                visit(*gid, acc);
            }
        }
    }

    /// Scans weight entries with a whole-vector metric (R-tree
    /// classes), emitting entries within `sigma`.
    pub(crate) fn scan_weights(
        &self,
        sigma: f64,
        mut cost: impl FnMut(&[f64]) -> f64,
        mut visit: impl FnMut(GraphId, f64),
    ) {
        for (v, gid) in &self.weights {
            let d = cost(v);
            if d <= sigma {
                visit(*gid, d);
            }
        }
    }
}
