//! gIndex-style discriminative feature selection (reference \[16\]).
//!
//! gIndex keeps a frequent structure `f` only when it is
//! *discriminative*: the graphs containing all of `f`'s already-selected
//! sub-structures must outnumber the graphs containing `f` itself by at
//! least the discriminative ratio `γ`. Frequency is governed by a
//! size-increasing support curve so small structures (which are cheap
//! and numerous) need little support while large ones must be common to
//! earn an index slot.
//!
//! Patterns are processed in increasing size, so sub-structure posting
//! lists are always available when a super-structure is examined.

use std::borrow::Cow;

use pis_graph::iso::{is_subgraph, IsoConfig};
use pis_graph::GraphId;

use crate::feature::FeatureSet;
use crate::gspan::{mine_with_stats, GspanConfig, MineStats, MinedPattern};

/// Configuration of gIndex feature selection.
#[derive(Clone, Debug)]
pub struct GindexConfig {
    /// Largest indexed structure, in edges (the paper sweeps 4–6 in
    /// Figure 12).
    pub max_edges: usize,
    /// Minimum support for 1-edge structures, as a fraction of the
    /// database size.
    pub min_support_fraction: f64,
    /// Slope of the size-increasing support curve (see
    /// [`GspanConfig::size_support_slope`]).
    pub size_support_slope: f64,
    /// Discriminative ratio `γ`: keep `f` iff
    /// `|∩ sub-feature supports| ≥ γ · |support(f)|`. 1.0 keeps every
    /// frequent structure — the right default for PIS, whose pruning
    /// power comes from *label* distances over frequent structures, not
    /// from structural rarity (bare-structure supports on molecule data
    /// are so uniform that γ > 1 rejects nearly everything; the A-series
    /// ablations sweep γ).
    pub discriminative_ratio: f64,
    /// Hard cap on the number of selected features (the paper indexes
    /// ≈ 2 000 fragments); most-supported structures win ties.
    pub max_features: usize,
}

impl Default for GindexConfig {
    fn default() -> Self {
        GindexConfig {
            max_edges: 5,
            min_support_fraction: 0.01,
            size_support_slope: 0.1,
            discriminative_ratio: 1.0,
            max_features: 2000,
        }
    }
}

/// Selects discriminative frequent structures from a database of
/// *bare structures* (label-erased graphs).
///
/// The single-edge structure is always selected (Example 4's fallback:
/// every query can at least be partitioned into edges).
pub fn select_features(
    structures: &[pis_graph::LabeledGraph],
    config: &GindexConfig,
) -> FeatureSet {
    select_features_with_stats(structures, config).0
}

/// [`select_features`], also returning the work counters of the mining
/// run underneath it.
pub fn select_features_with_stats(
    structures: &[pis_graph::LabeledGraph],
    config: &GindexConfig,
) -> (FeatureSet, MineStats) {
    let min_support =
        ((structures.len() as f64 * config.min_support_fraction).ceil() as usize).max(1);
    let gspan_cfg = GspanConfig {
        min_support,
        max_edges: config.max_edges.max(1),
        min_edges: 1,
        size_support_slope: config.size_support_slope,
        ..GspanConfig::default()
    };
    let (mut patterns, stats) = mine_with_stats(structures, &gspan_cfg);
    // Increasing size; larger support first within a size so the most
    // common structures are considered before their rarer peers.
    patterns.sort_by_cached_key(|p| {
        (p.graph.edge_count(), std::cmp::Reverse(p.support), p.code.to_sequence())
    });

    let mut selected: Vec<MinedPattern> = Vec::new();
    for p in patterns {
        if selected.len() >= config.max_features {
            break;
        }
        if p.graph.edge_count() == 1
            || is_discriminative(&p, &selected, config.discriminative_ratio, structures.len())
        {
            selected.push(p);
        }
    }

    let mut set = FeatureSet::new();
    for p in selected {
        set.insert(p.code, p.support);
    }
    (set, stats)
}

/// gIndex's discriminative test against already-selected sub-structures.
fn is_discriminative(
    candidate: &MinedPattern,
    selected: &[MinedPattern],
    gamma: f64,
    db_size: usize,
) -> bool {
    // Intersection of supporting sets over selected proper
    // sub-structures; starts as the whole database. The first
    // sub-structure's list is borrowed until a second one forces a real
    // intersection.
    let mut intersection: Option<Cow<'_, [GraphId]>> = None;
    for s in selected {
        if s.graph.edge_count() >= candidate.graph.edge_count() {
            continue;
        }
        if !is_subgraph(&s.graph, &candidate.graph, IsoConfig::LABELED) {
            continue;
        }
        let narrowed = match intersection {
            None => Cow::Borrowed(s.supporting.as_slice()),
            Some(cur) => Cow::Owned(intersect_sorted(&cur, &s.supporting)),
        };
        let empty = narrowed.is_empty();
        intersection = Some(narrowed);
        if empty {
            break;
        }
    }
    let containing_subs = intersection.map_or(db_size, |v| v.len());
    containing_subs as f64 >= gamma * candidate.support as f64
}

/// Intersection of two sorted id lists.
fn intersect_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::{Label, LabeledGraph};

    fn erased(gs: &[LabeledGraph]) -> Vec<LabeledGraph> {
        gs.iter().map(LabeledGraph::erase_labels).collect()
    }

    fn ring_db() -> Vec<LabeledGraph> {
        erased(&[
            cycle_graph(6, Label(0), Label(0)),
            cycle_graph(6, Label(0), Label(0)),
            cycle_graph(5, Label(0), Label(0)),
            path_graph(7, Label(0), Label(0)),
            path_graph(5, Label(0), Label(0)),
        ])
    }

    #[test]
    fn single_edge_always_selected() {
        let cfg = GindexConfig {
            discriminative_ratio: 1e9, // would reject everything else
            ..GindexConfig::default()
        };
        let set = select_features(&ring_db(), &cfg);
        assert_eq!(set.len(), 1);
        assert_eq!(set.min_edges(), Some(1));
    }

    #[test]
    fn gamma_one_keeps_all_frequent() {
        let cfg = GindexConfig {
            max_edges: 3,
            min_support_fraction: 0.3, // >= 2 of 5 graphs
            size_support_slope: 0.0,
            discriminative_ratio: 1.0,
            max_features: 1000,
        };
        let set = select_features(&ring_db(), &cfg);
        // All structures of <=3 edges in >=2 graphs: paths of 1,2,3
        // edges (cycles need >=4 edges to be distinguishable here).
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn discriminative_ratio_prunes_redundant_paths() {
        let lenient = GindexConfig {
            max_edges: 4,
            min_support_fraction: 0.2,
            size_support_slope: 0.0,
            discriminative_ratio: 1.0,
            max_features: 1000,
        };
        let strict = GindexConfig { discriminative_ratio: 2.0, ..lenient.clone() };
        let all = select_features(&ring_db(), &lenient);
        let pruned = select_features(&ring_db(), &strict);
        assert!(pruned.len() < all.len(), "γ=2 must prune ({} vs {})", pruned.len(), all.len());
        assert!(pruned.min_edges() == Some(1));
    }

    #[test]
    fn max_features_caps_selection() {
        let cfg = GindexConfig {
            max_edges: 4,
            min_support_fraction: 0.2,
            discriminative_ratio: 1.0,
            max_features: 2,
            size_support_slope: 0.0,
        };
        let set = select_features(&ring_db(), &cfg);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ring_structures_survive_discriminative_test() {
        // Rings are structurally distinctive: the 5/6-cycles contain
        // paths but only cycles contain cycles, so cycles should be
        // kept under a moderate gamma.
        let cfg = GindexConfig {
            max_edges: 6,
            min_support_fraction: 0.2,
            size_support_slope: 0.0,
            discriminative_ratio: 1.3,
            max_features: 1000,
        };
        let set = select_features(&ring_db(), &cfg);
        let has_cycle = set.iter().any(|f| {
            f.structure.edge_count() == f.structure.vertex_count() && f.structure.edge_count() >= 5
        });
        assert!(has_cycle, "expected a ring feature among {:?}", set.len());
    }

    #[test]
    fn intersect_sorted_basic() {
        let a: Vec<GraphId> = [1, 3, 5, 7].into_iter().map(GraphId).collect();
        let b: Vec<GraphId> = [2, 3, 4, 7, 9].into_iter().map(GraphId).collect();
        let i: Vec<u32> = intersect_sorted(&a, &b).into_iter().map(|g| g.0).collect();
        assert_eq!(i, vec![3, 7]);
        assert!(intersect_sorted(&a, &[]).is_empty());
    }
}
