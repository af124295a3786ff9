//! gSpan pattern-growth frequent subgraph mining (reference \[15\]).
//!
//! Patterns grow one edge at a time along the rightmost path of their
//! minimum DFS code; non-canonical codes are pruned with the `is_min`
//! test, so every pattern is generated exactly once. Extension
//! candidates come from scanning the graph neighborhoods of embedded
//! rightmost-path vertices, the standard transaction-setting
//! formulation.
//!
//! # Embedding lists
//!
//! A pattern's embeddings live in one row-major arena: row `r` is
//! `stride` vertex images (column `i` = image of DFS index `i`, `stride`
//! = pattern vertex count) plus one entry of a graph-id column. No
//! embedding owns an allocation. Growing a pattern is one scan over its
//! rows; each distinct candidate edge is tested for canonicality *once,
//! at first sight, before any row is copied for it*, so the list of a
//! non-canonical child is never built. The parent's list is freed before
//! the miner recurses and each child's list as soon as that child has
//! produced its own children, so the live lists are the canonical
//! siblings waiting along the recursion path, not every candidate of
//! every level. A pattern of `max_edges` edges is reported but never
//! extended, so its list — the longest kind — keeps only the supporting
//! graphs.
//!
//! **Row order is part of the contract.** A child's rows are appended in
//! the parent's scan order (row by row; per row the backward candidates
//! of the rightmost vertex, then forward candidates root-to-rightmost,
//! each in adjacency order), which keeps every list sorted by graph —
//! support is a linear dedup of the graph column — and fixes *which*
//! rows the per-graph cap keeps: the first
//! [`max_embeddings_per_graph`](GspanConfig::max_embeddings_per_graph)
//! of each graph. Reorder the scan and a capped pattern's descendants
//! are counted from different embeddings, so supports change.
//!
//! Support is the number of *distinct graphs* containing the pattern.
//! The cap bounds memory on highly symmetric structures (erased-label
//! ring systems). It can undercount support for *descendants* of a
//! capped pattern — mining then errs on the conservative side (reported
//! support never exceeds the true support; a generous default cap makes
//! undercounts rare).

use pis_graph::canonical::{DfsCode, DfsEdge};
use pis_graph::{GraphId, LabeledGraph, VertexId};

/// Configuration for the gSpan miner.
#[derive(Clone, Debug)]
pub struct GspanConfig {
    /// Absolute minimum support (distinct graphs) for a pattern with
    /// `min_edges` edges. Combined with [`support_at`](GspanConfig::support_at)
    /// this yields gIndex's size-increasing support.
    pub min_support: usize,
    /// Largest pattern size in edges.
    pub max_edges: usize,
    /// Smallest pattern size reported (patterns below are still grown).
    pub min_edges: usize,
    /// Per-graph embedding-list cap (memory bound on symmetric graphs):
    /// before a pattern is extended, only the first this-many embeddings
    /// of each graph are kept. `0` means no cap — every embedding is
    /// kept and every reported support is exact.
    pub max_embeddings_per_graph: usize,
    /// Size-increasing support curve: extra support demanded per edge
    /// beyond `min_edges` is `min_support * size_support_slope * (l -
    /// min_edges)`, rounded down. 0 = constant support (plain gSpan).
    pub size_support_slope: f64,
}

impl Default for GspanConfig {
    fn default() -> Self {
        GspanConfig {
            min_support: 2,
            max_edges: 5,
            min_edges: 1,
            max_embeddings_per_graph: 512,
            size_support_slope: 0.0,
        }
    }
}

impl GspanConfig {
    /// The support threshold for patterns of `edges` edges.
    pub fn support_at(&self, edges: usize) -> usize {
        let extra = self.min_support as f64
            * self.size_support_slope
            * edges.saturating_sub(self.min_edges) as f64;
        self.min_support + extra.floor() as usize
    }
}

/// A frequent pattern produced by the miner.
#[derive(Clone, Debug)]
pub struct MinedPattern {
    /// Minimum DFS code of the pattern.
    pub code: DfsCode,
    /// Canonical representative graph.
    pub graph: LabeledGraph,
    /// Number of distinct supporting graphs.
    pub support: usize,
    /// Sorted ids of the supporting graphs.
    pub supporting: Vec<GraphId>,
}

/// Work counters of one [`mine_with_stats`] run. Counts, not timings:
/// they depend on the database and the configuration only and repeat
/// exactly on any machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MineStats {
    /// Database graphs mined.
    pub graphs: usize,
    /// Patterns reported.
    pub patterns: usize,
    /// Canonicality (`is_min`) tests run — one per distinct candidate
    /// edge of each extended pattern, however many embeddings show it.
    pub canonical_tests: usize,
    /// Embedding rows written into lists (1-edge seeds included). Only
    /// candidates that passed the canonicality test receive rows, and a
    /// pattern of `max_edges` edges, which is never extended, only one
    /// per supporting graph.
    pub rows_copied: usize,
    /// Largest number of embedding rows alive at once, over all lists
    /// (a capped list counts in full until it is freed).
    pub peak_live_rows: usize,
}

/// The embedding list of one pattern, row-major (see the module docs):
/// row `r` maps DFS index `i` to `images[r * stride + i]` in graph
/// `graphs[r]`. Rows are sorted by graph.
///
/// Stride 0 marks the list of a pattern that is counted but never
/// extended: no images, and the graph column deduplicated as written.
struct EmbList {
    stride: usize,
    images: Vec<VertexId>,
    graphs: Vec<u32>,
}

impl EmbList {
    fn new(stride: usize) -> Self {
        EmbList { stride, images: Vec::new(), graphs: Vec::new() }
    }

    fn rows(&self) -> usize {
        self.graphs.len()
    }

    fn row(&self, r: usize) -> &[VertexId] {
        &self.images[r * self.stride..(r + 1) * self.stride]
    }

    /// Appends `prefix` (a parent row) plus, for a forward extension,
    /// the image of the new vertex.
    fn push(&mut self, graph: u32, prefix: &[VertexId], new_vertex: Option<VertexId>) {
        debug_assert!(self.graphs.last().is_none_or(|&last| last <= graph), "graph-sorted rows");
        if self.stride == 0 {
            if self.graphs.last() != Some(&graph) {
                self.graphs.push(graph);
            }
            return;
        }
        debug_assert_eq!(prefix.len() + usize::from(new_vertex.is_some()), self.stride);
        self.images.extend_from_slice(prefix);
        self.images.extend(new_vertex);
        self.graphs.push(graph);
    }

    /// Sorted distinct supporting graph ids: the graph column is sorted,
    /// so one pass dedups it.
    fn distinct_graphs(&self) -> Vec<GraphId> {
        let mut ids: Vec<GraphId> = Vec::new();
        for &g in &self.graphs {
            if ids.last() != Some(&GraphId(g)) {
                ids.push(GraphId(g));
            }
        }
        ids
    }

    /// Retains the first `cap` rows of each graph, in order (embedding
    /// lists of symmetric patterns grow factorially; see module docs).
    fn cap_per_graph(&mut self, cap: usize) {
        if cap == 0 {
            return;
        }
        let mut kept = 0usize;
        let mut last_graph = u32::MAX;
        let mut count = 0usize;
        for r in 0..self.rows() {
            let g = self.graphs[r];
            if g != last_graph {
                last_graph = g;
                count = 0;
            }
            if count < cap {
                self.images.copy_within(r * self.stride..(r + 1) * self.stride, kept * self.stride);
                self.graphs[kept] = g;
                kept += 1;
                count += 1;
            }
        }
        self.images.truncate(kept * self.stride);
        self.graphs.truncate(kept);
    }
}

/// The children of one pattern while its rows are scanned: one slot per
/// distinct candidate edge in first-sight order, holding the child's
/// list, or `None` for a candidate that was refused.
#[derive(Default)]
struct Children {
    slots: Vec<(DfsEdge, Option<EmbList>)>,
}

impl Children {
    /// The list of candidate `edge`; `admit` decides, the first time the
    /// edge is seen, whether it gets one. A handful of distinct
    /// candidates per pattern makes the linear probe the cheap lookup.
    fn list(
        &mut self,
        edge: DfsEdge,
        admit: impl FnOnce() -> Option<EmbList>,
    ) -> Option<&mut EmbList> {
        let slot = match self.slots.iter().position(|(e, _)| *e == edge) {
            Some(slot) => slot,
            None => {
                self.slots.push((edge, admit()));
                self.slots.len() - 1
            }
        };
        self.slots[slot].1.as_mut()
    }
}

/// Mines all frequent connected patterns of `db` under `config`.
///
/// Graphs are matched with full label semantics; pass label-erased
/// copies to mine bare structures (what PIS indexes).
pub fn mine(db: &[LabeledGraph], config: &GspanConfig) -> Vec<MinedPattern> {
    mine_with_stats(db, config).0
}

/// [`mine`], also returning the run's work counters.
pub fn mine_with_stats(
    db: &[LabeledGraph],
    config: &GspanConfig,
) -> (Vec<MinedPattern>, MineStats) {
    let mut miner = Miner {
        db,
        config,
        out: Vec::new(),
        stats: MineStats { graphs: db.len(), ..MineStats::default() },
        live_rows: 0,
    };
    if config.max_edges == 0 {
        return (miner.out, miner.stats);
    }
    // Seed patterns: single edges grouped by their minimal 1-edge code.
    let mut seeds = Children::default();
    for (gid, g) in db.iter().enumerate() {
        for e in g.edges() {
            for (u, v) in [(e.source, e.target), (e.target, e.source)] {
                let (lu, lv) = (g.vertex(u).label, g.vertex(v).label);
                // Only the orientation giving the minimal code; for equal
                // endpoint labels both orientations are distinct
                // embeddings of the same pattern.
                if lu > lv {
                    continue;
                }
                let edge = DfsEdge {
                    from: 0,
                    to: 1,
                    from_label: lu,
                    edge_label: e.attr.label,
                    to_label: lv,
                };
                let list =
                    seeds.list(edge, || Some(miner.new_list(1, 2))).expect("seeds are admitted");
                list.push(gid as u32, &[u], Some(v));
            }
        }
    }
    for (edge, list) in miner.adopt(seeds) {
        let mut code = DfsCode { edges: vec![edge], root_label: edge.from_label };
        miner.grow(&mut code, list);
    }
    miner.stats.patterns = miner.out.len();
    (miner.out, miner.stats)
}

struct Miner<'a> {
    db: &'a [LabeledGraph],
    config: &'a GspanConfig,
    out: Vec<MinedPattern>,
    stats: MineStats,
    /// Rows in lists alive right now (`stats.peak_live_rows` is its
    /// running maximum).
    live_rows: usize,
}

impl Miner<'_> {
    /// An empty list for a pattern of `edges` edges on `stride` vertices.
    /// A pattern of `max_edges` edges is reported but not extended, so
    /// only its supporting graphs are kept (stride 0) — at the largest
    /// size, where the lists are longest.
    fn new_list(&self, edges: usize, stride: usize) -> EmbList {
        EmbList::new(if edges >= self.config.max_edges { 0 } else { stride })
    }

    /// Reports `code` if frequent and grows its canonical children.
    /// `code` is extended in place and restored on return.
    fn grow(&mut self, code: &mut DfsCode, list: EmbList) {
        let rows = list.rows();
        let children = self.expand(code, list);
        // The pattern's own list is gone before the recursion starts;
        // each child's goes the same way inside its `grow`.
        self.live_rows -= rows;
        for (edge, child) in children {
            code.edges.push(edge);
            self.grow(code, child);
            code.edges.pop();
        }
    }

    /// Reports `code` if its embedding `list` makes it frequent, and
    /// builds the lists of its canonical children (none for a pattern
    /// that is infrequent or already `max_edges` large). Consumes `list`.
    fn expand(&mut self, code: &mut DfsCode, mut list: EmbList) -> Vec<(DfsEdge, EmbList)> {
        let supporting = list.distinct_graphs();
        let edges = code.edge_count();
        if supporting.len() < self.config.support_at(edges) {
            return Vec::new();
        }
        let pattern = code.to_graph();
        if edges >= self.config.min_edges {
            self.out.push(MinedPattern {
                code: code.clone(),
                graph: pattern.clone(),
                support: supporting.len(),
                supporting,
            });
        }
        if edges >= self.config.max_edges {
            return Vec::new();
        }
        list.cap_per_graph(self.config.max_embeddings_per_graph);
        let children = self.extend(code, &pattern, &list);
        self.adopt(children)
    }

    /// Takes the lists one scan built into the accounts and returns them
    /// in DFS-lexicographic order of their edges, gSpan's growth order.
    fn adopt(&mut self, children: Children) -> Vec<(DfsEdge, EmbList)> {
        let mut lists: Vec<(DfsEdge, EmbList)> =
            children.slots.into_iter().filter_map(|(e, list)| Some((e, list?))).collect();
        let rows: usize = lists.iter().map(|(_, list)| list.rows()).sum();
        self.stats.rows_copied += rows;
        self.live_rows += rows;
        self.stats.peak_live_rows = self.stats.peak_live_rows.max(self.live_rows);
        lists.sort_unstable_by_key(|&(e, _)| e);
        lists
    }

    /// One scan over the rows of `list` (the embeddings of `code`, whose
    /// graph is `pattern`): the lists of every canonical one-edge
    /// extension.
    fn extend(&mut self, code: &mut DfsCode, pattern: &LabeledGraph, list: &EmbList) -> Children {
        let rmpath = rightmost_path(code);
        let rm_idx = *rmpath.last().expect("rightmost path is never empty");
        let stride = list.stride;
        let next_idx = stride as u32;
        let label = |idx: u32| pattern.vertex(VertexId(idx)).label;
        // Backward extensions run from the rightmost vertex to
        // rightmost-path vertices not already connected to it.
        let mut backward_to = vec![false; stride];
        for &p_idx in &rmpath[..rmpath.len() - 1] {
            backward_to[p_idx as usize] = !pattern.has_edge(VertexId(rm_idx), VertexId(p_idx));
        }

        let child_edges = code.edge_count() + 1;
        // Canonicality pruning, decided once per distinct candidate and
        // before any of its rows exist: every pattern is grown from its
        // minimum code only.
        let mut canonical_tests = 0;
        let mut admit = |edge: DfsEdge, child_stride: usize| {
            canonical_tests += 1;
            code.edges.push(edge);
            let canonical = code.is_min();
            code.edges.pop();
            canonical.then(|| self.new_list(child_edges, child_stride))
        };
        let mut children = Children::default();
        for r in 0..list.rows() {
            let (gid, row) = (list.graphs[r], list.row(r));
            let g = &self.db[gid as usize];
            for &(w, ge) in g.neighbors(row[rm_idx as usize]) {
                let Some(w_idx) = row.iter().position(|&x| x == w) else {
                    continue;
                };
                if !backward_to[w_idx] {
                    continue;
                }
                let cand = DfsEdge {
                    from: rm_idx,
                    to: w_idx as u32,
                    from_label: label(rm_idx),
                    edge_label: g.edge(ge).attr.label,
                    to_label: label(w_idx as u32),
                };
                if let Some(child) = children.list(cand, || admit(cand, stride)) {
                    child.push(gid, row, None);
                }
            }
            // Forward extensions from every rightmost-path vertex.
            for &p_idx in &rmpath {
                for &(w, ge) in g.neighbors(row[p_idx as usize]) {
                    if row.contains(&w) {
                        continue;
                    }
                    let cand = DfsEdge {
                        from: p_idx,
                        to: next_idx,
                        from_label: label(p_idx),
                        edge_label: g.edge(ge).attr.label,
                        to_label: g.vertex(w).label,
                    };
                    if let Some(child) = children.list(cand, || admit(cand, stride + 1)) {
                        child.push(gid, row, Some(w));
                    }
                }
            }
        }
        self.stats.canonical_tests += canonical_tests;
        children
    }
}

/// The rightmost path of a DFS code (DFS indices from the root to the
/// rightmost vertex).
fn rightmost_path(code: &DfsCode) -> Vec<u32> {
    let mut parent: Vec<Option<u32>> = vec![None; code.vertex_count()];
    let mut rightmost = 0u32;
    for e in &code.edges {
        if e.is_forward() {
            parent[e.to as usize] = Some(e.from);
            rightmost = rightmost.max(e.to);
        }
    }
    let mut path = vec![rightmost];
    let mut cur = rightmost;
    while let Some(p) = parent[cur as usize] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    debug_assert_eq!(path[0], 0);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::canonical::min_dfs_code;
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::iso::{is_subgraph, IsoConfig};
    use pis_graph::Label;

    fn erased(gs: &[LabeledGraph]) -> Vec<LabeledGraph> {
        gs.iter().map(LabeledGraph::erase_labels).collect()
    }

    #[test]
    fn single_edge_pattern_mined() {
        let db = erased(&[path_graph(3, Label(0), Label(0)), cycle_graph(4, Label(0), Label(0))]);
        let cfg = GspanConfig { min_support: 2, max_edges: 1, ..GspanConfig::default() };
        let patterns = mine(&db, &cfg);
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].support, 2);
        assert_eq!(patterns[0].graph.edge_count(), 1);
        assert_eq!(patterns[0].supporting, vec![GraphId(0), GraphId(1)]);
    }

    #[test]
    fn mines_structures_of_mixed_db() {
        // Two 5-cycles and one 4-path (erased labels).
        let db = erased(&[
            cycle_graph(5, Label(0), Label(0)),
            cycle_graph(5, Label(1), Label(1)),
            path_graph(4, Label(0), Label(0)),
        ]);
        let cfg = GspanConfig { min_support: 2, max_edges: 5, ..GspanConfig::default() };
        let patterns = mine(&db, &cfg);
        // Paths of 1..=3 edges are in all 3 graphs; the 4-edge path and
        // anything cyclic only in the cycles.
        for p in &patterns {
            assert!(p.support >= 2);
            assert!(p.code.is_min(), "every emitted code must be canonical");
        }
        let with_support_3 = patterns.iter().filter(|p| p.support == 3).count();
        assert_eq!(with_support_3, 3, "paths with 1..=3 edges");
        // The full 5-cycle is frequent (both cycles contain it).
        let c5 = min_dfs_code(&cycle_graph(5, Label(0), Label(0)).erase_labels()).unwrap().code;
        assert!(patterns.iter().any(|p| p.code == c5));
    }

    #[test]
    fn supports_match_subgraph_iso() {
        let db = erased(&[
            cycle_graph(6, Label(0), Label(0)),
            cycle_graph(5, Label(0), Label(0)),
            path_graph(6, Label(0), Label(0)),
        ]);
        let cfg = GspanConfig { min_support: 1, max_edges: 4, ..GspanConfig::default() };
        for p in mine(&db, &cfg) {
            let by_iso = db.iter().filter(|g| is_subgraph(&p.graph, g, IsoConfig::LABELED)).count();
            assert_eq!(p.support, by_iso, "support mismatch for {:?}", p.code);
        }
    }

    #[test]
    fn no_duplicate_patterns() {
        let db = erased(&[cycle_graph(6, Label(0), Label(0)), cycle_graph(5, Label(0), Label(0))]);
        let cfg = GspanConfig { min_support: 1, max_edges: 5, ..GspanConfig::default() };
        let patterns = mine(&db, &cfg);
        let mut seqs: Vec<Vec<u32>> = patterns.iter().map(|p| p.code.to_sequence()).collect();
        let before = seqs.len();
        seqs.sort();
        seqs.dedup();
        assert_eq!(seqs.len(), before, "duplicate patterns mined");
    }

    #[test]
    fn labels_split_patterns() {
        // Same structure, different edge labels: mined separately.
        let db = vec![path_graph(2, Label(0), Label(1)), path_graph(2, Label(0), Label(2))];
        let cfg = GspanConfig { min_support: 1, max_edges: 1, ..GspanConfig::default() };
        let patterns = mine(&db, &cfg);
        assert_eq!(patterns.len(), 2);
        for p in &patterns {
            assert_eq!(p.support, 1);
        }
    }

    #[test]
    fn size_increasing_support_prunes_large_patterns() {
        let db = erased(&[
            cycle_graph(6, Label(0), Label(0)),
            cycle_graph(6, Label(0), Label(0)),
            path_graph(3, Label(0), Label(0)),
        ]);
        // At slope 0.5 and base 2: threshold is 2 at 1 edge, 2+1*k at
        // larger sizes: 3-edge patterns need 4 supporting graphs.
        let cfg = GspanConfig {
            min_support: 2,
            max_edges: 4,
            size_support_slope: 0.5,
            ..GspanConfig::default()
        };
        assert_eq!(cfg.support_at(1), 2);
        assert_eq!(cfg.support_at(3), 4);
        let patterns = mine(&db, &cfg);
        assert!(patterns.iter().all(|p| p.graph.edge_count() <= 2));
    }

    #[test]
    fn min_edges_suppresses_small_reports_but_growth_continues() {
        let db = erased(&[cycle_graph(4, Label(0), Label(0)), cycle_graph(4, Label(0), Label(0))]);
        let cfg =
            GspanConfig { min_support: 2, min_edges: 3, max_edges: 4, ..GspanConfig::default() };
        let patterns = mine(&db, &cfg);
        assert!(!patterns.is_empty());
        assert!(patterns.iter().all(|p| p.graph.edge_count() >= 3));
    }

    #[test]
    fn embedding_cap_keeps_mining_sound() {
        // A very tight cap still produces canonical, supported patterns.
        let db = erased(&[cycle_graph(6, Label(0), Label(0)), cycle_graph(6, Label(0), Label(0))]);
        let cfg = GspanConfig {
            min_support: 2,
            max_edges: 6,
            max_embeddings_per_graph: 2,
            ..GspanConfig::default()
        };
        for p in mine(&db, &cfg) {
            let by_iso = db.iter().filter(|g| is_subgraph(&p.graph, g, IsoConfig::LABELED)).count();
            assert!(p.support <= by_iso, "reported support must never exceed truth");
        }
    }

    #[test]
    fn zero_cap_means_no_cap() {
        // Four hexagons: the 5-edge path has 12 embeddings in each, so a
        // cap of 2 starves its descendants while 0 keeps every row and
        // with it the exact supports.
        let db = erased(&vec![cycle_graph(6, Label(0), Label(0)); 4]);
        let cfg = |cap| GspanConfig {
            min_support: 1,
            max_edges: 6,
            max_embeddings_per_graph: cap,
            ..GspanConfig::default()
        };
        let (uncapped, stats) = mine_with_stats(&db, &cfg(0));
        assert_eq!(uncapped.len(), 6, "paths of 1..=5 edges and the ring");
        assert!(uncapped.iter().all(|p| p.support == 4));
        // 12 embeddings per hexagon of each of the five paths; the ring,
        // `max_edges` large, is counted once per hexagon.
        assert_eq!(stats.rows_copied, 5 * 4 * 12 + 4);
        let generous = mine(&db, &cfg(12));
        assert_eq!(generous.len(), uncapped.len(), "a cap nothing reaches changes nothing");
        let (_, capped) = mine_with_stats(&db, &cfg(2));
        assert!(capped.rows_copied < stats.rows_copied);
    }

    #[test]
    fn cap_keeps_the_first_rows_of_each_graph_in_order() {
        let mut list = EmbList::new(2);
        for (graph, a) in [(0, 10), (0, 11), (0, 12), (2, 20), (5, 50), (5, 51), (5, 52)] {
            list.push(graph, &[VertexId(a), VertexId(a + 100)], None);
        }
        assert_eq!(list.distinct_graphs(), vec![GraphId(0), GraphId(2), GraphId(5)]);
        list.cap_per_graph(0);
        assert_eq!(list.rows(), 7);
        list.cap_per_graph(2);
        assert_eq!(list.graphs, vec![0, 0, 2, 5, 5]);
        let firsts: Vec<u32> = (0..list.rows()).map(|r| list.row(r)[0].0).collect();
        assert_eq!(firsts, vec![10, 11, 20, 50, 51]);
        assert!((0..list.rows()).all(|r| list.row(r)[1].0 == list.row(r)[0].0 + 100));
    }

    #[test]
    fn rightmost_path_of_codes() {
        let c = min_dfs_code(&path_graph(4, Label(0), Label(0)).erase_labels()).unwrap().code;
        assert_eq!(rightmost_path(&c), vec![0, 1, 2, 3]);
        let c = min_dfs_code(&cycle_graph(4, Label(0), Label(0)).erase_labels()).unwrap().code;
        // Cycle code: forward chain 0-1-2-3 plus backward (3,0).
        assert_eq!(rightmost_path(&c), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_inputs() {
        assert!(mine(&[], &GspanConfig::default()).is_empty());
        let cfg = GspanConfig { max_edges: 0, ..GspanConfig::default() };
        assert!(mine(&erased(&[path_graph(3, Label(0), Label(0))]), &cfg).is_empty());
    }
}
