//! The fragment-based index (Section 4, Figure 5).
//!
//! `FragmentIndex` = hash table over structural equivalence classes +
//! one range-searchable structure per class + structural posting lists.
//! Build enumerates, for every `(feature, graph)` pair, *all* embeddings
//! of the feature into the graph, deduplicates their vectors, and
//! inserts them into the class backend. Range queries then answer
//! Eq. (3) — `d(g, G) = min_{g' ⊑ G, g' ≅ g} d(g, g')` — without
//! touching any database graph.
//!
//! Inserted graphs land in a second, small instance of the class's own
//! structure — the *pending* structure — until the class holds 64
//! pending entries and merges them into the frozen one
//! ([`FragmentIndex::insert_graphs_pending`]).
//!
//! A range query runs one kernel over the frozen structure and then the
//! pending one and has two products. Its **hit set** is one bit per
//! graph of the probe's class, in [`FragmentIndex::class_graphs`] order,
//! with the hit count and Definition 5's matched term as a [`HitTally`]
//! ([`FragmentIndex::range_query_hits`] — what the search funnel asks of
//! most probes). Its **minima row** is one `f64` per class graph holding
//! `d(g, G)` where it is within `σ` and `∞` where it is not
//! ([`FragmentIndex::range_query_row`] — what the funnel asks of its
//! partition members). The `(graph, distance)` hit lists of
//! [`FragmentIndex::range_query_normalized_into`] are [`row_hits`]
//! collected — a view of the rows.

use std::hash::Hasher;
use std::ops::ControlFlow;

use pis_distance::{LinearDistance, MutationDistance};
use pis_graph::budget::{BudgetState, CheckpointSite};
use pis_graph::iso::{IsoConfig, SubgraphMatcher};
use pis_graph::util::FxHasher;
use pis_graph::{GraphId, Label, LabeledGraph, ScopedPool};
use pis_mining::{FeatureId, FeatureSet};

use crate::flat_trie::{FlatTrie, TrieFrontier};
use crate::fragment::{label_vector_into, weight_vector_into, FragmentBuffer, FragmentVectorRef};
use crate::rtree::RTree;
use crate::tally::HitTally;

/// The superimposed distance an index is built for.
#[derive(Clone, Debug)]
pub enum IndexDistance {
    /// Categorical mutation distance (label vectors).
    Mutation(MutationDistance),
    /// Linear mutation distance (weight vectors).
    Linear(LinearDistance),
}

impl IndexDistance {
    /// Whether this is the categorical mutation distance.
    pub fn is_mutation(&self) -> bool {
        matches!(self, IndexDistance::Mutation(_))
    }

    /// Collapses label slots that can never contribute cost (a zero
    /// score matrix) to one canonical label. Distances are unchanged,
    /// but equivalent vectors become identical — under the paper's
    /// edge-only distance this shrinks per-class entry counts by an
    /// order of magnitude. Stored rows and enumerated query fragments
    /// are both normalized in place by it (or by
    /// [`IndexDistance::normalize_weights`]), so a probe is compared
    /// with rows of its own form.
    ///
    /// # Panics
    /// Panics on a linear-distance index.
    pub fn normalize_labels(&self, edge_count: usize, v: &mut [Label]) {
        let IndexDistance::Mutation(md) = self else {
            panic!("fragment vector kind does not match the index distance")
        };
        let cut = edge_count.min(v.len());
        if md.edge_scores().is_zero() {
            v[..cut].fill(Label::ERASED);
        }
        if md.vertex_scores().is_zero() {
            v[cut..].fill(Label::ERASED);
        }
    }

    /// [`IndexDistance::normalize_labels`] for weight vectors: a zero
    /// scale collapses its slots to `0.0`.
    ///
    /// # Panics
    /// Panics on a mutation-distance index.
    pub fn normalize_weights(&self, edge_count: usize, v: &mut [f64]) {
        let IndexDistance::Linear(ld) = self else {
            panic!("fragment vector kind does not match the index distance")
        };
        let cut = edge_count.min(v.len());
        if ld.edge_scale() == 0.0 {
            v[..cut].fill(0.0);
        }
        if ld.vertex_scale() == 0.0 {
            v[cut..].fill(0.0);
        }
    }
}

/// Build-time options.
#[derive(Clone, Debug, Default)]
pub struct IndexConfig {
    /// Number of build threads (0 = all available cores).
    pub threads: usize,
}

/// Pending entries at which a class merges its pending structure into
/// the frozen one. Merging every insert at once (a threshold of 1)
/// measured 2.2–3.0× slower inserts at 2 000 and 10 000 graphs
/// (DESIGN.md §6.10).
const MERGE_THRESHOLD: usize = 64;

/// Reusable state of the range-query functions, so repeated queries
/// neither hash nor allocate. One scratch serves any number of
/// sequential queries against indexes of any size (it grows to the
/// largest class seen).
#[derive(Clone, Debug, Default)]
pub struct RangeScratch {
    /// Frontier of the flat trie's descent.
    frontier: TrieFrontier,
    /// One trie probe's emissions, `(cost, trie, node)` with trie 0 the
    /// frozen one and 1 the pending one, in emission order until the
    /// descent has finished and sorts them for the fold.
    emitted: Vec<(f64, usize, u32)>,
    /// The class slots the fold has covered, one bit each: after
    /// [`FragmentIndex::range_query_hits`], the probe's hit set.
    covered: Vec<u64>,
    /// The minima row the list-returning functions read their hits
    /// out of, and an R-tree class's hit query folds into.
    row: Vec<f64>,
    /// An R-tree class's hit distances, sorted for its tally.
    costs: Vec<f64>,
}

impl RangeScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        RangeScratch::default()
    }

    /// The hit set `T` of the last completed
    /// [`FragmentIndex::range_query_hits`], class-local: bit `k` (word
    /// `k / 64`, bit `k % 64`) stands for `class_graphs(feature)[k]`,
    /// and the words cover the class and no more.
    pub fn hits(&self) -> &[u64] {
        &self.covered
    }
}

/// The hits a minima row holds: `(graph, d(g, G))` for every finite
/// cell, ascending by graph id. `graphs` is the row's class
/// ([`FragmentIndex::class_graphs`]) — sorted, so sweeping the cells in
/// order needs no sort.
pub fn row_hits<'a>(
    graphs: &'a [GraphId],
    row: &'a [f64],
) -> impl Iterator<Item = (GraphId, f64)> + 'a {
    debug_assert_eq!(graphs.len(), row.len(), "one cell per class graph");
    graphs.iter().zip(row).filter(|(_, d)| d.is_finite()).map(|(&g, &d)| (g, d))
}

/// Per-structure tallies from a full [`FragmentIndex::validate`] pass —
/// what the `pis check` fsck prints per section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexCheckReport {
    /// Equivalence classes checked (= features).
    pub classes: usize,
    /// Classes backed by a [`FlatTrie`] arena.
    pub trie_classes: usize,
    /// Classes backed by an [`RTree`] packed from its points.
    pub rtree_classes: usize,
    /// Entries stored in frozen structures.
    pub frozen_entries: usize,
    /// Entries held in pending structures, not yet merged into the
    /// frozen ones.
    pub pending_entries: usize,
}

/// Monotone merge-work counters of one [`FragmentIndex`] value since it
/// was built or loaded (see [`FragmentIndex::merge_stats`]): merge work
/// as a count, where a timing would depend on the machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Class merges performed (a pending structure folded into its
    /// frozen one), by threshold or [`FragmentIndex::compact`].
    pub merges: u64,
    /// Entries written into rebuilt frozen structures over all merges —
    /// each merge rewrites its whole class, stored entries included.
    pub entries_rewritten: u64,
}

/// The range-searchable structure of one class, fixed by the index
/// distance: a trie of label vectors under the mutation distance, an
/// R-tree of weight vectors under the linear distance.
#[derive(PartialEq)]
pub(crate) enum ClassImpl {
    /// Boxed: a trie's twelve column handles outweigh an R-tree's by
    /// more than clippy's `large_enum_variant` allows.
    Trie(Box<FlatTrie>),
    RTree(RTree),
}

impl ClassImpl {
    /// Stored entries.
    fn len(&self) -> usize {
        self.postings().len()
    }

    /// Every entry's posting slot.
    fn postings(&self) -> &[GraphId] {
        match self {
            ClassImpl::Trie(trie) => trie.parts().postings,
            ClassImpl::RTree(rt) => rt.slots(),
        }
    }

    /// The trie of a mutation-distance class.
    fn as_trie(&self) -> &FlatTrie {
        match self {
            ClassImpl::Trie(trie) => trie,
            ClassImpl::RTree(_) => {
                unreachable!("the class structure always matches the index distance")
            }
        }
    }

    /// Folds `other`'s entries into this structure, which becomes the
    /// one built from both sets of entries.
    fn merge(&mut self, other: &ClassImpl) {
        match (self, other) {
            (ClassImpl::Trie(trie), ClassImpl::Trie(other)) => trie.merge(other),
            (ClassImpl::RTree(rt), ClassImpl::RTree(other)) => rt.merge(other),
            _ => unreachable!("a class's structures are of one kind"),
        }
    }
}

pub(crate) struct ClassIndex {
    pub(crate) frozen: ClassImpl,
    /// The entries inserted since the last merge, in a second instance
    /// of the frozen structure's kind; `None` after build, load and
    /// merge. Not an empty structure: 14 of them allocated on the build's
    /// worker threads fragmented the heap enough that a second build in
    /// one process peaked 17 MB (27 %) higher in about half the runs.
    pub(crate) pending: Option<ClassImpl>,
    /// Sorted distinct graphs containing this structure — the gIndex
    /// posting list used by topoPrune and structure-violation pruning.
    pub(crate) graphs: Vec<GraphId>,
    /// Total stored entries, frozen *and* pending.
    pub(crate) entries: usize,
}

impl ClassIndex {
    /// A class with nothing pending — fresh builds and restored saves.
    pub(crate) fn restored(frozen: ClassImpl, graphs: Vec<GraphId>, entries: usize) -> Self {
        ClassIndex { frozen, pending: None, graphs, entries }
    }

    /// The frozen structure, then the pending one: a range query runs
    /// the one kernel over both.
    fn structures(&self) -> impl Iterator<Item = &ClassImpl> {
        std::iter::once(&self.frozen).chain(&self.pending)
    }

    /// Entries held in the pending structure.
    fn pending_len(&self) -> usize {
        self.pending.as_ref().map_or(0, ClassImpl::len)
    }
}

/// The PIS fragment-based index.
pub struct FragmentIndex {
    pub(crate) features: FeatureSet,
    pub(crate) distance: IndexDistance,
    pub(crate) classes: Vec<ClassIndex>,
    pub(crate) graph_count: usize,
    pub(crate) merge_stats: MergeStats,
}

impl FragmentIndex {
    /// Builds the index over `db` for the given features and distance.
    pub fn build(
        db: &[LabeledGraph],
        features: FeatureSet,
        distance: IndexDistance,
        config: &IndexConfig,
    ) -> Self {
        // Fan out over contiguous graph ranges, every class per range:
        // graphs of one database cost about the same each, so equal
        // ranges balance on any worker count, where whole classes do
        // not (the largest structures hold most of the embeddings).
        let pool = ScopedPool::new(config.threads);
        let structures: Vec<&LabeledGraph> = features.iter().map(|f| &f.structure).collect();
        let per_range = db.len().div_ceil(pool.workers()).max(1);
        let ranges: Vec<&[LabeledGraph]> = db.chunks(per_range).collect();
        let blocks: Vec<Vec<ClassRows>> = pool.map_with(
            &ranges,
            2,
            &mut GraphEntries::default(),
            GraphEntries::default,
            |entries, r, graphs| {
                let first = r * per_range;
                structures
                    .iter()
                    .map(|s| collect_class_rows(graphs, first, s, &distance, entries))
                    .collect()
            },
        );
        // A class's blocks joined in range order are the rows the serial
        // loop over the whole database writes, so the frozen structures
        // do not depend on the worker count.
        let classes: Vec<ClassIndex> = pool.map(&structures, 2, |class, s| {
            let mut graphs = Vec::new();
            let frozen =
                class_structure(ClassRows::concat(&blocks, class), s, &distance, &mut graphs);
            let entries = frozen.len();
            ClassIndex::restored(frozen, graphs, entries)
        });
        let index = FragmentIndex {
            features,
            distance,
            classes,
            graph_count: db.len(),
            merge_stats: MergeStats::default(),
        };
        index.debug_validate("build");
        index
    }

    /// The feature set (hash-table keys of Figure 5).
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// The distance the index was built for.
    pub fn distance(&self) -> &IndexDistance {
        &self.distance
    }

    /// Number of indexed database graphs.
    pub fn graph_count(&self) -> usize {
        self.graph_count
    }

    /// Total `(vector, graph)` entries across all classes.
    pub fn total_entries(&self) -> usize {
        self.classes.iter().map(|c| c.entries).sum()
    }

    /// Sorted ids of graphs containing the feature's structure (the
    /// gIndex posting list).
    pub fn class_graphs(&self, feature: FeatureId) -> &[GraphId] {
        &self.classes[feature.index()].graphs
    }

    /// Incrementally indexes one more graph, returning its new id; the
    /// caller must append the same graph to its database (the facade's
    /// `PisSystem::insert_graph` keeps both in sync). A batch of one
    /// through [`FragmentIndex::insert_graphs_pending`].
    pub fn insert_graph_pending(&mut self, g: &LabeledGraph) -> GraphId {
        let gid = GraphId(self.graph_count as u32);
        self.insert_graphs_pending(std::slice::from_ref(g));
        gid
    }

    /// Indexes a run of graphs (ids `graph_count()..` in order). The run
    /// is read and built the way the build reads and builds the
    /// database, one class at a time, and each class's new structure
    /// becomes, or is merged into, its *pending* structure — a second,
    /// small instance of the class's own structure, so range queries run
    /// the same kernel over it and answers (f64 bits included) are those
    /// of a merged class. A class whose pending structure reaches 64
    /// entries then merges it into the frozen one ([`FlatTrie::merge`]
    /// or `RTree::merge`, each one linear pass over the class);
    /// [`FragmentIndex::compact`] merges every class (required before
    /// snapshotting).
    ///
    /// A class merges at most once per run, so recovering N logged
    /// inserts costs one merge per class where N single inserts would
    /// re-freeze the big classes every few graphs. Answers, and the
    /// snapshot after [`FragmentIndex::compact`], are identical to
    /// inserting the graphs one at a time, and every class ends below
    /// the threshold either way.
    pub fn insert_graphs_pending(&mut self, graphs: &[LabeledGraph]) {
        let first = self.graph_count;
        self.graph_count += graphs.len();
        let mut scratch = GraphEntries::default();
        for (ci, class) in self.classes.iter_mut().enumerate() {
            let structure = &self.features.get(FeatureId(ci as u32)).structure;
            let rows = collect_class_rows(graphs, first, structure, &self.distance, &mut scratch);
            if rows.row_graphs.is_empty() {
                continue;
            }
            let batch = class_structure(rows, structure, &self.distance, &mut class.graphs);
            class.entries += batch.len();
            match &mut class.pending {
                Some(pending) => pending.merge(&batch),
                None => class.pending = Some(batch),
            }
        }
        self.merge_where(|pending| pending >= MERGE_THRESHOLD);
        self.debug_validate("insert_graphs_pending");
    }

    /// Merges the pending structure of every class whose pending entry
    /// count satisfies `due` into its frozen one.
    fn merge_where(&mut self, due: impl Fn(usize) -> bool) {
        for class in &mut self.classes {
            if let Some(pending) = class.pending.take_if(|p| due(p.len())) {
                class.frozen.merge(&pending);
                self.merge_stats.merges += 1;
                self.merge_stats.entries_rewritten += class.entries as u64;
            }
        }
    }

    /// Merges every class's pending structure into its frozen one.
    /// Query answers are unchanged; compaction is the required prelude
    /// to snapshotting.
    pub fn compact(&mut self) {
        self.merge_where(|_| true);
        self.debug_validate("compact");
    }

    /// Merge work done by this index value so far (monotone; starts at
    /// zero when the index is built or loaded).
    pub fn merge_stats(&self) -> MergeStats {
        self.merge_stats
    }

    /// Total unmerged pending entries across all classes.
    pub fn pending_entries(&self) -> usize {
        self.classes.iter().map(ClassIndex::pending_len).sum()
    }

    /// Unmerged pending entries of one class — below 64 after every
    /// insert.
    pub fn class_pending_entries(&self, feature: FeatureId) -> usize {
        self.classes[feature.index()].pending_len()
    }

    /// Deep structural validation of the whole index: every invariant
    /// the query paths rely on, checked bottom-up, with the first
    /// violation returned as a description — never a panic. An index
    /// produced by any build/insert/merge/load sequence always passes;
    /// debug builds re-run this after every mutating operation, and the
    /// offline `pis check` fsck runs it on loaded stores.
    ///
    /// Per class: the posting list is strictly ascending and bounded by
    /// the database size; the frozen and the pending structure each pass
    /// the same check ([`FlatTrie::validate`] / [`RTree::validate`], the
    /// distance's kind, the class's depth or dimension, posting slots
    /// inside the class); the entry count equals frozen + pending; and
    /// every posting-list graph is referenced by at least one entry.
    pub fn validate(&self) -> Result<IndexCheckReport, String> {
        let mut report = IndexCheckReport { classes: self.classes.len(), ..Default::default() };
        if self.classes.len() != self.features.len() {
            return Err(format!(
                "{} classes for {} features",
                self.classes.len(),
                self.features.len()
            ));
        }
        for (ci, class) in self.classes.iter().enumerate() {
            let feature = self.features.get(FeatureId(ci as u32));
            let slots = feature.structure.vertex_count() + feature.structure.edge_count();
            let ctx = |m: String| format!("class {ci}: {m}");
            if class.graphs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ctx("posting list not strictly ascending".to_string()));
            }
            if class.graphs.last().is_some_and(|g| g.index() >= self.graph_count) {
                return Err(ctx(format!(
                    "posting list names a graph past the {} stored",
                    self.graph_count
                )));
            }
            // Which posting-list graphs are backed by at least one
            // entry, frozen or pending.
            let mut seen = vec![false; class.graphs.len()];
            let mut check = |which: &str, imp: &ClassImpl| {
                self.validate_structure(imp, slots, &class.graphs, &mut seen)
                    .map_err(|m| ctx(format!("{which} {m}")))
            };
            let frozen_len = check("frozen", &class.frozen)?;
            let pending_len = match &class.pending {
                Some(pending) => check("pending", pending)?,
                None => 0,
            };
            if class.entries != frozen_len + pending_len {
                return Err(ctx(format!(
                    "claims {} entries but holds {frozen_len} frozen + {pending_len} pending",
                    class.entries
                )));
            }
            if let Some(i) = seen.iter().position(|&s| !s) {
                return Err(ctx(format!(
                    "posting list names graph {} but no entry references it",
                    class.graphs[i]
                )));
            }
            match class.frozen {
                ClassImpl::Trie(_) => report.trie_classes += 1,
                ClassImpl::RTree(_) => report.rtree_classes += 1,
            }
            report.frozen_entries += frozen_len;
            report.pending_entries += pending_len;
        }
        Ok(report)
    }

    /// One class structure, frozen or pending, checked against its class:
    /// the kind the distance asks for, `slots` deep (trie) or wide
    /// (R-tree), its own validator, and its posting slots inside the
    /// `graphs.len()`-graph class, each marked in `seen`. Returns its
    /// entry count.
    fn validate_structure(
        &self,
        imp: &ClassImpl,
        slots: usize,
        graphs: &[GraphId],
        seen: &mut [bool],
    ) -> Result<usize, String> {
        let kind = match (imp, &self.distance) {
            (ClassImpl::Trie(trie), IndexDistance::Mutation(_)) => {
                if trie.depth() != slots {
                    return Err(format!("trie depth {} != {slots} class slots", trie.depth()));
                }
                trie.validate().map_err(|m| format!("trie: {m}"))?;
                "trie"
            }
            (ClassImpl::RTree(rt), IndexDistance::Linear(_)) => {
                if rt.dim() != slots {
                    return Err(format!("r-tree dim {} != {slots} class slots", rt.dim()));
                }
                rt.validate().map_err(|m| format!("r-tree: {m}"))?;
                "r-tree"
            }
            _ => return Err("backend does not match the index distance".to_string()),
        };
        for &slot in imp.postings() {
            match seen.get_mut(slot.index()) {
                Some(s) => *s = true,
                None => {
                    return Err(format!(
                        "{kind} posting slot {slot} exceeds the {}-graph class",
                        graphs.len()
                    ))
                }
            }
        }
        Ok(imp.len())
    }

    /// Debug-build hook: re-validates the whole index after a mutating
    /// operation and panics with the violation when an invariant broke.
    /// Compiled to nothing in release builds — production relies on the
    /// same checks through the offline `pis check` fsck instead.
    pub(crate) fn debug_validate(&self, context: &str) {
        if cfg!(debug_assertions) {
            if let Err(m) = self.validate() {
                panic!("index invariant violated after {context}: {m}");
            }
        }
    }

    /// Answers the range query of Eq. (3) as a hit list: for every
    /// graph `G` holding a fragment `g'` of class `feature` with
    /// `d(g, g') ≤ σ`, `(G, d(g, G))` with the distance minimized over
    /// all such fragments. The probe is a borrowed
    /// [`FragmentVectorRef`], the minima row is kept in `scratch` and
    /// hits are written to `out` (cleared first), sorted by graph id —
    /// the [`row_hits`] of the row [`FragmentIndex::range_query_row`]
    /// leaves.
    ///
    /// The probe `vector` must already be normalized for this index, as
    /// every vector [`FragmentIndex::enumerate_query_fragments_into`]
    /// yields is.
    pub fn range_query_normalized_into(
        &self,
        feature: FeatureId,
        vector: FragmentVectorRef<'_>,
        sigma: f64,
        scratch: &mut RangeScratch,
        out: &mut Vec<(GraphId, f64)>,
    ) {
        let mut row = std::mem::take(&mut scratch.row);
        let completed = self.range_query_row(
            feature,
            vector,
            sigma,
            scratch,
            BudgetState::unlimited(),
            &mut row,
        );
        debug_assert!(completed, "the unlimited budget never interrupts a range query");
        out.clear();
        out.extend(row_hits(self.class_graphs(feature), &row));
        scratch.row = row;
    }

    /// Answers `nprobes` probes of the *same* class — normalized
    /// vectors yielded by `probe(i)` — writing probe `i`'s hits into
    /// `outs[i]` through [`FragmentIndex::range_query_normalized_into`],
    /// one probe after another.
    ///
    /// # Panics
    /// Panics if `outs.len() != nprobes` or a probe's vector kind does
    /// not match the index distance.
    pub fn range_query_batch_normalized_into<'q>(
        &self,
        feature: FeatureId,
        nprobes: usize,
        probe: impl Fn(usize) -> FragmentVectorRef<'q>,
        sigma: f64,
        scratch: &mut RangeScratch,
        outs: &mut [Vec<(GraphId, f64)>],
    ) {
        assert_eq!(outs.len(), nprobes, "one output buffer per probe");
        for (i, out) in outs.iter_mut().enumerate() {
            self.range_query_normalized_into(feature, probe(i), sigma, scratch, out);
        }
    }

    /// The range query with per-graph distances: answers one normalized
    /// probe of class `feature` under `budget`, leaving its minima row
    /// in `row` (overwritten). Cell `row[k]` is the probe's `d(g, G)`
    /// for `G = class_graphs(feature)[k]` — minimized over the class's
    /// frozen *and* pending entries — or `∞` when no fragment of `G`
    /// lies within `sigma`. [`row_hits`] reads a row as a hit list.
    ///
    /// The one kernel runs over the frozen structure and then over the
    /// pending one, into the same row, so pending answers are those of
    /// a merged class to the f64 bit. On a trie class that is
    /// [`FlatTrie::range_query`], each level's alphabet priced once by
    /// `MutationDistance::position_costs_into`; the subtrees both tries
    /// emit are sorted stably by [`FlatTrie::fold_order`] and folded
    /// cheapest first by [`FlatTrie::fold`], whose sink writes one cell
    /// per newly covered slot, so every hit cell is written once, with
    /// the value (and sign of zero) an in-order minimum over the
    /// emissions would leave. An R-tree class folds each point
    /// [`RTree::range_query`] visits into the row with a minimum update:
    /// both structures post class-local slots.
    ///
    /// Returns `false` — with `row` emptied — when the budget trips: a
    /// partial row is unusable (its minima may be wrong and its `∞`
    /// cells mean nothing). Each trie descent checkpoints per level;
    /// an R-tree class consults one coarse checkpoint up front.
    ///
    /// # Panics
    /// Panics if the probe's vector kind does not match the index
    /// distance.
    pub fn range_query_row(
        &self,
        feature: FeatureId,
        probe: FragmentVectorRef<'_>,
        sigma: f64,
        scratch: &mut RangeScratch,
        budget: &BudgetState,
        row: &mut Vec<f64>,
    ) -> bool {
        let class = &self.classes[feature.index()];
        row.clear();
        row.resize(class.graphs.len(), f64::INFINITY);
        let completed = match &self.distance {
            IndexDistance::Mutation(_) => {
                let completed = self.descend_trie_class(feature, probe, sigma, scratch, budget);
                if completed {
                    for (acc, trie, node) in emissions(class, &scratch.emitted) {
                        trie.fold(node, &mut scratch.covered, |w, mut bits| {
                            while bits != 0 {
                                row[64 * w + bits.trailing_zeros() as usize] = acc;
                                bits &= bits - 1;
                            }
                        });
                    }
                }
                completed
            }
            IndexDistance::Linear(ld) => {
                let scaled = scaled_probe(ld, self.features.get(feature).edge_count(), probe);
                rtree_range_query(class, &scaled, sigma, budget, row)
            }
        };
        if !completed {
            row.clear();
        }
        completed
    }

    /// The range query as a hit set: answers one normalized probe of
    /// class `feature` under `budget` and leaves its hits `T` as bits in
    /// [`RangeScratch::hits`] — bit `k` for
    /// `G = class_graphs(feature)[k]` — without a per-graph distance.
    /// Returns what Definition 5 needs of the distances: the hit count
    /// and the matched term `Σ min(d(g, G), cutoff)` as a [`HitTally`];
    /// `None` when the budget trips (the bits then mean nothing).
    ///
    /// The hits and distances are [`FragmentIndex::range_query_row`]'s:
    /// a trie class runs the same descents and folds the same emissions
    /// in the same order through [`FlatTrie::fold`], with a sink that
    /// only counts each emission's newly covered slots — a dense leaf
    /// costs one `bits & !covered` and one popcount per word, and no
    /// distance is written anywhere. Emissions fold in ascending cost,
    /// so the counts feed the tally as the runs it sums. An R-tree class
    /// fills its row and tallies the row's hit cells in the same order
    /// ([`HitTally::of_costs`]): the two agree with a tally of the row's
    /// [`row_hits`] to the f64 bit.
    ///
    /// # Panics
    /// Panics if the probe's vector kind does not match the index
    /// distance.
    pub fn range_query_hits(
        &self,
        feature: FeatureId,
        probe: FragmentVectorRef<'_>,
        sigma: f64,
        cutoff: f64,
        scratch: &mut RangeScratch,
        budget: &BudgetState,
    ) -> Option<HitTally> {
        let class = &self.classes[feature.index()];
        let tally = match &self.distance {
            IndexDistance::Mutation(_) => {
                if !self.descend_trie_class(feature, probe, sigma, scratch, budget) {
                    return None;
                }
                let mut tally = HitTally::new(cutoff);
                for (acc, trie, node) in emissions(class, &scratch.emitted) {
                    let mut fresh = 0;
                    trie.fold(node, &mut scratch.covered, |_, bits| {
                        fresh += bits.count_ones() as usize;
                    });
                    tally.add(acc, fresh);
                }
                tally
            }
            IndexDistance::Linear(ld) => {
                let scaled = scaled_probe(ld, self.features.get(feature).edge_count(), probe);
                let RangeScratch { covered, row, costs, .. } = scratch;
                row.clear();
                row.resize(class.graphs.len(), f64::INFINITY);
                if !rtree_range_query(class, &scaled, sigma, budget, row) {
                    return None;
                }
                covered.clear();
                covered.resize(row.len().div_ceil(64), 0);
                costs.clear();
                for (k, &d) in row.iter().enumerate().filter(|(_, d)| d.is_finite()) {
                    covered[k / 64] |= 1 << (k % 64);
                    costs.push(d);
                }
                HitTally::of_costs(cutoff, costs)
            }
        };
        Some(tally)
    }

    /// Runs one probe's descents over a trie class's frozen and then its
    /// pending trie, leaving every emission in `scratch.emitted`, sorted
    /// stably by [`FlatTrie::fold_order`], and `scratch.covered` cleared
    /// to one bit per class slot — ready for [`FlatTrie::fold`]. Both
    /// tries post class-local slots, so both fold into the same slots.
    /// `false` when the budget tripped.
    fn descend_trie_class(
        &self,
        feature: FeatureId,
        probe: FragmentVectorRef<'_>,
        sigma: f64,
        scratch: &mut RangeScratch,
        budget: &BudgetState,
    ) -> bool {
        let IndexDistance::Mutation(md) = &self.distance else {
            unreachable!("trie classes belong to mutation-distance indexes")
        };
        let class = &self.classes[feature.index()];
        let ecount = self.features.get(feature).edge_count();
        let q = probe.labels();
        let RangeScratch { frontier, emitted, covered, .. } = scratch;
        emitted.clear();
        let completed = class.structures().map(ClassImpl::as_trie).enumerate().all(|(t, trie)| {
            trie.range_query(
                q,
                sigma,
                |pos, query, stored, out| md.position_costs_into(pos, ecount, query, stored, out),
                |pos| md.position_is_zero(pos, ecount),
                frontier,
                budget,
                |acc, node| emitted.push((acc, t, node)),
            )
        });
        if completed {
            emitted.sort_by(|a, b| FlatTrie::fold_order(a.0, b.0));
            covered.clear();
            covered.resize(class.graphs.len().div_ceil(64), 0);
        }
        completed
    }

    /// Enumerates the indexed fragments of a query graph (Algorithm 2,
    /// lines 3–4), deduplicated by `(feature, vertex image, edge image)`
    /// so automorphic re-readings issue one range query each. Each
    /// fragment's vector is normalized for this index as it is read.
    ///
    /// Fragments land in the caller's arena-backed [`FragmentBuffer`]
    /// (cleared first). The dedup key is assembled in
    /// one reusable buffer (`[feature, sorted vertices…, sorted
    /// edges…]`) and checked with a borrowed `contains` first, and key
    /// allocations are recycled across queries — so the steady state of
    /// a reused buffer allocates nothing.
    pub fn enumerate_query_fragments_into(&self, query: &LabeledGraph, buf: &mut FragmentBuffer) {
        buf.reset(self.distance.is_mutation());
        for feature in self.features.iter() {
            let ecount = feature.structure.edge_count();
            let matcher = SubgraphMatcher::new(&feature.structure, query, IsoConfig::STRUCTURE);
            matcher.for_each(|emb| {
                buf.key_buf.clear();
                buf.key_buf.push(feature.id.0);
                let vertex_slots = buf.key_buf.len();
                buf.key_buf.extend(emb.vertex_map().iter().map(|v| v.0));
                buf.key_buf[vertex_slots..].sort_unstable();
                let edge_slots = buf.key_buf.len();
                buf.key_buf.extend(
                    feature
                        .structure
                        .edge_ids()
                        .map(|e| emb.edge_image(&feature.structure, query, e).0),
                );
                buf.key_buf[edge_slots..].sort_unstable();
                if !buf.seen.contains(buf.key_buf.as_slice()) {
                    let mut key = buf.key_pool.pop().unwrap_or_default();
                    key.clear();
                    key.extend_from_slice(&buf.key_buf);
                    buf.seen.insert(key);
                    buf.features.push(feature.id);
                    buf.verts.extend(
                        buf.key_buf[vertex_slots..edge_slots]
                            .iter()
                            .map(|&v| pis_graph::VertexId(v)),
                    );
                    buf.vert_start.push(buf.verts.len() as u32);
                    let start =
                        *buf.vec_start.last().expect("reset seeds the offset table") as usize;
                    match &self.distance {
                        IndexDistance::Mutation(_) => {
                            label_vector_into(&feature.structure, query, emb, &mut buf.labels);
                            self.distance.normalize_labels(ecount, &mut buf.labels[start..]);
                            buf.vec_start.push(buf.labels.len() as u32);
                        }
                        IndexDistance::Linear(_) => {
                            weight_vector_into(&feature.structure, query, emb, &mut buf.weights);
                            self.distance.normalize_weights(ecount, &mut buf.weights[start..]);
                            buf.vec_start.push(buf.weights.len() as u32);
                        }
                    }
                }
                ControlFlow::Continue(())
            });
        }
    }
}

/// One probe against an R-tree class, its frozen tree and then its
/// pending one: `scaled` is the scale-transformed query point and `row`
/// the probe's ∞-filled minima row. Both trees post class-local slots,
/// so each visited point folds straight into its cell. One coarse
/// checkpoint up front; `false` means the budget tripped and `row` holds
/// nothing usable.
fn rtree_range_query(
    class: &ClassIndex,
    scaled: &[f64],
    sigma: f64,
    budget: &BudgetState,
    row: &mut [f64],
) -> bool {
    if !budget.checkpoint(CheckpointSite::RangeDescent, 1) {
        return false;
    }
    for imp in class.structures() {
        let ClassImpl::RTree(rt) = imp else {
            unreachable!("the class structure always matches the index distance")
        };
        rt.range_query(scaled, sigma, |slot, d| {
            let b = &mut row[slot.index()];
            if d < *b {
                *b = d;
            }
        });
    }
    true
}

/// A trie class's sorted emissions as `(cost, trie, node)`, each with
/// the trie it came from (0 the frozen one, 1 the pending one).
fn emissions<'a>(
    class: &'a ClassIndex,
    emitted: &'a [(f64, usize, u32)],
) -> impl Iterator<Item = (f64, &'a FlatTrie, u32)> + 'a {
    emitted.iter().filter_map(move |&(acc, t, node)| {
        class.structures().nth(t).map(|trie| (acc, trie.as_trie(), node))
    })
}

/// The scale-transformed query point of a weight probe. The trees store
/// *scale-transformed* coordinates (see `scale_weights`), turning the
/// weighted L1 of the linear distance into a plain L1 — so the query
/// vector gets the same transform and distances come out exact.
fn scaled_probe(ld: &LinearDistance, edge_count: usize, probe: FragmentVectorRef<'_>) -> Vec<f64> {
    let mut scaled = probe.weights().to_vec();
    scale_weights(ld, edge_count, scaled.len(), &mut scaled);
    scaled
}

/// Applies the linear distance's per-segment scales in place to
/// row-major weight vectors of `width` slots (edge slots first), so
/// `|a' − b'|₁ = LD(a, b)` for transformed vectors `a'`, `b'`. Lets the
/// R-tree answer scaled queries with plain L1 geometry.
fn scale_weights(ld: &LinearDistance, edge_count: usize, width: usize, rows: &mut [f64]) {
    for (i, w) in rows.iter_mut().enumerate() {
        *w *= if i % width < edge_count { ld.edge_scale() } else { ld.vertex_scale() };
    }
}

/// All deduplicated, normalized vectors of one graph for one feature
/// structure, row-major (label or weight rows depending on the
/// distance). A reusable scratch: one value serves every graph of a
/// build or insert, so no entry owns an allocation.
#[derive(Default)]
struct GraphEntries {
    /// `count` rows of the class's slot count (mutation distance).
    labels: Vec<Label>,
    /// `count` rows of the class's slot count (linear distance).
    weights: Vec<f64>,
    /// Distinct vectors held; zero exactly when the graph does not
    /// contain the structure.
    count: usize,
    /// Open-addressing set of the rows held, by row number: 0 is a
    /// free slot, `r + 1` names row `r`. A power of two long, at most
    /// half full.
    table: Vec<u32>,
}

/// Decides whether the last row of `rows` (row number `count`, after
/// `count` distinct rows of `width` slots) is new, and records it in
/// `table` if so. Rows are hashed and compared through `bits`, so
/// weight rows are equal exactly when their bit patterns are. Stands in
/// for a hash set of owned vectors: the keys stay in the matrix.
fn is_new_row<T: Copy>(
    table: &mut Vec<u32>,
    rows: &[T],
    width: usize,
    count: usize,
    bits: impl Fn(T) -> u64,
) -> bool {
    let row = |r: usize| &rows[r * width..(r + 1) * width];
    let slot_of = |r: usize, len: usize| {
        let mut hasher = FxHasher::default();
        row(r).iter().for_each(|&x| hasher.write_u64(bits(x)));
        // A multiplicative hash mixes upwards: index by its high bits.
        (hasher.finish() >> 20) as usize & (len - 1)
    };
    if 2 * (count + 1) > table.len() {
        let len = (2 * table.len()).max(64);
        table.clear();
        table.resize(len, 0);
        for r in 0..count {
            let mut slot = slot_of(r, len);
            while table[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            table[slot] = r as u32 + 1;
        }
    }
    let len = table.len();
    let mut slot = slot_of(count, len);
    loop {
        match table[slot] {
            0 => {
                table[slot] = count as u32 + 1;
                return true;
            }
            r => {
                let stored = row(r as usize - 1);
                if stored.iter().zip(row(count)).all(|(&a, &b)| bits(a) == bits(b)) {
                    return false;
                }
            }
        }
        slot = (slot + 1) & (len - 1);
    }
}

/// Enumerates a graph's fragments of one feature and reads their
/// (normalized, deduplicated) vectors into `out` — the unit of work
/// shared by bulk build and incremental insertion.
fn collect_graph_entries(
    structure: &LabeledGraph,
    g: &LabeledGraph,
    distance: &IndexDistance,
    out: &mut GraphEntries,
) {
    out.labels.clear();
    out.weights.clear();
    out.count = 0;
    if g.vertex_count() < structure.vertex_count() || g.edge_count() < structure.edge_count() {
        return;
    }
    let ecount = structure.edge_count();
    let slots = structure.vertex_count() + ecount;
    out.table.clear();
    let matcher = SubgraphMatcher::new(structure, g, IsoConfig::STRUCTURE);
    matcher.for_each(|emb| {
        // Read the vector in place after the rows kept so far and
        // normalize it, so equivalent entries merge up front; a repeat is
        // cut off again.
        match distance {
            IndexDistance::Mutation(_) => {
                let start = out.labels.len();
                label_vector_into(structure, g, emb, &mut out.labels);
                distance.normalize_labels(ecount, &mut out.labels[start..]);
                if is_new_row(&mut out.table, &out.labels, slots, out.count, |l| u64::from(l.0)) {
                    out.count += 1;
                } else {
                    out.labels.truncate(start);
                }
            }
            IndexDistance::Linear(_) => {
                let start = out.weights.len();
                weight_vector_into(structure, g, emb, &mut out.weights);
                distance.normalize_weights(ecount, &mut out.weights[start..]);
                if is_new_row(&mut out.table, &out.weights, slots, out.count, f64::to_bits) {
                    out.count += 1;
                } else {
                    out.weights.truncate(start);
                }
            }
        }
        ControlFlow::Continue(())
    });
}

/// The rows of one class in database order, before they are frozen
/// into the class's range-search structure: row-major label or weight
/// vectors (depending on the distance) and, beside each row, the graph
/// it was read from. Covers a contiguous range of graphs, or — joined
/// in range order — the whole database.
#[derive(Default)]
struct ClassRows {
    labels: Vec<Label>,
    weights: Vec<f64>,
    row_graphs: Vec<GraphId>,
}

impl ClassRows {
    /// Joins one class's blocks (`blocks[range][class]`) in range order.
    fn concat(blocks: &[Vec<ClassRows>], class: usize) -> ClassRows {
        let parts = || blocks.iter().map(|block| &block[class]);
        let mut all = ClassRows {
            labels: Vec::with_capacity(parts().map(|p| p.labels.len()).sum()),
            weights: Vec::with_capacity(parts().map(|p| p.weights.len()).sum()),
            row_graphs: Vec::with_capacity(parts().map(|p| p.row_graphs.len()).sum()),
        };
        for part in parts() {
            all.labels.extend_from_slice(&part.labels);
            all.weights.extend_from_slice(&part.weights);
            all.row_graphs.extend_from_slice(&part.row_graphs);
        }
        all
    }
}

/// Enumerates one class over `graphs`, a run of the database starting
/// at graph id `first`: every graph's deduplicated vectors, in graph
/// order.
fn collect_class_rows(
    graphs: &[LabeledGraph],
    first: usize,
    structure: &LabeledGraph,
    distance: &IndexDistance,
    entries: &mut GraphEntries,
) -> ClassRows {
    let mut rows = ClassRows::default();
    for (i, g) in graphs.iter().enumerate() {
        collect_graph_entries(structure, g, distance, entries);
        rows.labels.extend_from_slice(&entries.labels);
        rows.weights.extend_from_slice(&entries.weights);
        rows.row_graphs.extend(std::iter::repeat_n(GraphId((first + i) as u32), entries.count));
    }
    rows
}

/// Builds one class's rows of graphs new to it (in graph order: the
/// whole database at build, an inserted run after it) into the
/// range-search structure of the index distance, appending the graphs
/// to the class's posting list `graphs`.
fn class_structure(
    ClassRows { labels, mut weights, row_graphs }: ClassRows,
    structure: &LabeledGraph,
    distance: &IndexDistance,
    graphs: &mut Vec<GraphId>,
) -> ClassImpl {
    let ecount = structure.edge_count();
    let slots = structure.vertex_count() + ecount;
    debug_assert!(row_graphs.is_sorted(), "class rows are in graph order");
    let postings = post_rows(&row_graphs, graphs);
    match distance {
        IndexDistance::Mutation(_) => {
            ClassImpl::Trie(Box::new(FlatTrie::from_rows(slots, labels, postings)))
        }
        IndexDistance::Linear(ld) => {
            scale_weights(ld, ecount, slots, &mut weights);
            ClassImpl::RTree(RTree::from_rows(slots, weights, postings))
        }
    }
}

/// Appends the distinct graphs of `row_graphs` (ascending, and past the
/// last of `graphs`) to the posting list `graphs`, returning each row's
/// class-local slot in it — the postings of both structures, so range
/// queries fold into a compact per-class row (see `range_query_row`).
/// Slots ascend with the ids, so a trie's entry order is the same
/// either way.
fn post_rows(row_graphs: &[GraphId], graphs: &mut Vec<GraphId>) -> Vec<GraphId> {
    row_graphs
        .iter()
        .map(|&g| {
            if graphs.last() != Some(&g) {
                graphs.push(g);
            }
            GraphId((graphs.len() - 1) as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_datasets::{MoleculeConfig, MoleculeGenerator};
    use pis_distance::oracle::min_superimposed_distance_brute;
    use pis_distance::ScoreMatrix;
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::{EdgeAttr, GraphBuilder, VertexAttr};
    use pis_mining::exhaustive::exhaustive_features;

    fn cycle_with_edge_labels(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    fn small_db() -> Vec<LabeledGraph> {
        vec![
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 2]),
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]),
            path_graph(5, Label(0), Label(1)),
        ]
    }

    /// The query's fragments, enumerated as the search enumerates them.
    fn fragments(index: &FragmentIndex, query: &LabeledGraph) -> FragmentBuffer {
        let mut frags = FragmentBuffer::new();
        index.enumerate_query_fragments_into(query, &mut frags);
        frags
    }

    /// Fragment `i`'s hits through the search's range query, its probe
    /// as the enumeration left it.
    fn range_hits(
        index: &FragmentIndex,
        frags: &FragmentBuffer,
        i: usize,
        sigma: f64,
    ) -> Vec<(GraphId, f64)> {
        let (mut hits, mut scratch) = (Vec::new(), RangeScratch::new());
        let (feature, probe) = (frags.feature(i), frags.vector(i));
        index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut hits);
        hits
    }

    /// Fragment `i` as a standalone graph — its vector in the feature's
    /// canonical layout, edge slots then vertex slots — labeled under
    /// the mutation distance and weighted under the linear one: what
    /// the oracle measures a range query from.
    fn fragment_graph(index: &FragmentIndex, frags: &FragmentBuffer, i: usize) -> LabeledGraph {
        let feature = &index.features().get(frags.feature(i)).structure;
        let slot = |k: usize| match frags.vector(i) {
            FragmentVectorRef::Labels(v) => (v[k], 0.0),
            FragmentVectorRef::Weights(v) => (Label(0), v[k]),
        };
        let mut b = GraphBuilder::new();
        for k in 0..feature.vertex_count() {
            let (label, weight) = slot(feature.edge_count() + k);
            b.add_vertex(VertexAttr { label, weight });
        }
        for (j, e) in feature.edges().iter().enumerate() {
            let (label, weight) = slot(j);
            b.add_edge(e.source, e.target, EdgeAttr { label, weight }).unwrap();
        }
        b.build()
    }

    fn build_md(db: &[LabeledGraph], max_edges: usize) -> FragmentIndex {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, max_edges);
        FragmentIndex::build(
            db,
            features,
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        )
    }

    #[test]
    fn posting_lists_match_structural_containment() {
        let db = small_db();
        let index = build_md(&db, 3);
        for f in index.features().iter() {
            let expected: Vec<GraphId> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| pis_graph::iso::is_subgraph(&f.structure, g, IsoConfig::STRUCTURE))
                .map(|(i, _)| GraphId(i as u32))
                .collect();
            assert_eq!(index.class_graphs(f.id), expected.as_slice(), "feature {}", f.id);
        }
    }

    #[test]
    fn range_query_matches_brute_force_min_distance() {
        // The index-computed d(g, G) must equal the brute-force minimum
        // superimposed distance for every fragment/graph pair it reports.
        let db = small_db();
        let index = build_md(&db, 4);
        let md = MutationDistance::edge_hamming();
        let query = cycle_with_edge_labels(&[1, 1, 1, 2, 1, 1]);
        let frags = fragments(&index, &query);
        for i in 0..frags.len() {
            let fragment_graph = fragment_graph(&index, &frags, i);
            for sigma in [0.0, 1.0, 2.0, 6.0] {
                let hits = range_hits(&index, &frags, i, sigma);
                for (gid, d) in &hits {
                    let brute =
                        min_superimposed_distance_brute(&fragment_graph, &db[gid.index()], &md)
                            .expect("reported graphs contain the structure");
                    assert!(
                        (d - brute).abs() < 1e-9,
                        "index distance {d} != brute {brute} for {gid} sigma {sigma}"
                    );
                    assert!(*d <= sigma);
                }
                // Completeness: every graph within sigma is reported.
                for (gi, g) in db.iter().enumerate() {
                    if let Some(brute) = min_superimposed_distance_brute(&fragment_graph, g, &md) {
                        if brute <= sigma {
                            assert!(
                                hits.iter().any(|(hg, _)| hg.index() == gi),
                                "graph {gi} within {sigma} missing from range query"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linear_rtree_distances_match_oracle() {
        let mk = |ws: [f64; 2]| {
            let mut b = GraphBuilder::new();
            let vs = b.add_vertices(3, VertexAttr::labeled(Label(0)));
            b.add_edge(vs[0], vs[1], EdgeAttr { label: Label(0), weight: ws[0] }).unwrap();
            b.add_edge(vs[1], vs[2], EdgeAttr { label: Label(0), weight: ws[1] }).unwrap();
            b.build()
        };
        let db = vec![mk([1.0, 2.0]), mk([1.1, 2.2]), mk([9.0, 9.0])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 2);
        let ld = LinearDistance::edges_only();
        let index =
            FragmentIndex::build(&db, features, IndexDistance::Linear(ld), &IndexConfig::default());
        let query = mk([1.0, 2.0]);
        let frags = fragments(&index, &query);
        for i in 0..frags.len() {
            let frag = fragment_graph(&index, &frags, i);
            for (gid, d) in range_hits(&index, &frags, i, 0.5) {
                let brute = min_superimposed_distance_brute(&frag, &db[gid.index()], &ld).unwrap();
                assert!((d - brute).abs() < 1e-9, "index {d} vs brute {brute}");
            }
        }
    }

    #[test]
    fn batched_range_queries_equal_per_probe_queries() {
        let db = small_db();
        let index = build_md(&db, 4);
        let query = cycle_with_edge_labels(&[1, 1, 1, 2, 1, 1]);
        let frags = fragments(&index, &query);
        // Group the fragments per feature (the enumeration order is
        // feature-major already) and answer each group both ways.
        let mut scratch = RangeScratch::new();
        let groups = frags.features.chunk_by(|a, b| a == b);
        assert!(groups.clone().count() > 1, "test should cover several classes");
        let mut i = 0;
        for group in groups {
            let (feature, n) = (group[0], group.len());
            for sigma in [0.0, 1.0, 2.0, 6.0] {
                let mut outs: Vec<Vec<(GraphId, f64)>> = vec![Vec::new(); n];
                index.range_query_batch_normalized_into(
                    feature,
                    n,
                    |k| frags.vector(i + k),
                    sigma,
                    &mut scratch,
                    &mut outs,
                );
                for (k, out) in outs.iter().enumerate() {
                    let expected = range_hits(&index, &frags, i + k, sigma);
                    assert_eq!(out, &expected, "sigma {sigma} probe {k}");
                }
            }
            i += n;
        }
    }

    #[test]
    fn batched_range_queries_fall_back_per_probe_on_linear_backends() {
        let mk = |ws: [f64; 3]| {
            let mut b = GraphBuilder::new();
            let vs = b.add_vertices(3, VertexAttr::labeled(Label(0)));
            for (i, w) in ws.into_iter().enumerate() {
                b.add_edge(vs[i], vs[(i + 1) % 3], EdgeAttr { label: Label(0), weight: w })
                    .unwrap();
            }
            b.build()
        };
        let db = vec![mk([1.0, 1.0, 1.0]), mk([1.0, 1.5, 2.0]), mk([4.0, 4.0, 4.0])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let ld = LinearDistance::edges_only();
        let index =
            FragmentIndex::build(&db, features, IndexDistance::Linear(ld), &IndexConfig::default());
        let query = mk([1.0, 1.25, 2.0]);
        let frags = fragments(&index, &query);
        let mut scratch = RangeScratch::new();
        let mut i = 0;
        for group in frags.features.chunk_by(|a, b| a == b) {
            let (feature, n) = (group[0], group.len());
            let mut outs: Vec<Vec<(GraphId, f64)>> = vec![Vec::new(); n];
            let probe = |k| frags.vector(i + k);
            index.range_query_batch_normalized_into(
                feature,
                n,
                probe,
                0.5,
                &mut scratch,
                &mut outs,
            );
            for (k, out) in outs.iter().enumerate() {
                assert_eq!(out, &range_hits(&index, &frags, i + k, 0.5));
            }
            i += n;
        }
    }

    #[test]
    fn query_fragments_dedup_automorphisms() {
        let db = vec![cycle_graph(6, Label(0), Label(1))];
        let index = build_md(&db, 2);
        let query = cycle_graph(6, Label(0), Label(1));
        let frags = fragments(&index, &query);
        // 1-edge fragments: 6 sites; 2-edge path fragments: 6 sites.
        let mut by_feature: pis_graph::util::FxHashMap<u32, usize> = Default::default();
        for i in 0..frags.len() {
            *by_feature.entry(frags.feature(i).0).or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = by_feature.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![6, 6]);
    }

    /// Molecule classes of a few hundred graphs fold through both paths
    /// of `FlatTrie::fold_into_row`: under edge-Hamming (edge labels
    /// only) and under the unit distance (vertex labels too), their
    /// tries hold dense leaves and sparse ones. The row properties of
    /// `tests/proptest_index.rs` run over such classes.
    #[test]
    fn molecule_classes_hold_dense_and_sparse_leaves() {
        let db = MoleculeGenerator::new(MoleculeConfig::default()).database(300, 7);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        for md in [MutationDistance::edge_hamming(), MutationDistance::unit()] {
            let distance = IndexDistance::Mutation(md);
            let index =
                FragmentIndex::build(&db, features.clone(), distance, &IndexConfig::default());
            let (dense, sparse) = index.classes.iter().fold((0, 0), |(d, s), class| {
                let (dd, ss) = class.frozen.as_trie().leaf_kinds();
                (d + dd, s + ss)
            });
            assert!(dense > 0 && sparse > 0, "{dense} dense, {sparse} sparse leaves");
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        // Small rings and paths whose labels and weights vary with `i`,
        // in alternating runs of ten: at seven workers a whole range of
        // graphs contains no ring class.
        let graph = |i: usize| {
            let ring = (i / 10) % 2 == 0;
            let n = if ring { 3 + i % 2 } else { 4 };
            let mut b = GraphBuilder::new();
            let vs: Vec<_> =
                (0..n).map(|k| b.add_vertex(VertexAttr::labeled(Label(k as u32 % 2)))).collect();
            for k in 0..n - usize::from(!ring) {
                let attr = EdgeAttr {
                    label: Label(((i + k) % 3) as u32),
                    weight: 1.0 + ((i * 7 + k * 3) % 5) as f64 * 0.5,
                };
                b.add_edge(vs[k], vs[(k + 1) % n], attr).unwrap();
            }
            b.build()
        };
        let db: Vec<LabeledGraph> = (0..40).map(graph).collect();
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 4);
        let md = IndexDistance::Mutation(MutationDistance::unit());
        let ld = IndexDistance::Linear(LinearDistance::default());
        for (name, distance) in [("trie", &md), ("r-tree", &ld)] {
            // Fewer graphs than workers, and no graphs at all, included.
            for size in [0, 1, 5, 40] {
                let db = &db[..size];
                let build = |threads| {
                    FragmentIndex::build(
                        db,
                        features.clone(),
                        distance.clone(),
                        &IndexConfig { threads },
                    )
                };
                let serial = build(1);
                let bytes = crate::encode_snapshot(&serial, db).unwrap();
                for threads in [2, 3, 7] {
                    let case = format!("{name} {size} graphs {threads} threads");
                    let parallel = build(threads);
                    assert_eq!(parallel.total_entries(), serial.total_entries(), "{case}");
                    for (f, (p, s)) in parallel.classes.iter().zip(&serial.classes).enumerate() {
                        assert_eq!(p.graphs, s.graphs, "{case} class {f}");
                        assert_eq!(p.entries, s.entries, "{case} class {f}");
                        assert!(p.frozen == s.frozen, "{case} class {f}");
                    }
                    assert_eq!(crate::encode_snapshot(&parallel, db).unwrap(), bytes, "{case}");
                }
            }
        }
    }

    #[test]
    fn incremental_insert_equals_bulk_build_trie() {
        let db = small_db();
        // Build on a prefix, insert the rest.
        let mut incremental = build_md(&db[..2], 3);
        for g in &db[2..] {
            incremental.insert_graph_pending(g);
        }
        incremental.compact();
        let bulk = build_md(&db, 3);
        assert_eq!(incremental.graph_count(), bulk.graph_count());
        assert_eq!(incremental.total_entries(), bulk.total_entries());
        for f in bulk.features().iter() {
            assert_eq!(incremental.class_graphs(f.id), bulk.class_graphs(f.id));
        }
        let frags = fragments(&bulk, &cycle_with_edge_labels(&[1, 1, 2, 1, 1, 1]));
        for i in 0..frags.len() {
            for sigma in [0.0, 1.0, 3.0] {
                assert_eq!(
                    range_hits(&incremental, &frags, i, sigma),
                    range_hits(&bulk, &frags, i, sigma),
                    "sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn incremental_insert_equals_bulk_build_rtree() {
        // Weighted molecules: every class holds hundreds of distinct
        // weight vectors, so the tree spans several levels and the
        // inserts cross the merge threshold.
        let db = MoleculeGenerator::new(MoleculeConfig { weighted: true, ..Default::default() })
            .database(60, 11);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let ld = IndexDistance::Linear(LinearDistance::edges_only());
        let mut incremental =
            FragmentIndex::build(&db[..20], features.clone(), ld.clone(), &IndexConfig::default());
        for g in &db[20..] {
            incremental.insert_graph_pending(g);
        }
        assert!(incremental.merge_stats().merges > 0, "some class crossed the threshold");
        incremental.compact();
        let bulk = FragmentIndex::build(&db, features, ld, &IndexConfig::default());
        // Pack order depends only on the entries, so the compacted
        // store is the bulk build, byte for byte.
        assert!(
            crate::encode_snapshot(&incremental, &db).unwrap()
                == crate::encode_snapshot(&bulk, &db).unwrap(),
            "compacted incremental store differs from the bulk build"
        );
        let frags = fragments(&bulk, &db[3]);
        for i in 0..frags.len() {
            for sigma in [0.0, 0.5, 2.0] {
                assert_eq!(
                    range_hits(&incremental, &frags, i, sigma),
                    range_hits(&bulk, &frags, i, sigma),
                    "sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn inserted_graph_without_features_only_bumps_count() {
        // A graph too small to hold any feature: no postings change.
        let db = small_db();
        let mut index = build_md(&db, 3);
        let before = index.total_entries();
        let tiny = {
            let mut b = GraphBuilder::new();
            b.add_vertex(VertexAttr::labeled(Label(0)));
            b.build()
        };
        let gid = index.insert_graph_pending(&tiny);
        index.compact();
        assert_eq!(gid.index(), db.len());
        assert_eq!(index.total_entries(), before);
        assert_eq!(index.graph_count(), db.len() + 1);
    }

    fn build_ld(db: &[LabeledGraph], max_edges: usize) -> FragmentIndex {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, max_edges);
        FragmentIndex::build(
            db,
            features,
            IndexDistance::Linear(LinearDistance::default()),
            &IndexConfig::default(),
        )
    }

    /// Class `ci`'s slot count: its structures' depth or dimension.
    fn class_slots(index: &FragmentIndex, ci: usize) -> usize {
        let structure = &index.features.get(FeatureId(ci as u32)).structure;
        structure.vertex_count() + structure.edge_count()
    }

    /// A populated class for corruption below (the build itself already
    /// re-validated through the debug hook).
    fn full_class(index: &FragmentIndex) -> usize {
        (0..index.classes.len())
            .find(|&ci| !index.classes[ci].graphs.is_empty())
            .expect("small_db populates at least one class")
    }

    #[test]
    fn validate_reports_per_backend_tallies() {
        let db = small_db();
        let index = build_md(&db, 3);
        let report = index.validate().unwrap();
        assert_eq!(report.classes, index.features().len());
        assert_eq!(report.trie_classes, report.classes);
        assert_eq!(report.rtree_classes, 0);
        assert_eq!(report.frozen_entries, index.total_entries());
        assert_eq!(report.pending_entries, 0);
    }

    #[test]
    fn validate_rejects_index_corruption() {
        let db = small_db();

        // Entry-count drift.
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        bad.classes[ci].entries += 1;
        assert!(bad.validate().unwrap_err().contains("entries"));

        // Posting list out of order.
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        if bad.classes[ci].graphs.len() > 1 {
            bad.classes[ci].graphs.reverse();
            assert!(bad.validate().unwrap_err().contains("ascending"));
        }

        // Posting list past the database.
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        bad.classes[ci].graphs.push(GraphId(bad.graph_count as u32));
        assert!(bad.validate().unwrap_err().contains("past the"));

        // The pending structure passes the frozen structure's checks,
        // with the class named: the class's depth ...
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        let trie = FlatTrie::from_rows(1, vec![Label(1)], vec![GraphId(0)]);
        bad.classes[ci].pending = Some(ClassImpl::Trie(Box::new(trie)));
        bad.classes[ci].entries += 1;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with(&format!("class {ci}: pending trie depth 1 != ")), "{err}");

        // ... its posting slots inside the class ...
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        let depth = class_slots(&bad, ci);
        let past = GraphId(bad.classes[ci].graphs.len() as u32);
        let trie = FlatTrie::from_rows(depth, vec![Label(1); depth], vec![past]);
        bad.classes[ci].pending = Some(ClassImpl::Trie(Box::new(trie)));
        bad.classes[ci].entries += 1;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with(&format!("class {ci}: pending trie posting slot ")), "{err}");

        // ... the distance's kind of structure ...
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        let dim = class_slots(&bad, ci);
        bad.classes[ci].pending = Some(ClassImpl::RTree(RTree::from_rows(dim, vec![], vec![])));
        let err = bad.validate().unwrap_err();
        assert_eq!(err, format!("class {ci}: pending backend does not match the index distance"));

        // ... and, on an R-tree class, the same posting-slot check.
        let mut bad = build_ld(&db, 3);
        let ci = full_class(&bad);
        let past = GraphId(bad.classes[ci].graphs.len() as u32);
        let dim = class_slots(&bad, ci);
        let rt = RTree::from_rows(dim, vec![0.0; dim], vec![past]);
        bad.classes[ci].pending = Some(ClassImpl::RTree(rt));
        bad.classes[ci].entries += 1;
        let err = bad.validate().unwrap_err();
        assert_eq!(
            err,
            format!(
                "class {ci}: pending r-tree posting slot {past} exceeds the {}-graph class",
                past.0
            )
        );
    }

    #[test]
    fn validate_rejects_mismatched_backend() {
        let db = small_db();
        let mut bad = build_md(&db, 3);
        // Swap the distance out from under trie-backed classes.
        bad.distance = IndexDistance::Linear(LinearDistance::edges_only());
        assert!(bad.validate().unwrap_err().contains("backend"));
    }

    #[test]
    fn sized_zero_matrix_normalizes_like_edge_hamming() {
        // A zero vertex matrix erases vertex slots whatever its size:
        // over molecules with varied atom labels, a 64-label zero/unit
        // pair stores the entries `edge_hamming` (size-0 matrices) does,
        // enumerates the same probes and answers every probe alike,
        // where pricing vertices too (`unit`) keeps more entries.
        let db = MoleculeGenerator::default().database(12, 5);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let build = |md| {
            FragmentIndex::build(
                &db,
                features.clone(),
                IndexDistance::Mutation(md),
                &IndexConfig::default(),
            )
        };
        let sized = build(MutationDistance::new(ScoreMatrix::zero(64), ScoreMatrix::unit(64)));
        let hamming = build(MutationDistance::edge_hamming());
        let unit = build(MutationDistance::unit());
        assert_eq!(sized.total_entries(), hamming.total_entries());
        assert!(unit.total_entries() > hamming.total_entries());
        let frags = fragments(&hamming, &db[0]);
        let sized_frags = fragments(&sized, &db[0]);
        assert_eq!(frags.len(), sized_frags.len());
        for i in 0..frags.len() {
            assert_eq!(frags.vector(i), sized_frags.vector(i), "probe {i}");
            for sigma in [0.0, 1.0, 2.0] {
                assert_eq!(
                    range_hits(&sized, &frags, i, sigma),
                    range_hits(&hamming, &frags, i, sigma),
                    "sigma {sigma}"
                );
            }
        }

        // Every enumerated probe is already in normal form — the range
        // query compares it with the stored rows as given — so
        // normalizing it again changes no bit, under each distance.
        let weighted =
            MoleculeGenerator::new(MoleculeConfig { weighted: true, ..Default::default() })
                .database(12, 5);
        let structures: Vec<LabeledGraph> =
            weighted.iter().map(LabeledGraph::erase_labels).collect();
        let linear = FragmentIndex::build(
            &weighted,
            exhaustive_features(&structures, 3),
            IndexDistance::Linear(LinearDistance::edges_only()),
            &IndexConfig::default(),
        );
        for (index, query) in
            [(&hamming, &db[0]), (&unit, &db[0]), (&sized, &db[0]), (&linear, &weighted[0])]
        {
            let frags = fragments(index, query);
            assert!(!frags.is_empty());
            for i in 0..frags.len() {
                let ecount = index.features().get(frags.feature(i)).edge_count();
                match frags.vector(i) {
                    FragmentVectorRef::Labels(v) => {
                        let mut again = v.to_vec();
                        index.distance().normalize_labels(ecount, &mut again);
                        assert_eq!(again, v, "probe {i}");
                    }
                    FragmentVectorRef::Weights(v) => {
                        let mut again = v.to_vec();
                        index.distance().normalize_weights(ecount, &mut again);
                        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&again), bits(v), "probe {i}");
                    }
                }
            }
        }
    }
}
