//! The fragment-based index (Section 4, Figure 5).
//!
//! `FragmentIndex` = hash table over structural equivalence classes +
//! one [`FlatTrie`] per class + structural posting lists. A class's
//! trie is as deep as the class is *wide*: `v + e` label slots under
//! the mutation distance, none under the linear distance.
//!
//! Under the mutation distance, build stores, for every
//! `(feature, graph)` pair, the label vectors of *all* embeddings of the
//! feature into the graph, deduplicated, in the class's trie. The
//! matcher visits one embedding per occurrence, the one the feature's
//! symmetry-breaking conditions admit (`crate::symmetry`); the other
//! embeddings of the occurrence are its automorphic re-readings, so
//! their vectors are the admitted one's with the slots permuted. Range
//! queries then answer Eq. (3) —
//! `d(g, G) = min_{g' ⊑ G, g' ≅ g} d(g, g')` — without touching any
//! database graph. Neither the rows nor the query fragments depend on
//! the order in which the matcher visits embeddings.
//!
//! Under the linear distance a class is its posting list: a depth-0
//! trie holding one entry per graph that contains the structure, read
//! off the graph's first admitted embedding. A probe's hit set is the whole
//! posting list and its minima row is `0` on every graph of the class —
//! a lower bound on `d(g, G)`, which is all the funnel's intersection
//! and Eq. 2 need, so verification keeps the answers exact. The paper's
//! R-tree over weight vectors pruned almost nothing beyond the posting
//! lists on the molecule corpus and made the search 18–156× slower than
//! `topo_prune` (DESIGN.md §6.14).
//!
//! Inserted graphs land in a second, small trie of the class's depth —
//! the *pending* trie — until the class holds 64 pending entries and
//! merges them into the frozen one
//! ([`FragmentIndex::insert_graphs_pending`]). Every trie, built, merged
//! or loaded, comes out of the one arena builder in `flat_trie`, so a
//! snapshot stores a compacted class as its content — its posting list
//! and its trie's sorted sequences with their posting runs — and a load
//! lays the arena out again (`crate::snapshot`).
//!
//! A range query runs one kernel over the frozen trie and then the
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
use pis_graph::budget::BudgetState;
use pis_graph::util::FxHasher;
use pis_graph::{Embedding, GraphId, Label, LabeledGraph, ScopedPool};
use pis_mining::{FeatureId, FeatureSet};

use crate::flat_trie::{FlatTrie, TrieFrontier};
use crate::fragment::{label_vector_into, FragmentBuffer, FragmentVectorRef};
use crate::symmetry::{AdmitScratch, Symmetry};
use crate::tally::HitTally;

/// The superimposed distance an index is built for.
#[derive(Clone, Debug)]
pub enum IndexDistance {
    /// Categorical mutation distance (label vectors).
    Mutation(MutationDistance),
    /// Linear mutation distance: each class is its posting list, and
    /// the verifier measures the weights.
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
    /// are both normalized in place by it, so a probe is compared with
    /// rows of its own form. A linear-distance vector is empty (its
    /// class is 0 wide) and stays as it is.
    pub fn normalize_labels(&self, edge_count: usize, v: &mut [Label]) {
        let IndexDistance::Mutation(md) = self else { return };
        let cut = edge_count.min(v.len());
        if md.edge_scores().is_zero() {
            v[..cut].fill(Label::ERASED);
        }
        if md.vertex_scores().is_zero() {
            v[cut..].fill(Label::ERASED);
        }
    }

    /// The width of the class of `structure`: the label slots of its
    /// vectors and the depth of its trie. `v + e` under the mutation
    /// distance; 0 under the linear distance, whose classes are their
    /// posting lists.
    pub(crate) fn class_width(&self, structure: &LabeledGraph) -> usize {
        match self {
            IndexDistance::Mutation(_) => structure.vertex_count() + structure.edge_count(),
            IndexDistance::Linear(_) => 0,
        }
    }

    /// Appends the normalized vector of one embedding of `structure`
    /// into `g` to `out`: its [`IndexDistance::class_width`] label slots
    /// (none under the linear distance).
    fn read_vector(
        &self,
        structure: &LabeledGraph,
        g: &LabeledGraph,
        emb: &Embedding,
        out: &mut Vec<Label>,
    ) {
        if self.is_mutation() {
            let start = out.len();
            label_vector_into(structure, g, emb, out);
            self.normalize_labels(structure.edge_count(), &mut out[start..]);
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
    /// out of.
    row: Vec<f64>,
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

/// One equivalence class: its trie, [`IndexDistance::class_width`]
/// deep, and its posting list.
pub(crate) struct ClassIndex {
    pub(crate) frozen: FlatTrie,
    /// The entries inserted since the last merge, in a second, small
    /// trie of the same depth; `None` after build, load and merge. Not
    /// an empty trie: 14 of them allocated on the build's worker threads
    /// fragmented the heap enough that a second build in one process
    /// peaked 17 MB (27 %) higher in about half the runs.
    pub(crate) pending: Option<FlatTrie>,
    /// Sorted distinct graphs containing this structure — the gIndex
    /// posting list used by topoPrune and structure-violation pruning.
    pub(crate) graphs: Vec<GraphId>,
    /// Total stored entries, frozen *and* pending.
    pub(crate) entries: usize,
}

impl ClassIndex {
    /// A class with nothing pending — fresh builds and restored saves.
    pub(crate) fn restored(frozen: FlatTrie, graphs: Vec<GraphId>) -> Self {
        ClassIndex { entries: frozen.len(), frozen, pending: None, graphs }
    }

    /// The frozen trie, then the pending one: a range query runs the
    /// one kernel over both.
    fn tries(&self) -> impl Iterator<Item = &FlatTrie> {
        std::iter::once(&self.frozen).chain(&self.pending)
    }

    /// Entries held in the pending trie.
    fn pending_len(&self) -> usize {
        self.pending.as_ref().map_or(0, FlatTrie::len)
    }
}

/// The PIS fragment-based index.
pub struct FragmentIndex {
    pub(crate) features: FeatureSet,
    pub(crate) distance: IndexDistance,
    pub(crate) classes: Vec<ClassIndex>,
    /// Each feature's [`Symmetry`], in feature order: derived from the
    /// structures whenever the index is built or decoded, never stored.
    pub(crate) symmetry: Vec<Symmetry>,
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
        let symmetry = symmetries(&features);
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
                    .zip(&symmetry)
                    .map(|(s, sym)| collect_class_rows(graphs, first, s, sym, &distance, entries))
                    .collect()
            },
        );
        // A class's blocks joined in range order are the rows the serial
        // loop over the whole database writes, so the frozen structures
        // do not depend on the worker count.
        let classes: Vec<ClassIndex> = pool.map(&structures, 2, |class, s| {
            let mut graphs = Vec::new();
            let frozen = class_trie(ClassRows::concat(&blocks, class), s, &distance, &mut graphs);
            ClassIndex::restored(frozen, graphs)
        });
        let mut index = FragmentIndex {
            features,
            distance,
            classes,
            symmetry,
            graph_count: db.len(),
            merge_stats: MergeStats::default(),
        };
        index.count_supports();
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

    /// The class's frozen trie, whose postings are slots of
    /// [`FragmentIndex::class_graphs`]: every entry of the class after
    /// [`FragmentIndex::compact`], the ones a snapshot stores.
    pub fn class_trie(&self, feature: FeatureId) -> &FlatTrie {
        &self.classes[feature.index()].frozen
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
    /// database, one class at a time, and each class's new trie becomes,
    /// or is merged into, its *pending* trie — a second, small trie of
    /// the class's depth, so range queries run the same kernel over it
    /// and answers (f64 bits included) are those of a merged class. A
    /// class whose pending trie reaches 64 entries then merges it into
    /// the frozen one ([`FlatTrie::merge`], one linear pass over the
    /// class); [`FragmentIndex::compact`] merges every class (required
    /// before snapshotting).
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
            let symmetry = &self.symmetry[ci];
            let rows = collect_class_rows(
                graphs,
                first,
                structure,
                symmetry,
                &self.distance,
                &mut scratch,
            );
            if rows.row_graphs.is_empty() {
                continue;
            }
            let batch = class_trie(rows, structure, &self.distance, &mut class.graphs);
            class.entries += batch.len();
            match &mut class.pending {
                Some(pending) => pending.merge(&batch),
                None => class.pending = Some(batch),
            }
        }
        self.count_supports();
        self.merge_where(|pending| pending >= MERGE_THRESHOLD);
        self.debug_validate("insert_graphs_pending");
    }

    /// Sets every feature's support to its class's posting count: the
    /// miner's count may come from a sample, or be capped, and a
    /// snapshot stores this one.
    fn count_supports(&mut self) {
        for (ci, class) in self.classes.iter().enumerate() {
            self.features.set_support(FeatureId(ci as u32), class.graphs.len());
        }
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
    /// the database size; the frozen and the pending trie each pass the
    /// same check (the class's width as depth, posting slots inside the
    /// class); the entry count equals frozen + pending; and every
    /// posting-list graph is referenced by at least one entry. The
    /// arenas themselves are not re-checked: one builder lays every one
    /// out from its sorted entries, and a snapshot load checks the
    /// entries it feeds that builder.
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
            let width =
                self.distance.class_width(&self.features.get(FeatureId(ci as u32)).structure);
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
            let mut check = |which: &str, trie: &FlatTrie| {
                validate_trie(trie, width, &mut seen).map_err(|m| ctx(format!("{which} {m}")))
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
            report.frozen_entries += frozen_len;
            report.pending_entries += pending_len;
        }
        Ok(report)
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
    /// all such fragments — under the linear distance, every graph of
    /// the class at `0.0`. The probe is a borrowed
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
    /// Panics if `outs.len() != nprobes` or a probe is not a label
    /// vector of the class's width.
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
    /// Under the linear distance the row is `0.0` on every graph of the
    /// class: a lower bound on `d(g, G)`, not the distance.
    ///
    /// The one kernel, [`FlatTrie::range_query`], runs over the frozen
    /// trie and then over the pending one, into the same row, so pending
    /// answers are those of a merged class to the f64 bit. Each level's
    /// alphabet is priced once by `MutationDistance::position_costs_into`
    /// (a linear class's depth-0 trie has no level to price and emits
    /// its root at cost 0); the subtrees both tries emit are sorted
    /// stably by [`FlatTrie::fold_order`] and folded cheapest first by
    /// [`FlatTrie::fold`], whose sink writes one cell per newly covered
    /// slot, so every hit cell is written once, with the value (and sign
    /// of zero) an in-order minimum over the emissions would leave.
    ///
    /// Returns `false` — with `row` emptied — when the budget trips: a
    /// partial row is unusable (its minima may be wrong and its `∞`
    /// cells mean nothing). Each descent checkpoints per cost-bearing
    /// level.
    ///
    /// # Panics
    /// Panics if the probe is not a label vector of the class's width.
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
        if !self.descend_class(feature, probe, sigma, scratch, budget) {
            return false;
        }
        row.resize(class.graphs.len(), f64::INFINITY);
        for (acc, trie, node) in emissions(class, &scratch.emitted) {
            trie.fold(node, &mut scratch.covered, |w, mut bits| {
                while bits != 0 {
                    row[64 * w + bits.trailing_zeros() as usize] = acc;
                    bits &= bits - 1;
                }
            });
        }
        true
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
    /// the same descents fold the same emissions in the same order
    /// through [`FlatTrie::fold`], with a sink that only counts each
    /// emission's newly covered slots — a dense leaf costs one
    /// `bits & !covered` and one popcount per word, and no distance is
    /// written anywhere. Emissions fold in ascending cost, so the counts
    /// feed the tally as the runs it sums, and the two agree with a
    /// tally of the row's [`row_hits`] to the f64 bit.
    ///
    /// # Panics
    /// Panics if the probe is not a label vector of the class's width.
    pub fn range_query_hits(
        &self,
        feature: FeatureId,
        probe: FragmentVectorRef<'_>,
        sigma: f64,
        cutoff: f64,
        scratch: &mut RangeScratch,
        budget: &BudgetState,
    ) -> Option<HitTally> {
        if !self.descend_class(feature, probe, sigma, scratch, budget) {
            return None;
        }
        let mut tally = HitTally::new(cutoff);
        for (acc, trie, node) in emissions(&self.classes[feature.index()], &scratch.emitted) {
            let mut fresh = 0;
            trie.fold(node, &mut scratch.covered, |_, bits| {
                fresh += bits.count_ones() as usize;
            });
            tally.add(acc, fresh);
        }
        Some(tally)
    }

    /// Runs one probe's descents over a class's frozen and then its
    /// pending trie, leaving every emission in `scratch.emitted`, sorted
    /// stably by [`FlatTrie::fold_order`], and `scratch.covered` cleared
    /// to one bit per class slot — ready for [`FlatTrie::fold`]. Both
    /// tries post class-local slots, so both fold into the same slots.
    /// `false` when the budget tripped.
    fn descend_class(
        &self,
        feature: FeatureId,
        probe: FragmentVectorRef<'_>,
        sigma: f64,
        scratch: &mut RangeScratch,
        budget: &BudgetState,
    ) -> bool {
        // A linear class's trie is 0 deep: the descent emits its root at
        // cost 0 and prices no level.
        let md = match &self.distance {
            IndexDistance::Mutation(md) => Some(md),
            IndexDistance::Linear(_) => None,
        };
        let class = &self.classes[feature.index()];
        let ecount = self.features.get(feature).edge_count();
        let q = probe.labels();
        let RangeScratch { frontier, emitted, covered, .. } = scratch;
        emitted.clear();
        let completed = class.tries().enumerate().all(|(t, trie)| {
            trie.range_query(
                q,
                sigma,
                |pos, query, stored, out| {
                    if let Some(md) = md {
                        md.position_costs_into(pos, ecount, query, stored, out);
                    }
                },
                |pos| md.is_none_or(|md| md.position_is_zero(pos, ecount)),
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
    /// lines 3–4): one per occurrence of a feature in the query, read
    /// off the one embedding of the occurrence that the feature's
    /// symmetry-breaking conditions admit (`crate::symmetry`), in the
    /// matcher's DFS order, feature by feature. Each fragment's vector
    /// is normalized for this index and is the least of its
    /// occurrence's readings — a function of the occurrence alone, so
    /// fragments whose readings are the same set carry equal probes and
    /// share one range query (empty under the linear distance, whose
    /// classes are 0 wide).
    ///
    /// Fragments land in the caller's arena-backed [`FragmentBuffer`]
    /// (cleared first), and every feature's matcher runs on the plan its
    /// symmetry keeps and on the buffer's DFS state, so the steady state
    /// of a reused buffer allocates nothing.
    pub fn enumerate_query_fragments_into(&self, query: &LabeledGraph, buf: &mut FragmentBuffer) {
        buf.reset();
        let FragmentBuffer { features, vert_start, verts, vec_start, labels, admit } = buf;
        for (feature, symmetry) in self.features.iter().zip(&self.symmetry) {
            symmetry.for_each_admitted(&feature.structure, query, admit, |emb| {
                features.push(feature.id);
                let start = verts.len();
                verts.extend_from_slice(emb.vertex_map());
                verts[start..].sort_unstable();
                vert_start.push(verts.len() as u32);
                let start = labels.len();
                self.distance.read_vector(&feature.structure, query, emb, labels);
                symmetry.least_reading(labels, start);
                vec_start.push(labels.len() as u32);
                ControlFlow::Continue(())
            });
        }
    }
}

/// A class's sorted emissions as `(cost, trie, node)`, each with the
/// trie it came from (0 the frozen one, 1 the pending one).
fn emissions<'a>(
    class: &'a ClassIndex,
    emitted: &'a [(f64, usize, u32)],
) -> impl Iterator<Item = (f64, &'a FlatTrie, u32)> + 'a {
    emitted
        .iter()
        .filter_map(move |&(acc, t, node)| class.tries().nth(t).map(|trie| (acc, trie, node)))
}

/// One class trie, frozen or pending, checked against its class: the
/// class's width as its depth and its posting slots inside the
/// `seen.len()`-graph class, each marked in `seen`. Returns its entry
/// count.
fn validate_trie(trie: &FlatTrie, width: usize, seen: &mut [bool]) -> Result<usize, String> {
    if trie.depth() != width {
        return Err(format!("trie depth {} != class width {width}", trie.depth()));
    }
    let class = seen.len();
    for &slot in trie.postings() {
        match seen.get_mut(slot.index()) {
            Some(s) => *s = true,
            None => {
                return Err(format!("trie posting slot {slot} exceeds the {class}-graph class"))
            }
        }
    }
    Ok(trie.len())
}

/// All deduplicated, normalized label vectors of one graph for one
/// feature structure, row-major. A reusable scratch: one value serves
/// every graph of a build or insert, so no entry owns an allocation.
#[derive(Default)]
struct GraphEntries {
    /// The matcher's state for the admitted embeddings.
    admit: AdmitScratch,
    /// `count` rows of the class's width.
    labels: Vec<Label>,
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
/// `table` if so. Stands in for a hash set of owned vectors: the keys
/// stay in the matrix.
fn is_new_row(table: &mut Vec<u32>, rows: &[Label], width: usize, count: usize) -> bool {
    let row = |r: usize| &rows[r * width..(r + 1) * width];
    let slot_of = |r: usize, len: usize| {
        let mut hasher = FxHasher::default();
        row(r).iter().for_each(|x| hasher.write_u64(u64::from(x.0)));
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
                if row(r as usize - 1) == row(count) {
                    return false;
                }
            }
        }
        slot = (slot + 1) & (len - 1);
    }
}

/// Reads every normalized vector of one feature's occurrences in a
/// graph into `out`, each once — the unit of work shared by bulk build
/// and incremental insertion. The matcher visits one embedding per
/// occurrence ([`Symmetry::for_each_admitted`]); its vector is read and
/// the occurrence's other readings follow by the symmetry's slot
/// permutations, so the rows are those of every embedding read and
/// deduplicated. A reading already held brings nothing new: the rows
/// held are closed under the permutations, so its whole orbit is
/// there. A permutation that leaves the reading as it is adds nothing
/// either, and is dropped before it is hashed. A 0-wide class keeps one
/// empty row per containing graph, so the first embedding settles it
/// and the enumeration stops there.
fn collect_graph_entries(
    structure: &LabeledGraph,
    symmetry: &Symmetry,
    g: &LabeledGraph,
    distance: &IndexDistance,
    out: &mut GraphEntries,
) {
    out.labels.clear();
    out.count = 0;
    if g.vertex_count() < structure.vertex_count() || g.edge_count() < structure.edge_count() {
        return;
    }
    let width = distance.class_width(structure);
    out.table.clear();
    let GraphEntries { admit, labels, count, table } = out;
    symmetry.for_each_admitted(structure, g, admit, |emb| {
        if width == 0 {
            *count = 1;
            return ControlFlow::Break(());
        }
        // Read the vector in place after the rows kept so far and
        // normalize it, so equivalent entries merge up front; a repeat is
        // cut off again.
        let read = labels.len();
        distance.read_vector(structure, g, emb, labels);
        if !is_new_row(table, labels, width, *count) {
            labels.truncate(read);
            return ControlFlow::Continue(());
        }
        *count += 1;
        for perm in symmetry.permutations() {
            let start = labels.len();
            for &s in perm {
                labels.push(labels[read + s as usize]);
            }
            if labels[start..] != labels[read..read + width]
                && is_new_row(table, labels, width, *count)
            {
                *count += 1;
            } else {
                labels.truncate(start);
            }
        }
        ControlFlow::Continue(())
    });
}

/// The rows of one class in database order, before they are frozen
/// into the class's trie: row-major label vectors and, beside each row,
/// the graph it was read from. Covers a contiguous range of graphs, or
/// — joined in range order — the whole database.
#[derive(Default)]
struct ClassRows {
    labels: Vec<Label>,
    row_graphs: Vec<GraphId>,
}

impl ClassRows {
    /// Joins one class's blocks (`blocks[range][class]`) in range order.
    fn concat(blocks: &[Vec<ClassRows>], class: usize) -> ClassRows {
        let parts = || blocks.iter().map(|block| &block[class]);
        let mut all = ClassRows {
            labels: Vec::with_capacity(parts().map(|p| p.labels.len()).sum()),
            row_graphs: Vec::with_capacity(parts().map(|p| p.row_graphs.len()).sum()),
        };
        for part in parts() {
            all.labels.extend_from_slice(&part.labels);
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
    symmetry: &Symmetry,
    distance: &IndexDistance,
    entries: &mut GraphEntries,
) -> ClassRows {
    let mut rows = ClassRows::default();
    for (i, g) in graphs.iter().enumerate() {
        collect_graph_entries(structure, symmetry, g, distance, entries);
        rows.labels.extend_from_slice(&entries.labels);
        rows.row_graphs.extend(std::iter::repeat_n(GraphId((first + i) as u32), entries.count));
    }
    rows
}

/// Each feature's [`Symmetry`], in feature order.
pub(crate) fn symmetries(features: &FeatureSet) -> Vec<Symmetry> {
    features.iter().map(|f| Symmetry::of(&f.structure)).collect()
}

/// Builds one class's rows of graphs new to it (in graph order: the
/// whole database at build, an inserted run after it) into a trie of
/// the class's width, appending the graphs to the class's posting list
/// `graphs`.
fn class_trie(
    ClassRows { labels, row_graphs }: ClassRows,
    structure: &LabeledGraph,
    distance: &IndexDistance,
    graphs: &mut Vec<GraphId>,
) -> FlatTrie {
    debug_assert!(row_graphs.is_sorted(), "class rows are in graph order");
    let postings = post_rows(&row_graphs, graphs);
    FlatTrie::from_rows(distance.class_width(structure), labels, postings)
}

/// Appends the distinct graphs of `row_graphs` (ascending, and past the
/// last of `graphs`) to the posting list `graphs`, returning each row's
/// class-local slot in it — the trie's postings, so range queries fold
/// into a compact per-class row (see `range_query_row`). Slots ascend
/// with the ids, so a trie's entry order is the same either way.
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
    use pis_distance::oracle::{embeddings_brute, min_superimposed_distance_brute};
    use pis_distance::ScoreMatrix;
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::iso::IsoConfig;
    use pis_graph::util::FxHashMap;
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

    /// Fragment `i` of a mutation-distance index as a standalone graph
    /// — its label vector in the feature's canonical layout, edge slots
    /// then vertex slots: what the oracle measures a range query from.
    fn fragment_graph(index: &FragmentIndex, frags: &FragmentBuffer, i: usize) -> LabeledGraph {
        let feature = &index.features().get(frags.feature(i)).structure;
        let v = frags.vector(i).labels();
        let mut b = GraphBuilder::new();
        for k in 0..feature.vertex_count() {
            b.add_vertex(VertexAttr::labeled(v[feature.edge_count() + k]));
        }
        for (j, e) in feature.edges().iter().enumerate() {
            b.add_edge(e.source, e.target, EdgeAttr::labeled(v[j])).unwrap();
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

    /// Under the linear distance a class is its posting list, frozen
    /// or pending: every probe's minima row is `0.0` on exactly
    /// `class_graphs(feature)` and its hit set is that whole list, at
    /// any σ, with a tally of `0.0` per hit.
    #[test]
    fn linear_rows_are_zero_on_the_posting_list() {
        let mk = |ws: [f64; 2]| {
            let mut b = GraphBuilder::new();
            let vs = b.add_vertices(3, VertexAttr::labeled(Label(0)));
            b.add_edge(vs[0], vs[1], EdgeAttr { label: Label(0), weight: ws[0] }).unwrap();
            b.add_edge(vs[1], vs[2], EdgeAttr { label: Label(0), weight: ws[1] }).unwrap();
            b.build()
        };
        let db =
            vec![mk([1.0, 2.0]), mk([1.1, 2.2]), mk([9.0, 9.0]), path_graph(2, Label(0), Label(0))];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 2);
        let ld = IndexDistance::Linear(LinearDistance::edges_only());
        let bulk = FragmentIndex::build(&db, features.clone(), ld.clone(), &IndexConfig::default());
        let mut pending = FragmentIndex::build(&db[..1], features, ld, &IndexConfig::default());
        pending.insert_graphs_pending(&db[1..]);
        assert!(pending.pending_entries() > 0, "the inserted graphs stay pending");
        let frags = fragments(&bulk, &mk([1.0, 2.0]));
        assert!(frags.len() > 2, "the query holds both classes, one of them twice");
        let mut scratch = RangeScratch::new();
        let mut row = Vec::new();
        for index in [&bulk, &pending] {
            for f in index.features().iter() {
                // One empty row per graph holding the structure.
                let graphs = index.class_graphs(f.id);
                let holding: Vec<GraphId> = (0..db.len())
                    .filter(|&g| {
                        pis_graph::iso::is_subgraph(&f.structure, &db[g], IsoConfig::STRUCTURE)
                    })
                    .map(|g| GraphId(g as u32))
                    .collect();
                assert_eq!(graphs, holding.as_slice());
                assert_eq!(index.classes[f.id.index()].entries, graphs.len());
            }
            for i in 0..frags.len() {
                let (feature, probe) = (frags.feature(i), frags.vector(i));
                assert!(probe.is_empty(), "a linear class is 0 wide");
                let graphs = index.class_graphs(feature);
                assert!(!graphs.is_empty());
                for sigma in [0.0, 0.5, 4.0] {
                    let budget = BudgetState::unlimited();
                    assert!(index.range_query_row(
                        feature,
                        probe,
                        sigma,
                        &mut scratch,
                        budget,
                        &mut row
                    ));
                    assert!(row.len() == graphs.len() && row.iter().all(|d| d.to_bits() == 0));
                    let tally = index
                        .range_query_hits(feature, probe, sigma, sigma, &mut scratch, budget)
                        .unwrap();
                    assert_eq!((tally.hits(), tally.matched().to_bits()), (graphs.len(), 0));
                    let hit_bits: Vec<bool> = (0..64 * scratch.hits().len())
                        .map(|k| scratch.hits()[k / 64] >> (k % 64) & 1 == 1)
                        .collect();
                    assert!(hit_bits.iter().enumerate().all(|(k, &hit)| hit == (k < graphs.len())));
                    let listed: Vec<(GraphId, f64)> = graphs.iter().map(|&g| (g, 0.0)).collect();
                    assert_eq!(range_hits(index, &frags, i, sigma), listed);
                }
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

    /// An occurrence of a structure in a target, as `(sorted vertex
    /// images, sorted edge images)`, and one embedding's normalized
    /// reading of it.
    type Reading = ((Vec<u32>, Vec<u32>), Vec<Label>);

    /// Every embedding of `structure` into `g` from the definition
    /// (`embeddings_brute`, which shares no code with the matcher), each
    /// read off the target by hand — edge labels in edge order, then
    /// vertex labels — and normalized for `distance`.
    fn brute_readings(
        structure: &LabeledGraph,
        g: &LabeledGraph,
        distance: &IndexDistance,
    ) -> Vec<Reading> {
        embeddings_brute(structure, g, IsoConfig::STRUCTURE)
            .into_iter()
            .map(|map| {
                let edge = |e: &pis_graph::Edge| {
                    g.edge_between(map[e.source.index()], map[e.target.index()]).unwrap()
                };
                let mut vertices: Vec<u32> = map.iter().map(|v| v.0).collect();
                let mut edges: Vec<u32> = structure.edges().iter().map(|e| edge(e).0).collect();
                vertices.sort_unstable();
                edges.sort_unstable();
                let mut v = Vec::new();
                if distance.is_mutation() {
                    v.extend(structure.edges().iter().map(|e| g.edge(edge(e)).attr.label));
                    v.extend(map.iter().map(|&t| g.vertex(t).label));
                    distance.normalize_labels(structure.edge_count(), &mut v);
                }
                ((vertices, edges), v)
            })
            .collect()
    }

    /// Seeded molecules plus graphs whose every structure is highly
    /// symmetric (rings, a clique, a star), labels varied.
    fn symmetric_db(seed: u64, n: usize) -> Vec<LabeledGraph> {
        let mut db = MoleculeGenerator::new(MoleculeConfig::default()).database(n, seed);
        db.push(cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]));
        db.push(cycle_with_edge_labels(&[0, 0, 0, 0, 0]));
        db.push(pis_graph::graph::complete_graph(5, Label(1), Label(2)));
        db.push(pis_graph::graph::star_graph(5, Label(0), Label(3)));
        db
    }

    /// The index's entries equal the definition: per class, frozen and
    /// pending, every `(graph, vector)` of a brute-force reading of
    /// every embedding (read, normalize, dedup, sort) — under a distance
    /// that erases vertex slots, one that keeps them, and the linear
    /// distance's 0-wide classes.
    #[test]
    fn entries_equal_a_brute_reading_of_every_embedding() {
        for seed in [3, 17, 29] {
            let db = symmetric_db(seed, 30);
            let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
            let features = exhaustive_features(&structures, 4);
            for distance in [
                IndexDistance::Mutation(MutationDistance::edge_hamming()),
                IndexDistance::Mutation(MutationDistance::unit()),
                IndexDistance::Linear(LinearDistance::edges_only()),
            ] {
                // The last graphs are inserted one run at a time, so some
                // of their entries stay pending.
                let mut index = FragmentIndex::build(
                    &db[..db.len() - 8],
                    features.clone(),
                    distance.clone(),
                    &IndexConfig::default(),
                );
                index.insert_graphs_pending(&db[db.len() - 8..db.len() - 4]);
                for g in &db[db.len() - 4..] {
                    index.insert_graph_pending(g);
                }
                assert!(index.pending_entries() > 0, "seed {seed}: some entries stay pending");
                for f in index.features().iter() {
                    let class = &index.classes[f.id.index()];
                    let mut stored: Vec<(GraphId, Vec<Label>)> = Vec::new();
                    for trie in class.tries() {
                        trie.for_each_entry(|seq, slot| {
                            stored.push((class.graphs[slot.index()], seq.to_vec()));
                        });
                    }
                    stored.sort_unstable();
                    let mut brute: Vec<(GraphId, Vec<Label>)> = db
                        .iter()
                        .enumerate()
                        .flat_map(|(gi, g)| {
                            brute_readings(&f.structure, g, &distance)
                                .into_iter()
                                .map(move |(_, v)| (GraphId(gi as u32), v))
                        })
                        .collect();
                    brute.sort_unstable();
                    brute.dedup();
                    assert_eq!(stored, brute, "seed {seed} {distance:?} feature {}", f.id);
                }
            }
        }
    }

    /// The query's fragments equal the definition: as
    /// `(feature, vertex set, edge set)`, one per occurrence of a
    /// brute-force enumeration, in feature order, each vector the least
    /// of its occurrence's readings. The fragments' edge sets are those
    /// of the embeddings the symmetry admits, visited again in the
    /// enumeration's order.
    #[test]
    fn fragments_are_occurrences_with_their_least_readings() {
        for seed in [5, 11] {
            let db = symmetric_db(seed, 12);
            let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
            let features = exhaustive_features(&structures, 4);
            let mut queries = pis_datasets::sample_query_set(&db, 7, 3, seed);
            queries.extend(db[db.len() - 4..].iter().cloned());
            for distance in [
                IndexDistance::Mutation(MutationDistance::edge_hamming()),
                IndexDistance::Mutation(MutationDistance::unit()),
                IndexDistance::Linear(LinearDistance::edges_only()),
            ] {
                let index =
                    FragmentIndex::build(&db, features.clone(), distance, &IndexConfig::default());
                for query in &queries {
                    let frags = fragments(&index, query);
                    let mut i = 0;
                    for (f, symmetry) in index.features().iter().zip(&index.symmetry) {
                        let mut least: FxHashMap<(Vec<u32>, Vec<u32>), Vec<Label>> =
                            FxHashMap::default();
                        for (key, v) in brute_readings(&f.structure, query, index.distance()) {
                            let entry = least.entry(key).or_insert_with(|| v.clone());
                            if v < *entry {
                                *entry = v;
                            }
                        }
                        let mut admitted = Vec::new();
                        let mut scratch = AdmitScratch::default();
                        symmetry.for_each_admitted(&f.structure, query, &mut scratch, |emb| {
                            let mut edges: Vec<u32> = f
                                .structure
                                .edge_ids()
                                .map(|e| emb.edge_image(&f.structure, query, e).0)
                                .collect();
                            edges.sort_unstable();
                            admitted.push(edges);
                            ControlFlow::Continue(())
                        });
                        assert_eq!(admitted.len(), least.len(), "one per occurrence");
                        for edges in admitted {
                            assert_eq!(frags.feature(i), f.id);
                            let vertices: Vec<u32> =
                                frags.vertices(i).iter().map(|v| v.0).collect();
                            let v = least
                                .remove(&(vertices, edges))
                                .expect("an occurrence, and only once");
                            assert_eq!(frags.vector(i).labels(), v.as_slice(), "fragment {i}");
                            i += 1;
                        }
                    }
                    assert_eq!(i, frags.len(), "no fragment beyond the occurrences");
                }
            }
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
                let (dd, ss) = class.frozen.leaf_kinds();
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
        for (name, distance) in [("mutation", &md), ("linear", &ld)] {
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
    fn incremental_insert_equals_bulk_build_linear() {
        // Weighted molecules: a linear class holds one entry per graph,
        // so 80 inserted graphs take the common classes past the merge
        // threshold and leave the rare ones pending.
        let db = MoleculeGenerator::new(MoleculeConfig { weighted: true, ..Default::default() })
            .database(100, 11);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let ld = IndexDistance::Linear(LinearDistance::edges_only());
        let mut incremental =
            FragmentIndex::build(&db[..20], features.clone(), ld.clone(), &IndexConfig::default());
        for g in &db[20..] {
            incremental.insert_graph_pending(g);
        }
        assert!(incremental.merge_stats().merges > 0, "some class crossed the threshold");
        assert!(incremental.pending_entries() > 0, "some class stayed pending");
        let frags = fragments(&incremental, &db[3]);
        let bulk = FragmentIndex::build(&db, features, ld, &IndexConfig::default());
        for i in 0..frags.len() {
            for sigma in [0.0, 0.5, 2.0] {
                assert_eq!(
                    range_hits(&incremental, &frags, i, sigma),
                    range_hits(&bulk, &frags, i, sigma),
                    "sigma {sigma}"
                );
            }
        }
        // The trie layout depends only on the entries, so the compacted
        // store is the bulk build, byte for byte.
        incremental.compact();
        assert!(
            crate::encode_snapshot(&incremental, &db).unwrap()
                == crate::encode_snapshot(&bulk, &db).unwrap(),
            "compacted incremental store differs from the bulk build"
        );
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

    /// Class `ci`'s width: its tries' depth.
    fn class_width(index: &FragmentIndex, ci: usize) -> usize {
        index.distance.class_width(&index.features.get(FeatureId(ci as u32)).structure)
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

        // The pending trie passes the frozen trie's checks, with the
        // class named: the class's width as depth ...
        let mut bad = build_md(&db, 3);
        let ci = full_class(&bad);
        bad.classes[ci].pending = Some(FlatTrie::from_rows(1, vec![Label(1)], vec![GraphId(0)]));
        bad.classes[ci].entries += 1;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with(&format!("class {ci}: pending trie depth 1 != ")), "{err}");

        // ... and its posting slots inside the class, on a mutation
        // class and on a 0-wide linear one alike.
        for mut bad in [build_md(&db, 3), build_ld(&db, 3)] {
            let ci = full_class(&bad);
            let width = class_width(&bad, ci);
            let past = GraphId(bad.classes[ci].graphs.len() as u32);
            bad.classes[ci].pending =
                Some(FlatTrie::from_rows(width, vec![Label(1); width], vec![past]));
            bad.classes[ci].entries += 1;
            let err = bad.validate().unwrap_err();
            assert_eq!(
                err,
                format!(
                    "class {ci}: pending trie posting slot {past} exceeds the {}-graph class",
                    past.0
                )
            );
        }
    }

    #[test]
    fn validate_rejects_mismatched_backend() {
        let db = small_db();
        let mut bad = build_md(&db, 3);
        // Swap the distance out from under mutation-distance classes:
        // their tries are deeper than a 0-wide linear class.
        bad.distance = IndexDistance::Linear(LinearDistance::edges_only());
        assert!(bad.validate().unwrap_err().contains("!= class width 0"));
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
                let v = frags.vector(i).labels();
                let mut again = v.to_vec();
                index.distance().normalize_labels(ecount, &mut again);
                assert_eq!(again, v, "probe {i}");
            }
        }
    }
}
