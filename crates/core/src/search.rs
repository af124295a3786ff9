//! Partition-based search — Algorithm 2 of the paper.
//!
//! For a query `Q` and threshold `σ`:
//!
//! 1. enumerate the indexed fragments of `Q` (lines 3–4);
//! 2. per fragment, one index range query yields
//!    `T = {G : d(g, G) ≤ σ}` as a bit set, folded where it was
//!    computed, together with the fragment's selectivity `w(g)`
//!    (line 18); the sets are ANDed into `CQ` (structure and distance
//!    violators go, lines 6–17);
//! 3. fragments with `w(g) ≤ ε` are dropped (line 5 — evaluated here
//!    because `w` is only known after the range queries; see `DESIGN.md` §2.4);
//! 4. the overlapping-relation graph is built and a maximum-selectivity
//!    partition selected by MWIS (lines 19–20);
//! 5. every remaining graph whose partition lower bound
//!    `Σ_{g ∈ P} d(g, G)` exceeds `σ` is pruned (lines 21–23) — the
//!    partition members are the only fragments whose per-graph
//!    distances the search computes;
//! 6. optionally, survivors are verified with the branch-and-bound
//!    matcher (step 3 of the PIS framework).
//!
//! # Performance (`DESIGN.md` §6)
//!
//! The funnel is engineered around three ideas:
//!
//! * **dense state** — a range query's hits stay the bits the index
//!   folded them into, class-local, and are never copied into lists;
//!   the weight comes from the fold's per-cost hit counts. The
//!   candidate set is a [`GraphBitSet`] (one bit per database graph;
//!   intersections are word-parallel `AND`s) that starts as the whole
//!   database. Only the ≈ 3 partition members get a minima row, one
//!   after another in one reused buffer, and the partition lower bound
//!   accumulates in a generation-stamped per-graph array, so step 5
//!   sweeps those rows instead of binary-searching per candidate;
//! * **reuse** — all of that state lives in a [`SearchScratch`] that
//!   callers of [`PisSearcher::search`] and [`PisSearcher::knn`] (whose
//!   radius doubling re-runs the funnel) thread through repeated
//!   searches. In steady state the descent, the candidate bookkeeping,
//!   fragment enumeration (the scratch-owned arena-backed
//!   `FragmentBuffer`), the partition members' row, the partition
//!   stage — where `Q̃` rebuilds in place through a `PartitionScratch`
//!   and the mask-native MWIS solvers fill a reused selection buffer
//!   (`DESIGN.md` §6.6) — and the verifier allocate nothing; what does
//!   allocate, per search, is what the per-item phases hand back: each
//!   sibling group's weights and `CQ` set, and one result per checked
//!   or verified candidate;
//! * **deduplication** — automorphic query fragments produce identical
//!   `(feature, vector)` probes; each unique probe runs one range query
//!   (memoized in the scratch). Probes of one feature form a sibling
//!   group, the range phase's unit of work, which descends its probes
//!   one after another and ANDs their hit sets.
//!
//! The three per-item phases — range queries per sibling group, the
//! structure check and verification per candidate — each make one
//! [`ScopedPool`] call, which alone decides whether they run serially
//! or share the items out across the cores; the calling thread works
//! in the scratch's own state either way.
//!
//! The tests hold the funnel to brute-force oracles, not to a second
//! pipeline (`tests/proptest_funnel.rs`): answers equal `naive_scan`,
//! answer distances equal `min_superimposed_distance_brute` to the bit,
//! candidates cover the answers and pass every probe's brute range
//! check, and the stage counters shrink monotonically.

use pis_distance::SuperimposedDistance;
use pis_graph::budget::{BudgetState, BudgetStats};
use pis_graph::util::FxHashMap;
use pis_graph::{GraphBitSet, GraphId, LabeledGraph, ScopedPool};
use pis_index::{
    row_hits, FragmentBuffer, FragmentIndex, FragmentVectorRef, IndexDistance, RangeScratch,
};
use pis_partition::{
    enhanced_greedy_mwis_with, exact_mwis_budgeted_with, greedy_mwis_with, selection_weight,
    OverlapGraph, PartitionScratch, EXACT_MWIS_MAX_NODES,
};

use crate::config::{
    PartitionAlgo, PisConfig, DEFAULT_PARALLEL_FRAGMENT_THRESHOLD,
    DEFAULT_PARALLEL_VERIFY_THRESHOLD,
};
use crate::error::{validate_query, validate_sigma, QueryError};
use crate::selectivity::selectivity_of;
use crate::verify::VerifyScratch;

/// One fragment chosen into the partition (for explain output).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionFragment {
    /// The fragment's equivalence class.
    pub feature: pis_mining::FeatureId,
    /// Number of query vertices it covers.
    pub vertices: usize,
    /// Its selectivity `w(g)`.
    pub weight: f64,
}

/// Counters exposing every intermediate stage (the quantities plotted in
/// Figures 8–12).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Indexed fragments enumerated from the query (deduplicated).
    pub query_fragments: usize,
    /// Fragments surviving the `ε` selectivity filter.
    pub fragments_in_pool: usize,
    /// Fragments chosen into the partition.
    pub partition_size: usize,
    /// Total selectivity of the partition (the MWIS objective).
    pub partition_weight: f64,
    /// `|CQ|` after per-fragment intersection (structure + distance
    /// violations).
    pub candidates_after_intersection: usize,
    /// `|CQ|` after partition lower-bound pruning — the paper's `Yp`
    /// input.
    pub candidates_after_partition: usize,
    /// Candidates surviving the exact structure check (equals
    /// `candidates_after_partition` when the check is disabled).
    pub candidates_after_structure: usize,
    /// Verification calls performed: candidates that reached the
    /// verifier (all of them on an exact search).
    pub verification_calls: usize,
    /// Whether [`PartitionAlgo::Exact`] was demoted to
    /// `EnhancedGreedy(2)` because the fragment pool exceeded the exact
    /// solver's node cap ([`EXACT_MWIS_MAX_NODES`]).
    pub exact_fallback: bool,
    /// The chosen partition's members (explain output).
    pub partition: Vec<PartitionFragment>,
}

/// The funnel phase in which a query budget first reported exhaustion:
/// the checkpoint site that tripped first.
pub use pis_graph::budget::CheckpointSite as TruncationPhase;

/// Whether a search ran to completion or was cut short by its
/// budget ([`PisConfig::budget`]).
///
/// Truncated results stay *sound*: every reported answer is verified,
/// and nothing is silently dropped — candidates whose verification was
/// interrupted are returned separately
/// ([`SearchOutcome::possible`]), and pruning under an exhausted budget
/// only ever widens the candidate superset, never narrows it.
#[derive(Clone, Debug, PartialEq)]
pub enum Completeness {
    /// The full algorithm ran; results are exact.
    Exact,
    /// The budget tripped; results are best-effort (verified answers
    /// plus unverified survivors).
    Truncated {
        /// The phase in which the budget first tripped.
        phase: TruncationPhase,
        /// Checkpoint counters at the end of the query.
        stats: BudgetStats,
    },
}

impl Completeness {
    /// Whether the search ran to completion.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }

    /// Reads the completeness of a finished query off its budget state.
    pub(crate) fn of_state(budget: &BudgetState) -> Completeness {
        match budget.trip_site() {
            None => Completeness::Exact,
            Some(phase) => Completeness::Truncated { phase, stats: budget.stats() },
        }
    }
}

/// Result of one PIS search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// `CQ`: candidate answer set after all pruning, sorted by id.
    pub candidates: Vec<GraphId>,
    /// Verified answers (empty when verification is disabled).
    pub answers: Vec<GraphId>,
    /// Exact minimum superimposed distance of each answer, parallel to
    /// `answers` (free — verification computes it anyway).
    pub answer_distances: Vec<f64>,
    /// Candidates whose verification the budget interrupted: none is
    /// disproved, any might be an answer. Empty on an
    /// [`Exact`](Completeness::Exact) search. Together,
    /// `answers ∪ possible` is a superset of the exact answer set.
    pub possible: Vec<GraphId>,
    /// Whether the search ran to completion.
    pub completeness: Completeness,
    /// Stage counters.
    pub stats: SearchStats,
}

/// Reusable state for the optimized candidate funnel.
///
/// One scratch serves any number of sequential searches (it re-sizes to
/// the database on every call); after warm-up its buffers — fragment
/// enumeration's arena-backed [`FragmentBuffer`] and the one minima row
/// included — are reused, and a search allocates only what its
/// per-item phases hand back (one weight list and `CQ` set per sibling
/// group, one result per checked or verified candidate) and the
/// returned [`SearchOutcome`]. Scratches are independent — one per
/// thread for concurrent searches.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Arena-backed store for the query's enumerated fragments.
    fragments: FragmentBuffer,
    /// Range-query descent state (the calling thread's, across the
    /// whole search).
    range: RangeScratch,
    /// The calling thread's sibling-group hit set: its probes' hit sets
    /// ANDed, class-local.
    group_hits: Vec<u64>,
    /// One partition member's minima row, re-filled per member — the
    /// only per-graph distances the funnel computes.
    row: Vec<f64>,
    /// The live candidate set `CQ`.
    candidates: GraphBitSet,
    /// Partition lower-bound accumulator, stamped by `generation`.
    bound: Vec<f64>,
    /// How many partition fragments contained each graph, same stamp.
    seen_in: Vec<u32>,
    /// Generation stamp validating `bound`/`seen_in` slots.
    stamp: Vec<u64>,
    generation: u64,
    /// Memo of unique `(feature, vector)` probes → slot index.
    memo: FxHashMap<Vec<u64>, usize>,
    /// Reusable probe-key assembly buffer.
    key_buf: Vec<u64>,
    /// Per-slot selectivity `w(g)` (a placeholder on incomplete slots).
    weights: Vec<f64>,
    /// Per-fragment slot assignment.
    slot_of: Vec<usize>,
    /// Fragment index that first produced each slot.
    unique_fragment: Vec<usize>,
    /// Whether each slot's range query ran to completion under the
    /// query budget. An incomplete slot must not prune (its true hit
    /// set is unknown): it neither shrinks `candidates` nor gets a
    /// weight, and is excluded from the fragment pool.
    slot_complete: Vec<bool>,
    /// The final candidate list of the last search, ascending.
    cand_buf: Vec<GraphId>,
    /// Partition-stage lower bound of each final candidate, parallel to
    /// `cand_buf` (0 when the partition is empty). `knn` orders its
    /// verifications cheapest-first by these.
    cand_lb: Vec<f64>,
    /// Verifier state: match plan, adjacency bitset, DFS buffers and
    /// remaining-cost tables, amortized across every candidate of every
    /// search through this scratch.
    verify: VerifyScratch,
    /// Fragment indices surviving the ε selectivity filter (the pool).
    pool: Vec<usize>,
    /// The overlapping-relation graph `Q̃`, rebuilt in place per search.
    overlap: OverlapGraph,
    /// Working memory for `Q̃` construction and the MWIS solvers.
    partition: PartitionScratch,
    /// MWIS output buffer (indices into `pool`).
    selection: Vec<usize>,
}

impl SearchScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Candidates produced by the last `search_into` (sorted by id).
    pub(crate) fn candidates(&self) -> &[GraphId] {
        &self.cand_buf
    }

    /// Partition lower bounds parallel to
    /// [`SearchScratch::candidates`].
    pub(crate) fn candidate_bounds(&self) -> &[f64] {
        &self.cand_lb
    }

    /// The verifier scratch folded into this search scratch (`knn`
    /// drives per-candidate verification through it directly).
    pub(crate) fn verify_scratch(&mut self) -> &mut VerifyScratch {
        &mut self.verify
    }

    /// Prepares for a search over `n` database graphs: `CQ` starts as
    /// the whole database.
    fn begin(&mut self, n: usize) {
        self.candidates.reset(n);
        self.candidates.fill();
        if self.bound.len() < n {
            self.bound.resize(n, 0.0);
            self.seen_in.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.memo.clear();
        self.weights.clear();
        self.slot_of.clear();
        self.unique_fragment.clear();
        self.slot_complete.clear();
        self.cand_buf.clear();
        self.cand_lb.clear();
        self.pool.clear();
        self.selection.clear();
    }

    /// Maps a fragment to its unique-probe slot, allocating a new slot
    /// for first-seen `(feature, vector)` pairs.
    fn assign_slot(
        &mut self,
        fragment_idx: usize,
        feature: pis_mining::FeatureId,
        vector: FragmentVectorRef<'_>,
    ) {
        self.key_buf.clear();
        self.key_buf.push(feature.0 as u64);
        match vector {
            FragmentVectorRef::Labels(v) => self.key_buf.extend(v.iter().map(|l| l.0 as u64)),
            FragmentVectorRef::Weights(v) => self.key_buf.extend(v.iter().map(|w| w.to_bits())),
        }
        let slot = match self.memo.get(&self.key_buf) {
            Some(&s) => s,
            None => {
                let s = self.unique_fragment.len();
                self.memo.insert(self.key_buf.clone(), s);
                self.unique_fragment.push(fragment_idx);
                // Placeholders until the slot's group is answered; an
                // incomplete slot keeps them and never reads them.
                self.weights.push(0.0);
                self.slot_complete.push(false);
                s
            }
        };
        self.slot_of.push(slot);
    }
}

/// The PIS search pipeline bound to an index and its database.
pub struct PisSearcher<'a> {
    index: &'a FragmentIndex,
    database: &'a [LabeledGraph],
    config: PisConfig,
}

impl<'a> PisSearcher<'a> {
    /// Binds a searcher to an index and the database it was built from.
    ///
    /// # Panics
    /// Panics if `database.len()` differs from the index's graph count.
    pub fn new(index: &'a FragmentIndex, database: &'a [LabeledGraph], config: PisConfig) -> Self {
        assert_eq!(
            database.len(),
            index.graph_count(),
            "database does not match the index it claims to back"
        );
        PisSearcher { index, database, config }
    }

    /// The searcher's configuration.
    pub fn config(&self) -> &PisConfig {
        &self.config
    }

    /// The fragment index this searcher queries.
    pub fn index(&self) -> &FragmentIndex {
        self.index
    }

    /// The database this searcher verifies against.
    pub fn database(&self) -> &[LabeledGraph] {
        self.database
    }

    /// Answers one SSSD query (Definition 2): Algorithm 2, then the
    /// structure check and verification if configured.
    ///
    /// `sigma` must be finite and non-negative and the query's weights
    /// finite, or the call returns a [`QueryError`] before any work
    /// runs. The search runs under a fresh budget from
    /// [`PisConfig::budget`]; when it trips, the outcome's
    /// [`SearchOutcome::completeness`] is
    /// [`Truncated`](Completeness::Truncated) and unverified survivors
    /// land in [`SearchOutcome::possible`]. Every internal buffer lives
    /// in `scratch`, so a caller issuing many searches holds one and
    /// passes it each time.
    pub fn search(
        &self,
        query: &LabeledGraph,
        sigma: f64,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QueryError> {
        validate_sigma(sigma)?;
        validate_query(query)?;
        let budget = BudgetState::new(&self.config.budget);
        let mut stats = self.search_into(query, sigma, scratch, &budget);
        let candidates = scratch.cand_buf.clone();
        let mut answers = Vec::new();
        let mut answer_distances = Vec::new();
        let mut possible = Vec::new();
        if self.config.verify {
            let calls = scratch.verify.stats().calls;
            let (resolved, unverified) =
                self.verify_candidates(query, &candidates, sigma, &mut scratch.verify, &budget);
            // Candidates the budget turned away never reached the
            // verifier and are not calls.
            stats.verification_calls = (scratch.verify.stats().calls - calls) as usize;
            for (gid, d) in resolved {
                answers.push(gid);
                answer_distances.push(d);
            }
            possible = unverified;
        }
        let completeness = Completeness::of_state(&budget);
        Ok(SearchOutcome { candidates, answers, answer_distances, possible, completeness, stats })
    }

    /// The pruning funnel (Algorithm 2 lines 3–23 plus the structure
    /// check): leaves the candidate list in `scratch` and returns the
    /// stage counters. Verification is the caller's business.
    ///
    /// Under an exhausted budget every stage degrades to a *sound
    /// superset*: incomplete range queries neither prune nor join the
    /// fragment pool, a tripped exact partition demotes to
    /// `EnhancedGreedy(2)`, and interrupted structure checks keep their
    /// candidate. The flow is deliberately linear — no early returns —
    /// so the fragment arena always returns to the scratch.
    pub(crate) fn search_into(
        &self,
        query: &LabeledGraph,
        sigma: f64,
        scratch: &mut SearchScratch,
        budget: &BudgetState,
    ) -> SearchStats {
        let n = self.database.len();
        let mut stats = SearchStats::default();

        // Lines 3–4: enumerate indexed fragments into the scratch-owned
        // arena (taken out for the duration of the borrow).
        let mut fragments = std::mem::take(&mut scratch.fragments);
        self.index.enumerate_query_fragments_into(query, &mut fragments);
        stats.query_fragments = fragments.len();

        // Lines 6–18: one range query per *unique* `(feature, vector)`
        // probe — automorphic fragments share the row and everything
        // read off it. `CQ` starts as the whole database (the
        // zero-fragment query — and the fully truncated one — keeps it)
        // and every completed probe's hit set is ANDed in as its row is
        // read out, together with its selectivity.
        scratch.begin(n);
        for i in 0..fragments.len() {
            scratch.assign_slot(i, fragments.feature(i), fragments.vector(i));
        }
        self.run_range_queries(&fragments, sigma, scratch, budget);
        stats.candidates_after_intersection = scratch.candidates.count();

        // Line 5: drop fragments with selectivity <= epsilon. Fragments
        // whose range query was cut short carry no trustworthy hits or
        // weight — partitioning on them would prune unsoundly, so they
        // never enter the pool.
        scratch.pool.clear();
        scratch.pool.extend((0..fragments.len()).filter(|&fi| {
            let slot = scratch.slot_of[fi];
            scratch.slot_complete[slot] && scratch.weights[slot] > self.config.epsilon
        }));
        stats.fragments_in_pool = scratch.pool.len();

        // Lines 19–20: overlapping-relation graph + MWIS partition. The
        // vertex sets are borrowed straight from the arena and `Q̃` is
        // rebuilt in place through the partition scratch, so in steady
        // state this whole stage allocates nothing.
        {
            let weights = &scratch.weights;
            let slot_of = &scratch.slot_of;
            scratch.overlap.rebuild_from_sets(
                &mut scratch.partition,
                scratch.pool.iter().map(|&fi| (weights[slot_of[fi]], fragments.vertices(fi))),
            );
        }
        let (algo, fell_back) = effective_partition_algo(self.config.partition, scratch.pool.len());
        stats.exact_fallback = fell_back;
        match algo {
            PartitionAlgo::Greedy => {
                greedy_mwis_with(&scratch.overlap, &mut scratch.partition, &mut scratch.selection);
            }
            PartitionAlgo::EnhancedGreedy(k) => enhanced_greedy_mwis_with(
                &scratch.overlap,
                k,
                &mut scratch.partition,
                &mut scratch.selection,
            ),
            PartitionAlgo::Exact => {
                let completed = exact_mwis_budgeted_with(
                    &scratch.overlap,
                    &mut scratch.partition,
                    &mut scratch.selection,
                    budget,
                );
                if !completed {
                    // Same demotion as the node-cap fallback: the
                    // incumbent of an interrupted branch-and-bound is
                    // not the optimum, so the polynomial greedy takes
                    // over and the stats flag it.
                    stats.exact_fallback = true;
                    enhanced_greedy_mwis_with(
                        &scratch.overlap,
                        EXACT_FALLBACK_K,
                        &mut scratch.partition,
                        &mut scratch.selection,
                    );
                }
            }
        }
        stats.partition_size = scratch.selection.len();
        stats.partition_weight = selection_weight(&scratch.overlap, &scratch.selection);

        // Lines 21–23: partition lower-bound pruning. Only the partition
        // members need per-graph distances: each re-runs its range query
        // into the one reused row, which streams, in partition order,
        // into a dense stamped accumulator; a candidate survives iff
        // every counted member contained it and the summed bound stays
        // within sigma.
        let partition: Vec<usize> = scratch.selection.iter().map(|&i| scratch.pool[i]).collect();
        stats.partition = partition
            .iter()
            .map(|&fi| PartitionFragment {
                feature: fragments.feature(fi),
                vertices: fragments.vertices(fi).len(),
                weight: scratch.weights[scratch.slot_of[fi]],
            })
            .collect();
        scratch.generation += 1;
        let generation = scratch.generation;
        let mut members = 0u32;
        for &fi in &partition {
            let (feature, probe) = (fragments.feature(fi), fragments.vector(fi));
            let row = &mut scratch.row;
            if !self.index.range_query_row(feature, probe, sigma, &mut scratch.range, budget, row) {
                // A member the budget cuts short leaves the bound: any
                // subset of a vertex-disjoint partition is still one
                // (Eq. 2), so the members counted still bound soundly.
                continue;
            }
            members += 1;
            for (g, d) in row_hits(self.index.class_graphs(feature), row) {
                if !scratch.candidates.contains(g) {
                    continue;
                }
                let i = g.index();
                if scratch.stamp[i] != generation {
                    scratch.stamp[i] = generation;
                    scratch.bound[i] = d;
                    scratch.seen_in[i] = 1;
                } else {
                    scratch.bound[i] += d;
                    scratch.seen_in[i] += 1;
                }
            }
        }
        for g in scratch.candidates.iter() {
            let i = g.index();
            let keep = members == 0
                || (scratch.stamp[i] == generation
                    && scratch.seen_in[i] == members
                    && scratch.bound[i] <= sigma);
            if keep {
                scratch.cand_buf.push(g);
                scratch.cand_lb.push(if members == 0 { 0.0 } else { scratch.bound[i] });
            }
        }
        stats.candidates_after_partition = scratch.cand_buf.len();

        // The gIndex substrate's exact containment test (the paper
        // builds PIS on gIndex, so its candidates are always
        // structure-containing graphs). The lower bounds stay in
        // lockstep with the surviving candidates. The query's match plan
        // is target-independent, so each check reuses the verify
        // scratch's plan, adjacency bitset and DFS buffers instead of
        // rebuilding them per candidate; large batches spread across the
        // pool like verification does (most checks are refutations,
        // which pay for a full DFS).
        if self.config.structure_check {
            scratch.verify.begin_query(query);
            let keep = ScopedPool::default().map_with(
                &scratch.cand_buf,
                DEFAULT_PARALLEL_VERIFY_THRESHOLD,
                &mut scratch.verify,
                || query_verifier(query),
                |verify, _, &gid| {
                    // A check the budget interrupts keeps its candidate —
                    // refutation needs a completed DFS.
                    budget.is_tripped()
                        || verify
                            .contains_structure_budgeted(query, &self.database[gid.index()], budget)
                            .unwrap_or(true)
                },
            );
            let mut kept = 0;
            for (i, keep) in keep.into_iter().enumerate() {
                if keep {
                    scratch.cand_buf[kept] = scratch.cand_buf[i];
                    scratch.cand_lb[kept] = scratch.cand_lb[i];
                    kept += 1;
                }
            }
            scratch.cand_buf.truncate(kept);
            scratch.cand_lb.truncate(kept);
        }
        stats.candidates_after_structure = scratch.cand_buf.len();
        scratch.fragments = fragments;
        stats
    }

    /// Runs the range queries of one search: unique probe slots are
    /// grouped into *sibling groups* — consecutive slots of the same
    /// feature (the enumeration is feature-major, so equal features are
    /// always adjacent) — and each group answers its probes one after
    /// another through [`FragmentIndex::range_query_hits`], which leaves
    /// each probe's hit set `T` as class-local bits and returns its
    /// tally, from which the selectivity follows ([`selectivity_of`]).
    /// No per-graph distance is computed: the group ANDs its probes'
    /// bits class-locally and scatters the result into a `CQ` set of
    /// its own once. The groups go through one pool call, which shares
    /// large probe sets out across the cores; their sets meet in `CQ`
    /// in group order.
    fn run_range_queries(
        &self,
        fragments: &FragmentBuffer,
        sigma: f64,
        scratch: &mut SearchScratch,
        budget: &BudgetState,
    ) {
        let n = self.database.len();
        let cutoff = self.config.lambda * sigma;
        let SearchScratch {
            range,
            group_hits,
            candidates,
            weights,
            unique_fragment,
            slot_complete,
            ..
        } = scratch;
        let unique_fragment = unique_fragment.as_slice();
        let groups = sibling_groups(fragments, unique_fragment);
        // The break-even counts probes and the pool counts groups: below
        // it, no group count reaches `min_parallel`.
        let min_parallel = if unique_fragment.len() >= DEFAULT_PARALLEL_FRAGMENT_THRESHOLD {
            2
        } else {
            usize::MAX
        };
        // The calling thread works in the scratch's descent state and
        // group set, moved out for the call and back after it.
        let mut state = (std::mem::take(range), std::mem::take(group_hits));
        // Answers the group of slots `s..e`: its weights and `CQ` set, or
        // nothing if the budget cut any of its descents short — a trip
        // on one probe invalidates the whole group.
        let answered = ScopedPool::default().map_with(
            &groups,
            min_parallel,
            &mut state,
            || (RangeScratch::new(), Vec::new()),
            |(range, group_hits), _, &(s, e)| {
                let feature = fragments.feature(unique_fragment[s]);
                let mut group_weights = Vec::with_capacity(e - s);
                for (k, &fi) in unique_fragment[s..e].iter().enumerate() {
                    let probe = fragments.vector(fi);
                    let tally = self
                        .index
                        .range_query_hits(feature, probe, sigma, cutoff, range, budget)?;
                    group_weights.push(selectivity_of(&tally, n));
                    if k == 0 {
                        group_hits.clear();
                        group_hits.extend_from_slice(range.hits());
                    } else {
                        group_hits.iter_mut().zip(range.hits()).for_each(|(a, &b)| *a &= b);
                    }
                }
                let cq = scatter(self.index.class_graphs(feature), group_hits, n);
                Some((group_weights, cq))
            },
        );
        (*range, *group_hits) = state;
        for (&(s, e), group) in groups.iter().zip(answered) {
            if let Some((group_weights, cq)) = group {
                weights[s..e].copy_from_slice(&group_weights);
                candidates.intersect_with(&cq);
                slot_complete[s..e].fill(true);
            }
        }
    }

    /// Verifies candidates with the bound-propagating verifier, in one
    /// pool call (shared out across the cores when the batch is large
    /// enough to amortize thread start-up). Results stay in candidate
    /// order; the calling thread verifies through `verify`, helpers
    /// through scratches of their own, and every candidate's phase
    /// counters land back in `verify`.
    ///
    /// Returns the verified `(graph, distance)` answers plus the
    /// candidates whose verification the budget interrupted (never
    /// disproved — the caller reports them as `possible`).
    pub(crate) fn verify_candidates(
        &self,
        query: &LabeledGraph,
        candidates: &[GraphId],
        sigma: f64,
        verify: &mut VerifyScratch,
        budget: &BudgetState,
    ) -> (Vec<(GraphId, f64)>, Vec<GraphId>) {
        // Dispatch on the concrete distance once per batch so the whole
        // branch-and-bound loop monomorphizes (per-element cost calls
        // inline) instead of paying virtual dispatch per DFS node.
        match self.index.distance() {
            IndexDistance::Mutation(md) => {
                self.verify_candidates_with(query, candidates, sigma, verify, md, budget)
            }
            IndexDistance::Linear(ld) => {
                self.verify_candidates_with(query, candidates, sigma, verify, ld, budget)
            }
        }
    }

    fn verify_candidates_with<D: SuperimposedDistance>(
        &self,
        query: &LabeledGraph,
        candidates: &[GraphId],
        sigma: f64,
        verify: &mut VerifyScratch,
        distance: &D,
        budget: &BudgetState,
    ) -> (Vec<(GraphId, f64)>, Vec<GraphId>) {
        verify.begin_query(query);
        let results = ScopedPool::default().map_with(
            candidates,
            DEFAULT_PARALLEL_VERIFY_THRESHOLD,
            verify,
            || query_verifier(query),
            |scratch, _, &gid| {
                // A trip observed before this candidate starts means its
                // DFS could never complete — skip straight to `possible`
                // instead of burning the checkpoint interval first.
                let d = if budget.is_tripped() {
                    Err(pis_graph::budget::Interrupted)
                } else {
                    scratch.distance_within_budgeted(
                        query,
                        &self.database[gid.index()],
                        distance,
                        sigma,
                        budget,
                    )
                };
                (d, scratch.take_stats())
            },
        );
        let mut out = Vec::new();
        let mut possible = Vec::new();
        for (&gid, (resolved, stats)) in candidates.iter().zip(results) {
            verify.absorb_stats(&stats);
            match resolved {
                Ok(Some(d)) => out.push((gid, d)),
                Ok(None) => {}
                Err(_) => possible.push(gid),
            }
        }
        (out, possible)
    }
}

/// A verifier scratch with `query`'s match plan built — a pool
/// helper's state in the structure check and verification.
pub(crate) fn query_verifier(query: &LabeledGraph) -> VerifyScratch {
    let mut verify = VerifyScratch::new();
    verify.begin_query(query);
    verify
}

/// The unique probe slots as maximal runs `[s, e)` of equal feature —
/// the sibling groups of the range-query phase. Fragment enumeration
/// is feature-major, so one linear scan finds every group.
fn sibling_groups(fragments: &FragmentBuffer, unique_fragment: &[usize]) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut s = 0;
    while s < unique_fragment.len() {
        let feature = fragments.feature(unique_fragment[s]);
        let mut e = s + 1;
        while e < unique_fragment.len() && fragments.feature(unique_fragment[e]) == feature {
            e += 1;
        }
        groups.push((s, e));
        s = e;
    }
    groups
}

/// The graphs a class-local bit set holds — bit `k` for `graphs[k]`,
/// as [`RangeScratch::hits`] lays them out — as a set over the `n`
/// database graphs.
fn scatter(graphs: &[GraphId], bits: &[u64], n: usize) -> GraphBitSet {
    let mut set = GraphBitSet::new(n);
    for (w, mut word) in bits.iter().copied().enumerate() {
        while word != 0 {
            set.insert(graphs[64 * w + word.trailing_zeros() as usize]);
            word &= word - 1;
        }
    }
    set
}

/// EnhancedGreedy order used when the exact solver's node cap forces a
/// fallback (the paper's evaluated approximation setting).
const EXACT_FALLBACK_K: usize = 2;

/// Resolves the configured partition algorithm against the fragment
/// pool size: [`PartitionAlgo::Exact`] above [`EXACT_MWIS_MAX_NODES`]
/// demotes to `EnhancedGreedy(2)` instead of panicking mid-search.
/// Returns the algorithm to run and whether a fallback happened.
fn effective_partition_algo(configured: PartitionAlgo, pool_len: usize) -> (PartitionAlgo, bool) {
    match configured {
        PartitionAlgo::Exact if pool_len > EXACT_MWIS_MAX_NODES => {
            (PartitionAlgo::EnhancedGreedy(EXACT_FALLBACK_K), true)
        }
        algo => (algo, false),
    }
}

/// Borrows the index distance as a trait object for verification.
pub(crate) fn distance_dyn(d: &IndexDistance) -> &dyn SuperimposedDistance {
    match d {
        IndexDistance::Mutation(md) => md,
        IndexDistance::Linear(ld) => ld,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_distance::oracle::{min_superimposed_distance_brute, sssd_brute};
    use pis_distance::MutationDistance;

    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};
    use pis_index::IndexConfig;
    use pis_mining::exhaustive::exhaustive_features;

    /// One search through a fresh scratch, for inputs known to be valid.
    fn search(searcher: &PisSearcher<'_>, query: &LabeledGraph, sigma: f64) -> SearchOutcome {
        searcher.search(query, sigma, &mut SearchScratch::new()).expect("valid query")
    }

    fn cycle_with_edge_labels(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    fn build_index(db: &[LabeledGraph], max_edges: usize) -> FragmentIndex {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, max_edges);
        FragmentIndex::build(
            db,
            features,
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        )
    }

    fn example_db() -> Vec<LabeledGraph> {
        vec![
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 2]),
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]),
            cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]),
            pis_graph::graph::path_graph(7, Label(0), Label(1)),
        ]
    }

    #[test]
    fn answers_match_brute_force_oracle() {
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let md = MutationDistance::edge_hamming();
        let queries = [
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]),
            cycle_with_edge_labels(&[2, 1, 1, 1, 1, 1]),
        ];
        for q in &queries {
            for sigma in [0.0, 1.0, 2.0, 4.0] {
                let outcome = search(&searcher, q, sigma);
                let expected: Vec<GraphId> =
                    sssd_brute(&db, q, &md, sigma).into_iter().map(|i| GraphId(i as u32)).collect();
                assert_eq!(outcome.answers, expected, "query mismatch at sigma={sigma}");
                // Soundness: candidates must cover every answer.
                for a in &expected {
                    assert!(outcome.candidates.contains(a), "candidate set lost answer {a}");
                }
            }
        }
    }

    #[test]
    fn optimized_funnel_equals_reference() {
        // The reference is the definition: answers and their distances
        // are the brute-force ones, bit for bit, through a reused scratch.
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let md = MutationDistance::edge_hamming();
        let mut scratch = SearchScratch::new();
        for q in [
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]),
        ] {
            for sigma in [0.0, 1.0, 2.0, 4.0] {
                let o = searcher.search(&q, sigma, &mut scratch).unwrap();
                let brute: Vec<(GraphId, u64)> = db
                    .iter()
                    .enumerate()
                    .filter_map(|(i, g)| {
                        let d = min_superimposed_distance_brute(&q, g, &md)?;
                        (d <= sigma).then_some((GraphId(i as u32), d.to_bits()))
                    })
                    .collect();
                let got: Vec<(GraphId, u64)> = o
                    .answers
                    .iter()
                    .zip(&o.answer_distances)
                    .map(|(&g, d)| (g, d.to_bits()))
                    .collect();
                assert_eq!(got, brute, "sigma={sigma}");
                assert_eq!(o.stats.verification_calls, o.candidates.len(), "sigma={sigma}");
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_searches() {
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let mut scratch = SearchScratch::new();
        let queries = [
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]),
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
        ];
        let sigmas = [4.0, 0.0, 1.0];
        for (q, sigma) in queries.iter().zip(sigmas) {
            let reused = searcher.search(q, sigma, &mut scratch).unwrap();
            let fresh = search(&searcher, q, sigma);
            assert_eq!(reused.candidates, fresh.candidates);
            assert_eq!(reused.answers, fresh.answers);
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn pruning_is_monotone_in_sigma() {
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let mut last = 0;
        for sigma in [0.0, 1.0, 2.0, 3.0, 6.0] {
            let outcome = search(&searcher, &q, sigma);
            assert!(outcome.candidates.len() >= last, "candidates shrank as sigma grew");
            last = outcome.candidates.len();
        }
    }

    #[test]
    fn partition_bound_prunes_beyond_intersection() {
        // The all-2 cycle passes single-fragment checks at sigma = 3
        // (any one ring fragment mutates within 3) but the partition sum
        // exceeds sigma, as in the paper's Example 4.
        let db = example_db();
        let index = build_index(&db, 6);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let outcome = search(&searcher, &q, 2.0);
        assert!(
            outcome.stats.candidates_after_partition <= outcome.stats.candidates_after_intersection
        );
        // Graph 2 (all labels flipped, distance 6) must be pruned before
        // verification.
        assert!(!outcome.candidates.contains(&GraphId(2)));
    }

    #[test]
    fn stats_are_consistent() {
        let db = example_db();
        let index = build_index(&db, 3);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 2, 1, 1, 1]);
        let o = search(&searcher, &q, 1.0);
        assert!(o.stats.query_fragments >= o.stats.fragments_in_pool);
        assert!(o.stats.fragments_in_pool >= o.stats.partition_size);
        assert_eq!(o.stats.verification_calls, o.candidates.len());
        assert!(o.stats.candidates_after_partition >= o.stats.candidates_after_structure);
        assert_eq!(o.stats.candidates_after_structure, o.candidates.len());
        assert!(o.answers.len() <= o.candidates.len());
    }

    #[test]
    fn epsilon_filter_shrinks_pool_without_losing_answers() {
        let db = example_db();
        let index = build_index(&db, 4);
        let md = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 2]);
        let sigma = 2.0;
        let expected: Vec<GraphId> =
            sssd_brute(&db, &q, &md, sigma).into_iter().map(|i| GraphId(i as u32)).collect();
        for epsilon in [0.0, 0.2, 0.8] {
            let cfg = PisConfig { epsilon, ..PisConfig::default() };
            let searcher = PisSearcher::new(&index, &db, cfg);
            let o = search(&searcher, &q, sigma);
            assert_eq!(o.answers, expected, "epsilon={epsilon}");
        }
    }

    #[test]
    fn partition_algorithms_agree_on_answers() {
        let db = example_db();
        let index = build_index(&db, 4);
        let q = cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]);
        let sigma = 2.0;
        let mut answer_sets = Vec::new();
        for algo in [PartitionAlgo::Greedy, PartitionAlgo::EnhancedGreedy(2), PartitionAlgo::Exact]
        {
            let cfg = PisConfig { partition: algo, ..PisConfig::default() };
            let searcher = PisSearcher::new(&index, &db, cfg);
            answer_sets.push(search(&searcher, &q, sigma).answers);
        }
        assert_eq!(answer_sets[0], answer_sets[1]);
        assert_eq!(answer_sets[1], answer_sets[2]);
    }

    #[test]
    fn exact_partition_survives_a_pool_beyond_the_solver_cap() {
        // Two 80-edge paths differing only in edge label: the query's
        // 1- and 2-edge fragments all have positive selectivity
        // (graph 1 matches each at distance >= 1), so the epsilon
        // filter keeps a pool far above EXACT_MWIS_MAX_NODES. Exact
        // partitioning used to panic here; it must now demote to
        // EnhancedGreedy(2), flag the fallback, and return the same
        // answers as configuring EnhancedGreedy(2) directly.
        let db = vec![
            pis_graph::graph::path_graph(81, Label(0), Label(1)),
            pis_graph::graph::path_graph(81, Label(0), Label(2)),
        ];
        let index = build_index(&db, 2);
        let query = pis_graph::graph::path_graph(81, Label(0), Label(1));
        let sigma = 1.0;
        let exact_cfg = PisConfig { partition: PartitionAlgo::Exact, ..PisConfig::default() };
        let searcher = PisSearcher::new(&index, &db, exact_cfg);
        let outcome = search(&searcher, &query, sigma);
        assert!(
            outcome.stats.fragments_in_pool > pis_partition::EXACT_MWIS_MAX_NODES,
            "test must exercise a pool beyond the cap, got {}",
            outcome.stats.fragments_in_pool
        );
        assert!(outcome.stats.exact_fallback, "fallback must be surfaced in the stats");
        assert_eq!(outcome.answers, vec![GraphId(0)]);

        // Byte-identical to asking for EnhancedGreedy(2) outright,
        // except for the fallback flag.
        let eg_cfg =
            PisConfig { partition: PartitionAlgo::EnhancedGreedy(2), ..PisConfig::default() };
        let eg = search(&PisSearcher::new(&index, &db, eg_cfg), &query, sigma);
        assert_eq!(outcome.candidates, eg.candidates);
        assert_eq!(outcome.answers, eg.answers);
        assert!(!eg.stats.exact_fallback);
        assert_eq!(outcome.stats.partition, eg.stats.partition);
    }

    #[test]
    fn exact_partition_runs_exactly_at_or_below_the_cap() {
        // Small pools keep the true exact solver (no fallback flag).
        let db = example_db();
        let index = build_index(&db, 4);
        let cfg = PisConfig { partition: PartitionAlgo::Exact, ..PisConfig::default() };
        let searcher = PisSearcher::new(&index, &db, cfg);
        let o = search(&searcher, &cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]), 2.0);
        assert!(o.stats.fragments_in_pool <= pis_partition::EXACT_MWIS_MAX_NODES);
        assert!(!o.stats.exact_fallback);
    }

    #[test]
    fn no_verification_mode_returns_candidates_only() {
        let db = example_db();
        let index = build_index(&db, 3);
        let cfg = PisConfig { verify: false, ..PisConfig::default() };
        let searcher = PisSearcher::new(&index, &db, cfg);
        let o = search(&searcher, &cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]), 1.0);
        assert!(o.answers.is_empty());
        assert_eq!(o.stats.verification_calls, 0);
        assert!(!o.candidates.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match the index")]
    fn database_index_mismatch_rejected() {
        let db = example_db();
        let index = build_index(&db, 2);
        let _ = PisSearcher::new(&index, &db[..2], PisConfig::default());
    }

    #[test]
    fn unlimited_search_is_exact() {
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let o = search(&searcher, &cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]), 2.0);
        assert_eq!(o.completeness, Completeness::Exact);
        assert!(o.possible.is_empty());
    }

    #[test]
    fn tiny_node_budget_truncates_soundly() {
        use pis_graph::budget::QueryBudget;
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 2]);
        let sigma = 2.0;
        let exact = search(&searcher, &q, sigma);
        let budget = QueryBudget { node_limit: Some(1), ..QueryBudget::default() };
        let starved = PisSearcher::new(&index, &db, PisConfig { budget, ..PisConfig::default() });
        let truncated = search(&starved, &q, sigma);
        let Completeness::Truncated { phase, stats } = &truncated.completeness else {
            panic!("a one-unit budget must truncate this query");
        };
        assert_eq!(*phase, TruncationPhase::RangeDescent, "the first phase trips first");
        assert!(stats.checkpoints > 0);
        // Soundness: verified answers are a subset of the exact answers,
        // and nothing exact is lost — it is either verified or possible.
        for a in &truncated.answers {
            assert!(exact.answers.contains(a), "truncated answer {a} is not exact");
        }
        for a in &exact.answers {
            assert!(
                truncated.answers.contains(a) || truncated.possible.contains(a),
                "exact answer {a} lost by truncation"
            );
        }
        // The candidate superset survives total range-query truncation.
        for a in &exact.candidates {
            assert!(truncated.candidates.contains(a));
        }
    }

    #[test]
    fn cancelled_search_returns_unverified_survivors_as_possible() {
        use pis_graph::budget::QueryBudget;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let exact = search(&searcher, &q, 2.0);
        let cancel = Arc::new(AtomicBool::new(true)); // cancelled from the start
        let budget = QueryBudget { cancel: Some(cancel.clone()), ..QueryBudget::default() };
        let cancellable =
            PisSearcher::new(&index, &db, PisConfig { budget, ..PisConfig::default() });
        let o = search(&cancellable, &q, 2.0);
        assert!(!o.completeness.is_exact());
        assert!(o.answers.is_empty(), "a pre-cancelled query cannot verify anything");
        assert_eq!(o.stats.verification_calls, 0);
        for a in &exact.answers {
            assert!(o.possible.contains(a), "cancelled query lost answer {a}");
        }
        // Un-cancelling restores exact behavior on the same budget spec.
        cancel.store(false, Ordering::Relaxed);
        let o = search(&cancellable, &q, 2.0);
        assert_eq!(o.completeness, Completeness::Exact);
        assert_eq!(o.answers, exact.answers);
    }

    #[test]
    fn scratch_reuse_after_truncation_matches_fresh_scratch() {
        use pis_graph::budget::QueryBudget;
        let db = example_db();
        let index = build_index(&db, 4);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]);
        let mut scratch = SearchScratch::new();
        let budget = QueryBudget { node_limit: Some(1), ..QueryBudget::default() };
        let starved = PisSearcher::new(&index, &db, PisConfig { budget, ..PisConfig::default() });
        let aborted = starved.search(&q, 2.0, &mut scratch).unwrap();
        assert!(!aborted.completeness.is_exact());
        // The scratch must carry no truncation residue into later
        // searches: outcomes through it are byte-identical to a fresh
        // scratch.
        for (q2, sigma) in [
            (cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]), 2.0),
            (cycle_with_edge_labels(&[1, 2, 1, 2, 1, 2]), 0.0),
        ] {
            let reused = searcher.search(&q2, sigma, &mut scratch).unwrap();
            let fresh = search(&searcher, &q2, sigma);
            assert_eq!(reused.candidates, fresh.candidates);
            assert_eq!(reused.answers, fresh.answers);
            assert_eq!(
                reused.answer_distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                fresh.answer_distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(reused.stats, fresh.stats);
            assert_eq!(reused.completeness, Completeness::Exact);
        }
    }

    /// Copies a graph with dyadic weights (multiples of 0.25 in
    /// `[0.5, 2.25]`) drawn from `rng`, so every linear-distance sum is
    /// exact and a bound can be compared to a distance without slack.
    fn dyadic_weights(g: &LabeledGraph, rng: &mut impl rand::Rng) -> LabeledGraph {
        let mut weight = || 0.5 + 0.25 * rng.random_range(0..8u32) as f64;
        let mut b = GraphBuilder::new();
        for v in g.vertex_ids() {
            b.add_vertex(VertexAttr { label: g.vertex(v).label, weight: weight() });
        }
        for e in g.edges() {
            b.add_edge(e.source, e.target, EdgeAttr { label: e.attr.label, weight: weight() })
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn candidate_bounds_never_exceed_the_true_distance() {
        // Eq. 2 on the rows the funnel actually read: every final
        // candidate's partition bound is at most its minimum
        // superimposed distance whenever the query occurs in it, under
        // both distance families and σ ∈ {0, …, 4}. Costs are integers
        // or dyadic, so the comparison needs no tolerance.
        use pis_distance::LinearDistance;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let molecules = pis_datasets::MoleculeGenerator::default().database(12, 2006);
        let mut rng = StdRng::seed_from_u64(27);
        let (mut checked, mut positive) = (0, 0);
        for which in 0..3 {
            let (db, distance) = match which {
                0 => (molecules.clone(), IndexDistance::Mutation(MutationDistance::edge_hamming())),
                1 => (molecules.clone(), IndexDistance::Mutation(MutationDistance::unit())),
                _ => (
                    molecules.iter().map(|g| dyadic_weights(g, &mut rng)).collect(),
                    IndexDistance::Linear(LinearDistance::new()),
                ),
            };
            let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
            let features = exhaustive_features(&structures, 3);
            let index = FragmentIndex::build(&db, features, distance, &IndexConfig::default());
            let searcher = PisSearcher::new(&index, &db, PisConfig::default());
            let mut scratch = SearchScratch::new();
            for g in &db {
                let Some(q) = pis_datasets::query::sample_query(g, 6, &mut rng) else { continue };
                let truth: Vec<Option<f64>> = db
                    .iter()
                    .map(|t| min_superimposed_distance_brute(&q, t, distance_dyn(index.distance())))
                    .collect();
                for sigma in [0.0, 1.0, 2.0, 3.0, 4.0] {
                    searcher.search_into(&q, sigma, &mut scratch, BudgetState::unlimited());
                    let bounds = scratch.candidate_bounds();
                    for (&gid, &lb) in scratch.candidates().iter().zip(bounds) {
                        let Some(d) = truth[gid.index()] else { continue };
                        assert!(lb <= d, "distance {which}, σ {sigma}, {gid}: bound {lb} > {d}");
                        checked += 1;
                        positive += usize::from(lb > 0.0);
                    }
                }
            }
        }
        assert!(checked > 1000 && positive > 500, "too few bounds checked ({checked}, {positive})");
    }

    #[test]
    fn try_search_rejects_invalid_inputs() {
        use crate::error::QueryError;
        let db = example_db();
        let index = build_index(&db, 3);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let mut scratch = SearchScratch::new();
        for sigma in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(matches!(
                searcher.search(&q, sigma, &mut scratch),
                Err(QueryError::InvalidSigma(_))
            ));
        }
        let mut b = pis_graph::GraphBuilder::new();
        let vs = b.add_vertices(2, VertexAttr::labeled(Label(0)));
        b.add_edge(vs[0], vs[1], EdgeAttr { label: Label(1), weight: f64::NAN }).unwrap();
        let poisoned = b.build();
        assert!(matches!(
            searcher.search(&poisoned, 1.0, &mut scratch),
            Err(QueryError::NonFiniteQueryWeight)
        ));
        // A rejected query leaves the scratch as it found it: valid
        // inputs through it equal a fresh scratch's search.
        let ok = searcher.search(&q, 1.0, &mut scratch).unwrap();
        assert_eq!(ok.answers, search(&searcher, &q, 1.0).answers);
    }
}
