//! Candidate verification: branch-and-bound superimposed distance.
//!
//! Decides the SSSD predicate of Definition 2 (`d(Q, G) ≤ σ`,
//! [`VerifyScratch::within`], ended at the first superposition within
//! σ) or computes `d(Q, G)` (Definition 1) exactly within a bound
//! ([`VerifyScratch::distance_within`], tightened to the running
//! `min(σ, best found)`), like the brute-force oracle in `pis-distance`
//! but pruning partial superpositions against the bound — superimposed
//! distances are sums of non-negative per-element costs, so partial
//! cost is monotone and the pruning is lossless.
//!
//! The optimized path adds an **admissible remaining-cost lower bound**:
//! before the subgraph search, one pass over the pair builds per-element
//! cost floors (each query vertex's minimum vertex cost over
//! degree-compatible target vertices, each query edge's minimum edge
//! cost over degree-dominating target edges — see
//! `SuperimposedDistance::min_vertex_costs_into`), folds them into
//! per-depth suffix sums aligned with the matcher's plan, and prunes a
//! partial assignment as soon as `cost + delta + remaining_lb > bound`
//! instead of waiting for the cost to accrue. A distance-specific
//! whole-pair precheck ([`SuperimposedDistance::pair_lower_bound`])
//! refutes hopeless candidates before any DFS at all. Because every
//! floor lower-bounds the true completion cost, only superpositions
//! strictly worse than the final answer are skipped, and the result is
//! the brute-force oracle's (`min_superimposed_distance_brute`) to the
//! f64 bit — which the tests check exhaustively on small targets
//! (`tests/plan_lower_bound.rs`) and on random ones
//! (`tests/proptest_verify.rs`).
//!
//! All per-candidate setup (match plan, edge-id grid, DFS buffers,
//! floor/suffix tables) lives in a reusable [`VerifyScratch`], so
//! verifying a candidate list amortizes its allocations the same way the
//! funnel's `SearchScratch` does. The target's bit rows need no set-up
//! at all: each graph keeps its own ([`LabeledGraph::bits`]).

// Search hot path: panic-free outside tests (DESIGN.md §6.11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::ops::ControlFlow;

use pis_distance::SuperimposedDistance;
use pis_graph::budget::{BudgetState, CheckpointSite, Interrupted};
use pis_graph::iso::{
    EdgeGrid, IsoConfig, MatchPlan, MatchVisitor, SearchBuffers, SubgraphMatcher,
};
use pis_graph::{EdgeId, Embedding, Label, LabeledGraph, VertexId};

/// Assignments between budget checkpoints inside the verification and
/// structure-check DFS loops: frequent enough to bound overshoot to a
/// fraction of a millisecond, rare enough that the counter is the only
/// per-assign overhead.
const DFS_CHECK_INTERVAL: u32 = 1024;

/// Work counters of the verification phase, accumulated until drained
/// with [`VerifyScratch::take_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerifyStats {
    /// Bounded-distance evaluations (one per candidate reaching the
    /// verifier).
    pub calls: u64,
    /// Candidates refuted before any subgraph search: size check,
    /// distance precheck, or an infeasible whole-pattern floor.
    pub prechecked: u64,
    /// DFS assignments accepted (search-tree nodes expanded).
    pub nodes_expanded: u64,
    /// DFS assignments rejected by `cost + delta + remaining_lb >
    /// bound`.
    pub nodes_pruned: u64,
}

impl VerifyStats {
    /// Folds another phase's counters into this one (parallel verify
    /// lanes merge their per-worker stats).
    pub fn absorb(&mut self, other: &VerifyStats) {
        self.calls += other.calls;
        self.prechecked += other.prechecked;
        self.nodes_expanded += other.nodes_expanded;
        self.nodes_pruned += other.nodes_pruned;
    }
}

/// Reusable state for verifying one query against many candidates: the
/// match plan (target-independent under structure-only matching, built
/// once per query), the target's edge-id grid, the DFS buffers, and
/// the floor/suffix tables of the remaining-cost bound. Dropping none of
/// them between candidates makes steady-state verification
/// allocation-free. The matcher reads each target's own bit rows.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    plan: MatchPlan,
    bufs: SearchBuffers,
    map: Vec<Option<VertexId>>,
    cost_stack: Vec<f64>,
    vertex_floor: Vec<f64>,
    edge_floor: Vec<f64>,
    suffix: Vec<f64>,
    vertex_suffix: Vec<f64>,
    deficit: DeficitTable,
    fwd: ForwardFloors,
    grid: EdgeGrid,
    stats: VerifyStats,
}

impl VerifyScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        VerifyScratch::default()
    }

    /// Rebuilds the match plan for `query`. Must be called before
    /// [`VerifyScratch::within`] or [`VerifyScratch::distance_within`]
    /// whenever the query changes; the plan then serves every candidate
    /// target.
    pub fn begin_query(&mut self, query: &LabeledGraph) {
        self.plan.rebuild_for_pattern(query);
    }

    /// The phase counters accumulated so far.
    pub fn stats(&self) -> VerifyStats {
        self.stats
    }

    /// Drains the accumulated phase counters, resetting them to zero.
    pub fn take_stats(&mut self) -> VerifyStats {
        std::mem::take(&mut self.stats)
    }

    /// Folds counters from another scratch (a parallel verify lane)
    /// into this one's.
    pub fn absorb_stats(&mut self, stats: &VerifyStats) {
        self.stats.absorb(stats);
    }

    /// Exact minimum superimposed distance of the query passed to the
    /// latest [`VerifyScratch::begin_query`] against `target`, bounded
    /// by `bound`: `Some(d(Q, G))` iff some superposition costs at most
    /// `bound`, `None` both when `Q ⊄ G` and when every superposition
    /// costs more. The value is for callers that rank by it (`knn`'s
    /// k-th distance is its bound); the SSSD predicate of Definition 2
    /// alone is [`VerifyScratch::within`], which stops at the first
    /// superposition within the bound instead of tightening to the
    /// minimum. Generic over the distance so callers holding the
    /// concrete type (the funnel matches on `IndexDistance` before
    /// verifying) get a monomorphized search loop with the per-element
    /// cost calls inlined; trait-object callers still work via `?Sized`.
    pub fn distance_within<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        bound: f64,
    ) -> Option<f64> {
        let result = self.run(query, target, distance, bound, false, BudgetState::unlimited());
        debug_assert!(result.is_ok(), "the unlimited budget never interrupts verification");
        result.unwrap_or(None)
    }

    /// The SSSD predicate of Definition 2 for the query passed to the
    /// latest [`VerifyScratch::begin_query`]: whether some superposition
    /// on `target` costs at most `sigma`. The same branch-and-bound as
    /// [`VerifyScratch::distance_within`] under the same bound, ended at
    /// the first completion instead of tightened to the minimum: up to
    /// that completion both searches expand the same nodes, so
    /// `within(…) == distance_within(…).is_some()` on every pair, ties
    /// at σ included.
    pub fn within<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        sigma: f64,
    ) -> bool {
        let result = self.run(query, target, distance, sigma, true, BudgetState::unlimited());
        debug_assert!(result.is_ok(), "the unlimited budget never interrupts verification");
        matches!(result, Ok(Some(_)))
    }

    /// [`VerifyScratch::within`] under a query budget, charged as
    /// [`VerifyScratch::distance_within_budgeted`] charges it. A found
    /// superposition is a sound positive whenever the budget trips (as
    /// in [`VerifyScratch::contains_structure_budgeted`]); a trip before
    /// one is `Err(Interrupted)`, and the candidate stays unverified.
    pub fn within_budgeted<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        sigma: f64,
        budget: &BudgetState,
    ) -> Result<bool, Interrupted> {
        Ok(self.run(query, target, distance, sigma, true, budget)?.is_some())
    }

    /// [`VerifyScratch::distance_within`] under a query budget: the DFS
    /// charges one [`CheckpointSite::Verify`] batch every
    /// `DFS_CHECK_INTERVAL` assignments. `Err(Interrupted)` means the
    /// search unwound before exploring every superposition — even a best
    /// distance found so far is unusable then, because a cheaper
    /// unexplored superposition could exist (and a `None`-so-far could
    /// still hide an answer), so the candidate stays *unverified* rather
    /// than *refuted*.
    pub fn distance_within_budgeted<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        bound: f64,
        budget: &BudgetState,
    ) -> Result<Option<f64>, Interrupted> {
        self.run(query, target, distance, bound, false, budget)
    }

    /// Structure-only containment (`Q ⊆ G` up to labels) of the query
    /// passed to the latest [`VerifyScratch::begin_query`] — the exact
    /// test `pis_graph::iso::is_subgraph` runs under
    /// [`IsoConfig::STRUCTURE`], minus its per-candidate plan setup (the
    /// target brings its bit rows). The structure-check stage of the
    /// funnel runs hundreds of these per query, most of them
    /// refutations, so the amortization matters as much here as in the
    /// verifier proper.
    pub fn contains_structure(&mut self, query: &LabeledGraph, target: &LabeledGraph) -> bool {
        let result = self.contains_structure_budgeted(query, target, BudgetState::unlimited());
        debug_assert!(result.is_ok(), "the unlimited budget never interrupts structure checks");
        result.unwrap_or(false)
    }

    /// [`VerifyScratch::contains_structure`] under a query budget:
    /// charges one [`CheckpointSite::StructureCheck`] batch every
    /// `DFS_CHECK_INTERVAL` assignments. On `Err(Interrupted)` the
    /// containment question is unresolved — the candidate must be kept
    /// (dropping it could lose an answer).
    pub fn contains_structure_budgeted(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        budget: &BudgetState,
    ) -> Result<bool, Interrupted> {
        // Zero-unit per-candidate checkpoint, as in verification.
        if !budget.checkpoint(CheckpointSite::StructureCheck, 0) {
            return Err(Interrupted);
        }
        debug_assert_eq!(self.plan.len(), query.vertex_count(), "begin_query first");
        if query.vertex_count() > target.vertex_count() || query.edge_count() > target.edge_count()
        {
            return Ok(false);
        }
        // The matcher refutes degree-dominated targets itself, from the
        // plan's degree demand and the rows' degree masks.
        let VerifyScratch { plan, bufs, .. } = self;
        let matcher = SubgraphMatcher::with_parts(query, target, IsoConfig::STRUCTURE, plan);
        let mut found = false;
        struct Exists<'a> {
            found: &'a mut bool,
            budget: &'a BudgetState,
            since_check: u32,
            tripped: bool,
        }
        impl MatchVisitor for Exists<'_> {
            fn assign(&mut self, _p: VertexId, _t: VertexId) -> bool {
                if self.tripped {
                    return false;
                }
                self.since_check += 1;
                if self.since_check >= DFS_CHECK_INTERVAL {
                    self.since_check = 0;
                    if !self
                        .budget
                        .checkpoint(CheckpointSite::StructureCheck, u64::from(DFS_CHECK_INTERVAL))
                    {
                        // Refusing every further assignment unwinds the
                        // matcher along its cheapest path.
                        self.tripped = true;
                        return false;
                    }
                }
                true
            }
            fn unassign(&mut self, _p: VertexId, _t: VertexId) {}
            fn complete(&mut self, _embedding: &Embedding) -> ControlFlow<()> {
                *self.found = true;
                ControlFlow::Break(())
            }
        }
        let mut visitor = Exists { found: &mut found, budget, since_check: 0, tripped: false };
        matcher.search_with_buffers(bufs, &mut visitor);
        if visitor.tripped && !found {
            // A trip after a witness embedding was found keeps the
            // (sound) positive answer; without one, containment is
            // unresolved.
            return Err(Interrupted);
        }
        Ok(found)
    }

    /// The bounded search behind both entries: the minimum within
    /// `bound`, or with `decide` the cost of the first superposition
    /// within it.
    fn run<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        bound: f64,
        decide: bool,
        budget: &BudgetState,
    ) -> Result<Option<f64>, Interrupted> {
        // One zero-unit checkpoint per candidate: bounds deadline and
        // cancellation latency to a single verification even on targets
        // too small for the DFS ever to reach the assignment interval.
        if !budget.checkpoint(CheckpointSite::Verify, 0) {
            return Err(Interrupted);
        }
        debug_assert_eq!(
            self.plan.len(),
            query.vertex_count(),
            "begin_query must precede verification"
        );
        self.stats.calls += 1;
        if query.vertex_count() > target.vertex_count()
            || query.edge_count() > target.edge_count()
            || distance.pair_lower_bound(query, target) > bound
        {
            self.stats.prechecked += 1;
            return Ok(None);
        }
        let VerifyScratch {
            plan,
            bufs,
            map,
            cost_stack,
            vertex_floor,
            edge_floor,
            suffix,
            vertex_suffix,
            deficit,
            fwd,
            grid,
            stats,
        } = self;
        distance.min_vertex_costs_into(query, target, vertex_floor);
        distance.min_edge_costs_into(query, target, edge_floor);
        deficit.rebuild(query, target, distance);
        // Reverse walk over the plan, each edge charged at the depth whose
        // `checks` pay it: accumulate per-element floors and, alongside
        // them, the capacity deficit of the edge labels still unpaid. The
        // floor sum and the deficit each lower-bound the remaining edge
        // cost on their own, so the suffix takes their max on the edge
        // side and adds the vertex floors (kept split out in
        // `vertex_suffix` so the visitor's forward-checking bound can
        // recombine without double counting).
        let n = plan.len();
        suffix.clear();
        suffix.resize(n + 1, 0.0);
        vertex_suffix.clear();
        vertex_suffix.resize(n + 1, 0.0);
        let (mut vertices, mut edges, mut shortfall) = (0.0f64, 0.0f64, 0.0f64);
        for depth in (0..n).rev() {
            vertices += vertex_floor[plan.vertex(depth).index()];
            for &(_, e) in plan.checks(depth) {
                edges += edge_floor[e.index()];
                shortfall += deficit.consume(query.edge(e).attr.label);
            }
            vertex_suffix[depth] = vertices;
            suffix[depth] = vertices + edges.max(shortfall);
        }
        if suffix[0] > bound {
            stats.prechecked += 1;
            return Ok(None);
        }
        let grid_ref = grid.rebuild(target).then_some(&*grid);
        let matcher = SubgraphMatcher::with_parts(query, target, IsoConfig::STRUCTURE, plan);
        map.clear();
        map.resize(query.vertex_count(), None);
        cost_stack.clear();
        let fwd_ref = if deficit.enabled && fwd.rebuild(query, target, distance, &deficit.rows) {
            Some(&mut *fwd)
        } else {
            None
        };
        let mut visitor = BoundedLbVisitor {
            query,
            target,
            distance,
            plan,
            grid: grid_ref,
            zero_vertex_costs: distance.max_vertex_cost() == Some(0.0),
            fwd: fwd_ref,
            map,
            cost_stack,
            suffix,
            vertex_suffix,
            fc: 0.0,
            cost: 0.0,
            bound,
            decide,
            best: None,
            expanded: 0,
            pruned: 0,
            budget,
            since_check: 0,
            tripped: false,
        };
        matcher.search_with_buffers(bufs, &mut visitor);
        stats.nodes_expanded += visitor.expanded;
        stats.nodes_pruned += visitor.pruned;
        if visitor.tripped && !(decide && visitor.best.is_some()) {
            // Unexplored superpositions remain: a found best could be
            // beaten and a miss could hide an answer, so neither is a
            // sound result — except a decision's witness, which no
            // unexplored superposition can take back.
            return Err(Interrupted);
        }
        Ok(visitor.best)
    }
}

/// Edge-label capacity accounting behind the suffix bound's deficit
/// refinement: the target supplies `capacity` edges of each query edge
/// label, and every query edge demanded beyond that supply must pay at
/// least the label's cheapest relabeling
/// ([`SuperimposedDistance::edge_label_substitution_floor`]). The same
/// injectivity argument as the pair-level `pair_lower_bound`, applied
/// per plan depth: label runs are disjoint, so the per-label shortfalls
/// add up to an admissible bound on the remaining edge cost.
#[derive(Debug, Default)]
struct DeficitTable {
    /// One row per distinct query edge label, sorted by label.
    rows: Vec<DeficitRow>,
    /// Scratch: sorted target edge labels, then their distinct values.
    t_labels: Vec<u32>,
    t_distinct: Vec<Label>,
    q_labels: Vec<u32>,
    /// Cleared when the distance cannot floor relabelings by label
    /// alone; `consume` then contributes nothing (still admissible).
    enabled: bool,
}

#[derive(Debug)]
struct DeficitRow {
    label: u32,
    /// Target edges carrying this label (shared supply).
    capacity: u32,
    /// Query edges of this label consumed by the reverse walk so far.
    seen: u32,
    /// Floor paid by each query edge beyond `capacity`.
    floor: f64,
}

impl DeficitTable {
    /// Recomputes capacities and relabeling floors for one (query,
    /// target) pair; buffers are retained across calls.
    fn rebuild<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
    ) {
        self.t_labels.clear();
        self.t_labels.extend(target.edges().iter().map(|e| e.attr.label.0));
        self.t_labels.sort_unstable();
        self.t_distinct.clear();
        self.t_distinct.extend(self.t_labels.iter().copied().map(Label));
        self.t_distinct.dedup();
        self.rows.clear();
        self.enabled = true;
        self.q_labels.clear();
        self.q_labels.extend(query.edges().iter().map(|e| e.attr.label.0));
        self.q_labels.sort_unstable();
        self.q_labels.dedup();
        for i in 0..self.q_labels.len() {
            let label = self.q_labels[i];
            let capacity = (self.t_labels.partition_point(|&x| x <= label)
                - self.t_labels.partition_point(|&x| x < label)) as u32;
            let Some(floor) =
                distance.edge_label_substitution_floor(Label(label), &self.t_distinct)
            else {
                self.enabled = false;
                return;
            };
            self.rows.push(DeficitRow { label, capacity, seen: 0, floor });
        }
    }

    /// Charges one query edge of `label` against the target's supply and
    /// returns the marginal deficit cost: zero while supply lasts, the
    /// relabeling floor for each edge past it.
    fn consume(&mut self, label: Label) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "infallible: the deficit table is keyed by the query's own edge labels, built from the same query in the constructor"
        )]
        let i = self
            .rows
            .binary_search_by_key(&label.0, |r| r.label)
            .expect("every query edge label has a deficit row");
        let row = &mut self.rows[i];
        row.seen += 1;
        if row.seen > row.capacity {
            row.floor
        } else {
            0.0
        }
    }
}

/// Incident-edge cost floors for label-driven forward checking: once
/// the DFS places a query vertex on target vertex `t`, each of the
/// vertex's still-unpaid query edges must map onto an edge incident to
/// `t`, so it pays at least `incident[t × L + row(label)]` — the
/// cheapest [`SuperimposedDistance::edge_label_cost_floor`] over `t`'s
/// incident edges. The visitor keeps the sum of these floors over all
/// frontier edges (placed endpoint, unpaid) as an admissible
/// remaining-cost bound that tightens with every placement.
#[derive(Debug, Default)]
struct ForwardFloors {
    /// `target.vertex_count() × L` floor table (`L` = deficit rows).
    incident: Vec<f64>,
    /// Query edge → deficit-row index of its label.
    edge_row: Vec<u32>,
    /// The floor currently charged for each query edge (written when
    /// the edge's first endpoint is placed, removed when it is paid).
    edge_floor: Vec<f64>,
    rows_len: usize,
}

impl ForwardFloors {
    /// Rebuilds the incident-floor table for one (query, target) pair.
    /// Returns `false` when the distance cannot floor edge costs by
    /// label (forward checking then stays off for this call).
    fn rebuild<D: SuperimposedDistance + ?Sized>(
        &mut self,
        query: &LabeledGraph,
        target: &LabeledGraph,
        distance: &D,
        rows: &[DeficitRow],
    ) -> bool {
        self.rows_len = rows.len();
        self.edge_row.clear();
        for e in query.edges() {
            #[expect(
                clippy::expect_used,
                reason = "infallible: the deficit table is keyed by the query's own edge labels, so the reverse lookup always finds a row"
            )]
            let r = rows
                .binary_search_by_key(&e.attr.label.0, |row| row.label)
                .expect("rows cover every query edge label");
            self.edge_row.push(r as u32);
        }
        self.edge_floor.clear();
        self.edge_floor.resize(query.edge_count(), 0.0);
        self.incident.clear();
        self.incident.resize(target.vertex_count() * rows.len(), f64::INFINITY);
        for e in target.edges() {
            for (r, row) in rows.iter().enumerate() {
                let Some(floor) = distance.edge_label_cost_floor(Label(row.label), e.attr.label)
                else {
                    return false;
                };
                let (u, v) = (e.source.index(), e.target.index());
                let iu = &mut self.incident[u * self.rows_len + r];
                *iu = iu.min(floor);
                let iv = &mut self.incident[v * self.rows_len + r];
                *iv = iv.min(floor);
            }
        }
        true
    }

    /// The floor an unpaid edge `qe` pays if its open endpoint must land
    /// next to target vertex `t`.
    #[inline]
    fn floor_at(&self, t: VertexId, qe: EdgeId) -> f64 {
        self.incident[t.index() * self.rows_len + self.edge_row[qe.index()] as usize]
    }
}

/// The branch-and-bound visitor: accumulated cost plus the per-depth
/// remaining-cost floor from the plan-aligned suffix table.
struct BoundedLbVisitor<'a, D: SuperimposedDistance + ?Sized> {
    query: &'a LabeledGraph,
    target: &'a LabeledGraph,
    distance: &'a D,
    /// The matcher's plan: `checks(depth)` lists exactly the
    /// already-placed neighbors whose edges this assignment pays for, so
    /// the delta prices them directly instead of rescanning and
    /// filtering the full neighbor list. The filtered scan visits the
    /// same edges in the same order, so the sum is bit-identical.
    plan: &'a MatchPlan,
    /// O(1) target edge lookup (falls back to `edge_between` scans on
    /// oversized targets).
    grid: Option<&'a EdgeGrid>,
    /// Skips the per-node vertex-cost call outright when the distance
    /// bounds every vertex cost by zero (the paper's edge-Hamming
    /// setting).
    zero_vertex_costs: bool,
    /// Incident-edge floors for forward checking (`None` when the
    /// distance offers no label floors).
    fwd: Option<&'a mut ForwardFloors>,
    /// Our own copy of the partial mapping (the matcher's is private).
    map: &'a mut Vec<Option<VertexId>>,
    /// Per-assignment cost deltas, for O(1) rollback.
    cost_stack: &'a mut Vec<f64>,
    /// `suffix[d]` lower-bounds the cost steps `d..` still have to pay;
    /// the stack depth is exactly the plan depth, so each assignment at
    /// depth `d` checks `cost + delta + suffix[d + 1]`.
    suffix: &'a [f64],
    /// The vertex-floor part of the suffix on its own, so the
    /// forward-checking sum can replace the edge side without double
    /// counting.
    vertex_suffix: &'a [f64],
    /// Running forward-checking sum: the incident floors of every
    /// frontier edge (one endpoint placed, not yet paid). Admissible
    /// because frontier edges are distinct and each floor prices only
    /// its own edge's eventual cost.
    fc: f64,
    cost: f64,
    /// Current pruning bound: min(sigma, best complete cost so far).
    bound: f64,
    /// Stop at the first completion: the caller asks whether a
    /// superposition within `bound` exists, not what the minimum is.
    decide: bool,
    best: Option<f64>,
    expanded: u64,
    pruned: u64,
    /// Budget the DFS charges every `DFS_CHECK_INTERVAL` assignment
    /// attempts; `tripped` makes every later assignment refuse, so the
    /// matcher unwinds along its cheapest path.
    budget: &'a BudgetState,
    since_check: u32,
    tripped: bool,
}

impl<D: SuperimposedDistance + ?Sized> MatchVisitor for BoundedLbVisitor<'_, D> {
    fn assign(&mut self, p: VertexId, t: VertexId) -> bool {
        if self.tripped {
            return false;
        }
        self.since_check += 1;
        if self.since_check >= DFS_CHECK_INTERVAL {
            self.since_check = 0;
            if !self.budget.checkpoint(CheckpointSite::Verify, u64::from(DFS_CHECK_INTERVAL)) {
                self.tripped = true;
                return false;
            }
        }
        let depth = self.cost_stack.len();
        debug_assert_eq!(self.plan.vertex(depth), p, "assign depth tracks the plan");
        let mut delta = if self.zero_vertex_costs {
            0.0
        } else {
            self.distance.vertex_cost(self.query.vertex(p), self.target.vertex(t))
        };
        if let Some(fwd) = self.fwd.as_deref_mut() {
            // Forward-checking variant of the delta scan: walk *all* of
            // `p`'s neighbors so paid edges (placed neighbor) release
            // their charged floor while still-open edges pick up the
            // floor `t`'s incident edges impose. The placed subset is
            // exactly `checks(depth)` in the same order, so the cost sum
            // is the same either way. Open edges record
            // their charged floor in `edge_floor` right away: the slot of
            // an edge with both endpoints unplaced is dead (every read is
            // preceded by the write at frontier creation), so the store
            // is harmless even when the assignment is rejected below.
            let mut fc_new = self.fc;
            for &(q, qe) in self.query.neighbors(p) {
                match self.map[q.index()] {
                    Some(tq) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "infallible: the matcher only proposes pairs whose incident edges exist in both graphs, so the edge to a placed neighbor exists"
                        )]
                        let te = match self.grid {
                            Some(grid) => grid.get(tq, t),
                            None => self.target.edge_between(tq, t),
                        }
                        .expect("matcher guarantees structural feasibility");
                        delta += self
                            .distance
                            .edge_cost(self.query.edge(qe).attr, self.target.edge(te).attr);
                        fc_new -= fwd.edge_floor[qe.index()];
                    }
                    None => {
                        let floor = fwd.floor_at(t, qe);
                        fwd.edge_floor[qe.index()] = floor;
                        fc_new += floor;
                    }
                }
            }
            // The forward-checking sum and the static edge-floor suffix
            // each bound the remaining edge cost on their own; take the
            // stronger (`f64::max` sidesteps any INF-INF artifacts —
            // infinite floors never survive an accepted assign, because
            // `bound` is finite).
            let remaining = self.suffix[depth + 1].max(self.vertex_suffix[depth + 1] + fc_new);
            if self.cost + delta + remaining > self.bound {
                self.pruned += 1;
                return false;
            }
            self.fc = fc_new;
        } else {
            for &(q, qe) in self.plan.checks(depth) {
                #[expect(
                    clippy::expect_used,
                    reason = "infallible: the check list is built over the prefix of placed vertices, so map[q] is always Some at read time"
                )]
                let tq = self.map[q.index()].expect("checks reference already-placed vertices");
                #[expect(
                    clippy::expect_used,
                    reason = "infallible: the matcher only proposes pairs whose incident edges exist in both graphs, so the edge to a placed neighbor exists"
                )]
                let te = match self.grid {
                    Some(grid) => grid.get(tq, t),
                    None => self.target.edge_between(tq, t),
                }
                .expect("matcher guarantees structural feasibility");
                delta +=
                    self.distance.edge_cost(self.query.edge(qe).attr, self.target.edge(te).attr);
            }
            if self.cost + delta + self.suffix[depth + 1] > self.bound {
                self.pruned += 1;
                return false;
            }
        }
        self.expanded += 1;
        self.map[p.index()] = Some(t);
        self.cost_stack.push(delta);
        self.cost += delta;
        true
    }

    fn unassign(&mut self, p: VertexId, _t: VertexId) {
        self.map[p.index()] = None;
        if let Some(fwd) = &self.fwd {
            // DFS order makes the neighbor placement state here exactly
            // what it was at the matching assign: placed neighbors had
            // released their edge's floor (restore it), open neighbors
            // had been charged `t`'s floor (drop it again).
            for &(q, qe) in self.query.neighbors(p) {
                match self.map[q.index()] {
                    Some(_) => self.fc += fwd.edge_floor[qe.index()],
                    None => self.fc -= fwd.edge_floor[qe.index()],
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "infallible: assign/unassign calls are strictly stack-paired by the backtracking matcher, so the cost stack is never empty on pop"
        )]
        let delta = self.cost_stack.pop().expect("unassign pairs with assign");
        self.cost -= delta;
    }

    fn complete(&mut self, _embedding: &Embedding) -> ControlFlow<()> {
        if self.best.is_none_or(|b| self.cost < b) {
            self.best = Some(self.cost);
            self.bound = self.bound.min(self.cost);
        }
        if self.decide || self.best == Some(0.0) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_distance::oracle::min_superimposed_distance_brute;
    use pis_distance::{LinearDistance, MutationDistance};
    use pis_graph::graph::{cycle_graph, path_graph};
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};

    fn cycle_with_edge_labels(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    #[test]
    fn agrees_with_brute_force_within_budget() {
        let md = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let cases = [
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 1, 2, 1, 1, 2]),
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]),
        ];
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&q);
        for g in &cases {
            let brute = min_superimposed_distance_brute(&q, g, &md).unwrap();
            for sigma in [0.0, 1.0, 2.0, 6.0] {
                let bounded = scratch.distance_within(&q, g, &md, sigma);
                if brute <= sigma {
                    assert_eq!(bounded, Some(brute), "sigma {sigma}");
                } else {
                    assert_eq!(bounded, None, "sigma {sigma}");
                }
            }
        }
    }

    #[test]
    fn no_structural_match_is_none() {
        let md = MutationDistance::edge_hamming();
        let q = cycle_graph(5, Label(0), Label(0));
        let g = path_graph(8, Label(0), Label(0));
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&q);
        assert_eq!(scratch.distance_within(&q, &g, &md, 100.0), None);
    }

    #[test]
    fn works_for_linear_distance() {
        let ld = LinearDistance::edges_only();
        let mk = |w: f64| {
            let mut b = GraphBuilder::new();
            let u = b.add_vertex(VertexAttr::labeled(Label(0)));
            let v = b.add_vertex(VertexAttr::labeled(Label(0)));
            b.add_edge(u, v, EdgeAttr { label: Label(0), weight: w }).unwrap();
            b.build()
        };
        let q = mk(1.0);
        let g = mk(1.75);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&q);
        assert_eq!(scratch.distance_within(&q, &g, &ld, 1.0), Some(0.75));
        assert_eq!(scratch.distance_within(&q, &g, &ld, 0.5), None);
    }

    #[test]
    fn randomized_agreement_with_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gen = pis_datasets::MoleculeGenerator::default();
        let db = gen.database(12, 77);
        let mut rng = StdRng::seed_from_u64(5);
        let md = MutationDistance::edge_hamming();
        let mut checked = 0;
        let mut scratch = VerifyScratch::new();
        for g in &db {
            if g.edge_count() < 6 {
                continue;
            }
            let Some(q) = pis_datasets::query::sample_query(g, 5, &mut rng) else { continue };
            scratch.begin_query(&q);
            for target in db.iter().take(6) {
                let brute = min_superimposed_distance_brute(&q, target, &md);
                for sigma in [0.0, 1.0, 3.0] {
                    let fast = scratch.distance_within(&q, target, &md, sigma);
                    match brute {
                        Some(b) if b <= sigma => {
                            assert_eq!(fast, Some(b), "sigma={sigma}");
                        }
                        _ => assert_eq!(fast, None, "sigma={sigma}"),
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "exercised too few cases ({checked})");
    }

    #[test]
    fn zero_budget_finds_exact_label_matches_only() {
        let md = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 2, 1, 2]);
        let same = cycle_with_edge_labels(&[2, 1, 2, 1]); // rotation
        let diff = cycle_with_edge_labels(&[1, 1, 2, 2]);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&q);
        assert_eq!(scratch.distance_within(&q, &same, &md, 0.0), Some(0.0));
        assert_eq!(scratch.distance_within(&q, &diff, &md, 0.0), None);
    }

    #[test]
    fn reference_and_optimized_agree_bitwise_on_molecules() {
        // The reference is the brute-force oracle: every superposition
        // enumerated, the minimum kept when within σ — f64 bits equal,
        // through one scratch per distance.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gen = pis_datasets::MoleculeGenerator::default();
        let db = gen.database(10, 31);
        let mut rng = StdRng::seed_from_u64(9);
        for distance in [MutationDistance::edge_hamming(), MutationDistance::unit()] {
            let mut scratch = VerifyScratch::new();
            for g in &db {
                let Some(q) = pis_datasets::query::sample_query(g, 4, &mut rng) else { continue };
                scratch.begin_query(&q);
                for target in &db {
                    let brute = min_superimposed_distance_brute(&q, target, &distance);
                    for sigma in [0.0, 2.0, 5.0] {
                        assert_eq!(
                            scratch.distance_within(&q, target, &distance, sigma).map(f64::to_bits),
                            brute.filter(|&d| d <= sigma).map(f64::to_bits),
                            "sigma={sigma}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn remaining_lb_strictly_reduces_expanded_nodes() {
        // Seeded workload: molecule queries against the whole database.
        // The work the bound leaves is pinned as counts, so a loosened
        // floor fails here even when every distance stays right.
        // Cost-only pruning (`cost > bound`, no floors, no precheck)
        // expanded 34 770 nodes on this workload; the same floors over
        // a matcher without the degree-mask lookahead, 24 033.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gen = pis_datasets::MoleculeGenerator::default();
        let db = gen.database(14, 42);
        let mut rng = StdRng::seed_from_u64(7);
        let md = MutationDistance::edge_hamming();
        let mut scratch = VerifyScratch::new();
        for g in &db {
            if g.edge_count() < 8 {
                continue;
            }
            let Some(q) = pis_datasets::query::sample_query(g, 6, &mut rng) else { continue };
            scratch.begin_query(&q);
            for target in &db {
                let brute = min_superimposed_distance_brute(&q, target, &md);
                for sigma in [1.0, 3.0] {
                    assert_eq!(
                        scratch.distance_within(&q, target, &md, sigma).map(f64::to_bits),
                        brute.filter(|&d| d <= sigma).map(f64::to_bits)
                    );
                }
            }
        }
        let stats = scratch.take_stats();
        assert_eq!(
            (stats.calls, stats.prechecked, stats.nodes_expanded),
            (392, 18, 23_530),
            "verifier work drifted: {stats:?}"
        );
    }

    #[test]
    fn within_expands_no_more_than_distance_within() {
        // The workload of `remaining_lb_strictly_reduces_expanded_nodes`,
        // decided instead of minimised: every answer agrees with the
        // oracle's membership, and the work left is pinned as counts.
        // Up to its first completion each decision expands the nodes the
        // minimising search expands, so it can never expand more than
        // that test's 23 530; it expands 4 152.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gen = pis_datasets::MoleculeGenerator::default();
        let db = gen.database(14, 42);
        let mut rng = StdRng::seed_from_u64(7);
        let md = MutationDistance::edge_hamming();
        let mut scratch = VerifyScratch::new();
        for g in &db {
            if g.edge_count() < 8 {
                continue;
            }
            let Some(q) = pis_datasets::query::sample_query(g, 6, &mut rng) else { continue };
            scratch.begin_query(&q);
            for target in &db {
                let brute = min_superimposed_distance_brute(&q, target, &md);
                for sigma in [1.0, 3.0] {
                    assert_eq!(
                        scratch.within(&q, target, &md, sigma),
                        brute.is_some_and(|d| d <= sigma)
                    );
                }
            }
        }
        let stats = scratch.take_stats();
        assert!(stats.nodes_expanded <= 23_530, "a decision expanded more: {stats:?}");
        assert_eq!(
            (stats.calls, stats.prechecked, stats.nodes_expanded),
            (392, 18, 4_152),
            "verifier work drifted: {stats:?}"
        );
    }

    #[test]
    fn agrees_with_the_oracle_past_one_row_word() {
        // Targets of more than 64 vertices (two- and four-word adjacency
        // rows): the corpus's own large graphs plus forced
        // macro-molecules of 150–220 vertices. Queries are cut from them
        // and from ordinary molecules, so both answers occur.
        use pis_datasets::{MoleculeConfig, MoleculeGenerator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let db = MoleculeGenerator::default().database(400, 11);
        let macros =
            MoleculeGenerator::new(MoleculeConfig { macro_probability: 1.0, ..Default::default() })
                .database(3, 5);
        let targets: Vec<&LabeledGraph> =
            db.iter().chain(&macros).filter(|g| g.vertex_count() > 64).collect();
        assert!(targets.iter().any(|g| g.vertex_count() <= 128), "no two-word target");
        assert!(targets.iter().any(|g| g.vertex_count() > 128), "no four-word target");
        let mut rng = StdRng::seed_from_u64(3);
        let md = MutationDistance::edge_hamming();
        let mut scratch = VerifyScratch::new();
        let (mut contained, mut refuted) = (0, 0);
        let sources = targets.iter().map(|&g| (g, 5)).chain(db.iter().take(8).map(|g| (g, 7)));
        let mut queries: Vec<LabeledGraph> = sources
            .filter_map(|(g, edges)| pis_datasets::query::sample_query(g, edges, &mut rng))
            .collect();
        // Rings of every size and high-degree stars, most of which a
        // molecule lacks.
        queries.extend((3..=8).map(|k| cycle_with_edge_labels(&vec![1; k])));
        queries.extend((4..=5).map(|k| pis_graph::graph::star_graph(k, Label(0), Label(1))));
        for q in &queries {
            scratch.begin_query(q);
            for &target in &targets {
                let brute = min_superimposed_distance_brute(q, target, &md);
                assert_eq!(scratch.contains_structure(q, target), brute.is_some());
                for sigma in [0.0, 2.0] {
                    assert_eq!(
                        scratch.distance_within(q, target, &md, sigma).map(f64::to_bits),
                        brute.filter(|&d| d <= sigma).map(f64::to_bits),
                        "sigma={sigma}"
                    );
                }
                if brute.is_some() {
                    contained += 1;
                } else {
                    refuted += 1;
                }
            }
        }
        assert!(contained > 0 && refuted > 0, "{contained} contained, {refuted} refuted");
    }

    #[test]
    fn targets_past_the_matrix_cap_use_neighbour_scans() {
        // A 5 000-vertex chain (no adjacency matrix above 4 096 vertices)
        // carrying one hexagon near its far end, closed by a chord of
        // label 2 among chain edges of label 1.
        let n = 5_000;
        let mut b = GraphBuilder::new();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for i in 1..n {
            b.add_edge(vs[i - 1], vs[i], EdgeAttr::labeled(Label(1))).unwrap();
        }
        b.add_edge(vs[n - 10], vs[n - 5], EdgeAttr::labeled(Label(2))).unwrap();
        let target = b.build();
        let md = MutationDistance::edge_hamming();
        let hexagon = cycle_with_edge_labels(&[1; 6]);
        let pentagon = cycle_with_edge_labels(&[1; 5]);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&hexagon);
        assert!(scratch.contains_structure(&hexagon, &target));
        // The chord is the one mismatched edge of every superposition.
        assert_eq!(scratch.distance_within(&hexagon, &target, &md, 2.0), Some(1.0));
        assert_eq!(scratch.distance_within(&hexagon, &target, &md, 0.5), None);
        assert_eq!(min_superimposed_distance_brute(&hexagon, &target, &md), Some(1.0));
        // 6 rotations × 2 reflections of the one hexagon.
        assert_eq!(
            pis_graph::SubgraphMatcher::new(&hexagon, &target, IsoConfig::STRUCTURE).count(None),
            12
        );
        scratch.begin_query(&pentagon);
        assert!(!scratch.contains_structure(&pentagon, &target));
        assert_eq!(scratch.distance_within(&pentagon, &target, &md, 5.0), None);
        assert_eq!(min_superimposed_distance_brute(&pentagon, &target, &md), None);
    }

    #[test]
    fn stats_account_for_prechecks_and_drain() {
        let md = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1]);
        let hopeless = cycle_with_edge_labels(&[2, 2, 2, 2]);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&q);
        // The label-deficit precheck (4 mismatched edges > σ=1) refutes
        // the pair before any DFS.
        assert_eq!(scratch.distance_within(&q, &hopeless, &md, 1.0), None);
        let stats = scratch.take_stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.prechecked, 1);
        assert_eq!(stats.nodes_expanded, 0);
        // Draining resets.
        assert_eq!(scratch.take_stats(), VerifyStats::default());
        // A matching pair goes through the DFS.
        assert_eq!(scratch.distance_within(&q, &q, &md, 1.0), Some(0.0));
        let stats = scratch.take_stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.prechecked, 0);
        assert!(stats.nodes_expanded > 0);
    }
}
