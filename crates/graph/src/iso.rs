//! Word-parallel subgraph isomorphism with full embedding enumeration.
//!
//! The paper's subgraph isomorphism `Q ⊆ G` considers only the structure
//! of the graphs (Section 2); labels are compared separately through the
//! superimposed distance. The matcher therefore defaults to
//! structure-only matching, with optional label-respecting modes used by
//! the mining substrate and by `⊑` (label-preserving containment).
//!
//! Matching is *non-induced* (a monomorphism): every pattern edge must
//! map to a target edge, but the target may have extra edges between
//! mapped vertices — exactly the containment used in the paper's
//! Example 2, where the query ring system is contained in 1H-Indene.
//!
//! The engine exposes a [`MatchVisitor`] hook invoked on every partial
//! assignment, which is how `pis-core` implements the branch-and-bound
//! minimum-superimposed-distance verifier without duplicating the search.
//!
//! **The kernel.** A backtracking DFS over a fixed matching order
//! ([`MatchPlan`]) whose every depth works on bit rows of the target
//! ([`AdjBits`]: one adjacency row per vertex plus degree-class masks).
//! The candidate set of depth `d`, matching pattern vertex `p`, is one
//! AND chain: `deg_ge[deg p] & !used & ⋂ row(image(q))` over the
//! already-matched neighbours `q` in [`MatchPlan::checks`]. A candidate
//! `t` then passes a word-level lookahead before the visitor sees it:
//! `t` must keep at least as many free neighbours as `p` has neighbours
//! matched later, and that count must hold inside every degree class —
//! each later neighbour `r` keeps a free neighbour of `t` inside
//! `deg_ge[deg r]`, the `k` of highest degree keep `k` of them, and so
//! on (popcounts of `row(t) & !used & deg_ge[c]`). A target's degree
//! masks also refute it outright when it has fewer vertices of degree
//! ≥ `c` than the pattern, for some `c`. The DFS is generic over the
//! row width, so a target of at most 64 vertices runs on single-word
//! operations; targets above 4 096 vertices (no quadratic matrix) keep a
//! neighbour-scan DFS that probes each candidate.
//!
//! **Order contract.** Candidates are visited in a fixed order: at a
//! depth with an anchor (an already-matched neighbour), in the order of
//! the anchor image's neighbour list; at a component's first depth, in
//! ascending vertex id. Every filter above rejects only candidates whose
//! subtree holds no complete embedding, so complete embeddings arrive in
//! the same sequence whichever filters run, and a visitor that stops at
//! the first one (or keeps a running minimum) sees the same result.
//! `pis-index`'s entries and query fragments do not depend on the order:
//! it reads every occurrence's readings as a set and issues the least
//! one. What does follow the order is the sequence of its fragments
//! (the order the partition stage breaks weight ties in) and the
//! verifier's expanded-node count.
//!
//! Repeated searches amortize their setup: the matching order lives in a
//! reusable flat [`MatchPlan`] arena (target-independent under
//! [`IsoConfig::STRUCTURE`], so one plan serves a query against every
//! candidate), each target's bit rows ([`AdjBits`]) are built with the
//! graph and kept in it ([`LabeledGraph::bits`]), and
//! [`SubgraphMatcher::search_with_buffers`] threads caller-owned
//! [`SearchBuffers`] through the DFS instead of allocating per call.
//! [`MatchPlan::checks`] names the edges each plan depth closes — what
//! `pis-core`'s bound-propagating verifier folds its per-element cost
//! floors along.

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

use std::borrow::Cow;
use std::ops::ControlFlow;

use crate::graph::LabeledGraph;
use crate::ids::{EdgeId, VertexId};

/// Label semantics for the matcher.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IsoConfig {
    /// Require mapped vertices to carry equal labels.
    pub respect_vertex_labels: bool,
    /// Require mapped edges to carry equal labels.
    pub respect_edge_labels: bool,
}

impl IsoConfig {
    /// Structure-only matching (the paper's `⊆`).
    pub const STRUCTURE: IsoConfig =
        IsoConfig { respect_vertex_labels: false, respect_edge_labels: false };

    /// Label-preserving matching (the paper's `⊑`).
    pub const LABELED: IsoConfig =
        IsoConfig { respect_vertex_labels: true, respect_edge_labels: true };
}

impl Default for IsoConfig {
    fn default() -> Self {
        IsoConfig::STRUCTURE
    }
}

/// A complete mapping of pattern vertices into a target graph.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Embedding {
    map: Vec<VertexId>,
}

impl Embedding {
    /// The target vertex that pattern vertex `p` maps to.
    #[inline]
    pub fn vertex_image(&self, p: VertexId) -> VertexId {
        self.map[p.index()]
    }

    /// Full mapping as a slice indexed by pattern vertex.
    #[inline]
    pub fn vertex_map(&self) -> &[VertexId] {
        &self.map
    }

    /// The target edge that pattern edge `pe` maps to.
    ///
    /// # Panics
    /// Panics if the embedding is not valid for the given graphs.
    #[expect(
        clippy::expect_used,
        reason = "infallible: invoked only on complete embeddings produced by this matcher, whose extension step verified every pattern edge"
    )]
    pub fn edge_image(&self, pattern: &LabeledGraph, target: &LabeledGraph, pe: EdgeId) -> EdgeId {
        let e = pattern.edge(pe);
        target
            .edge_between(self.vertex_image(e.source), self.vertex_image(e.target))
            .expect("embedding must map every pattern edge onto a target edge")
    }
}

/// Hook invoked by the matcher on every assignment; lets callers prune
/// branches (e.g. by accumulated superimposed distance) and consume
/// complete embeddings.
pub trait MatchVisitor {
    /// Pattern vertex `p` has just passed the structural feasibility
    /// checks for target vertex `t`. Return `false` to prune the branch;
    /// in that case the visitor must leave its own state untouched.
    fn assign(&mut self, p: VertexId, t: VertexId) -> bool;

    /// Undo a previously accepted assignment (called in LIFO order).
    fn unassign(&mut self, p: VertexId, t: VertexId);

    /// A complete embedding was found. Return
    /// [`ControlFlow::Break`] to stop the whole search.
    fn complete(&mut self, embedding: &Embedding) -> ControlFlow<()>;
}

/// A visitor that accepts everything and collects embeddings through a
/// closure.
struct CollectVisitor<F: FnMut(&Embedding) -> ControlFlow<()>> {
    on_complete: F,
}

impl<F: FnMut(&Embedding) -> ControlFlow<()>> MatchVisitor for CollectVisitor<F> {
    #[inline]
    fn assign(&mut self, _p: VertexId, _t: VertexId) -> bool {
        true
    }

    #[inline]
    fn unassign(&mut self, _p: VertexId, _t: VertexId) {}

    #[inline]
    fn complete(&mut self, embedding: &Embedding) -> ControlFlow<()> {
        (self.on_complete)(embedding)
    }
}

/// The precomputed matching order, stored as a flat level-major arena:
/// one entry per depth holding the pattern vertex matched there, the
/// anchor that bounds its candidate images, and a `[check_start,
/// check_start+1, …)` slice into one shared `checks` array of
/// already-matched neighbors. Rebuilding in place keeps every allocation
/// alive, so the plan of a query can be built once and reused across an
/// entire candidate list (under [`IsoConfig::STRUCTURE`] the order is
/// target-independent; see [`MatchPlan::rebuild_for_pattern`]).
#[derive(Clone, Debug, Default)]
pub struct MatchPlan {
    /// Pattern vertex matched at each depth.
    vertices: Vec<VertexId>,
    /// An already-matched pattern neighbor anchoring candidate
    /// generation at each depth (`u32::MAX` for the first vertex of a
    /// component, which scans the whole target).
    anchors: Vec<VertexId>,
    /// CSR offsets into `checks`: depth `d` owns
    /// `checks[check_start[d]..check_start[d + 1]]`.
    check_start: Vec<u32>,
    /// All already-matched pattern neighbors and the connecting pattern
    /// edge, concatenated depth-major; every one must map to a target
    /// edge.
    checks: Vec<(VertexId, EdgeId)>,
    /// CSR offsets into `later`: depth `d` owns
    /// `later[later_start[d]..later_start[d + 1]]`.
    later_start: Vec<u32>,
    /// The pattern neighbors each depth's vertex has among the vertices
    /// matched at deeper depths, highest pattern degree first,
    /// concatenated depth-major — what the DFS's lookahead reserves
    /// room for.
    later: Vec<VertexId>,
    /// `degree_demand[c]`: pattern vertices of degree ≥ `c` (the top
    /// class saturating, as in [`AdjBits`]'s degree masks).
    degree_demand: [u32; DEGREE_CLASSES],
    /// Scratch: per-vertex placement flag (reused across rebuilds).
    placed: Vec<bool>,
    /// Scratch: how many placed neighbors each unplaced vertex has.
    back_degree: Vec<usize>,
    /// Scratch: plan position of each pattern vertex.
    position: Vec<usize>,
    /// Scratch: per-vertex candidate-image counts (label rarity).
    rarity: Vec<usize>,
}

impl MatchPlan {
    /// An empty plan; it sizes itself on first rebuild.
    pub fn new() -> Self {
        MatchPlan::default()
    }

    /// Number of depths (= pattern vertices) in the plan.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the plan is empty (empty pattern).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The pattern vertex matched at `depth`.
    #[inline]
    pub fn vertex(&self, depth: usize) -> VertexId {
        self.vertices[depth]
    }

    /// The already-matched neighbors (and connecting pattern edges)
    /// checked when matching `depth`.
    #[inline]
    pub fn checks(&self, depth: usize) -> &[(VertexId, EdgeId)] {
        &self.checks[self.check_start[depth] as usize..self.check_start[depth + 1] as usize]
    }

    /// The pattern neighbors of `vertex(depth)` matched at deeper depths.
    #[inline]
    fn later(&self, depth: usize) -> &[VertexId] {
        &self.later[self.later_start[depth] as usize..self.later_start[depth + 1] as usize]
    }

    #[inline]
    fn anchor(&self, depth: usize) -> Option<VertexId> {
        let a = self.anchors[depth];
        (a != VertexId(u32::MAX)).then_some(a)
    }

    /// Rebuilds the plan for a structure-only search
    /// ([`IsoConfig::STRUCTURE`]). The order depends only on the
    /// pattern, so one plan serves the pattern against every target —
    /// the matcher produced by [`SubgraphMatcher::with_parts`] runs the
    /// exact same DFS as a freshly built one.
    pub fn rebuild_for_pattern(&mut self, pattern: &LabeledGraph) {
        self.rebuild_inner(pattern, None);
    }

    /// Rebuilds the plan for a `(pattern, target, config)` triple —
    /// label-respecting configs use the target's label frequencies to
    /// order rare-labeled vertices first.
    pub fn rebuild(&mut self, pattern: &LabeledGraph, target: &LabeledGraph, config: IsoConfig) {
        self.rebuild_inner(pattern, config.respect_vertex_labels.then_some(target));
    }

    /// Matching order: connectivity-first greedy selection.
    ///
    /// At every step the next pattern vertex is the unplaced one with
    ///
    /// 1. the most already-placed neighbors (every placed neighbor is a
    ///    structural constraint that fires the moment the vertex is
    ///    tried — the core idea of VF2++'s ordering),
    /// 2. then the rarest label among target vertices (label-respecting
    ///    configs only: fewer candidate images, smaller branching
    ///    factor),
    /// 3. then the highest pattern degree (dense regions constrain
    ///    first),
    /// 4. then the smallest id (determinism).
    ///
    /// Because criterion 1 dominates, a vertex adjacent to the placed
    /// prefix is always preferred over starting a new region: each
    /// component is matched contiguously and every step after a
    /// component's first has an anchor.
    fn rebuild_inner(&mut self, pattern: &LabeledGraph, rarity_target: Option<&LabeledGraph>) {
        let n = pattern.vertex_count();
        // How many target vertices could host each pattern vertex, by
        // label. Erased/uniform labels make this a constant, disabling
        // criterion 2.
        self.rarity.clear();
        match rarity_target {
            Some(target) => self.rarity.extend(pattern.vertex_ids().map(|p| {
                let label = pattern.vertex(p).label;
                target.vertex_ids().filter(|&t| target.vertex(t).label == label).count()
            })),
            None => self.rarity.resize(n, 0),
        }
        self.placed.clear();
        self.placed.resize(n, false);
        self.back_degree.clear();
        self.back_degree.resize(n, 0);
        self.vertices.clear();
        for _ in 0..n {
            let mut best: Option<VertexId> = None;
            let mut best_key = (0usize, usize::MAX, 0usize, u32::MAX);
            for v in pattern.vertex_ids() {
                if self.placed[v.index()] {
                    continue;
                }
                // Lexicographic: back-degree desc, rarity asc, degree
                // desc, id asc — encoded so the largest tuple wins.
                let key = (
                    self.back_degree[v.index()] + 1,
                    usize::MAX - self.rarity[v.index()],
                    pattern.degree(v),
                    u32::MAX - v.0,
                );
                if best.is_none() || key > best_key {
                    best = Some(v);
                    best_key = key;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "infallible: the loop runs once per pattern vertex and places one per pass, so the scan always finds an unplaced vertex"
            )]
            let v = best.expect("an unplaced vertex remains");
            self.placed[v.index()] = true;
            for &(w, _) in pattern.neighbors(v) {
                self.back_degree[w.index()] += 1;
            }
            self.vertices.push(v);
        }
        debug_assert_eq!(self.vertices.len(), n);
        // Derive anchors, checks and later neighbors strictly by plan
        // position. The anchor is the earliest-placed checked neighbor
        // (its image's neighbor list orders the candidates).
        self.position.clear();
        self.position.resize(n, usize::MAX);
        for (i, &v) in self.vertices.iter().enumerate() {
            self.position[v.index()] = i;
        }
        self.anchors.clear();
        self.check_start.clear();
        self.checks.clear();
        self.check_start.push(0);
        self.later_start.clear();
        self.later.clear();
        self.later_start.push(0);
        for (i, &v) in self.vertices.iter().enumerate() {
            let mut anchor = VertexId(u32::MAX);
            let mut anchor_pos = usize::MAX;
            for &(q, e) in pattern.neighbors(v) {
                let pos = self.position[q.index()];
                if pos < i {
                    self.checks.push((q, e));
                    if pos < anchor_pos {
                        anchor_pos = pos;
                        anchor = q;
                    }
                } else {
                    self.later.push(q);
                }
            }
            let start = self.later_start[i] as usize;
            self.later[start..].sort_by_key(|&r| std::cmp::Reverse(pattern.degree(r)));
            self.anchors.push(anchor);
            self.check_start.push(self.checks.len() as u32);
            self.later_start.push(self.later.len() as u32);
        }
        self.degree_demand = [0; DEGREE_CLASSES];
        for v in pattern.vertex_ids() {
            for count in &mut self.degree_demand[..=degree_class(pattern.degree(v))] {
                *count += 1;
            }
        }
    }
}

/// Targets above this size skip the adjacency matrix (quadratic
/// memory); the neighbour-scan DFS and `edge_between` take over.
/// Molecular graphs sit around 25 vertices, so in practice the matrix is
/// always on.
const ADJ_BITS_MAX_VERTICES: usize = 4096;

/// Degree classes of [`AdjBits`]'s degree masks: class `c` holds the
/// vertices of degree ≥ `c`, and the top class saturates (it holds every
/// vertex of degree ≥ 15). Molecules stay far below it; a pattern vertex
/// of higher degree adds an exact per-candidate degree test.
const DEGREE_CLASSES: usize = 16;

/// Words per [`AdjBits`] row at the cap.
const MAX_ROW_WORDS: usize = ADJ_BITS_MAX_VERTICES / 64;

/// Words per [`AdjBits`] row for a target of `n` vertices: within the
/// cap, the smallest width the word DFS is instantiated at (1, 2, 4 or
/// the cap's 64 words) that holds `n` bits; above it, `⌈n / 64⌉` (the
/// degree masks and the neighbour-scan DFS's used set).
fn row_width(n: usize) -> usize {
    match n.div_ceil(64) {
        0 | 1 => 1,
        2 => 2,
        3 | 4 => 4,
        _ if n <= ADJ_BITS_MAX_VERTICES => MAX_ROW_WORDS,
        words => words,
    }
}

/// The degree-mask class that bounds degree `d` from below.
#[inline]
fn degree_class(d: usize) -> usize {
    d.min(DEGREE_CLASSES - 1)
}

/// Dense target bit rows: one adjacency row per vertex, so an
/// edge-existence check is a shift and a mask and a candidate set is an
/// AND of rows, plus one mask per degree class (`deg_ge[c]`: the
/// vertices of degree ≥ `c`). Every graph derives its own when it is
/// built, from its adjacency, and keeps them ([`LabeledGraph::bits`]);
/// only the classes up to the graph's highest degree are stored, since
/// every mask above it is empty.
#[derive(Clone, Debug, PartialEq)]
pub struct AdjBits {
    /// Vertices of the graph the rows were built for.
    vertices: usize,
    /// Words per row and per mask: [`row_width`] of the vertex count.
    words: usize,
    /// Degree classes stored: one past the class of the highest degree
    /// (none for the empty graph).
    classes: usize,
    /// The degree-class masks, `classes × words`, then the row-major
    /// adjacency matrix, `vertices × words` (absent above
    /// `ADJ_BITS_MAX_VERTICES`).
    bits: Box<[u64]>,
}

/// The all-zero mask a degree class above a graph's highest degree reads.
static EMPTY_MASK: [u64; MAX_ROW_WORDS] = [0; MAX_ROW_WORDS];

impl AdjBits {
    /// The degree masks of a graph given as its CSR adjacency block
    /// (`offsets` holds one entry per vertex plus one) and, unless it
    /// is too large for quadratic memory,
    /// its adjacency matrix (the matcher then falls back to neighbour
    /// scans).
    pub(crate) fn from_csr(offsets: &[u32], adjacency: &[(VertexId, EdgeId)]) -> AdjBits {
        let n = offsets.len() - 1;
        let words = row_width(n);
        let neighbors = |v: usize| &adjacency[offsets[v] as usize..offsets[v + 1] as usize];
        let classes = (0..n).map(|v| degree_class(neighbors(v).len()) + 1).max().unwrap_or(0);
        let rows = if n <= ADJ_BITS_MAX_VERTICES { n * words } else { 0 };
        let mut bits = vec![0u64; classes * words + rows];
        // One pass over the neighbor lists: each vertex's row, and its
        // bit in the mask of its exact degree class; a suffix OR then
        // turns "degree = c" into "degree ≥ c".
        let (deg_ge, matrix) = bits.split_at_mut(classes * words);
        for v in 0..n {
            let neighbors = neighbors(v);
            deg_ge[degree_class(neighbors.len()) * words + v / 64] |= 1 << (v % 64);
            if let Some(row) = matrix.get_mut(v * words..(v + 1) * words) {
                for &(u, _) in neighbors {
                    row[u.index() / 64] |= 1 << (u.index() % 64);
                }
            }
        }
        for i in (0..classes.saturating_sub(1) * words).rev() {
            deg_ge[i] |= deg_ge[i + words];
        }
        AdjBits { vertices: n, words, classes, bits: bits.into_boxed_slice() }
    }

    /// Whether the adjacency matrix was built (the target is within
    /// `ADJ_BITS_MAX_VERTICES`).
    #[inline]
    fn has_matrix(&self) -> bool {
        self.vertices <= ADJ_BITS_MAX_VERTICES
    }

    /// The mask of degree class `c`, or `None` above the stored classes
    /// (an empty mask).
    #[inline]
    fn class_mask(&self, c: usize) -> Option<&[u64]> {
        (c < self.classes).then(|| &self.bits[c * self.words..(c + 1) * self.words])
    }

    /// The adjacency matrix, `vertices × words`.
    #[inline]
    fn rows(&self) -> &[u64] {
        &self.bits[self.classes * self.words..]
    }

    /// Degree-sequence domination: every embedding maps a pattern vertex
    /// of degree `d` onto a target vertex of degree ≥ `d` (neighbors stay
    /// injective), so the target must offer at least as many vertices of
    /// degree ≥ `c` as the pattern demands, in every class `c`. Pooling
    /// the top class only merges demands that must hold jointly anyway.
    fn covers(&self, demand: &[u32; DEGREE_CLASSES]) -> bool {
        demand.iter().enumerate().all(|(c, &need)| {
            need == 0
                || self
                    .class_mask(c)
                    .is_some_and(|mask| need <= mask.iter().map(|w| w.count_ones()).sum::<u32>())
        })
    }
}

/// Targets above this size skip the dense edge-id grid (quadratic
/// `u32` memory, 16× an [`AdjBits`] row set); `edge_between` scans take
/// over, exactly as for the bitset.
const EDGE_GRID_MAX_VERTICES: usize = 1024;

/// Dense target edge lookup: the edge id connecting each vertex pair,
/// so cost-accounting visitors resolve the edge an adjacency bit
/// implies in O(1) instead of rescanning a neighbor list. Rebuilding in
/// place keeps the storage allocated across targets.
#[derive(Clone, Debug, Default)]
pub struct EdgeGrid {
    stride: usize,
    ids: Vec<u32>,
}

impl EdgeGrid {
    /// Empty storage; populate with [`EdgeGrid::rebuild`].
    pub fn new() -> Self {
        EdgeGrid::default()
    }

    /// Rebuilds the grid for `g`, reusing the id storage. Returns
    /// `false` (leaving the grid unusable) when `g` is too large for
    /// quadratic memory; callers then fall back to `edge_between`.
    pub fn rebuild(&mut self, g: &LabeledGraph) -> bool {
        let n = g.vertex_count();
        if n > EDGE_GRID_MAX_VERTICES {
            return false;
        }
        self.stride = n;
        self.ids.clear();
        self.ids.resize(n * n, u32::MAX);
        for (i, e) in g.edges().iter().enumerate() {
            let (u, v) = (e.source.index(), e.target.index());
            self.ids[u * n + v] = i as u32;
            self.ids[v * n + u] = i as u32;
        }
        true
    }

    /// The edge between `u` and `v`, if any.
    #[inline]
    pub fn get(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let id = self.ids[u.index() * self.stride + v.index()];
        (id != u32::MAX).then_some(EdgeId(id))
    }
}

/// Reusable DFS state of one search: the partial map, the used-vertex
/// bitset and the embedding handed to the visitor. One buffer set serves
/// any number of sequential [`SubgraphMatcher::search_with_buffers`]
/// calls of any size (buffers re-size per call), making the steady-state
/// search allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SearchBuffers {
    map: Vec<VertexId>,
    /// Target vertices already mapped, one bit each.
    used: Vec<u64>,
    embedding: Embedding,
}

impl SearchBuffers {
    /// Empty buffers; they size themselves per search.
    pub fn new() -> Self {
        SearchBuffers::default()
    }

    #[inline]
    fn is_used(&self, t: VertexId) -> bool {
        (self.used[t.index() / 64] >> (t.index() % 64)) & 1 == 1
    }

    /// Flips `t`'s used bit (set on assign, cleared on backtrack).
    #[inline]
    fn toggle_used(&mut self, t: VertexId) {
        self.used[t.index() / 64] ^= 1 << (t.index() % 64);
    }
}

/// Word-parallel subgraph matcher for one `(pattern, target)` pair.
///
/// The matcher precomputes a connected matching order over the pattern
/// once and can then run several searches. The order is guided by the
/// target (see [`MatchPlan::rebuild`]): vertices with many
/// already-placed neighbors go first so every structural constraint
/// fires as early as possible, with rare-labeled and high-degree
/// vertices breaking ties.
pub struct SubgraphMatcher<'a> {
    pattern: &'a LabeledGraph,
    target: &'a LabeledGraph,
    config: IsoConfig,
    /// The plan the matcher runs: built for this pair, or borrowed from
    /// a caller amortizing one plan across many targets.
    plan: Cow<'a, MatchPlan>,
}

/// The borrow-resolved search state threaded through the DFS.
#[derive(Clone, Copy)]
struct SearchCtx<'s> {
    pattern: &'s LabeledGraph,
    target: &'s LabeledGraph,
    config: IsoConfig,
    plan: &'s MatchPlan,
    adj: &'s AdjBits,
}

impl<'a> SubgraphMatcher<'a> {
    /// Builds a matcher; cost is near-linear in the pattern size. The
    /// target's bit rows are its own ([`LabeledGraph::bits`]).
    pub fn new(pattern: &'a LabeledGraph, target: &'a LabeledGraph, config: IsoConfig) -> Self {
        let mut plan = MatchPlan::new();
        plan.rebuild(pattern, target, config);
        SubgraphMatcher { pattern, target, config, plan: Cow::Owned(plan) }
    }

    /// A matcher over a caller-owned plan, already rebuilt for
    /// `(pattern, target, config)` (or for `pattern` alone under
    /// [`IsoConfig::STRUCTURE`], where the order is target-independent).
    /// Runs the exact same DFS as [`SubgraphMatcher::new`] without
    /// paying the setup — the amortization behind `pis-core`'s
    /// `VerifyScratch`.
    pub fn with_parts(
        pattern: &'a LabeledGraph,
        target: &'a LabeledGraph,
        config: IsoConfig,
        plan: &'a MatchPlan,
    ) -> Self {
        debug_assert_eq!(plan.len(), pattern.vertex_count(), "plan built for another pattern");
        SubgraphMatcher { pattern, target, config, plan: Cow::Borrowed(plan) }
    }

    fn ctx(&self) -> SearchCtx<'_> {
        SearchCtx {
            pattern: self.pattern,
            target: self.target,
            config: self.config,
            plan: &self.plan,
            adj: self.target.bits(),
        }
    }

    /// Runs the search, driving `visitor`.
    pub fn search<V: MatchVisitor + ?Sized>(&self, visitor: &mut V) {
        self.search_with_buffers(&mut SearchBuffers::new(), visitor);
    }

    /// [`SubgraphMatcher::search`] with caller-owned DFS buffers, so
    /// repeated searches allocate nothing. Generic over the visitor so
    /// concrete visitors get a monomorphized DFS; `&mut dyn MatchVisitor`
    /// works too.
    pub fn search_with_buffers<V: MatchVisitor + ?Sized>(
        &self,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) {
        let ctx = self.ctx();
        let n = self.pattern.vertex_count();
        if n > self.target.vertex_count()
            || self.pattern.edge_count() > self.target.edge_count()
            || !ctx.adj.covers(&ctx.plan.degree_demand)
        {
            return;
        }
        let words = ctx.adj.words;
        bufs.map.clear();
        bufs.map.resize(n, VertexId(u32::MAX));
        bufs.used.clear();
        bufs.used.resize(words, 0);
        if !ctx.adj.has_matrix() {
            let _ = ctx.scan_recurse(0, bufs, visitor);
            return;
        }
        let _ = match words {
            1 => WordDfs::<1>::new(ctx).recurse(0, bufs, visitor),
            2 => WordDfs::<2>::new(ctx).recurse(0, bufs, visitor),
            4 => WordDfs::<4>::new(ctx).recurse(0, bufs, visitor),
            _ => WordDfs::<MAX_ROW_WORDS>::new(ctx).recurse(0, bufs, visitor),
        };
    }

    /// Calls `f` for every embedding; stop early by returning `Break`.
    pub fn for_each(&self, f: impl FnMut(&Embedding) -> ControlFlow<()>) {
        let mut visitor = CollectVisitor { on_complete: f };
        self.search(&mut visitor);
    }

    /// The first embedding in deterministic search order, if any.
    pub fn find_first(&self) -> Option<Embedding> {
        let mut found = None;
        self.for_each(|e| {
            found = Some(e.clone());
            ControlFlow::Break(())
        });
        found
    }

    /// Whether at least one embedding exists.
    pub fn exists(&self) -> bool {
        self.find_first().is_some()
    }

    /// Number of embeddings, stopping at `limit` if given.
    pub fn count(&self, limit: Option<usize>) -> usize {
        let mut n = 0usize;
        self.for_each(|_| {
            n += 1;
            if limit.is_some_and(|l| n >= l) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        n
    }

    /// All embeddings, in deterministic search order.
    pub fn all(&self) -> Vec<Embedding> {
        let mut out = Vec::new();
        self.for_each(|e| {
            out.push(e.clone());
            ControlFlow::Continue(())
        });
        out
    }
}

impl SearchCtx<'_> {
    /// The label constraints of `config` for `p → t`, given the images
    /// of the depth's checked neighbors (their edges to `t` exist).
    #[inline(always)]
    fn labels_match(&self, depth: usize, p: VertexId, t: VertexId, map: &[VertexId]) -> bool {
        (!self.config.respect_vertex_labels
            || self.pattern.vertex(p).label == self.target.vertex(t).label)
            && (!self.config.respect_edge_labels || self.edge_labels_match(depth, t, map))
    }

    fn edge_labels_match(&self, depth: usize, t: VertexId, map: &[VertexId]) -> bool {
        self.plan.checks(depth).iter().all(|&(q, pe)| {
            self.target.edge_between(map[q.index()], t).is_some_and(|te| {
                self.pattern.edge(pe).attr.label == self.target.edge(te).attr.label
            })
        })
    }

    /// Offers `p → t` to the visitor and, if it accepts, runs the next
    /// depth (`next`) with `t` mapped and used, then undoes both.
    #[inline(always)]
    fn descend<V: MatchVisitor + ?Sized>(
        &self,
        p: VertexId,
        t: VertexId,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
        next: impl FnOnce(&mut SearchBuffers, &mut V) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !visitor.assign(p, t) {
            return ControlFlow::Continue(());
        }
        bufs.map[p.index()] = t;
        bufs.toggle_used(t);
        let flow = next(bufs, visitor);
        bufs.toggle_used(t);
        bufs.map[p.index()] = VertexId(u32::MAX);
        visitor.unassign(p, t);
        flow
    }

    /// A complete embedding: hand it to the visitor. One reusable buffer
    /// for every complete embedding: `clone_from` keeps its allocation
    /// alive across hits.
    #[inline]
    fn complete<V: MatchVisitor + ?Sized>(
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) -> ControlFlow<()> {
        bufs.embedding.map.clone_from(&bufs.map);
        visitor.complete(&bufs.embedding)
    }

    /// The neighbour-scan DFS for targets without an adjacency matrix:
    /// each candidate is probed against the used set, its degree, the
    /// labels and every check edge (`edge_between`), and its free
    /// neighbours are counted by scanning its neighbour list.
    fn scan_recurse<V: MatchVisitor + ?Sized>(
        &self,
        depth: usize,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) -> ControlFlow<()> {
        if depth == self.plan.len() {
            return Self::complete(bufs, visitor);
        }
        let p = self.plan.vertex(depth);
        match self.plan.anchor(depth) {
            Some(q) => {
                // Candidates: neighbors of the image of the anchor. The
                // slice borrows the target, disjoint from the buffers.
                let image = bufs.map[q.index()];
                for &(t, _) in self.target.neighbors(image) {
                    self.scan_candidate(depth, p, t, bufs, visitor)?;
                }
            }
            None => {
                for t in 0..self.target.vertex_count() as u32 {
                    self.scan_candidate(depth, p, VertexId(t), bufs, visitor)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn scan_candidate<V: MatchVisitor + ?Sized>(
        &self,
        depth: usize,
        p: VertexId,
        t: VertexId,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) -> ControlFlow<()> {
        if bufs.is_used(t) || self.target.degree(t) < self.pattern.degree(p) {
            return ControlFlow::Continue(());
        }
        let adjacent = self
            .plan
            .checks(depth)
            .iter()
            .all(|&(q, _)| self.target.has_edge(bufs.map[q.index()], t));
        if !adjacent || !self.labels_match(depth, p, t, &bufs.map) {
            return ControlFlow::Continue(());
        }
        // One-level lookahead: `p` still has `later(depth)` neighbors to
        // place, and injectivity forces each onto a distinct unused
        // neighbor of `t`.
        let need = self.plan.later(depth).len();
        if need > 0
            && self
                .target
                .neighbors(t)
                .iter()
                .filter(|&&(u, _)| !bufs.is_used(u))
                .take(need)
                .count()
                < need
        {
            return ControlFlow::Continue(());
        }
        self.descend(p, t, bufs, visitor, |bufs, visitor| {
            self.scan_recurse(depth + 1, bufs, visitor)
        })
    }
}

/// The word-parallel DFS over rows of `N` words (see the module docs).
/// One generic body serves every row width `row_width` hands out, so a
/// target of at most 64 vertices runs it on single words. Rows, masks and
/// the used set are read in place and the AND chains fold word by word,
/// so a depth's stack frame holds one `N`-word set, its candidates.
struct WordDfs<'s, const N: usize> {
    ctx: SearchCtx<'s>,
    /// The target's adjacency matrix.
    rows: &'s [u64],
}

impl<'s, const N: usize> WordDfs<'s, N> {
    fn new(ctx: SearchCtx<'s>) -> Self {
        WordDfs { ctx, rows: ctx.adj.rows() }
    }

    /// The adjacency row of `v` (rows are `N` words apart).
    #[inline(always)]
    fn row(&self, v: VertexId) -> &[u64] {
        &self.rows[v.index() * N..v.index() * N + N]
    }

    /// The vertices of degree ≥ `d` (`d` above the top class reads the
    /// top class, a superset; above the target's highest degree, none).
    #[inline(always)]
    fn degree_at_least(&self, d: usize) -> &[u64] {
        self.ctx.adj.class_mask(degree_class(d)).unwrap_or(&EMPTY_MASK[..N])
    }

    /// Depth `depth` of the DFS; `bufs.used` holds the images of the
    /// shallower depths.
    fn recurse<V: MatchVisitor + ?Sized>(
        &self,
        depth: usize,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) -> ControlFlow<()> {
        let SearchCtx { pattern, target, plan, .. } = self.ctx;
        if depth == plan.len() {
            return SearchCtx::complete(bufs, visitor);
        }
        let p = plan.vertex(depth);
        // The depth's candidate set, held by value in `N` words (one
        // register at `N = 1`): degree class, minus the used vertices,
        // intersected with every checked neighbor's row.
        let deg = self.degree_at_least(pattern.degree(p));
        let used = &bufs.used[..N];
        let mut cand = [0u64; N];
        for ((word, &d), &u) in cand.iter_mut().zip(deg).zip(used) {
            *word = d & !u;
        }
        for &(q, _) in plan.checks(depth) {
            let row = self.row(bufs.map[q.index()]);
            for (word, &bits) in cand.iter_mut().zip(row) {
                *word &= bits;
            }
        }
        if cand.iter().all(|&word| word == 0) {
            return ControlFlow::Continue(());
        }
        match plan.anchor(depth) {
            Some(q) => {
                // The anchor's row is in the AND chain, so every member
                // is a neighbor of its image; walking that neighbor list
                // keeps the candidate order of the neighbour-scan DFS.
                for &(t, _) in target.neighbors(bufs.map[q.index()]) {
                    if (cand[t.index() / 64] >> (t.index() % 64)) & 1 == 1 {
                        self.try_candidate(depth, p, t, bufs, visitor)?;
                    }
                }
            }
            None => {
                for (i, &word) in cand.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let t = VertexId((i * 64) as u32 + word.trailing_zeros());
                        word &= word - 1;
                        self.try_candidate(depth, p, t, bufs, visitor)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn try_candidate<V: MatchVisitor + ?Sized>(
        &self,
        depth: usize,
        p: VertexId,
        t: VertexId,
        bufs: &mut SearchBuffers,
        visitor: &mut V,
    ) -> ControlFlow<()> {
        let SearchCtx { pattern, target, plan, .. } = self.ctx;
        let degree = pattern.degree(p);
        if (degree >= DEGREE_CLASSES && target.degree(t) < degree)
            || !self.ctx.labels_match(depth, p, t, &bufs.map)
        {
            return ControlFlow::Continue(());
        }
        // Lookahead with forward check, over degree thresholds: the `j + 1`
        // later neighbors of `p` of degree ≥ deg(later[j]) (`later` runs
        // highest degree first) need as many distinct free neighbors of
        // `t` inside that degree class. The last threshold is the plain
        // free-neighbor count; each single threshold asks `r` for one
        // free neighbor that can host it.
        let row = self.row(t);
        let used = &bufs.used[..N];
        for (j, &r) in plan.later(depth).iter().enumerate() {
            let deg = self.degree_at_least(pattern.degree(r));
            let free: u32 = (0..N).map(|i| (row[i] & !used[i] & deg[i]).count_ones()).sum();
            if free as usize <= j {
                return ControlFlow::Continue(());
            }
        }
        self.ctx
            .descend(p, t, bufs, visitor, |bufs, visitor| self.recurse(depth + 1, bufs, visitor))
    }
}

/// Convenience: does `pattern ⊆ target` (structure-only by default)?
pub fn is_subgraph(pattern: &LabeledGraph, target: &LabeledGraph, config: IsoConfig) -> bool {
    SubgraphMatcher::new(pattern, target, config).exists()
}

/// Convenience: all embeddings of `pattern` into `target`.
pub fn embeddings(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    config: IsoConfig,
) -> Vec<Embedding> {
    SubgraphMatcher::new(pattern, target, config).all()
}

/// All automorphisms of `g` (label-respecting self-embeddings).
///
/// Because `g` is finite and the mapping is injective on an equal number
/// of vertices and preserves all edges, every such embedding is an
/// automorphism.
pub fn automorphisms(g: &LabeledGraph) -> Vec<Embedding> {
    embeddings(g, g, IsoConfig::LABELED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{
        complete_graph, cycle_graph, path_graph, star_graph, EdgeAttr, GraphBuilder, VertexAttr,
    };
    use crate::ids::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    #[test]
    fn path_in_cycle() {
        let p = path_graph(3, l(0), l(0));
        let c = cycle_graph(6, l(0), l(0));
        assert!(is_subgraph(&p, &c, IsoConfig::STRUCTURE));
        // 6 starting points × 2 directions = 12 embeddings.
        assert_eq!(embeddings(&p, &c, IsoConfig::STRUCTURE).len(), 12);
    }

    #[test]
    fn cycle_not_in_path() {
        let c = cycle_graph(3, l(0), l(0));
        let p = path_graph(5, l(0), l(0));
        assert!(!is_subgraph(&c, &p, IsoConfig::STRUCTURE));
    }

    #[test]
    fn larger_pattern_never_matches() {
        let big = path_graph(7, l(0), l(0));
        let small = path_graph(3, l(0), l(0));
        assert!(!is_subgraph(&big, &small, IsoConfig::STRUCTURE));
    }

    #[test]
    fn non_induced_semantics() {
        // A 3-path maps into a triangle even though the triangle has the
        // extra closing edge (monomorphism, not induced).
        let p = path_graph(3, l(0), l(0));
        let t = complete_graph(3, l(0), l(0));
        assert!(is_subgraph(&p, &t, IsoConfig::STRUCTURE));
        assert_eq!(embeddings(&p, &t, IsoConfig::STRUCTURE).len(), 6);
    }

    #[test]
    fn vertex_labels_respected_when_asked() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VertexAttr::labeled(l(1)));
        let v = b.add_vertex(VertexAttr::labeled(l(2)));
        b.add_edge(u, v, EdgeAttr::labeled(l(0))).unwrap();
        let pattern = b.build();

        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VertexAttr::labeled(l(2)));
        let v = b.add_vertex(VertexAttr::labeled(l(2)));
        b.add_edge(u, v, EdgeAttr::labeled(l(0))).unwrap();
        let target = b.build();

        assert!(is_subgraph(&pattern, &target, IsoConfig::STRUCTURE));
        assert!(!is_subgraph(&pattern, &target, IsoConfig::LABELED));
    }

    #[test]
    fn edge_labels_respected_when_asked() {
        let p = path_graph(2, l(0), l(1));
        let t = path_graph(2, l(0), l(2));
        assert!(is_subgraph(&p, &t, IsoConfig::STRUCTURE));
        assert!(!is_subgraph(
            &p,
            &t,
            IsoConfig { respect_vertex_labels: false, respect_edge_labels: true }
        ));
    }

    #[test]
    fn embedding_edge_image() {
        let p = path_graph(2, l(0), l(0));
        let c = cycle_graph(4, l(0), l(0));
        let e = SubgraphMatcher::new(&p, &c, IsoConfig::STRUCTURE).find_first().unwrap();
        let te = e.edge_image(&p, &c, EdgeId(0));
        let edge = c.edge(te);
        assert!(edge.is_incident(e.vertex_image(VertexId(0))));
        assert!(edge.is_incident(e.vertex_image(VertexId(1))));
    }

    #[test]
    fn automorphisms_of_cycle_form_dihedral_group() {
        let c = cycle_graph(6, l(0), l(0));
        assert_eq!(automorphisms(&c).len(), 12); // D6: 6 rotations × 2 reflections
        let p = path_graph(4, l(0), l(0));
        assert_eq!(automorphisms(&p).len(), 2); // identity + reversal
        let k = complete_graph(4, l(0), l(0));
        assert_eq!(automorphisms(&k).len(), 24); // S4
        let s = star_graph(3, l(0), l(0));
        assert_eq!(automorphisms(&s).len(), 6); // S3 on the leaves
    }

    #[test]
    fn count_with_limit_stops_early() {
        let p = path_graph(2, l(0), l(0));
        let k = complete_graph(6, l(0), l(0));
        let m = SubgraphMatcher::new(&p, &k, IsoConfig::STRUCTURE);
        assert_eq!(m.count(Some(5)), 5);
        assert_eq!(m.count(None), 30); // 15 edges × 2 directions
    }

    #[test]
    fn empty_pattern_has_one_empty_embedding() {
        let p = LabeledGraph::default();
        let t = path_graph(3, l(0), l(0));
        let all = embeddings(&p, &t, IsoConfig::STRUCTURE);
        assert_eq!(all.len(), 1);
        assert!(all[0].vertex_map().is_empty());
    }

    #[test]
    fn disconnected_pattern_matches_injectively() {
        // Two isolated pattern vertices into a 2-path: 2 injective maps.
        let mut b = GraphBuilder::new();
        b.add_vertex(VertexAttr::labeled(l(0)));
        b.add_vertex(VertexAttr::labeled(l(0)));
        let p = b.build();
        let t = path_graph(2, l(0), l(0));
        assert_eq!(embeddings(&p, &t, IsoConfig::STRUCTURE).len(), 2);
    }

    #[test]
    fn branch_and_bound_visitor_prunes() {
        // A visitor that rejects mapping pattern v0 onto target v0 sees
        // only the embeddings avoiding that assignment.
        let p = path_graph(2, l(0), l(0));
        let t = path_graph(2, l(0), l(0));
        struct CountingReject(usize);
        impl MatchVisitor for CountingReject {
            fn assign(&mut self, p: VertexId, t: VertexId) -> bool {
                !(p == VertexId(0) && t == VertexId(0))
            }
            fn unassign(&mut self, _p: VertexId, _t: VertexId) {}
            fn complete(&mut self, _e: &Embedding) -> ControlFlow<()> {
                self.0 += 1;
                ControlFlow::Continue(())
            }
        }
        let mut v = CountingReject(0);
        SubgraphMatcher::new(&p, &t, IsoConfig::STRUCTURE).search(&mut v);
        // Unpruned there are 2 embeddings; the one mapping v0->v0 is cut.
        assert_eq!(v.0, 1);
    }

    #[test]
    fn sorted_image_dedups_automorphic_embeddings() {
        let p = path_graph(3, l(0), l(0));
        let c = cycle_graph(6, l(0), l(0));
        let sorted_image = |emb: &Embedding| {
            let mut image = emb.vertex_map().to_vec();
            image.sort_unstable();
            image
        };
        let mut images: Vec<Vec<VertexId>> =
            embeddings(&p, &c, IsoConfig::STRUCTURE).iter().map(sorted_image).collect();
        images.sort();
        images.dedup();
        assert_eq!(images.len(), 6); // 6 distinct 3-vertex windows on C6
    }

    #[test]
    fn borrowed_parts_run_the_same_search() {
        // A structure plan built from the pattern alone must enumerate
        // the exact same embeddings in the exact same order as the
        // owning constructor — across several targets sharing one plan
        // and one buffer set.
        let p = path_graph(3, l(0), l(0));
        let mut plan = MatchPlan::new();
        plan.rebuild_for_pattern(&p);
        let mut bufs = SearchBuffers::new();
        for t in [
            cycle_graph(6, l(0), l(0)),
            complete_graph(4, l(0), l(0)),
            star_graph(4, l(0), l(0)),
            path_graph(2, l(0), l(0)), // pattern larger than target
        ] {
            let borrowed = SubgraphMatcher::with_parts(&p, &t, IsoConfig::STRUCTURE, &plan);
            let mut got = Vec::new();
            let mut collect = CollectVisitor {
                on_complete: |e: &Embedding| {
                    got.push(e.clone());
                    ControlFlow::Continue(())
                },
            };
            borrowed.search_with_buffers(&mut bufs, &mut collect);
            assert_eq!(got, embeddings(&p, &t, IsoConfig::STRUCTURE));
        }
    }

    #[test]
    fn bits_follow_the_adjacency() {
        // Rows hold exactly the edges, class masks exactly the vertices
        // of at least that degree, and classes above the highest degree
        // are not stored.
        let mut spoked = GraphBuilder::new();
        let vs = spoked.add_vertices(70, VertexAttr::labeled(l(0)));
        for &v in &vs[1..20] {
            spoked.add_edge(vs[0], v, EdgeAttr::labeled(l(0))).unwrap();
        }
        for w in vs[20..].windows(2) {
            spoked.add_edge(w[0], w[1], EdgeAttr::labeled(l(0))).unwrap();
        }
        let graphs = [
            LabeledGraph::default(),
            path_graph(1, l(0), l(0)),
            cycle_graph(7, l(0), l(0)),
            star_graph(5, l(0), l(0)),
            spoked.build(),
        ];
        for g in &graphs {
            let bits = g.bits();
            let max_degree = g.vertex_ids().map(|v| g.degree(v)).max();
            assert_eq!(bits.classes, max_degree.map_or(0, |d| degree_class(d) + 1));
            assert_eq!(bits.words, row_width(g.vertex_count()));
            let bit = |set: &[u64], v: VertexId| (set[v.index() / 64] >> (v.index() % 64)) & 1 == 1;
            for c in 0..DEGREE_CLASSES {
                for v in g.vertex_ids() {
                    let member = bits.class_mask(c).is_some_and(|mask| bit(mask, v));
                    assert_eq!(member, degree_class(g.degree(v)) >= c, "class {c}, vertex {v:?}");
                }
            }
            for u in g.vertex_ids() {
                let row = &bits.rows()[u.index() * bits.words..(u.index() + 1) * bits.words];
                for v in g.vertex_ids() {
                    assert_eq!(bit(row, v), g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn plan_rebuild_matches_fresh_plan() {
        // Rebuilding a dirty plan in place yields the same order, checks
        // and anchors as a fresh one.
        let graphs =
            [cycle_graph(5, l(0), l(1)), star_graph(4, l(2), l(0)), path_graph(6, l(0), l(0))];
        let mut reused = MatchPlan::new();
        for g in &graphs {
            reused.rebuild_for_pattern(g);
            let mut fresh = MatchPlan::new();
            fresh.rebuild_for_pattern(g);
            assert_eq!(reused.len(), fresh.len());
            for d in 0..fresh.len() {
                assert_eq!(reused.vertex(d), fresh.vertex(d));
                assert_eq!(reused.anchor(d), fresh.anchor(d));
                assert_eq!(reused.checks(d), fresh.checks(d));
            }
        }
    }
}
