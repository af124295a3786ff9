//! Cache-resident trie layout: a level-major arena with an iterative
//! frontier range descent.
//!
//! The paper: "For the mutation distance, we can use a trie to
//! accommodate the sequential representations of the labeled graphs."
//! Every fragment of one equivalence class has the same vector length,
//! so the trie has uniform depth. A pointer trie — one heap node per
//! prefix — would make every descent chase child allocations scattered
//! across the heap and re-evaluate the per-position cost for every child
//! even though a level's children repeat a handful of labels.
//!
//! [`FlatTrie`] lays the trie out in contiguous, level-major arrays:
//!
//! * all nodes of one level are adjacent (`level_start` delimits
//!   levels), and a node's children are a contiguous run in the next
//!   level addressed by CSR-style `child_start`/`child_len` offsets;
//! * node labels live in one SoA `labels` array scanned
//!   word-contiguously during descent, plus a per-level distinct-label
//!   alphabet and a per-node `label_idx` into it;
//! * leaf posting lists are concatenated into one `postings` array in
//!   entry order — which makes **every** node's subtree postings a
//!   contiguous range (`sub_start`/`sub_len`), not just a leaf's;
//! * every *dense* leaf — one that holds at least as many postings as
//!   the 64-slot words its slot span covers — also keeps its postings
//!   as a bit set, in one derived `bitmap` block (see
//!   [`FlatTrie::fold`]).
//!
//! The arena is a function of the class's content — its distinct
//! sequences in sorted order, each with its ascending postings — and
//! one builder, `TrieBuilder`, lays every arena out from that stream:
//! a bulk build from rows, a merge, and a snapshot load, which stores a
//! class as the stream (`FlatTrie::for_each_sequence` walks it back
//! out). No column is persisted, so this module alone knows the layout.
//!
//! [`FlatTrie::range_query`] — the one descent, answering one probe —
//! replaces recursion with an iterative level-by-level frontier: every
//! level's alphabet is priced up front into one cost row through a
//! slice cost callback (see `MutationDistance::position_costs_into`),
//! surviving children are appended to the next frontier, and the
//! descent **stops early at the first level from which every remaining
//! level prices to zero for this probe** (a level whose alphabet is the
//! probe's label alone, say), emitting whole subtrees instead of
//! walking cost-free levels. A trie holds no level that can never
//! price: the index stores only the slots its distance prices
//! (`IndexDistance::slots`). All frontier state lives in a caller-owned
//! [`TrieFrontier`], so steady-state descents allocate nothing. A
//! path's cost is the f64 sum of its per-position costs taken in
//! position order (skipped levels contribute exactly `+0.0`), so each
//! reported distance is bit-identical to summing the stored sequence's
//! costs from the definition.

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

use std::cmp::Ordering;
use std::ops::Range;

use pis_graph::budget::{BudgetState, CheckpointSite};
use pis_graph::{GraphId, Label};

/// Lane width of the unrolled frontier expansion: child costs are
/// gathered into a buffer of this many slots, added and compared as
/// lanes, and survivors compacted through a bit mask — the
/// `push`-per-child loop only runs on the sub-lane tail. Eight f64
/// lanes span one cache line and match the widest vector registers in
/// common deployment (AVX-512); narrower ISAs simply split the lanes.
const LANES: usize = 8;

/// Expands one contiguous child range `cs..ce` in [`LANES`]-wide chunks:
/// gather each child's cost slot (`table[idx[child]]`), add the
/// inherited `acc`, compare against `sigma` as lanes, then compact the
/// survivor mask in ascending-child order (bit scan instead of a branch
/// per child). Survivors' `(child, cost)` pairs are appended in exactly
/// the order a child-by-child loop would produce, and each cost is the
/// same single `acc + slot` addition — byte-identical output.
#[inline]
fn expand_children_wide(
    idx: &[u32],
    table: &[f64],
    (cs, ce): (u32, u32),
    acc: f64,
    sigma: f64,
    out_nodes: &mut Vec<u32>,
    out_costs: &mut Vec<f64>,
) {
    let mut lane = [0.0f64; LANES];
    let mut child = cs as usize;
    let end = ce as usize;
    while child + LANES <= end {
        for (k, slot) in lane.iter_mut().enumerate() {
            *slot = acc + table[idx[child + k] as usize];
        }
        let mut mask = 0u32;
        for (k, &c) in lane.iter().enumerate() {
            mask |= u32::from(c <= sigma) << k;
        }
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            out_nodes.push((child + k) as u32);
            out_costs.push(lane[k]);
        }
        child += LANES;
    }
    while child < end {
        let c = acc + table[idx[child] as usize];
        if c <= sigma {
            out_nodes.push(child as u32);
            out_costs.push(c);
        }
        child += 1;
    }
}

/// A frozen fixed-depth trie over label sequences (level-major arena).
/// Two tries are equal when every arena column is — the layout is a
/// function of the stored entries alone, not of how they arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatTrie {
    depth: usize,
    /// Node index range of level `l` is `level_start[l]..level_start[l+1]`
    /// (empty vec when `depth == 0`).
    level_start: Vec<u32>,
    /// Per node: the label on the edge from its parent.
    labels: Vec<Label>,
    /// Per node: absolute index of its label's cost slot (see
    /// `alphabet`; slots are level-major like everything else).
    label_idx: Vec<u32>,
    /// Per internal node: its child run in the next level (zeros for
    /// leaves, whose "children" are the posting range below).
    child_start: Vec<u32>,
    /// Per internal node: child run length.
    child_len: Vec<u32>,
    /// Per node: the contiguous `postings` range covered by its whole
    /// subtree (for a leaf: its own posting list).
    sub_start: Vec<u32>,
    sub_len: Vec<u32>,
    /// All `(sequence, graph)` entries' graph ids, in sorted entry
    /// order — simultaneously the concatenation of all leaf posting
    /// lists and of every subtree range.
    postings: Vec<GraphId>,
    /// Distinct labels of level `l`:
    /// `alphabet[alphabet_start[l]..alphabet_start[l+1]]`, sorted
    /// ascending. Query-time level costs are computed into a buffer
    /// with this exact layout.
    alphabet_start: Vec<u32>,
    alphabet: Vec<Label>,
    /// Derived from `postings`, never persisted: leaf `k`'s postings as
    /// a bit set are `bitmap[bitmap_start[k]..bitmap_start[k + 1]]`,
    /// word `i` holding slots `64 * (w + i)..` where `w` is the word of
    /// the leaf's first posting. An empty range marks a sparse leaf,
    /// whose postings fold one by one. Leaves are the last level's nodes
    /// (the virtual root for a depth-0 trie), so the table has one more
    /// cell than there are leaves.
    bitmap_start: Vec<u32>,
    bitmap: Vec<u64>,
}

/// Reusable state for [`FlatTrie::range_query`]: the probe's per-level
/// cost rows and the frontier with its next-level double buffer. One
/// scratch serves any number of sequential queries against tries of
/// any shape; steady-state queries allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct TrieFrontier {
    /// The probe's cost of every alphabet slot, in the alphabet's own
    /// level-major layout, so a node's `label_idx` indexes it directly.
    costs: Vec<f64>,
    /// Frontier nodes of the current level and their accumulated costs.
    nodes: Vec<u32>,
    accs: Vec<f64>,
    /// Double buffers for the next level.
    next_nodes: Vec<u32>,
    next_accs: Vec<f64>,
}

impl TrieFrontier {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        TrieFrontier::default()
    }
}

/// The one arena builder: every [`FlatTrie`] — built from rows, merged,
/// or decoded from a snapshot — is made by feeding it its class's
/// distinct sequences in sorted order:
///
/// * [`TrieBuilder::open`] starts the next sequence, given as the level
///   at which it leaves its predecessor's path (0 for the first) and its
///   labels from that level down — one label per node it opens;
/// * [`TrieBuilder::post`] adds the sequence's postings, strictly
///   ascending.
///
/// [`TrieBuilder::entry`] takes whole `(sequence, graph)` entries in
/// sorted order instead and finds the level itself, and
/// [`FlatTrie::for_each_sequence`] walks an arena back out as the same
/// stream — the form a snapshot stores a class in, so the layout is
/// known to this module alone. The builder trusts its input: the first
/// sequence splits at level 0 and every later one below the depth, with
/// a label at its split greater than its predecessor's, and every
/// sequence gets a posting. The snapshot decoder checks exactly that
/// before it feeds anything.
pub(crate) struct TrieBuilder {
    depth: usize,
    /// The sequence last opened.
    path: Vec<Label>,
    /// Per level, in node order: each node's label, first posting and
    /// child count — the level-major columns before they are joined.
    levels: Vec<Vec<(Label, u32, u32)>>,
    postings: Vec<GraphId>,
}

impl TrieBuilder {
    /// An empty builder of a `depth`-deep trie, with room for `postings`.
    pub(crate) fn new(depth: usize, postings: usize) -> Self {
        TrieBuilder {
            depth,
            path: vec![Label(0); depth],
            levels: vec![Vec::new(); depth],
            postings: Vec::with_capacity(postings),
        }
    }

    /// Starts the next sequence: its predecessor's labels above level
    /// `split`, then `tail`, which opens one node on every level from
    /// `split` down (none in a depth-0 trie).
    pub(crate) fn open(&mut self, split: usize, tail: &[Label]) {
        debug_assert_eq!(split + tail.len(), self.depth, "a sequence spans the depth");
        let first = self.postings.len() as u32;
        for (l, &label) in (split..).zip(tail) {
            self.path[l] = label;
            self.levels[l].push((label, first, 0));
            // The open node one level up is the parent (the first
            // sequence opens every level, so there always is one).
            if let Some(parent) = l.checked_sub(1).and_then(|up| self.levels[up].last_mut()) {
                parent.2 += 1;
            }
        }
    }

    /// Adds a posting of the sequence last opened.
    pub(crate) fn post(&mut self, g: GraphId) {
        self.postings.push(g);
    }

    /// Adds the entry `(seq, g)`, the next in sorted order: a posting of
    /// the sequence last opened when `seq` is that sequence, else the
    /// first posting of a new one, split where it leaves the last.
    pub(crate) fn entry(&mut self, seq: &[Label], g: GraphId) {
        if self.postings.is_empty() {
            self.open(0, seq);
        } else if seq != self.path {
            let split = self.path.iter().zip(seq).take_while(|(a, b)| a == b).count();
            self.open(split, &seq[split..]);
        }
        self.post(g);
    }

    /// Lays the sequences out as the arena. Sorted sequences make every
    /// node a run of adjacent postings that ends where the next node of
    /// its level begins, and each level's child runs follow one another.
    pub(crate) fn finish(self) -> FlatTrie {
        let TrieBuilder { depth, levels, postings, .. } = self;
        let n = postings.len();
        let nodes: usize = levels.iter().map(Vec::len).sum();
        assert!(n.max(nodes) <= u32::MAX as usize, "trie arena exceeds u32 addressing");
        // Level `l`'s nodes are `level_start[l]..level_start[l + 1]`. A
        // depth-0 trie has no level: its virtual root is the one leaf,
        // and its postings are the whole array.
        let mut level_start = Vec::new();
        let mut total = 0u32;
        for level in &levels {
            level_start.push(total);
            total += level.len() as u32;
        }
        if depth > 0 {
            level_start.push(total);
        }
        let labels: Vec<Label> = levels.iter().flatten().map(|node| node.0).collect();
        let sub_start: Vec<u32> = levels.iter().flatten().map(|node| node.1).collect();
        let child_len: Vec<u32> = levels.iter().flatten().map(|node| node.2).collect();
        drop(levels);
        let mut child_start = vec![0u32; nodes];
        let mut sub_len = vec![0u32; nodes];
        let mut label_idx = vec![0u32; nodes];
        let mut alphabet_start = Vec::new();
        let mut alphabet: Vec<Label> = Vec::new();
        // Distinct labels of the level, sorted, each with its rank of
        // first appearance.
        let mut seen: Vec<(Label, u32)> = Vec::new();
        let mut slot_of: Vec<u32> = Vec::new();
        for l in 0..depth {
            let (s, e) = (level_start[l] as usize, level_start[l + 1] as usize);
            let mut next_child = level_start[l + 1];
            for node in s..e {
                let end = if node + 1 < e { sub_start[node + 1] } else { n as u32 };
                sub_len[node] = end - sub_start[node];
                if l + 1 < depth {
                    child_start[node] = next_child;
                    next_child += child_len[node];
                }
            }
            // Alphabet + per-node cost slots in one dedup pass: a node
            // first takes its label's rank of first appearance, and
            // once the level's distinct labels are known (kept sorted)
            // the rank maps to the label's sorted slot.
            let base = alphabet.len() as u32;
            alphabet_start.push(base);
            seen.clear();
            for node in s..e {
                let label = labels[node];
                let k = seen.partition_point(|&(x, _)| x < label);
                label_idx[node] = match seen.get(k) {
                    Some(&(x, first)) if x == label => first,
                    _ => {
                        let first = seen.len() as u32;
                        seen.insert(k, (label, first));
                        first
                    }
                };
            }
            slot_of.clear();
            slot_of.resize(seen.len(), 0);
            for (slot, &(label, first)) in seen.iter().enumerate() {
                slot_of[first as usize] = base + slot as u32;
                alphabet.push(label);
            }
            for idx in &mut label_idx[s..e] {
                *idx = slot_of[*idx as usize];
            }
        }
        if depth > 0 {
            alphabet_start.push(alphabet.len() as u32);
        }
        FlatTrie {
            depth,
            level_start,
            labels,
            label_idx,
            child_start,
            child_len,
            sub_start,
            sub_len,
            postings,
            alphabet_start,
            alphabet,
            bitmap_start: Vec::new(),
            bitmap: Vec::new(),
        }
        .with_bitmaps()
    }
}

impl FlatTrie {
    /// Builds the arena from a row-major entry matrix: row `i` is the
    /// sequence `labels[i * depth..(i + 1) * depth]` stored for
    /// `graphs[i]` (any order; duplicate rows are dropped). Rows that
    /// arrive sorted and distinct feed the `TrieBuilder` as they
    /// stand; anything else is sorted through a row permutation first,
    /// so no entry ever owns an allocation.
    ///
    /// # Panics
    /// Panics if `labels.len() != depth * graphs.len()`.
    pub fn from_rows(depth: usize, labels: Vec<Label>, graphs: Vec<GraphId>) -> Self {
        assert_eq!(labels.len(), depth * graphs.len(), "sequence length must equal trie depth");
        let n = graphs.len();
        assert!(n <= u32::MAX as usize, "trie arena exceeds u32 addressing");
        let row = |i: usize| &labels[i * depth..(i + 1) * depth];
        let key = |i: usize| (row(i), graphs[i]);
        let mut trie = TrieBuilder::new(depth, n);
        if (1..n).all(|i| key(i - 1) < key(i)) {
            (0..n).for_each(|i| trie.entry(row(i), graphs[i]));
        } else {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| key(a as usize).cmp(&key(b as usize)));
            order.dedup_by(|a, b| key(*a as usize) == key(*b as usize));
            order.iter().for_each(|&i| trie.entry(row(i as usize), graphs[i as usize]));
        }
        trie.finish()
    }

    /// Derives the dense leaves' bitmaps from the posting column (the
    /// one derived column: built here, never persisted). A leaf is dense
    /// when it holds at least as many postings as its bitmap would hold
    /// words — the break-even of one word operation against one posting
    /// operation in [`FlatTrie::fold`] — so the block never
    /// exceeds one `u64` per posting.
    fn with_bitmaps(mut self) -> Self {
        let leaves = self.leaf_count();
        let mut bitmap_start = Vec::with_capacity(leaves + 1);
        let mut bitmap = Vec::new();
        bitmap_start.push(0);
        for leaf in 0..leaves {
            let postings = self.leaf_postings(leaf);
            if let (Some(words), Some(first)) = (dense_words(postings), postings.first()) {
                let (at, base) = (bitmap.len(), first.index() / 64);
                bitmap.resize(at + words, 0u64);
                let block = &mut bitmap[at..];
                for &g in postings {
                    block[g.index() / 64 - base] |= 1 << (g.0 % 64);
                }
            }
            // At most one word per posting, so it fits the postings'
            // own u32 addressing.
            bitmap_start.push(bitmap.len() as u32);
        }
        self.bitmap_start = bitmap_start;
        self.bitmap = bitmap;
        self
    }

    /// Leaves: the last level's nodes, or the virtual root of a depth-0
    /// trie.
    fn leaf_count(&self) -> usize {
        match self.depth {
            0 => 1,
            d => (self.level_start[d] - self.level_start[d - 1]) as usize,
        }
    }

    /// Leaf `leaf`'s bitmap words (none for a sparse leaf).
    fn leaf_bitmap(&self, leaf: usize) -> &[u64] {
        &self.bitmap[self.bitmap_start[leaf] as usize..self.bitmap_start[leaf + 1] as usize]
    }

    /// Leaf `leaf`'s posting list (ascending class-local slots).
    fn leaf_postings(&self, leaf: usize) -> &[GraphId] {
        match self.depth {
            0 => &self.postings,
            d => self.subtree_postings(self.level_start[d - 1] as usize + leaf),
        }
    }

    /// The uniform sequence length.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of `(sequence, graph)` pairs stored (after dedup).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether the trie stores nothing.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Every stored posting — class-local slots, ascending within each
    /// sequence — in entry order.
    pub(crate) fn postings(&self) -> &[GraphId] {
        &self.postings
    }

    /// Merges `other`'s entries into the arena with one streaming sorted
    /// merge — O(stored + added), no comparison sort and no allocation
    /// per entry. `other`'s entries arrive sorted and distinct from its
    /// own walk; each is located in the stored entry order by a trie
    /// descent (`entry_rank`), and one walk of the arena (already
    /// sorted, already distinct) feeds the stored entries to a
    /// `TrieBuilder` with the additions spliced in at their ranks, so no
    /// stored entry is ordered against an addition. The arena built
    /// is column-for-column the one [`FlatTrie::from_rows`] builds from
    /// the union. Entries already stored are dropped, and a merge that
    /// adds nothing leaves the arena untouched.
    ///
    /// # Panics
    /// Panics if the two depths differ.
    pub fn merge(&mut self, other: &FlatTrie) {
        let depth = self.depth;
        assert_eq!(other.depth, depth, "merged tries must share a depth");
        // Each entry new to the arena, row-major, and its rank among the
        // stored ones — non-decreasing, as `other` walks in entry order.
        let mut added: Vec<Label> = Vec::with_capacity(other.len() * depth);
        let mut ranked: Vec<(u32, GraphId)> = Vec::with_capacity(other.len());
        other.for_each_entry(|seq, g| {
            if let Err(rank) = self.entry_rank(seq, g) {
                added.extend_from_slice(seq);
                ranked.push((rank, g));
            }
        });
        if ranked.is_empty() {
            return;
        }
        let mut trie = TrieBuilder::new(depth, self.len() + ranked.len());
        let addition = |k: usize| &added[k * depth..(k + 1) * depth];
        let mut next = 0;
        let mut rank = 0u32;
        self.for_each_sequence(|_, seq, run| {
            for (j, &g) in run.iter().enumerate() {
                while ranked.get(next).is_some_and(|&(r, _)| r == rank) {
                    trie.entry(addition(next), ranked[next].1);
                    next += 1;
                }
                // An addition ranked inside a run shares its sequence,
                // so only a run's first entry can open one.
                if j == 0 {
                    trie.entry(seq, g);
                } else {
                    trie.post(g);
                }
                rank += 1;
            }
        });
        // The rest rank past every stored entry.
        for (k, &(_, g)) in ranked.iter().enumerate().skip(next) {
            trie.entry(addition(k), g);
        }
        *self = trie.finish();
    }

    /// Position of `(seq, g)` in the stored entry order: `Ok(rank)` when
    /// the pair is stored, `Err(rank)` with the rank it would take
    /// otherwise (the contract of `slice::binary_search`). Descends one
    /// sorted child run per level, then the leaf's ascending postings.
    fn entry_rank(&self, seq: &[Label], g: GraphId) -> Result<u32, u32> {
        // The postings still to search, narrowed level by level: the
        // whole array under the virtual root, then a node's subtree.
        let (mut lo, mut hi) = (0u32, self.postings.len() as u32);
        if self.depth > 0 {
            let (mut cs, mut ce) = (self.level_start[0] as usize, self.level_start[1] as usize);
            for &label in seq {
                match self.labels[cs..ce].binary_search(&label) {
                    Ok(k) => {
                        let node = cs + k;
                        lo = self.sub_start[node];
                        hi = lo + self.sub_len[node];
                        // Zeros on the leaf level, where the loop ends.
                        cs = self.child_start[node] as usize;
                        ce = cs + self.child_len[node] as usize;
                    }
                    // A new branch: before the next larger sibling's
                    // subtree, or at the end of the parent's.
                    Err(k) if cs + k < ce => return Err(self.sub_start[cs + k]),
                    Err(_) => return Err(hi),
                }
            }
        }
        match self.postings[lo as usize..hi as usize].binary_search(&g) {
            Ok(k) => Ok(lo + k as u32),
            Err(k) => Err(lo + k as u32),
        }
    }

    /// Visits every stored `(sequence, graph)` pair in lexicographic
    /// sequence order (ascending graph ids within a sequence) — a
    /// function of the stored entries alone.
    pub fn for_each_entry(&self, mut visit: impl FnMut(&[Label], GraphId)) {
        self.for_each_sequence(|_, seq, run| run.iter().for_each(|&g| visit(seq, g)));
    }

    /// Visits every distinct stored sequence in sorted order as
    /// `(split, sequence, postings)` — the level at which it leaves its
    /// predecessor's path (0 for the first), its labels and its
    /// ascending postings: the stream a [`TrieBuilder`] consumes, so
    /// feeding it back rebuilds this arena, and the form a snapshot
    /// stores. A depth-0 trie holds one sequence, the empty one, or
    /// none when it is empty.
    pub(crate) fn for_each_sequence(&self, mut visit: impl FnMut(usize, &[Label], &[GraphId])) {
        if self.depth == 0 {
            if !self.postings.is_empty() {
                visit(0, &[], &self.postings);
            }
            return;
        }
        let mut path = vec![Label(0); self.depth];
        let root_range = (self.level_start[0], self.level_start[1]);
        self.walk_sequences(0, root_range, &mut path, &mut 0, &mut visit);
    }

    /// Walks the subtrees of the nodes `start..end` of `level`. `split`
    /// is the shallowest level whose node changed since the last visit.
    fn walk_sequences(
        &self,
        level: usize,
        (start, end): (u32, u32),
        path: &mut [Label],
        split: &mut usize,
        visit: &mut impl FnMut(usize, &[Label], &[GraphId]),
    ) {
        for node in start as usize..end as usize {
            if node > start as usize {
                *split = (*split).min(level);
            }
            path[level] = self.labels[node];
            if level + 1 == self.depth {
                visit(*split, path, self.subtree_postings(node));
                *split = self.depth;
            } else {
                let (cs, cl) = (self.child_start[node], self.child_len[node]);
                self.walk_sequences(level + 1, (cs, cs + cl), path, split, visit);
            }
        }
    }

    /// Answers one probe — a query sequence of trie depth — leaving
    /// every stored entry whose position-order cost sum is within
    /// `sigma` to `emit(cost, node)`, one call per resolved subtree:
    /// `node` is the subtree's root, or [`FlatTrie::ROOT`] when the
    /// whole store qualifies. [`FlatTrie::fold`] folds a node's
    /// postings into a hit set (and, through its sink, a minima row).
    ///
    /// Each level's alphabet is priced once, up front, into one cost
    /// row: `level_costs(level, query_label, alphabet, row)` (e.g.
    /// `MutationDistance::position_costs_into`).
    ///
    /// The descent walks the arena level by level with the wide-lane
    /// expansion and stops at the probe's zero-suffix boundary — the
    /// first level from which every remaining level prices to zero —
    /// reporting each surviving node at its accumulated cost, in
    /// ascending node order. The `(graph, cost)` multiset of the
    /// emitted subtrees' postings is exactly the stored entries whose
    /// position-order cost sum is within `sigma`, with that sum as the
    /// cost (f64 bits). A graph stored under several qualifying
    /// sequences is reported once per sequence; the caller keeps the
    /// minimum.
    ///
    /// The descent consults one [`CheckpointSite::RangeDescent`]
    /// checkpoint before level 0 and one per cost-bearing level after
    /// it, and returns `false` the moment the budget trips; emissions
    /// already made are a partial answer the caller must discard.
    ///
    /// # Panics
    /// Panics if `probe.len()` differs from the trie depth.
    pub fn range_query(
        &self,
        probe: &[Label],
        sigma: f64,
        mut level_costs: impl FnMut(usize, Label, &[Label], &mut [f64]),
        scratch: &mut TrieFrontier,
        budget: &BudgetState,
        mut emit: impl FnMut(f64, u32),
    ) -> bool {
        let depth = self.depth;
        assert_eq!(probe.len(), depth, "probe length must equal trie depth");
        if self.postings.is_empty() {
            return true;
        }
        if depth == 0 {
            // The virtual root is a leaf: the probe matches the whole
            // store at cost zero.
            emit(0.0, Self::ROOT);
            return true;
        }
        let TrieFrontier { costs, nodes, accs, next_nodes, next_accs } = scratch;
        // Price every level into the alphabet's layout; the probe's
        // zero-suffix boundary is one past the last level that prices
        // anything for it.
        costs.clear();
        costs.resize(self.alphabet.len(), 0.0);
        let mut zero_from = 0;
        for (l, &label) in probe.iter().enumerate() {
            let (a0, a1) = (self.alphabet_start[l] as usize, self.alphabet_start[l + 1] as usize);
            let row = &mut costs[a0..a1];
            level_costs(l, label, &self.alphabet[a0..a1], row);
            if row.iter().any(|&c| c != 0.0) {
                zero_from = l + 1;
            }
        }
        if zero_from == 0 {
            // Costs are non-negative, so sigma >= 0 admits all.
            if sigma >= 0.0 {
                emit(0.0, Self::ROOT);
            }
            return true;
        }
        if !budget.checkpoint(CheckpointSite::RangeDescent, 1) {
            return false;
        }
        nodes.clear();
        accs.clear();
        for node in self.level_start[0]..self.level_start[1] {
            let c = costs[self.label_idx[node as usize] as usize];
            if c <= sigma {
                nodes.push(node);
                accs.push(c);
            }
        }
        for _ in 1..zero_from {
            if !budget.checkpoint(CheckpointSite::RangeDescent, 1) {
                return false;
            }
            next_nodes.clear();
            next_accs.clear();
            for (&node, &acc) in nodes.iter().zip(accs.iter()) {
                let cs = self.child_start[node as usize];
                let ce = cs + self.child_len[node as usize];
                expand_children_wide(
                    &self.label_idx,
                    costs,
                    (cs, ce),
                    acc,
                    sigma,
                    next_nodes,
                    next_accs,
                );
            }
            std::mem::swap(nodes, next_nodes);
            std::mem::swap(accs, next_accs);
            if nodes.is_empty() {
                return true;
            }
        }
        for (&node, &acc) in nodes.iter().zip(accs.iter()) {
            emit(acc, node);
        }
        true
    }

    /// The node [`FlatTrie::range_query`] emits when the whole store
    /// qualifies (and the only node of a depth-0 trie).
    pub const ROOT: u32 = u32::MAX;

    /// The order a probe's emissions fold in: ascending cost *value*,
    /// so `-0.0` ties `+0.0` (adding `+0.0` maps `-0.0` to `+0.0`, and
    /// `total_cmp` keeps the order total, NaN included). Sorted
    /// *stably* by it, equal costs keep their emission order, so the
    /// first write of every cell by a [`FlatTrie::fold`] into a row is
    /// the cell an in-order `if cost < cell { cell = cost }` update
    /// leaves — the earliest emission of its least cost, sign of zero
    /// included. It is also the order a `crate::HitTally` adds costs
    /// in, so a probe's fresh-hit counts feed it directly.
    pub fn fold_order(a: f64, b: f64) -> Ordering {
        (a + 0.0).total_cmp(&(b + 0.0))
    }

    /// Folds the postings under `node` — a node [`FlatTrie::range_query`]
    /// emitted, or [`FlatTrie::ROOT`] — into the bit set `covered` of
    /// the slots already folded, handing every word's newly covered
    /// slots to `fresh(word, bits)`: slot `64 * word + b` for each set
    /// bit `b`. A sink that counts the bits counts the probe's new hits;
    /// one that writes a cell per bit fills a minima row — folding a
    /// probe's emissions in [`FlatTrie::fold_order`] then writes each
    /// hit cell exactly once, with its minimum.
    ///
    /// The node's leaves are a contiguous run of the last level. A dense
    /// leaf folds one word at a time (`bits & !covered`, one sink call
    /// per word), any other leaf one test-and-set per posting (one sink
    /// call per new slot). `covered` holds a bit for every slot the trie
    /// posts.
    pub fn fold(&self, node: u32, covered: &mut [u64], mut fresh: impl FnMut(usize, u64)) {
        for leaf in self.leaf_range(node) {
            let (words, postings) = (self.leaf_bitmap(leaf), self.leaf_postings(leaf));
            match postings.first() {
                Some(first) if !words.is_empty() => {
                    let base = first.index() / 64;
                    for (w, (&bits, seen)) in words.iter().zip(&mut covered[base..]).enumerate() {
                        let new = bits & !*seen;
                        *seen |= new;
                        fresh(base + w, new);
                    }
                }
                _ => {
                    for &g in postings {
                        let (w, bit) = (g.index() / 64, 1u64 << (g.0 % 64));
                        if covered[w] & bit == 0 {
                            covered[w] |= bit;
                            fresh(w, bit);
                        }
                    }
                }
            }
        }
    }

    /// The leaves under `node` ([`FlatTrie::ROOT`]: all of them), as
    /// indices into the last level: a subtree's leaves are contiguous,
    /// from its leftmost descendant to its rightmost.
    fn leaf_range(&self, node: u32) -> Range<usize> {
        if node == Self::ROOT {
            return 0..self.leaf_count();
        }
        let (mut lo, mut hi) = (node as usize, node as usize);
        // Internal nodes have children, leaves none.
        while self.child_len[lo] != 0 {
            hi = (self.child_start[hi] + self.child_len[hi] - 1) as usize;
            lo = self.child_start[lo] as usize;
        }
        let first = self.level_start[self.depth - 1] as usize;
        lo - first..hi + 1 - first
    }

    /// The contiguous postings range covered by `node`'s whole subtree.
    #[inline]
    fn subtree_postings(&self, node: usize) -> &[GraphId] {
        let s = self.sub_start[node] as usize;
        &self.postings[s..s + self.sub_len[node] as usize]
    }
}

/// How many words a leaf's bitmap holds when the leaf is dense — its
/// postings (strictly ascending, as sorted distinct entries are) at least
/// as many as the words from its first posting's to its last's — and
/// `None` for a sparse or empty leaf.
fn dense_words(postings: &[GraphId]) -> Option<usize> {
    let words = postings.last()?.index() / 64 - postings.first()?.index() / 64 + 1;
    (postings.len() >= words).then_some(words)
}

#[cfg(test)]
impl FlatTrie {
    /// The fold's test-only view of the derived bitmaps: dense and
    /// sparse leaves, after checking that every dense leaf's words hold
    /// exactly its postings and that the block holds no more words than
    /// the trie holds postings.
    pub(crate) fn leaf_kinds(&self) -> (usize, usize) {
        assert!(self.bitmap.len() <= self.postings.len(), "bitmap words exceed postings");
        assert_eq!(self.bitmap_start.len(), self.leaf_count() + 1);
        let mut dense = 0;
        for leaf in 0..self.leaf_count() {
            let (words, postings) = (self.leaf_bitmap(leaf), self.leaf_postings(leaf));
            assert_eq!(words.len(), dense_words(postings).unwrap_or(0), "leaf {leaf}");
            if let Some(first) = postings.first().filter(|_| !words.is_empty()) {
                let base = first.index() / 64;
                let held: Vec<usize> = (0..64 * words.len())
                    .filter(|b| words[b / 64] >> (b % 64) & 1 == 1)
                    .map(|b| 64 * base + b)
                    .collect();
                let want: Vec<usize> = postings.iter().map(|g| g.index()).collect();
                assert_eq!(held, want, "leaf {leaf} bitmap");
                dense += 1;
            }
        }
        (dense, self.leaf_count() - dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HitTally;

    fn l(xs: &[u32]) -> Vec<Label> {
        xs.iter().map(|&x| Label(x)).collect()
    }

    /// The trie of `(sequence, graph)` entries, laid out as the row
    /// matrix [`FlatTrie::from_rows`] takes.
    fn trie_of(depth: usize, entries: Vec<(Vec<Label>, GraphId)>) -> FlatTrie {
        let (rows, graphs): (Vec<Vec<Label>>, Vec<GraphId>) = entries.into_iter().unzip();
        FlatTrie::from_rows(depth, rows.concat(), graphs)
    }

    /// Unit Hamming cost regardless of position.
    fn hamming(_pos: usize, a: Label, b: Label) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }

    /// The postings under a node the descent emitted.
    fn emitted_postings(t: &FlatTrie, node: u32) -> &[GraphId] {
        if node == FlatTrie::ROOT {
            &t.postings
        } else {
            t.subtree_postings(node as usize)
        }
    }

    /// Runs one probe under the per-position `cost` through `scratch`
    /// and returns its visits — emitted nodes' postings flattened to
    /// `(graph, cost bits)` — sorted.
    fn run_probe(
        trie: &FlatTrie,
        probe: &[Label],
        sigma: f64,
        cost: impl Fn(usize, Label, Label) -> f64,
        scratch: &mut TrieFrontier,
    ) -> Vec<(u32, u64)> {
        let mut visits = Vec::new();
        let completed = trie.range_query(
            probe,
            sigma,
            |pos, query, stored, out| {
                for (o, &s) in out.iter_mut().zip(stored) {
                    *o = cost(pos, query, s);
                }
            },
            scratch,
            BudgetState::unlimited(),
            |acc, node| {
                let graphs = emitted_postings(trie, node);
                visits.extend(graphs.iter().map(|g| (g.0, acc.to_bits())));
            },
        );
        assert!(completed, "the unlimited budget never interrupts a descent");
        visits.sort_unstable();
        visits
    }

    /// What the definition says one probe visits: every distinct stored
    /// entry whose per-position costs, summed in position order, stay
    /// within `sigma`, with that sum — as sorted `(graph, cost bits)`.
    fn brute_visits(
        entries: &[(Vec<Label>, GraphId)],
        probe: &[Label],
        sigma: f64,
        cost: impl Fn(usize, Label, Label) -> f64,
    ) -> Vec<(u32, u64)> {
        let mut distinct = entries.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut out: Vec<(u32, u64)> = distinct
            .iter()
            .filter_map(|(seq, g)| {
                let d =
                    (0..probe.len()).fold(0.0, |acc, pos| acc + cost(pos, probe[pos], seq[pos]));
                (d <= sigma).then_some((g.0, d.to_bits()))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Asserts every probe visits exactly [`brute_visits`] (costs
    /// compared by their f64 bits), one after another through one
    /// shared scratch, so state left by an earlier probe would show.
    fn assert_matches_brute(
        entries: &[(Vec<Label>, GraphId)],
        trie: &FlatTrie,
        probes: &[Vec<Label>],
        sigma: f64,
        cost: impl Fn(usize, Label, Label) -> f64 + Copy,
    ) {
        let mut scratch = TrieFrontier::new();
        for (pi, probe) in probes.iter().enumerate() {
            let got = run_probe(trie, probe, sigma, cost, &mut scratch);
            let expected = brute_visits(entries, probe, sigma, cost);
            assert_eq!(got, expected, "probe {pi} sigma {sigma}");
        }
    }

    /// One probe's Hamming visits, as sorted `(graph, cost)`.
    fn collect(trie: &FlatTrie, query: &[Label], sigma: f64) -> Vec<(u32, f64)> {
        let visits = run_probe(trie, query, sigma, hamming, &mut TrieFrontier::new());
        visits.into_iter().map(|(g, bits)| (g, f64::from_bits(bits))).collect()
    }

    #[test]
    fn exact_and_near_matches() {
        let entries = vec![
            (l(&[1, 2, 3]), GraphId(0)),
            (l(&[1, 2, 4]), GraphId(1)),
            (l(&[9, 9, 9]), GraphId(2)),
        ];
        let t = trie_of(3, entries);
        assert_eq!(t.len(), 3);
        assert_eq!(collect(&t, &l(&[1, 2, 3]), 0.0), vec![(0, 0.0)]);
        assert_eq!(collect(&t, &l(&[1, 2, 3]), 1.0), vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(collect(&t, &l(&[1, 2, 3]), 3.0), vec![(0, 0.0), (1, 1.0), (2, 3.0)]);
    }

    #[test]
    fn duplicate_pairs_deduplicated() {
        let t = trie_of(
            2,
            vec![(l(&[1, 1]), GraphId(7)), (l(&[1, 1]), GraphId(7)), (l(&[1, 1]), GraphId(8))],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(collect(&t, &l(&[1, 1]), 0.0), vec![(7, 0.0), (8, 0.0)]);
    }

    /// `count` pseudo-random depth-4 entries from `seed`, position `p`
    /// drawn from `0..sizes[p]`, entry `i` on graph `i % graphs`.
    fn random_entries(
        seed: u64,
        count: u32,
        sizes: [u32; 4],
        graphs: u32,
    ) -> Vec<(Vec<Label>, GraphId)> {
        let mut x = seed;
        (0..count)
            .map(|g| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let seq: Vec<u32> =
                    (0..4).map(|p| (x >> (8 * (p + 1))) as u32 % sizes[p]).collect();
                (l(&seq), GraphId(g % graphs))
            })
            .collect()
    }

    /// The definition over `entries` (duplicate `(sequence, graph)` pairs
    /// included) at several sigmas, after checking deduplication.
    fn assert_random_matches_brute(
        entries: Vec<(Vec<Label>, GraphId)>,
        probes: &[Vec<Label>],
        cost: fn(usize, Label, Label) -> f64,
    ) {
        let t = trie_of(4, entries.clone());
        let mut distinct = entries.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(t.len(), distinct.len());
        for sigma in [0.0, 1.0, 2.0, 4.0] {
            assert_matches_brute(&entries, &t, probes, sigma, cost);
        }
    }

    #[test]
    fn matches_pointer_trie_on_random_data() {
        // A position-dependent cost — Hamming on the first two positions,
        // free afterwards — so the descent stops at level 2 and emits
        // subtree ranges.
        fn prefix_hamming(pos: usize, a: Label, b: Label) -> f64 {
            if pos >= 2 {
                0.0
            } else {
                hamming(pos, a, b)
            }
        }
        assert_random_matches_brute(
            random_entries(1, 80, [4, 3, 3, 2], 20),
            &[l(&[0, 0, 0, 0]), l(&[1, 2, 1, 1]), l(&[3, 2, 2, 0])],
            prefix_hamming,
        );
    }

    #[test]
    fn batch_matches_scalar_on_random_data() {
        // Plain Hamming with a repeated probe, which the shared scratch
        // must answer identically.
        assert_random_matches_brute(
            random_entries(7, 120, [5, 4, 3, 3], 30),
            &[
                l(&[0, 0, 0, 0]),
                l(&[1, 2, 1, 1]),
                l(&[0, 0, 0, 0]),
                l(&[4, 3, 2, 2]),
                l(&[2, 1, 0, 1]),
            ],
            hamming,
        );
    }

    #[test]
    fn all_zero_costs_emit_everything_at_zero() {
        let entries =
            vec![(l(&[1, 2]), GraphId(0)), (l(&[3, 4]), GraphId(1)), (l(&[3, 4]), GraphId(2))];
        let t = trie_of(2, entries);
        let zero = 0.0f64.to_bits();
        let visits = run_probe(&t, &l(&[9, 9]), 0.0, |_, _, _| 0.0, &mut TrieFrontier::new());
        assert_eq!(visits, vec![(0, zero), (1, zero), (2, zero)]);
    }

    #[test]
    fn entries_iterate_in_sorted_order_once_each() {
        // Entries come back sorted by sequence, then graph, once each.
        let mut entries = vec![
            (l(&[2, 1]), GraphId(5)),
            (l(&[1, 1]), GraphId(3)),
            (l(&[1, 2]), GraphId(3)),
            (l(&[1, 1]), GraphId(1)),
            (l(&[1, 2]), GraphId(3)),
        ];
        let flat = trie_of(2, entries.clone());
        let mut visited = Vec::new();
        flat.for_each_entry(|s, g| visited.push((s.to_vec(), g)));
        entries.sort_unstable();
        entries.dedup();
        assert_eq!(visited, entries);
    }

    #[test]
    fn merge_equals_bulk_build() {
        let first = vec![(l(&[1, 2]), GraphId(0)), (l(&[2, 2]), GraphId(1))];
        let second = vec![(l(&[1, 2]), GraphId(2)), (l(&[0, 1]), GraphId(2))];
        let mut incremental = trie_of(2, first.clone());
        incremental.merge(&trie_of(2, second.clone()));
        let bulk = trie_of(2, first.into_iter().chain(second).collect());
        let mut a = Vec::new();
        incremental.for_each_entry(|s, g| a.push((s.to_vec(), g)));
        let mut b = Vec::new();
        bulk.for_each_entry(|s, g| b.push((s.to_vec(), g)));
        assert_eq!(a, b);
        assert_eq!(incremental.len(), bulk.len());
    }

    #[test]
    fn empty_and_depth_zero_tries() {
        let empty = trie_of(2, Vec::new());
        assert!(empty.is_empty());
        assert!(collect(&empty, &l(&[0, 0]), 10.0).is_empty());
        let zero = trie_of(0, vec![(Vec::new(), GraphId(4))]);
        assert_eq!(zero.len(), 1);
        assert_eq!(collect(&zero, &[], 0.0), vec![(4, 0.0)]);
        let mut seen = Vec::new();
        zero.for_each_entry(|s, g| seen.push((s.len(), g.0)));
        assert_eq!(seen, vec![(0, 4)]);
    }

    #[test]
    fn zero_suffix_boundaries_match_brute() {
        // Position-dependent costs: free from level `cut` on, so the
        // descent stops at the zero-suffix boundary (or, at cut 0,
        // emits the whole store without descending).
        let entries = vec![
            (l(&[1, 2, 3, 4]), GraphId(0)),
            (l(&[1, 2, 3, 5]), GraphId(1)),
            (l(&[1, 9, 3, 4]), GraphId(2)),
            (l(&[2, 2, 3, 4]), GraphId(3)),
            (l(&[2, 2, 4, 4]), GraphId(4)),
        ];
        let t = trie_of(4, entries.clone());
        let probes = [l(&[1, 2, 3, 4]), l(&[2, 2, 9, 9]), l(&[9, 9, 9, 9])];
        for cut in 0..=4usize {
            let cost = |pos: usize, a: Label, b: Label| {
                if a == b || pos >= cut {
                    0.0
                } else {
                    1.0
                }
            };
            for sigma in [0.0, 1.0, 2.0] {
                assert_matches_brute(&entries, &t, &probes, sigma, cost);
            }
        }
    }

    #[test]
    fn probes_of_empty_singleton_and_depth_zero_tries_match_brute() {
        let empty = trie_of(2, Vec::new());
        let mut scratch = TrieFrontier::new();
        for probe in [l(&[0, 0]), l(&[1, 1])] {
            let visits = run_probe(&empty, &probe, 5.0, hamming, &mut scratch);
            assert!(visits.is_empty(), "empty trie emitted a range");
        }
        let entries = vec![(l(&[3, 7]), GraphId(9))];
        let singleton = trie_of(2, entries.clone());
        let probes = [l(&[3, 7]), l(&[3, 8]), l(&[0, 0])];
        assert_matches_brute(&entries, &singleton, &probes, 1.0, hamming);
        let entries = vec![(Vec::new(), GraphId(4)), (Vec::new(), GraphId(5))];
        let zero = trie_of(0, entries.clone());
        let probes = [Vec::new(), Vec::new(), Vec::new()];
        assert_matches_brute(&entries, &zero, &probes, 0.0, hamming);
    }

    #[test]
    fn wide_expansion_handles_all_tail_lengths() {
        // One root with `n` children for n around the lane width,
        // including sub-lane, exact-multiple, and ragged counts: every
        // child must be found, in ascending order, for full and
        // selective sigmas.
        for n in [1usize, 3, 7, 8, 9, 15, 16, 17, 31] {
            let entries: Vec<_> = (0..n as u32).map(|i| (l(&[5, i]), GraphId(i))).collect();
            let t = trie_of(2, entries.clone());
            // sigma large: all children survive the level-1 expansion.
            let all = collect(&t, &l(&[5, 0]), n as f64 + 1.0);
            assert_eq!(all.len(), n, "n={n}");
            assert!(all.iter().enumerate().all(|(i, &(g, _))| g as usize == i));
            // sigma 0: only the exact child survives.
            for probe in 0..n as u32 {
                let exact = collect(&t, &l(&[5, probe]), 0.0);
                assert_eq!(exact, vec![(probe, 0.0)], "n={n} probe={probe}");
            }
            // Probes whose survivors sit on either side of a lane
            // boundary.
            let probes = [l(&[5, 0]), l(&[5, n as u32 / 2])];
            assert_matches_brute(&entries, &t, &probes, 1.0, hamming);
        }
    }

    #[test]
    #[should_panic(expected = "probe length")]
    fn probe_length_mismatch_rejected() {
        let t = trie_of(2, vec![(l(&[1, 1]), GraphId(0))]);
        let _ = run_probe(&t, &l(&[2]), 1.0, hamming, &mut TrieFrontier::new());
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn wrong_length_rejected() {
        let _ = trie_of(3, vec![(l(&[1]), GraphId(0))]);
    }

    /// `count` depth-3 entries over `graphs` graphs: a few sequences
    /// shared by many graphs (dense leaves) beside many sequences of a
    /// few graphs each, spread over the slot range (sparse leaves).
    fn mixed_entries(seed: u64, count: u32, graphs: u32) -> Vec<(Vec<Label>, GraphId)> {
        let mut x = seed;
        (0..count)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let g = (x >> 33) as u32 % graphs;
                let seq = if i % 2 == 0 {
                    vec![(x >> 8) as u32 % 2, 0, (x >> 12) as u32 % 2]
                } else {
                    vec![2 + (x >> 8) as u32 % 4, (x >> 16) as u32 % 5, (x >> 24) as u32 % 5]
                };
                (l(&seq), GraphId(g))
            })
            .collect()
    }

    #[test]
    fn bitmap_words_never_exceed_postings() {
        let mut kinds = (0, 0);
        let mut tally = |t: &FlatTrie| {
            let (dense, sparse) = t.leaf_kinds();
            kinds = (kinds.0 + dense, kinds.1 + sparse);
        };
        for (seed, graphs) in [(1u64, 300u32), (2, 1000), (3, 64), (4, 5)] {
            let entries = mixed_entries(seed, 1200, graphs);
            let (first, rest) = entries.split_at(700);
            let built = trie_of(3, entries.clone());
            tally(&built);
            let mut merged = trie_of(3, first.to_vec());
            tally(&merged);
            merged.merge(&trie_of(3, rest.to_vec()));
            tally(&merged);
            assert_eq!(merged, built, "merge derives the bulk build's bitmaps");
        }
        for depth in [0usize, 1] {
            let entries: Vec<_> =
                (0..200u32).map(|g| (l(&vec![g % 3; depth]), GraphId(g * 7 % 500))).collect();
            tally(&trie_of(depth, entries));
        }
        tally(&trie_of(2, Vec::new()));
        assert!(kinds.0 > 0 && kinds.1 > 0, "both fold paths are built: {kinds:?}");
    }

    /// Folds `emissions` the way a range query does — sorted stably by
    /// [`FlatTrie::fold_order`], then written once per cell — into a
    /// row of `slots` cells, as f64 bits. Folds them a second time with
    /// a counting sink, as a hit query does, and checks that it covers
    /// the row's hit slots and that its per-emission counts tally like
    /// the row's hit cells.
    fn fold_sorted(t: &FlatTrie, emissions: &[(f64, u32)], slots: usize) -> Vec<u64> {
        let mut sorted = emissions.to_vec();
        sorted.sort_by(|a, b| FlatTrie::fold_order(a.0, b.0));
        let mut row = vec![f64::INFINITY; slots];
        let mut covered = vec![0u64; slots.div_ceil(64)];
        let mut counted = covered.clone();
        let mut tally = HitTally::new(1.0);
        for &(cost, node) in &sorted {
            t.fold(node, &mut covered, |w, mut bits| {
                while bits != 0 {
                    row[64 * w + bits.trailing_zeros() as usize] = cost;
                    bits &= bits - 1;
                }
            });
            let mut fresh = 0;
            t.fold(node, &mut counted, |_, bits| fresh += bits.count_ones() as usize);
            tally.add(cost, fresh);
        }
        let mut cells: Vec<f64> = row.iter().copied().filter(|d| d.is_finite()).collect();
        let mut hit_slots = (0..slots).filter(|&s| row[s].is_finite());
        assert!(hit_slots.all(|s| counted[s / 64] >> (s % 64) & 1 == 1));
        assert_eq!(counted.iter().map(|w| w.count_ones() as usize).sum::<usize>(), cells.len());
        assert_eq!(tally, HitTally::of_costs(1.0, &mut cells), "{emissions:?}");
        row.iter().map(|d| d.to_bits()).collect()
    }

    /// The definition the fold must reproduce: every emitted posting in
    /// emission order, kept where it is below the cell.
    fn fold_in_order(t: &FlatTrie, emissions: &[(f64, u32)], slots: usize) -> Vec<u64> {
        let mut row = vec![f64::INFINITY; slots];
        for &(cost, node) in emissions {
            for g in emitted_postings(t, node) {
                if cost < row[g.index()] {
                    row[g.index()] = cost;
                }
            }
        }
        row.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn signed_zero_ties_keep_the_first_emission() {
        // Leaf 1 is dense (slots 0..=3 in one word), leaf 2 sparse (two
        // postings four words apart); both hold slots 1 and 200.
        let entries: Vec<_> = [0u32, 1, 2, 3, 200]
            .iter()
            .map(|&g| (l(&[1]), GraphId(g)))
            .chain([1u32, 200].iter().map(|&g| (l(&[2]), GraphId(g))))
            .collect();
        let t = trie_of(1, entries);
        assert_eq!(t.leaf_kinds(), (1, 1));
        let (pos, neg) = (0.0f64, -0.0f64);
        for emissions in [
            vec![(pos, 0), (neg, 1)],
            vec![(neg, 0), (pos, 1)],
            vec![(neg, 1), (pos, 0)],
            vec![(pos, 1), (neg, FlatTrie::ROOT)],
            vec![(1.0, 0), (neg, 1), (pos, FlatTrie::ROOT), (neg, 0)],
        ] {
            let got = fold_sorted(&t, &emissions, 201);
            assert_eq!(got, fold_in_order(&t, &emissions, 201), "{emissions:?}");
            // The first emission reaching slot 1 at cost zero wins it.
            assert_eq!(got[1], emissions.iter().find(|e| e.0 == 0.0).unwrap().0.to_bits());
        }
    }

    #[test]
    fn fold_of_any_emissions_equals_the_in_order_minimum() {
        // Emissions of nodes on every level and of the whole store, at
        // costs with ties of both signs of zero.
        let t = trie_of(3, mixed_entries(5, 900, 400));
        let nodes = t.labels.len() as u64;
        let costs = [0.0, -0.0, 0.5, 1.0, 0.5, 2.0];
        let mut x = 11u64;
        for _ in 0..200 {
            let emissions: Vec<(f64, u32)> = (0..1 + x % 9)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let node = (x >> 20) % (nodes + 1);
                    let node = if node == nodes { FlatTrie::ROOT } else { node as u32 };
                    (costs[(x >> 40) as usize % costs.len()], node)
                })
                .collect();
            assert_eq!(fold_sorted(&t, &emissions, 400), fold_in_order(&t, &emissions, 400));
        }
    }
}
