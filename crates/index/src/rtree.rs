//! An R-tree over fragment weight vectors (references \[4, 11\]).
//!
//! Each equivalence class of a weighted dataset maps its fragments to
//! points in `R^(V+E)` (vertex weights then edge weights, in canonical
//! order); a linear-distance range query `LD ≤ σ` is an L1 ball query
//! (the paper's Example 3). The tree is a classic Guttman R-tree:
//! least-enlargement insertion with longest-axis median splits. The L1
//! distance from a query point to a rectangle lower-bounds the distance
//! to every point inside, which makes subtree pruning exact.
//!
//! Like the trie (`DESIGN.md` §6.5), the pointer tree is the *build*
//! structure only: every [`RTree::insert_batch`] ends by flattening it
//! into a level-major arena — CSR `child_start`/`child_len` child runs,
//! SoA `bounds_min`/`bounds_max` rectangle blocks, and every leaf's
//! points concatenated row-major — and [`RTree::range_query`] descends
//! that arena, scanning each node's child rectangles and each leaf's
//! point block contiguously through the batched L1 kernels
//! (`pis_distance::mbr_l1_costs_into` / `l1_costs_into`) instead of
//! chasing per-node `Vec` allocations. No tree is ever queried through a
//! stale arena: there is no way to insert without re-flattening.

use pis_distance::{l1_costs_into, mbr_l1_costs_into};
use pis_graph::GraphId;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries per node after a split.
const MIN_ENTRIES: usize = 3;

/// Minimum bounding rectangle in `dim` dimensions.
#[derive(Clone, Debug, PartialEq)]
struct Mbr {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Mbr {
    fn of_point(p: &[f64]) -> Self {
        Mbr { min: p.to_vec(), max: p.to_vec() }
    }

    fn merge(&mut self, other: &Mbr) {
        for d in 0..self.min.len() {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    fn merged(&self, other: &Mbr) -> Mbr {
        let mut m = self.clone();
        m.merge(other);
        m
    }

    /// Half-perimeter ("margin") used as the enlargement measure; in
    /// high dimensions volume degenerates to 0/∞, margins stay stable.
    fn margin(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(lo, hi)| hi - lo).sum()
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(Vec<(Vec<f64>, GraphId)>),
    Inner(Vec<(Mbr, Node)>),
}

/// The frozen query layout: the pointer tree flattened breadth-first
/// into one arena. A node is inner iff `child_len > 0`; children are a
/// contiguous CSR run of arena slots, bounding rectangles live in SoA
/// blocks (`dim` coordinates per node), and every leaf's points sit
/// row-major in one `points` block so the batched L1 kernels stream
/// them without pointer chasing.
#[derive(Clone, Debug, Default, PartialEq)]
struct FlatRTree {
    child_start: Vec<u32>,
    child_len: Vec<u32>,
    bounds_min: Vec<f64>,
    bounds_max: Vec<f64>,
    /// Leaf point run (`pt_start[n] * dim` indexes `points`).
    pt_start: Vec<u32>,
    pt_len: Vec<u32>,
    points: Vec<f64>,
    graphs: Vec<GraphId>,
}

impl FlatRTree {
    /// Appends one (still child-less) arena slot bounded by `mbr`.
    fn push_node(&mut self, mbr: &Mbr) -> usize {
        self.child_start.push(0);
        self.child_len.push(0);
        self.pt_start.push(0);
        self.pt_len.push(0);
        self.bounds_min.extend_from_slice(&mbr.min);
        self.bounds_max.extend_from_slice(&mbr.max);
        self.child_start.len() - 1
    }
}

/// An R-tree over fixed-dimension points with L1 range queries.
#[derive(Clone, Debug)]
pub struct RTree {
    dim: usize,
    root: Node,
    entries: usize,
    /// The query arena, re-flattened by every insert batch.
    flat: FlatRTree,
}

impl RTree {
    /// An empty tree over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        let root = Node::Leaf(Vec::new());
        let flat = flatten(&root, dim);
        RTree { dim, root, entries: 0, flat }
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts points for graphs (duplicates allowed; the fragment index
    /// dedups upstream), one at a time in the given order, then flattens
    /// the grown pointer tree into the query arena (breadth-first;
    /// O(tree)) — so the arena a query descends always holds every
    /// point. The fragment index passes a whole class at build and load
    /// time, and a run of new points to a class's pending tree or, at a
    /// merge, to its frozen one.
    ///
    /// # Panics
    /// Panics if any point's length differs from `dim`.
    pub fn insert_batch<P: AsRef<[f64]>>(
        &mut self,
        points: impl IntoIterator<Item = (P, GraphId)>,
    ) {
        for (point, graph) in points {
            let point = point.as_ref();
            assert_eq!(point.len(), self.dim, "point dimensionality must equal tree dim");
            self.entries += 1;
            if let Some((right_mbr, right)) = insert_rec(&mut self.root, point, graph) {
                // Root split: grow the tree by one level.
                let old_root = std::mem::replace(&mut self.root, Node::Inner(Vec::new()));
                let left_mbr = node_mbr(&old_root).expect("split nodes are non-empty");
                self.root = Node::Inner(vec![(left_mbr, old_root), (right_mbr, right)]);
            }
        }
        self.flat = flatten(&self.root, self.dim);
    }

    /// Checks every structural invariant of the pointer tree and of its
    /// CSR arena, returning the first violation as a description, never
    /// a panic. A tree produced by any sequence of insert batches always
    /// passes; the checks exist for debug re-validation after mutation
    /// and the offline `pis check` fsck.
    ///
    /// Pointer tree: Guttman fanout bounds (`≤ MAX_ENTRIES` everywhere,
    /// `≥ MIN_ENTRIES` off the root), uniform leaf depth, finite
    /// coordinates of the right dimensionality, and every stored MBR
    /// exactly equal (f64 `==`) to its subtree's recomputed bounding
    /// rectangle — inserts maintain them exactly, so any drift is
    /// corruption. Arena: re-flattens the pointer tree and demands
    /// equality column for column, which pins the CSR child runs, the
    /// leaf point runs, and every bound.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(
            node: &Node,
            dim: usize,
            depth: usize,
            is_root: bool,
            leaf_depth: &mut Option<usize>,
            points: &mut usize,
        ) -> Result<(), String> {
            match node {
                Node::Leaf(entries) => {
                    if entries.len() > MAX_ENTRIES {
                        return Err(format!(
                            "leaf holds {} > {MAX_ENTRIES} entries",
                            entries.len()
                        ));
                    }
                    if !is_root && entries.len() < MIN_ENTRIES {
                        return Err(format!(
                            "leaf holds {} < {MIN_ENTRIES} entries",
                            entries.len()
                        ));
                    }
                    match *leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) if d != depth => {
                            return Err(format!("leaf depth {depth} differs from {d}"));
                        }
                        Some(_) => {}
                    }
                    for (p, _) in entries {
                        if p.len() != dim {
                            return Err(format!("point of {} coords in a {dim}-d tree", p.len()));
                        }
                        if p.iter().any(|x| !x.is_finite()) {
                            return Err("non-finite point coordinate".to_string());
                        }
                    }
                    *points += entries.len();
                    Ok(())
                }
                Node::Inner(children) => {
                    if children.len() > MAX_ENTRIES {
                        return Err(format!(
                            "inner node holds {} > {MAX_ENTRIES} children",
                            children.len()
                        ));
                    }
                    let floor = if is_root { 2 } else { MIN_ENTRIES };
                    if children.len() < floor {
                        return Err(format!(
                            "inner node holds {} < {floor} children",
                            children.len()
                        ));
                    }
                    for (mbr, child) in children {
                        if mbr.min.len() != dim || mbr.max.len() != dim {
                            return Err("MBR dimensionality mismatch".to_string());
                        }
                        if mbr.min.iter().chain(&mbr.max).any(|x| !x.is_finite()) {
                            return Err("non-finite MBR coordinate".to_string());
                        }
                        walk(child, dim, depth + 1, false, leaf_depth, points)?;
                        // Inserts recompute stored MBRs through the
                        // same `node_mbr`, so equality is exact.
                        match node_mbr(child) {
                            Some(actual) if actual == *mbr => {}
                            Some(_) => {
                                return Err("stored MBR differs from its subtree".to_string())
                            }
                            None => return Err("MBR over an empty subtree".to_string()),
                        }
                    }
                    Ok(())
                }
            }
        }
        let mut leaf_depth = None;
        let mut points = 0usize;
        walk(&self.root, self.dim, 0, true, &mut leaf_depth, &mut points)?;
        if points != self.entries {
            return Err(format!("{points} stored points but the tree claims {}", self.entries));
        }
        if self.flat != flatten(&self.root, self.dim) {
            return Err("frozen arena disagrees with the pointer tree".to_string());
        }
        Ok(())
    }

    /// Visits every `(graph, L1 distance)` within `sigma` of `query`,
    /// descending the arena. Each distance is the coordinate-order L1
    /// sum, bit-identical to summing `|q_i − p_i|` in order (the batched
    /// kernels keep the scalar loop's order).
    ///
    /// # Panics
    /// Panics if `query.len() != dim`.
    pub fn range_query(&self, query: &[f64], sigma: f64, mut visit: impl FnMut(GraphId, f64)) {
        assert_eq!(query.len(), self.dim, "query dimensionality must equal tree dim");
        search_flat(&self.flat, self.dim, query, sigma, &mut visit);
    }

    /// Visits every stored `(point, graph)` pair (persistence and
    /// diagnostics). Points come back exactly as inserted.
    pub fn for_each_entry(&self, mut visit: impl FnMut(&[f64], GraphId)) {
        fn walk(node: &Node, visit: &mut impl FnMut(&[f64], GraphId)) {
            match node {
                Node::Leaf(points) => {
                    for (p, g) in points {
                        visit(p, *g);
                    }
                }
                Node::Inner(children) => {
                    for (_, child) in children {
                        walk(child, visit);
                    }
                }
            }
        }
        walk(&self.root, &mut visit);
    }

    /// Tree height (1 for a lone leaf); exposed for tests/benches.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Inner(children) = node {
            h += 1;
            node = &children[0].1;
        }
        h
    }
}

/// The breadth-first flattening of a pointer tree into its query arena
/// (also what [`RTree::validate`] re-derives and compares against).
fn flatten(root: &Node, dim: usize) -> FlatRTree {
    let mut flat = FlatRTree::default();
    let root_mbr = node_mbr(root).unwrap_or(Mbr { min: vec![0.0; dim], max: vec![0.0; dim] });
    flat.push_node(&root_mbr);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(root);
    let mut idx = 0usize;
    while let Some(node) = queue.pop_front() {
        match node {
            Node::Leaf(points) => {
                flat.pt_start[idx] = flat.graphs.len() as u32;
                flat.pt_len[idx] = points.len() as u32;
                for (p, g) in points {
                    flat.points.extend_from_slice(p);
                    flat.graphs.push(*g);
                }
            }
            Node::Inner(children) => {
                flat.child_start[idx] = flat.child_start.len() as u32;
                flat.child_len[idx] = children.len() as u32;
                for (mbr, child) in children {
                    flat.push_node(mbr);
                    queue.push_back(child);
                }
            }
        }
        idx += 1;
    }
    flat
}

fn node_mbr(node: &Node) -> Option<Mbr> {
    match node {
        Node::Leaf(points) => {
            let mut it = points.iter();
            let mut mbr = Mbr::of_point(&it.next()?.0);
            for (p, _) in it {
                mbr.merge(&Mbr::of_point(p));
            }
            Some(mbr)
        }
        Node::Inner(children) => {
            let mut it = children.iter();
            let mut mbr = it.next()?.0.clone();
            for (m, _) in it {
                mbr.merge(m);
            }
            Some(mbr)
        }
    }
}

/// Recursive insert; returns a new right sibling when the child split.
fn insert_rec(node: &mut Node, point: &[f64], graph: GraphId) -> Option<(Mbr, Node)> {
    match node {
        Node::Leaf(points) => {
            points.push((point.to_vec(), graph));
            if points.len() <= MAX_ENTRIES {
                return None;
            }
            // Split along the axis with the largest spread, at the
            // median.
            let dim = point.len();
            let axis = (0..dim)
                .max_by(|&a, &b| {
                    spread(points, a).partial_cmp(&spread(points, b)).expect("finite spreads")
                })
                .expect("dim >= 1");
            points.sort_by(|x, y| x.0[axis].partial_cmp(&y.0[axis]).expect("finite weights"));
            let right_points = points.split_off(points.len() / 2);
            debug_assert!(points.len() >= MIN_ENTRIES && right_points.len() >= MIN_ENTRIES);
            let right = Node::Leaf(right_points);
            let right_mbr = node_mbr(&right).expect("non-empty split");
            Some((right_mbr, right))
        }
        Node::Inner(children) => {
            // ChooseLeaf: least margin enlargement, ties by smaller
            // margin.
            let point_mbr = Mbr::of_point(point);
            let best = (0..children.len())
                .min_by(|&i, &j| {
                    let key = |k: usize| {
                        let enlarged = children[k].0.merged(&point_mbr);
                        (enlarged.margin() - children[k].0.margin(), children[k].0.margin())
                    };
                    key(i).partial_cmp(&key(j)).expect("finite margins")
                })
                .expect("inner nodes are non-empty");
            let split = insert_rec(&mut children[best].1, point, graph);
            children[best].0 = node_mbr(&children[best].1).expect("child is non-empty");
            if let Some((mbr, sibling)) = split {
                children.push((mbr, sibling));
            }
            if children.len() <= MAX_ENTRIES {
                return None;
            }
            // Split inner node by center along the largest-spread axis.
            let dim = point.len();
            let axis = (0..dim)
                .max_by(|&a, &b| {
                    let s = |ax: usize| {
                        let lo =
                            children.iter().map(|(m, _)| m.min[ax]).fold(f64::INFINITY, f64::min);
                        let hi = children
                            .iter()
                            .map(|(m, _)| m.max[ax])
                            .fold(f64::NEG_INFINITY, f64::max);
                        hi - lo
                    };
                    s(a).partial_cmp(&s(b)).expect("finite spreads")
                })
                .expect("dim >= 1");
            children.sort_by(|x, y| {
                (x.0.min[axis] + x.0.max[axis])
                    .partial_cmp(&(y.0.min[axis] + y.0.max[axis]))
                    .expect("finite centers")
            });
            let right_children = children.split_off(children.len() / 2);
            let right = Node::Inner(right_children);
            let right_mbr = node_mbr(&right).expect("non-empty split");
            Some((right_mbr, right))
        }
    }
}

fn spread(points: &[(Vec<f64>, GraphId)], axis: usize) -> f64 {
    let lo = points.iter().map(|(p, _)| p[axis]).fold(f64::INFINITY, f64::min);
    let hi = points.iter().map(|(p, _)| p[axis]).fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Iterative arena descent: one batched rectangle scan per inner node,
/// one batched point scan per leaf, children visited depth-first and
/// left to right.
fn search_flat(
    flat: &FlatRTree,
    dim: usize,
    query: &[f64],
    sigma: f64,
    visit: &mut impl FnMut(GraphId, f64),
) {
    let mut stack: Vec<u32> = vec![0];
    let mut dists: Vec<f64> = Vec::new();
    while let Some(n) = stack.pop() {
        let n = n as usize;
        let cl = flat.child_len[n] as usize;
        if cl > 0 {
            let cs = flat.child_start[n] as usize;
            dists.clear();
            dists.resize(cl, 0.0);
            mbr_l1_costs_into(
                query,
                &flat.bounds_min[cs * dim..(cs + cl) * dim],
                &flat.bounds_max[cs * dim..(cs + cl) * dim],
                &mut dists,
            );
            // Reverse push so the leftmost qualifying child pops first.
            for i in (0..cl).rev() {
                if dists[i] <= sigma {
                    stack.push((cs + i) as u32);
                }
            }
        } else {
            let (ps, pl) = (flat.pt_start[n] as usize, flat.pt_len[n] as usize);
            dists.clear();
            dists.resize(pl, 0.0);
            l1_costs_into(query, &flat.points[ps * dim..(ps + pl) * dim], &mut dists);
            for (i, &d) in dists.iter().enumerate() {
                if d <= sigma {
                    visit(flat.graphs[ps + i], d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree holding `points[g]` for graph `g`.
    fn tree(dim: usize, points: &[Vec<f64>]) -> RTree {
        let mut t = RTree::new(dim);
        t.insert_batch(points.iter().enumerate().map(|(g, p)| (p, GraphId(g as u32))));
        t
    }

    fn collect(t: &RTree, q: &[f64], sigma: f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        t.range_query(q, sigma, |g, d| out.push((g.0, d)));
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    /// The tree's hits as sorted `(graph, distance bits)`.
    fn hits(t: &RTree, query: &[f64], sigma: f64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        t.range_query(query, sigma, |g, d| out.push((g.0, d.to_bits())));
        out.sort_unstable();
        out
    }

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// The definition: every point within `sigma` of `query` in
    /// coordinate-order L1, as sorted `(graph, distance bits)`.
    fn brute(points: &[Vec<f64>], query: &[f64], sigma: f64) -> Vec<(u32, u64)> {
        let within = |(g, p): (usize, &Vec<f64>)| {
            let d = l1(p, query);
            (d <= sigma).then_some((g as u32, d.to_bits()))
        };
        points.iter().enumerate().filter_map(within).collect()
    }

    /// Deterministic point cloud shared by the arena tests.
    fn random_points(n: u32, dim: usize) -> Vec<Vec<f64>> {
        let mut x = 42u64;
        let mut coordinate = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % 1000) as f64 / 100.0
        };
        (0..n).map(|_| (0..dim).map(|_| coordinate()).collect()).collect()
    }

    #[test]
    fn small_range_queries() {
        let t = tree(2, &[vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]]);
        assert_eq!(collect(&t, &[0.0, 0.0], 0.0), vec![(0, 0.0)]);
        assert_eq!(collect(&t, &[0.0, 0.0], 1.0), vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(collect(&t, &[0.0, 0.0], 10.0).len(), 3);
    }

    #[test]
    fn agrees_with_linear_scan_after_splits() {
        // Enough points to force several levels.
        let points = random_points(500, 3);
        let t = tree(3, &points);
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.len(), 500);
        for sigma in [0.5, 2.0, 7.5] {
            let query = [5.0, 5.0, 5.0];
            assert_eq!(hits(&t, &query, sigma), brute(&points, &query, sigma), "sigma={sigma}");
        }
    }

    #[test]
    fn frozen_arena_matches_pointer_reference() {
        // The arena's hits are the brute L1 scan over the inserted
        // points, f64 bits included — across splits, several sigmas,
        // and ragged leaf/child counts.
        for n in [1u32, 7, 8, 9, 60, 500] {
            let points = random_points(n, 3);
            let t = tree(3, &points);
            for sigma in [0.0, 0.5, 2.0, 7.5, 100.0] {
                let query = [5.0, 5.0, 5.0];
                assert_eq!(hits(&t, &query, sigma), brute(&points, &query, sigma), "n={n}");
            }
        }
    }

    #[test]
    fn insert_invalidates_the_arena_and_queries_stay_correct() {
        // A batch replaces the arena: the next query sees the new points,
        // and the arena is again the flattening of the grown tree.
        let mut points = random_points(50, 2);
        let mut t = tree(2, &points);
        assert_eq!(hits(&t, &[1.0, 1.0], 0.5), brute(&points, &[1.0, 1.0], 0.5));
        points.extend([vec![1.0, 1.0], vec![9.5, 0.5]]);
        t.insert_batch([(&points[50], GraphId(50)), (&points[51], GraphId(51))]);
        assert_eq!(hits(&t, &[1.0, 1.0], 0.5), brute(&points, &[1.0, 1.0], 0.5));
        assert_eq!(hits(&t, &[5.0, 5.0], 4.0), brute(&points, &[5.0, 5.0], 4.0));
        t.validate().unwrap();
    }

    #[test]
    fn frozen_empty_and_zero_dim_trees() {
        let t = RTree::new(4);
        let mut any = false;
        t.range_query(&[0.0; 4], 100.0, |_, _| any = true);
        assert!(!any);
        // Zero-dimensional points are all at distance zero.
        let z = tree(0, &[Vec::new()]);
        let mut got = Vec::new();
        z.range_query(&[], 0.0, |g, d| got.push((g.0, d)));
        assert_eq!(got, vec![(0, 0.0)]);
    }

    #[test]
    fn mbr_l1_distance() {
        // The rectangle kernel the descent prunes by: 0 inside, else the
        // L1 gap to the box.
        let m = Mbr { min: vec![1.0, 1.0], max: vec![2.0, 3.0] };
        for (q, want) in [([1.5, 2.0], 0.0), ([0.0, 2.0], 1.0), ([3.0, 4.0], 2.0)] {
            let mut d = [f64::NAN];
            mbr_l1_costs_into(&q, &m.min, &m.max, &mut d);
            assert_eq!(d[0], want, "{q:?}");
        }
    }

    #[test]
    fn duplicates_are_kept() {
        let t = tree(1, &[vec![1.0], vec![1.0]]);
        assert_eq!(t.len(), 2);
        assert_eq!(collect(&t, &[1.0], 0.0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dim_rejected() {
        tree(2, &[vec![1.0]]);
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new(4);
        assert!(t.is_empty());
        assert!(collect(&t, &[0.0; 4], 100.0).is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn validate_accepts_every_built_tree() {
        for n in [0u32, 1, 7, 8, 9, 60, 500] {
            let mut t = tree(3, &random_points(n, 3));
            t.validate().unwrap_or_else(|m| panic!("tree of {n}: {m}"));
            t.insert_batch([([1.0, 2.0, 3.0], GraphId(n))]);
            t.validate().unwrap_or_else(|m| panic!("grown tree of {n}: {m}"));
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let t = tree(3, &random_points(200, 3));
        t.validate().unwrap();

        // Entry-count drift.
        let mut bad = t.clone();
        bad.entries += 1;
        assert!(bad.validate().unwrap_err().contains("claims"));

        // A stored MBR that no longer equals its subtree's bound.
        let mut bad = t.clone();
        let Node::Inner(children) = &mut bad.root else { panic!("200 points must split the root") };
        children[0].0.min[0] += 0.25;
        assert!(bad.validate().unwrap_err().contains("MBR"));

        // Arena drift: a flipped point coordinate, a rewired graph id,
        // and a perturbed bound must all be caught by the re-flatten
        // comparison.
        for mutate in [
            (|f: &mut FlatRTree| f.points[0] += 1.0) as fn(&mut FlatRTree),
            |f| f.graphs[0] = GraphId(u32::MAX),
            |f| f.bounds_max[1] += 0.5,
            |f| f.child_len[0] = f.child_len[0].wrapping_sub(1),
        ] {
            let mut bad = t.clone();
            mutate(&mut bad.flat);
            assert_eq!(bad.validate().unwrap_err(), "frozen arena disagrees with the pointer tree");
        }
    }
}
