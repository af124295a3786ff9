//! An R-tree over fragment weight vectors (references \[4, 11\]).
//!
//! Each equivalence class of a weighted dataset maps its fragments to
//! points in `R^(V+E)` (vertex weights then edge weights, in canonical
//! order); a linear-distance range query `LD ≤ σ` is an L1 ball query
//! (the paper's Example 3). The L1 distance from a query point to a
//! rectangle lower-bounds the distance to every point inside, which
//! makes subtree pruning exact.
//!
//! The tree is packed bottom-up from its points, never grown by
//! insertion. The points sit row-major in one block, each beside its
//! class-local posting slot (as the trie's entries post them), in *pack
//! order*: Z-order over order-preserving coordinate bits, ties broken by
//! slot. The tree is implied by position — leaf `j` holds points
//! `8j..8j+8`, and node `j` of a level bounds nodes `8j..8j+8` of the
//! level below — so only each level's SoA `bounds_min`/`bounds_max`
//! blocks are stored. Pack order is a function of the stored entries
//! alone: a class built at once, grown by merges or loaded from a
//! snapshot is the same tree, value for value.
//!
//! [`RTree::range_query`] descends it, scanning each node's child
//! rectangles and each leaf's points contiguously through the batched
//! L1 kernels (`pis_distance::mbr_l1_costs_into` / `l1_costs_into`).

use std::cmp::Ordering;

use pis_distance::{l1_costs_into, mbr_l1_costs_into};
use pis_graph::GraphId;

/// Points per leaf and children per inner node.
const FANOUT: usize = 8;

/// One level's bounding rectangles, SoA: `dim` coordinates per node.
#[derive(Clone, Debug, Default, PartialEq)]
struct Level {
    bounds_min: Vec<f64>,
    bounds_max: Vec<f64>,
}

/// An R-tree over fixed-dimension points with L1 range queries, packed
/// from its points (module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RTree {
    dim: usize,
    /// Every point, row-major, in pack order.
    points: Vec<f64>,
    /// Each point's posting slot.
    slots: Vec<GraphId>,
    /// Bounding rectangles per level, leaves first, up to the lone root;
    /// none when the tree is empty.
    levels: Vec<Level>,
}

impl RTree {
    /// Packs a tree from `slots.len()` points given row-major in `rows`,
    /// in any order (duplicates are kept; the fragment index dedups
    /// upstream). No points make the empty tree.
    ///
    /// # Panics
    /// Panics if `rows` does not hold `slots.len()` points of `dim`
    /// coordinates.
    pub fn from_rows(dim: usize, rows: Vec<f64>, slots: Vec<GraphId>) -> Self {
        assert_eq!(rows.len(), slots.len() * dim, "point dimensionality must equal tree dim");
        let row = |i: usize| (&rows[i * dim..(i + 1) * dim], slots[i]);
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_unstable_by(|&a, &b| pack_cmp(row(a), row(b)));
        let mut points = Vec::with_capacity(rows.len());
        for &i in &order {
            points.extend_from_slice(row(i).0);
        }
        let slots = order.iter().map(|&i| slots[i]).collect();
        RTree::packed(dim, points, slots)
    }

    /// The tree over points already in pack order.
    fn packed(dim: usize, points: Vec<f64>, slots: Vec<GraphId>) -> Self {
        let levels = pack_levels(dim, slots.len(), &points);
        RTree { dim, points, slots, levels }
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every point's posting slot, in pack order.
    pub(crate) fn slots(&self) -> &[GraphId] {
        &self.slots
    }

    /// Point `i` in pack order and its slot.
    fn entry(&self, i: usize) -> (&[f64], GraphId) {
        (&self.points[i * self.dim..(i + 1) * self.dim], self.slots[i])
    }

    /// Merges `other`'s points into the tree: both blocks are in pack
    /// order, so one linear merge of the two — neither is re-sorted —
    /// and re-deriving the bounds give the tree packed from the union,
    /// however the points arrived.
    ///
    /// # Panics
    /// Panics if the two dimensions differ.
    pub(crate) fn merge(&mut self, other: &RTree) {
        assert_eq!(other.dim, self.dim, "point dimensionality must equal tree dim");
        if other.is_empty() {
            return;
        }
        let total = self.len() + other.len();
        let mut points = Vec::with_capacity(total * self.dim);
        let mut slots = Vec::with_capacity(total);
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            let stored_first = j == other.len()
                || (i < self.len() && pack_cmp(self.entry(i), other.entry(j)).is_le());
            let (point, slot) = if stored_first {
                i += 1;
                self.entry(i - 1)
            } else {
                j += 1;
                other.entry(j - 1)
            };
            points.extend_from_slice(point);
            slots.push(slot);
        }
        *self = RTree::packed(self.dim, points, slots);
    }

    /// Checks every structural invariant, returning the first violation
    /// as a description, never a panic. A tree produced by any sequence
    /// of packs and merges always passes; the checks exist for
    /// debug re-validation after mutation and the offline `pis check`
    /// fsck.
    ///
    /// Block lengths agree (`dim` coordinates per slot), coordinates are
    /// finite, points are in non-decreasing pack order, and the levels
    /// are their re-derivation from the points: one per step of the
    /// `⌈n/8⌉` chain down to the root, each node's bound equal (f64 `==`)
    /// to the min/max over its children.
    pub fn validate(&self) -> Result<(), String> {
        let (dim, n) = (self.dim, self.slots.len());
        if self.points.len() != n * dim {
            return Err(format!(
                "{} coordinates for {n} points of {dim} dimensions",
                self.points.len()
            ));
        }
        if self.points.iter().any(|x| !x.is_finite()) {
            return Err("non-finite point coordinate".to_string());
        }
        if let Some(i) = (1..n).find(|&i| pack_cmp(self.entry(i - 1), self.entry(i)).is_gt()) {
            return Err(format!("point {i} is out of pack order"));
        }
        let derived = pack_levels(dim, n, &self.points);
        if self.levels.len() != derived.len() {
            return Err(format!(
                "{} levels where {n} points pack into {}",
                self.levels.len(),
                derived.len()
            ));
        }
        match self.levels.iter().zip(&derived).position(|(stored, derived)| stored != derived) {
            Some(k) => Err(format!("level {k} bounds differ from the points they cover")),
            None => Ok(()),
        }
    }

    /// Visits every `(slot, L1 distance)` within `sigma` of `query`,
    /// descending from the root's rectangle depth-first, left to right.
    /// Each distance is the coordinate-order L1 sum, bit-identical to
    /// summing `|q_i − p_i|` in order (the batched kernels keep the
    /// scalar loop's order).
    ///
    /// # Panics
    /// Panics if `query.len() != dim`.
    pub fn range_query(&self, query: &[f64], sigma: f64, mut visit: impl FnMut(GraphId, f64)) {
        assert_eq!(query.len(), self.dim, "query dimensionality must equal tree dim");
        let dim = self.dim;
        let mut dists = [0.0; FANOUT];
        // Nodes whose rectangle is within `sigma`, as (level, node).
        // Level 0 is the leaves; the root's virtual parent above the top
        // level has the root as its one child.
        let mut stack = vec![(self.levels.len(), 0usize)];
        while let Some((level, node)) = stack.pop() {
            let first = node * FANOUT;
            // The node's children: points under a leaf, else nodes of the
            // level below.
            let last = (first + FANOUT).min(tier_len(self.len(), level));
            let dists = &mut dists[..last - first];
            let (lo, hi) = (first * dim, last * dim);
            if level == 0 {
                l1_costs_into(query, &self.points[lo..hi], dists);
                for (i, &d) in dists.iter().enumerate() {
                    if d <= sigma {
                        visit(self.slots[first + i], d);
                    }
                }
            } else {
                let below = &self.levels[level - 1];
                mbr_l1_costs_into(
                    query,
                    &below.bounds_min[lo..hi],
                    &below.bounds_max[lo..hi],
                    dists,
                );
                // Reverse push so the leftmost qualifying child pops first.
                for i in (0..dists.len()).rev() {
                    if dists[i] <= sigma {
                        stack.push((level - 1, first + i));
                    }
                }
            }
        }
    }

    /// Visits every stored `(point, slot)` pair in pack order (the
    /// snapshot writer).
    pub fn for_each_entry(&self, mut visit: impl FnMut(&[f64], GraphId)) {
        for i in 0..self.len() {
            let (point, slot) = self.entry(i);
            visit(point, slot);
        }
    }
}

/// The order-preserving key of a finite coordinate: keys compare as
/// unsigned integers the way the values compare (`-0.0` just below
/// `0.0`).
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Pack order: Z-order over the coordinates' keys — the order of their
/// bit-interleaved concatenation, most significant bits first and
/// coordinate 0 leading each bit — then the slot. The coordinate whose
/// keys differ in the highest bit decides.
fn pack_cmp((p, s): (&[f64], GraphId), (q, t): (&[f64], GraphId)) -> Ordering {
    let mut axis = None;
    let mut top = 0u64;
    for (d, (&x, &y)) in p.iter().zip(q).enumerate() {
        let diff = key(x) ^ key(y);
        if diff.leading_zeros() < top.leading_zeros() {
            axis = Some(d);
            top = diff;
        }
    }
    match axis {
        Some(d) => key(p[d]).cmp(&key(q[d])),
        None => s.cmp(&t),
    }
}

/// Children of the nodes on `level` of a tree of `n` points — the
/// points themselves under the leaves (level 0), `⌈n/8^level⌉` nodes of
/// the level below otherwise.
fn tier_len(n: usize, level: usize) -> usize {
    (0..level).fold(n, |len, _| len.div_ceil(FANOUT))
}

/// Every level's bounds for `n` points in pack order, leaves first: each
/// node's rectangle is the coordinate-wise min/max over its (up to)
/// `FANOUT` children — points for a leaf, rectangles above — until one
/// node bounds them all.
fn pack_levels(dim: usize, n: usize, points: &[f64]) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    let mut below = n;
    while below > 1 || (below == 1 && levels.is_empty()) {
        let (mins, maxs) = match levels.last() {
            Some(l) => (&l.bounds_min[..], &l.bounds_max[..]),
            None => (points, points),
        };
        let len = below.div_ceil(FANOUT);
        let mut level = Level {
            bounds_min: Vec::with_capacity(len * dim),
            bounds_max: Vec::with_capacity(len * dim),
        };
        for j in 0..len {
            let (first, last) = (j * FANOUT, ((j + 1) * FANOUT).min(below));
            level.bounds_min.extend_from_slice(&mins[first * dim..(first + 1) * dim]);
            level.bounds_max.extend_from_slice(&maxs[first * dim..(first + 1) * dim]);
            let (lo, hi) = (&mut level.bounds_min[j * dim..], &mut level.bounds_max[j * dim..]);
            for c in first + 1..last {
                for d in 0..dim {
                    lo[d] = lo[d].min(mins[c * dim + d]);
                    hi[d] = hi[d].max(maxs[c * dim + d]);
                }
            }
        }
        levels.push(level);
        below = len;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree holding `points[g]` under slot `g`.
    fn tree(dim: usize, points: &[Vec<f64>]) -> RTree {
        RTree::from_rows(dim, points.concat(), (0..points.len() as u32).map(GraphId).collect())
    }

    fn empty(dim: usize) -> RTree {
        RTree::from_rows(dim, Vec::new(), Vec::new())
    }

    fn collect(t: &RTree, q: &[f64], sigma: f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        t.range_query(q, sigma, |g, d| out.push((g.0, d)));
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    /// The tree's hits as sorted `(slot, distance bits)`.
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
    /// coordinate-order L1, as sorted `(slot, distance bits)`.
    fn brute(points: &[Vec<f64>], query: &[f64], sigma: f64) -> Vec<(u32, u64)> {
        let within = |(g, p): (usize, &Vec<f64>)| {
            let d = l1(p, query);
            (d <= sigma).then_some((g as u32, d.to_bits()))
        };
        points.iter().enumerate().filter_map(within).collect()
    }

    /// Deterministic point cloud shared by the tests.
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
        // Enough points for three levels.
        let points = random_points(500, 3);
        let t = tree(3, &points);
        assert_eq!((t.len(), t.levels.len()), (500, 3));
        for sigma in [0.5, 2.0, 7.5] {
            let query = [5.0, 5.0, 5.0];
            assert_eq!(hits(&t, &query, sigma), brute(&points, &query, sigma), "sigma={sigma}");
        }
    }

    #[test]
    fn frozen_arena_matches_pointer_reference() {
        // The tree's hits are the brute L1 scan over its points, f64 bits
        // included — at and around whole leaves and levels, up to three
        // levels, across several sigmas.
        for (n, levels) in [(1u32, 1), (7, 1), (8, 1), (9, 2), (60, 2), (64, 2), (65, 3), (500, 3)]
        {
            let points = random_points(n, 3);
            let t = tree(3, &points);
            assert_eq!((t.len(), t.levels.len()), (n as usize, levels), "n={n}");
            for sigma in [0.0, 0.5, 2.0, 7.5, 100.0] {
                let query = [5.0, 5.0, 5.0];
                let want = brute(&points, &query, sigma);
                assert_eq!(hits(&t, &query, sigma), want, "n={n} sigma={sigma}");
            }
        }
    }

    #[test]
    fn merge_repacks_and_queries_see_new_points() {
        // A merge re-packs the tree: the next query sees the new points.
        let mut points = random_points(50, 2);
        let mut t = tree(2, &points);
        assert_eq!(hits(&t, &[1.0, 1.0], 0.5), brute(&points, &[1.0, 1.0], 0.5));
        points.extend([vec![1.0, 1.0], vec![9.5, 0.5]]);
        t.merge(&RTree::from_rows(2, points[50..].concat(), vec![GraphId(50), GraphId(51)]));
        assert_eq!(hits(&t, &[1.0, 1.0], 0.5), brute(&points, &[1.0, 1.0], 0.5));
        assert_eq!(hits(&t, &[5.0, 5.0], 4.0), brute(&points, &[5.0, 5.0], 4.0));
        t.validate().unwrap();
    }

    #[test]
    fn merged_batches_pack_as_one_build() {
        // However the entries arrive — at once, in merged batches, in any
        // order — the tree is the one packed from all of them.
        let points = random_points(300, 3);
        let slot = |g: usize| GraphId(g as u32 % 40);
        let whole = RTree::from_rows(3, points.concat(), (0..points.len()).map(slot).collect());
        for batch in [1, 7, 64, 299] {
            let mut t = empty(3);
            for (k, chunk) in points.chunks(batch).enumerate().rev() {
                let first = k * batch;
                let slots = (first..first + chunk.len()).map(slot).collect();
                t.merge(&RTree::from_rows(3, chunk.concat(), slots));
            }
            assert_eq!(t, whole, "batches of {batch}");
        }
    }

    #[test]
    fn pack_order_is_z_order_then_slot() {
        // Two coordinates: pack order is the order of their keys'
        // bit interleaving, coordinate 0 leading each bit.
        let interleave = |p: &[f64]| {
            (0..64).rev().fold(0u128, |acc, b| {
                let bit = |x: f64| u128::from(key(x) >> b & 1);
                acc << 2 | bit(p[0]) << 1 | bit(p[1])
            })
        };
        let mut points = random_points(40, 2);
        points.extend([vec![-1.5, 2.0], vec![-0.0, 0.0], vec![0.0, -0.0], vec![1e300, -1e-300]]);
        for p in &points {
            for q in &points {
                let want = interleave(p).cmp(&interleave(q));
                assert_eq!(pack_cmp((p, GraphId(0)), (q, GraphId(1))), want.then(Ordering::Less));
            }
        }
        assert!(key(-0.0) < key(0.0) && key(-1.0) < key(-0.5) && key(0.5) < key(1.0));
    }

    #[test]
    fn frozen_empty_and_zero_dim_trees() {
        let t = empty(4);
        let mut any = false;
        t.range_query(&[0.0; 4], 100.0, |_, _| any = true);
        assert!(!any);
        // Zero-dimensional points are all at distance zero.
        let z = tree(0, &vec![Vec::new(); 20]);
        z.validate().unwrap();
        assert_eq!(z.levels.len(), 2);
        let mut got = Vec::new();
        z.range_query(&[], 0.0, |g, d| got.push((g.0, d)));
        assert_eq!(got, (0..20).map(|g| (g, 0.0)).collect::<Vec<_>>());
    }

    #[test]
    fn mbr_l1_distance() {
        // The rectangle kernel the descent prunes by: 0 inside, else the
        // L1 gap to the box.
        let (min, max) = ([1.0, 1.0], [2.0, 3.0]);
        for (q, want) in [([1.5, 2.0], 0.0), ([0.0, 2.0], 1.0), ([3.0, 4.0], 2.0)] {
            let mut d = [f64::NAN];
            mbr_l1_costs_into(&q, &min, &max, &mut d);
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
        let t = empty(4);
        assert!(t.is_empty());
        assert!(collect(&t, &[0.0; 4], 100.0).is_empty());
        assert!(t.levels.is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn validate_accepts_every_built_tree() {
        for n in [0u32, 1, 7, 8, 9, 60, 500] {
            let mut t = tree(3, &random_points(n, 3));
            t.validate().unwrap_or_else(|m| panic!("tree of {n}: {m}"));
            t.merge(&RTree::from_rows(3, vec![1.0, 2.0, 3.0], vec![GraphId(n)]));
            t.validate().unwrap_or_else(|m| panic!("grown tree of {n}: {m}"));
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let t = tree(3, &random_points(200, 3));
        t.validate().unwrap();

        // A point out of pack order.
        let mut bad = t.clone();
        let (a, b) = (bad.entry(10).0.to_vec(), bad.entry(11).0.to_vec());
        bad.points[30..33].copy_from_slice(&b);
        bad.points[33..36].copy_from_slice(&a);
        assert_eq!(bad.validate().unwrap_err(), "point 11 is out of pack order");

        // A perturbed bound, on the leaves and above.
        for level in [0, 1] {
            let mut bad = t.clone();
            bad.levels[level].bounds_max[1] += 0.5;
            assert_eq!(
                bad.validate().unwrap_err(),
                format!("level {level} bounds differ from the points they cover")
            );
        }

        // A wrong level count: a level lost, or one too many.
        let mut bad = t.clone();
        bad.levels.pop();
        assert_eq!(bad.validate().unwrap_err(), "2 levels where 200 points pack into 3");
        let mut bad = t.clone();
        bad.levels.push(Level { bounds_min: vec![0.0; 3], bounds_max: vec![0.0; 3] });
        assert!(bad.validate().unwrap_err().starts_with("4 levels"));

        // A level's node count off the chain.
        let mut bad = t.clone();
        bad.levels[1].bounds_min.truncate(3);
        bad.levels[1].bounds_max.truncate(3);
        assert_eq!(bad.validate().unwrap_err(), "level 1 bounds differ from the points they cover");

        // Entry-count drift.
        let mut bad = t.clone();
        bad.slots.push(GraphId(0));
        assert_eq!(bad.validate().unwrap_err(), "600 coordinates for 201 points of 3 dimensions");

        // A non-finite coordinate.
        let mut bad = t;
        bad.points[0] = f64::NAN;
        assert_eq!(bad.validate().unwrap_err(), "non-finite point coordinate");
    }
}
