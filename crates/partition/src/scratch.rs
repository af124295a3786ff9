//! Reusable buffers for mask-native `Q̃` construction and the MWIS
//! solvers.
//!
//! One [`PartitionScratch`] serves any number of sequential partition
//! selections: `OverlapGraph::rebuild_from_sets` and every MWIS solver
//! draw their working memory from it, so in steady state the
//! whole partition stage performs no heap allocation. Scratches are
//! independent — one per thread for concurrent searches.

/// Word width of the neighbor-mask rows.
pub(crate) const BITS: usize = u64::BITS as usize;

/// Reusable working memory for [`crate::OverlapGraph`] construction and
/// the mask-native MWIS solvers.
#[derive(Clone, Debug, Default)]
pub struct PartitionScratch {
    /// `(vertex id, fragment)` incidence pairs, sorted to group the
    /// fragments covering each query vertex.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// One-row mask of the fragments in the current vertex group.
    pub(crate) group: Vec<u64>,
    /// Covered-vertex mask: nodes removed from play (greedy/enhanced).
    pub(crate) covered: Vec<u64>,
    /// Members of the candidate set under construction (enhanced).
    pub(crate) members: Vec<u64>,
    /// Remaining (alive) node list rebuilt each enhanced round.
    pub(crate) remaining: Vec<usize>,
    /// Best candidate set of the current enhanced round.
    pub(crate) round_best: Vec<usize>,
    /// Depth-indexed arena of alive masks for the exact branch-and-bound
    /// (level `d` occupies `d*words_per_row..(d+1)*words_per_row`).
    pub(crate) stack: Vec<u64>,
    /// Current inclusion stack of the exact branch-and-bound.
    pub(crate) current: Vec<usize>,
    /// Incumbent selection of the exact branch-and-bound.
    pub(crate) incumbent: Vec<usize>,
}

impl PartitionScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        PartitionScratch::default()
    }
}

/// Whether bit `v` is set.
#[inline]
pub(crate) fn mask_contains(mask: &[u64], v: usize) -> bool {
    (mask[v / BITS] >> (v % BITS)) & 1 == 1
}

/// Sets bit `v`.
#[inline]
pub(crate) fn mask_set(mask: &mut [u64], v: usize) {
    mask[v / BITS] |= 1u64 << (v % BITS);
}

/// Clears bit `v`.
#[inline]
pub(crate) fn mask_clear(mask: &mut [u64], v: usize) {
    mask[v / BITS] &= !(1u64 << (v % BITS));
}

/// `dst |= src`, word-parallel.
#[inline]
pub(crate) fn mask_or(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Whether `a & b` has any set bit (one AND per word, early exit).
#[inline]
pub(crate) fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Popcount of `a & b`.
#[inline]
pub(crate) fn mask_and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as usize).sum()
}

/// The valid-bit mask of word `wi` in an `n`-bit row (all ones except
/// the phantom tail of the last word).
#[inline]
pub(crate) fn tail_mask(wi: usize, n: usize) -> u64 {
    let bits_before = wi * BITS;
    if n >= bits_before + BITS {
        u64::MAX
    } else if n <= bits_before {
        0
    } else {
        (1u64 << (n - bits_before)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ops_roundtrip() {
        let mut m = vec![0u64; 3];
        for v in [0, 63, 64, 130] {
            mask_set(&mut m, v);
            assert!(mask_contains(&m, v));
        }
        mask_clear(&mut m, 64);
        assert!(!mask_contains(&m, 64));
        for (v, expect) in [(0, true), (63, true), (64, false), (130, true), (131, false)] {
            assert_eq!(mask_contains(&m, v), expect, "bit {v}");
        }
    }

    #[test]
    fn intersection_helpers() {
        let mut a = vec![0u64; 2];
        let mut b = vec![0u64; 2];
        mask_set(&mut a, 3);
        mask_set(&mut a, 100);
        mask_set(&mut b, 100);
        assert!(masks_intersect(&a, &b));
        assert_eq!(mask_and_count(&a, &b), 1);
        mask_clear(&mut b, 100);
        assert!(!masks_intersect(&a, &b));
    }

    #[test]
    fn tail_masks_cover_exactly_n_bits() {
        assert_eq!(tail_mask(0, 64), u64::MAX);
        assert_eq!(tail_mask(0, 3), 0b111);
        assert_eq!(tail_mask(1, 64), 0);
        assert_eq!(tail_mask(1, 70), 0b111111);
        assert_eq!(tail_mask(2, 70), 0);
    }
}
