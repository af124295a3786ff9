//! Mutation score matrices.
//!
//! The mutation distance scores each label pair through a matrix `D`
//! (Section 2): `MD = Σ D(l(v), l'(v')) + Σ D(l(e), l'(e'))`. A valid
//! score matrix is symmetric with a zero diagonal and non-negative
//! entries; it need not satisfy the triangle inequality, and nothing in
//! the index relies on it.

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

use std::fmt;

use pis_graph::Label;

/// A symmetric, zero-diagonal, non-negative label-pair cost matrix.
///
/// Labels outside the matrix range fall back to
/// [`default_mismatch`](ScoreMatrix::default_mismatch) when distinct and
/// cost 0 when equal, so a small matrix safely covers an open label
/// vocabulary.
#[derive(Clone, PartialEq, Debug)]
pub struct ScoreMatrix {
    size: usize,
    /// Row-major `size × size` costs.
    costs: Vec<f64>,
    default_mismatch: f64,
    /// Cached "every cost is zero" flag — lets the index leave a kind of
    /// label it never prices (the paper's ignored vertex labels) out of
    /// its vectors in O(1).
    zero: bool,
}

/// Errors raised by [`ScoreMatrix`] constructors.
#[derive(Clone, PartialEq, Debug)]
pub enum ScoreMatrixError {
    /// A diagonal entry was non-zero.
    NonZeroDiagonal(usize),
    /// `m[i][j] != m[j][i]`.
    Asymmetric(usize, usize),
    /// A cost was negative or NaN.
    InvalidCost(usize, usize),
}

impl fmt::Display for ScoreMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreMatrixError::NonZeroDiagonal(i) => {
                write!(f, "score matrix diagonal entry ({i},{i}) must be zero")
            }
            ScoreMatrixError::Asymmetric(i, j) => {
                write!(f, "score matrix must be symmetric; ({i},{j}) != ({j},{i})")
            }
            ScoreMatrixError::InvalidCost(i, j) => {
                write!(f, "score matrix entry ({i},{j}) must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ScoreMatrixError {}

impl ScoreMatrix {
    /// The unit (Hamming) matrix: cost 1 for any mismatch. `size` only
    /// bounds the explicit storage; out-of-range labels behave the same.
    pub fn unit(size: usize) -> Self {
        ScoreMatrix::uniform(size, 1.0)
    }

    /// Uniform mismatch cost for every distinct pair.
    pub fn uniform(size: usize, mismatch: f64) -> Self {
        assert!(mismatch >= 0.0 && mismatch.is_finite(), "mismatch cost must be non-negative");
        let mut costs = vec![mismatch; size * size];
        for i in 0..size {
            costs[i * size + i] = 0.0;
        }
        ScoreMatrix { size, costs, default_mismatch: mismatch, zero: mismatch == 0.0 }
    }

    /// The all-zero matrix: label differences cost nothing (used to
    /// ignore vertex labels, as the paper's evaluation does).
    pub fn zero(size: usize) -> Self {
        ScoreMatrix { size, costs: vec![0.0; size * size], default_mismatch: 0.0, zero: true }
    }

    /// Builds a matrix from a generator; validates symmetry, zero
    /// diagonal and non-negativity. `default_mismatch` applies to labels
    /// outside `0..size`.
    pub fn from_fn(
        size: usize,
        default_mismatch: f64,
        f: impl Fn(Label, Label) -> f64,
    ) -> Result<Self, ScoreMatrixError> {
        let mut costs = vec![0.0; size * size];
        for i in 0..size {
            for j in 0..size {
                let c = f(Label(i as u32), Label(j as u32));
                if !(c.is_finite() && c >= 0.0) {
                    return Err(ScoreMatrixError::InvalidCost(i, j));
                }
                costs[i * size + j] = c;
            }
        }
        for i in 0..size {
            if costs[i * size + i] != 0.0 {
                return Err(ScoreMatrixError::NonZeroDiagonal(i));
            }
            for j in (i + 1)..size {
                #[expect(
                    clippy::float_cmp,
                    reason = "symmetry is bit-exact by contract: both entries are stored inputs, not computed values"
                )]
                if costs[i * size + j] != costs[j * size + i] {
                    return Err(ScoreMatrixError::Asymmetric(i, j));
                }
            }
        }
        if !(default_mismatch.is_finite() && default_mismatch >= 0.0) {
            return Err(ScoreMatrixError::InvalidCost(size, size));
        }
        let zero = default_mismatch == 0.0 && costs.iter().all(|&c| c == 0.0);
        Ok(ScoreMatrix { size, costs, default_mismatch, zero })
    }

    /// Number of labels with explicit entries.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Fallback cost for distinct labels outside the explicit range.
    pub fn default_mismatch(&self) -> f64 {
        self.default_mismatch
    }

    /// The mutation cost of relabeling `a` as `b`.
    #[inline]
    pub fn cost(&self, a: Label, b: Label) -> f64 {
        if a == b {
            return 0.0;
        }
        let (i, j) = (a.index(), b.index());
        if i < self.size && j < self.size {
            self.costs[i * self.size + j]
        } else {
            self.default_mismatch
        }
    }

    /// Batched form of [`ScoreMatrix::cost`]: writes `cost(a, bs[k])`
    /// into `out[k]` for every `k`. The hot inner loop of the flat
    /// trie's frontier descent — one call per trie level costs a whole
    /// alphabet of stored labels against the query label, scanning the
    /// matrix row contiguously so the loop autovectorizes instead of
    /// re-resolving the row per child node.
    ///
    /// # Panics
    /// Panics if `bs.len() != out.len()`.
    pub fn costs_into(&self, a: Label, bs: &[Label], out: &mut [f64]) {
        assert_eq!(bs.len(), out.len(), "cost output must match the label batch");
        let i = a.index();
        if i < self.size {
            let row = &self.costs[i * self.size..(i + 1) * self.size];
            for (o, &b) in out.iter_mut().zip(bs) {
                let j = b.index();
                *o = if b == a {
                    0.0
                } else if j < self.size {
                    row[j]
                } else {
                    self.default_mismatch
                };
            }
        } else {
            for (o, &b) in out.iter_mut().zip(bs) {
                *o = if b == a { 0.0 } else { self.default_mismatch };
            }
        }
    }

    /// Whether every entry (and the out-of-range fallback) is zero, so
    /// the matrix can never contribute cost. O(1) — the flag is cached
    /// at construction. Lets callers skip whole pricing passes for the
    /// paper's ignored-label segments.
    pub fn is_zero(&self) -> bool {
        self.zero
    }

    /// The largest explicit entry (used for pruning bounds).
    pub fn max_cost(&self) -> f64 {
        self.costs.iter().copied().fold(self.default_mismatch, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_matrix_is_hamming() {
        let m = ScoreMatrix::unit(4);
        assert_eq!(m.cost(Label(1), Label(1)), 0.0);
        assert_eq!(m.cost(Label(1), Label(2)), 1.0);
        // Out-of-range labels fall back to the default.
        assert_eq!(m.cost(Label(9), Label(10)), 1.0);
        assert_eq!(m.cost(Label(9), Label(9)), 0.0);
    }

    #[test]
    fn zero_matrix_ignores_labels() {
        let m = ScoreMatrix::zero(3);
        assert_eq!(m.cost(Label(0), Label(2)), 0.0);
        assert_eq!(m.cost(Label(7), Label(8)), 0.0);
    }

    #[test]
    fn from_fn_validates_diagonal() {
        let err = ScoreMatrix::from_fn(2, 1.0, |_, _| 1.0).unwrap_err();
        assert!(matches!(err, ScoreMatrixError::NonZeroDiagonal(0)));
    }

    #[test]
    fn from_fn_validates_symmetry() {
        let err = ScoreMatrix::from_fn(2, 1.0, |a, b| {
            if a == b {
                0.0
            } else if a.0 < b.0 {
                1.0
            } else {
                2.0
            }
        })
        .unwrap_err();
        assert!(matches!(err, ScoreMatrixError::Asymmetric(0, 1)));
    }

    #[test]
    fn from_fn_validates_costs() {
        let err = ScoreMatrix::from_fn(2, 1.0, |a, b| if a == b { 0.0 } else { -1.0 }).unwrap_err();
        assert!(matches!(err, ScoreMatrixError::InvalidCost(..)));
        assert!(ScoreMatrix::from_fn(2, f64::NAN, |_, _| 0.0).is_err());
    }

    #[test]
    fn from_fn_accepts_weighted_mismatches() {
        let m = ScoreMatrix::from_fn(3, 2.0, |a, b| {
            if a == b {
                0.0
            } else {
                (a.0 as f64 - b.0 as f64).abs()
            }
        })
        .unwrap();
        assert_eq!(m.cost(Label(0), Label(2)), 2.0);
        assert_eq!(m.cost(Label(5), Label(6)), 2.0); // default
        assert_eq!(m.max_cost(), 2.0);
    }

    #[test]
    fn costs_into_matches_scalar_cost() {
        let m = ScoreMatrix::from_fn(3, 2.0, |a, b| {
            if a == b {
                0.0
            } else {
                (a.0 as f64 - b.0 as f64).abs()
            }
        })
        .unwrap();
        // In-range and out-of-range query labels, mixed stored labels.
        for q in [Label(0), Label(1), Label(7)] {
            let stored = [Label(0), Label(1), Label(2), Label(7), Label(9)];
            let mut out = vec![f64::NAN; stored.len()];
            m.costs_into(q, &stored, &mut out);
            for (&s, &c) in stored.iter().zip(&out) {
                assert_eq!(c, m.cost(q, s), "q={q:?} s={s:?}");
            }
        }
    }

    #[test]
    fn zero_flag_is_cached() {
        assert!(ScoreMatrix::zero(3).is_zero());
        assert!(ScoreMatrix::uniform(3, 0.0).is_zero());
        assert!(!ScoreMatrix::unit(3).is_zero());
        assert!(!ScoreMatrix::from_fn(0, 1.0, |_, _| 0.0).unwrap().is_zero());
        assert!(ScoreMatrix::from_fn(2, 0.0, |_, _| 0.0).unwrap().is_zero());
    }

    #[test]
    #[should_panic(expected = "cost output")]
    fn costs_into_rejects_length_mismatch() {
        let m = ScoreMatrix::unit(2);
        let mut out = vec![0.0; 1];
        m.costs_into(Label(0), &[Label(1), Label(2)], &mut out);
    }

    #[test]
    fn errors_display() {
        assert!(ScoreMatrixError::NonZeroDiagonal(1).to_string().contains("diagonal"));
        assert!(ScoreMatrixError::Asymmetric(0, 1).to_string().contains("symmetric"));
        assert!(ScoreMatrixError::InvalidCost(0, 1).to_string().contains("non-negative"));
    }
}
