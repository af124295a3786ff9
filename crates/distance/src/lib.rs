//! Superimposed distance measures (Section 2 of the PIS paper).
//!
//! A *superimposed distance* compares two structurally isomorphic labeled
//! graphs through a superposition (a vertex bijection that preserves
//! edges): it sums a per-vertex and a per-edge cost over the mapping.
//! The paper introduces two instances, both implemented here:
//!
//! * [`MutationDistance`] — categorical labels scored through a
//!   [`ScoreMatrix`] (the evaluation uses its edge-Hamming special case:
//!   the number of mismatched edge labels);
//! * [`LinearDistance`] — numeric weights scored as `|w − w'|`.
//!
//! Both satisfy the *partition lower bound* of Eq. (2): for any
//! vertex-disjoint partition `{g_i}` of `Q`,
//! `Σ_i d(g_i, G) ≤ d(Q, G)` — verified by property tests in this crate
//! and relied on by the PIS pruning pipeline.
//!
//! [`oracle::min_superimposed_distance_brute`] computes the exact
//! minimum superimposed distance by full superposition enumeration; it
//! is the correctness oracle for the index and the optimized verifier.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod linear;
pub mod matrix;
pub mod mutation;
pub mod oracle;
pub mod traits;

pub use linear::LinearDistance;
pub use matrix::ScoreMatrix;
pub use mutation::MutationDistance;
pub use traits::SuperimposedDistance;
