//! Index feature selection for PIS (Section 4, step 1).
//!
//! The paper selects index structures "according to the criteria proposed
//! in GraphGrep \[12\] or gIndex \[16\]". This crate implements both, plus
//! the infrastructure they share:
//!
//! * [`gspan`] — a pattern-growth frequent-subgraph miner (gSpan,
//!   reference \[15\]) with DFS-code canonical pruning and size-increasing
//!   support;
//! * [`gindex`] — discriminative-feature selection on top of the miner
//!   (gIndex, reference \[16\]);
//! * [`paths`] — GraphGrep-style path features (reference \[12\]);
//! * [`exhaustive`] — every structure up to a size cap, the oracle
//!   feature source used by tests and the paper's Example 4 ("index all
//!   edges");
//! * [`feature`] — the deduplicated [`feature::FeatureSet`] consumed by
//!   `pis-index`.
//!
//! PIS hashes fragments by *bare structure*, so callers mine on
//! label-erased graphs; the miner itself is label-aware and reusable.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod exhaustive;
pub mod feature;
pub mod gindex;
pub mod gspan;
pub mod paths;

pub use feature::{Feature, FeatureId, FeatureSet};
pub use gindex::{select_features, select_features_with_stats, GindexConfig};
pub use gspan::{mine, mine_with_stats, GspanConfig, MineStats, MinedPattern};
