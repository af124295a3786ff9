//! PIS — Partition-based Graph Index and Search (ICDE 2006).
//!
//! The crate assembles the paper's full pipeline:
//!
//! 1. **Fragment-based index** (`pis-index`): built once over the
//!    database from mined features (`pis-mining`).
//! 2. **Partition-based search** ([`search::PisSearcher`], Algorithm 2):
//!    enumerate the query's indexed fragments, run one range query per
//!    fragment, intersect the survivor sets (structure + distance
//!    violations), compute per-fragment selectivity
//!    ([`selectivity`]), pick a maximum-selectivity non-overlapping
//!    partition via MWIS (`pis-partition`), and prune every graph whose
//!    partition lower bound exceeds `σ`.
//! 3. **Candidate verification** ([`verify`]): a branch-and-bound
//!    minimum-superimposed-distance matcher confirms survivors.
//!
//! A query is issued one way: [`PisSearcher::search`] for the range
//! form (Definition 2) and [`PisSearcher::knn`] for its top-k form.
//! Both take a caller-owned [`SearchScratch`] (hold one per thread and
//! every buffer is reused across queries), validate their input into a
//! [`QueryError`], and run under the budget of the searcher's
//! [`PisConfig`]. The tests hold `search` to the brute-force oracles
//! (`naive_scan`, `pis_distance::oracle`), never to a second pipeline.
//!
//! Baselines from Section 2 live in [`baseline`]: the naive full scan
//! and `topoPrune` (structure-only filtering). The searcher's
//! [`search::SearchStats`] expose every intermediate candidate count the
//! paper plots in Figures 8–12.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod baseline;
pub mod config;
pub mod error;
pub mod explain;
pub mod knn;
pub mod search;
pub mod selectivity;
pub mod verify;

pub use baseline::{naive_scan, topo_prune, BaselineOutcome};
pub use config::{
    PartitionAlgo, PisConfig, DEFAULT_PARALLEL_FRAGMENT_THRESHOLD,
    DEFAULT_PARALLEL_VERIFY_THRESHOLD,
};
pub use error::QueryError;
pub use explain::explain;
pub use knn::{KnnOutcome, Neighbor};
pub use pis_graph::budget::{BudgetStats, QueryBudget};
pub use search::{
    Completeness, PisSearcher, SearchOutcome, SearchScratch, SearchStats, TruncationPhase,
};
pub use verify::{VerifyScratch, VerifyStats};
