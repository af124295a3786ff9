//! Labeled-graph substrate for PIS (ICDE 2006).
//!
//! This crate provides every structural primitive the PIS system is built
//! on:
//!
//! * [`LabeledGraph`] — an undirected, simple, labeled and optionally
//!   weighted graph, the unit stored in a graph database.
//! * [`iso`] — a word-parallel subgraph-isomorphism matcher with full
//!   embedding enumeration (the paper's `⊆` and the superposition
//!   enumerator behind `d(Q, G)`).
//! * [`canonical`] — minimum-DFS-code canonical forms (gSpan [Yan & Han,
//!   ICDM'02]) used to hash fragments into structural equivalence
//!   classes, plus a naive adjacency-matrix canonical form used as a
//!   cross-check.
//! * [`enumerate`] — connected-subgraph enumeration with canonical
//!   deduplication, used for exhaustive feature generation.
//! * [`io`] — a small line-oriented text format for graph databases.
//! * [`bitset`] / [`pool`] — a dense [`GraphBitSet`] over database ids
//!   and the shared [`ScopedPool`] chunking utility, the performance
//!   substrate of the candidate funnel (`DESIGN.md` §6).
//! * [`budget`] — per-query [`QueryBudget`] limits and the cooperative
//!   [`BudgetState`] checkpoints every long-running loop consults
//!   (`DESIGN.md` §6.9).
//!
//! The crate has no mandatory dependencies and is
//! `#![forbid(unsafe_code)]` (enforced workspace-wide); the optional
//! `failpoints` feature pulls in the vendored test-support registry for
//! the fault-injection tier.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod algo;
pub mod bitset;
pub mod budget;
pub mod canonical;
pub mod enumerate;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod iso;
pub mod pool;
pub mod util;

pub use bitset::GraphBitSet;
pub use budget::{BudgetState, BudgetStats, CheckpointSite, Interrupted, QueryBudget};
pub use error::GraphError;
pub use graph::{Edge, EdgeAttr, GraphBuilder, LabeledGraph, VertexAttr};
pub use ids::{EdgeId, GraphId, Label, VertexId};
pub use iso::{Embedding, IsoConfig, SubgraphMatcher};
pub use pool::ScopedPool;
