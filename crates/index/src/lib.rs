//! The fragment-based index of PIS (Section 4, Figure 5).
//!
//! Database graphs are decomposed into fragments — embeddings of the
//! selected feature structures — and every fragment's *label vector*
//! (categorical labels or numeric weights read in the feature's
//! canonical order) is stored in a per-equivalence-class index that
//! answers range queries `d(g, g') ≤ σ` — one structure per distance:
//!
//! * [`flat_trie::FlatTrie`] — categorical labels under the mutation
//!   distance: a cache-resident level-major arena descended level by
//!   level, one probe at a time, with each level's labels priced once;
//! * [`rtree::RTree`] — numeric weights under the linear distance (L1
//!   ball queries, the paper's Example 3).
//!
//! Tests hold both to the definition, not to a second structure: a
//! class's hits equal a scan of every stored entry that sums the
//! per-position costs (the trie) or the L1 distance (the R-tree), to the
//! f64 bit.
//!
//! A class holds two instances of its structure: the frozen one and a
//! small *pending* one that inserted graphs land in until the class
//! merges them. Range queries run the same kernel over both, so an
//! unmerged class answers exactly as a merged one.
//!
//! The query side has one form, the one the search runs: fragments
//! land normalized in a caller's [`FragmentBuffer`], and a range query
//! takes a borrowed [`FragmentVectorRef`] probe as given, through a
//! caller's [`RangeScratch`], into a hit set with its tally, a minima
//! row, or the row's hit list.
//!
//! The paper's third option, a "metric-based index \[6\]", is not
//! carried: mutation score matrices need not satisfy the triangle
//! inequality it prunes by (DESIGN.md §5, A2/A3).
//!
//! The hash table of Figure 5 maps a structure's canonical DFS-code
//! sequence to its class; [`index::FragmentIndex`] ties everything
//! together and also owns the structural posting lists used by
//! topoPrune.
//!
//! Soundness note: *every* embedding of a feature into a database graph
//! is read out and inserted (deduplicated), including automorphic
//! re-readings. This is what lets a query-side fragment issue a single
//! range query and still minimize over all superpositions (Eq. 3).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod codec;
pub mod flat_trie;
pub mod fragment;
pub mod index;
pub mod persist;
pub mod rtree;
pub mod snapshot;
pub mod tally;
pub mod wal;

pub use flat_trie::{FlatTrie, TrieFrontier};
pub use fragment::{FragmentBuffer, FragmentVectorRef};
pub use index::{
    row_hits, FragmentIndex, IndexCheckReport, IndexConfig, IndexDistance, MergeStats, RangeScratch,
};
pub use persist::PersistError;
pub use snapshot::{decode_snapshot, encode_snapshot, load_snapshot, write_snapshot};
pub use tally::HitTally;
pub use wal::{Wal, WalReplay};
