//! The fragment-based index of PIS (Section 4, Figure 5).
//!
//! Database graphs are decomposed into fragments — embeddings of the
//! selected feature structures — and every fragment's *label vector*
//! (categorical labels read in the feature's canonical order) is stored
//! in a per-equivalence-class [`flat_trie::FlatTrie`] that answers range
//! queries `d(g, g') ≤ σ`: a cache-resident level-major arena descended
//! level by level, one probe at a time, with each level's labels priced
//! once. Tests hold it to the definition, not to a second structure: a
//! class's hits equal a scan of every stored entry that sums the
//! per-position costs, to the f64 bit.
//!
//! One trie kernel serves both distances. A class's trie is as deep as
//! the class is wide: `v + e` slots under the mutation distance, none
//! under the linear distance (the paper's Example 3), whose class is its
//! posting list — a depth-0 trie with one entry per containing graph. A
//! linear probe therefore hits the whole list at distance 0, a lower
//! bound the funnel prunes soundly with; verification measures the
//! weights. The paper's R-tree over weight vectors is not carried: on
//! the molecule corpus it pruned almost nothing beyond the posting lists
//! and the structure check and made the search 18–156× slower than
//! `topo_prune` (DESIGN.md §6.14).
//!
//! A class holds two tries: the frozen one and a small *pending* one
//! that inserted graphs land in until the class merges them. Range
//! queries run the same kernel over both, so an unmerged class answers
//! exactly as a merged one.
//!
//! The query side has one form, the one the search runs: fragments
//! land in a caller's [`FragmentBuffer`], and a range query
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
//! Soundness note: *every* reading of every occurrence of a feature in a
//! database graph is stored (deduplicated), automorphic re-readings
//! included. The matcher visits one embedding per occurrence — the one
//! its feature's symmetry-breaking conditions admit — and the other
//! readings are that embedding's vector with its slots permuted by each
//! automorphism, so the rows are exactly those of every embedding. This
//! is what lets a query-side fragment issue a single range query, with
//! any one of its readings, and still minimize over all superpositions
//! (Eq. 3); the query side issues the least reading, so fragments whose
//! readings are the same set share one probe.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod codec;
pub mod flat_trie;
pub mod fragment;
pub mod index;
pub mod persist;
pub mod snapshot;
mod symmetry;
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
