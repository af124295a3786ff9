//! Pins the funnel's pruning *power* on a seeded testbed.
//!
//! Answers are oracle-checked all over the test suite, but nothing else
//! in tier-1 notices a bound that was loosened: the answers stay right
//! and only the candidate set grows. These are counts, not clocks — the
//! test fails on any machine if the intersection, the partition bound
//! or a range query lets more through, and passes on any machine
//! otherwise.
//!
//! The constants are the smoke fingerprint of the second bench harness
//! this crate carried until PR 16 (its committed smoke JSON: 100
//! graphs, seed 20060403, 4 × Q16, fragments of ≤ 5 edges). This file
//! was written and shown to pass on the parent commit, beside a fresh
//! smoke run of that harness printing the same nine numbers, before the
//! harness and its taps inside the searcher were deleted.
//!
//! The intersection counts and the partition-weight bits were added the
//! same way in PR 20: recorded on its parent commit, before the funnel
//! stopped reading hit lists. They hold the fused read-out of the range
//! rows — a dropped hit or pending entry moves `|CQ|` after the
//! intersection, a wrong term of Definition 5 (the missing-graphs term
//! included) or a reordered sum moves the weight bits. Every count is
//! read twice, off the frozen index and off one that had the last ten
//! graphs inserted one at a time, with some of their entries still in
//! the classes' pending structures.

use pis_bench::pipeline_workload::{MAX_FRAGMENT_EDGES, QUERY_EDGES, SIGMAS};
use pis_bench::{ExperimentScale, TestBed};
use pis_core::{PisConfig, PisSearcher, SearchScratch};
use pis_index::{FragmentBuffer, FragmentIndex, IndexConfig, RangeScratch};

/// Per σ ∈ {1, 2, 4}: candidates of a prune-only search (no structure
/// check, no verification), verified answers, and range-query hits
/// (distinct `(probe, graph)` pairs over each query's unique probes),
/// each summed over the query set. The range hits were re-recorded when
/// a fragment's probe became the least of its occurrence's readings:
/// probes that differ only by an automorphism of their feature are one
/// probe now, so fewer probes run (42 149 / 47 343 / 48 779 before);
/// every other count is unchanged.
const PRUNE_CANDIDATES: [usize; 3] = [39, 114, 193];
const ANSWERS: [usize; 3] = [4, 5, 9];
const RANGE_HITS: [usize; 3] = [33_055, 36_955, 38_047];
/// Per σ, over the same prune-only searches: `|CQ|` after the
/// per-fragment intersection, summed, and the XOR of the four
/// `partition_weight` bit patterns.
const AFTER_INTERSECTION: [usize; 3] = [46, 132, 198];
const PARTITION_WEIGHT_BITS: [u64; 3] =
    [0x000b_d6f5_bd6f_5bd2, 0x0001_a097_da09_7da4, 0x7fe6_2549_5254_9527];

#[test]
fn smoke_fingerprint_is_pinned() {
    let scale = ExperimentScale { db_size: 100, query_count: 4, ..ExperimentScale::smoke() };
    let bed = TestBed::build(&scale, MAX_FRAGMENT_EDGES);
    let queries = bed.query_set(QUERY_EDGES);
    // The same database with its last ten graphs inserted one at a
    // time: every count below must read the same off both indexes.
    let frozen = bed.db.len() - 10;
    let mut buffered = FragmentIndex::build(
        &bed.db[..frozen],
        bed.index.features().clone(),
        bed.index.distance().clone(),
        &IndexConfig::default(),
    );
    for g in &bed.db[frozen..] {
        buffered.insert_graph_pending(g);
    }
    assert!(buffered.pending_entries() > 0);

    for (name, index) in [("frozen", &bed.index), ("ten graphs inserted", &buffered)] {
        let prune_only =
            PisConfig { verify: false, structure_check: false, ..PisConfig::default() };
        let pruner = PisSearcher::new(index, &bed.db, prune_only);
        let full = PisSearcher::new(index, &bed.db, PisConfig::default());
        let mut scratch = SearchScratch::new();
        for (i, sigma) in SIGMAS.into_iter().enumerate() {
            let at = format!("at sigma {sigma}, {name}");
            let pruned: Vec<_> =
                queries.iter().map(|q| pruner.search(q, sigma, &mut scratch).unwrap()).collect();
            let candidates: usize = pruned.iter().map(|o| o.candidates.len()).sum();
            let after_intersection: usize =
                pruned.iter().map(|o| o.stats.candidates_after_intersection).sum();
            let weight_bits = pruned.iter().fold(0, |x, o| x ^ o.stats.partition_weight.to_bits());
            let answers: usize = queries
                .iter()
                .map(|q| full.search(q, sigma, &mut scratch).unwrap().answers.len())
                .sum();
            let (mut range_hits, mut hits) = (0, Vec::new());
            let (mut frags, mut range) = (FragmentBuffer::new(), RangeScratch::new());
            for q in &queries {
                index.enumerate_query_fragments_into(q, &mut frags);
                let mut probes = Vec::new();
                for (f, probe) in (0..frags.len()).map(|i| (frags.feature(i), frags.vector(i))) {
                    if !probes.contains(&(f, probe)) {
                        index.range_query_normalized_into(f, probe, sigma, &mut range, &mut hits);
                        range_hits += hits.len();
                        probes.push((f, probe));
                    }
                }
            }
            assert_eq!(candidates, PRUNE_CANDIDATES[i], "prune-only candidates {at}");
            assert_eq!(answers, ANSWERS[i], "answers {at}");
            assert_eq!(range_hits, RANGE_HITS[i], "range hits {at}");
            assert_eq!(
                after_intersection, AFTER_INTERSECTION[i],
                "candidates after intersection {at}"
            );
            assert_eq!(
                weight_bits, PARTITION_WEIGHT_BITS[i],
                "partition weight bits {at}: {weight_bits:#018x}"
            );
        }
    }
}
