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

use pis_bench::pipeline_workload::{MAX_FRAGMENT_EDGES, QUERY_EDGES, SIGMAS};
use pis_bench::{ExperimentScale, TestBed};
use pis_core::{PisConfig, PisSearcher};

/// Per σ ∈ {1, 2, 4}: candidates of a prune-only search (no structure
/// check, no verification), verified answers, and range-query hits
/// (distinct `(probe, graph)` pairs over each query's unique probes),
/// each summed over the query set.
const PRUNE_CANDIDATES: [usize; 3] = [39, 114, 193];
const ANSWERS: [usize; 3] = [4, 5, 9];
const RANGE_HITS: [usize; 3] = [42_149, 47_343, 48_779];

#[test]
fn smoke_fingerprint_is_pinned() {
    let scale = ExperimentScale { db_size: 100, query_count: 4, ..ExperimentScale::smoke() };
    let bed = TestBed::build(&scale, MAX_FRAGMENT_EDGES);
    let queries = bed.query_set(QUERY_EDGES);
    let prune_only = PisConfig { verify: false, structure_check: false, ..PisConfig::default() };
    let pruner = PisSearcher::new(&bed.index, &bed.db, prune_only);
    let full = PisSearcher::new(&bed.index, &bed.db, PisConfig::default());

    for (i, sigma) in SIGMAS.into_iter().enumerate() {
        let candidates: usize =
            queries.iter().map(|q| pruner.search(q, sigma).candidates.len()).sum();
        let answers: usize = queries.iter().map(|q| full.search(q, sigma).answers.len()).sum();
        let mut range_hits = 0;
        for q in &queries {
            let mut probes = Vec::new();
            for fragment in bed.index.enumerate_query_fragments(q) {
                let probe = (fragment.feature, fragment.vector);
                if !probes.contains(&probe) {
                    range_hits += bed.index.range_query(probe.0, &probe.1, sigma).len();
                    probes.push(probe);
                }
            }
        }
        assert_eq!(candidates, PRUNE_CANDIDATES[i], "prune-only candidates at sigma {sigma}");
        assert_eq!(answers, ANSWERS[i], "answers at sigma {sigma}");
        assert_eq!(range_hits, RANGE_HITS[i], "range hits at sigma {sigma}");
    }
}
