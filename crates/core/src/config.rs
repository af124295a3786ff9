//! Search-time configuration: one [`PisConfig`] per searcher, read by
//! both query entries ([`PisSearcher::search`](crate::PisSearcher::search)
//! and [`PisSearcher::knn`](crate::PisSearcher::knn)). A different
//! setting for one call — a per-query budget included — is a searcher
//! built with a different config.

use pis_graph::budget::QueryBudget;

/// Which MWIS algorithm picks the partition (Section 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartitionAlgo {
    /// Algorithm 1 (`Greedy()`), the paper's default.
    #[default]
    Greedy,
    /// `EnhancedGreedy(k)`; the paper evaluates `k = 2`.
    EnhancedGreedy(usize),
    /// Exact branch-and-bound MWIS (ablation A1). Pools beyond the
    /// solver's node cap demote to `EnhancedGreedy(2)` instead of
    /// failing; `SearchStats::exact_fallback` reports when that
    /// happened.
    Exact,
}

/// Tunables of the partition-based search (Algorithm 2).
#[derive(Clone, Debug)]
pub struct PisConfig {
    /// Selectivity cutoff multiplier `λ`: graphs not within `σ` of a
    /// fragment contribute `λσ` to its selectivity, and matched
    /// distances are capped at `λσ` (Figure 11; `λ = 1` is the paper's
    /// default).
    pub lambda: f64,
    /// Minimum selectivity `ε` a fragment needs to join the
    /// overlapping-relation graph (Algorithm 2, line 5). Fragments whose
    /// structure appears within `σ` in nearly every graph prune nothing.
    pub epsilon: f64,
    /// Partition algorithm.
    pub partition: PartitionAlgo,
    /// Run the exact structure check (`Q ⊆ G`) on the pruned candidates
    /// before distance verification. The paper builds PIS on top of
    /// gIndex, i.e. with this filter on; disabling it yields the raw
    /// Algorithm 2 candidate set.
    pub structure_check: bool,
    /// Verify candidates (step 3). Disable to measure pruning in
    /// isolation, as the paper's figures do.
    pub verify: bool,
    /// Per-query resource budget (deadline, work-unit limit,
    /// cancellation token) — the only place a budget is set. Every
    /// [`search`](crate::PisSearcher::search) and
    /// [`knn`](crate::PisSearcher::knn) call starts a fresh budget from
    /// it. The default is unlimited; searches under a limited budget
    /// degrade gracefully and mark their outcome
    /// [`Truncated`](crate::Completeness::Truncated) instead of
    /// blocking.
    pub budget: QueryBudget,
}

/// Threshold of the range-query fan-out: below this many unique probes
/// a search's pool call answers the probe groups on the calling thread;
/// at or above it, the pool shares them out across its workers.
///
/// Not a measured break-even: 48 (like
/// [`DEFAULT_PARALLEL_VERIFY_THRESHOLD`]'s 64) is a carry-over that was
/// never measured beyond 2 cores, and ROADMAP direction 2(d) is to settle
/// both or remove the fan-outs. What is known (2 cores, `tight_10k`,
/// measured on the parent of PR 20, when the pool spawned every worker
/// and split the slice into fixed halves): a fan-out's first thread
/// started 0.11–0.17 ms after the call and its second 0.29–0.62 ms,
/// each fan-out's wall time was 0.22–0.26 ms more than its busier
/// worker's own run time, and two threads returned 1.27× on the range
/// queries, 1.47× on the structure check and 1.40× on verification
/// over the same query forced serial. Those latencies are why the pool
/// now works on the calling thread and hands out blocks
/// (`pis_graph::pool`).
///
/// Measured again once the range phase folded hits into bit sets
/// (2 cores, untraced benchmark runs, 5 alternating pairs per workload,
/// seeds 7–11, medians): against the same build with this phase forced
/// serial, the fan-out returned `ops_per_s` 1.07× on `tight_10k`
/// (105.9 vs 99.3), 1.07× on `loose_2k` (84.7 vs 79.2) and 1.16× on
/// `small_q24` (479 vs 414), and `query_p50_ms` 1.06×, 1.19× and 1.16×,
/// winning every pair on all three. The fan-out stays; whether 48 is its
/// break-even is still unmeasured.
pub const DEFAULT_PARALLEL_FRAGMENT_THRESHOLD: usize = 48;

/// Threshold of the structure check and candidate verification:
/// batches smaller than this run on the calling thread. An unmeasured
/// carry-over, see [`DEFAULT_PARALLEL_FRAGMENT_THRESHOLD`].
pub const DEFAULT_PARALLEL_VERIFY_THRESHOLD: usize = 64;

impl Default for PisConfig {
    fn default() -> Self {
        PisConfig {
            lambda: 1.0,
            epsilon: 0.0,
            partition: PartitionAlgo::Greedy,
            structure_check: true,
            verify: true,
            budget: QueryBudget::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = PisConfig::default();
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.epsilon, 0.0);
        assert_eq!(c.partition, PartitionAlgo::Greedy);
        assert!(c.structure_check);
        assert!(c.verify);
        assert!(!c.budget.is_limited(), "the default budget is unlimited");
    }
}
