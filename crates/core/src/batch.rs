//! Workload execution and aggregate statistics.
//!
//! The paper's evaluation aggregates per-query candidate counts over
//! query sets; production deployments ask the same question of their
//! own workloads ("how selective is PIS on *my* queries?"). This module
//! runs a query set through a searcher and aggregates every funnel
//! stage into means and percentiles — the `figures` harness and user
//! capacity planning share it.

use std::fmt;
use std::time::{Duration, Instant};

use pis_graph::{LabeledGraph, ScopedPool};

use crate::search::{Completeness, PisSearcher, SearchScratch};

/// Aggregate statistics of one funnel stage across a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Aggregate {
    /// Computes aggregates over raw samples; all zeros when empty.
    pub fn of(samples: &[f64]) -> Aggregate {
        if samples.is_empty() {
            return Aggregate::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must be finite"));
        let pct = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        Aggregate {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: pct(0.5),
            p90: pct(0.9),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.1}, p50 {:.1}, p90 {:.1}, max {:.1}",
            self.mean, self.p50, self.p90, self.max
        )
    }
}

/// Aggregated funnel report for a workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// Number of queries executed.
    pub queries: usize,
    /// The threshold used.
    pub sigma: f64,
    /// Query fragments per query.
    pub fragments: Aggregate,
    /// Candidates after per-fragment intersection.
    pub after_intersection: Aggregate,
    /// Candidates after partition-bound pruning.
    pub after_partition: Aggregate,
    /// Candidates after the structure check.
    pub after_structure: Aggregate,
    /// Verified answers per query.
    pub answers: Aggregate,
    /// Wall time per query (whole search).
    pub latency: Aggregate,
    /// Total wall time of the run.
    pub total_time: Duration,
    /// Queries whose outcome was budget-truncated (0 when the
    /// searcher's configured [`QueryBudget`](pis_graph::budget::QueryBudget)
    /// is unlimited). Truncated queries still contribute their
    /// best-effort counts to every aggregate.
    pub truncated: usize,
}

impl fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload: {} queries at sigma = {}", self.queries, self.sigma)?;
        writeln!(f, "  fragments/query        {}", self.fragments)?;
        writeln!(f, "  after intersection     {}", self.after_intersection)?;
        writeln!(f, "  after partition bound  {}", self.after_partition)?;
        writeln!(f, "  after structure check  {}", self.after_structure)?;
        writeln!(f, "  answers                {}", self.answers)?;
        writeln!(f, "  latency (ms)           {}", self.latency)?;
        if self.truncated > 0 {
            writeln!(f, "  truncated              {} of {} queries", self.truncated, self.queries)?;
        }
        write!(f, "  total                  {:?}", self.total_time)
    }
}

/// Runs every query at `sigma` and aggregates the funnel.
///
/// Queries fan out across the shared [`ScopedPool`] (each worker reuses
/// one [`SearchScratch`] for its whole chunk); per-query latency is
/// still measured inside the worker, so under parallel execution it
/// reports in-thread wall time, not end-to-end queueing delay.
pub fn run_workload(
    searcher: &PisSearcher<'_>,
    queries: &[LabeledGraph],
    sigma: f64,
) -> WorkloadReport {
    /// Fewer queries than this stay on the calling thread.
    const PARALLEL_QUERY_THRESHOLD: usize = 8;
    let started = Instant::now();
    let per_query = ScopedPool::default().map_with(
        queries,
        PARALLEL_QUERY_THRESHOLD,
        SearchScratch::new,
        |scratch, _, q| {
            let t = Instant::now();
            let outcome = searcher.search_with_scratch(q, sigma, scratch);
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            (
                outcome.stats.query_fragments as f64,
                outcome.stats.candidates_after_intersection as f64,
                outcome.stats.candidates_after_partition as f64,
                outcome.stats.candidates_after_structure as f64,
                outcome.answers.len() as f64,
                latency_ms,
                matches!(outcome.completeness, Completeness::Truncated { .. }),
            )
        },
    );
    let mut fragments = Vec::with_capacity(queries.len());
    let mut inter = Vec::with_capacity(queries.len());
    let mut part = Vec::with_capacity(queries.len());
    let mut structure = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    let mut latency = Vec::with_capacity(queries.len());
    let mut truncated = 0;
    for (f, i, p, s, a, l, t) in per_query {
        fragments.push(f);
        inter.push(i);
        part.push(p);
        structure.push(s);
        answers.push(a);
        latency.push(l);
        truncated += usize::from(t);
    }
    WorkloadReport {
        queries: queries.len(),
        sigma,
        fragments: Aggregate::of(&fragments),
        after_intersection: Aggregate::of(&inter),
        after_partition: Aggregate::of(&part),
        after_structure: Aggregate::of(&structure),
        answers: Aggregate::of(&answers),
        latency: Aggregate::of(&latency),
        total_time: started.elapsed(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PisConfig;
    use pis_distance::MutationDistance;
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};
    use pis_index::{FragmentIndex, IndexConfig, IndexDistance};
    use pis_mining::exhaustive::exhaustive_features;

    fn ring(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    #[test]
    fn aggregate_statistics() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0, 4.0, 10.0]);
        assert_eq!(a.mean, 4.0);
        assert_eq!(a.p50, 3.0);
        assert_eq!(a.max, 10.0);
        assert!(a.p90 >= a.p50);
        assert_eq!(Aggregate::of(&[]), Aggregate::default());
    }

    #[test]
    fn workload_report_covers_all_queries() {
        let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 1, 2, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let queries = vec![ring(&[1, 1, 1, 1]), ring(&[2, 2, 2, 2])];
        let report = run_workload(&searcher, &queries, 1.0);
        assert_eq!(report.queries, 2);
        assert!(report.answers.mean >= 1.0, "each query matches at least itself");
        assert!(report.latency.max >= report.latency.p50);
        let text = report.to_string();
        assert!(text.contains("workload: 2 queries"));
        assert!(text.contains("after partition bound"));
    }

    #[test]
    fn workload_counts_truncated_queries() {
        let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 1, 2, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let config = PisConfig {
            budget: pis_graph::budget::QueryBudget { node_limit: Some(1), ..Default::default() },
            ..PisConfig::default()
        };
        let searcher = PisSearcher::new(&index, &db, config);
        let queries = vec![ring(&[1, 1, 1, 1]), ring(&[2, 2, 2, 2])];
        let report = run_workload(&searcher, &queries, 1.0);
        assert_eq!(report.truncated, 2, "a one-unit budget truncates every query");
        assert!(report.to_string().contains("truncated"));
        // An unlimited workload reports zero and omits the line.
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let report = run_workload(&searcher, &queries, 1.0);
        assert_eq!(report.truncated, 0);
        assert!(!report.to_string().contains("truncated"));
    }

    #[test]
    fn empty_workload() {
        let db = vec![ring(&[1, 1, 1])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 2),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let report = run_workload(&searcher, &[], 1.0);
        assert_eq!(report.queries, 0);
        assert_eq!(report.answers, Aggregate::default());
    }
}
