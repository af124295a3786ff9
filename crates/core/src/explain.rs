//! Human-readable "explain plans" for PIS searches.
//!
//! Renders a [`SearchOutcome`] as the pruning funnel of Algorithm 2 —
//! what an operator looks at when a query is slower or less selective
//! than expected: how many fragments the query produced, what the
//! partition chose, and where candidates died.

use std::fmt::Write as _;

use pis_index::FragmentIndex;

use crate::search::{Completeness, SearchOutcome};

/// Renders the pruning funnel of one search.
///
/// `database_size` is the total graph count (the funnel's entry width);
/// pass the index used for the search so partition fragments can be
/// described by their structure.
pub fn explain(outcome: &SearchOutcome, index: &FragmentIndex, sigma: f64) -> String {
    let s = &outcome.stats;
    let n = index.graph_count();
    let mut out = String::new();
    let _ = writeln!(out, "PIS search, sigma = {sigma}");
    let _ = writeln!(out, "  query fragments      {:>8}", s.query_fragments);
    let _ =
        writeln!(out, "  fragment pool        {:>8}  (after epsilon filter)", s.fragments_in_pool);
    let _ = writeln!(
        out,
        "  partition            {:>8}  fragments, weight {:.3}",
        s.partition_size, s.partition_weight
    );
    for p in &s.partition {
        let feature = index.features().get(p.feature);
        let _ = writeln!(
            out,
            "    - {}: {}V/{}E structure, covers {} query vertices, w = {:.3}",
            p.feature,
            feature.vertex_count(),
            feature.edge_count(),
            p.vertices,
            p.weight
        );
    }
    let _ = writeln!(out, "  candidate funnel");
    let _ = writeln!(out, "    database           {n:>8}");
    let _ = writeln!(
        out,
        "    intersection       {:>8}  ({})",
        s.candidates_after_intersection,
        pct(s.candidates_after_intersection, n)
    );
    let _ = writeln!(
        out,
        "    partition bound    {:>8}  ({})",
        s.candidates_after_partition,
        pct(s.candidates_after_partition, n)
    );
    let _ = writeln!(
        out,
        "    structure check    {:>8}  ({})",
        s.candidates_after_structure,
        pct(s.candidates_after_structure, n)
    );
    let _ = writeln!(out, "  verification         {:>8}  calls", s.verification_calls);
    let _ = writeln!(out, "  answers              {:>8}", outcome.answers.len());
    if let Completeness::Truncated { phase, stats } = &outcome.completeness {
        let _ = writeln!(
            out,
            "  possible             {:>8}  (verification interrupted)",
            outcome.possible.len()
        );
        let _ = writeln!(
            out,
            "  TRUNCATED in {} after {} checkpoints / {} work units; \
             answers are verified, `possible` graphs are undecided",
            phase.name(),
            stats.checkpoints,
            stats.work_units
        );
    }
    out
}

fn pct(x: usize, n: usize) -> String {
    if n == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * x as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PisConfig;
    use crate::search::{PisSearcher, SearchScratch};
    use pis_distance::MutationDistance;
    use pis_graph::{EdgeAttr, GraphBuilder, Label, LabeledGraph, VertexAttr};
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
    fn explain_renders_the_funnel() {
        let db =
            vec![ring(&[1, 1, 1, 1, 1, 1]), ring(&[1, 1, 1, 1, 1, 2]), ring(&[2, 2, 2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 4),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let outcome =
            searcher.search(&ring(&[1, 1, 1, 1, 1, 1]), 1.0, &mut SearchScratch::new()).unwrap();
        let text = explain(&outcome, &index, 1.0);
        assert!(text.contains("sigma = 1"));
        assert!(text.contains("database                  3"));
        assert!(text.contains("query fragments"));
        assert!(text.contains("answers"));
        // Partition fragments are described by structure.
        assert!(outcome.stats.partition.is_empty() || text.contains("covers"));
    }

    #[test]
    fn explain_handles_empty_database() {
        let db: Vec<LabeledGraph> = Vec::new();
        let index = FragmentIndex::build(
            &db,
            pis_mining::FeatureSet::new(),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let outcome = searcher.search(&ring(&[1, 1, 1]), 1.0, &mut SearchScratch::new()).unwrap();
        let text = explain(&outcome, &index, 1.0);
        assert!(text.contains('-'), "percentages degrade gracefully on empty input");
    }
}
