//! The paper's baselines (Section 2): naive scan and topoPrune.
//!
//! * [`naive_scan`] — verify every database graph ("scan the whole
//!   database and check whether a target graph has a superposition with
//!   a distance less than the threshold").
//! * [`topo_prune`] — "gets rid of graphs that do not contain the query
//!   structure first, and then checks the remaining candidates": a
//!   gIndex-style posting-list intersection over the query's features
//!   followed by a subgraph-isomorphism test; survivors (`Yt` in
//!   Figures 8–10) are then verified like PIS candidates.

use pis_distance::SuperimposedDistance;
use pis_graph::util::FxHashSet;
use pis_graph::{GraphId, LabeledGraph, ScopedPool};
use pis_index::{FragmentBuffer, FragmentIndex};
use pis_mining::FeatureId;

use crate::config::DEFAULT_PARALLEL_VERIFY_THRESHOLD;
use crate::search::{distance_dyn, query_verifier};
use crate::verify::VerifyScratch;

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// Candidates that reached verification (all graphs for the naive
    /// scan; the paper's `Yt` for topoPrune).
    pub candidates: Vec<GraphId>,
    /// Verified answers.
    pub answers: Vec<GraphId>,
    /// Number of verification calls (= candidates).
    pub verification_calls: usize,
}

/// Verifies every graph in the database — the reference answer and the
/// cost ceiling. Answers come back in id order.
pub fn naive_scan(
    database: &[LabeledGraph],
    query: &LabeledGraph,
    distance: &dyn SuperimposedDistance,
    sigma: f64,
) -> BaselineOutcome {
    let candidates: Vec<GraphId> = (0..database.len() as u32).map(GraphId).collect();
    let within = check_each(database, query, &candidates, |verify, target| {
        verify.distance_within(query, target, distance, sigma).is_some()
    });
    let answers =
        candidates.iter().zip(within).filter_map(|(&g, keep)| keep.then_some(g)).collect();
    BaselineOutcome { verification_calls: candidates.len(), candidates, answers }
}

/// Structure-only pruning: gIndex posting-list filter, then a subgraph
/// isomorphism check, then distance verification. Candidate counts do
/// not depend on `sigma` — exactly why Figures 8–10 show one flat
/// topoPrune curve against several PIS curves. Candidates and answers
/// come back in id order.
pub fn topo_prune(
    index: &FragmentIndex,
    database: &[LabeledGraph],
    query: &LabeledGraph,
    sigma: f64,
) -> BaselineOutcome {
    assert_eq!(database.len(), index.graph_count(), "database does not match the index");
    // Features present in the query, as the search enumerates them.
    let mut fragments = FragmentBuffer::new();
    index.enumerate_query_fragments_into(query, &mut fragments);
    let features: FxHashSet<FeatureId> =
        (0..fragments.len()).map(|i| fragments.feature(i)).collect();
    // Posting-list intersection.
    let mut filtered: Vec<GraphId> = (0..database.len() as u32).map(GraphId).collect();
    for &f in &features {
        let posting = index.class_graphs(f);
        filtered = intersect_sorted(&filtered, posting);
        if filtered.is_empty() {
            break;
        }
    }
    // Exact structure check (the filter is a superset), then the
    // distance, per graph through the same scratch: one plan for the
    // query.
    let distance = distance_dyn(index.distance());
    let checked = check_each(database, query, &filtered, |verify, target| {
        let contains = verify.contains_structure(query, target);
        (contains, contains && verify.distance_within(query, target, distance, sigma).is_some())
    });
    let (mut candidates, mut answers) = (Vec::new(), Vec::new());
    for (&g, (contains, within)) in filtered.iter().zip(checked) {
        if contains {
            candidates.push(g);
        }
        if within {
            answers.push(g);
        }
    }
    BaselineOutcome { verification_calls: candidates.len(), candidates, answers }
}

/// Runs `check` on the database graph of each of `graphs` in one pool
/// call, as the search verifies its candidates: on the calling thread
/// below the same break-even, else shared out across the cores, each
/// thread through one [`VerifyScratch`] holding the query's match plan.
/// Results stay in `graphs` order.
fn check_each<R: Send>(
    database: &[LabeledGraph],
    query: &LabeledGraph,
    graphs: &[GraphId],
    check: impl Fn(&mut VerifyScratch, &LabeledGraph) -> R + Sync,
) -> Vec<R> {
    ScopedPool::default().map_with(
        graphs,
        DEFAULT_PARALLEL_VERIFY_THRESHOLD,
        &mut query_verifier(query),
        || query_verifier(query),
        |verify, _, g| check(verify, &database[g.index()]),
    )
}

/// Intersection of two sorted `GraphId` lists.
fn intersect_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PisConfig;
    use crate::search::{PisSearcher, SearchScratch};
    use pis_distance::oracle::sssd_brute;
    use pis_distance::MutationDistance;
    use pis_graph::iso::{is_subgraph, IsoConfig};
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};
    use pis_index::{FragmentIndex, IndexConfig, IndexDistance};
    use pis_mining::exhaustive::exhaustive_features;

    fn cycle_with_edge_labels(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    fn db_and_index() -> (Vec<LabeledGraph>, FragmentIndex) {
        let db = vec![
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 1, 1, 1, 2, 2]),
            cycle_with_edge_labels(&[2, 2, 2, 2, 2, 2]),
            pis_graph::graph::path_graph(8, Label(0), Label(1)),
            pis_graph::graph::cycle_graph(5, Label(0), Label(1)),
        ];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let index = FragmentIndex::build(
            &db,
            features,
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        (db, index)
    }

    #[test]
    fn all_strategies_agree_with_the_oracle() {
        let (db, index) = db_and_index();
        let md = MutationDistance::edge_hamming();
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let mut scratch = SearchScratch::new();
        for q in [
            cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]),
            cycle_with_edge_labels(&[1, 2, 1, 1, 2, 1]),
        ] {
            for sigma in [0.0, 1.0, 3.0] {
                let expected: Vec<GraphId> = sssd_brute(&db, &q, &md, sigma)
                    .into_iter()
                    .map(|i| GraphId(i as u32))
                    .collect();
                let naive = naive_scan(&db, &q, &md, sigma);
                let topo = topo_prune(&index, &db, &q, sigma);
                let pis = searcher.search(&q, sigma, &mut scratch).unwrap();
                assert_eq!(naive.answers, expected, "naive, sigma={sigma}");
                assert_eq!(topo.answers, expected, "topo, sigma={sigma}");
                assert_eq!(pis.answers, expected, "pis, sigma={sigma}");
            }
        }
    }

    #[test]
    fn topo_candidates_are_structure_containing_graphs() {
        let (db, index) = db_and_index();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let topo = topo_prune(&index, &db, &q, 0.0);
        let expected: Vec<GraphId> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| is_subgraph(&q, g, IsoConfig::STRUCTURE))
            .map(|(i, _)| GraphId(i as u32))
            .collect();
        assert_eq!(topo.candidates, expected);
        // 6-cycles contain the query structure; the path and 5-cycle do
        // not.
        assert_eq!(topo.candidates, vec![GraphId(0), GraphId(1), GraphId(2)]);
    }

    #[test]
    fn topo_candidates_do_not_depend_on_sigma() {
        let (db, index) = db_and_index();
        let q = cycle_with_edge_labels(&[1, 1, 2, 1, 1, 1]);
        let a = topo_prune(&index, &db, &q, 0.0);
        let b = topo_prune(&index, &db, &q, 5.0);
        assert_eq!(a.candidates, b.candidates);
        assert!(a.answers.len() <= b.answers.len());
    }

    #[test]
    fn pis_prunes_at_least_as_hard_as_topo() {
        let (db, index) = db_and_index();
        let searcher =
            PisSearcher::new(&index, &db, PisConfig { verify: false, ..PisConfig::default() });
        let mut scratch = SearchScratch::new();
        for sigma in [0.0, 1.0, 2.0] {
            let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
            let topo = topo_prune(&index, &db, &q, sigma);
            let pis = searcher.search(&q, sigma, &mut scratch).unwrap();
            // Among structure-containing graphs, PIS keeps a subset.
            let yp = pis.candidates.iter().filter(|g| topo.candidates.contains(g)).count();
            assert!(yp <= topo.candidates.len(), "sigma={sigma}");
        }
    }

    #[test]
    fn naive_scan_visits_everything() {
        let (db, _) = db_and_index();
        let md = MutationDistance::edge_hamming();
        let q = cycle_with_edge_labels(&[1, 1, 1, 1, 1, 1]);
        let naive = naive_scan(&db, &q, &md, 1.0);
        assert_eq!(naive.verification_calls, db.len());
        assert_eq!(naive.candidates.len(), db.len());
    }

    #[test]
    fn intersect_sorted_works() {
        let a: Vec<GraphId> = [0, 2, 4].into_iter().map(GraphId).collect();
        let b: Vec<GraphId> = [1, 2, 3, 4].into_iter().map(GraphId).collect();
        let out: Vec<u32> = intersect_sorted(&a, &b).into_iter().map(|g| g.0).collect();
        assert_eq!(out, vec![2, 4]);
    }
}
