//! k-nearest-neighbor substructure search — a natural extension of SSSD
//! (the range form of Definition 2) to top-k form: return the `k`
//! database graphs with the smallest minimum superimposed distance from
//! the query, among graphs that contain it structurally.
//!
//! The paper poses SSSD as a range query; production graph systems
//! usually want both. The implementation reuses the PIS pruning pipeline
//! with progressive radius doubling: run Algorithm 2 at `σ`, and if
//! fewer than `k` verified answers exist, double `σ` — the partition
//! lower bound guarantees no graph outside the final radius can beat the
//! k-th best inside it.
//!
//! Radius doubling is monotone: the candidate set at `2σ` is a superset
//! of the one at `σ`, so every candidate already verified in an earlier
//! round keeps its (radius-independent) exact distance. Each widening
//! round therefore seeds from the previous round's resolved set and
//! verifies only the candidates the larger radius newly admitted —
//! re-verification of a candidate happens only if its earlier
//! branch-and-bound proved `d > σ_old` (the bound must be retried with
//! the bigger budget).
//!
//! Each round verifies its unresolved candidates **cheapest partition
//! lower bound first**: early exact distances tighten the provisional
//! k-th-best, every later candidate is verified against the tightened
//! budget `min(σ, k-th best)` instead of the full radius, and once `k`
//! neighbors are in hand candidates whose lower bound already exceeds
//! the k-th distance are skipped outright (their true distance can only
//! be larger, and the bounds arrive in ascending order, so the rest of
//! the list is skippable too — which only ever happens on the terminal
//! round).
//!
//! The schedule has no knobs: the first radius is 1.0, and the
//! widening stops at the largest distance the index distance can give
//! the query against the database (see [`PisSearcher::knn`]). It is
//! reached, like the range search, through one entry that validates
//! its input and reads its budget from the searcher's
//! [`PisConfig`](crate::PisConfig).

use pis_graph::budget::{BudgetState, CheckpointSite};
use pis_graph::util::FxHashMap;
use pis_graph::{GraphId, LabeledGraph};
use pis_index::IndexDistance;

use crate::error::{validate_query, QueryError};
use crate::search::{Completeness, PisSearcher, SearchScratch};

/// The radius the first doubling round searches at: one edit under
/// edge-Hamming, the σ of a typical tight range query.
const INITIAL_RADIUS: f64 = 1.0;

/// One k-NN result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The database graph.
    pub graph: GraphId,
    /// Its exact minimum superimposed distance from the query.
    pub distance: f64,
}

/// Result of a k-NN search.
#[derive(Clone, Debug)]
pub struct KnnOutcome {
    /// Up to `k` nearest graphs, ordered by distance then id. Fewer than
    /// `k` when the database holds fewer structural matches — or when
    /// the budget tripped, in which case they are the best neighbors
    /// found so far (each with its exact distance).
    pub neighbors: Vec<Neighbor>,
    /// The final search radius used.
    pub radius: f64,
    /// The largest radius the search fully certified: every structural
    /// match within it is guaranteed to appear in `neighbors` (up to
    /// `k`). Equals `radius` when the search completed; the last fully
    /// finished doubling round's radius when the budget tripped (`0.0`
    /// if no round finished).
    pub certified_radius: f64,
    /// Whether the search ran to completion or its budget tripped.
    pub completeness: Completeness,
    /// Total verification calls across all radius rounds.
    pub verification_calls: usize,
    /// Distinct candidates whose exact distance, resolved in an earlier
    /// (smaller-radius) round, was reused instead of re-verified. Each
    /// candidate counts once no matter how many widening rounds
    /// re-encounter it, so the statistic stays comparable across runs
    /// with different round counts (it is a lower bound on the
    /// verification calls the seeding avoided, not their total).
    pub reused_verifications: usize,
    /// Radius-doubling rounds run.
    pub rounds: usize,
}

impl PisSearcher<'_> {
    /// Finds the `k` structurally matching graphs nearest to `query`
    /// under the index distance (the top-k form of SSSD).
    ///
    /// Widening starts at radius 1.0, doubles, and stops when `k`
    /// answers fit in the radius or the radius covers the largest
    /// distance the query can have: for a mutation distance, the most
    /// expensive edge mutation times the query's edges plus the most
    /// expensive vertex mutation times its vertices; for a linear
    /// distance, each query weight's magnitude plus the largest
    /// magnitude of its kind in the database, scaled and summed (at
    /// least 1.0 either way).
    ///
    /// The query's weights must be finite, or the call returns a
    /// [`QueryError`] before any work runs. The search runs under a
    /// fresh budget from [`PisConfig::budget`](crate::PisConfig::budget);
    /// when it trips, the outcome holds the best-so-far neighbors, the
    /// radius the search actually certified
    /// ([`KnnOutcome::certified_radius`]) and a
    /// [`Truncated`](Completeness::Truncated) marker. Every doubling
    /// round re-runs the funnel through `scratch`.
    pub fn knn(
        &self,
        query: &LabeledGraph,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<KnnOutcome, QueryError> {
        validate_query(query)?;
        let budget = BudgetState::new(&self.config().budget);
        let max_radius = max_radius(self.index().distance(), query, self.database());
        let mut outcome = KnnOutcome {
            neighbors: Vec::new(),
            radius: INITIAL_RADIUS,
            certified_radius: INITIAL_RADIUS,
            completeness: Completeness::Exact,
            verification_calls: 0,
            reused_verifications: 0,
            rounds: 0,
        };
        if k == 0 {
            return Ok(outcome);
        }
        let mut config = self.config().clone();
        config.verify = false;
        config.structure_check = true;
        let prune = PisSearcher::new(self.index(), self.database(), config);

        // Exact distances resolved in earlier rounds — the seed each
        // widened round starts from. `distance_within_budgeted` returns
        // the true minimum whenever it returns at all, so a resolved
        // distance is valid at every larger radius. The flag marks
        // entries already counted toward `reused_verifications`, keeping
        // that statistic a count of distinct reuses.
        let mut resolved: FxHashMap<GraphId, (f64, bool)> = FxHashMap::default();
        let mut unresolved: Vec<(f64, GraphId)> = Vec::new();
        let mut neighbors: Vec<Neighbor> = Vec::new();
        let distance = self.index().distance().as_dyn();
        let mut radius = INITIAL_RADIUS;
        // The largest radius whose round fully completed under the
        // budget — the correctness the outcome can still promise after
        // a trip.
        let mut certified = 0.0f64;
        loop {
            // One checkpoint per doubling round: a deadline or
            // cancellation observed between rounds stops the widening
            // before another full funnel pass starts.
            if !budget.checkpoint(CheckpointSite::Knn, 1) {
                break;
            }
            outcome.rounds += 1;
            prune.search_into(query, radius, scratch, &budget);
            let candidates = scratch.candidates();
            let bounds = scratch.candidate_bounds();
            neighbors.clear();
            unresolved.clear();
            for (&g, &lb) in candidates.iter().zip(bounds) {
                match resolved.get_mut(&g) {
                    Some(&mut (distance, ref mut counted)) => {
                        if !*counted {
                            *counted = true;
                            outcome.reused_verifications += 1;
                        }
                        neighbors.push(Neighbor { graph: g, distance });
                    }
                    None => unresolved.push((lb, g)),
                }
            }
            // Cheapest-first: ascending partition lower bound, ids
            // breaking ties for determinism.
            unresolved.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("bounds are finite").then(a.1.cmp(&b.1))
            });
            neighbors.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("distances are finite")
                    .then(a.graph.cmp(&b.graph))
            });
            neighbors.truncate(k);
            let verify = scratch.verify_scratch();
            verify.begin_query(query);
            for &(lb, g) in &unresolved {
                let kth = (neighbors.len() == k).then(|| neighbors[k - 1].distance);
                if let Some(kth) = kth {
                    // True distance ≥ lb > k-th best: can't place.
                    // Bounds ascend, so the rest of the list can't
                    // either — and with k answers in hand this is
                    // the terminal round, so skipping is final.
                    if lb > kth {
                        break;
                    }
                }
                let sigma = kth.map_or(radius, |kth| radius.min(kth));
                outcome.verification_calls += 1;
                match verify.distance_within_budgeted(
                    query,
                    &self.database()[g.index()],
                    distance,
                    sigma,
                    &budget,
                ) {
                    Ok(Some(d)) => {
                        resolved.insert(g, (d, false));
                        let pos = neighbors.partition_point(|n| (n.distance, n.graph) < (d, g));
                        neighbors.insert(pos, Neighbor { graph: g, distance: d });
                        neighbors.truncate(k);
                    }
                    Ok(None) => {}
                    // Tripped mid-DFS: this candidate and the rest
                    // of the list stay unresolved; the round cannot
                    // complete.
                    Err(_) => break,
                }
            }
            // A tripped round proves nothing about the graphs it did
            // not finish — stop widening and report best-so-far.
            if budget.is_tripped() {
                break;
            }
            certified = radius;
            // Enough answers within the radius: anything outside is
            // farther than the k-th best, so the result is final.
            if neighbors.len() == k || radius >= max_radius {
                break;
            }
            radius = (radius * 2.0).min(max_radius);
        }
        outcome.neighbors = neighbors;
        outcome.radius = radius;
        outcome.certified_radius = if budget.is_tripped() { certified } else { radius };
        outcome.completeness = Completeness::of_state(&budget);
        Ok(outcome)
    }
}

/// The widest radius [`PisSearcher::knn`] explores for `query`: the
/// largest distance the index distance can give it against a graph of
/// `database`.
///
/// A superposition maps each query element to one database element of
/// its kind, and `|a − b| ≤ |a| + |b|`. So under a linear distance no
/// superposition costs more than `edge_scale · Σ_e (|w_e| + W_E) +
/// vertex_scale · Σ_v (|w_v| + W_V)` over the query, `W_E` and `W_V`
/// the largest edge and vertex weight magnitudes in the database. The
/// verifier sums the same terms in another order, within a relative
/// `n · 2⁻⁵²` of the exact sum, so the cap keeps a relative `10⁻⁹` of
/// headroom above it.
fn max_radius(distance: &IndexDistance, query: &LabeledGraph, database: &[LabeledGraph]) -> f64 {
    let max_radius = match distance {
        IndexDistance::Mutation(md) => {
            md.edge_scores().max_cost() * query.edge_count() as f64
                + md.vertex_scores().max_cost() * query.vertex_count() as f64
        }
        IndexDistance::Linear(ld) => {
            let (edge_max, vertex_max) = database.iter().fold((0.0f64, 0.0f64), |(e, v), g| {
                let e = g.edges().iter().fold(e, |m, edge| m.max(edge.attr.weight.abs()));
                (e, g.vertex_ids().fold(v, |m, x| m.max(g.vertex(x).weight.abs())))
            });
            let edges: f64 = query.edges().iter().map(|e| e.attr.weight.abs() + edge_max).sum();
            let vertices: f64 =
                query.vertex_ids().map(|v| query.vertex(v).weight.abs() + vertex_max).sum();
            (ld.edge_scale() * edges + ld.vertex_scale() * vertices) * (1.0 + 1e-9)
        }
    };
    max_radius.max(INITIAL_RADIUS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PisConfig;
    use pis_distance::oracle::min_superimposed_distance_brute;
    use pis_distance::{LinearDistance, MutationDistance};
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

    fn setup(db: &[LabeledGraph]) -> FragmentIndex {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        FragmentIndex::build(
            db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        )
    }

    /// One kNN query through a fresh scratch, for inputs known to be
    /// valid.
    fn knn(searcher: &PisSearcher<'_>, query: &LabeledGraph, k: usize) -> KnnOutcome {
        searcher.knn(query, k, &mut SearchScratch::new()).expect("valid query")
    }

    #[test]
    fn knn_returns_nearest_in_order() {
        let db = vec![
            ring(&[1, 1, 1, 1, 1, 1]), // d = 0 from query
            ring(&[1, 1, 1, 1, 1, 2]), // d = 1
            ring(&[1, 1, 2, 1, 2, 2]), // d = 3
            ring(&[2, 2, 2, 2, 2, 2]), // d = 6
        ];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let query = ring(&[1, 1, 1, 1, 1, 1]);
        let knn = knn(&searcher, &query, 3);
        let got: Vec<(u32, f64)> = knn.neighbors.iter().map(|n| (n.graph.0, n.distance)).collect();
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 3.0)]);
    }

    #[test]
    fn knn_matches_brute_force_ranking() {
        let db = vec![
            ring(&[1, 2, 1, 2, 1, 2]),
            ring(&[1, 2, 1, 2, 1, 1]),
            ring(&[2, 1, 2, 1, 2, 1]), // rotation of the query: d = 0
            ring(&[1, 1, 1, 1, 1, 1]),
            ring(&[2, 2, 2, 2, 2, 2]),
        ];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let query = ring(&[1, 2, 1, 2, 1, 2]);
        let md = MutationDistance::edge_hamming();
        let mut expected: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .filter_map(|(i, g)| min_superimposed_distance_brute(&query, g, &md).map(|d| (i, d)))
            .collect();
        expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        // One scratch across every k: the doubling rounds of one query
        // leave nothing behind for the next.
        let mut scratch = SearchScratch::new();
        for k in 1..=db.len() {
            let knn = searcher.knn(&query, k, &mut scratch).unwrap();
            let got: Vec<(usize, f64)> =
                knn.neighbors.iter().map(|n| (n.graph.index(), n.distance)).collect();
            assert_eq!(got, expected[..k.min(expected.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn knn_handles_fewer_matches_than_k() {
        let db = vec![ring(&[1, 1, 1, 1, 1, 1]), ring(&[1, 1, 1]), ring(&[2, 2, 2, 2, 2, 2])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        // 6-ring query: the 3-ring can never match.
        let query = ring(&[1, 1, 1, 1, 1, 1]);
        let knn = knn(&searcher, &query, 10);
        assert_eq!(knn.neighbors.len(), 2);
        // Edge-Hamming: no distance exceeds the query's 6 edges.
        assert_eq!(knn.radius, 6.0, "radius must widen to the cap before giving up");
    }

    #[test]
    fn widening_rounds_reuse_resolved_distances() {
        // Query at distance 0/1/3/6 from the four rings; k = 4 forces
        // the radius through 1, 2, 4 and the 6-edge cap, and the early
        // candidates (d = 0, 1) must not be re-verified when the radius
        // widens past 3 and 6.
        let db = vec![
            ring(&[1, 1, 1, 1, 1, 1]),
            ring(&[1, 1, 1, 1, 1, 2]),
            ring(&[1, 1, 2, 1, 2, 2]),
            ring(&[2, 2, 2, 2, 2, 2]),
        ];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let query = ring(&[1, 1, 1, 1, 1, 1]);
        let knn = knn(&searcher, &query, 4);
        let got: Vec<(u32, f64)> = knn.neighbors.iter().map(|n| (n.graph.0, n.distance)).collect();
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 3.0), (3, 6.0)]);
        assert_eq!(knn.radius, 6.0);
        assert!(knn.rounds >= 3, "expected several widening rounds, got {}", knn.rounds);
        assert!(
            knn.reused_verifications > 0,
            "widening must seed from the previous round's resolved candidates"
        );
        // Reuse is counted per distinct candidate, so it can never
        // exceed the number of graphs whose distance was ever resolved —
        // no matter how many widening rounds re-encounter them. (The
        // graph admitted in the final round is never reused, hence the
        // strict bound.)
        assert!(
            knn.reused_verifications < db.len(),
            "distinct reuses must stay below the database size: {} reused across {} rounds",
            knn.reused_verifications,
            knn.rounds
        );
        assert!(
            knn.reused_verifications <= knn.verification_calls,
            "a candidate must be verified before it can be reused: {} reused, {} calls",
            knn.reused_verifications,
            knn.verification_calls
        );
    }

    #[test]
    fn knn_k_zero_is_empty() {
        let db = vec![ring(&[1, 1, 1])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let knn = knn(&searcher, &ring(&[1, 1, 1]), 0);
        assert!(knn.neighbors.is_empty());
        assert_eq!(knn.verification_calls, 0);
    }

    #[test]
    fn unlimited_knn_certifies_its_final_radius() {
        let db = vec![ring(&[1, 1, 1, 1, 1, 1]), ring(&[1, 1, 1, 1, 1, 2])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let knn = knn(&searcher, &ring(&[1, 1, 1, 1, 1, 1]), 2);
        assert!(knn.completeness.is_exact());
        assert_eq!(knn.certified_radius, knn.radius);
    }

    #[test]
    fn budget_trip_returns_best_so_far_with_certified_radius() {
        use crate::search::Completeness;
        let db = vec![
            ring(&[1, 1, 1, 1, 1, 1]),
            ring(&[1, 1, 1, 1, 1, 2]),
            ring(&[1, 1, 2, 1, 2, 2]),
            ring(&[2, 2, 2, 2, 2, 2]),
        ];
        let index = setup(&db);
        let query = ring(&[1, 1, 1, 1, 1, 1]);
        let md = MutationDistance::edge_hamming();
        // Sweep budgets from starvation upward: every truncation point
        // must stay sound (exact distances, certified radius at most
        // the final radius), and a generous budget must be exact.
        let mut saw_truncated = false;
        let mut saw_exact = false;
        for limit in [1u64, 64, 256, 4096, 1 << 20] {
            let budget =
                pis_graph::budget::QueryBudget { node_limit: Some(limit), ..Default::default() };
            let searcher =
                PisSearcher::new(&index, &db, PisConfig { budget, ..PisConfig::default() });
            let knn = knn(&searcher, &query, 4);
            assert!(knn.certified_radius <= knn.radius);
            for n in &knn.neighbors {
                let exact = min_superimposed_distance_brute(&query, &db[n.graph.index()], &md)
                    .expect("a reported neighbor structurally matches");
                assert_eq!(n.distance, exact, "best-so-far distances are exact");
            }
            match &knn.completeness {
                Completeness::Truncated { .. } => {
                    saw_truncated = true;
                }
                Completeness::Exact => {
                    saw_exact = true;
                    assert_eq!(knn.neighbors.len(), 4);
                    assert_eq!(knn.certified_radius, knn.radius);
                }
            }
        }
        assert!(saw_truncated, "the starved budgets must truncate");
        assert!(saw_exact, "the generous budget must complete");
    }

    #[test]
    fn try_knn_rejects_bad_inputs() {
        use crate::error::QueryError;
        let db = vec![ring(&[1, 1, 1])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let mut b = GraphBuilder::new();
        let vs = b.add_vertices(2, VertexAttr::labeled(Label(0)));
        b.add_edge(vs[0], vs[1], EdgeAttr { label: Label(1), weight: f64::NAN }).unwrap();
        let poisoned = b.build();
        let mut scratch = SearchScratch::new();
        assert!(matches!(
            searcher.knn(&poisoned, 1, &mut scratch),
            Err(QueryError::NonFiniteQueryWeight)
        ));
        let ok = searcher.knn(&ring(&[1, 1, 1]), 1, &mut scratch).unwrap();
        assert_eq!(ok.neighbors.len(), 1);
    }

    #[test]
    fn max_radius_follows_the_distance_and_the_query() {
        let six_edges = ring(&[1, 1, 1, 1, 1, 1]);
        let hamming = IndexDistance::Mutation(MutationDistance::edge_hamming());
        assert_eq!(max_radius(&hamming, &six_edges, &[]), 6.0);
        // Vertex mutations count too under the unit distance.
        let unit = IndexDistance::Mutation(MutationDistance::unit());
        assert_eq!(max_radius(&unit, &six_edges, &[]), 12.0);
        // A lone vertex still gets one round at the initial radius.
        let mut b = GraphBuilder::new();
        b.add_vertices(1, VertexAttr::labeled(Label(0)));
        assert_eq!(max_radius(&hamming, &b.build(), &[]), INITIAL_RADIUS);
    }

    /// A linear-distance kNN with `k` above the number of structural
    /// matches widens to a cap read off the data, not to `f64::MAX`:
    /// it doubles from 1.0 to the cap in `⌈log₂ cap⌉ + 1` rounds at most
    /// and returns every structural match with its oracle distance, and
    /// the cap covers the oracle distance of every matching pair.
    #[test]
    fn linear_knn_widens_to_a_cap_read_off_the_data() {
        let config = pis_datasets::MoleculeConfig { weighted: true, ..Default::default() };
        let db = pis_datasets::MoleculeGenerator::new(config).database(24, 3);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let ld = LinearDistance::edges_only();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 2),
            IndexDistance::Linear(ld),
            &IndexConfig::default(),
        );
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let heaviest =
            db.iter().flat_map(LabeledGraph::edges).fold(0.0, |m, e| e.attr.weight.max(m));
        for query in pis_datasets::sample_query_set(&db, 3, 2, 11) {
            let cap = max_radius(index.distance(), &query, &db);
            // Edge weights are positive: the cap is the query's weight
            // plus the heaviest database edge per query edge.
            let bound: f64 = query.edges().iter().map(|e| e.attr.weight + heaviest).sum();
            assert!(cap >= bound && cap <= bound * (1.0 + 1e-6), "cap {cap} vs {bound}");
            let mut expected: Vec<(GraphId, f64)> = (0..db.len())
                .filter_map(|i| {
                    let d = min_superimposed_distance_brute(&query, &db[i], &ld)?;
                    assert!(d <= cap, "graph {i} at {d} lies beyond the cap {cap}");
                    Some((GraphId(i as u32), d))
                })
                .collect();
            expected.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let knn = knn(&searcher, &query, db.len() + 1);
            let rounds = knn.rounds;
            assert!(rounds as f64 <= cap.log2().ceil() + 1.0, "{rounds} rounds to the cap {cap}");
            let got: Vec<_> = knn.neighbors.iter().map(|n| (n.graph, n.distance)).collect();
            assert_eq!(got, expected);
        }
    }
}
