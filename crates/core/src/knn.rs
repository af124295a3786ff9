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
//! Under [`PisConfig::best_first_verify`] (the default) each round
//! verifies its unresolved candidates **cheapest partition lower bound
//! first**: early exact distances tighten the provisional k-th-best,
//! every later candidate is verified against the tightened budget
//! `min(σ, k-th best)` instead of the full radius, and once `k`
//! neighbors are in hand candidates whose lower bound already exceeds
//! the k-th distance are skipped outright (their true distance can only
//! be larger, and the bounds arrive in ascending order, so the rest of
//! the list is skippable too — which only ever happens on the terminal
//! round). The returned neighbors are identical to stream-order
//! verification; only the work differs.
//!
//! [`PisConfig::best_first_verify`]: crate::PisConfig::best_first_verify

use pis_graph::budget::{BudgetState, CheckpointSite, QueryBudget};
use pis_graph::util::FxHashMap;
use pis_graph::{GraphId, LabeledGraph};

use crate::error::{validate_query, validate_radii, QueryError};
use crate::search::{distance_dyn, Completeness, PisSearcher, SearchScratch};

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
    /// under the index distance.
    ///
    /// `initial_radius` seeds the progressive widening (a good value is
    /// the σ of a typical range query; 1.0 works well for edge-Hamming).
    /// Widening stops when `k` answers fit in the radius or the radius
    /// covers the largest possible distance (`max_radius`).
    pub fn knn(
        &self,
        query: &LabeledGraph,
        k: usize,
        initial_radius: f64,
        max_radius: f64,
    ) -> KnnOutcome {
        let budget = BudgetState::new(&self.config().budget);
        self.knn_with_state(query, k, initial_radius, max_radius, &budget)
    }

    /// [`PisSearcher::knn`] under a per-call [`QueryBudget`]. When the
    /// budget trips, the outcome holds the best-so-far neighbors, the
    /// radius the search actually certified
    /// ([`KnnOutcome::certified_radius`]), and a
    /// [`Truncated`](Completeness::Truncated) marker.
    pub fn knn_budgeted(
        &self,
        query: &LabeledGraph,
        k: usize,
        initial_radius: f64,
        max_radius: f64,
        budget: &QueryBudget,
    ) -> KnnOutcome {
        let state = BudgetState::new(budget);
        self.knn_with_state(query, k, initial_radius, max_radius, &state)
    }

    /// [`PisSearcher::knn`] with boundary validation: rejects
    /// non-finite or inverted radius bounds and non-finite query
    /// weights with a typed [`QueryError`] instead of panicking.
    pub fn try_knn(
        &self,
        query: &LabeledGraph,
        k: usize,
        initial_radius: f64,
        max_radius: f64,
    ) -> Result<KnnOutcome, QueryError> {
        validate_radii(initial_radius, max_radius)?;
        validate_query(query)?;
        Ok(self.knn(query, k, initial_radius, max_radius))
    }

    fn knn_with_state(
        &self,
        query: &LabeledGraph,
        k: usize,
        initial_radius: f64,
        max_radius: f64,
        budget: &BudgetState,
    ) -> KnnOutcome {
        assert!(initial_radius >= 0.0 && max_radius >= initial_radius, "invalid radius bounds");
        let mut outcome = KnnOutcome {
            neighbors: Vec::new(),
            radius: initial_radius,
            certified_radius: initial_radius,
            completeness: Completeness::Exact,
            verification_calls: 0,
            reused_verifications: 0,
            rounds: 0,
        };
        if k == 0 {
            return outcome;
        }
        let mut config = self.config().clone();
        config.verify = false;
        config.structure_check = true;
        let prune = PisSearcher::new(self.index(), self.database(), config);

        // One scratch serves every doubling round: widening re-runs the
        // funnel over the same database, so all buffers carry over.
        let mut scratch = SearchScratch::new();
        // Exact distances resolved in earlier rounds — the seed each
        // widened round starts from. `min_superimposed_distance` returns
        // the true minimum whenever it returns at all, so a resolved
        // distance is valid at every larger radius. The flag marks
        // entries already counted toward `reused_verifications`, keeping
        // that statistic a count of distinct reuses.
        let mut resolved: FxHashMap<GraphId, (f64, bool)> = FxHashMap::default();
        let mut unresolved: Vec<(f64, GraphId)> = Vec::new();
        let mut stream_ids: Vec<GraphId> = Vec::new();
        let mut neighbors: Vec<Neighbor> = Vec::new();
        let by_distance_then_id = |a: &Neighbor, b: &Neighbor| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("distances are finite")
                .then(a.graph.cmp(&b.graph))
        };
        let distance = distance_dyn(self.index().distance());
        let mut radius = initial_radius;
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
            prune.search_into(query, radius, &mut scratch, budget);
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
            if self.config().best_first_verify {
                // Cheapest-first: ascending partition lower bound, ids
                // breaking ties for determinism.
                unresolved.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).expect("bounds are finite").then(a.1.cmp(&b.1))
                });
                neighbors.sort_by(by_distance_then_id);
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
                        budget,
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
            } else {
                stream_ids.clear();
                stream_ids.extend(unresolved.iter().map(|&(_, g)| g));
                outcome.verification_calls += stream_ids.len();
                let (resolved_now, _unverified) = self.verify_candidates_budgeted(
                    query,
                    &stream_ids,
                    radius,
                    scratch.verify_scratch(),
                    budget,
                );
                for (graph, distance) in resolved_now {
                    resolved.insert(graph, (distance, false));
                    neighbors.push(Neighbor { graph, distance });
                }
                neighbors.sort_by(by_distance_then_id);
                neighbors.truncate(k);
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
            radius = (radius.max(0.5) * 2.0).min(max_radius);
        }
        outcome.neighbors = neighbors;
        outcome.radius = radius;
        outcome.certified_radius = if budget.is_tripped() { certified } else { radius };
        outcome.completeness = Completeness::of_state(budget);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PisConfig;
    use pis_distance::oracle::min_superimposed_distance_brute;
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

    fn setup(db: &[LabeledGraph]) -> FragmentIndex {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        FragmentIndex::build(
            db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        )
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
        let knn = searcher.knn(&query, 3, 1.0, 10.0);
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
        for k in 1..=db.len() {
            let knn = searcher.knn(&query, k, 0.5, 10.0);
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
        let knn = searcher.knn(&query, 10, 1.0, 8.0);
        assert_eq!(knn.neighbors.len(), 2);
        assert_eq!(knn.radius, 8.0, "radius must widen to the cap before giving up");
    }

    #[test]
    fn widening_rounds_reuse_resolved_distances() {
        // Query at distance 0/1/3/6 from the four rings; k = 3 with a
        // tiny initial radius forces several doubling rounds, and the
        // early candidates (d = 0, 1) must not be re-verified when the
        // radius widens past 3 and 6.
        let db = vec![
            ring(&[1, 1, 1, 1, 1, 1]),
            ring(&[1, 1, 1, 1, 1, 2]),
            ring(&[1, 1, 2, 1, 2, 2]),
            ring(&[2, 2, 2, 2, 2, 2]),
        ];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let query = ring(&[1, 1, 1, 1, 1, 1]);
        let knn = searcher.knn(&query, 4, 0.5, 10.0);
        let got: Vec<(u32, f64)> = knn.neighbors.iter().map(|n| (n.graph.0, n.distance)).collect();
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 3.0), (3, 6.0)]);
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
        let knn = searcher.knn(&ring(&[1, 1, 1]), 0, 1.0, 4.0);
        assert!(knn.neighbors.is_empty());
        assert_eq!(knn.verification_calls, 0);
    }

    #[test]
    #[should_panic(expected = "invalid radius bounds")]
    fn knn_rejects_bad_radii() {
        let db = vec![ring(&[1, 1, 1])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let _ = searcher.knn(&ring(&[1, 1, 1]), 1, 5.0, 1.0);
    }

    #[test]
    fn unlimited_knn_certifies_its_final_radius() {
        let db = vec![ring(&[1, 1, 1, 1, 1, 1]), ring(&[1, 1, 1, 1, 1, 2])];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
        let knn = searcher.knn(&ring(&[1, 1, 1, 1, 1, 1]), 2, 0.5, 8.0);
        assert!(knn.completeness.is_exact());
        assert_eq!(knn.certified_radius, knn.radius);
    }

    #[test]
    fn budget_trip_returns_best_so_far_with_certified_radius() {
        use crate::search::Completeness;
        use pis_distance::oracle::min_superimposed_distance_brute;
        let db = vec![
            ring(&[1, 1, 1, 1, 1, 1]),
            ring(&[1, 1, 1, 1, 1, 2]),
            ring(&[1, 1, 2, 1, 2, 2]),
            ring(&[2, 2, 2, 2, 2, 2]),
        ];
        let index = setup(&db);
        let searcher = PisSearcher::new(&index, &db, PisConfig::default());
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
            let knn = searcher.knn_budgeted(&query, 4, 0.5, 10.0, &budget);
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
        let q = ring(&[1, 1, 1]);
        assert!(matches!(
            searcher.try_knn(&q, 1, 5.0, 1.0),
            Err(QueryError::InvalidRadiusBounds { .. })
        ));
        assert!(matches!(
            searcher.try_knn(&q, 1, f64::NAN, 1.0),
            Err(QueryError::InvalidRadiusBounds { .. })
        ));
        assert!(matches!(
            searcher.try_knn(&q, 1, 0.0, f64::INFINITY),
            Err(QueryError::InvalidRadiusBounds { .. })
        ));
        let ok = searcher.try_knn(&q, 1, 0.5, 4.0).unwrap();
        assert_eq!(ok.neighbors.len(), 1);
    }
}
