//! Differential equivalence suite for the optimized candidate funnel.
//!
//! `PisSearcher::search_reference` keeps the seed's straight-line
//! transcription of Algorithm 2 (per-fragment `Vec` intersection,
//! per-candidate binary-search pruning, no memoization, no scratch
//! reuse) as an executable specification. These properties hold the
//! optimized path — bitset funnel, dense partition accumulator,
//! range-query memoization, scratch reuse, and the target-guided VF2
//! ordering behind it — to **byte-identical** `candidates`, `answers`,
//! `answer_distances` and `SearchStats` across random databases, both
//! distances, and all three partition algorithms.
//!
//! [`pooled_range_arm_equals_serial_arm`] holds a search fanned out
//! across the pool to the same search run serially the same way.

mod common;

use common::{connected_graph, distance_bits, graph_database, unique_probes};
use pis::core::{
    naive_scan, PartitionAlgo, PisConfig, PisSearcher, SearchOutcome, SearchScratch,
    DEFAULT_PARALLEL_FRAGMENT_THRESHOLD, DEFAULT_PARALLEL_VERIFY_THRESHOLD,
};
use pis::datasets::{sample_query_set, MoleculeGenerator};
use pis::graph::ScopedPool;
use pis::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// Asserts full outcome equality between the optimized funnel (run
/// twice through the same scratch, so reuse is exercised) and the
/// reference pipeline.
fn assert_equivalent(
    searcher: &PisSearcher<'_>,
    scratch: &mut SearchScratch,
    query: &LabeledGraph,
    sigma: f64,
) -> Result<(), TestCaseError> {
    let reference = searcher.search_reference(query, sigma);
    for round in 0..2 {
        let fast = searcher.search(query, sigma, scratch).unwrap();
        prop_assert_eq!(&fast.candidates, &reference.candidates, "candidates, round {}", round);
        prop_assert_eq!(&fast.answers, &reference.answers, "answers, round {}", round);
        prop_assert_eq!(
            &fast.answer_distances,
            &reference.answer_distances,
            "distances, round {}",
            round
        );
        prop_assert_eq!(&fast.stats, &reference.stats, "stats, round {}", round);
    }
    Ok(())
}

/// Re-labels a graph's weights from its labels so the linear distance
/// has something to measure (the proptest strategies emit zero
/// weights).
fn weighted_from_labels(g: &LabeledGraph) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        let attr = g.vertex(v);
        b.add_vertex(VertexAttr { label: attr.label, weight: attr.label.0 as f64 * 0.5 });
    }
    for e in g.edges() {
        b.add_edge(
            e.source,
            e.target,
            EdgeAttr { label: e.attr.label, weight: 1.0 + e.attr.label.0 as f64 },
        )
        .expect("copying a simple graph");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Mutation distance, all partition algorithms, tuning swept.
    #[test]
    fn funnel_equals_reference_mutation(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
        epsilon in prop::sample::select(vec![0.0, 0.3]),
        lambda in prop::sample::select(vec![0.5, 1.0, 2.0]),
    ) {
        let system = PisSystem::builder()
            .mutation_distance(MutationDistance::edge_hamming())
            .exhaustive_features(3)
            .search_config(PisConfig { partition: algo, epsilon, lambda, ..PisConfig::default() })
            .build(db);
        let searcher = system.searcher();
        let mut scratch = SearchScratch::new();
        assert_equivalent(&searcher, &mut scratch, &query, sigma)?;
    }

    /// The unit mutation distance (vertex labels scored too) takes the
    /// trie through non-trivial vertex slots.
    #[test]
    fn funnel_equals_reference_unit_distance(
        db in graph_database(6, 5, 2),
        query in connected_graph(4, 1, 2),
        sigma in 0.0f64..3.0,
    ) {
        let system = PisSystem::builder()
            .mutation_distance(MutationDistance::unit())
            .exhaustive_features(3)
            .build(db);
        let searcher = system.searcher();
        let mut scratch = SearchScratch::new();
        assert_equivalent(&searcher, &mut scratch, &query, sigma)?;
    }

    /// Linear distance over the R-tree backend: weight vectors exercise
    /// the `f64`-keyed memo and the scaled-geometry range queries.
    #[test]
    fn funnel_equals_reference_linear(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        sigma in 0.0f64..3.0,
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
    ) {
        let db: Vec<LabeledGraph> = db.iter().map(weighted_from_labels).collect();
        let query = weighted_from_labels(&query);
        let system = PisSystem::builder()
            .linear_distance(LinearDistance::edges_only())
            .exhaustive_features(3)
            .search_config(PisConfig { partition: algo, ..PisConfig::default() })
            .build(db);
        let searcher = system.searcher();
        let mut scratch = SearchScratch::new();
        assert_equivalent(&searcher, &mut scratch, &query, sigma)?;
    }

    /// One scratch across a whole shifting workload (different queries,
    /// sigmas rising and falling) never leaks state between searches.
    #[test]
    fn scratch_survives_a_mixed_workload(
        db in graph_database(7, 5, 3),
        queries in proptest::collection::vec(connected_graph(5, 2, 3), 1..4),
        sigmas in proptest::collection::vec(0.0f64..4.0, 1..4),
    ) {
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let searcher = system.searcher();
        let mut scratch = SearchScratch::new();
        for q in &queries {
            for &sigma in &sigmas {
                assert_equivalent(&searcher, &mut scratch, q, sigma)?;
            }
        }
    }

    /// The knn radius schedule's seed reuse (resolved distances carried
    /// across doubling rounds) and its cheapest-bound-first verification
    /// never change the answer: neighbors match the brute-force ranking
    /// exactly, and reuse only ever removes verification work.
    #[test]
    fn knn_seed_reuse_matches_brute_force(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        k in 1usize..6,
    ) {
        let system = PisSystem::builder()
            .mutation_distance(MutationDistance::edge_hamming())
            .exhaustive_features(3)
            .build(db.clone());
        let searcher = system.searcher();
        let knn = searcher.knn(&query, k, &mut SearchScratch::new()).unwrap();
        // Brute-force ranking: exact min distance per containing graph.
        let md = MutationDistance::edge_hamming();
        let mut expected: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .filter_map(|(i, g)| {
                pis::distance::oracle::min_superimposed_distance_brute(&query, g, &md)
                    .map(|d| (i, d))
            })
            .filter(|&(_, d)| d <= knn.radius)
            .collect();
        expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        expected.truncate(k);
        let got: Vec<(usize, f64)> =
            knn.neighbors.iter().map(|n| (n.graph.index(), n.distance)).collect();
        prop_assert_eq!(got, expected, "k {} radius {}", k, knn.radius);
        // Reuse accounting: reuses are counted per distinct candidate,
        // so they can never exceed the verifications that resolved them
        // (or the database size), no matter how many widening rounds
        // re-encounter the same resolved candidates.
        prop_assert!(knn.rounds >= 1);
        if knn.rounds == 1 {
            prop_assert_eq!(knn.reused_verifications, 0, "nothing to reuse in round one");
        }
        prop_assert!(
            knn.reused_verifications <= knn.verification_calls,
            "distinct reuses ({}) exceed verification calls ({})",
            knn.reused_verifications, knn.verification_calls
        );
        prop_assert!(
            knn.reused_verifications <= db.len(),
            "distinct reuses ({}) exceed the database size ({})",
            knn.reused_verifications, db.len()
        );
    }

    /// Pruning-only configurations (the figures' setting) agree too —
    /// candidates are the observable there, not answers. All three
    /// partition algorithms run, so the mask-native stage is held to
    /// the pointer reference across every solver the config can pick.
    #[test]
    fn funnel_equals_reference_prune_only(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
        structure_check in prop::sample::select(vec![true, false]),
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
    ) {
        let system = PisSystem::builder()
            .exhaustive_features(3)
            .search_config(PisConfig {
                verify: false,
                structure_check,
                partition: algo,
                ..PisConfig::default()
            })
            .build(db);
        let searcher = system.searcher();
        let mut scratch = SearchScratch::new();
        assert_equivalent(&searcher, &mut scratch, &query, sigma)?;
    }
}

/// A search fanned out across the pool equals the same search run
/// serially, bit for bit. The same queries run once on the calling
/// thread — where a probe set at or above the range-query break-even
/// shares its sibling groups out across the pool, and a candidate set
/// at or above the verification break-even shares out the structure
/// check and verification (given more than one core) — and once from
/// inside a pool worker, where `in_worker()` makes every one of those
/// pool calls run serially in the caller's state. One scratch is reused
/// per side, and both sides must equal `naive_scan`.
///
/// Two inputs: generated databases across both distance families and
/// all three partition algorithms, whose wide queries reach the
/// range-query break-even, and a fixed 160-molecule database at σ = 4,
/// whose candidate sets reach the 64-candidate one. Written against the
/// runner directly (not `proptest!`) so the test can also assert, after
/// the last case, that the break-evens were reached.
#[test]
fn pooled_range_arm_equals_serial_arm() {
    const SIGMAS: [f64; 2] = [0.5, 2.0];
    let strategy = (
        proptest::collection::vec(connected_graph(16, 6, 4), 2..6),
        0usize..8,
        prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
        prop::sample::select(vec![false, true]),
    );
    let mut wide_cases = 0;
    let mut runner = TestRunner::new_for_test(
        ProptestConfig::with_cases(24),
        concat!(module_path!(), "::pooled_range_arm_equals_serial_arm"),
    );
    runner.run(&strategy, |(db, qi, algo, linear)| {
        let db: Vec<LabeledGraph> =
            if linear { db.iter().map(weighted_from_labels).collect() } else { db };
        let query = db[qi % db.len()].clone();
        let builder = if linear {
            PisSystem::builder().linear_distance(LinearDistance::edges_only())
        } else {
            PisSystem::builder().mutation_distance(MutationDistance::edge_hamming())
        };
        let system = builder
            .exhaustive_features(3)
            .search_config(PisConfig { partition: algo, ..PisConfig::default() })
            .build(db);
        let searcher = system.searcher();
        if unique_probes(system.index(), &query) >= DEFAULT_PARALLEL_FRAGMENT_THRESHOLD {
            wide_cases += 1;
        }
        let (on_caller, in_worker) = on_caller_and_in_worker(|scratch| {
            SIGMAS.map(|sigma| searcher.search(&query, sigma, scratch).unwrap())
        });
        for ((&sigma, a), b) in SIGMAS.iter().zip(&on_caller).zip(&in_worker) {
            let oracle = if linear {
                naive_scan(system.database(), &query, &LinearDistance::edges_only(), sigma)
            } else {
                naive_scan(system.database(), &query, &MutationDistance::edge_hamming(), sigma)
            };
            same_outcome(a, b, &oracle.answers, sigma)?;
        }
        Ok(())
    });
    assert!(wide_cases > 0, "no generated query reached the fan-out break-even");

    let sigma = 4.0;
    let db = MoleculeGenerator::default().database(160, 29);
    let queries = sample_query_set(&db, 10, 3, 5);
    let system = PisSystem::builder()
        .gindex_features(GindexConfig {
            max_edges: 4,
            min_support_fraction: 0.05,
            ..GindexConfig::default()
        })
        .build(db);
    let searcher = system.searcher();
    let (on_caller, in_worker) = on_caller_and_in_worker(|scratch| {
        queries.iter().map(|q| searcher.search(q, sigma, scratch).unwrap()).collect::<Vec<_>>()
    });
    for ((query, a), b) in queries.iter().zip(&on_caller).zip(&in_worker) {
        let oracle = naive_scan(system.database(), query, &MutationDistance::edge_hamming(), sigma);
        same_outcome(a, b, &oracle.answers, sigma).unwrap();
    }
    assert!(
        on_caller.iter().all(|o| o.candidates.len() >= DEFAULT_PARALLEL_VERIFY_THRESHOLD),
        "a molecule query fell short of the verification break-even: {:?}",
        on_caller.iter().map(|o| o.candidates.len()).collect::<Vec<_>>()
    );
}

/// Runs `search` through a fresh scratch once on the calling thread and
/// once inside a pool worker. Two explicit workers, so the second run
/// is in a worker whatever the core count; both items do the same work
/// and the first one's result is kept.
fn on_caller_and_in_worker<R: Send>(search: impl Fn(&mut SearchScratch) -> R + Sync) -> (R, R) {
    let on_caller = search(&mut SearchScratch::new());
    let in_worker = ScopedPool::new(2)
        .map_with(&[(); 2], 2, &mut SearchScratch::new(), SearchScratch::new, |scratch, _, ()| {
            assert!(ScopedPool::in_worker());
            search(scratch)
        })
        .swap_remove(0);
    (on_caller, in_worker)
}

/// Candidates, answers, distance bits and stats of `a` and `b` agree,
/// and the answers are `oracle`'s.
fn same_outcome(
    a: &SearchOutcome,
    b: &SearchOutcome,
    oracle: &[GraphId],
    sigma: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.candidates, &b.candidates, "candidates, sigma {}", sigma);
    prop_assert_eq!(&a.answers, &b.answers, "answers, sigma {}", sigma);
    prop_assert_eq!(distance_bits(a), distance_bits(b), "distance bits, sigma {}", sigma);
    prop_assert_eq!(&a.stats, &b.stats, "stats, sigma {}", sigma);
    prop_assert_eq!(&a.answers[..], oracle, "naive_scan, sigma {}", sigma);
    Ok(())
}
