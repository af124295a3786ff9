//! The candidate funnel held to brute-force oracles.
//!
//! Every property checks one search against what the paper defines it
//! to compute, never against a second pipeline:
//!
//! * answers, and their distances to the f64 bit, are the brute-force
//!   minimum superimposed distances within σ
//!   (`min_superimposed_distance_brute`, Definition 1);
//! * every such graph is a candidate, every candidate passes each query
//!   fragment's brute range check (under the linear distance, whose
//!   classes are posting lists: contains each fragment's structure),
//!   and with the structure check on, every candidate contains the
//!   query's structure;
//! * the `SearchStats` funnel only shrinks, and every candidate reaches
//!   the verifier;
//! * a reused scratch — the same search repeated, and a scratch carried
//!   across a workload — gives what a fresh scratch gives.
//!
//! Databases are random, σ includes the integers 0–4 (where a one-ulp
//! error in a bound flips a tie), both distance families run, all three
//! partition algorithms, and some indexes hold their last graphs in the
//! pending buffers. A failing case is shrunk before it is reported
//! (`common::shrink_case`), so the message names a minimal
//! `(db, query, σ)`. `tests/pruning_fingerprint.rs` pins how much each
//! funnel phase prunes; these properties pin what it may never lose.
//!
//! [`pooled_range_arm_equals_serial_arm`] holds a search fanned out
//! across the pool to the same search run serially the same way.

mod common;

use common::{
    answer_distance_bits, connected_graph, fragment_as_graph, graph_database, query_fragments,
    shrink_case, sigma, unique_probes,
};
use pis::core::{
    naive_scan, PartitionAlgo, PisConfig, SearchOutcome, SearchScratch,
    DEFAULT_PARALLEL_FRAGMENT_THRESHOLD, DEFAULT_PARALLEL_VERIFY_THRESHOLD,
};
use pis::datasets::{sample_query_set, MoleculeConfig, MoleculeGenerator};
use pis::distance::oracle::min_superimposed_distance_brute;
use pis::graph::iso::{is_subgraph, IsoConfig};
use pis::graph::ScopedPool;
use pis::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// Holds one search of `query` at `sigma` to the oracles (module docs),
/// through a fresh scratch and through `scratch` twice.
fn funnel_oracles(
    system: &PisSystem,
    scratch: &mut SearchScratch,
    query: &LabeledGraph,
    sigma: f64,
) -> Result<(), TestCaseError> {
    let searcher = system.searcher();
    let (db, index, config) = (system.database(), system.index(), system.config());
    let o = searcher.search(query, sigma, &mut SearchScratch::new()).unwrap();
    for _ in 0..2 {
        same_outcome(system, query, &searcher.search(query, sigma, scratch).unwrap(), &o, sigma)?;
    }
    let distance = index.distance().as_dyn();
    let brute: Vec<(GraphId, u64)> = db
        .iter()
        .enumerate()
        .filter_map(|(i, g)| {
            let d = min_superimposed_distance_brute(query, g, distance)?;
            (d <= sigma).then_some((GraphId(i as u32), d.to_bits()))
        })
        .collect();
    if config.verify {
        let got: Vec<(GraphId, u64)> =
            o.answers.iter().copied().zip(answer_distance_bits(system, query, &o, sigma)).collect();
        prop_assert_eq!(got, brute.clone(), "answers vs brute");
    } else {
        prop_assert!(o.answers.is_empty());
    }
    for (g, _) in &brute {
        prop_assert!(o.candidates.binary_search(g).is_ok(), "answer {} is no candidate", g);
    }
    let frags = query_fragments(index, query);
    for i in 0..frags.len() {
        // A linear class is its posting list: its probe's range check
        // is containment of the structure, at distance 0.
        let structure = &index.features().get(frags.feature(i)).structure;
        let fragment = index.distance().is_mutation().then(|| fragment_as_graph(index, &frags, i));
        for &g in &o.candidates {
            let d = match &fragment {
                Some(fragment) => {
                    min_superimposed_distance_brute(fragment, &db[g.index()], distance)
                }
                None => is_subgraph(structure, &db[g.index()], IsoConfig::STRUCTURE).then_some(0.0),
            };
            prop_assert!(
                d.is_some_and(|d| d <= sigma),
                "candidate {} fails the range check of feature {} probe {:?}: {:?}",
                g,
                frags.feature(i),
                frags.vector(i),
                d
            );
        }
    }
    if config.structure_check {
        for &g in &o.candidates {
            prop_assert!(
                is_subgraph(query, &db[g.index()], IsoConfig::STRUCTURE),
                "candidate {} lacks the query structure",
                g
            );
        }
    }
    let s = &o.stats;
    prop_assert!(s.query_fragments >= s.fragments_in_pool, "{:?}", s);
    prop_assert!(s.fragments_in_pool >= s.partition_size, "{:?}", s);
    prop_assert_eq!(s.partition.len(), s.partition_size);
    prop_assert!(db.len() >= s.candidates_after_intersection, "{:?}", s);
    prop_assert!(s.candidates_after_intersection >= s.candidates_after_partition, "{:?}", s);
    prop_assert!(s.candidates_after_partition >= s.candidates_after_structure, "{:?}", s);
    if !config.structure_check {
        prop_assert_eq!(s.candidates_after_structure, s.candidates_after_partition);
    }
    prop_assert_eq!(s.candidates_after_structure, o.candidates.len());
    prop_assert_eq!(s.verification_calls, if config.verify { o.candidates.len() } else { 0 });
    Ok(())
}

/// [`funnel_oracles`] on the system `build` makes of `db`. A failure is
/// shrunk first (fresh scratches from there on), so the error names a
/// minimal case.
fn check_funnel(
    build: impl Fn(&[LabeledGraph]) -> PisSystem,
    scratch: &mut SearchScratch,
    db: &[LabeledGraph],
    query: &LabeledGraph,
    sigma: f64,
) -> Result<(), TestCaseError> {
    let Err(e) = funnel_oracles(&build(db), scratch, query, sigma) else { return Ok(()) };
    let (db, query, message) = shrink_case(db.to_vec(), query.clone(), message(e), |db, q| {
        funnel_oracles(&build(db), &mut SearchScratch::new(), q, sigma).err().map(message)
    });
    Err(TestCaseError::fail(format!(
        "{message}\nshrunk to sigma {sigma}\nquery: {query:?}\ndb: {db:?}"
    )))
}

fn message(e: TestCaseError) -> String {
    match e {
        TestCaseError::Fail(m) | TestCaseError::Reject(m) => m,
    }
}

/// A system over `db` whose graphs from `frozen` on are inserted after
/// the build, so range queries read them from the classes' pending
/// structures (or, past the merge threshold, from the merged ones).
fn with_pending(builder: PisSystemBuilder, db: &[LabeledGraph], frozen: usize) -> PisSystem {
    let frozen = frozen.min(db.len());
    let mut system = builder.build(db[..frozen].to_vec());
    for g in &db[frozen..] {
        system.insert_graph(g.clone());
    }
    system
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

/// Copies a graph with its weights rounded to multiples of 1/64.
fn dyadic(g: &LabeledGraph) -> LabeledGraph {
    let round = |w: f64| (w * 64.0).round() / 64.0;
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        let attr = g.vertex(v);
        b.add_vertex(VertexAttr { label: attr.label, weight: round(attr.weight) });
    }
    for e in g.edges() {
        let attr = EdgeAttr { label: e.attr.label, weight: round(e.attr.weight) };
        b.add_edge(e.source, e.target, attr).expect("copying a simple graph");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Mutation distance, all partition algorithms, tuning swept, some
    /// graphs pending.
    #[test]
    fn funnel_equals_reference_mutation(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in sigma(),
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
        epsilon in prop::sample::select(vec![0.0, 0.3]),
        lambda in prop::sample::select(vec![0.5, 1.0, 2.0]),
        frozen in 1usize..9,
    ) {
        let build = |db: &[LabeledGraph]| {
            let builder = PisSystem::builder()
                .mutation_distance(MutationDistance::edge_hamming())
                .exhaustive_features(3)
                .search_config(PisConfig { partition: algo, epsilon, lambda, ..PisConfig::default() });
            with_pending(builder, db, frozen)
        };
        check_funnel(build, &mut SearchScratch::new(), &db, &query, sigma)?;
    }

    /// The unit mutation distance (vertex labels scored too) takes the
    /// trie through non-trivial vertex slots.
    #[test]
    fn funnel_equals_reference_unit_distance(
        db in graph_database(6, 5, 2),
        query in connected_graph(4, 1, 2),
        sigma in sigma(),
    ) {
        let build = |db: &[LabeledGraph]| {
            PisSystem::builder()
                .mutation_distance(MutationDistance::unit())
                .exhaustive_features(3)
                .build(db.to_vec())
        };
        check_funnel(build, &mut SearchScratch::new(), &db, &query, sigma)?;
    }

    /// Linear distance: posting-list classes, frozen and pending, under
    /// every partition algorithm; the verifier measures the weights.
    #[test]
    fn funnel_equals_reference_linear(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        sigma in sigma(),
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
        frozen in 1usize..7,
    ) {
        let db: Vec<LabeledGraph> = db.iter().map(weighted_from_labels).collect();
        let query = weighted_from_labels(&query);
        let build = |db: &[LabeledGraph]| {
            let builder = PisSystem::builder()
                .linear_distance(LinearDistance::edges_only())
                .exhaustive_features(3)
                .search_config(PisConfig { partition: algo, ..PisConfig::default() });
            with_pending(builder, db, frozen)
        };
        check_funnel(build, &mut SearchScratch::new(), &db, &query, sigma)?;
    }

    /// One scratch across a whole shifting workload (different queries,
    /// sigmas rising and falling) never leaks state between searches.
    #[test]
    fn scratch_survives_a_mixed_workload(
        db in graph_database(7, 5, 3),
        queries in proptest::collection::vec(connected_graph(5, 2, 3), 1..4),
        sigmas in proptest::collection::vec(sigma(), 1..4),
    ) {
        let build = |db: &[LabeledGraph]| PisSystem::builder().exhaustive_features(3).build(db.to_vec());
        let mut scratch = SearchScratch::new();
        for q in &queries {
            for &sigma in &sigmas {
                check_funnel(build, &mut scratch, &db, q, sigma)?;
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

    /// Pruning-only configurations (the figures' setting), where
    /// candidates are the observable: they must still cover every
    /// brute-force answer, under every partition algorithm, with the
    /// structure check on and off.
    #[test]
    fn funnel_equals_reference_prune_only(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in sigma(),
        structure_check in prop::sample::select(vec![true, false]),
        algo in prop::sample::select(vec![
            PartitionAlgo::Greedy,
            PartitionAlgo::EnhancedGreedy(2),
            PartitionAlgo::Exact,
        ]),
    ) {
        let build = |db: &[LabeledGraph]| {
            PisSystem::builder()
                .exhaustive_features(3)
                .search_config(PisConfig {
                    verify: false,
                    structure_check,
                    partition: algo,
                    ..PisConfig::default()
                })
                .build(db.to_vec())
        };
        check_funnel(build, &mut SearchScratch::new(), &db, &query, sigma)?;
    }
}

proptest! {
    // Each case builds four weighted-molecule systems and holds every
    // search to `topo_prune`, `naive_scan` and the oracle.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Under the linear distance a class is its posting list, so the
    /// search's final candidates are `topo_prune`'s — posting-list
    /// intersection, then the structure check — at every σ, and
    /// no fragment enters the partition pool (every linear row is 0, so
    /// Eq. 2 bounds nothing beyond the intersection), and
    /// verification keeps the answers exact: they are `naive_scan`'s,
    /// each at the oracle's distance to the f64 bit. Weighted molecules,
    /// some graphs pending, edge-only and with vertex weights priced
    /// (`LinearDistance::scaled`). Weights and scales are rounded to
    /// multiples of 1/64, so every cost sum is exact in any order and
    /// the bitwise comparison means what it says.
    #[test]
    fn linear_search_is_topo_prune_then_exact_verification(
        seed in 0u64..1_000,
        pending in 0usize..30,
        edges in 3usize..7,
    ) {
        let weighted = MoleculeConfig { weighted: true, ..MoleculeConfig::default() };
        let db: Vec<LabeledGraph> =
            MoleculeGenerator::new(weighted).database(40, seed).iter().map(dyadic).collect();
        let queries = sample_query_set(&db, edges, 3, seed ^ 7);
        for ld in [LinearDistance::edges_only(), LinearDistance::scaled(0.0625, 1.0)] {
            let builder = PisSystem::builder().linear_distance(ld).exhaustive_features(3);
            let system = with_pending(builder, &db, db.len() - pending);
            for (qi, query) in queries.iter().enumerate() {
                for sigma in [0.0, 0.1, 0.5, 1.0, 2.0] {
                    let at = format!("{ld:?} query {qi} sigma {sigma}");
                    let o = system.search(query, sigma);
                    // Linear rows are 0 on their whole class, so no
                    // fragment enters the pool and no partition is chosen.
                    prop_assert_eq!(o.stats.fragments_in_pool, 0, "pool, {}", at);
                    prop_assert_eq!(o.stats.partition_size, 0, "partition, {}", at);
                    let topo = system.topo_prune(query, sigma);
                    prop_assert_eq!(&o.candidates, &topo.candidates, "candidates, {}", at);
                    let naive = system.naive_scan(query, sigma);
                    prop_assert_eq!(&o.answers, &naive.answers, "answers, {}", at);
                    let bits = answer_distance_bits(&system, query, &o, sigma);
                    for (&g, d) in o.answers.iter().zip(bits) {
                        let brute = min_superimposed_distance_brute(query, &db[g.index()], &ld)
                            .expect("an answer contains the query");
                        prop_assert_eq!(d, brute.to_bits(), "{} {}", g, at);
                    }
                }
            }
        }
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
            same_outcome(&system, &query, a, b, sigma)?;
            prop_assert_eq!(&a.answers, &oracle.answers, "naive_scan, sigma {}", sigma);
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
        same_outcome(&system, query, a, b, sigma).unwrap();
        assert_eq!(a.answers, oracle.answers, "naive_scan, sigma {sigma}");
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

/// Candidates, answers, answer distance bits and stats of two searches
/// of `query` on `system` agree.
fn same_outcome(
    system: &PisSystem,
    query: &LabeledGraph,
    a: &SearchOutcome,
    b: &SearchOutcome,
    sigma: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.candidates, &b.candidates, "candidates, sigma {}", sigma);
    prop_assert_eq!(&a.answers, &b.answers, "answers, sigma {}", sigma);
    prop_assert_eq!(
        answer_distance_bits(system, query, a, sigma),
        answer_distance_bits(system, query, b, sigma),
        "distance bits, sigma {}",
        sigma
    );
    prop_assert_eq!(&a.stats, &b.stats, "stats, sigma {}", sigma);
    Ok(())
}
