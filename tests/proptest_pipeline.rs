//! Property tests of the full pipeline: on arbitrary databases and
//! queries, every search strategy must agree with the brute-force
//! oracle, and the paper's invariants (lower bound, monotonicity,
//! losslessness) must hold.

mod common;

use common::{connected_graph, graph_database};
use pis::core::{PartitionAlgo, PisConfig, VerifyScratch};
use pis::distance::oracle::{min_superimposed_distance_brute, sssd_brute};
use pis::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PIS answers equal the brute-force SSSD answer set, whatever the
    /// database, query, threshold or tuning.
    #[test]
    fn pis_matches_oracle(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
        lambda in prop::sample::select(vec![0.5, 1.0, 2.0]),
        epsilon in prop::sample::select(vec![0.0, 0.3]),
    ) {
        let md = MutationDistance::edge_hamming();
        let expected = sssd_brute(&db, &query, &md, sigma);
        let system = PisSystem::builder()
            .mutation_distance(md)
            .exhaustive_features(3)
            .search_config(PisConfig { lambda, epsilon, ..PisConfig::default() })
            .build(db.clone());
        let got: Vec<usize> =
            system.search(&query, sigma).answers.iter().map(|g| g.index()).collect();
        prop_assert_eq!(got, expected);
    }

    /// The unit mutation distance (vertex and edge labels both scored)
    /// also agrees with the oracle end to end.
    #[test]
    fn pis_matches_oracle_unit_distance(
        db in graph_database(6, 5, 2),
        query in connected_graph(4, 1, 2),
        sigma in 0.0f64..3.0,
    ) {
        let md = MutationDistance::unit();
        let expected = sssd_brute(&db, &query, &md, sigma);
        let system = PisSystem::builder()
            .mutation_distance(md)
            .exhaustive_features(3)
            .build(db.clone());
        let got: Vec<usize> =
            system.search(&query, sigma).answers.iter().map(|g| g.index()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Eq. (2): for the partition PIS selects, the fragment distance sum
    /// never exceeds the true superimposed distance of any graph that
    /// structurally contains the query. (Checked indirectly: no answer
    /// is ever pruned — candidates ⊇ answers.)
    #[test]
    fn pruning_is_lossless(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
    ) {
        let md = MutationDistance::edge_hamming();
        let expected = sssd_brute(&db, &query, &md, sigma);
        let system = PisSystem::builder()
            .mutation_distance(md)
            .exhaustive_features(3)
            .search_config(PisConfig { verify: false, ..PisConfig::default() })
            .build(db.clone());
        let candidates: Vec<usize> =
            system.search(&query, sigma).candidates.iter().map(|g| g.index()).collect();
        for answer in expected {
            prop_assert!(
                candidates.contains(&answer),
                "answer {} pruned from candidates {:?}",
                answer,
                candidates
            );
        }
    }

    /// The branch-and-bound verifier equals the exhaustive oracle.
    #[test]
    fn bounded_verifier_equals_oracle(
        query in connected_graph(4, 2, 2),
        target in connected_graph(6, 3, 2),
        sigma in 0.0f64..5.0,
    ) {
        let md = MutationDistance::edge_hamming();
        let brute = min_superimposed_distance_brute(&query, &target, &md);
        let mut scratch = VerifyScratch::new();
        scratch.begin_query(&query);
        let fast = scratch.distance_within(&query, &target, &md, sigma);
        match brute {
            Some(d) if d <= sigma => prop_assert_eq!(fast, Some(d)),
            _ => prop_assert_eq!(fast, None),
        }
    }

    /// Answer sets grow monotonically with sigma.
    #[test]
    fn answers_monotone_in_sigma(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
    ) {
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let mut previous: Vec<GraphId> = Vec::new();
        for sigma in [0.0, 1.0, 2.0, 4.0] {
            let answers = system.search(&query, sigma).answers;
            for a in &previous {
                prop_assert!(answers.contains(a), "answer lost as sigma grew");
            }
            previous = answers;
        }
    }

    /// All partition algorithms yield identical answers (they only
    /// change pruning strength, never correctness).
    #[test]
    fn partition_algorithms_sound(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        sigma in 0.0f64..3.0,
    ) {
        let base = PisSystem::builder().exhaustive_features(3).build(db);
        let mut reference = None;
        for algo in [PartitionAlgo::Greedy, PartitionAlgo::EnhancedGreedy(2), PartitionAlgo::Exact] {
            let cfg = PisConfig { partition: algo, ..PisConfig::default() };
            let answers = base.search_with(&query, sigma, cfg).answers;
            match &reference {
                None => reference = Some(answers),
                Some(r) => prop_assert_eq!(r, &answers),
            }
        }
    }

    /// topoPrune and the naive scan agree with PIS.
    #[test]
    fn baselines_agree(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        sigma in 0.0f64..3.0,
    ) {
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let pis = system.search(&query, sigma).answers;
        let topo = system.topo_prune(&query, sigma).answers;
        let naive = system.naive_scan(&query, sigma).answers;
        prop_assert_eq!(&pis, &topo);
        prop_assert_eq!(&pis, &naive);
    }

    /// The system is correct away from the molecular distribution too:
    /// dense random graphs with uniform labels.
    #[test]
    fn random_graph_workload_matches_oracle(
        seed in 0u64..500,
        sigma in 0.0f64..3.0,
    ) {
        use pis::datasets::{random_database, RandomGraphConfig};
        let config = RandomGraphConfig {
            min_vertices: 4,
            max_vertices: 8,
            edge_probability: 0.3,
            vertex_labels: 2,
            edge_labels: 2,
            weighted: false,
        };
        let db = random_database(&config, 6, seed);
        let query_src = random_database(&config, 1, seed ^ 0xabcdef).remove(0);
        // Use a sampled piece of a random graph as the query.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = 3.min(query_src.edge_count());
        let Some(query) = pis::datasets::query::sample_query(&query_src, m, &mut rng) else {
            return Ok(());
        };
        let md = MutationDistance::edge_hamming();
        let expected = sssd_brute(&db, &query, &md, sigma);
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let got: Vec<usize> =
            system.search(&query, sigma).answers.iter().map(|g| g.index()).collect();
        prop_assert_eq!(got, expected);
    }
}
