//! End-to-end integration: the full PIS system against the brute-force
//! oracle on realistic synthetic molecules, across feature sources and
//! distances.

mod common;

use common::{answer_distance_bits, ring};
use pis::datasets::{query::sample_query, sample_query_set, MoleculeConfig, MoleculeGenerator};
use pis::distance::oracle::{min_superimposed_distance_brute, sssd_brute};
use pis::index::{encode_snapshot, FragmentIndex, IndexConfig};
use pis::prelude::*;

fn answers_as_usize(outcome: &SearchOutcome) -> Vec<usize> {
    outcome.answers.iter().map(|g| g.index()).collect()
}

#[test]
fn synthetic_molecules_match_oracle_md() {
    let db = MoleculeGenerator::default().database(60, 101);
    let system = PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .gindex_features(GindexConfig {
            max_edges: 5,
            min_support_fraction: 0.05,
            ..GindexConfig::default()
        })
        .build(db.clone());
    let md = MutationDistance::edge_hamming();
    let queries = sample_query_set(&db, 8, 6, 5);
    for (qi, q) in queries.iter().enumerate() {
        for sigma in [0.0, 1.0, 2.0] {
            let got = answers_as_usize(&system.search(q, sigma));
            let expected = sssd_brute(&db, q, &md, sigma);
            assert_eq!(got, expected, "query {qi} sigma {sigma}");
        }
    }
}

#[test]
fn synthetic_molecules_match_oracle_ld() {
    let generator =
        MoleculeGenerator::new(MoleculeConfig { weighted: true, ..MoleculeConfig::default() });
    let db = generator.database(40, 33);
    let system = PisSystem::builder()
        .linear_distance(LinearDistance::edges_only())
        .exhaustive_features(3)
        .build(db.clone());
    let ld = LinearDistance::edges_only();
    let queries = sample_query_set(&db, 6, 4, 9);
    for (qi, q) in queries.iter().enumerate() {
        for sigma in [0.0, 0.1, 0.5, 2.0] {
            let got = answers_as_usize(&system.search(q, sigma));
            let expected = sssd_brute(&db, q, &ld, sigma);
            assert_eq!(got, expected, "query {qi} sigma {sigma}");
        }
    }
}

#[test]
fn feature_sources_agree_on_answers() {
    let db = MoleculeGenerator::default().database(40, 7);
    let queries = sample_query_set(&db, 8, 3, 2);
    let systems = [
        PisSystem::builder().exhaustive_features(4).build(db.clone()),
        PisSystem::builder().path_features(4).build(db.clone()),
        PisSystem::builder()
            .gindex_features(GindexConfig {
                max_edges: 4,
                min_support_fraction: 0.05,
                ..GindexConfig::default()
            })
            .build(db.clone()),
    ];
    for q in &queries {
        for sigma in [0.0, 1.0, 2.0] {
            let reference = answers_as_usize(&systems[0].search(q, sigma));
            for (i, system) in systems.iter().enumerate().skip(1) {
                assert_eq!(
                    answers_as_usize(&system.search(q, sigma)),
                    reference,
                    "feature source {i} disagrees at sigma {sigma}"
                );
            }
        }
    }
}

#[test]
fn database_sampled_query_always_finds_its_source() {
    // A query cut out of graph G must return G at any sigma >= 0.
    let db = MoleculeGenerator::default().database(50, 55);
    let system = PisSystem::builder()
        .gindex_features(GindexConfig {
            max_edges: 4,
            min_support_fraction: 0.05,
            ..GindexConfig::default()
        })
        .build(db.clone());
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    let mut tested = 0;
    for (gi, g) in db.iter().enumerate() {
        if g.edge_count() < 10 {
            continue;
        }
        let Some(q) = sample_query(g, 10, &mut rng) else { continue };
        let outcome = system.search(&q, 0.0);
        assert!(
            outcome.answers.iter().any(|a| a.index() == gi),
            "graph {gi} lost its own substructure"
        );
        tested += 1;
        if tested >= 10 {
            break;
        }
    }
    assert!(tested >= 5, "too few source graphs tested");
}

#[test]
fn paper_example_1_flavor() {
    // Figure 1 + Example 1: three molecules sharing the query topology;
    // threshold "< 2" returns the two within one mutation.
    let db = vec![
        ring(&[1, 2, 1, 2, 1, 1]), // one mutation from the query
        ring(&[2, 2, 2, 2, 2, 2]), // three mutations
        ring(&[1, 2, 1, 2, 2, 2]), // one mutation
    ];
    let system = PisSystem::builder().exhaustive_features(4).build(db);
    let query = ring(&[1, 2, 1, 2, 1, 2]);
    let within_2 = system.search(&query, 2.0 - f64::EPSILON);
    assert_eq!(answers_as_usize(&within_2), vec![0, 2]);
}

#[test]
fn stats_expose_the_pruning_funnel() {
    let db = MoleculeGenerator::default().database(80, 13);
    let system = PisSystem::builder()
        .gindex_features(GindexConfig {
            max_edges: 5,
            min_support_fraction: 0.05,
            ..GindexConfig::default()
        })
        .build(db.clone());
    let q = sample_query_set(&db, 12, 1, 3).remove(0);
    let o = system.search(&q, 1.0);
    let s = &o.stats;
    assert!(s.query_fragments > 0);
    assert!(s.candidates_after_intersection <= db.len());
    assert!(s.candidates_after_partition <= s.candidates_after_intersection);
    assert!(s.candidates_after_structure <= s.candidates_after_partition);
    assert_eq!(s.verification_calls, o.candidates.len());
    assert!(o.answers.len() <= o.candidates.len());
}

#[test]
fn save_load_round_trip_preserves_answers() {
    let db = MoleculeGenerator::default().database(30, 61);
    let build = || {
        PisSystem::builder()
            .gindex_features(GindexConfig {
                max_edges: 4,
                min_support_fraction: 0.05,
                ..GindexConfig::default()
            })
            .build(db.clone())
    };
    let mut system = build();
    let queries = sample_query_set(&db, 8, 3, 12);

    // Persist a second, identically built system as a durable store,
    // let go of it, and come back through recovery.
    let dir = std::env::temp_dir().join(format!("pis-system-{}", std::process::id()));
    drop(DurableSystem::create(&dir, build()).expect("create must succeed"));
    let mut loaded = DurableSystem::open(&dir, PisConfig::default()).expect("open must succeed");
    assert!(loaded.report().clean());

    for q in &queries {
        for sigma in [0.0, 1.0, 2.0] {
            assert_eq!(
                answers_as_usize(&system.search(q, sigma)),
                answers_as_usize(&loaded.system().search(q, sigma)),
                "loaded system diverged at sigma {sigma}"
            );
        }
    }

    // The loaded system stays fully functional: dynamic insert + k-NN.
    let extra = MoleculeGenerator::default().database(1, 77).remove(0);
    loaded.insert_graph(extra.clone()).expect("durable insert must succeed");
    system.insert_graph(extra);
    let loaded = loaded.system();
    let q = &queries[0];
    assert_eq!(answers_as_usize(&system.search(q, 2.0)), answers_as_usize(&loaded.search(q, 2.0)));
    let a = system.knn(q, 3);
    let b = loaded.knn(q, 3);
    assert_eq!(a.neighbors, b.neighbors);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery of a weighted store: the WAL tail, which crosses the merge
/// threshold, is replayed into the linear classes as one batch, so each
/// class merges at most once and every class ends below 64 pending
/// entries. A linear class holds one entry per graph, so the tail is 70
/// graphs long to take the common classes past the threshold. The
/// recovered store answers as a live system that never went down and as
/// the naive scan, and compacts to the snapshot bytes of a bulk build
/// over the same graphs.
#[test]
fn weighted_wal_replay_merges_each_class_at_most_once() {
    let generator =
        MoleculeGenerator::new(MoleculeConfig { weighted: true, ..MoleculeConfig::default() });
    let db = generator.database(100, 19);
    let (base, tail) = db.split_at(30);
    let build = |graphs: &[LabeledGraph]| {
        PisSystem::builder()
            .linear_distance(LinearDistance::edges_only())
            .exhaustive_features(3)
            .build(graphs.to_vec())
    };
    let dir = std::env::temp_dir().join(format!("pis-weighted-replay-{}", std::process::id()));
    let mut store = DurableSystem::create(&dir, build(base)).unwrap();
    let mut live = build(base);
    for g in tail {
        store.insert_graph(g.clone()).unwrap();
        live.insert_graph(g.clone());
    }
    drop(store);

    let mut store = DurableSystem::open(&dir, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_replayed, tail.len());
    let index = store.system().index();
    let merges = index.merge_stats().merges as usize;
    assert!(merges >= 1, "the tail crosses the merge threshold");
    assert!(merges <= index.features().len(), "{merges} merges replaying {} records", tail.len());
    for f in index.features().iter() {
        // The index's merge threshold.
        assert!(index.class_pending_entries(f.id) < 64);
    }
    for (qi, q) in sample_query_set(&db, 4, 4, 23).iter().enumerate() {
        for sigma in [0.0, 0.5, 2.0] {
            let got = store.system().search(q, sigma).answers;
            assert_eq!(got, live.search(q, sigma).answers, "live, query {qi} sigma {sigma}");
            assert_eq!(got, live.naive_scan(q, sigma).answers, "naive, query {qi} sigma {sigma}");
        }
    }

    // The bulk build over the base's features (mining the whole
    // database could find others).
    store.compact().unwrap();
    let bulk = FragmentIndex::build(
        &db,
        live.index().features().clone(),
        IndexDistance::Linear(LinearDistance::edges_only()),
        &IndexConfig::default(),
    );
    let snapshot = std::fs::read(dir.join(pis::durable::SNAPSHOT_FILE)).unwrap();
    assert!(
        snapshot == encode_snapshot(&bulk, &db).unwrap(),
        "the compacted store differs from the bulk build"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn knn_agrees_with_range_search_ranking() {
    let db = MoleculeGenerator::default().database(40, 31);
    let system = PisSystem::builder()
        .gindex_features(GindexConfig {
            max_edges: 4,
            min_support_fraction: 0.05,
            ..GindexConfig::default()
        })
        .build(db.clone());
    let q = sample_query_set(&db, 10, 1, 8).remove(0);
    let knn = system.knn(&q, 5);
    // Every neighbor is a range answer at a radius covering it, and its
    // distance is that answer's verified distance and the oracle's.
    let radius = knn.neighbors.last().map_or(0.0, |n| n.distance);
    let range = system.search(&q, radius);
    let range_bits = answer_distance_bits(&system, &q, &range, radius);
    let md = MutationDistance::edge_hamming();
    for n in &knn.neighbors {
        let pos = range
            .answers
            .iter()
            .position(|g| g == &n.graph)
            .expect("kNN result missing from range search");
        assert_eq!(range_bits[pos], n.distance.to_bits());
        let brute = min_superimposed_distance_brute(&q, system.graph(n.graph), &md);
        assert_eq!(brute.map(f64::to_bits), Some(range_bits[pos]), "neighbor {}", n.graph);
    }
    // Sorted by distance.
    assert!(knn.neighbors.windows(2).all(|w| w[0].distance <= w[1].distance));
}

#[test]
fn io_round_trip_preserves_search_results() {
    use pis::graph::io::{parse_database, write_database};
    let db = MoleculeGenerator::default().database(25, 99);
    let text = write_database(&db);
    let parsed = parse_database(&text).expect("serialized database must parse");
    assert_eq!(parsed, db);
    let system_a = PisSystem::builder().exhaustive_features(3).build(db.clone());
    let system_b = PisSystem::builder().exhaustive_features(3).build(parsed);
    let q = sample_query_set(&db, 6, 1, 0).remove(0);
    assert_eq!(
        answers_as_usize(&system_a.search(&q, 1.0)),
        answers_as_usize(&system_b.search(&q, 1.0))
    );
}
