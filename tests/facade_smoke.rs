//! Facade smoke test: `PisSystem`'s `search` and `knn` must agree with
//! the brute-force baselines (`pis_core::baseline` / the oracle) on a
//! deterministic toy database, end to end through the whole newly-wired
//! dependency graph (facade → core → index → mining → partition →
//! distance → graph).

mod common;

use common::{answer_distance_bits, ring};
use pis::distance::oracle::min_superimposed_distance_brute;
use pis::prelude::*;

/// Rings of six labeled edges: a database whose pairwise distances are
/// easy to enumerate by hand.
fn toy_db() -> Vec<LabeledGraph> {
    vec![
        ring(&[1, 2, 1, 2, 1, 2]), // the query itself
        ring(&[1, 2, 1, 2, 1, 1]), // one relabel away
        ring(&[1, 1, 1, 1, 1, 1]), // three relabels away
        ring(&[2, 2, 2, 2, 2, 2]), // three relabels away
        ring(&[3, 3, 3, 3, 3, 3]), // six relabels away
    ]
}

fn toy_system() -> PisSystem {
    PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(3)
        .build(toy_db())
}

#[test]
fn search_matches_naive_scan_at_every_sigma() {
    let system = toy_system();
    let query = ring(&[1, 2, 1, 2, 1, 2]);
    for sigma in [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0] {
        let pis = system.search(&query, sigma);
        let naive = system.naive_scan(&query, sigma);
        let topo = system.topo_prune(&query, sigma);
        assert_eq!(pis.answers, naive.answers, "sigma {sigma}: PIS vs naive scan");
        assert_eq!(pis.answers, topo.answers, "sigma {sigma}: PIS vs topoPrune");
    }
    // Spot-check the hand-computed funnel: σ = 1 admits the exact match
    // and the one-relabel ring only.
    let hits = system.search(&query, 1.0);
    assert_eq!(hits.answers, vec![GraphId(0), GraphId(1)]);
    let bits = answer_distance_bits(&system, &query, &hits, 1.0);
    assert_eq!(bits, [0.0, 1.0].map(f64::to_bits));
    let md = MutationDistance::edge_hamming();
    for (&g, d) in hits.answers.iter().zip(bits) {
        let brute = min_superimposed_distance_brute(&query, system.graph(g), &md);
        assert_eq!(brute.map(f64::to_bits), Some(d), "answer {g}");
    }
}

#[test]
fn knn_returns_the_brute_force_nearest() {
    let system = toy_system();
    let query = ring(&[1, 2, 1, 2, 1, 2]);
    let md = MutationDistance::edge_hamming();

    // Brute-force reference: exact distance to every database graph,
    // sorted by (distance, id) — the same order `knn` promises.
    let mut expected: Vec<(usize, f64)> = system
        .database()
        .iter()
        .enumerate()
        .filter_map(|(i, g)| min_superimposed_distance_brute(&query, g, &md).map(|d| (i, d)))
        .collect();
    expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));

    for k in 1..=expected.len() + 1 {
        let got = system.knn(&query, k);
        let want = &expected[..k.min(expected.len())];
        assert_eq!(got.neighbors.len(), want.len(), "k = {k}");
        for (n, &(idx, dist)) in got.neighbors.iter().zip(want) {
            assert_eq!(n.graph.index(), idx, "k = {k}");
            assert!((n.distance - dist).abs() < 1e-9, "k = {k}: {} vs {dist}", n.distance);
        }
    }
}

#[test]
fn non_contained_query_has_no_answers() {
    let system = toy_system();
    // A 7-ring never embeds in a 6-ring database.
    let query = ring(&[1, 2, 1, 2, 1, 2, 1]);
    assert!(system.search(&query, 100.0).answers.is_empty());
    assert!(system.knn(&query, 3).neighbors.is_empty());
}
