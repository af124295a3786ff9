//! Deep randomized consistency checks at medium scale.
//!
//! These run minutes, not seconds, so they are `#[ignore]`d by default;
//! run them on demand with
//!
//! ```bash
//! cargo test --release --test stress -- --ignored
//! ```

use pis::datasets::{sample_query_set, MoleculeGenerator};
use pis::distance::oracle::sssd_brute;
use pis::prelude::*;

#[test]
#[ignore = "minutes-long randomized deep check; run with -- --ignored"]
fn medium_scale_oracle_agreement() {
    // 150 molecules, exhaustive verification against the brute oracle
    // for a batch of sampled queries across several thresholds.
    let db = MoleculeGenerator::default().database(150, 2024);
    let system = PisSystem::builder()
        .gindex_features(GindexConfig {
            max_edges: 5,
            min_support_fraction: 0.03,
            ..GindexConfig::default()
        })
        .build(db.clone());
    let md = MutationDistance::edge_hamming();
    for m in [8usize, 12, 16] {
        let queries = sample_query_set(&db, m, 8, m as u64);
        for (qi, q) in queries.iter().enumerate() {
            for sigma in [0.0, 1.0, 2.0, 4.0] {
                let got: Vec<usize> =
                    system.search(q, sigma).answers.iter().map(|g| g.index()).collect();
                let expected = sssd_brute(&db, q, &md, sigma);
                assert_eq!(got, expected, "Q{m} query {qi} sigma {sigma}");
            }
        }
    }
}

#[test]
#[ignore = "minutes-long randomized deep check; run with -- --ignored"]
fn incremental_growth_never_diverges() {
    // Grow a system one graph at a time and, at checkpoints, compare
    // against a bulk rebuild on the same corpus.
    let all = MoleculeGenerator::default().database(120, 77);
    let features =
        GindexConfig { max_edges: 4, min_support_fraction: 0.05, ..GindexConfig::default() };
    let mut live = PisSystem::builder().gindex_features(features.clone()).build(all[..40].to_vec());
    let queries = sample_query_set(&all[..40], 10, 5, 9);
    for (i, g) in all[40..].iter().enumerate() {
        live.insert_graph(g.clone());
        if (i + 1) % 40 == 0 {
            // Bulk system over the identical corpus, identical features:
            // answers must match exactly.
            let corpus = live.database().to_vec();
            let bulk = PisSystem::builder().gindex_features(features.clone()).build(corpus);
            for q in &queries {
                for sigma in [1.0, 2.0] {
                    assert_eq!(
                        live.search(q, sigma).answers,
                        bulk.search(q, sigma).answers,
                        "divergence after {} inserts at sigma {sigma}",
                        i + 1
                    );
                }
            }
        }
    }
}
