//! Linear-distance search over weighted graphs — the paper's Example 3.
//!
//! When labels are numeric (bond lengths, charges), the superimposed
//! distance is the linear mutation distance `LD = Σ |w − w'|` and each
//! equivalence class is indexed by an R-tree over weight vectors; a
//! range query `LD ≤ σ` becomes an L1 ball query.
//!
//! Run with: `cargo run --release --example weighted_geometry`

use pis::datasets::sample_query_set;
use pis::prelude::*;

fn main() {
    // Weighted molecules: bond lengths in Å with per-molecule jitter.
    let generator =
        MoleculeGenerator::new(MoleculeConfig { weighted: true, ..MoleculeConfig::default() });
    let db = generator.database(300, 9);
    println!("database: {}", DatasetStats::compute(&db));

    // Edge-only linear distance (geometric comparison of bond lengths).
    let system = PisSystem::builder()
        .linear_distance(LinearDistance::edges_only())
        .exhaustive_features(3)
        .build(db.clone());
    println!(
        "R-tree index: {} classes / {} weight vectors",
        system.index().features().len(),
        system.index().total_entries()
    );

    // Query: a fragment sampled from the database, geometrically
    // perturbed — we search for conformations within a length budget.
    let queries = sample_query_set(&db, 8, 5, 3);
    for (i, q) in queries.iter().enumerate() {
        for sigma in [0.05, 0.25, 1.0] {
            let outcome = system.search(q, sigma);
            println!(
                "query {i}, sigma {sigma:4}: {} answers from {} candidates",
                outcome.answers.len(),
                outcome.candidates.len()
            );
            // The query came from the database: its source must match at
            // any budget.
            assert!(
                !outcome.answers.is_empty(),
                "a database-sampled query must match its source graph"
            );
        }
    }

    // Cross-check the indexed answers against the full scan.
    for q in &queries {
        let indexed = system.search(q, 0.25);
        let scanned = system.naive_scan(q, 0.25);
        assert_eq!(indexed.answers, scanned.answers, "the index must not change the answers");
    }
    println!("indexed search and naive scan agree — weighted search OK");
}
