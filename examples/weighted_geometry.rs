//! Linear-distance search over weighted graphs — the paper's Example 3.
//!
//! When labels are numeric (bond lengths, charges), the superimposed
//! distance is the linear mutation distance `LD = Σ |w − w'|`. Each
//! equivalence class is its posting list — the graphs that contain its
//! structure — so the search's candidates are `topo_prune`'s: posting
//! lists intersected, then the structure check. Verification measures
//! `LD` and keeps the answers exact. (The paper's R-tree over weight
//! vectors pruned almost nothing beyond that on molecules and cost far
//! more than it saved; DESIGN.md §6.14.)
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
        "posting-list index: {} classes / {} (class, graph) entries",
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

    // Cross-check the indexed answers against the full scan, and the
    // indexed candidates against topoPrune's.
    for q in &queries {
        let indexed = system.search(q, 0.25);
        let scanned = system.naive_scan(q, 0.25);
        assert_eq!(indexed.answers, scanned.answers, "the index must not change the answers");
        let topo = system.topo_prune(q, 0.25);
        assert_eq!(indexed.candidates, topo.candidates, "a linear class is its posting list");
    }
    println!(
        "indexed search equals the naive scan, candidates equal topoPrune's — weighted search OK"
    );
}
