//! Fault-injection tier (runs only with `--features failpoints`).
//!
//! The `failpoints` feature compiles deterministic failpoint consults
//! into every budget checkpoint (see `vendor/failpoints`), so these
//! tests can force "the deadline elapsed exactly at checkpoint N of
//! phase X" — or a worker panic at that spot — without racing a real
//! clock. Each scenario asserts the robustness contract: truncated but
//! sound, or panicked but reusable.
#![cfg(feature = "failpoints")]

mod common;

use std::sync::Mutex;

use common::{answer_distance_bits, ring, unique_probes};
use pis::core::{PisSearcher, DEFAULT_PARALLEL_FRAGMENT_THRESHOLD};
use pis::distance::oracle::sssd_brute;
use pis::graph::budget::CheckpointSite;
use pis::prelude::*;

/// The failpoint registry is process-global: every test serializes
/// itself behind this lock and disarms on entry and exit.
static SERIAL: Mutex<()> = Mutex::new(());

fn db() -> Vec<LabeledGraph> {
    vec![
        ring(&[1, 1, 1, 1, 1, 1]),
        ring(&[1, 1, 1, 1, 1, 2]),
        ring(&[1, 1, 1, 1, 2, 2]),
        ring(&[1, 1, 1, 2, 2, 2]),
        ring(&[2, 2, 2, 2, 2, 2]),
        ring(&[1, 2, 1, 2, 1, 2]),
    ]
}

fn system(partition: PartitionAlgo) -> PisSystem {
    PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(4)
        .search_config(PisConfig { partition, ..PisConfig::default() })
        .build(db())
}

/// Exact answer set of the brute-force oracle, as raw indices.
fn exact(database: &[LabeledGraph], query: &LabeledGraph, sigma: f64) -> Vec<usize> {
    sssd_brute(database, query, &MutationDistance::edge_hamming(), sigma)
}

/// Asserts the graceful-degradation contract of one outcome against the
/// oracle: verified answers ⊆ exact, and exact ⊆ answers ∪ possible.
fn assert_sound(outcome: &SearchOutcome, exact: &[usize], context: &str) {
    for a in &outcome.answers {
        assert!(exact.contains(&a.index()), "{context}: fabricated answer {a}");
    }
    for e in exact {
        let covered = outcome.answers.iter().any(|g| g.index() == *e)
            || outcome.possible.iter().any(|g| g.index() == *e);
        assert!(covered, "{context}: true answer {e} silently dropped");
    }
}

/// A deadline elapsing at checkpoint N of each site — for every N until
/// the site stops consulting — yields a truncated-but-sound outcome, and
/// every site trips at least once, attributed to itself. The `match`
/// is exhaustive, so a new site without a workload does not compile.
#[test]
fn deadline_at_every_checkpoint_of_every_phase_is_sound() {
    let _guard = SERIAL.lock().unwrap();
    let query = ring(&[1, 1, 1, 1, 1, 1]);
    let sigma = 2.0;
    let oracle = exact(&db(), &query, sigma);
    assert!(!oracle.is_empty(), "workload must have answers to protect");
    for site in CheckpointSite::ALL {
        // The workload that reaches the site: a search with a partition
        // solver, or kNN.
        let (algo, knn) = match site {
            CheckpointSite::RangeDescent
            | CheckpointSite::StructureCheck
            | CheckpointSite::Verify => (PartitionAlgo::Greedy, false),
            CheckpointSite::Partition => (PartitionAlgo::Exact, false),
            CheckpointSite::Knn => (PartitionAlgo::Greedy, true),
        };
        let system = system(algo);
        let mut trips = 0;
        for n in 1..40u64 {
            let context = format!("{} trip at consult {n}", site.name());
            failpoints::disarm_all();
            failpoints::arm(site.name(), n);
            let completeness = if knn {
                let outcome = system.knn(&query, 3);
                assert!(outcome.certified_radius <= outcome.radius, "{context}");
                outcome.completeness
            } else {
                let outcome = system.search(&query, sigma);
                assert_sound(&outcome, &oracle, &context);
                if outcome.completeness.is_exact() {
                    // The site was consulted fewer than n times: the
                    // whole search ran to completion and must be exact.
                    let got: Vec<usize> = outcome.answers.iter().map(|g| g.index()).collect();
                    assert_eq!(got, oracle, "{context}: untripped run must equal the oracle");
                }
                outcome.completeness
            };
            failpoints::disarm_all();
            if let Completeness::Truncated { phase, .. } = completeness {
                trips += 1;
                // Only the armed site fails its consult, so it is the
                // first (and only) site to trip.
                assert_eq!(phase, site, "{context}: trip must be attributed to its site");
            }
        }
        assert!(trips > 0, "site {} never tripped — dead checkpoint?", site.name());
    }
}

/// A mid-verification deadline leaves the already-verified prefix in
/// `answers` and every undecided candidate in `possible`.
#[test]
fn mid_verify_deadline_partitions_answers_and_possible() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let query = ring(&[1, 1, 1, 1, 1, 1]);
    let sigma = 2.0;
    let oracle = exact(&db(), &query, sigma);
    let system = system(PartitionAlgo::Greedy);
    // Trip at the second verify consult: at most one candidate decided.
    failpoints::arm("verify", 2);
    let outcome = system.search(&query, sigma);
    failpoints::disarm_all();
    assert!(!outcome.completeness.is_exact(), "the verify failpoint must trip");
    assert_sound(&outcome, &oracle, "mid-verify deadline");
    assert!(!outcome.possible.is_empty(), "undecided candidates must be reported");
    assert!(
        outcome.answers.len() < oracle.len(),
        "with the budget tripped mid-verify, some answers stay undecided"
    );
}

/// A ring wide and varied enough that its unique probes reach the
/// range-query fan-out break-even: its descents run on pool workers
/// wherever there is more than one core.
fn wide_ring() -> LabeledGraph {
    ring(&[
        3, 3, 2, 4, 4, 4, 3, 4, 1, 3, 2, 4, 1, 1, 2, 4, 2, 4, 2, 3, 3, 3, 4, 4, 4, 3, 4, 2, 3, 1,
        1, 2,
    ])
}

/// A panic at a checkpoint (modeling a crashed worker) — on the calling
/// thread in verification, inside the pool's range-query fan-out in the
/// descent — surfaces to the caller exactly once, and both the searcher
/// and the scratch stay fully usable afterwards.
#[test]
fn checkpoint_panic_surfaces_and_searcher_stays_usable() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let query = wide_ring();
    let mut database = db();
    database.push(query.clone());
    let index = PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(4)
        .build(database.clone());
    assert!(
        unique_probes(index.index(), &query) >= DEFAULT_PARALLEL_FRAGMENT_THRESHOLD,
        "the query must be wide enough to take the fan-out arm"
    );
    let searcher = PisSearcher::new(index.index(), &database, PisConfig::default());
    let sigma = 2.0;
    let oracle = exact(&database, &query, sigma);
    let mut scratch = SearchScratch::new();

    for site in ["verify", "range-descent"] {
        failpoints::arm_panic(site, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            searcher.search(&query, sigma, &mut scratch)
        }));
        failpoints::disarm_all();
        let payload = caught.expect_err("the injected panic must surface to the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .expect("panic payload is a message");
        assert_eq!(message, format!("failpoint panic at {site}"));

        // Same searcher, same scratch: the next query is exact and
        // equals a fresh-scratch run bit for bit.
        let after = searcher.search(&query, sigma, &mut scratch).unwrap();
        let fresh = searcher.search(&query, sigma, &mut SearchScratch::new()).unwrap();
        assert!(after.completeness.is_exact(), "after a {site} panic");
        assert_eq!(after.answers, fresh.answers, "after a {site} panic");
        assert_eq!(after.candidates, fresh.candidates, "after a {site} panic");
        assert_eq!(
            answer_distance_bits(&index, &query, &after, sigma),
            answer_distance_bits(&index, &query, &fresh, sigma),
            "after a {site} panic"
        );
        assert_eq!(after.stats, fresh.stats, "after a {site} panic");
        let got: Vec<usize> = after.answers.iter().map(|g| g.index()).collect();
        assert_eq!(got, oracle, "after a {site} panic");
    }
}

/// A kNN round tripping at its doubling checkpoint returns best-so-far
/// neighbors with a certified radius no larger than the explored one.
#[test]
fn knn_round_trip_returns_certified_best_so_far() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let system = system(PartitionAlgo::Greedy);
    let query = ring(&[1, 1, 1, 1, 1, 1]);
    let complete = system.knn(&query, 3);
    assert!(complete.completeness.is_exact());
    for n in 1..4u64 {
        failpoints::disarm_all();
        failpoints::arm("knn", n);
        let outcome = system.knn(&query, 3);
        failpoints::disarm_all();
        assert!(outcome.certified_radius <= outcome.radius);
        if !outcome.completeness.is_exact() {
            // Best-so-far neighbors are a prefix of the complete
            // ranking's answer set by distance.
            for found in &outcome.neighbors {
                assert!(
                    complete.neighbors.iter().any(|c| c.distance <= found.distance),
                    "truncated kNN reported a neighbor the complete run beats entirely"
                );
            }
        }
    }
}
