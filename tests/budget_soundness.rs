//! Property tests of budget-governed search (DESIGN.md §6.9): whatever
//! the budget, truncation must degrade *gracefully* — verified answers
//! stay correct, nothing true is silently dropped, and a budget that
//! never trips reproduces the exact search bit for bit. A budget is set
//! in one place, `PisConfig::budget`; every property here sets it there.

mod common;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use common::{answer_distance_bits, connected_graph, graph_database};
use pis::core::PisSearcher;
use pis::distance::oracle::sssd_brute;
use pis::prelude::*;
use proptest::prelude::*;

/// A budget covering every limit axis: tight node budgets (trip in any
/// phase), an already-elapsed deadline, a pre-set cancel token, and a
/// loose node budget that usually never trips.
fn budget_strategy() -> impl Strategy<Value = QueryBudget> {
    (0u8..4, 1u64..300).prop_map(|(kind, n)| match kind {
        0 => QueryBudget { node_limit: Some(n), ..QueryBudget::default() },
        1 => QueryBudget { time_limit: Some(Duration::ZERO), ..QueryBudget::default() },
        2 => {
            QueryBudget { cancel: Some(Arc::new(AtomicBool::new(true))), ..QueryBudget::default() }
        }
        _ => QueryBudget { node_limit: Some(n * 1_000), ..QueryBudget::default() },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness under any budget: `answers` ⊆ exact and
    /// exact ⊆ `answers` ∪ `possible` — a truncated search may leave
    /// graphs undecided but never invents or silently drops an answer.
    #[test]
    fn truncated_search_is_sound(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
        budget in budget_strategy(),
    ) {
        let md = MutationDistance::edge_hamming();
        let exact = sssd_brute(&db, &query, &md, sigma);
        let system = PisSystem::builder()
            .mutation_distance(md)
            .exhaustive_features(3)
            .build(db);
        let budgeted = PisConfig { budget, ..system.config().clone() };
        let outcome = system.search_with(&query, sigma, budgeted);
        for a in &outcome.answers {
            prop_assert!(
                exact.contains(&a.index()),
                "budgeted search fabricated answer {a} (exact = {exact:?})"
            );
        }
        for e in &exact {
            let covered = outcome.answers.iter().any(|g| g.index() == *e)
                || outcome.possible.iter().any(|g| g.index() == *e);
            prop_assert!(
                covered,
                "true answer {e} dropped: neither verified nor in `possible` \
                 (completeness {:?})",
                outcome.completeness
            );
        }
        if outcome.completeness.is_exact() {
            let got: Vec<usize> = outcome.answers.iter().map(|g| g.index()).collect();
            prop_assert_eq!(got, exact, "an untripped budget must be exact");
            prop_assert!(outcome.possible.is_empty());
        }
    }

    /// A budget that is checked but never trips is not merely
    /// equivalent — it is bit-identical to the unbudgeted search: same
    /// answers, same f64 distance bits, same funnel statistics,
    /// `Completeness::Exact`. The budget holds an un-set cancel token,
    /// so every checkpoint runs its full test (the unlimited budget
    /// skips them all) and only the outcome may not show it.
    #[test]
    fn infinite_budget_is_bit_identical(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
    ) {
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let plain = system.search(&query, sigma);
        let never_trips = QueryBudget {
            cancel: Some(Arc::new(AtomicBool::new(false))),
            ..QueryBudget::default()
        };
        prop_assert!(never_trips.is_limited(), "the budget must take the checked path");
        let config = PisConfig { budget: never_trips, ..system.config().clone() };
        let budgeted = system.search_with(&query, sigma, config);
        prop_assert!(plain.completeness.is_exact());
        prop_assert_eq!(&budgeted.completeness, &Completeness::Exact);
        prop_assert!(budgeted.possible.is_empty());
        prop_assert_eq!(&plain.answers, &budgeted.answers);
        prop_assert_eq!(&plain.candidates, &budgeted.candidates);
        prop_assert_eq!(&plain.stats, &budgeted.stats);
        prop_assert_eq!(
            answer_distance_bits(&system, &query, &plain, sigma),
            answer_distance_bits(&system, &query, &budgeted, sigma)
        );
    }

    /// A scratch that lived through an aborted/truncated query is
    /// indistinguishable from a fresh one: the next (unbudgeted) search
    /// through it reproduces the fresh-scratch outcome bit for bit. Two
    /// searchers — one budgeted, one not — share the scratch.
    #[test]
    fn scratch_reuse_after_truncation_is_byte_identical(
        db in graph_database(8, 6, 3),
        query in connected_graph(5, 2, 3),
        sigma in 0.0f64..4.0,
        budget in budget_strategy(),
    ) {
        let system = PisSystem::builder().exhaustive_features(3).build(db);
        let budgeted = PisSearcher::new(
            system.index(),
            system.database(),
            PisConfig { budget, ..system.config().clone() },
        );
        let searcher = system.searcher();
        let mut reused = SearchScratch::new();
        // Possibly-truncated query through the scratch, then a clean one.
        let _ = budgeted.search(&query, sigma, &mut reused).unwrap();
        let after = searcher.search(&query, sigma, &mut reused).unwrap();
        let fresh = searcher.search(&query, sigma, &mut SearchScratch::new()).unwrap();
        prop_assert_eq!(&after.answers, &fresh.answers);
        prop_assert_eq!(&after.candidates, &fresh.candidates);
        prop_assert_eq!(&after.possible, &fresh.possible);
        prop_assert_eq!(&after.stats, &fresh.stats);
        prop_assert_eq!(
            answer_distance_bits(&system, &query, &after, sigma),
            answer_distance_bits(&system, &query, &fresh, sigma)
        );
        prop_assert!(after.completeness.is_exact());
    }

    /// Budgeted kNN: whatever the budget, reported neighbors carry true
    /// distances and the certified radius never exceeds the explored
    /// one; an untripped run certifies its final radius.
    #[test]
    fn budgeted_knn_is_sound(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        k in 1usize..4,
        budget in budget_strategy(),
    ) {
        use pis::distance::oracle::min_superimposed_distance_brute;
        let md = MutationDistance::edge_hamming();
        let system = PisSystem::builder()
            .mutation_distance(md.clone())
            .exhaustive_features(3)
            .search_config(PisConfig { budget, ..PisConfig::default() })
            .build(db.clone());
        let outcome = system.knn(&query, k);
        prop_assert!(outcome.certified_radius <= outcome.radius);
        for n in &outcome.neighbors {
            let brute = min_superimposed_distance_brute(&query, &db[n.graph.index()], &md);
            prop_assert_eq!(brute, Some(n.distance), "neighbor distance must be exact");
        }
        if outcome.completeness.is_exact() {
            prop_assert_eq!(outcome.certified_radius, outcome.radius);
        }
    }
}

/// A trip while the partition members' rows are built — after every
/// range query of the funnel completed — drops the cut-short members
/// from the bound and stays sound: `answers` ⊆ exact ⊆
/// `answers` ∪ `possible`. Node limits are swept upward until the search
/// runs to completion; a limit tripped there is recognized by a
/// range-descent trip that left the intersection and the fragment pool
/// exactly as the unbudgeted search has them.
#[test]
fn trip_while_partition_rows_are_built_is_sound() {
    let md = MutationDistance::edge_hamming();
    let db = pis::datasets::MoleculeGenerator::default().database(30, 41);
    let system =
        PisSystem::builder().mutation_distance(md.clone()).exhaustive_features(3).build(db);
    let queries = pis::datasets::query::sample_query_set(system.database(), 8, 4, 5);
    let mut member_trips = 0;
    for (qi, query) in queries.iter().enumerate() {
        let sigma = 2.0;
        let exact = sssd_brute(system.database(), query, &md, sigma);
        let full = system.search(query, sigma);
        assert!(full.stats.partition_size > 0, "query {qi} must have a partition");
        for limit in 1u64.. {
            let budget = QueryBudget { node_limit: Some(limit), ..QueryBudget::default() };
            let outcome =
                system.search_with(query, sigma, PisConfig { budget, ..system.config().clone() });
            let Completeness::Truncated { phase, .. } = outcome.completeness else {
                break;
            };
            let at = format!("query {qi}, node limit {limit}");
            for a in &outcome.answers {
                assert!(exact.contains(&a.index()), "{at}: fabricated answer {a}");
            }
            for e in &exact {
                let kept = outcome.answers.iter().chain(&outcome.possible).any(|g| g.index() == *e);
                assert!(kept, "{at}: true answer {e} dropped");
            }
            let ranges_done = outcome.stats.candidates_after_intersection
                == full.stats.candidates_after_intersection
                && outcome.stats.fragments_in_pool == full.stats.fragments_in_pool;
            if phase == TruncationPhase::RangeDescent && ranges_done {
                member_trips += 1;
            }
        }
    }
    assert!(member_trips > 0, "no node limit tripped while the partition rows were built");
}
