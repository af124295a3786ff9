//! gSpan against an oracle that shares no code with it: on small random
//! databases, labelled and label-erased, with the per-graph embedding
//! cap unreached, `mine`'s `(code, support)` set is exactly
//! `exhaustive_features` — every connected edge subset of every graph,
//! canonicalized and counted — filtered by the same support curve.
//! (`crates/mining/tests/mining_identity.rs` pins the output where the
//! cap does bite.)

mod common;

use std::collections::BTreeSet;

use common::graph_database;
use pis::graph::LabeledGraph;
use pis::mining::exhaustive::exhaustive_features;
use pis::mining::{mine, GspanConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mine_equals_exhaustive_under_the_support_curve(
        db in graph_database(6, 6, 2),
        erase in 0u8..2,
        min_support in 1usize..4,
        slope_tenths in 0u32..12,
    ) {
        let db: Vec<LabeledGraph> =
            if erase == 1 { db.iter().map(LabeledGraph::erase_labels).collect() } else { db };
        let cfg = GspanConfig {
            min_support,
            max_edges: 4,
            size_support_slope: f64::from(slope_tenths) / 10.0,
            ..GspanConfig::default()
        };
        let mined = mine(&db, &cfg);
        let mined_set: BTreeSet<(Vec<u32>, usize)> =
            mined.iter().map(|p| (p.code.to_sequence(), p.support)).collect();
        prop_assert_eq!(mined_set.len(), mined.len(), "a pattern was mined twice");
        let expected: BTreeSet<(Vec<u32>, usize)> = exhaustive_features(&db, cfg.max_edges)
            .iter()
            .filter(|f| f.support >= cfg.support_at(f.edge_count()))
            .map(|f| (f.code.to_sequence(), f.support))
            .collect();
        prop_assert_eq!(mined_set, expected);
    }
}
