//! Mining identity: the full output of [`mine`] on a fixed corpus,
//! pinned pattern by pattern.
//!
//! The tables below were recorded from the parent commit `3efc84b` (the
//! `Vec<Emb>` / `BTreeMap<DfsEdge, Vec<Emb>>` miner), before `gspan.rs`
//! was rewritten around flat embedding arenas, with
//!
//! ```text
//! cargo test -p pis-mining --test mining_identity -- --ignored --nocapture print_tables
//! ```
//!
//! run in a checkout of that commit holding this file. A row is one
//! mined pattern in output order: its code sequence, its support and an
//! FxHash of its `supporting` ids. The cap-4 table is the one that pins
//! *row order*: `max_embeddings_per_graph` keeps the first rows of each
//! graph, so which embeddings survive — and with them every descendant's
//! (under)counted support — depends on the order lists are built in.
//!
//! Mutation-checked on the arena miner: reversing each graph's rows
//! before `cap_per_graph`, and visiting a row's neighbours in reverse
//! adjacency order, each fail `erased_cap_4_is_pinned` (at the 5-ring)
//! and no other test here. Building the children candidate by candidate
//! instead of in one scan passes, as it must: all rows of one child come
//! from one candidate edge, in parent-row order either way.

use std::hash::Hasher;

use pis_datasets::MoleculeGenerator;
use pis_graph::canonical::{DfsCode, DfsEdge};
use pis_graph::iso::{is_subgraph, IsoConfig, SubgraphMatcher};
use pis_graph::util::FxHasher;
use pis_graph::LabeledGraph;
use pis_mining::{mine, mine_with_stats, GspanConfig, MinedPattern};

/// `(code sequence, support, FxHash of the supporting ids)`.
type Row = (&'static [u32], usize, u64);

/// `peak_live_rows` of the erased corpus at the default cap, as first
/// measured on the arena miner.
const PEAK_LIVE_ROWS_BOUND: usize = 178_738;

fn default_cap() -> usize {
    GspanConfig::default().max_embeddings_per_graph
}

fn corpus() -> Vec<LabeledGraph> {
    MoleculeGenerator::default().database(300, 20060403)
}

fn erased_corpus() -> Vec<LabeledGraph> {
    corpus().iter().map(LabeledGraph::erase_labels).collect()
}

/// The structure-mining configuration at a given embedding cap.
fn erased_config(cap: usize) -> GspanConfig {
    GspanConfig {
        min_support: 3,
        max_edges: 5,
        size_support_slope: 0.1,
        max_embeddings_per_graph: cap,
        ..GspanConfig::default()
    }
}

/// Labels split the structure classes into many patterns; a high
/// support floor keeps the table readable.
fn labeled_config() -> GspanConfig {
    GspanConfig { min_support: 100, max_edges: 5, ..GspanConfig::default() }
}

fn fingerprint(p: &MinedPattern) -> (Vec<u32>, usize, u64) {
    let mut h = FxHasher::default();
    p.supporting.iter().for_each(|g| h.write_u32(g.0));
    (p.code.to_sequence(), p.support, h.finish())
}

fn assert_pinned(name: &str, mined: &[MinedPattern], table: &[Row]) {
    assert_eq!(mined.len(), table.len(), "{name}: pattern count");
    for (i, (p, &(seq, support, hash))) in mined.iter().zip(table).enumerate() {
        assert_eq!(p.supporting.len(), p.support, "{name} row {i}: support is |supporting|");
        assert_eq!(fingerprint(p), (seq.to_vec(), support, hash), "{name} row {i}");
    }
}

#[test]
fn erased_default_cap_is_pinned() {
    let mined = mine(&erased_corpus(), &erased_config(default_cap()));
    assert_pinned("erased/default", &mined, ERASED_DEFAULT_CAP);
}

#[test]
fn erased_cap_4_is_pinned() {
    let mined = mine(&erased_corpus(), &erased_config(4));
    assert_pinned("erased/cap4", &mined, ERASED_CAP_4);
    // The cap bites: some descendant is undercounted against the
    // default-cap table (same code, smaller support).
    let undercounted = ERASED_CAP_4.iter().any(|&(seq, support, _)| {
        ERASED_DEFAULT_CAP.iter().any(|&(s, full, _)| s == seq && support < full)
    });
    assert!(undercounted, "cap 4 must change some support, or it pins nothing about row order");
}

#[test]
fn labeled_is_pinned() {
    assert_pinned("labeled", &mine(&corpus(), &labeled_config()), LABELED);
}

/// Every one-edge rightmost extension of `code` over a one-label
/// alphabet, worked out from the code alone: a backward edge from the
/// rightmost vertex to each rightmost-path vertex it is not yet joined
/// to, and a forward edge from each rightmost-path vertex to a new one.
fn rightmost_extensions(code: &DfsCode) -> Vec<DfsCode> {
    let label = code.root_label;
    let forward = |e: &&DfsEdge| e.from < e.to;
    let rightmost = code.edges.iter().filter(forward).map(|e| e.to).max().expect("an edge");
    let mut path = vec![rightmost];
    while let Some(e) = code.edges.iter().filter(forward).find(|e| e.to == path[path.len() - 1]) {
        path.push(e.from);
    }
    let joined = |a: u32, b: u32| {
        code.edges.iter().any(|e| (e.from, e.to) == (a, b) || (e.from, e.to) == (b, a))
    };
    let backward = path[1..].iter().filter(|&&v| !joined(rightmost, v)).map(|&v| (rightmost, v));
    let forward = path.iter().map(|&v| (v, code.vertex_count() as u32));
    backward
        .chain(forward)
        .map(|(from, to)| {
            let mut child = code.clone();
            child.edges.push(DfsEdge {
                from,
                to,
                from_label: label,
                edge_label: label,
                to_label: label,
            });
            child
        })
        .collect()
}

/// The set-up guard that is a count, not a clock: the miner tests each
/// *distinct candidate edge* for canonicality once and copies embedding
/// rows only for candidates that passed. Both counters are recounted
/// here from the mined patterns with the subgraph matcher, which shares
/// nothing with the miner's embedding lists — so a miner that tests per
/// embedding, or builds a child's list before deciding to discard it,
/// fails on any machine.
#[test]
fn stats_count_candidate_edges_and_admitted_rows_only() {
    let db = erased_corpus();
    // No cap: every embedding is listed, so a candidate edge of a
    // pattern is seen exactly when the extended graph occurs somewhere.
    let cfg = erased_config(0);
    let (mined, stats) = mine_with_stats(&db, &cfg);
    assert_pinned("erased/no cap", &mined, ERASED_DEFAULT_CAP);
    assert_eq!(stats.patterns, mined.len());

    let occurrences = |code: &DfsCode| -> usize {
        let graph = code.to_graph();
        db.iter().map(|g| SubgraphMatcher::new(&graph, g, IsoConfig::LABELED).count(None)).sum()
    };
    let support = |graph: &LabeledGraph| {
        db.iter().filter(|g| is_subgraph(graph, g, IsoConfig::LABELED)).count()
    };
    // Seeds are listed without a test; every other list is a candidate
    // that was seen, tested, and found canonical. A candidate of
    // `max_edges` edges is never extended and keeps one entry per
    // supporting graph instead of its embeddings.
    let mut tests = 0;
    let mut rows: usize =
        mined.iter().filter(|p| p.code.edge_count() == 1).map(|p| occurrences(&p.code)).sum();
    for p in mined.iter().filter(|p| p.code.edge_count() < cfg.max_edges) {
        for child in rightmost_extensions(&p.code) {
            let graph = child.to_graph();
            let support = support(&graph);
            if support == 0 {
                continue;
            }
            tests += 1;
            if child.is_min() {
                rows +=
                    if child.edge_count() < cfg.max_edges { occurrences(&child) } else { support };
            }
        }
    }
    assert_eq!(stats.canonical_tests, tests, "one test per distinct candidate edge");
    assert_eq!(stats.rows_copied, rows, "rows only for candidates that passed the test");
    assert!(stats.canonical_tests * 1000 < stats.rows_copied, "tests are per edge, not per row");

    // At the default cap the live rows stay under the recorded bound
    // (the parent commit kept every candidate's list of every level on
    // the recursion path alive at once).
    let capped = mine_with_stats(&db, &erased_config(default_cap())).1;
    assert!(capped.peak_live_rows <= PEAK_LIVE_ROWS_BOUND, "{capped:?}");
}

/// Prints the three tables as Rust source (see the module header).
#[test]
#[ignore = "recording tool, not a check"]
fn print_tables() {
    let erased = erased_corpus();
    for (name, mined) in [
        ("ERASED_DEFAULT_CAP", mine(&erased, &erased_config(default_cap()))),
        ("ERASED_CAP_4", mine(&erased, &erased_config(4))),
        ("LABELED", mine(&corpus(), &labeled_config())),
    ] {
        println!("#[rustfmt::skip]\nconst {name}: &[Row] = &[");
        for p in &mined {
            let (seq, support, hash) = fingerprint(p);
            println!("    (&{seq:?}, {support}, {hash:#018x}),");
        }
        println!("];\n");
    }
}

#[rustfmt::skip]
const ERASED_DEFAULT_CAP: &[Row] = &[
    (&[2, 1, 0, 0, 1, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[5, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 0, 0, 0, 0], 177, 0x3ab0f36577469cab),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 5, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 3, 5, 0, 0, 0], 299, 0x34d31a3846c5573b),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 2, 5, 0, 0, 0], 298, 0x0d73f7206943403c),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0], 299, 0x34d31a3846c5573b),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 2, 5, 0, 0, 0], 276, 0xf232021c4d221b57),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 1, 5, 0, 0, 0], 274, 0x1501f163b891e3e9),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0], 299, 0x34d31a3846c5573b),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0], 276, 0xf232021c4d221b57),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0, 1, 5, 0, 0, 0], 138, 0x9f506edcdeca549a),
];

#[rustfmt::skip]
const ERASED_CAP_4: &[Row] = &[
    (&[2, 1, 0, 0, 1, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0], 300, 0x0face0bb28648a89),
    (&[5, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 0, 0, 0, 0], 60, 0xf8d0ca330a440f1e),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 5, 0, 0, 0], 299, 0x2f2219cd8956fa6b),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 3, 5, 0, 0, 0], 242, 0x374b6d0b992586ea),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 2, 5, 0, 0, 0], 230, 0xc15f8b70d7f8a31e),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0], 264, 0x12ebe91901f8807b),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 2, 5, 0, 0, 0], 151, 0x28521c401f184b3c),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0, 1, 5, 0, 0, 0], 181, 0xe118f5f54ac8769b),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0], 276, 0xa3cd5ff9c2b2eaf2),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0], 168, 0xf349bc5c76f5b4f4),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0, 1, 4, 0, 0, 0, 1, 5, 0, 0, 0], 56, 0x3417e7a6c95bf0cb),
];

#[rustfmt::skip]
const LABELED: &[Row] = &[
    (&[2, 1, 0, 0, 1, 0, 0, 0], 298, 0xca58b2ad6a5e0c3c),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0], 278, 0x77352d603ee1f3a7),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0], 214, 0x9cc9a858d9d220ab),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0], 131, 0x89f73b55998b2d33),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 3, 0], 168, 0x619efc741597b621),
    (&[6, 5, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 3, 0, 4, 5, 0, 0, 0], 109, 0x5ca6a966d7c75331),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 0, 0], 101, 0xcb0fde6301e385a3),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 2, 4, 0, 3, 0], 127, 0xe5db735a41c846ac),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 1], 143, 0xe44a1118d842faec),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 2], 150, 0xb727034431a1bc9c),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 1, 0], 141, 0x5fbc120b606bf420),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 3, 0], 236, 0xc4d9638a2f506794),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 3, 0, 3, 4, 0, 0, 0], 154, 0x19aeab9e2d7d4467),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 3, 0, 3, 4, 0, 3, 0], 148, 0x48ca4100f20e32dd),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0], 113, 0xd17424a482683277),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 3, 0], 156, 0xd7cd72d5e8f446ed),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1], 196, 0x50bfe18d264b490e),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1, 2, 3, 1, 0, 0], 126, 0xe164e8af07ed3a5f),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1, 0, 3, 0, 3, 0], 102, 0xa768c029eb0879b8),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 2], 221, 0xb5b6a009e505e1f4),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 2, 2, 3, 2, 0, 0], 140, 0xa380a18bafd0aabb),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 2, 0, 3, 0, 3, 0], 101, 0x872187fe50d6147e),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 1, 0], 187, 0x39f5c59356febfa5),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0], 271, 0xffcecff1e5e878ce),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 0, 0], 166, 0x97f07f1bb7297a93),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 0, 0, 3, 4, 0, 3, 0], 112, 0xe5e57ac4a607e825),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 0, 2], 101, 0x3714eefd3c76b9c2),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 1, 0], 108, 0x7676c1bf1b575a86),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 3, 0], 196, 0xce0ee1976622aa8e),
    (&[5, 4, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 2, 3, 0, 3, 0, 0, 4, 0, 3, 0], 101, 0xafa0834ea48dcb18),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 1, 3, 0, 3, 0], 119, 0x2daf23ea40a0193f),
    (&[4, 3, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 0, 0, 3, 0, 3, 0], 144, 0x3160c321f1f8bcb2),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 1], 113, 0xfb26992e9b062480),
    (&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 3, 2], 140, 0xa2c1f3fc1cf6d995),
    (&[2, 1, 0, 0, 1, 0, 0, 1], 240, 0x3954a72d4060f56f),
    (&[3, 2, 0, 0, 1, 0, 0, 1, 1, 2, 1, 0, 0], 146, 0x3a1a0cff3f5a7573),
    (&[3, 2, 0, 0, 1, 0, 0, 1, 1, 2, 1, 3, 0], 115, 0x75741973d60582ab),
    (&[3, 2, 0, 0, 1, 0, 0, 1, 0, 2, 0, 3, 0], 142, 0xcf6fd9727ac4c5d4),
    (&[2, 1, 0, 0, 1, 0, 0, 2], 258, 0x6038ee8986798091),
    (&[3, 2, 0, 0, 1, 0, 0, 2, 1, 2, 2, 0, 0], 158, 0x44092fe034c83748),
    (&[3, 2, 0, 0, 1, 0, 0, 2, 1, 2, 2, 3, 0], 137, 0x95c8a2670f9bdab9),
    (&[3, 2, 0, 0, 1, 0, 0, 2, 0, 2, 0, 3, 0], 152, 0xe6b61b35554b6b46),
    (&[2, 1, 0, 0, 1, 0, 1, 0], 210, 0xaf1d061e0b8c5f28),
    (&[3, 2, 0, 0, 1, 0, 1, 0, 1, 2, 0, 3, 0], 141, 0x07f0cb71ebbb2532),
    (&[2, 1, 0, 0, 1, 0, 1, 2], 116, 0xc3a040931e24da4f),
    (&[2, 1, 0, 0, 1, 0, 3, 0], 280, 0xb2beb5e100880129),
    (&[3, 2, 0, 0, 1, 0, 3, 0, 1, 2, 0, 3, 0], 207, 0x60c10250b87cf257),
    (&[4, 3, 0, 0, 1, 0, 3, 0, 1, 2, 0, 3, 0, 2, 3, 0, 3, 0], 112, 0xc656e45642a1653e),
    (&[3, 2, 0, 0, 1, 0, 3, 0, 1, 2, 0, 3, 1], 105, 0xa85b62b7672a7864),
    (&[3, 2, 0, 0, 1, 0, 3, 0, 1, 2, 0, 3, 2], 116, 0x683bdae6ddb6d119),
    (&[2, 1, 0, 0, 1, 0, 3, 1], 166, 0x8f48d325f170f013),
    (&[2, 1, 0, 0, 1, 0, 3, 2], 202, 0x9801b4900c7cd543),
];
