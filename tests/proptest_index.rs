//! Property tests of the fragment index on arbitrary databases: range
//! queries must equal brute-force minimum superposition distances under
//! the mutation distance (edge-Hamming, both label kinds, vertex labels
//! alone, a non-metric matrix), trie hits must equal a definition brute over
//! the class's entries bit for bit, a linear-distance probe must hit
//! exactly the graphs containing its structure at distance 0, the
//! funnel's bitmap fold of a probe must hold the row's hits and weigh
//! them as the hit list does, whatever the list's order, and snapshots
//! must round-trip exactly under both distances.

mod common;

use common::{connected_graph, fragment_as_graph, graph_database, query_fragments, sigma};
use pis::core::selectivity::{selectivity, selectivity_of};
use pis::distance::oracle::min_superimposed_distance_brute;
use pis::graph::budget::BudgetState;
use pis::index::{
    decode_snapshot, encode_snapshot, row_hits, FragmentBuffer, FragmentIndex, FragmentVectorRef,
    IndexConfig, IndexDistance, RangeScratch,
};
use pis::mining::exhaustive::exhaustive_features;
use pis::mining::FeatureId;
use pis::prelude::*;
use proptest::prelude::*;

/// Fragment `i`'s hits through the search's range query, its probe
/// passed on exactly as the enumeration left it.
fn range_hits(
    index: &FragmentIndex,
    frags: &FragmentBuffer,
    i: usize,
    sigma: f64,
) -> Vec<(GraphId, f64)> {
    let mut hits = Vec::new();
    let (feature, probe) = (frags.feature(i), frags.vector(i));
    index.range_query_normalized_into(feature, probe, sigma, &mut RangeScratch::new(), &mut hits);
    hits
}

/// A hit list as `(graph, distance bits)`, for bit-exact comparison.
fn bits(hits: &[(GraphId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(g, d)| (g.0, d.to_bits())).collect()
}

/// The index over every structure of up to three edges in `db`.
fn build_index(db: &[LabeledGraph], distance: IndexDistance) -> FragmentIndex {
    let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
    FragmentIndex::build(db, exhaustive_features(&structures, 3), distance, &IndexConfig::default())
}

/// A legal mutation distance that is not a metric: the edge matrix
/// breaks the triangle inequality (c(0,1) = 10 > c(0,2) + c(2,1) = 2)
/// and vertex labels are ignored. An index that prunes by the triangle
/// inequality silently drops hits on it.
fn non_metric_distance() -> MutationDistance {
    let edges = ScoreMatrix::from_fn(3, 1.0, |a, b| match (a.0.min(b.0), a.0.max(b.0)) {
        (x, y) if x == y => 0.0,
        (0, 1) => 10.0,
        _ => 1.0,
    })
    .expect("symmetric, zero diagonal, non-negative");
    MutationDistance::new(ScoreMatrix::zero(3), edges)
}

/// A mutation distance that prices vertex labels and no edge label: its
/// vectors store the vertex slots alone.
fn vertex_only_distance() -> MutationDistance {
    MutationDistance::new(ScoreMatrix::unit(0), ScoreMatrix::zero(0))
}

/// A mutation distance whose costs are no binary fractions, so a sum of
/// them depends on the order it is taken in (edge-Hamming's 0/1 sums
/// are exact in any order and cannot tell).
fn fractional_distance() -> MutationDistance {
    let scores = |step: f64| {
        ScoreMatrix::from_fn(3, 0.9, |a, b| if a == b { 0.0 } else { step * (a.0 + b.0) as f64 })
            .expect("symmetric, zero diagonal, non-negative")
    };
    MutationDistance::new(scores(0.1), scores(0.3))
}

/// What a linear-distance class answers for any probe, from the
/// definition: every graph that contains the class structure, at
/// distance 0 (the class is its posting list); sorted by graph id.
fn linear_reference_hits(
    index: &FragmentIndex,
    db: &[LabeledGraph],
    feature: FeatureId,
) -> Vec<(GraphId, f64)> {
    let structure = &index.features().get(feature).structure;
    (0..db.len())
        .filter(|&g| {
            pis::graph::iso::is_subgraph(structure, &db[g], pis::graph::iso::IsoConfig::STRUCTURE)
        })
        .map(|g| (GraphId(g as u32), 0.0))
        .collect()
}

/// Holds every probe of `query` to `reference`, one row at a time
/// through one scratch: the probe's minima row read back as a list
/// ([`row_hits`]) equals the
/// reference hits to the f64 bit, and so does the list-returning
/// `range_query_normalized_into`; the funnel's bitmap fold of the same
/// probe (`range_query_hits`) leaves exactly the list's graphs as hit
/// bits, and its weight is `selectivity` of that list to the bit.
fn assert_rows_read_out_as_lists(
    index: &FragmentIndex,
    reference: impl Fn(FeatureId, FragmentVectorRef<'_>) -> Vec<(GraphId, f64)>,
    query: &LabeledGraph,
    sigma: f64,
    lambda: f64,
) -> Result<(), TestCaseError> {
    let n = index.graph_count();
    let frags = query_fragments(index, query);
    let mut scratch = RangeScratch::new();
    let (mut row, mut listed) = (Vec::new(), Vec::new());
    for k in 0..frags.len() {
        let (feature, probe) = (frags.feature(k), frags.vector(k));
        let at = format!("feature {feature} probe {k} sigma {sigma} lambda {lambda}");
        let completed = index.range_query_row(
            feature,
            probe,
            sigma,
            &mut scratch,
            BudgetState::unlimited(),
            &mut row,
        );
        prop_assert!(completed, "the unlimited budget never interrupts a range query");
        let graphs = index.class_graphs(feature);
        prop_assert_eq!(row.len(), graphs.len());
        let list: Vec<(GraphId, f64)> = row_hits(graphs, &row).collect();
        prop_assert_eq!(bits(&list), bits(&reference(feature, probe)), "row as a list, {}", at);
        index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut listed);
        prop_assert_eq!(bits(&listed), bits(&list), "range_query_normalized_into, {}", at);
        let cutoff = lambda * sigma;
        let tally = index
            .range_query_hits(feature, probe, sigma, cutoff, &mut scratch, BudgetState::unlimited())
            .expect("the unlimited budget never interrupts a range query");
        prop_assert_eq!(
            selectivity_of(&tally, n).to_bits(),
            selectivity(&list, n, sigma, lambda).to_bits(),
            "fold weight, {}",
            at
        );
        let hit_bits = scratch.hits();
        prop_assert_eq!(hit_bits.len(), graphs.len().div_ceil(64));
        let marked: Vec<GraphId> = (0..graphs.len())
            .filter(|&s| hit_bits[s / 64] >> (s % 64) & 1 == 1)
            .map(|s| graphs[s])
            .collect();
        prop_assert_eq!(
            marked,
            list.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
            "hit bits, {}",
            at
        );
    }
    Ok(())
}

/// Eq. (3) against the oracle: the range query returns exactly the graphs
/// whose brute-force minimum superposition distance from the fragment is
/// within `sigma` (complete), each with that distance (sound, 1e-9).
fn assert_range_queries_equal_brute_force(
    index: &FragmentIndex,
    db: &[LabeledGraph],
    query: &LabeledGraph,
    distance: &dyn SuperimposedDistance,
    sigma: f64,
) -> Result<(), TestCaseError> {
    let frags = query_fragments(index, query);
    for i in 0..frags.len() {
        let frag = fragment_as_graph(index, &frags, i);
        let hits = range_hits(index, &frags, i, sigma);
        for (gid, d) in &hits {
            let brute = min_superimposed_distance_brute(&frag, &db[gid.index()], distance)
                .expect("hits contain the structure");
            prop_assert!((d - brute).abs() < 1e-9, "distance {} vs brute {}", d, brute);
            prop_assert!(*d <= sigma);
        }
        for (gi, g) in db.iter().enumerate() {
            if let Some(brute) = min_superimposed_distance_brute(&frag, g, distance) {
                if brute <= sigma {
                    prop_assert!(
                        hits.iter().any(|(h, _)| h.index() == gi),
                        "graph {} at distance {} missing at sigma {}",
                        gi,
                        brute,
                        sigma
                    );
                }
            }
        }
    }
    Ok(())
}

/// Class `feature`'s entries from the definition: each graph's
/// distinct label vectors over all embeddings of the class structure,
/// each holding the slots the index stores, as `(graph, vector)` in
/// graph order.
fn class_entries(
    index: &FragmentIndex,
    db: &[LabeledGraph],
    feature: FeatureId,
) -> Vec<(GraphId, Vec<Label>)> {
    let feature = index.features().get(feature);
    let slots = index.distance().slots(&feature.structure);
    let mut entries = Vec::new();
    for (gid, g) in db.iter().enumerate() {
        let mut vectors = Vec::new();
        let matcher = pis::graph::iso::SubgraphMatcher::new(
            &feature.structure,
            g,
            pis::graph::iso::IsoConfig::STRUCTURE,
        );
        matcher.for_each(|emb| {
            let mut v = Vec::new();
            pis::index::fragment::label_vector_into(&feature.structure, g, emb, slots, &mut v);
            vectors.push(v);
            std::ops::ControlFlow::Continue(())
        });
        vectors.sort_unstable();
        vectors.dedup();
        entries.extend(vectors.into_iter().map(|v| (GraphId(gid as u32), v)));
    }
    entries
}

/// What a mutation-distance class with `entries` ([`class_entries`])
/// answers for `probe`, from the definition: per graph, the least
/// position-order sum of `position_cost` from the probe to any of its
/// vectors, whose first `edge_slots` slots are edge labels, kept when
/// within `sigma`; sorted by graph id.
fn entries_hits(
    entries: &[(GraphId, Vec<Label>)],
    md: &MutationDistance,
    edge_slots: usize,
    probe: &[Label],
    sigma: f64,
) -> Vec<(GraphId, f64)> {
    let mut hits: Vec<(GraphId, f64)> = Vec::new();
    for (g, v) in entries {
        let d = (0..probe.len())
            .fold(0.0, |acc, pos| acc + md.position_cost(pos, edge_slots, probe[pos], v[pos]));
        match hits.last_mut() {
            Some((last, best)) if last == g => *best = best.min(d),
            _ => hits.push((*g, d)),
        }
    }
    hits.retain(|&(_, d)| d <= sigma);
    hits
}

/// [`entries_hits`] of class `feature`, its entries read off `db`.
fn reference_hits(
    index: &FragmentIndex,
    db: &[LabeledGraph],
    md: &MutationDistance,
    feature: FeatureId,
    probe: &[Label],
    sigma: f64,
) -> Vec<(GraphId, f64)> {
    let (edge_slots, _) = index.distance().slots(&index.features().get(feature).structure);
    entries_hits(&class_entries(index, db, feature), md, edge_slots, probe, sigma)
}

/// Copies a graph with weights derived from its labels, so the linear
/// distance has something to measure (the strategies emit zero weights).
fn reweight(g: &LabeledGraph) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    for v in g.vertex_ids() {
        let attr = g.vertex(v);
        b.add_vertex(VertexAttr { label: attr.label, weight: attr.label.0 as f64 });
    }
    for e in g.edges() {
        let weight = 1.0 + e.attr.label.0 as f64 * 0.5;
        b.add_edge(e.source, e.target, EdgeAttr { label: e.attr.label, weight })
            .expect("copying a simple graph");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Eq. (3) under the mutation distance: the index range query
    /// returns exactly the graphs within sigma, each with its exact
    /// minimum superposition distance — for the paper's edge-Hamming
    /// setting (edge slots alone), the unit distance (both kinds), a score
    /// matrix that is no metric, and vertex labels alone (vertex slots
    /// alone).
    #[test]
    fn range_query_equals_brute_force(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 2, 3),
        sigma in sigma(),
        which in 0u8..4,
    ) {
        let md = match which {
            0 => MutationDistance::edge_hamming(),
            1 => MutationDistance::unit(),
            2 => non_metric_distance(),
            _ => vertex_only_distance(),
        };
        let index = build_index(&db, IndexDistance::Mutation(md.clone()));
        assert_range_queries_equal_brute_force(&index, &db, &query, &md, sigma)?;
    }

    /// A snapshot round-trips arbitrary indexes exactly, under both
    /// distances — the mutation distance storing edge slots alone and
    /// vertex slots alone: re-encoding what was decoded reproduces the
    /// bytes, and the decoded index answers range queries with the same
    /// graphs and the same f64 bits.
    #[test]
    fn persist_round_trip(
        db in graph_database(5, 5, 3),
        query in connected_graph(4, 1, 3),
    ) {
        let db: Vec<LabeledGraph> = db.iter().map(reweight).collect();
        let query = reweight(&query);
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        for distance in [
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            IndexDistance::Mutation(vertex_only_distance()),
            IndexDistance::Linear(LinearDistance::edges_only()),
        ] {
            let index = FragmentIndex::build(
                &db,
                features.clone(),
                distance.clone(),
                &IndexConfig::default(),
            );
            let bytes = encode_snapshot(&index, &db).expect("snapshot encodes");
            let (loaded, loaded_db) = decode_snapshot(&bytes).expect("round trip");
            let again = encode_snapshot(&loaded, &loaded_db).expect("snapshot re-encodes");
            // (Not `prop_assert_eq`: a failure would print both files.)
            prop_assert!(again == bytes, "{:?}: snapshot is not a fixed point", distance);
            prop_assert_eq!(loaded.graph_count(), index.graph_count());
            prop_assert_eq!(loaded.total_entries(), index.total_entries());
            let frags = query_fragments(&index, &query);
            for i in 0..frags.len() {
                for sigma in [0.0, 1.0, 2.5] {
                    prop_assert_eq!(
                        bits(&range_hits(&index, &frags, i, sigma)),
                        bits(&range_hits(&loaded, &frags, i, sigma)),
                        "{:?} sigma {}", distance, sigma
                    );
                }
            }
        }
    }

    /// The trie arena answers range queries **byte-identically** to the
    /// definition brute over the class: same graphs, same f64 distances
    /// (the frontier descent adds the per-position costs in position
    /// order), across sigmas, position-dependent costs (unit distance
    /// scores vertex slots too) and duplicate `(sequence, graph)`
    /// storage.
    #[test]
    fn flat_trie_byte_identical_to_pointer_reference(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 2, 3),
        sigma in sigma(),
        unit in prop::sample::select(vec![false, true]),
    ) {
        let md = if unit { MutationDistance::unit() } else { MutationDistance::edge_hamming() };
        let index = build_index(&db, IndexDistance::Mutation(md.clone()));
        let frags = query_fragments(&index, &query);
        for i in 0..frags.len() {
            let probe = frags.vector(i).labels();
            let expected = reference_hits(&index, &db, &md, frags.feature(i), probe, sigma);
            let hits = range_hits(&index, &frags, i, sigma);
            // Byte-identical: exact f64 equality, not tolerance.
            prop_assert_eq!(hits, expected, "sigma {}", sigma);
        }
    }

    /// The batch entry answers every sibling group — duplicate probes
    /// included — **byte-identically** (f64 bits, not tolerance) to
    /// the definition brute, probe by probe, and so does each probe
    /// alone, across both the edge-Hamming setting (whole-vertex zero
    /// suffix) and the unit distance (no zero suffix), and across
    /// sigmas spanning the zero-suffix short-circuit.
    #[test]
    fn batched_range_queries_byte_identical_to_per_probe(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 2, 3),
        sigma in sigma(),
        unit in prop::sample::select(vec![false, true]),
    ) {
        let md = if unit { MutationDistance::unit() } else { MutationDistance::edge_hamming() };
        let index = build_index(&db, IndexDistance::Mutation(md.clone()));
        let frags = query_fragments(&index, &query);
        let mut scratch = RangeScratch::new();
        let features: Vec<FeatureId> = (0..frags.len()).map(|i| frags.feature(i)).collect();
        let mut i = 0;
        for run in features.chunk_by(|a, b| a == b) {
            let (feature, j) = (run[0], i + run.len());
            // Repeat the group's first probes so the batch answers
            // duplicates through the same scratch.
            let mut probe_of: Vec<usize> = (i..j).collect();
            probe_of.extend(i..j.min(i + 2));
            let mut outs: Vec<Vec<(GraphId, f64)>> = vec![Vec::new(); probe_of.len()];
            index.range_query_batch_normalized_into(
                feature,
                probe_of.len(),
                |k| frags.vector(probe_of[k]),
                sigma,
                &mut scratch,
                &mut outs,
            );
            for (k, out) in outs.iter().enumerate() {
                let probe = frags.vector(probe_of[k]);
                let want = bits(&reference_hits(&index, &db, &md, feature, probe.labels(), sigma));
                prop_assert_eq!(
                    bits(out), want.clone(), "feature {} probe {} sigma {}", feature, k, sigma
                );
                let mut alone = Vec::new();
                index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut alone);
                prop_assert_eq!(
                    bits(&alone), want, "feature {} probe {} alone sigma {}", feature, k, sigma
                );
            }
            i = j;
        }
    }

    /// The batch entry point of a linear-distance index answers each
    /// probe bit-for-bit as it answers it alone.
    #[test]
    fn batched_linear_range_queries_equal_per_probe(
        db in graph_database(5, 5, 3),
        query in connected_graph(4, 1, 3),
        sigma in 0.0f64..2.0,
    ) {
        let db: Vec<LabeledGraph> = db.iter().map(reweight).collect();
        let query = reweight(&query);
        let index = build_index(&db, IndexDistance::Linear(LinearDistance::edges_only()));
        let frags = query_fragments(&index, &query);
        let mut scratch = RangeScratch::new();
        let features: Vec<FeatureId> = (0..frags.len()).map(|i| frags.feature(i)).collect();
        let mut i = 0;
        for run in features.chunk_by(|a, b| a == b) {
            let (feature, j) = (run[0], i + run.len());
            let mut outs: Vec<Vec<(GraphId, f64)>> = vec![Vec::new(); j - i];
            index.range_query_batch_normalized_into(
                feature,
                j - i,
                |k| frags.vector(i + k),
                sigma,
                &mut scratch,
                &mut outs,
            );
            for (k, out) in outs.iter().enumerate() {
                let mut expected = Vec::new();
                let probe = frags.vector(i + k);
                index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut expected);
                prop_assert_eq!(bits(out), bits(&expected));
            }
            i = j;
        }
    }

    /// Fold ≡ list. The funnel never builds a hit list nor, outside the
    /// partition, a row: each probe's emissions fold into hit bits and a
    /// tally, for the hit set and the selectivity together. Under both
    /// distance families — edge-Hamming, a fractional score matrix
    /// (whose sums are order-sensitive) and the linear distance — on a
    /// bulk-built index and on one that holds the last graphs in its
    /// pending buffers, every probe's row is held to the definition
    /// over the whole database (the label brute; structural containment
    /// at 0 for a linear class), its hit bits to the row's graphs and its
    /// weight to `selectivity` of the row's list.
    #[test]
    fn row_read_out_equals_hit_list(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 2, 3),
        sigma in sigma(),
        lambda in prop::sample::select(vec![0.5, 1.0, 2.0]),
        which in 0u8..3,
        frozen in 1usize..6,
    ) {
        let md = if which == 0 { MutationDistance::edge_hamming() } else { fractional_distance() };
        let linear = which == 2;
        let (db, query) = if linear {
            (db.iter().map(reweight).collect(), reweight(&query))
        } else {
            (db, query)
        };
        let distance = if linear {
            IndexDistance::Linear(LinearDistance::edges_only())
        } else {
            IndexDistance::Mutation(md.clone())
        };
        let bulk = build_index(&db, distance.clone());
        // The same database with its tail inserted after the build: it
        // stays pending unless a class reaches the merge threshold.
        let frozen = frozen.min(db.len());
        let mut buffered = FragmentIndex::build(
            &db[..frozen],
            bulk.features().clone(),
            distance,
            &IndexConfig::default(),
        );
        buffered.insert_graphs_pending(&db[frozen..]);
        for index in [&bulk, &buffered] {
            let reference = |feature: FeatureId, probe: FragmentVectorRef<'_>| {
                if linear {
                    linear_reference_hits(index, &db, feature)
                } else {
                    reference_hits(index, &db, &md, feature, probe.labels(), sigma)
                }
            };
            assert_rows_read_out_as_lists(index, reference, &query, sigma, lambda)?;
        }
    }

    /// Definition 5 does not depend on the order of the hits: a hit list
    /// and any permutation of it weigh the same to the f64 bit, under
    /// edge-Hamming, the fractional score matrix (where a left-to-right
    /// sum rounds differently per order) and the linear distance.
    #[test]
    fn selectivity_ignores_hit_order(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 2, 3),
        sigma in sigma(),
        lambda in prop::sample::select(vec![0.5, 1.0, 2.0]),
        which in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let (db, query, distance) = match which {
            0 => (db, query, IndexDistance::Mutation(MutationDistance::edge_hamming())),
            1 => (db, query, IndexDistance::Mutation(fractional_distance())),
            _ => (
                db.iter().map(reweight).collect(),
                reweight(&query),
                IndexDistance::Linear(LinearDistance::edges_only()),
            ),
        };
        let index = build_index(&db, distance);
        let frags = query_fragments(&index, &query);
        let mut x = seed;
        for k in 0..frags.len() {
            let list = range_hits(&index, &frags, k, sigma);
            let mut shuffled = list.clone();
            // Fisher–Yates under a seeded LCG.
            for i in (1..shuffled.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (x >> 33) as usize % (i + 1));
            }
            let n = index.graph_count();
            prop_assert_eq!(
                selectivity(&shuffled, n, sigma, lambda).to_bits(),
                selectivity(&list, n, sigma, lambda).to_bits(),
                "probe {} of {} hits, sigma {} lambda {}",
                k,
                list.len(),
                sigma,
                lambda
            );
        }
    }

    /// Incremental insertion matches bulk construction on arbitrary
    /// splits, under both distances: compacted, the index encodes to the
    /// bulk build's bytes and answers every probe to the f64 bit.
    #[test]
    fn incremental_matches_bulk(
        db in graph_database(6, 5, 3),
        query in connected_graph(4, 1, 3),
        split in 1usize..5,
    ) {
        let split = split.min(db.len());
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let weighted: Vec<LabeledGraph> = db.iter().map(reweight).collect();
        for (db, query, distance) in [
            (&db, query.clone(), IndexDistance::Mutation(MutationDistance::edge_hamming())),
            (&weighted, reweight(&query), IndexDistance::Linear(LinearDistance::edges_only())),
        ] {
            let mut incremental = FragmentIndex::build(
                &db[..split],
                features.clone(),
                distance.clone(),
                &IndexConfig::default(),
            );
            for g in &db[split..] {
                incremental.insert_graph_pending(g);
            }
            incremental.compact();
            let bulk = FragmentIndex::build(db, features.clone(), distance, &IndexConfig::default());
            prop_assert_eq!(incremental.total_entries(), bulk.total_entries());
            // (Not `prop_assert_eq`: a failure would print both files.)
            prop_assert!(
                encode_snapshot(&incremental, db).expect("snapshot encodes")
                    == encode_snapshot(&bulk, db).expect("snapshot encodes"),
                "compacted incremental index differs from the bulk build"
            );
            let frags = query_fragments(&bulk, &query);
            for i in 0..frags.len() {
                for sigma in [0.0, 1.0, 3.0] {
                    prop_assert_eq!(
                        bits(&range_hits(&incremental, &frags, i, sigma)),
                        bits(&range_hits(&bulk, &frags, i, sigma)),
                        "sigma {}", sigma
                    );
                }
            }
        }
    }
}

proptest! {
    // Each case builds an index over hundreds of molecules.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Rows over molecule classes of 100–600 graphs equal the definition
    /// to the f64 bit. The arbitrary databases above hold 1–6 graphs, in
    /// which every trie leaf is dense; here leaves fall on both sides of
    /// the bitmap rule, so the range query folds word by word and
    /// posting by posting (the `pis-index` unit tests check both kinds
    /// occur). The last graphs — molecules, then two small fragments of
    /// them — are inserted one by one after the build, so pending tries
    /// fold beside frozen ones, and the fractional score matrix gives
    /// many distinct cost levels to order the fold by.
    #[test]
    fn molecule_rows_equal_the_definition(
        n in 100usize..=600,
        seed in 0u64..1_000,
        pending in 2usize..12,
        sigma in prop::sample::select(vec![0.0, 0.9, 1.0, 1.7, 2.0, 3.5]),
        fractional in prop::sample::select(vec![false, true]),
    ) {
        let mut db = MoleculeGenerator::new(MoleculeConfig::default()).database(n, seed);
        let query = pis::datasets::sample_query_set(&db, 8, 1, seed).remove(0);
        // Small graphs last: a molecule can take every class past the
        // merge threshold under the fractional distance, these cannot.
        db.extend(pis::datasets::sample_query_set(&db, 3, 2, seed));
        let n = db.len();
        let md = if fractional { fractional_distance() } else { MutationDistance::edge_hamming() };
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let mut index = FragmentIndex::build(
            &db[..n - pending],
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(md.clone()),
            &IndexConfig::default(),
        );
        for g in &db[n - pending..] {
            index.insert_graph_pending(g);
        }
        prop_assert!(index.pending_entries() > 0);
        let entries: Vec<_> =
            index.features().iter().map(|f| class_entries(&index, &db, f.id)).collect();
        let reference = |feature: FeatureId, probe: FragmentVectorRef<'_>| {
            let (edge_slots, _) = index.distance().slots(&index.features().get(feature).structure);
            entries_hits(&entries[feature.index()], &md, edge_slots, probe.labels(), sigma)
        };
        assert_rows_read_out_as_lists(&index, reference, &query, sigma, 1.0)?;
    }
}
