//! Property tests of the graph substrate: canonical-form soundness and
//! matcher correctness on random small graphs.

mod common;

use common::connected_graph;
use pis::distance::oracle::embeddings_brute;
use pis::graph::canonical::{min_dfs_code, naive_canonical};
use pis::graph::iso::{embeddings, IsoConfig};
use pis::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Applies a vertex permutation to a graph.
fn permute(g: &LabeledGraph, perm: &[usize]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let mut placed = vec![VertexId(0); g.vertex_count()];
    // perm[i] = new position of old vertex i; insert in new order.
    let mut order: Vec<usize> = (0..g.vertex_count()).collect();
    order.sort_by_key(|&i| perm[i]);
    for &old in &order {
        placed[old] = b.add_vertex(g.vertex(VertexId(old as u32)));
    }
    for e in g.edges() {
        b.add_edge(placed[e.source.index()], placed[e.target.index()], e.attr)
            .expect("permutation preserves simplicity");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The minimum DFS code is invariant under vertex relabeling.
    #[test]
    fn canonical_code_is_permutation_invariant(
        g in connected_graph(7, 3, 3),
        seed in 0u64..1000,
    ) {
        let n = g.vertex_count();
        // A deterministic pseudo-random permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
        for i in (1..n).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            perm.swap(i, (s as usize) % (i + 1));
        }
        let h = permute(&g, &perm);
        let cg = min_dfs_code(&g).expect("connected").code;
        let ch = min_dfs_code(&h).expect("connected").code;
        prop_assert_eq!(cg, ch);
    }

    /// DFS-code equality coincides with the factorial canonical oracle.
    #[test]
    fn dfs_code_agrees_with_naive_canonical(
        a in connected_graph(6, 2, 2),
        b in connected_graph(6, 2, 2),
    ) {
        let code_eq = min_dfs_code(&a).expect("connected").code
            == min_dfs_code(&b).expect("connected").code;
        let naive_eq = naive_canonical(&a) == naive_canonical(&b);
        prop_assert_eq!(code_eq, naive_eq);
    }

    /// Reconstructing the canonical representative is a fixpoint.
    #[test]
    fn canonical_reconstruction_is_fixpoint(g in connected_graph(7, 3, 3)) {
        let canon = min_dfs_code(&g).expect("connected");
        let rebuilt = canon.code.to_graph();
        let again = min_dfs_code(&rebuilt).expect("connected");
        prop_assert_eq!(&canon.code, &again.code);
        // The rebuilt graph realizes its own code with identity order.
        for (i, v) in again.vertex_order.iter().enumerate() {
            prop_assert_eq!(v.index(), i);
        }
    }

    /// Every embedding returned by the matcher is a valid monomorphism.
    #[test]
    fn embeddings_are_monomorphisms(
        pattern in connected_graph(4, 1, 2),
        target in connected_graph(7, 3, 2),
    ) {
        for emb in embeddings(&pattern, &target, IsoConfig::STRUCTURE) {
            // Injective.
            let mut image: Vec<_> = emb.vertex_map().to_vec();
            image.sort_unstable();
            let before = image.len();
            image.dedup();
            prop_assert_eq!(image.len(), before, "mapping must be injective");
            // Edge-preserving.
            for e in pattern.edges() {
                let (u, v) = (emb.vertex_image(e.source), emb.vertex_image(e.target));
                prop_assert!(target.has_edge(u, v), "edge not preserved");
            }
        }
    }

    /// Labeled matching is a subset of structural matching.
    #[test]
    fn labeled_embeddings_subset_of_structural(
        pattern in connected_graph(4, 1, 2),
        target in connected_graph(6, 2, 2),
    ) {
        let labeled = embeddings(&pattern, &target, IsoConfig::LABELED);
        let structural = embeddings(&pattern, &target, IsoConfig::STRUCTURE);
        prop_assert!(labeled.len() <= structural.len());
        for e in &labeled {
            prop_assert!(structural.contains(e));
        }
    }

    /// A graph always embeds into itself (identity included).
    #[test]
    fn self_embedding_exists(g in connected_graph(6, 2, 3)) {
        let autos = pis::graph::iso::automorphisms(&g);
        prop_assert!(!autos.is_empty());
        let identity: Vec<VertexId> = g.vertex_ids().collect();
        prop_assert!(autos.iter().any(|a| a.vertex_map() == identity.as_slice()));
    }

    /// Structural embedding count of a pattern into a target equals
    /// (number of distinct label-erased subgraph sites) × |Aut(pattern)|
    /// is hard to state generally, but counts must at least be a
    /// multiple of the pattern's automorphism count.
    #[test]
    fn embedding_count_is_multiple_of_automorphisms(
        pattern in connected_graph(4, 1, 1),
        target in connected_graph(7, 2, 1),
    ) {
        let bare_pattern = pattern.erase_labels();
        let bare_target = target.erase_labels();
        let autos = pis::graph::iso::automorphisms(&bare_pattern).len();
        let embs = embeddings(&bare_pattern, &bare_target, IsoConfig::STRUCTURE).len();
        prop_assert!(autos > 0);
        prop_assert_eq!(embs % autos, 0, "embeddings {} autos {}", embs, autos);
    }

    /// Text serialization round-trips arbitrary graphs.
    #[test]
    fn io_round_trip(g in connected_graph(7, 3, 4)) {
        use pis::graph::io::{parse_database, write_database};
        let db = vec![g];
        let parsed = parse_database(&write_database(&db)).expect("round trip parses");
        prop_assert_eq!(parsed, db);
    }

    /// The matcher agrees with a brute-force permutation oracle on
    /// tiny instances: `pattern ⊆ target` iff some injective vertex map
    /// preserves all pattern edges.
    #[test]
    fn matcher_agrees_with_permutation_oracle(
        pattern in connected_graph(4, 2, 1),
        target in connected_graph(5, 3, 1),
    ) {
        fn oracle(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
            let np = pattern.vertex_count();
            let nt = target.vertex_count();
            if np > nt {
                return false;
            }
            // Enumerate all injective maps via permutations of target
            // vertices taken np at a time.
            fn rec(
                pattern: &LabeledGraph,
                target: &LabeledGraph,
                map: &mut Vec<VertexId>,
                used: &mut Vec<bool>,
            ) -> bool {
                let p = map.len();
                if p == pattern.vertex_count() {
                    return true;
                }
                for t in 0..target.vertex_count() {
                    if used[t] {
                        continue;
                    }
                    // Check edges from p to already-mapped vertices.
                    let ok = pattern.neighbors(VertexId(p as u32)).iter().all(|&(q, _)| {
                        q.index() >= map.len()
                            || target.has_edge(map[q.index()], VertexId(t as u32))
                    });
                    if !ok {
                        continue;
                    }
                    map.push(VertexId(t as u32));
                    used[t] = true;
                    if rec(pattern, target, map, used) {
                        return true;
                    }
                    used[t] = false;
                    map.pop();
                }
                false
            }
            rec(pattern, target, &mut Vec::new(), &mut vec![false; nt])
        }
        let fast = pis::graph::iso::is_subgraph(&pattern, &target, IsoConfig::STRUCTURE);
        prop_assert_eq!(fast, oracle(&pattern, &target));
    }

    /// Subgraph enumeration yields connected, distinct edge sets.
    #[test]
    fn enumeration_yields_connected_distinct(g in connected_graph(6, 3, 1)) {
        use pis::graph::enumerate::connected_edge_subgraphs;
        let mut seen = std::collections::BTreeSet::new();
        connected_edge_subgraphs(&g, 3, |edges| {
            let key: Vec<u32> = {
                let mut k: Vec<u32> = edges.iter().map(|e| e.0).collect();
                k.sort_unstable();
                k
            };
            assert!(seen.insert(key), "duplicate subgraph");
            let (sub, _) = g.edge_subgraph(edges);
            assert!(sub.is_connected());
        });
        prop_assert!(!seen.is_empty());
    }
}

/// A random connected graph on `n` vertices: a random spanning tree plus
/// `extra` chords (ring closures), two vertex and two edge labels.
fn sparse_graph(rng: &mut StdRng, n: usize, extra: usize) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> =
        (0..n).map(|_| b.add_vertex(VertexAttr::labeled(Label(rng.random_range(0..2))))).collect();
    for i in 1..n {
        let parent = rng.random_range(0..i);
        b.add_edge(vs[parent], vs[i], EdgeAttr::labeled(Label(rng.random_range(0..2))))
            .expect("tree edges are fresh");
    }
    for _ in 0..extra {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v {
            // A chord that repeats an edge is rejected; skip it.
            let _ = b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label(rng.random_range(0..2))));
        }
    }
    b.build()
}

/// A connected `k`-vertex piece of `g` grown from a random vertex (every
/// edge of `g` among the chosen vertices, labels kept), so the pattern
/// embeds at least once under either config.
fn connected_piece(rng: &mut StdRng, g: &LabeledGraph, k: usize) -> LabeledGraph {
    let mut chosen = vec![VertexId(rng.random_range(0..g.vertex_count() as u32))];
    while chosen.len() < k {
        let from = chosen[rng.random_range(0..chosen.len())];
        let (next, _) = g.neighbors(from)[rng.random_range(0..g.degree(from))];
        if !chosen.contains(&next) {
            chosen.push(next);
        }
    }
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = chosen.iter().map(|&v| b.add_vertex(g.vertex(v))).collect();
    for (i, &u) in chosen.iter().enumerate() {
        for (j, &v) in chosen.iter().enumerate().skip(i + 1) {
            if let Some(e) = g.edge_between(u, v) {
                b.add_edge(vs[i], vs[j], g.edge(e).attr).expect("distinct endpoints");
            }
        }
    }
    b.build()
}

/// The matcher enumerates exactly the definition-level oracle's
/// embeddings, as a multiset, at every row width: sparse targets of
/// 40–200 vertices (one, two and four words per adjacency row),
/// connected patterns of 3–6 vertices (half cut from the target, half
/// drawn at random), under both label configs.
#[test]
fn matcher_enumerates_the_oracle_embeddings_at_every_row_width() {
    const CASES: usize = 48;
    let mut rng = StdRng::seed_from_u64(0x1507);
    let mut widths = [0usize; 3];
    let mut with_embeddings = 0;
    for case in 0..CASES {
        let n: usize = rng.random_range(40..=200);
        widths[((n - 1) / 64).min(2)] += 1;
        let target = sparse_graph(&mut rng, n, n / 10);
        let k = rng.random_range(3..=6);
        let pattern = if case % 2 == 0 {
            connected_piece(&mut rng, &target, k)
        } else {
            sparse_graph(&mut rng, k, 1)
        };
        for config in [IsoConfig::STRUCTURE, IsoConfig::LABELED] {
            let mut got: Vec<Vec<VertexId>> = embeddings(&pattern, &target, config)
                .iter()
                .map(|e| e.vertex_map().to_vec())
                .collect();
            let mut want = embeddings_brute(&pattern, &target, config);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}: {k}-vertex pattern into {n} vertices, {config:?}");
            with_embeddings += usize::from(!want.is_empty());
        }
    }
    assert!(widths.iter().all(|&w| w > 0), "every row width exercised: {widths:?}");
    assert!(with_embeddings >= CASES, "too few cases with embeddings: {with_embeddings}");
}
