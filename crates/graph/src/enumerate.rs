//! Connected-subgraph enumeration.
//!
//! Enumerates every connected edge-subgraph of a graph with at most
//! `max_edges` edges, each exactly once. This powers the exhaustive
//! feature source (index "all fragments up to size L", as in the paper's
//! Example 4 where all edges are indexed) and serves as a test oracle for
//! the pattern-growth miner.
//!
//! The algorithm is the classic fix-the-minimum-edge scheme: a subgraph
//! is generated from its minimum-id edge only, and candidates are
//! processed with include/exclude branching so each edge set appears
//! exactly once. The enumeration is exponential in `max_edges` — callers
//! keep the cap small (the paper indexes fragments of 4–6 edges).

use crate::graph::LabeledGraph;
use crate::ids::EdgeId;

/// Calls `f` on every connected edge-subgraph of `g` with between 1 and
/// `max_edges` edges. The slice passed to `f` holds distinct edge ids;
/// the first element is the subgraph's minimum edge id.
pub fn connected_edge_subgraphs(g: &LabeledGraph, max_edges: usize, mut f: impl FnMut(&[EdgeId])) {
    if max_edges == 0 || g.edge_count() == 0 {
        return;
    }
    let m = g.edge_count();
    // Adjacency between edges: two edges are adjacent iff they share an
    // endpoint. Molecule degrees are tiny, so build it directly.
    let mut edge_adj: Vec<Vec<EdgeId>> = vec![Vec::new(); m];
    for v in g.vertex_ids() {
        let inc = g.neighbors(v);
        for i in 0..inc.len() {
            for j in (i + 1)..inc.len() {
                let (a, b) = (inc[i].1, inc[j].1);
                edge_adj[a.index()].push(b);
                edge_adj[b.index()].push(a);
            }
        }
    }
    for adj in &mut edge_adj {
        adj.sort_unstable();
        adj.dedup();
    }

    let mut sub: Vec<EdgeId> = Vec::with_capacity(max_edges);
    let mut in_sub = vec![false; m];
    let mut banned = vec![false; m];
    for start in 0..m as u32 {
        let start = EdgeId(start);
        sub.push(start);
        in_sub[start.index()] = true;
        f(&sub);
        // Candidates: edges adjacent to the current subgraph with id
        // greater than the start edge.
        let mut ext: Vec<EdgeId> =
            edge_adj[start.index()].iter().copied().filter(|e| *e > start).collect();
        grow(&edge_adj, max_edges, &mut sub, &mut in_sub, &mut banned, &mut ext, start, &mut f);
        in_sub[start.index()] = false;
        sub.pop();
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "recursion over the enumeration state split into separate borrows"
)]
fn grow(
    edge_adj: &[Vec<EdgeId>],
    max_edges: usize,
    sub: &mut Vec<EdgeId>,
    in_sub: &mut [bool],
    banned: &mut [bool],
    ext: &mut Vec<EdgeId>,
    start: EdgeId,
    f: &mut impl FnMut(&[EdgeId]),
) {
    if sub.len() == max_edges {
        return;
    }
    // Include/exclude over the candidate list: pop one candidate; the
    // "include" branch extends the subgraph with it, the "exclude" branch
    // bans it so no later subtree regenerates the same edge set.
    let Some(c) = ext.iter().position(|e| !banned[e.index()] && !in_sub[e.index()]) else {
        return;
    };
    let c = ext.swap_remove(c);

    // Include branch.
    sub.push(c);
    in_sub[c.index()] = true;
    f(sub);
    let mut added: Vec<EdgeId> = Vec::new();
    for &n in &edge_adj[c.index()] {
        if n > start && !in_sub[n.index()] && !banned[n.index()] && !ext.contains(&n) {
            ext.push(n);
            added.push(n);
        }
    }
    grow(edge_adj, max_edges, sub, in_sub, banned, ext, start, f);
    for n in added {
        let pos = ext.iter().position(|e| *e == n).expect("added candidates remain");
        ext.swap_remove(pos);
    }
    in_sub[c.index()] = false;
    sub.pop();

    // Exclude branch.
    banned[c.index()] = true;
    grow(edge_adj, max_edges, sub, in_sub, banned, ext, start, f);
    banned[c.index()] = false;
    ext.push(c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{complete_graph, cycle_graph, path_graph, star_graph};
    use crate::ids::Label;
    use std::collections::BTreeSet;

    fn l0() -> Label {
        Label(0)
    }

    fn collect(g: &LabeledGraph, max: usize) -> Vec<BTreeSet<EdgeId>> {
        let mut out = Vec::new();
        connected_edge_subgraphs(g, max, |edges| {
            out.push(edges.iter().copied().collect::<BTreeSet<_>>());
        });
        out
    }

    #[test]
    fn no_duplicates() {
        for g in [
            path_graph(6, l0(), l0()),
            cycle_graph(6, l0(), l0()),
            complete_graph(4, l0(), l0()),
            star_graph(5, l0(), l0()),
        ] {
            let all = collect(&g, 4);
            let dedup: BTreeSet<_> = all.iter().cloned().collect();
            assert_eq!(all.len(), dedup.len(), "duplicate subgraph emitted");
        }
    }

    #[test]
    fn subgraphs_are_connected() {
        let g = cycle_graph(6, l0(), l0());
        connected_edge_subgraphs(&g, 4, |edges| {
            let (sub, _) = g.edge_subgraph(edges);
            assert!(sub.is_connected());
        });
    }

    #[test]
    fn path_counts() {
        // A path with m edges has m - k + 1 connected subgraphs of k
        // edges (contiguous windows).
        let g = path_graph(6, l0(), l0()); // 5 edges
        let mut by_size = [0usize; 6];
        connected_edge_subgraphs(&g, 5, |edges| by_size[edges.len()] += 1);
        assert_eq!(&by_size[1..=5], &[5, 4, 3, 2, 1]);
    }

    #[test]
    fn cycle_counts() {
        // An n-cycle has n contiguous k-edge arcs for k < n and one full
        // cycle.
        let g = cycle_graph(5, l0(), l0());
        let mut by_size = [0usize; 6];
        connected_edge_subgraphs(&g, 5, |edges| by_size[edges.len()] += 1);
        assert_eq!(&by_size[1..=5], &[5, 5, 5, 5, 1]);
    }

    #[test]
    fn triangle_full_enumeration() {
        // K3: 3 single edges, 3 two-edge paths, 1 triangle.
        let g = complete_graph(3, l0(), l0());
        assert_eq!(collect(&g, 3).len(), 7);
    }

    #[test]
    fn max_edges_caps_size() {
        let g = complete_graph(4, l0(), l0());
        connected_edge_subgraphs(&g, 2, |edges| assert!(edges.len() <= 2));
    }

    #[test]
    fn zero_cap_or_empty_graph_yields_nothing() {
        let g = path_graph(3, l0(), l0());
        assert!(collect(&g, 0).is_empty());
        assert!(collect(&LabeledGraph::default(), 4).is_empty());
    }

    #[test]
    fn first_element_is_minimum_edge() {
        let g = complete_graph(4, l0(), l0());
        connected_edge_subgraphs(&g, 3, |edges| {
            let min = edges.iter().min().unwrap();
            assert_eq!(edges[0], *min);
        });
    }
}
