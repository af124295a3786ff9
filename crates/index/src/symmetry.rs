//! The symmetry of a feature structure: one embedding per occurrence.
//!
//! An occurrence of a feature `f` in a graph `G` — a vertex set and an
//! edge set of `G` — is reached by `|Aut(f)|` embeddings, `φ ∘ α` for
//! every automorphism `α` of `f`'s structure. Enumerating all of them
//! and throwing the repeats away costs `|Aut(f)|` matcher leaves, label
//! reads and hashes per occurrence. Instead, the Grochow–Kellis
//! symmetry-breaking conditions (RECOMB 2007) — a handful of
//! `map(a) < map(b)` comparisons of target vertex ids — admit exactly
//! one embedding of each occurrence, and the other readings of the
//! occurrence follow from the admitted one by permuting its vector's
//! slots.
//!
//! The conditions come from the stabilizer chain of the **structural**
//! automorphism group (labels play no part in `⊆`): walking the
//! matcher's plan order, each vertex `v` whose orbit under the
//! remaining group is non-trivial gets `map(v) < map(w)` for every other
//! `w` of its orbit, and the group shrinks to `v`'s stabilizer. Within
//! an occurrence's embeddings `φ ∘ α`, the first condition pins
//! `(φ ∘ α)(v)` to the least image of the orbit, which fixes `α` up to
//! the stabilizer; the next condition does the same inside it, and so
//! on until the group is trivial. Every `w` of a condition lies later in
//! the plan than its `v` (an earlier vertex is fixed by the stabilizer,
//! so no automorphism of it moves `v` there), so the matcher checks each
//! condition at `w`'s depth, through [`Symmetry::for_each_admitted`]'s
//! visitor, and the DFS never enters a subtree that breaks one.
//!
//! The re-readings permute only the slots a vector stores: an
//! automorphism's slot permutation is restricted to them, and the
//! restrictions that leave every stored slot in place (the identity)
//! or repeat another are dropped. Restriction maps the group onto a
//! group of slot permutations, so the set kept is still closed under
//! composition, and every reading's orbit is the same set of vectors
//! whichever of its readings it is taken from. Under edge-Hamming a
//! one-edge structure keeps no permutation: its two automorphisms swap
//! the vertices, which it does not store.
//!
//! A symmetry is a function of the structure and its stored slots,
//! recomputed for each feature whenever an index is built or decoded;
//! it is never persisted.

use std::ops::ControlFlow;

use pis_graph::iso::{
    embeddings, IsoConfig, MatchPlan, MatchVisitor, SearchBuffers, SubgraphMatcher,
};
use pis_graph::{Embedding, Label, LabeledGraph, VertexId};

/// A pattern vertex no image has been assigned to yet.
const UNSET: VertexId = VertexId(u32::MAX);

/// One feature structure's symmetry-breaking conditions, the slot
/// permutations of its automorphisms on a vector's stored slots, and the
/// structure's match plan.
#[derive(Clone, Debug)]
pub(crate) struct Symmetry {
    /// The matcher's plan for the structure as a pattern: target-free
    /// under [`IsoConfig::STRUCTURE`], so one serves every target.
    plan: MatchPlan,
    /// CSR offsets into `below`: pattern vertex `p` owns
    /// `below[below_start[p]..below_start[p + 1]]`.
    below_start: Vec<u32>,
    /// The conditions, each under its vertex that the plan matches
    /// later: `q` under `p` requires `map(q) < map(p)`, and `q` is
    /// always matched before `p`.
    below: Vec<VertexId>,
    /// Slots of a vector of the structure: its stored edges, then its
    /// stored vertices.
    width: usize,
    /// The distinct permutations the automorphisms induce on the stored
    /// slots, the identity left out, `width` entries each, concatenated:
    /// slot `s` of the reading of `φ ∘ α` is slot `perm[s]` of the
    /// reading of `φ`.
    perms: Vec<u32>,
}

impl Symmetry {
    /// The symmetry of `structure`, from its structural automorphism
    /// group, for vectors that store `(edge_slots, vertex_slots)` of its
    /// edges and vertices (`IndexDistance::slots`).
    pub(crate) fn of(
        structure: &LabeledGraph,
        (edge_slots, vertex_slots): (usize, usize),
    ) -> Symmetry {
        let n = structure.vertex_count();
        let group: Vec<Embedding> = embeddings(structure, structure, IsoConfig::STRUCTURE);
        let mut plan = MatchPlan::new();
        plan.rebuild_for_pattern(structure);

        // The stabilizer chain along the plan order.
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        let mut chain: Vec<&Embedding> = group.iter().collect();
        for depth in 0..plan.len() {
            if chain.len() <= 1 {
                break;
            }
            let v = plan.vertex(depth);
            let mut orbit: Vec<VertexId> = chain.iter().map(|a| a.vertex_image(v)).collect();
            orbit.sort_unstable();
            orbit.dedup();
            pairs.extend(orbit.into_iter().filter(|&w| w != v).map(|w| (v, w)));
            chain.retain(|a| a.vertex_image(v) == v);
        }
        pairs.sort_unstable_by_key(|&(v, w)| (w, v));
        let mut below_start = vec![0u32; n + 1];
        for &(_, w) in &pairs {
            below_start[w.index() + 1] += 1;
        }
        for p in 0..n {
            below_start[p + 1] += below_start[p];
        }
        let below = pairs.iter().map(|&(v, _)| v).collect();

        let mut perms: Vec<Vec<u32>> = group
            .iter()
            .map(|a| {
                let edges = structure.edge_ids().take(edge_slots);
                let vertices = a.vertex_map().iter().take(vertex_slots);
                edges
                    .map(|e| a.edge_image(structure, structure, e).0)
                    .chain(vertices.map(|t| (edge_slots + t.index()) as u32))
                    .collect()
            })
            .filter(|perm: &Vec<u32>| perm.iter().enumerate().any(|(s, &t)| s != t as usize))
            .collect();
        perms.sort_unstable();
        perms.dedup();
        let width = edge_slots + vertex_slots;
        Symmetry { plan, below_start, below, width, perms: perms.concat() }
    }

    /// The vertices whose images must lie below `p`'s.
    fn below(&self, p: VertexId) -> &[VertexId] {
        &self.below[self.below_start[p.index()] as usize..self.below_start[p.index() + 1] as usize]
    }

    /// The distinct restricted slot permutations other than the identity
    /// (none for an asymmetric structure, or one whose automorphisms
    /// move only slots the vector does not store).
    pub(crate) fn permutations(&self) -> impl Iterator<Item = &[u32]> {
        self.perms.chunks_exact(self.width.max(1))
    }

    /// Matches `structure` — the structure this symmetry was derived
    /// from — into `target` under [`IsoConfig::STRUCTURE`] and calls
    /// `on_complete` on exactly one embedding of each occurrence, in the
    /// matcher's DFS order; `Break` stops the search.
    pub(crate) fn for_each_admitted(
        &self,
        structure: &LabeledGraph,
        target: &LabeledGraph,
        scratch: &mut AdmitScratch,
        on_complete: impl FnMut(&Embedding) -> ControlFlow<()>,
    ) {
        let AdmitScratch { search, map } = scratch;
        map.clear();
        map.resize(self.below_start.len() - 1, UNSET);
        SubgraphMatcher::with_parts(structure, target, IsoConfig::STRUCTURE, &self.plan)
            .search_with_buffers(search, &mut Admit { symmetry: self, map, on_complete });
    }

    /// Replaces the vector `v[start..]`, the reading of an admitted
    /// embedding, by the least of its occurrence's readings (the
    /// lexicographic minimum over every slot permutation), so every
    /// embedding of one occurrence — and every occurrence whose readings
    /// are the same set — yields the same vector. An empty vector (a
    /// 0-wide class) stays as it is.
    pub(crate) fn least_reading(&self, v: &mut Vec<Label>, start: usize) {
        if v.len() == start {
            return;
        }
        debug_assert_eq!(v.len() - start, self.width, "a vector of the structure's width");
        // The reading stays in place; the least one so far is kept after
        // it and moves into its place at the end.
        v.extend_from_within(start..);
        let (read, least) = v[start..].split_at_mut(self.width);
        for perm in self.permutations() {
            let moved = perm.iter().map(|&s| read[s as usize]);
            if moved.clone().lt(least.iter().copied()) {
                for (dst, x) in least.iter_mut().zip(moved) {
                    *dst = x;
                }
            }
        }
        v.copy_within(start + self.width.., start);
        v.truncate(start + self.width);
    }
}

/// Reusable state of [`Symmetry::for_each_admitted`]: the matcher's DFS
/// buffers and the partial map the conditions are checked against.
#[derive(Clone, Debug, Default)]
pub(crate) struct AdmitScratch {
    search: SearchBuffers,
    map: Vec<VertexId>,
}

/// The visitor behind [`Symmetry::for_each_admitted`]: it tracks the
/// partial map and rejects an assignment that breaks a condition — the
/// other vertex of each is already mapped, earlier in the plan.
struct Admit<'s, F> {
    symmetry: &'s Symmetry,
    /// The image of each pattern vertex, [`UNSET`] while unassigned.
    map: &'s mut [VertexId],
    on_complete: F,
}

impl<F: FnMut(&Embedding) -> ControlFlow<()>> MatchVisitor for Admit<'_, F> {
    #[inline]
    fn assign(&mut self, p: VertexId, t: VertexId) -> bool {
        let broken = self.symmetry.below(p).iter().any(|q| {
            debug_assert_ne!(self.map[q.index()], UNSET, "conditions follow the plan");
            self.map[q.index()] > t
        });
        if !broken {
            self.map[p.index()] = t;
        }
        !broken
    }

    #[inline]
    fn unassign(&mut self, p: VertexId, _t: VertexId) {
        self.map[p.index()] = UNSET;
    }

    #[inline]
    fn complete(&mut self, embedding: &Embedding) -> ControlFlow<()> {
        (self.on_complete)(embedding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::graph::{complete_graph, cycle_graph, path_graph, star_graph};
    use pis_graph::util::FxHashMap;
    use pis_graph::{EdgeAttr, GraphBuilder, VertexAttr};

    use crate::fragment::label_vector_into;

    /// An occurrence: its sorted edge images, then its sorted vertex
    /// images (which tell the occurrences of an edgeless pattern apart).
    fn occurrence(pattern: &LabeledGraph, target: &LabeledGraph, emb: &Embedding) -> Vec<u32> {
        let mut edges: Vec<u32> =
            pattern.edge_ids().map(|e| emb.edge_image(pattern, target, e).0).collect();
        edges.sort_unstable();
        let mut vertices: Vec<u32> = emb.vertex_map().iter().map(|v| v.0).collect();
        vertices.sort_unstable();
        edges.push(u32::MAX);
        edges.extend(vertices);
        edges
    }

    /// A molecule-like target: two fused rings with a branch, labels
    /// varied so readings differ.
    fn target() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..11).map(|i| b.add_vertex(VertexAttr::labeled(Label(i % 3)))).collect();
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (3, 6),
            (6, 7),
            (7, 8),
            (8, 4),
            (1, 9),
            (9, 10),
            (0, 2),
        ];
        for (k, &(u, v)) in edges.iter().enumerate() {
            b.add_edge(vs[u], vs[v], EdgeAttr::labeled(Label(k as u32 % 4))).unwrap();
        }
        b.build()
    }

    /// The admitted embeddings are exactly one per class of the full
    /// enumeration, classes grouped by sorted edge images, and each
    /// class's readings are the admitted one's permuted — with every slot
    /// stored, with the edge slots alone (edge-Hamming) and with the
    /// vertex slots alone. With every slot stored the permutations are
    /// the automorphisms, one each; restricted, none is the identity and
    /// none repeats.
    #[test]
    fn admits_one_embedding_per_occurrence() {
        let patterns = [
            (path_graph(1, Label(0), Label(0)), 1),
            (path_graph(2, Label(0), Label(0)), 2),
            (path_graph(4, Label(0), Label(0)), 2),
            (star_graph(3, Label(0), Label(0)), 6),
            (star_graph(4, Label(0), Label(0)), 24),
            (star_graph(5, Label(0), Label(0)), 120),
            (cycle_graph(4, Label(0), Label(0)), 8),
            (cycle_graph(5, Label(0), Label(0)), 10),
            (cycle_graph(6, Label(0), Label(0)), 12),
            (complete_graph(4, Label(0), Label(0)), 24),
        ];
        let targets = [
            target(),
            complete_graph(6, Label(1), Label(2)),
            star_graph(6, Label(1), Label(2)),
            cycle_graph(6, Label(1), Label(2)),
        ];
        for (pattern, order) in &patterns {
            let (e, n) = (pattern.edge_count(), pattern.vertex_count());
            for slots in [(e, n), (e, 0), (0, n)] {
                let symmetry = Symmetry::of(pattern, slots);
                let perms: Vec<&[u32]> = symmetry.permutations().collect();
                if slots == (e, n) {
                    assert_eq!(perms.len() + 1, *order, "{pattern:?}");
                }
                let mut distinct = perms.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), perms.len(), "{pattern:?} {slots:?}: a repeat");
                assert!(
                    perms.iter().all(|p| p.iter().enumerate().any(|(s, &t)| s != t as usize)),
                    "{pattern:?} {slots:?}: the identity is left out"
                );
                for target in &targets {
                    check_readings(pattern, target, &symmetry, slots, *order);
                }
            }
        }
        // A one-edge structure under edge-Hamming: the vertex swap moves
        // no stored slot.
        let edge = path_graph(2, Label(0), Label(0));
        assert_eq!(Symmetry::of(&edge, (1, 0)).permutations().count(), 0);
    }

    /// One admitted embedding per occurrence of `pattern` in `target`,
    /// whose permuted readings are the occurrence's readings as a set.
    fn check_readings(
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        symmetry: &Symmetry,
        slots: (usize, usize),
        order: usize,
    ) {
        let read = |emb: &Embedding| {
            let mut v = Vec::new();
            label_vector_into(pattern, target, emb, slots, &mut v);
            v
        };
        let mut classes: FxHashMap<Vec<u32>, Vec<Vec<Label>>> = FxHashMap::default();
        for emb in embeddings(pattern, target, IsoConfig::STRUCTURE) {
            classes.entry(occurrence(pattern, target, &emb)).or_default().push(read(&emb));
        }
        let mut admitted: Vec<Vec<u32>> = Vec::new();
        let mut scratch = AdmitScratch::default();
        symmetry.for_each_admitted(pattern, target, &mut scratch, |emb| {
            let key = occurrence(pattern, target, emb);
            let readings = &classes[&key];
            assert_eq!(readings.len(), order, "every class holds |Aut| embeddings");
            let v = read(emb);
            let mut permuted: Vec<Vec<Label>> = std::iter::once(v.clone())
                .chain(
                    symmetry
                        .permutations()
                        .map(|perm| perm.iter().map(|&s| v[s as usize]).collect()),
                )
                .collect();
            let mut expected = readings.clone();
            for set in [&mut permuted, &mut expected] {
                set.sort_unstable();
                set.dedup();
            }
            assert_eq!(permuted, expected, "{pattern:?} {slots:?} occurrence {key:?}");
            let mut least = v.clone();
            symmetry.least_reading(&mut least, 0);
            assert_eq!(&least, &expected[0]);
            admitted.push(key);
            ControlFlow::Continue(())
        });
        let mut all: Vec<Vec<u32>> = classes.into_keys().collect();
        all.sort_unstable();
        admitted.sort_unstable();
        assert_eq!(admitted, all, "{pattern:?}: one admitted embedding per class");
    }

    /// `least_reading` leaves whatever precedes the vector alone.
    #[test]
    fn least_reading_works_in_place_after_a_prefix() {
        let symmetry = Symmetry::of(&path_graph(2, Label(0), Label(0)), (1, 2));
        let mut v = vec![Label(9), Label(1), Label(5), Label(3)];
        symmetry.least_reading(&mut v, 1);
        assert_eq!(v, [Label(9), Label(1), Label(3), Label(5)]);
        let mut empty = vec![Label(9)];
        symmetry.least_reading(&mut empty, 1);
        assert_eq!(empty, [Label(9)]);
    }
}
