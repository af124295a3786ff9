//! The linear mutation distance (LD) of Section 2.
//!
//! `LD = Σ_v |w(v) − w'(f(v))| + Σ_e |w(e) − w'(f(e))|` over a
//! superposition `f` — an L1 distance over superimposed numeric weights,
//! appropriate when labels are geometric quantities (bond lengths,
//! charges, coordinates projected to scalars). The R-tree backend of the
//! fragment index answers LD range queries as L1 ball queries over
//! weight vectors (the paper's Example 3).

// Search hot path: panic-free outside tests (DESIGN.md §6.11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use pis_graph::{EdgeAttr, LabeledGraph, VertexAttr};

use crate::traits::{min_edge_costs_generic, min_vertex_costs_generic, SuperimposedDistance};

/// L1 distance over vertex and edge weights, with optional per-side
/// scaling (set a scale to 0 to ignore that side, mirroring the paper's
/// edge-only experiments).
#[derive(Clone, Copy, Debug)]
pub struct LinearDistance {
    vertex_scale: f64,
    edge_scale: f64,
}

impl Default for LinearDistance {
    fn default() -> Self {
        LinearDistance { vertex_scale: 1.0, edge_scale: 1.0 }
    }
}

impl LinearDistance {
    /// The standard LD: unscaled vertex and edge terms.
    pub fn new() -> Self {
        LinearDistance::default()
    }

    /// LD over edge weights only (`Σ |w(e) − w'(e')|`, Example 3).
    pub fn edges_only() -> Self {
        LinearDistance { vertex_scale: 0.0, edge_scale: 1.0 }
    }

    /// LD with explicit non-negative scales.
    pub fn scaled(vertex_scale: f64, edge_scale: f64) -> Self {
        assert!(
            vertex_scale >= 0.0 && edge_scale >= 0.0,
            "scales must be non-negative for the lower bound to hold"
        );
        LinearDistance { vertex_scale, edge_scale }
    }

    /// Scale applied to vertex-weight differences.
    pub fn vertex_scale(&self) -> f64 {
        self.vertex_scale
    }

    /// Scale applied to edge-weight differences.
    pub fn edge_scale(&self) -> f64 {
        self.edge_scale
    }
}

/// Plain L1 distances from `query` to a contiguous row-major block of
/// `out.len()` points (`points.len() == out.len() * query.len()`), each
/// point summed in slot order — byte-identical to a per-point
/// `Σ |a − b|` loop.
///
/// This is the leaf kernel of the flattened R-tree: its stored
/// coordinates are scale-transformed so the linear distance *is* a
/// plain L1, and a frozen leaf's points sit in one dense block the
/// compiler can stream instead of chasing per-point `Vec`s.
///
/// # Panics
/// Panics if `points.len() != out.len() * query.len()`.
pub fn l1_costs_into(query: &[f64], points: &[f64], out: &mut [f64]) {
    assert_eq!(
        points.len(),
        out.len() * query.len(),
        "point block must hold out.len() points of query dimensionality"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    for (o, p) in out.iter_mut().zip(points.chunks_exact(query.len())) {
        let mut d = 0.0;
        for (&x, &y) in p.iter().zip(query) {
            d += (x - y).abs();
        }
        *o = d;
    }
}

/// L1 distances from `query` to a block of `out.len()` axis-aligned
/// boxes stored SoA row-major (`mins`/`maxs` each hold
/// `out.len() * query.len()` coordinates). Each output is the exact
/// lower bound on the L1 distance to any point inside its box (0 when
/// `query` is inside) — the inner-node pruning kernel of the flattened
/// R-tree, scanning bounding data contiguously.
///
/// # Panics
/// Panics if `mins.len()` or `maxs.len()` differ from
/// `out.len() * query.len()`.
pub fn mbr_l1_costs_into(query: &[f64], mins: &[f64], maxs: &[f64], out: &mut [f64]) {
    let dim = query.len();
    assert_eq!(mins.len(), out.len() * dim, "min block must hold out.len() boxes");
    assert_eq!(maxs.len(), out.len() * dim, "max block must hold out.len() boxes");
    for (i, o) in out.iter_mut().enumerate() {
        let (lo, hi) = (&mins[i * dim..(i + 1) * dim], &maxs[i * dim..(i + 1) * dim]);
        let mut d = 0.0;
        for ((&x, &lo), &hi) in query.iter().zip(lo).zip(hi) {
            if x < lo {
                d += lo - x;
            } else if x > hi {
                d += x - hi;
            }
        }
        *o = d;
    }
}

impl SuperimposedDistance for LinearDistance {
    #[inline]
    fn vertex_cost(&self, a: VertexAttr, b: VertexAttr) -> f64 {
        self.vertex_scale * (a.weight - b.weight).abs()
    }

    #[inline]
    fn edge_cost(&self, a: EdgeAttr, b: EdgeAttr) -> f64 {
        self.edge_scale * (a.weight - b.weight).abs()
    }

    fn min_vertex_costs_into(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        out: &mut Vec<f64>,
    ) {
        // A zero scale (the paper's edge-only experiments) makes every
        // vertex cost 0; skip the quadratic scan.
        if self.vertex_scale == 0.0 {
            out.clear();
            out.resize(pattern.vertex_count(), 0.0);
        } else {
            min_vertex_costs_generic(self, pattern, target, out);
        }
    }

    fn min_edge_costs_into(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        out: &mut Vec<f64>,
    ) {
        if self.edge_scale == 0.0 {
            out.clear();
            out.resize(pattern.edge_count(), 0.0);
        } else {
            min_edge_costs_generic(self, pattern, target, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::iso::{embeddings, IsoConfig};
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};

    fn weighted_path(weights: &[f64], edge_weights: &[f64]) -> pis_graph::LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = weights
            .iter()
            .map(|&w| b.add_vertex(VertexAttr { label: Label(0), weight: w }))
            .collect();
        for (i, &w) in edge_weights.iter().enumerate() {
            b.add_edge(vs[i], vs[i + 1], EdgeAttr { label: Label(0), weight: w }).unwrap();
        }
        b.build()
    }

    #[test]
    fn ld_is_l1_over_superposition() {
        let q = weighted_path(&[0.0, 0.0], &[1.0]);
        let g = weighted_path(&[0.5, 1.5], &[3.0]);
        let d = LinearDistance::new();
        let embs = embeddings(&q, &g, IsoConfig::STRUCTURE);
        let mut costs: Vec<f64> = embs.iter().map(|e| d.superposition_cost(&q, &g, e)).collect();
        costs.sort_by(f64::total_cmp);
        // Both orientations: |0-0.5|+|0-1.5|+|1-3| = 4.
        assert_eq!(costs, vec![4.0, 4.0]);
    }

    #[test]
    fn edges_only_ignores_vertices() {
        let q = weighted_path(&[9.0, 9.0], &[1.0]);
        let g = weighted_path(&[0.0, 0.0], &[1.25]);
        let d = LinearDistance::edges_only();
        let e = &embeddings(&q, &g, IsoConfig::STRUCTURE)[0];
        assert!((d.superposition_cost(&q, &g, e) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scales_rejected() {
        let _ = LinearDistance::scaled(-1.0, 0.0);
    }

    #[test]
    fn l1_block_matches_per_point_scan() {
        let query = [1.0, 2.0, 3.0];
        let points = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, -1.0, 4.0, 3.5];
        let mut out = [f64::NAN; 3];
        l1_costs_into(&query, &points, &mut out);
        assert_eq!(out, [0.0, 6.0, 4.5]);
        // Zero-dimensional points are all at distance 0.
        let mut empty_dim = [f64::NAN; 2];
        l1_costs_into(&[], &[], &mut empty_dim);
        assert_eq!(empty_dim, [0.0, 0.0]);
        l1_costs_into(&query, &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "point block")]
    fn l1_block_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        l1_costs_into(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    fn mbr_block_lower_bounds() {
        // Two boxes in 2-D: [1,2]x[1,3] and [5,6]x[5,6].
        let mins = [1.0, 1.0, 5.0, 5.0];
        let maxs = [2.0, 3.0, 6.0, 6.0];
        let mut out = [f64::NAN; 2];
        mbr_l1_costs_into(&[1.5, 2.0], &mins, &maxs, &mut out);
        assert_eq!(out, [0.0, 6.5]); // inside first; (5-1.5)+(5-2) to second
        mbr_l1_costs_into(&[0.0, 4.0], &mins, &maxs, &mut out);
        assert_eq!(out, [2.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "min block")]
    fn mbr_block_rejects_length_mismatch() {
        let mut out = [0.0; 1];
        mbr_l1_costs_into(&[1.0], &[1.0, 2.0], &[1.0], &mut out);
    }

    #[test]
    fn zero_scale_min_tables_short_circuit() {
        let d = LinearDistance::edges_only();
        let q = weighted_path(&[5.0, 5.0, 5.0], &[1.0, 2.0]);
        let g = weighted_path(&[0.0, 0.0], &[9.0]);
        let mut out = Vec::new();
        // Vertex scale 0: all-zero floors even though the middle vertex
        // has no degree-compatible image.
        d.min_vertex_costs_into(&q, &g, &mut out);
        assert_eq!(out, vec![0.0; 3]);
        // Edge scale 1: the generic scan runs and reports infeasibility.
        d.min_edge_costs_into(&q, &g, &mut out);
        assert_eq!(out, vec![f64::INFINITY; 2]);
        // Against a large-enough target the floors are |w − w'| minima.
        let g = weighted_path(&[0.0, 0.0, 0.0], &[1.5, 4.0]);
        d.min_edge_costs_into(&q, &g, &mut out);
        assert_eq!(out, vec![0.5, 0.5]);
    }
}
