//! The linear mutation distance (LD) of Section 2.
//!
//! `LD = Σ_v |w(v) − w'(f(v))| + Σ_e |w(e) − w'(f(e))|` over a
//! superposition `f` — an L1 distance over superimposed numeric weights,
//! appropriate when labels are geometric quantities (bond lengths,
//! charges, coordinates projected to scalars) — the paper's Example 3.
//! The fragment index keeps no weights for it: a linear-distance class
//! is its posting list, and the verifier measures LD.

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
