//! Dataset statistics (experiment E0, `DESIGN.md` §5: the calibration
//! audit of the evaluation-setup paragraph).

use std::collections::BTreeMap;
use std::fmt;

use pis_graph::algo::cyclomatic_number;
use pis_graph::{Label, LabeledGraph};

use crate::chemistry::{AtomVocabulary, BondVocabulary};

/// Summary statistics of a graph database, matching the numbers the
/// paper reports for its AIDS-screen sample (average/maximum vertex and
/// edge counts, label make-up).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of graphs.
    pub graphs: usize,
    /// Mean vertex count.
    pub avg_vertices: f64,
    /// Mean edge count.
    pub avg_edges: f64,
    /// Maximum vertex count.
    pub max_vertices: usize,
    /// Maximum edge count.
    pub max_edges: usize,
    /// Mean ring count (cyclomatic number).
    pub avg_rings: f64,
    /// Vertex-label histogram.
    pub vertex_labels: BTreeMap<Label, usize>,
    /// Edge-label histogram.
    pub edge_labels: BTreeMap<Label, usize>,
}

impl DatasetStats {
    /// Computes statistics over a database.
    pub fn compute(database: &[LabeledGraph]) -> Self {
        let mut stats = DatasetStats {
            graphs: database.len(),
            avg_vertices: 0.0,
            avg_edges: 0.0,
            max_vertices: 0,
            max_edges: 0,
            avg_rings: 0.0,
            vertex_labels: BTreeMap::new(),
            edge_labels: BTreeMap::new(),
        };
        if database.is_empty() {
            return stats;
        }
        let mut tv = 0usize;
        let mut te = 0usize;
        let mut tr = 0usize;
        for g in database {
            tv += g.vertex_count();
            te += g.edge_count();
            tr += cyclomatic_number(g);
            stats.max_vertices = stats.max_vertices.max(g.vertex_count());
            stats.max_edges = stats.max_edges.max(g.edge_count());
            for v in g.vertex_ids() {
                *stats.vertex_labels.entry(g.vertex(v).label).or_insert(0) += 1;
            }
            for e in g.edges() {
                *stats.edge_labels.entry(e.attr.label).or_insert(0) += 1;
            }
        }
        let n = database.len() as f64;
        stats.avg_vertices = tv as f64 / n;
        stats.avg_edges = te as f64 / n;
        stats.avg_rings = tr as f64 / n;
        stats
    }

    /// Renders the histogram with chemical names for the report binary.
    pub fn render(&self, atoms: &AtomVocabulary, bonds: &BondVocabulary) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "graphs: {}\navg vertices: {:.1} (max {})\navg edges: {:.1} (max {})\navg rings: {:.2}\n",
            self.graphs, self.avg_vertices, self.max_vertices, self.avg_edges, self.max_edges, self.avg_rings
        ));
        let tv: usize = self.vertex_labels.values().sum();
        out.push_str("atoms:\n");
        for (label, count) in &self.vertex_labels {
            out.push_str(&format!(
                "  {:<3} {:>7}  ({:.1}%)\n",
                atoms.symbol_of(*label),
                count,
                100.0 * *count as f64 / tv.max(1) as f64
            ));
        }
        let te: usize = self.edge_labels.values().sum();
        out.push_str("bonds:\n");
        for (label, count) in &self.edge_labels {
            out.push_str(&format!(
                "  {:<9} {:>7}  ({:.1}%)\n",
                bonds.name_of(*label),
                count,
                100.0 * *count as f64 / te.max(1) as f64
            ));
        }
        out
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} graphs, avg {:.1}V/{:.1}E, max {}V/{}E, {:.2} rings/graph",
            self.graphs,
            self.avg_vertices,
            self.avg_edges,
            self.max_vertices,
            self.max_edges,
            self.avg_rings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::MoleculeGenerator;
    use pis_graph::graph::{cycle_graph, path_graph};

    #[test]
    fn stats_of_known_graphs() {
        let db = vec![path_graph(3, Label(0), Label(1)), cycle_graph(5, Label(2), Label(1))];
        let s = DatasetStats::compute(&db);
        assert_eq!(s.graphs, 2);
        assert_eq!(s.avg_vertices, 4.0);
        assert_eq!(s.avg_edges, 3.5);
        assert_eq!(s.max_vertices, 5);
        assert_eq!(s.max_edges, 5);
        assert_eq!(s.avg_rings, 0.5);
        assert_eq!(s.vertex_labels[&Label(0)], 3);
        assert_eq!(s.vertex_labels[&Label(2)], 5);
        assert_eq!(s.edge_labels[&Label(1)], 7);
    }

    #[test]
    fn empty_database() {
        let s = DatasetStats::compute(&[]);
        assert_eq!(s.graphs, 0);
        assert!(s.vertex_labels.is_empty());
    }

    #[test]
    fn synthetic_database_is_carbon_dominated() {
        let db = MoleculeGenerator::default().database(200, 1);
        let s = DatasetStats::compute(&db);
        // Over 60 % of the vertices carry the most common label.
        let total: usize = s.vertex_labels.values().sum();
        let dominant = s.vertex_labels.values().copied().max().unwrap_or(0);
        assert!(dominant as f64 > 0.6 * total as f64);
        assert!(s.avg_rings > 1.0);
    }

    #[test]
    fn render_names_labels() {
        let db = MoleculeGenerator::default().database(5, 1);
        let s = DatasetStats::compute(&db);
        let text = s.render(&AtomVocabulary::default(), &BondVocabulary::default());
        assert!(text.contains("C"));
        assert!(text.contains("single"));
        assert!(text.contains("graphs: 5"));
    }

    #[test]
    fn display_is_one_line() {
        let s = DatasetStats::compute(&[path_graph(2, Label(0), Label(0))]);
        assert!(!s.to_string().contains('\n'));
    }
}
