//! Line-oriented text format for graph databases.
//!
//! The format follows the de-facto standard of the graph-mining
//! literature (gSpan datasets), extended with optional weights:
//!
//! ```text
//! # comment
//! t 0                 graph header (id is informational)
//! v 0 6               vertex 0 with label 6
//! v 1 6 1.5           vertex 1 with label 6 and weight 1.5
//! e 0 1 2             edge 0-1 with label 2
//! e 0 1 2 0.7         … and weight 0.7
//! ```
//!
//! Vertices must be declared densely (`v k …` is the k-th declaration).
//! Weights must be finite: `NaN`, `inf` and their spellings are parse
//! errors, since every distance downstream assumes finite weights.

use std::fmt::Write as _;

use crate::error::GraphError;
use crate::graph::{EdgeAttr, GraphBuilder, LabeledGraph, VertexAttr};
use crate::ids::{Label, VertexId};

/// Parses a multi-graph database.
pub fn parse_database(text: &str) -> Result<Vec<LabeledGraph>, GraphError> {
    let mut graphs = Vec::new();
    let mut current: Option<GraphBuilder> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let tag = tokens.next().expect("non-empty line has a first token");
        match tag {
            "t" => {
                if let Some(b) = current.take() {
                    graphs.push(b.build());
                }
                current = Some(GraphBuilder::new());
                // Consume the informational graph id, if present.
                let _ = tokens.next();
            }
            "v" => {
                let b = current.as_mut().ok_or_else(|| parse_err(line_no, "'v' before 't'"))?;
                let idx: usize = next_num(&mut tokens, line_no, "vertex index")?;
                let label: u32 = next_num(&mut tokens, line_no, "vertex label")?;
                let weight = opt_weight(&mut tokens, line_no, "vertex weight")?;
                if idx != b.vertex_count() {
                    return Err(parse_err(
                        line_no,
                        &format!(
                            "vertex {idx} declared out of order (expected {})",
                            b.vertex_count()
                        ),
                    ));
                }
                b.add_vertex(VertexAttr { label: Label(label), weight });
            }
            "e" => {
                let b = current.as_mut().ok_or_else(|| parse_err(line_no, "'e' before 't'"))?;
                let u: u32 = next_num(&mut tokens, line_no, "edge source")?;
                let v: u32 = next_num(&mut tokens, line_no, "edge target")?;
                let label: u32 = next_num(&mut tokens, line_no, "edge label")?;
                let weight = opt_weight(&mut tokens, line_no, "edge weight")?;
                b.add_edge(VertexId(u), VertexId(v), EdgeAttr { label: Label(label), weight })
                    .map_err(|e| parse_err(line_no, &e.to_string()))?;
            }
            other => return Err(parse_err(line_no, &format!("unknown record tag '{other}'"))),
        }
        if tokens.next().is_some() {
            return Err(parse_err(line_no, "trailing tokens"));
        }
    }
    if let Some(b) = current {
        graphs.push(b.build());
    }
    Ok(graphs)
}

/// Parses a single graph (the first `t` block).
pub fn parse_graph(text: &str) -> Result<LabeledGraph, GraphError> {
    let graphs = parse_database(text)?;
    graphs.into_iter().next().ok_or_else(|| parse_err(0, "input contains no graph"))
}

/// Serializes a database in the text format. Weights are emitted only
/// when non-zero, keeping label-only datasets compact.
pub fn write_database(graphs: &[LabeledGraph]) -> String {
    let mut out = String::new();
    for (id, g) in graphs.iter().enumerate() {
        let _ = writeln!(out, "t {id}");
        for v in g.vertex_ids() {
            let a = g.vertex(v);
            if a.weight != 0.0 {
                let _ = writeln!(out, "v {} {} {}", v.0, a.label.0, a.weight);
            } else {
                let _ = writeln!(out, "v {} {}", v.0, a.label.0);
            }
        }
        for e in g.edges() {
            if e.attr.weight != 0.0 {
                let _ = writeln!(
                    out,
                    "e {} {} {} {}",
                    e.source.0, e.target.0, e.attr.label.0, e.attr.weight
                );
            } else {
                let _ = writeln!(out, "e {} {} {}", e.source.0, e.target.0, e.attr.label.0);
            }
        }
    }
    out
}

/// Renders a graph in Graphviz DOT format for visual inspection
/// (`dot -Tsvg`). Vertex labels become node labels, edge labels edge
/// labels; non-zero weights are appended.
pub fn to_dot(g: &LabeledGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    let _ = writeln!(out, "  node [shape=circle];");
    for v in g.vertex_ids() {
        let a = g.vertex(v);
        if a.weight != 0.0 {
            let _ = writeln!(out, "  v{} [label=\"{}:{:.2}\"];", v.0, a.label.0, a.weight);
        } else {
            let _ = writeln!(out, "  v{} [label=\"{}\"];", v.0, a.label.0);
        }
    }
    for e in g.edges() {
        if e.attr.weight != 0.0 {
            let _ = writeln!(
                out,
                "  v{} -- v{} [label=\"{}:{:.2}\"];",
                e.source.0, e.target.0, e.attr.label.0, e.attr.weight
            );
        } else {
            let _ = writeln!(
                out,
                "  v{} -- v{} [label=\"{}\"];",
                e.source.0, e.target.0, e.attr.label.0
            );
        }
    }
    out.push_str("}\n");
    out
}

fn parse_err(line: usize, message: &str) -> GraphError {
    GraphError::Parse { line, message: message.to_string() }
}

fn next_num<T: std::str::FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    let tok = tokens.next().ok_or_else(|| parse_err(line, &format!("missing {what}")))?;
    tok.parse().map_err(|_| parse_err(line, &format!("invalid {what}: '{tok}'")))
}

fn opt_num<T: std::str::FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<Option<T>, GraphError> {
    match tokens.next() {
        None => Ok(None),
        Some(tok) => {
            tok.parse().map(Some).map_err(|_| parse_err(line, &format!("invalid {what}: '{tok}'")))
        }
    }
}

/// An optional weight, `0.0` when absent; `NaN` and `±∞` are refused.
fn opt_weight(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<f64, GraphError> {
    let weight: f64 = opt_num(tokens, line, what)?.unwrap_or(0.0);
    if !weight.is_finite() {
        return Err(parse_err(line, &format!("non-finite {what}: '{weight}'")));
    }
    Ok(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::cycle_graph;

    #[test]
    fn round_trip() {
        let graphs = vec![cycle_graph(5, Label(2), Label(3)), cycle_graph(3, Label(1), Label(0))];
        let text = write_database(&graphs);
        let parsed = parse_database(&text).unwrap();
        assert_eq!(parsed, graphs);
    }

    #[test]
    fn round_trip_with_weights() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VertexAttr { label: Label(1), weight: 0.25 });
        let v = b.add_vertex(VertexAttr { label: Label(2), weight: 0.0 });
        b.add_edge(u, v, EdgeAttr { label: Label(0), weight: 1.75 }).unwrap();
        let g = b.build();
        let parsed = parse_database(&write_database(std::slice::from_ref(&g))).unwrap();
        assert_eq!(parsed, vec![g]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# db\n\nt 0\n v 0 1 \nv 1 1\n# middle\ne 0 1 9\n";
        let g = parse_graph(text).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges()[0].attr.label, Label(9));
    }

    #[test]
    fn error_on_out_of_order_vertex() {
        let text = "t 0\nv 1 0\n";
        let err = parse_database(text).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn error_on_vertex_before_header() {
        let err = parse_database("v 0 0\n").unwrap_err();
        assert!(err.to_string().contains("before 't'"));
    }

    #[test]
    fn error_on_bad_edge_endpoint() {
        let err = parse_database("t 0\nv 0 0\ne 0 5 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }));
    }

    #[test]
    fn error_on_unknown_tag() {
        let err = parse_database("x 1 2\n").unwrap_err();
        assert!(err.to_string().contains("unknown record tag"));
    }

    #[test]
    fn error_on_trailing_tokens() {
        let err = parse_database("t 0\nv 0 0 0.5 junk\n").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn error_on_non_finite_weight() {
        for w in ["NaN", "nan", "inf", "-inf", "infinity", "-Infinity"] {
            let err = parse_database(&format!("t 0\nv 0 0 {w}\n")).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 2, .. }), "v {w}: {err}");
            assert!(err.to_string().contains("non-finite vertex weight"), "v {w}: {err}");
            let err = parse_database(&format!("t 0\nv 0 0\nv 1 0\ne 0 1 0 {w}\n")).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 4, .. }), "e {w}: {err}");
            assert!(err.to_string().contains("non-finite edge weight"), "e {w}: {err}");
        }
    }

    #[test]
    fn empty_input_yields_empty_database() {
        assert!(parse_database("").unwrap().is_empty());
        assert!(parse_graph("").is_err());
    }

    #[test]
    fn dot_export_mentions_every_element() {
        let g = cycle_graph(3, Label(5), Label(7));
        let dot = to_dot(&g, "demo");
        assert!(dot.starts_with("graph demo {"));
        assert_eq!(dot.matches(" -- ").count(), 3);
        assert_eq!(dot.matches("label=\"5\"").count(), 3); // vertices
        assert_eq!(dot.matches("label=\"7\"").count(), 3); // edges
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_export_includes_weights() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VertexAttr { label: Label(1), weight: 2.5 });
        let v = b.add_vertex(VertexAttr::labeled(Label(1)));
        b.add_edge(u, v, EdgeAttr { label: Label(0), weight: 1.25 }).unwrap();
        let dot = to_dot(&b.build(), "w");
        assert!(dot.contains("1:2.50"));
        assert!(dot.contains("0:1.25"));
    }

    #[test]
    fn multiple_graphs_split_on_headers() {
        let text = "t 0\nv 0 1\nt 1\nv 0 2\nv 1 2\ne 0 1 0\n";
        let db = parse_database(text).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db[0].vertex_count(), 1);
        assert_eq!(db[1].edge_count(), 1);
    }
}
