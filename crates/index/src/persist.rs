//! Index persistence.
//!
//! Building a fragment index over a large database costs minutes of
//! embedding enumeration; a production deployment builds once and
//! serves many sessions. This module serializes a [`FragmentIndex`] to
//! a versioned, line-oriented text format and restores it exactly:
//! stored vectors round-trip bit-for-bit (floats travel as hex bit
//! patterns), so a loaded index answers every range query identically
//! to the original.
//!
//! The database graphs themselves are *not* stored here — the paper's
//! index never holds real graphs (Section 6), only identifiers. Persist
//! graphs separately with `pis_graph::io` and hand both to
//! `PisSearcher`.

use std::fmt;
use std::io::{self, BufRead, Write};

use pis_distance::{LinearDistance, MutationDistance, ScoreMatrix};
use pis_graph::canonical::min_dfs_code;
use pis_graph::{GraphId, Label};
use pis_mining::FeatureSet;

use crate::codec::{idx, u32_idx};
use crate::flat_trie::FlatTrie;
use crate::index::{
    Backend, ClassImpl, ClassIndex, FragmentIndex, IndexConfig, IndexDistance, MergeStats,
};
use crate::rtree::RTree;
use crate::vptree::VpTree;

/// Format magic + version.
const MAGIC: &str = "PISIDX 1";

/// Pre-allocation ceiling for counts parsed from untrusted input. The
/// vectors still grow to whatever the stream actually contains; the cap
/// only stops a corrupt count from reserving gigabytes up front.
const PREALLOC_CAP: usize = 1 << 12;

/// Largest accepted score-matrix size. Label alphabets in this system
/// are tiny; the cap keeps `size * size` cells from overflowing or
/// allocating unboundedly on corrupt input.
const MAX_MATRIX_SIZE: usize = 1 << 12;

/// Errors raised while loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or lexical problem in the input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Corruption detected in a binary artifact (snapshot or WAL):
    /// checksum mismatch, truncation, or an out-of-range structural
    /// value.
    Corrupt {
        /// Byte offset the corruption was detected at.
        offset: u64,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index load I/O error: {e}"),
            PersistError::Parse { line, message } => {
                write!(f, "index load parse error at line {line}: {message}")
            }
            PersistError::Corrupt { offset, message } => {
                write!(f, "corrupt binary artifact at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serializes an index.
pub fn save_index<W: Write>(index: &FragmentIndex, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "graphs {}", index.graph_count)?;
    writeln!(w, "max_embeddings {}", index.config.max_embeddings_per_fragment)?;
    match &index.distance {
        IndexDistance::Mutation(md) => {
            writeln!(w, "distance mutation")?;
            save_matrix(&mut w, "vertex_matrix", md.vertex_scores())?;
            save_matrix(&mut w, "edge_matrix", md.edge_scores())?;
        }
        IndexDistance::Linear(ld) => {
            writeln!(
                w,
                "distance linear {} {}",
                hex_f64(ld.vertex_scale()),
                hex_f64(ld.edge_scale())
            )?;
        }
    }
    writeln!(w, "features {}", index.features.len())?;
    for feature in index.features.iter() {
        let seq = feature.code.to_sequence();
        write!(w, "feature {} ", feature.support)?;
        for x in &seq {
            write!(w, "{x} ")?;
        }
        writeln!(w)?;
    }
    for (ci, class) in index.classes.iter().enumerate() {
        write!(w, "class {ci} backend ")?;
        match &class.imp {
            ClassImpl::Trie(_) => writeln!(w, "trie")?,
            ClassImpl::VpLabels(_) => writeln!(w, "vplabels")?,
            ClassImpl::RTree(_) => writeln!(w, "rtree")?,
            ClassImpl::VpWeights(_) => writeln!(w, "vpweights")?,
        }
        write!(w, "posting {} ", class.graphs.len())?;
        for g in &class.graphs {
            write!(w, "{} ", g.0)?;
        }
        writeln!(w)?;
        writeln!(w, "entries {}", class.entries)?;
        // Entries exactly as stored (R-tree points are already
        // scale-transformed; the loader re-inserts them raw).
        match &class.imp {
            ClassImpl::Trie(trie) => {
                // Trie postings are class-local slots; persist the
                // global graph ids so the on-disk format is unchanged.
                let mut err = None;
                trie.for_each_entry(|seq, local| {
                    if err.is_some() {
                        return;
                    }
                    err = write_label_entry(&mut w, seq, class.graphs[local.index()]).err();
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            ClassImpl::VpLabels(vp) => {
                for (seq, gid) in vp.items() {
                    write_label_entry(&mut w, seq, gid)?;
                }
            }
            ClassImpl::RTree(rt) => {
                let mut err = None;
                rt.for_each_entry(|p, gid| {
                    if err.is_some() {
                        return;
                    }
                    err = write_weight_entry(&mut w, p, gid).err();
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            ClassImpl::VpWeights(vp) => {
                for (p, gid) in vp.items() {
                    write_weight_entry(&mut w, p, gid)?;
                }
            }
        }
        // Pending (unmerged) entries ride along after the frozen ones —
        // `entries` already counts them — so saving mid-stream loses
        // nothing; they load back merged into the frozen structure.
        for (seq, gid) in &class.pending.labels {
            let global = if matches!(class.imp, ClassImpl::Trie(_)) {
                // Trie pending ids are class-local slots.
                class.graphs[gid.index()]
            } else {
                *gid
            };
            write_label_entry(&mut w, seq, global)?;
        }
        for (p, gid) in &class.pending.weights {
            write_weight_entry(&mut w, p, *gid)?;
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

/// Restores an index saved with [`save_index`].
pub fn load_index<R: BufRead>(r: R) -> Result<FragmentIndex, PersistError> {
    let mut lines = Lines::new(r);
    lines.expect_line(MAGIC)?;
    let graph_count: usize = lines.field("graphs")?;
    let max_embeddings: usize = lines.field("max_embeddings")?;

    // Distance.
    let (distance, line_no) = {
        let (line, no) = lines.next_line()?;
        let mut toks = line.split_whitespace();
        match (toks.next(), toks.next()) {
            (Some("distance"), Some("mutation")) => {
                let vertex = load_matrix(&mut lines, "vertex_matrix")?;
                let edge = load_matrix(&mut lines, "edge_matrix")?;
                (IndexDistance::Mutation(MutationDistance::new(vertex, edge)), no)
            }
            (Some("distance"), Some("linear")) => {
                let vs = parse_hex_f64(toks.next(), no)?;
                let es = parse_hex_f64(toks.next(), no)?;
                (IndexDistance::Linear(LinearDistance::scaled(vs, es)), no)
            }
            _ => return Err(parse_err(no, "expected 'distance mutation|linear'")),
        }
    };
    let _ = line_no;

    // Features.
    let feature_count: usize = lines.field("features")?;
    let mut features = FeatureSet::new();
    let mut edge_counts = Vec::with_capacity(feature_count.min(PREALLOC_CAP));
    for _ in 0..feature_count {
        let (line, no) = lines.next_line()?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("feature") {
            return Err(parse_err(no, "expected 'feature'"));
        }
        let support: usize = parse_num(toks.next(), no, "feature support")?;
        let seq: Vec<u32> = toks
            .map(|t| t.parse().map_err(|_| parse_err(no, "invalid feature sequence")))
            .collect::<Result<_, _>>()?;
        let code = sequence_to_code(&seq, no)?;
        edge_counts.push(code.edge_count());
        let (_, fresh) = features.insert(code, support);
        // The class loop below addresses features by position; a
        // duplicated feature line would silently shift every later
        // class onto the wrong feature (or index out of bounds).
        if !fresh {
            return Err(parse_err(no, "duplicate feature"));
        }
    }

    // Classes.
    let mut classes = Vec::with_capacity(edge_counts.len());
    for (ci, &ecount) in edge_counts.iter().enumerate() {
        let (line, no) = lines.next_line()?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("class") {
            return Err(parse_err(no, "expected 'class'"));
        }
        let idx: usize = parse_num(toks.next(), no, "class index")?;
        if idx != ci {
            return Err(parse_err(no, &format!("class {idx} out of order (expected {ci})")));
        }
        if toks.next() != Some("backend") {
            return Err(parse_err(no, "expected 'backend'"));
        }
        let backend = toks.next().unwrap_or("").to_string();

        let (line, no) = lines.next_line()?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("posting") {
            return Err(parse_err(no, "expected 'posting'"));
        }
        let count: usize = parse_num(toks.next(), no, "posting length")?;
        let graphs: Vec<GraphId> = toks
            .map(|t| t.parse::<u32>().map(GraphId).map_err(|_| parse_err(no, "invalid graph id")))
            .collect::<Result<_, _>>()?;
        if graphs.len() != count {
            return Err(parse_err(no, "posting length mismatch"));
        }
        // Postings are saved ascending; the trie entry translation
        // below binary-searches them, and every id must name a graph
        // that actually exists in the database this index claims.
        if graphs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(parse_err(no, "posting list not strictly ascending"));
        }
        if graphs.last().is_some_and(|g| g.index() >= graph_count) {
            return Err(parse_err(no, "posting graph id out of range"));
        }

        let entry_count: usize = lines.field("entries")?;
        let feature = features.get(pis_mining::FeatureId(u32_idx(ci)));
        let slots = feature.structure.vertex_count() + feature.structure.edge_count();

        let mut label_entries: Vec<(Vec<Label>, GraphId)> = Vec::new();
        let mut weight_entries: Vec<(Vec<f64>, GraphId)> = Vec::new();
        for _ in 0..entry_count {
            let (line, no) = lines.next_line()?;
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("L") => {
                    let mut v: Vec<Label> = Vec::with_capacity(slots);
                    for _ in 0..slots {
                        v.push(Label(parse_num(toks.next(), no, "label slot")?));
                    }
                    let gid = GraphId(parse_num(toks.next(), no, "entry graph id")?);
                    if gid.index() >= graph_count {
                        return Err(parse_err(no, "entry graph id out of range"));
                    }
                    // Saved trie entries carry global graph ids; the
                    // in-memory trie stores class-local slots into the
                    // (already parsed) posting list — translate here,
                    // where the offending line is known.
                    let gid = if backend == "trie" {
                        let slot = graphs.binary_search(&gid).map_err(|_| {
                            parse_err(no, "trie entry graph id missing from the class posting list")
                        })?;
                        GraphId(u32_idx(slot))
                    } else {
                        gid
                    };
                    label_entries.push((v, gid));
                }
                Some("W") => {
                    let mut v: Vec<f64> = Vec::with_capacity(slots);
                    for _ in 0..slots {
                        v.push(parse_hex_f64(toks.next(), no)?);
                    }
                    let gid = GraphId(parse_num(toks.next(), no, "entry graph id")?);
                    if gid.index() >= graph_count {
                        return Err(parse_err(no, "entry graph id out of range"));
                    }
                    weight_entries.push((v, gid));
                }
                _ => return Err(parse_err(no, "expected entry 'L' or 'W'")),
            }
        }

        let imp =
            build_class_impl(&backend, &distance, slots, ecount, label_entries, weight_entries)
                .map_err(|m| parse_err(0, &m))?;
        classes.push(ClassIndex::restored(imp, graphs, entry_count));
    }
    lines.expect_line("end")?;

    // Infer the backend flag from the first class (all classes share it).
    let backend = classes
        .first()
        .map(|c| match c.imp {
            ClassImpl::Trie(_) => Backend::Trie,
            ClassImpl::RTree(_) => Backend::RTree,
            ClassImpl::VpLabels(_) | ClassImpl::VpWeights(_) => Backend::VpTree,
        })
        .unwrap_or_default();
    Ok(FragmentIndex {
        features,
        distance,
        classes,
        graph_count,
        config: IndexConfig {
            backend,
            max_embeddings_per_fragment: max_embeddings,
            threads: 0,
            // The text format predates the pending buffer and does not
            // store the threshold; loaded indexes get the default.
            merge_threshold: IndexConfig::default().merge_threshold,
        },
        merge_stats: MergeStats::default(),
    })
}

/// Builds a class backend from parsed entry lists — shared by this text
/// loader and the binary snapshot loader so both restore classes
/// through identical code paths (and therefore answer queries
/// identically). Trie entries must already carry class-local slots.
pub(crate) fn build_class_impl(
    backend: &str,
    distance: &IndexDistance,
    slots: usize,
    ecount: usize,
    label_entries: Vec<(Vec<Label>, GraphId)>,
    weight_entries: Vec<(Vec<f64>, GraphId)>,
) -> Result<ClassImpl, String> {
    Ok(match (backend, distance) {
        ("trie", _) => {
            // Saved entries are lexicographic (ids already translated
            // to class-local slots); the arena builder re-sorts
            // defensively and freezes in one shot.
            ClassImpl::Trie(FlatTrie::from_entries(slots, label_entries))
        }
        ("vplabels", IndexDistance::Mutation(md)) => {
            let md = md.clone();
            ClassImpl::VpLabels(VpTree::build(slots, label_entries, move |a, b| {
                md.label_vector_cost(ecount, a, b)
            }))
        }
        ("rtree", _) => {
            // Stored points are already scale-transformed; freeze the
            // rebuilt tree into its query arena.
            let mut rt = RTree::new(slots);
            for (v, gid) in &weight_entries {
                rt.insert(v, *gid);
            }
            rt.freeze();
            ClassImpl::RTree(rt)
        }
        ("vpweights", IndexDistance::Linear(ld)) => {
            let ld = *ld;
            ClassImpl::VpWeights(VpTree::build(slots, weight_entries, move |a, b| {
                ld.weight_vector_cost(ecount, a, b)
            }))
        }
        (other, _) => return Err(format!("backend '{other}' incompatible with distance")),
    })
}

fn save_matrix<W: Write>(w: &mut W, tag: &str, m: &ScoreMatrix) -> io::Result<()> {
    write!(w, "{tag} {} {} ", m.size(), hex_f64(m.default_mismatch()))?;
    for i in 0..m.size() {
        for j in 0..m.size() {
            write!(w, "{} ", hex_f64(m.cost(Label(u32_idx(i)), Label(u32_idx(j)))))?;
        }
    }
    writeln!(w)
}

fn load_matrix<R: BufRead>(lines: &mut Lines<R>, tag: &str) -> Result<ScoreMatrix, PersistError> {
    let (line, no) = lines.next_line()?;
    let mut toks = line.split_whitespace();
    if toks.next() != Some(tag) {
        return Err(parse_err(no, &format!("expected '{tag}'")));
    }
    let size: usize = parse_num(toks.next(), no, "matrix size")?;
    if size > MAX_MATRIX_SIZE {
        return Err(parse_err(
            no,
            &format!("matrix size {size} exceeds the {MAX_MATRIX_SIZE} cap"),
        ));
    }
    let default = parse_hex_f64(toks.next(), no)?;
    let mut costs = vec![0.0; size * size];
    for cell in costs.iter_mut() {
        *cell = parse_hex_f64(toks.next(), no)?;
    }
    ScoreMatrix::from_fn(size, default, |a, b| costs[a.index() * size + b.index()])
        .map_err(|e| parse_err(no, &e.to_string()))
}

fn write_label_entry<W: Write>(w: &mut W, seq: &[Label], gid: GraphId) -> io::Result<()> {
    write!(w, "L ")?;
    for l in seq {
        write!(w, "{} ", l.0)?;
    }
    writeln!(w, "{}", gid.0)
}

fn write_weight_entry<W: Write>(w: &mut W, p: &[f64], gid: GraphId) -> io::Result<()> {
    write!(w, "W ")?;
    for x in p {
        write!(w, "{} ", hex_f64(*x))?;
    }
    writeln!(w, "{}", gid.0)
}

/// Bit-exact float serialization.
fn hex_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_hex_f64(tok: Option<&str>, line: usize) -> Result<f64, PersistError> {
    let tok = tok.ok_or_else(|| parse_err(line, "missing float field"))?;
    let x = u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| parse_err(line, &format!("invalid float bits '{tok}'")))?;
    // NaN or infinite stored floats would poison every superimposed
    // distance downstream (and break the vp-tree's total order); no
    // honest save ever writes them.
    if !x.is_finite() {
        return Err(parse_err(line, &format!("non-finite float '{tok}'")));
    }
    Ok(x)
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, PersistError> {
    let tok = tok.ok_or_else(|| parse_err(line, &format!("missing {what}")))?;
    tok.parse().map_err(|_| parse_err(line, &format!("invalid {what}: '{tok}'")))
}

fn parse_err(line: usize, message: &str) -> PersistError {
    PersistError::Parse { line, message: message.to_string() }
}

/// Rebuilds a DFS code from its `to_sequence` serialization (shared
/// with the binary snapshot loader, which passes `line = 0` and maps
/// the message into its own offset-tagged error).
pub(crate) fn sequence_to_code(
    seq: &[u32],
    line: usize,
) -> Result<pis_graph::canonical::DfsCode, PersistError> {
    use pis_graph::canonical::{DfsCode, DfsEdge};
    if seq.len() < 3 {
        return Err(parse_err(line, "feature sequence too short"));
    }
    let edge_count = idx(seq[1]);
    // Checked arithmetic: a crafted count near usize::MAX must not wrap
    // into a passing length check on 32-bit targets.
    if edge_count.checked_mul(5).and_then(|x| x.checked_add(3)) != Some(seq.len()) {
        return Err(parse_err(line, "feature sequence length mismatch"));
    }
    // `DfsCode::to_graph` trusts its indices (miner-produced codes are
    // valid by construction); a persisted code is untrusted, so check
    // here everything that would otherwise panic inside it: vertex ids
    // beyond the connected bound V <= E + 1, self-loops, repeated
    // edges, and index gaps that leave a vertex with no label.
    let mut edges = Vec::with_capacity(edge_count);
    let vertex_cap = seq[1] + 1;
    for k in 0..edge_count {
        let base = 3 + k * 5;
        let (from, to) = (seq[base], seq[base + 1]);
        if from >= vertex_cap || to >= vertex_cap {
            return Err(parse_err(line, "feature vertex id out of range"));
        }
        if from == to {
            return Err(parse_err(line, "feature edge is a self-loop"));
        }
        if edges
            .iter()
            .any(|e: &DfsEdge| (e.from, e.to) == (from, to) || (e.from, e.to) == (to, from))
        {
            return Err(parse_err(line, "feature edge repeated"));
        }
        edges.push(DfsEdge {
            from,
            to,
            from_label: Label(seq[base + 2]),
            edge_label: Label(seq[base + 3]),
            to_label: Label(seq[base + 4]),
        });
    }
    if let Some(max_id) = edges.iter().map(|e| e.from.max(e.to)).max() {
        let mut seen = vec![false; idx(max_id) + 1];
        for e in &edges {
            seen[idx(e.from)] = true;
            seen[idx(e.to)] = true;
        }
        if seen.iter().any(|&s| !s) {
            return Err(parse_err(line, "feature vertex ids have gaps"));
        }
    }
    let code = DfsCode { edges, root_label: Label(seq[2]) };
    if idx(seq[0]) != code.vertex_count() {
        return Err(parse_err(line, "feature vertex count mismatch"));
    }
    // Defensive: the representative must be canonical, else lookups on
    // the loaded index would mis-hash.
    let canon = min_dfs_code(&code.to_graph())
        .ok_or_else(|| parse_err(line, "feature code is not connected"))?;
    if canon.code != code {
        return Err(parse_err(line, "feature code is not canonical"));
    }
    Ok(code)
}

/// Line reader with 1-based positions.
struct Lines<R: BufRead> {
    reader: R,
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines { reader, line_no: 0 }
    }

    fn next_line(&mut self) -> Result<(String, usize), PersistError> {
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf)?;
            self.line_no += 1;
            if n == 0 {
                return Err(parse_err(self.line_no, "unexpected end of input"));
            }
            let trimmed = buf.trim();
            if !trimmed.is_empty() {
                return Ok((trimmed.to_string(), self.line_no));
            }
        }
    }

    fn expect_line(&mut self, expected: &str) -> Result<(), PersistError> {
        let (line, no) = self.next_line()?;
        if line == expected {
            Ok(())
        } else {
            Err(parse_err(no, &format!("expected '{expected}', found '{line}'")))
        }
    }

    fn field<T: std::str::FromStr>(&mut self, tag: &str) -> Result<T, PersistError> {
        let (line, no) = self.next_line()?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some(tag) {
            return Err(parse_err(no, &format!("expected '{tag}'")));
        }
        parse_num(toks.next(), no, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_distance::MutationDistance;
    use pis_graph::{EdgeAttr, GraphBuilder, LabeledGraph, VertexAttr};
    use pis_mining::exhaustive::exhaustive_features;

    fn ring(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
        }
        b.build()
    }

    fn weighted_ring(ws: &[f64]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = ws.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &w) in ws.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr { label: Label(0), weight: w }).unwrap();
        }
        b.build()
    }

    fn round_trip(index: &FragmentIndex) -> FragmentIndex {
        let mut buf = Vec::new();
        save_index(index, &mut buf).expect("in-memory save cannot fail");
        load_index(buf.as_slice()).expect("round trip must load")
    }

    fn assert_same_answers(a: &FragmentIndex, b: &FragmentIndex, query: &LabeledGraph) {
        assert_eq!(a.graph_count(), b.graph_count());
        assert_eq!(a.total_entries(), b.total_entries());
        assert_eq!(a.features().len(), b.features().len());
        for qf in a.enumerate_query_fragments(query) {
            for sigma in [0.0, 1.0, 3.0] {
                let ra = a.range_query(qf.feature, &qf.vector, sigma);
                let rb = b.range_query(qf.feature, &qf.vector, sigma);
                assert_eq!(ra.len(), rb.len(), "sigma {sigma}");
                for ((g1, d1), (g2, d2)) in ra.iter().zip(&rb) {
                    assert_eq!(g1, g2);
                    assert!((d1 - d2).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn mutation_trie_round_trip() {
        let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 1, 2, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let loaded = round_trip(&index);
        assert_same_answers(&index, &loaded, &ring(&[1, 2, 1, 2]));
        for f in index.features().iter() {
            assert_eq!(index.class_graphs(f.id), loaded.class_graphs(f.id));
        }
    }

    #[test]
    fn mutation_vptree_round_trip() {
        let db = vec![ring(&[1, 1, 1]), ring(&[1, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 2),
            IndexDistance::Mutation(MutationDistance::unit()),
            &IndexConfig { backend: Backend::VpTree, ..IndexConfig::default() },
        );
        let loaded = round_trip(&index);
        assert_same_answers(&index, &loaded, &ring(&[1, 1, 2]));
    }

    #[test]
    fn linear_rtree_round_trip_is_bit_exact() {
        let db = vec![
            weighted_ring(&[1.0, 1.5, std::f64::consts::PI]),
            weighted_ring(&[0.1, 0.2, 0.30000000000000004]),
        ];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Linear(LinearDistance::edges_only()),
            &IndexConfig::default(),
        );
        let loaded = round_trip(&index);
        assert_same_answers(&index, &loaded, &weighted_ring(&[1.0, 1.5, 3.25]));
    }

    #[test]
    fn loaded_index_accepts_incremental_inserts() {
        let db = vec![ring(&[1, 1, 1, 1]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let mut loaded = round_trip(&index);
        let gid = loaded.insert_graph(&ring(&[1, 2, 1, 2]));
        assert_eq!(gid.index(), 2);
        let q = loaded
            .enumerate_query_fragments(&ring(&[1, 2, 1, 2]))
            .into_iter()
            .next()
            .expect("query has fragments");
        let hits = loaded.range_query(q.feature, &q.vector, 0.0);
        assert!(hits.iter().any(|(g, _)| g.index() == 2), "inserted graph must be findable");
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        // The frozen arena must persist exactly like the pointer trie
        // did: lexicographic entries, ascending graph ids — so a second
        // save of the loaded index reproduces the bytes.
        let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let mut first = Vec::new();
        save_index(&index, &mut first).unwrap();
        let loaded = load_index(first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_index(&loaded, &mut second).unwrap();
        assert_eq!(first, second, "save → load → save must be the identity");
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(load_index("garbage".as_bytes()).is_err());
        assert!(load_index("PISIDX 1\ngraphs notanumber\n".as_bytes()).is_err());
        // Truncated stream.
        let db = vec![ring(&[1, 1, 1])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 2),
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(load_index(truncated).is_err());
    }

    #[test]
    fn non_canonical_feature_code_rejected() {
        // Hand-craft a stream with a non-canonical feature code: swap
        // the 3-path's code for a deliberately wrong one.
        let text = "PISIDX 1\ngraphs 0\nmax_embeddings 18446744073709551615\n\
                    distance linear 3ff0000000000000 3ff0000000000000\n\
                    features 1\nfeature 0 3 2 0 1 2 0 0 0 2 0 0 0\n";
        // (from=1,to=2) as second edge with from=1 is fine, but the code
        // must match min_dfs_code of its own graph; a path coded from an
        // endpoint is canonical, so corrupt the labels ordering instead.
        let bad = text
            .replace("feature 0 3 2 0 1 2 0 0 0 2 0 0 0", "feature 0 3 2 9 0 1 9 0 0 1 2 0 0 0");
        assert!(load_index(bad.as_bytes()).is_err());
    }
}
