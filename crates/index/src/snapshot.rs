//! Versioned binary snapshots of a [`FragmentIndex`] + its database —
//! the one persisted form of an index.
//!
//! A snapshot stores each class as its content, not its arena: the
//! class's posting list, then its distinct label sequences in sorted
//! order, front-coded, each with its run of postings. Loading feeds
//! that stream to the one arena builder (`flat_trie::TrieBuilder`), so
//! no arena column is persisted and the layout lives in `flat_trie.rs`
//! alone. A linear-distance class (a depth-0 trie) is one posting run.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic "PISSNAP1"  (8 bytes)
//! u32 version (= 3)
//! u32 section_count (= 4)
//! section table: per section { u32 kind, u64 offset, u64 len, u32 crc32 }
//! section payloads (META, FEATURES, DATABASE, CLASSES — in kind order)
//! u32 footer crc32 over every preceding byte
//!
//! META:     u64 graph count, u8 distance tag (0 mutation, 1 linear),
//!           then two score matrices or two f64 scales
//! CLASSES:  u32 class count, then per class, in feature order:
//!           u32 n, n × u32 posting list (ascending graph ids)
//!           u32 sequence count, then per sequence:
//!             u32 split level (where it leaves its predecessor's path)
//!             (depth − split) × u32 labels, one per trie node it opens
//!             u32 run length, run × u32 posting slots (ascending)
//! ```
//!
//! A class's trie depth is its width under the stored distance, read
//! off its feature: the edge slots when the edge matrix prices, then the
//! vertex slots when the vertex matrix does (`IndexDistance::slots`),
//! and 0 under the linear distance. Every structural count is
//! bounds-checked against the bytes actually present, every float is
//! rejected when non-finite, and each class stream is checked for
//! exactly what the builder assumes — sorted, distinct sequences with
//! non-empty, ascending, in-range runs — before it is fed, so a loaded
//! snapshot answers queries bit-identically, re-encodes to the same
//! bytes, and corrupt input of any shape surfaces as
//! [`PersistError::Corrupt`], never a panic. Older files are refused:
//! version 1 stored the arena columns, and version 2 stored every slot
//! of a class, the unpriced ones as `Label::ERASED`. Rebuild such a
//! store (`pis build`).
//!
//! The database graphs ride in the snapshot (one atomic rename covers
//! index *and* database); the write-ahead log ([`crate::wal`]) replays
//! on top of it.

// Decodes untrusted bytes: no panics and no bare `as` casts outside
// tests (the checked cast helpers live in `codec.rs`).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::as_conversions
    )
)]

use std::path::Path;

use pis_distance::{LinearDistance, MutationDistance, ScoreMatrix};
use pis_graph::canonical::{min_dfs_code, DfsCode, DfsEdge};
use pis_graph::io::{parse_database, write_database};
use pis_graph::{GraphId, Label, LabeledGraph};
use pis_mining::FeatureSet;

use crate::codec::{
    atomic_write, check_finite_weights, crc32, idx, len64, u32_idx, u32_of, ByteReader, ByteWriter,
};
use crate::flat_trie::{FlatTrie, TrieBuilder};
use crate::index::{ClassIndex, FragmentIndex, IndexDistance, MergeStats};
use crate::persist::PersistError;

const MAGIC: &[u8; 8] = b"PISSNAP1";
const VERSION: u32 = 3;
const SECTION_COUNT: u32 = 4;
/// Bytes per section-table entry: kind + offset + len + crc.
const TABLE_ENTRY: usize = 24;

const KIND_META: u32 = 1;
const KIND_FEATURES: u32 = 2;
const KIND_DATABASE: u32 = 3;
const KIND_CLASSES: u32 = 4;

/// Serializes the index and its database into snapshot bytes.
///
/// # Panics
/// Panics if the index has unmerged pending entries — snapshots capture
/// only frozen structures; call [`FragmentIndex::compact`] first (the
/// path-level [`write_snapshot`] does).
pub fn encode_snapshot(
    index: &FragmentIndex,
    database: &[LabeledGraph],
) -> Result<Vec<u8>, PersistError> {
    assert_eq!(index.pending_entries(), 0, "compact the index before snapshotting");
    assert_eq!(index.graph_count, database.len(), "index and database out of sync");
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(SECTION_COUNT);
    let table_at = w.len();
    for _ in 0..idx(SECTION_COUNT) * TABLE_ENTRY {
        w.u8(0);
    }
    type SectionEncoder<'a> = &'a dyn Fn(&mut ByteWriter) -> Result<(), PersistError>;
    let sections: [(u32, SectionEncoder<'_>); 4] = [
        (KIND_META, &|w| encode_meta(index, w)),
        (KIND_FEATURES, &|w| encode_features(index, w)),
        (KIND_DATABASE, &|w| encode_database(database, w)),
        (KIND_CLASSES, &|w| encode_classes(index, w)),
    ];
    for (i, (kind, encode)) in sections.iter().enumerate() {
        let offset = w.len();
        encode(&mut w)?;
        let crc = crc32(&w.as_slice()[offset..]);
        let len = w.len() - offset;
        let at = table_at + i * TABLE_ENTRY;
        w.patch_u32(at, *kind);
        w.patch_u64(at + 4, len64(offset));
        w.patch_u64(at + 12, len64(len));
        w.patch_u32(at + 20, crc);
    }
    let footer = crc32(w.as_slice());
    w.u32(footer);
    Ok(w.into_bytes())
}

fn encode_meta(index: &FragmentIndex, w: &mut ByteWriter) -> Result<(), PersistError> {
    w.u64(len64(index.graph_count));
    match &index.distance {
        IndexDistance::Mutation(md) => {
            w.u8(0);
            encode_matrix(md.vertex_scores(), w)?;
            encode_matrix(md.edge_scores(), w)?;
        }
        IndexDistance::Linear(ld) => {
            w.u8(1);
            w.f64_bits(ld.vertex_scale());
            w.f64_bits(ld.edge_scale());
        }
    }
    Ok(())
}

fn encode_matrix(m: &ScoreMatrix, w: &mut ByteWriter) -> Result<(), PersistError> {
    w.u32(u32_of(m.size(), "matrix size")?);
    w.f64_bits(m.default_mismatch());
    for i in 0..m.size() {
        for j in 0..m.size() {
            // In-bounds by the size check above.
            w.f64_bits(m.cost(Label(u32_idx(i)), Label(u32_idx(j))));
        }
    }
    Ok(())
}

fn encode_features(index: &FragmentIndex, w: &mut ByteWriter) -> Result<(), PersistError> {
    w.u32(u32_of(index.features.len(), "feature count")?);
    for feature in index.features.iter() {
        w.u64(len64(feature.support));
        let seq = feature.code.to_sequence();
        w.u32(u32_of(seq.len(), "feature sequence length")?);
        for x in seq {
            w.u32(x);
        }
    }
    Ok(())
}

fn encode_database(db: &[LabeledGraph], w: &mut ByteWriter) -> Result<(), PersistError> {
    db.iter().try_for_each(check_finite_weights)?;
    let text = write_database(db);
    w.u64(len64(text.len()));
    w.bytes(text.as_bytes());
    Ok(())
}

fn encode_classes(index: &FragmentIndex, w: &mut ByteWriter) -> Result<(), PersistError> {
    w.u32(u32_of(index.classes.len(), "class count")?);
    for class in &index.classes {
        w.u32(u32_of(class.graphs.len(), "posting length")?);
        for g in &class.graphs {
            w.u32(g.0);
        }
        encode_trie(&class.frozen, w);
    }
    Ok(())
}

/// Writes a class's trie as its content — the stream
/// [`FlatTrie::for_each_sequence`] walks: the sequence count, then each
/// distinct sequence's split level, its labels from that level down and
/// its run of posting slots. Counts and slots fit in `u32` because the
/// arena addresses its postings with them.
fn encode_trie(trie: &FlatTrie, w: &mut ByteWriter) {
    let count_at = w.len();
    w.u32(0);
    let mut count = 0;
    trie.for_each_sequence(|split, seq, run| {
        count += 1;
        w.u32(u32_idx(split));
        for label in &seq[split..] {
            w.u32(label.0);
        }
        w.u32(u32_idx(run.len()));
        for g in run {
            w.u32(g.0);
        }
    });
    w.patch_u32(count_at, u32_idx(count));
}

/// Restores an index + database from snapshot bytes, validating the
/// footer checksum, every section checksum, and every structural
/// invariant before any array is trusted.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(FragmentIndex, Vec<LabeledGraph>), PersistError> {
    let header_len = MAGIC.len() + 8 + idx(SECTION_COUNT) * TABLE_ENTRY;
    if bytes.len() < header_len + 4 {
        return Err(corrupt(len64(bytes.len()), "snapshot shorter than its header"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt(0, "bad snapshot magic"));
    }
    let mut r = ByteReader::new(&bytes[MAGIC.len()..header_len], len64(MAGIC.len()));
    match r.u32("version")? {
        VERSION => {}
        1 => {
            return Err(corrupt(
                8,
                "snapshot version 1 (trie arena columns) is no longer read: rebuild the store \
                 with `pis build`",
            ))
        }
        2 => {
            return Err(corrupt(
                8,
                "snapshot version 2 (every label slot stored) is no longer read: rebuild the \
                 store with `pis build`",
            ))
        }
        version => return Err(corrupt(8, &format!("unsupported snapshot version {version}"))),
    }
    let section_count = r.u32("section count")?;
    if section_count != SECTION_COUNT {
        return Err(corrupt(
            12,
            &format!("expected {SECTION_COUNT} sections, got {section_count}"),
        ));
    }
    // Whole-file footer first: one cheap pass that catches truncation
    // and most bit rot before any section is interpreted.
    let footer_at = bytes.len() - 4;
    let stored_footer = u32::from_le_bytes([
        bytes[footer_at],
        bytes[footer_at + 1],
        bytes[footer_at + 2],
        bytes[footer_at + 3],
    ]);
    if crc32(&bytes[..footer_at]) != stored_footer {
        return Err(corrupt(len64(footer_at), "snapshot footer checksum mismatch"));
    }
    // Section table: bounds + per-section CRC, then slice out payloads.
    // Every payload slot is overwritten in the loop (kind == i + 1 is
    // enforced), so the empty-slice initializer can never leak through.
    let mut payloads: [&[u8]; 4] = [&[]; 4];
    let mut offsets = [0u64; 4];
    for i in 0..idx(SECTION_COUNT) {
        let kind = r.u32("section kind")?;
        let offset = r.u64("section offset")?;
        let len = r.u64("section length")?;
        let crc = r.u32("section checksum")?;
        if kind != u32_idx(i) + 1 {
            return Err(corrupt(r.offset(), &format!("section {i} has kind {kind}")));
        }
        // `checked_add`: a crafted table with offset + len wrapping u64
        // would otherwise pass the range check and panic at the slice.
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(r.offset(), &format!("section {i} range overflows")))?;
        if offset < len64(header_len) || end > len64(footer_at) {
            return Err(corrupt(r.offset(), &format!("section {i} range escapes the file")));
        }
        // Infallible: offset ≤ end ≤ footer_at, which is a usize.
        let range = |x: u64| {
            usize::try_from(x).map_err(|_| corrupt(x, &format!("section {i} offset exceeds usize")))
        };
        let payload = &bytes[range(offset)?..range(end)?];
        if crc32(payload) != crc {
            return Err(corrupt(offset, &format!("section {i} checksum mismatch")));
        }
        payloads[i] = payload;
        offsets[i] = offset;
    }
    let section = |k: u32| ByteReader::new(payloads[idx(k) - 1], offsets[idx(k) - 1]);

    let meta = decode_meta(&mut section(KIND_META))?;
    let features = decode_features(&mut section(KIND_FEATURES))?;
    let database = decode_database(&mut section(KIND_DATABASE))?;
    if database.len() != meta.graph_count {
        return Err(corrupt(
            offsets[idx(KIND_DATABASE) - 1],
            &format!(
                "database holds {} graphs but the index claims {}",
                database.len(),
                meta.graph_count
            ),
        ));
    }
    let widths: Vec<usize> =
        features.iter().map(|f| meta.distance.class_width(&f.structure)).collect();
    let classes = decode_classes(&mut section(KIND_CLASSES), &meta, &widths)?;
    let index = FragmentIndex {
        symmetry: crate::index::symmetries(&features, &meta.distance),
        features,
        distance: meta.distance,
        classes,
        graph_count: meta.graph_count,
        merge_stats: MergeStats::default(),
    };
    // Structural fsck on every load: the per-section CRCs catch bit
    // rot, this catches a snapshot whose bytes are intact but whose
    // decoded structures violate an index invariant.
    if let Err(m) = index.validate() {
        return Err(corrupt(0, &format!("index invariant: {m}")));
    }
    Ok((index, database))
}

/// [`encode_snapshot`] + crash-safe rotation onto `path` (write temp,
/// fsync, rename): a crash at any point leaves the previous snapshot
/// intact. Compacts the index first — pending entries merge into the
/// frozen structures the snapshot stores.
pub fn write_snapshot(
    path: &Path,
    index: &mut FragmentIndex,
    database: &[LabeledGraph],
) -> Result<(), PersistError> {
    index.compact();
    let bytes = encode_snapshot(index, database)?;
    atomic_write(path, &bytes)?;
    Ok(())
}

/// Reads and [`decode_snapshot`]s the file at `path`.
pub fn load_snapshot(path: &Path) -> Result<(FragmentIndex, Vec<LabeledGraph>), PersistError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes)
}

fn corrupt(offset: u64, message: &str) -> PersistError {
    PersistError::Corrupt { offset, message: message.to_string() }
}

struct Meta {
    graph_count: usize,
    distance: IndexDistance,
}

/// Reads a `u32` count and caps it at what the remaining bytes could
/// possibly hold, with `unit` bytes per counted element — corrupt
/// counts then fail fast without reserving memory the data cannot back.
fn bounded_count(r: &mut ByteReader<'_>, what: &str, unit: usize) -> Result<usize, PersistError> {
    let x = r.u32_usize(what)?;
    let cap = r.remaining() / unit.max(1);
    if x > cap {
        return Err(r.corrupt(&format!("{what} {x} exceeds the {cap} cap")));
    }
    Ok(x)
}

fn decode_meta(r: &mut ByteReader<'_>) -> Result<Meta, PersistError> {
    let graph_count = r.u64("graph count")?;
    if graph_count > u64::from(u32::MAX) {
        return Err(r.corrupt("graph count exceeds u32 ids"));
    }
    // Infallible after the u32 bound above.
    let graph_count =
        usize::try_from(graph_count).map_err(|_| r.corrupt("graph count exceeds usize"))?;
    let distance = match r.u8("distance tag")? {
        0 => {
            let vertex = decode_matrix(r)?;
            let edge = decode_matrix(r)?;
            IndexDistance::Mutation(MutationDistance::new(vertex, edge))
        }
        1 => {
            let vs = r.f64_finite("vertex scale")?;
            let es = r.f64_finite("edge scale")?;
            IndexDistance::Linear(LinearDistance::scaled(vs, es))
        }
        t => return Err(r.corrupt(&format!("unknown distance tag {t}"))),
    };
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes in META section"));
    }
    Ok(Meta { graph_count, distance })
}

fn decode_matrix(r: &mut ByteReader<'_>) -> Result<ScoreMatrix, PersistError> {
    let size = r.u32_usize("matrix size")?;
    // Cells are 8 bytes each and there are size², so the remaining-byte
    // bound must be taken on the squared count.
    let cells = size.checked_mul(size).filter(|&c| c * 8 <= r.remaining() + 8);
    let Some(cells) = cells else {
        return Err(r.corrupt(&format!("matrix size {size} exceeds the section")));
    };
    let default = r.f64_finite("matrix default")?;
    let mut costs = Vec::with_capacity(cells);
    for _ in 0..cells {
        costs.push(r.f64_finite("matrix cell")?);
    }
    ScoreMatrix::from_fn(size, default, |a, b| costs[a.index() * size + b.index()])
        .map_err(|e| r.corrupt(&e.to_string()))
}

fn decode_features(r: &mut ByteReader<'_>) -> Result<FeatureSet, PersistError> {
    let count = bounded_count(r, "feature count", 16)?;
    let mut features = FeatureSet::new();
    for _ in 0..count {
        let support = r.u64_usize("feature support")?;
        let seq_len = bounded_count(r, "feature sequence length", 4)?;
        let mut seq = Vec::with_capacity(seq_len);
        for _ in 0..seq_len {
            seq.push(r.u32("feature sequence value")?);
        }
        // Full structural validation, canonicality included.
        let code = sequence_to_code(&seq).map_err(|m| r.corrupt(m))?;
        let (_, fresh) = features.insert(code, support);
        if !fresh {
            return Err(r.corrupt("duplicate feature"));
        }
    }
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes in FEATURES section"));
    }
    Ok(features)
}

/// Rebuilds a DFS code from its `to_sequence` serialization.
///
/// `DfsCode::to_graph` trusts its indices (miner-produced codes are
/// valid by construction); a persisted code is untrusted, so everything
/// that would otherwise panic inside it is checked here: vertex ids
/// beyond the connected bound V <= E + 1, self-loops, repeated edges,
/// and index gaps that leave a vertex with no label.
fn sequence_to_code(seq: &[u32]) -> Result<DfsCode, &'static str> {
    if seq.len() < 3 {
        return Err("feature sequence too short");
    }
    let edge_count = idx(seq[1]);
    // Checked arithmetic: a crafted count near usize::MAX must not wrap
    // into a passing length check on 32-bit targets.
    if edge_count.checked_mul(5).and_then(|x| x.checked_add(3)) != Some(seq.len()) {
        return Err("feature sequence length mismatch");
    }
    let mut edges = Vec::with_capacity(edge_count);
    let vertex_cap = seq[1] + 1;
    for k in 0..edge_count {
        let base = 3 + k * 5;
        let (from, to) = (seq[base], seq[base + 1]);
        if from >= vertex_cap || to >= vertex_cap {
            return Err("feature vertex id out of range");
        }
        if from == to {
            return Err("feature edge is a self-loop");
        }
        if edges
            .iter()
            .any(|e: &DfsEdge| (e.from, e.to) == (from, to) || (e.from, e.to) == (to, from))
        {
            return Err("feature edge repeated");
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
            return Err("feature vertex ids have gaps");
        }
    }
    let code = DfsCode { edges, root_label: Label(seq[2]) };
    if idx(seq[0]) != code.vertex_count() {
        return Err("feature vertex count mismatch");
    }
    // Defensive: the representative must be canonical, else lookups on
    // the loaded index would mis-hash.
    let canon = min_dfs_code(&code.to_graph()).ok_or("feature code is not connected")?;
    if canon.code != code {
        return Err("feature code is not canonical");
    }
    Ok(code)
}

fn decode_database(r: &mut ByteReader<'_>) -> Result<Vec<LabeledGraph>, PersistError> {
    let len = r.count("database text length", r.remaining())?;
    let text = std::str::from_utf8(r.bytes(len, "database text")?)
        .map_err(|_| r.corrupt("database text is not UTF-8"))?;
    let db = parse_database(text).map_err(|e| r.corrupt(&format!("database unparsable: {e}")))?;
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes in DATABASE section"));
    }
    Ok(db)
}

/// Decodes the classes, one per feature; `widths[c]` is class `c`'s
/// width under the index distance, the depth its trie must have.
fn decode_classes(
    r: &mut ByteReader<'_>,
    meta: &Meta,
    widths: &[usize],
) -> Result<Vec<ClassIndex>, PersistError> {
    let count = bounded_count(r, "class count", 1)?;
    if count != widths.len() {
        return Err(r.corrupt(&format!("{count} classes for {} features", widths.len())));
    }
    let mut classes = Vec::with_capacity(count);
    for &width in widths {
        let posting_len = bounded_count(r, "posting length", 4)?;
        let mut graphs = Vec::with_capacity(posting_len);
        for _ in 0..posting_len {
            graphs.push(GraphId(r.u32("posting graph id")?));
        }
        // Postings are stored ascending (trie slots index into them)
        // and may name only graphs that exist.
        if graphs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(r.corrupt("posting list not strictly ascending"));
        }
        if graphs.last().is_some_and(|g| g.index() >= meta.graph_count) {
            return Err(r.corrupt("posting graph id out of range"));
        }
        let trie = decode_trie(r, width, graphs.len())?;
        classes.push(ClassIndex::restored(trie, graphs));
    }
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes in CLASSES section"));
    }
    Ok(classes)
}

/// Reads a `depth`-deep class trie as [`encode_trie`] wrote it and feeds
/// it to the [`TrieBuilder`], checking first everything the builder
/// assumes and the stream can get wrong: the first sequence splits at
/// level 0 and every later one below `depth`; each sequence's label at
/// its split is greater than its predecessor's, so the sequences are
/// sorted and distinct; and every run is non-empty, strictly ascending
/// and inside the `class_size`-graph class.
fn decode_trie(
    r: &mut ByteReader<'_>,
    depth: usize,
    class_size: usize,
) -> Result<FlatTrie, PersistError> {
    // A sequence is at least its split level, a run length and a slot.
    let sequences = bounded_count(r, "trie sequence count", 12)?;
    let mut trie = TrieBuilder::new(depth, 0);
    let mut path = vec![Label(0); depth];
    // Nodes (one per label) and postings: the arena addresses both in u32.
    let mut words = 0usize;
    for i in 0..sequences {
        let split = r.u32_usize("trie split level")?;
        if (i == 0 && split != 0) || (i > 0 && split >= depth) {
            return Err(r.corrupt(&format!(
                "trie sequence {i} splits at level {split} of a {depth}-deep trie"
            )));
        }
        for (k, cell) in path[split..].iter_mut().enumerate() {
            let label = Label(r.u32("trie label")?);
            // Where a sequence leaves its predecessor's path, it sorts
            // after it.
            if i > 0 && k == 0 && label <= *cell {
                return Err(
                    r.corrupt(&format!("trie sequence {i} does not follow its predecessor"))
                );
            }
            *cell = label;
        }
        trie.open(split, &path[split..]);
        let run = bounded_count(r, "trie run length", 4)?;
        if run == 0 {
            return Err(r.corrupt(&format!("trie sequence {i} has no postings")));
        }
        words += depth - split + run;
        if u32::try_from(words).is_err() {
            return Err(r.corrupt("trie arena exceeds u32 addressing"));
        }
        let mut last = None;
        for _ in 0..run {
            let slot = r.u32("trie posting slot")?;
            if idx(slot) >= class_size {
                return Err(r.corrupt(&format!(
                    "trie posting slot {slot} exceeds the {class_size}-graph class"
                )));
            }
            if last.is_some_and(|prev| slot <= prev) {
                return Err(
                    r.corrupt(&format!("trie sequence {i} postings are not strictly ascending"))
                );
            }
            last = Some(slot);
            trie.post(GraphId(slot));
        }
    }
    Ok(trie.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use pis_distance::MutationDistance;
    use pis_graph::{EdgeAttr, GraphBuilder, VertexAttr};
    use pis_mining::exhaustive::exhaustive_features;

    fn ring(labels: &[u32]) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let n = labels.len();
        let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
        for (i, &l) in labels.iter().enumerate() {
            b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr { label: Label(l), weight: l as f64 })
                .unwrap();
        }
        b.build()
    }

    fn sample(distance: IndexDistance) -> (FragmentIndex, Vec<LabeledGraph>) {
        let db = vec![ring(&[1, 1, 2, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let index = FragmentIndex::build(
            &db,
            exhaustive_features(&structures, 3),
            distance,
            &IndexConfig::default(),
        );
        (index, db)
    }

    #[test]
    fn round_trip_is_byte_identical_per_backend() {
        for distance in [
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            IndexDistance::Linear(LinearDistance::default()),
        ] {
            let (index, db) = sample(distance.clone());
            let bytes = encode_snapshot(&index, &db).unwrap();
            let (loaded, db2) = decode_snapshot(&bytes).unwrap();
            // A snapshot is a total serialization of index state and
            // database: re-encoding what was decoded must reproduce it.
            assert_eq!(encode_snapshot(&loaded, &db2).unwrap(), bytes, "{distance:?}");
        }
    }

    /// `count` depth-`depth` entries over `graphs` graphs: labels from a
    /// small alphabet, so sequences share prefixes, and graph `i % 3 == 0`
    /// entries bunched onto a few sequences, so some leaves are dense.
    fn entries(seed: u64, count: u32, graphs: u32, depth: usize) -> (Vec<Label>, Vec<GraphId>) {
        let mut x = seed;
        let mut labels = Vec::new();
        let ids = (0..count)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let alphabet = if i % 3 == 0 { 1 } else { 3 };
                labels.extend((0..depth).map(|p| Label((x >> (8 + 5 * p)) as u32 % alphabet)));
                GraphId((x >> 40) as u32 % graphs)
            })
            .collect();
        (labels, ids)
    }

    /// `trie` written as a class stream and read back, every byte used.
    fn round_trip(trie: &FlatTrie, class_size: usize) -> FlatTrie {
        let mut w = ByteWriter::new();
        encode_trie(trie, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 0);
        let decoded = decode_trie(&mut r, trie.depth(), class_size).unwrap();
        assert!(r.is_exhausted(), "the stream is read to its end");
        decoded
    }

    /// A trie decoded from its class stream is the encoded one, column
    /// for column (`FlatTrie: PartialEq`, the derived bitmaps included):
    /// built, merged, and pending-merged — a pending trie grown by a
    /// merge and then merged into the frozen one — at depths 0–5, empty
    /// tries included.
    #[test]
    fn decoded_tries_are_the_encoded_ones() {
        let build = |(labels, ids): (Vec<Label>, Vec<GraphId>), depth| {
            FlatTrie::from_rows(depth, labels, ids)
        };
        let mut dense = 0;
        for depth in 0..=5 {
            for (seed, graphs) in [(1u64, 400u32), (2, 7)] {
                let built = build(entries(seed, 600, graphs, depth), depth);
                let mut merged = build(entries(seed + 10, 300, graphs, depth), depth);
                merged.merge(&build(entries(seed + 20, 300, graphs, depth), depth));
                let mut pending = build(entries(seed + 30, 40, graphs, depth), depth);
                pending.merge(&build(entries(seed + 40, 40, graphs, depth), depth));
                let mut pending_merged = built.clone();
                pending_merged.merge(&pending);
                let empty = build((Vec::new(), Vec::new()), depth);
                for (case, trie) in [
                    ("built", &built),
                    ("merged", &merged),
                    ("pending-merged", &pending_merged),
                    ("empty", &empty),
                ] {
                    let decoded = round_trip(trie, graphs as usize);
                    assert!(decoded == *trie, "depth {depth} graphs {graphs}: {case}");
                    dense += decoded.leaf_kinds().0;
                }
            }
        }
        assert!(dense > 0, "dense leaves are decoded too");
    }

    /// A linear-distance store holds every class as a depth-0 trie over
    /// its posting list, one entry per graph, and round-trips to the
    /// byte.
    #[test]
    fn linear_classes_are_posting_lists() {
        let (index, db) = sample(IndexDistance::Linear(LinearDistance::default()));
        for class in &index.classes {
            assert_eq!(class.frozen.depth(), 0);
            assert_eq!(class.entries, class.graphs.len());
        }
        let bytes = encode_snapshot(&index, &db).unwrap();
        let (loaded, db2) = decode_snapshot(&bytes).unwrap();
        assert!(encode_snapshot(&loaded, &db2).unwrap() == bytes, "round trip is byte-identical");
    }

    #[test]
    fn footer_catches_any_byte_flip() {
        let (index, db) = sample(IndexDistance::Mutation(MutationDistance::edge_hamming()));
        let bytes = encode_snapshot(&index, &db).unwrap();
        for pos in [8, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode_snapshot(&bad), Err(PersistError::Corrupt { .. })),
                "flip at {pos} must be caught"
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let (index, db) = sample(IndexDistance::Mutation(MutationDistance::edge_hamming()));
        let bytes = encode_snapshot(&index, &db).unwrap();
        for cut in [0, 4, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(decode_snapshot(&bytes[..cut]), Err(PersistError::Corrupt { .. })),
                "truncation to {cut} must be a typed error"
            );
        }
    }

    #[test]
    fn atomic_rotation_round_trips_via_path() {
        let dir = std::env::temp_dir().join(format!("pis-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.pis");
        let (mut index, db) = sample(IndexDistance::Mutation(MutationDistance::edge_hamming()));
        write_snapshot(&path, &mut index, &db).unwrap();
        let (loaded, db2) = load_snapshot(&path).unwrap();
        assert_eq!(encode_snapshot(&loaded, &db2).unwrap(), encode_snapshot(&index, &db).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_index_accepts_incremental_inserts() {
        let (index, db) = sample(IndexDistance::Mutation(MutationDistance::edge_hamming()));
        let (mut loaded, _) = decode_snapshot(&encode_snapshot(&index, &db).unwrap()).unwrap();
        let added = ring(&[2, 1, 1, 1]);
        let gid = loaded.insert_graph_pending(&added);
        assert_eq!(gid.index(), db.len());
        let (mut frags, mut hits) = (crate::FragmentBuffer::new(), Vec::new());
        loaded.enumerate_query_fragments_into(&added, &mut frags);
        assert!(!frags.is_empty(), "query has fragments");
        let (f, probe, mut scratch) =
            (frags.feature(0), frags.vector(0), crate::RangeScratch::new());
        loaded.range_query_normalized_into(f, probe, 0.0, &mut scratch, &mut hits);
        assert!(hits.iter().any(|(g, _)| *g == gid), "inserted graph must be findable");
    }

    #[test]
    fn malformed_feature_codes_are_rejected() {
        // Each of these would panic inside `DfsCode::to_graph` if it
        // got that far.
        for (why, seq) in [
            ("self-loop", &[2, 1, 0, 0, 0, 0, 0, 0][..]),
            ("out of range", &[2, 1, 0, 4_000_000_000, 0, 0, 0, 0]),
            ("gaps", &[4, 3, 0, 0, 2, 0, 0, 0, 2, 3, 0, 0, 0, 0, 3, 0, 0, 0]),
            ("repeated", &[2, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]),
            ("vertex count mismatch", &[9, 1, 0, 1, 0, 0, 0, 0]),
            ("too short", &[1, 0]),
            ("length mismatch", &[2, 1, 0, 0, 1, 0, 0]),
        ] {
            let err = sequence_to_code(seq).expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    #[test]
    fn non_canonical_feature_code_rejected() {
        // A labelled 3-path coded from its larger-labelled endpoint: a
        // well-formed code, but not the minimum one of its own graph.
        let err = sequence_to_code(&[3, 2, 9, 0, 1, 9, 0, 0, 1, 2, 0, 0, 0]).expect_err("path");
        assert_eq!(err, "feature code is not canonical");
        // The same path coded from the other end is accepted.
        assert!(sequence_to_code(&[3, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 9]).is_ok());
    }
}
