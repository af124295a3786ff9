//! Versioned binary snapshots of a [`FragmentIndex`] + its database —
//! the one persisted form of an index.
//!
//! A snapshot stores each class's frozen FlatTrie arena columns
//! verbatim — a linear-distance class as a depth-0 trie over its
//! posting list — so loading validates and bulk-copies them back with
//! no re-sort and no per-entry parsing.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic "PISSNAP1"  (8 bytes)
//! u32 version (= 1)
//! u32 section_count (= 4)
//! section table: per section { u32 kind, u64 offset, u64 len, u32 crc32 }
//! section payloads (META, FEATURES, DATABASE, CLASSES — in kind order)
//! u32 footer crc32 over every preceding byte
//! ```
//!
//! Every structural count is bounds-checked against the bytes actually
//! present, every float is rejected when non-finite, and trie arenas
//! are revalidated by `FlatTrie::from_parts` — so a loaded snapshot
//! answers queries bit-identically, re-encodes to the same bytes, and
//! corrupt input of any shape surfaces as [`PersistError::Corrupt`],
//! never a panic.
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
use crate::flat_trie::{FlatTrie, TriePartsOwned};
use crate::index::{ClassIndex, FragmentIndex, IndexDistance, MergeStats};
use crate::persist::PersistError;

const MAGIC: &[u8; 8] = b"PISSNAP1";
const VERSION: u32 = 1;
const SECTION_COUNT: u32 = 4;
/// Bytes per section-table entry: kind + offset + len + crc.
const TABLE_ENTRY: usize = 24;

const KIND_META: u32 = 1;
const KIND_FEATURES: u32 = 2;
const KIND_DATABASE: u32 = 3;
const KIND_CLASSES: u32 = 4;

/// META's three retired slots, kept so persisted bytes do not move. The
/// embedding cap is always "none": an index built under a cap had wrong
/// range-query minima, so any other value is refused on read. The
/// backend byte once chose among structures; `0`–`2` are accepted (the
/// class tags say which structure each class holds, and refuse the ones
/// that are gone), `3`, the VP-tree, is refused. The merge
/// threshold was a knob; it is written as its old default and any value
/// is accepted and ignored on read, since a threshold never changes an
/// answer.
const NO_EMBEDDING_CAP: u64 = u64::MAX;
const BACKEND_BY_DISTANCE: u8 = 0;
const BACKEND_VPTREE: u8 = 3;
const RETIRED_MERGE_THRESHOLD: u64 = 64;

/// Class tags: every class is a trie. `1` and `3` were the VP-tree
/// classes (label and weight items), `2` the R-tree of a linear class;
/// all three decode to [`PersistError::Corrupt`].
const CLASS_TRIE: u8 = 0;
const CLASS_RTREE: u8 = 2;

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
    type SectionEncoder =
        fn(&FragmentIndex, &[LabeledGraph], &mut ByteWriter) -> Result<(), PersistError>;
    let sections: [(u32, SectionEncoder); 4] = [
        (KIND_META, encode_meta),
        (KIND_FEATURES, encode_features),
        (KIND_DATABASE, encode_database),
        (KIND_CLASSES, encode_classes),
    ];
    for (i, (kind, encode)) in sections.iter().enumerate() {
        let offset = w.len();
        encode(index, database, &mut w)?;
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

fn encode_meta(
    index: &FragmentIndex,
    _db: &[LabeledGraph],
    w: &mut ByteWriter,
) -> Result<(), PersistError> {
    w.u64(len64(index.graph_count));
    w.u64(NO_EMBEDDING_CAP);
    w.u8(BACKEND_BY_DISTANCE);
    w.u64(RETIRED_MERGE_THRESHOLD);
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

fn encode_features(
    index: &FragmentIndex,
    _db: &[LabeledGraph],
    w: &mut ByteWriter,
) -> Result<(), PersistError> {
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

fn encode_database(
    _index: &FragmentIndex,
    db: &[LabeledGraph],
    w: &mut ByteWriter,
) -> Result<(), PersistError> {
    db.iter().try_for_each(check_finite_weights)?;
    let text = write_database(db);
    w.u64(len64(text.len()));
    w.bytes(text.as_bytes());
    Ok(())
}

fn encode_classes(
    index: &FragmentIndex,
    _db: &[LabeledGraph],
    w: &mut ByteWriter,
) -> Result<(), PersistError> {
    w.u32(u32_of(index.classes.len(), "class count")?);
    for class in &index.classes {
        w.u8(CLASS_TRIE);
        w.u32(u32_of(class.graphs.len(), "posting length")?);
        for g in &class.graphs {
            w.u32(g.0);
        }
        w.u64(len64(class.entries));
        let p = class.frozen.parts();
        w.u32(u32_of(p.depth, "trie depth")?);
        w.u32(u32_of(p.labels.len(), "trie node count")?);
        w.u32(u32_of(p.postings.len(), "trie posting count")?);
        w.u32(u32_of(p.alphabet.len(), "trie alphabet count")?);
        for &x in p.level_start {
            w.u32(x);
        }
        for &l in p.labels {
            w.u32(l.0);
        }
        for arr in [p.label_idx, p.child_start, p.child_len, p.sub_start, p.sub_len] {
            for &x in arr {
                w.u32(x);
            }
        }
        for &g in p.postings {
            w.u32(g.0);
        }
        for &x in p.alphabet_start {
            w.u32(x);
        }
        for &l in p.alphabet {
            w.u32(l.0);
        }
    }
    Ok(())
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
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(corrupt(8, &format!("unsupported snapshot version {version}")));
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
        symmetry: crate::index::symmetries(&features),
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
    let cap = r.u64("embedding cap")?;
    if cap != NO_EMBEDDING_CAP {
        return Err(r.corrupt(&format!(
            "index built under an embedding cap of {cap}: unsupported, rebuild the store"
        )));
    }
    match r.u8("backend tag")? {
        t if t < BACKEND_VPTREE => {}
        BACKEND_VPTREE => {
            return Err(r.corrupt("VP-tree backend: unsupported, rebuild the store"));
        }
        t => return Err(r.corrupt(&format!("unknown backend tag {t}"))),
    }
    r.u64("merge threshold")?;
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
        let tag = r.u8("class backend tag")?;
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
        let entries = r.u64_usize("entry count")?;
        let trie = match tag {
            CLASS_TRIE => decode_trie(r, width, graphs.len())?,
            CLASS_RTREE => return Err(r.corrupt("R-tree class: unsupported, rebuild the store")),
            1 | 3 => return Err(r.corrupt("VP-tree class: unsupported, rebuild the store")),
            t => return Err(r.corrupt(&format!("unknown class backend tag {t}"))),
        };
        classes.push(ClassIndex::restored(trie, graphs, entries));
    }
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes in CLASSES section"));
    }
    Ok(classes)
}

/// Bulk-copies a trie arena out of the section, then revalidates every
/// structural invariant through [`FlatTrie::from_parts`]. Postings are
/// class-local slots and are range-checked against the posting list
/// here, where the class size is known.
fn decode_trie(
    r: &mut ByteReader<'_>,
    width: usize,
    class_size: usize,
) -> Result<FlatTrie, PersistError> {
    let depth = r.u32_usize("trie depth")?;
    // Queries index probe vectors of `width` labels by trie level, so a
    // depth mismatch would read out of bounds at query time.
    if depth != width {
        return Err(r.corrupt(&format!("trie depth {depth} != class width {width}")));
    }
    let nodes = bounded_count(r, "trie node count", 4)?;
    let postings_len = bounded_count(r, "trie posting count", 4)?;
    let alphabet_len = bounded_count(r, "trie alphabet count", 4)?;
    let table_len = if depth == 0 { 0 } else { depth + 1 };
    let read_u32s =
        |n: usize, what: &str, r: &mut ByteReader<'_>| -> Result<Vec<u32>, PersistError> {
            let mut v = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
            for _ in 0..n {
                v.push(r.u32(what)?);
            }
            Ok(v)
        };
    let level_start = read_u32s(table_len, "trie level table", r)?;
    let labels: Vec<Label> = read_u32s(nodes, "trie labels", r)?.into_iter().map(Label).collect();
    let label_idx = read_u32s(nodes, "trie label slots", r)?;
    let child_start = read_u32s(nodes, "trie child starts", r)?;
    let child_len = read_u32s(nodes, "trie child lengths", r)?;
    let sub_start = read_u32s(nodes, "trie subtree starts", r)?;
    let sub_len = read_u32s(nodes, "trie subtree lengths", r)?;
    let postings: Vec<GraphId> =
        read_u32s(postings_len, "trie postings", r)?.into_iter().map(GraphId).collect();
    if postings.iter().any(|g| g.index() >= class_size) {
        return Err(r.corrupt("trie posting slot out of range"));
    }
    let alphabet_start = read_u32s(table_len, "trie alphabet table", r)?;
    let alphabet: Vec<Label> =
        read_u32s(alphabet_len, "trie alphabet", r)?.into_iter().map(Label).collect();
    FlatTrie::from_parts(TriePartsOwned {
        depth,
        level_start,
        labels,
        label_idx,
        child_start,
        child_len,
        sub_start,
        sub_len,
        postings,
        alphabet_start,
        alphabet,
    })
    .map_err(|m| r.corrupt(&m))
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

    /// META's retired slots on hand-built section bytes: the embedding
    /// cap must read "none", the backend byte may name anything but the
    /// VP-tree, and the merge threshold may hold anything.
    #[test]
    fn meta_retired_slots_accept_only_supported_values() {
        let meta = |cap: u64, backend: u8, threshold: u64| {
            let mut w = ByteWriter::new();
            w.u64(3); // graph count
            w.u64(cap);
            w.u8(backend);
            w.u64(threshold);
            w.u8(1); // linear distance: vertex scale, edge scale
            w.f64_bits(0.0);
            w.f64_bits(1.0);
            w.into_bytes()
        };
        let decode = |bytes: Vec<u8>| decode_meta(&mut ByteReader::new(&bytes, 0));
        for backend in 0..=2 {
            for threshold in [0, 1, 64, u64::MAX] {
                let m = decode(meta(u64::MAX, backend, threshold)).unwrap();
                assert_eq!(m.graph_count, 3, "backend tag {backend} threshold {threshold}");
            }
        }
        for (cap, backend) in [(u64::MAX, 3), (u64::MAX, 4), (1000, 0), (0, 0)] {
            assert!(
                matches!(decode(meta(cap, backend, 64)), Err(PersistError::Corrupt { .. })),
                "cap {cap} backend tag {backend} must be refused"
            );
        }
        // The writer fills the slot with the old default.
        let (index, db) = sample(IndexDistance::Linear(LinearDistance::default()));
        let mut w = ByteWriter::new();
        encode_meta(&index, &db, &mut w).unwrap();
        assert_eq!(w.into_bytes()[..25], meta(u64::MAX, 0, 64)[..25]);
    }

    /// A linear-distance store holds every class as a depth-0 trie over
    /// its posting list, one entry per graph, and round-trips to the
    /// byte. A class tagged `2` — the R-tree classes of stores written
    /// before linear classes became posting lists — is refused with a
    /// typed error naming the remedy, through the whole decoder (section
    /// and footer checksums patched to match).
    #[test]
    fn linear_classes_are_posting_lists_and_rtree_tags_are_refused() {
        let (index, db) = sample(IndexDistance::Linear(LinearDistance::default()));
        for class in &index.classes {
            assert_eq!(class.frozen.depth(), 0);
            assert_eq!(class.entries, class.graphs.len());
        }
        let bytes = encode_snapshot(&index, &db).unwrap();
        let (loaded, db2) = decode_snapshot(&bytes).unwrap();
        assert!(encode_snapshot(&loaded, &db2).unwrap() == bytes, "round trip is byte-identical");

        let mut bad = bytes.clone();
        let entry = MAGIC.len() + 8 + (idx(KIND_CLASSES) - 1) * TABLE_ENTRY;
        let read_u64 = |at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[at..at + 8]);
            usize::try_from(u64::from_le_bytes(le)).unwrap()
        };
        let (offset, len) = (read_u64(entry + 4), read_u64(entry + 12));
        // After the u32 class count: the first class's tag.
        assert_eq!(bad[offset + 4], CLASS_TRIE);
        bad[offset + 4] = CLASS_RTREE;
        let crc = crc32(&bad[offset..offset + len]);
        bad[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        let footer_at = bad.len() - 4;
        let footer = crc32(&bad[..footer_at]);
        bad[footer_at..].copy_from_slice(&footer.to_le_bytes());
        match decode_snapshot(&bad) {
            Err(PersistError::Corrupt { message, .. }) => {
                assert!(
                    message.contains("R-tree class: unsupported, rebuild the store"),
                    "{message}"
                );
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
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
