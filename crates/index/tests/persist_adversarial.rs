//! Adversarial corpus for the persistence layer: the binary snapshot
//! ([`pis_index::decode_snapshot`]) and the write-ahead log
//! ([`pis_index::wal`]).
//!
//! A persisted index is untrusted input: a truncated copy, a bit-flipped
//! sector or a hand-edited file must come back as a typed
//! [`PersistError`], never a panic or an unbounded allocation. The
//! deterministic cases below cover the regions whose fields drive every
//! later offset; the proptest sweeps mutate a valid save at random
//! positions and assert the loader survives every variant.

use pis_distance::MutationDistance;
use pis_graph::{EdgeAttr, GraphBuilder, GraphId, Label, LabeledGraph, VertexAttr};
use pis_index::codec::crc32;
use pis_index::{
    decode_snapshot, encode_snapshot, wal, FragmentBuffer, FragmentIndex, IndexConfig,
    IndexDistance, PersistError, RangeScratch,
};
use pis_mining::exhaustive::exhaustive_features;
use proptest::prelude::*;

fn ring(labels: &[u32]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let n = labels.len();
    let vs = b.add_vertices(n, VertexAttr::labeled(Label(0)));
    for (i, &l) in labels.iter().enumerate() {
        b.add_edge(vs[i], vs[(i + 1) % n], EdgeAttr::labeled(Label(l))).unwrap();
    }
    b.build()
}

// ---------------------------------------------------------------------
// Binary snapshot format
// ---------------------------------------------------------------------

/// A valid snapshot (index + database) for mutation over, and the trie
/// depth of its first class.
fn valid_snapshot_and_depth() -> (Vec<u8>, usize) {
    let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
    let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
    let index = FragmentIndex::build(
        &db,
        exhaustive_features(&structures, 3),
        IndexDistance::Mutation(MutationDistance::edge_hamming()),
        &IndexConfig::default(),
    );
    // A mutation-distance class is as deep as the slots it stores: the
    // edges alone under edge-Hamming.
    let first = &index.features().iter().next().unwrap().structure;
    let (edges, vertices) = index.distance().slots(first);
    (encode_snapshot(&index, &db).unwrap(), edges + vertices)
}

fn valid_snapshot() -> Vec<u8> {
    valid_snapshot_and_depth().0
}

/// Decodes and demands a typed outcome: `Ok` (the mutation happened to
/// be harmless) or a `PersistError` — anything else is a panic and
/// fails the test on its own.
fn snapshot_survives(bytes: &[u8]) -> Result<(), String> {
    match decode_snapshot(bytes) {
        Ok(_) => Ok(()),
        Err(PersistError::Io(_)) | Err(PersistError::Corrupt { .. }) => Ok(()),
    }
}

/// Truncation at *every* byte boundary of the header and section table
/// — the region whose fields drive all later offsets — is a typed
/// error. (The proptest below sweeps the payload region too.)
#[test]
fn snapshot_header_truncations_are_exhaustively_typed() {
    let bytes = valid_snapshot();
    // magic(8) + version(4) + section_count(4) + 4 table entries of 24.
    let header_len = 8 + 4 + 4 + 4 * 24;
    assert!(bytes.len() > header_len);
    for cut in 0..=header_len {
        assert!(
            matches!(decode_snapshot(&bytes[..cut]), Err(PersistError::Corrupt { .. })),
            "header truncation to {cut} bytes must be a typed corruption error"
        );
    }
}

/// Every single-byte overwrite of the whole file is caught: the footer
/// checksum covers every byte before it, and a flip inside the footer
/// itself breaks the checksum comparison.
#[test]
fn snapshot_bit_flip_corpus_is_always_rejected() {
    let bytes = valid_snapshot();
    // Step through the file; XOR with a non-zero pattern at each spot.
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x20;
        assert!(
            matches!(decode_snapshot(&bad), Err(PersistError::Corrupt { .. })),
            "bit flip at byte {pos} must be rejected"
        );
    }
}

/// The CLASSES entry of the section table, which follows magic(8) +
/// version(4) + section_count(4); an entry is kind(4) + offset(8) +
/// len(8) + crc(4).
const CLASSES_ENTRY: usize = 16 + 3 * 24;

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn write_u32(bytes: &mut [u8], at: usize, x: u32) {
    bytes[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

/// The CLASSES payload's `(offset, len)`.
fn classes_range(bytes: &[u8]) -> (usize, usize) {
    let field = |at: usize| {
        usize::try_from(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())).unwrap()
    };
    (field(CLASSES_ENTRY + 4), field(CLASSES_ENTRY + 12))
}

/// Re-stamps the CLASSES section's and the footer's checksums after an
/// in-place edit, so that only a check on the content can catch it.
fn refresh_checksums(bytes: &mut [u8]) {
    let (offset, len) = classes_range(bytes);
    let section_crc = crc32(&bytes[offset..offset + len]);
    write_u32(bytes, CLASSES_ENTRY + 20, section_crc);
    let footer_at = bytes.len() - 4;
    let footer_crc = crc32(&bytes[..footer_at]);
    write_u32(bytes, footer_at, footer_crc);
}

/// One sequence of a class stream: the byte positions of its split
/// level, of its first label and of its run length, with its split,
/// its full label path and its run.
struct Sequence {
    split_at: usize,
    labels_at: usize,
    run_at: usize,
    split: usize,
    path: Vec<u32>,
    run: Vec<u32>,
}

/// Reads the first class of the CLASSES section — a `depth`-deep trie —
/// as the snapshot lays it out: its posting-list length, the position
/// of its sequence count, and its sequences.
fn first_class(bytes: &[u8], depth: usize) -> (u32, usize, Vec<Sequence>) {
    let (offset, _) = classes_range(bytes);
    // After the class count: the posting list, then the trie stream.
    let class_size = read_u32(bytes, offset + 4);
    let count_at = offset + 8 + 4 * class_size as usize;
    let mut at = count_at + 4;
    let mut path = vec![0; depth];
    let mut sequences = Vec::new();
    for _ in 0..read_u32(bytes, count_at) {
        let (split_at, split) = (at, read_u32(bytes, at) as usize);
        let labels_at = at + 4;
        for (l, label) in path.iter_mut().enumerate().skip(split) {
            *label = read_u32(bytes, labels_at + 4 * (l - split));
        }
        let run_at = labels_at + 4 * (depth - split);
        let run: Vec<u32> = (0..read_u32(bytes, run_at) as usize)
            .map(|k| read_u32(bytes, run_at + 4 + 4 * k))
            .collect();
        at = run_at + 4 + 4 * run.len();
        sequences.push(Sequence { split_at, labels_at, run_at, split, path: path.clone(), run });
    }
    (class_size, count_at, sequences)
}

/// Every check the decoder makes on a class stream, each tripped alone
/// by one in-place edit of a valid snapshot whose checksums are then
/// re-stamped: a typed corruption error naming that check, never a
/// panic and never another check.
#[test]
fn class_stream_checks_are_typed_corruption() {
    let (bytes, depth) = valid_snapshot_and_depth();
    let (class_size, count_at, seqs) = first_class(&bytes, depth);
    assert!(depth > 0 && seqs.len() >= 2, "the first class holds two sequences");
    let wide = seqs.iter().find(|s| s.run.len() >= 2).expect("a run of two postings");
    let second = &seqs[1];
    let expect = |at: usize, value: u32, check: &str| {
        let mut bad = bytes.clone();
        write_u32(&mut bad, at, value);
        refresh_checksums(&mut bad);
        match decode_snapshot(&bad) {
            Err(PersistError::Corrupt { message, .. }) => {
                assert!(message.contains(check), "expected {check:?}, got {message:?}");
            }
            other => panic!("{check}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    };
    // Counts are bounded by the bytes present.
    expect(count_at, u32::MAX, "trie sequence count 4294967295 exceeds");
    expect(seqs[0].run_at, u32::MAX, "trie run length 4294967295 exceeds");
    // The first sequence splits at level 0, every later one above the
    // leaves' level.
    expect(seqs[0].split_at, 1, "trie sequence 0 splits at level 1");
    let at_depth = format!("trie sequence 1 splits at level {depth} of a {depth}-deep trie");
    expect(second.split_at, depth as u32, &at_depth);
    // Each sequence's label at its split exceeds its predecessor's.
    let tie = seqs[0].path[second.split];
    expect(second.labels_at, tie, "trie sequence 1 does not follow its predecessor");
    // Every run is non-empty, strictly ascending and inside the class.
    expect(seqs[0].run_at, 0, "trie sequence 0 has no postings");
    expect(wide.run_at + 8, wide.run[0], "postings are not strictly ascending");
    let past = format!("trie posting slot {class_size} exceeds the {class_size}-graph class");
    expect(seqs[0].run_at + 4, class_size, &past);
}

/// A version-1 snapshot — one that stored the trie arena columns — and
/// a version-2 one — one that stored every label slot, priced or not —
/// are refused with a typed error naming the version and the remedy.
#[test]
fn version_one_snapshots_are_typed_corruption() {
    for version in [1, 2] {
        let mut bytes = valid_snapshot();
        write_u32(&mut bytes, 8, version);
        refresh_checksums(&mut bytes);
        match decode_snapshot(&bytes) {
            Err(PersistError::Corrupt { message, .. }) => {
                assert!(message.contains(&format!("version {version}")), "{message}");
                assert!(message.contains("rebuild the store with `pis build`"), "{message}");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a snapshot anywhere never panics the decoder.
    #[test]
    fn snapshot_truncations_never_panic(frac in 0usize..10_000) {
        let bytes = valid_snapshot();
        let cut = bytes.len() * frac / 10_000;
        prop_assert!(snapshot_survives(&bytes[..cut]).is_ok());
    }

    /// Single-byte corruption (overwrite, insert, delete) at any
    /// position never panics the decoder.
    #[test]
    fn snapshot_byte_mutations_never_panic(
        pos in 0usize..100_000,
        byte in 0u8..=255,
        kind in 0u8..3,
    ) {
        let mut bytes = valid_snapshot();
        let pos = pos % bytes.len();
        match kind {
            0 => bytes[pos] = byte,
            1 => bytes.insert(pos, byte),
            _ => { bytes.remove(pos); }
        }
        prop_assert!(snapshot_survives(&bytes).is_ok());
    }
}

// ---------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------

/// A valid WAL byte stream holding `graphs` as records `base..`.
fn valid_wal(graphs: &[LabeledGraph], base: u32) -> Vec<u8> {
    let mut bytes = wal::MAGIC.to_vec();
    for (i, g) in graphs.iter().enumerate() {
        bytes.extend_from_slice(&wal::encode_record(GraphId(base + i as u32), g).unwrap());
    }
    bytes
}

/// The crash-tolerance line: a *torn tail* (any truncation past the
/// magic) is accepted with the complete prefix intact, while corruption
/// *inside* a complete record is rejected — fsynced history never
/// silently shrinks.
#[test]
fn wal_torn_tail_is_accepted_mid_log_corruption_is_not() {
    let graphs = [ring(&[1, 2, 1, 2]), ring(&[2, 2, 1, 1])];
    let bytes = valid_wal(&graphs, 3);
    let first_record_end =
        wal::MAGIC.len() + wal::encode_record(GraphId(3), &graphs[0]).unwrap().len();

    // Truncation at every byte boundary: a kill can only shorten the
    // file, and every such file must open.
    for cut in wal::MAGIC.len()..=bytes.len() {
        let replay = wal::replay_bytes(&bytes[..cut]).unwrap_or_else(|e| {
            panic!("truncation to {cut} bytes must be accepted as a torn tail, got {e}")
        });
        let expect = usize::from(cut >= first_record_end) + usize::from(cut >= bytes.len());
        assert_eq!(replay.records.len(), expect, "complete prefix must survive (cut {cut})");
        assert_eq!(replay.valid_len as usize + replay.torn_tail_bytes as usize, cut);
    }

    // A byte flip inside the *first* (complete, fsynced) record is not
    // a torn tail: typed rejection, no silent data loss.
    let mut bad = bytes.clone();
    bad[wal::MAGIC.len() + 8 + 2] ^= 0x01;
    assert!(matches!(wal::replay_bytes(&bad), Err(PersistError::Corrupt { .. })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte mutation of a WAL stream is either survivable
    /// (torn tail / happens to stay valid) or a typed error.
    #[test]
    fn wal_byte_mutations_never_panic(
        pos in 0usize..100_000,
        byte in 0u8..=255,
        kind in 0u8..3,
    ) {
        let mut bytes = valid_wal(&[ring(&[1, 2, 1, 2]), ring(&[2, 2, 1, 1])], 0);
        let pos = pos % bytes.len();
        match kind {
            0 => bytes[pos] = byte,
            1 => bytes.insert(pos, byte),
            _ => { bytes.remove(pos); }
        }
        match wal::replay_bytes(&bytes) {
            Ok(_) | Err(PersistError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot → WAL replay → query: bit-identity with the live index
// ---------------------------------------------------------------------

/// All (feature, probe, σ) answers, distances as raw bits.
fn fingerprint(index: &FragmentIndex, queries: &[LabeledGraph]) -> Vec<(u32, GraphId, u64)> {
    let (mut frags, mut scratch) = (FragmentBuffer::new(), RangeScratch::new());
    let (mut out, mut hits) = (Vec::new(), Vec::new());
    for (qi, q) in queries.iter().enumerate() {
        index.enumerate_query_fragments_into(q, &mut frags);
        for i in 0..frags.len() {
            for sigma in [0.0, 1.0, 2.5, 1e9] {
                let (feature, probe) = (frags.feature(i), frags.vector(i));
                index.range_query_normalized_into(feature, probe, sigma, &mut scratch, &mut hits);
                hits.sort_by_key(|&(g, d)| (g.0, d.to_bits()));
                out.extend(hits.iter().map(|&(g, d)| (qi as u32, g, d.to_bits())));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full durability pipeline — snapshot the frozen index, log
    /// later inserts to a WAL, decode + replay — answers every range
    /// query bit-identically (f64 payloads included) to the live
    /// in-memory index that never touched disk.
    #[test]
    fn snapshot_plus_wal_replay_is_bit_identical_to_live(
        extra in prop::collection::vec(prop::collection::vec(1u32..4, 4), 1..4),
    ) {
        let mut db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = exhaustive_features(&structures, 3);
        let distance = IndexDistance::Mutation(MutationDistance::edge_hamming());
        let config = IndexConfig::default();

        // Live side: never persisted.
        let mut live = FragmentIndex::build(&db, features.clone(), distance.clone(), &config);
        // Durable side: snapshot now, WAL the rest.
        let durable_base = FragmentIndex::build(&db, features, distance, &config);
        let snapshot = encode_snapshot(&durable_base, &db).unwrap();
        let incoming: Vec<LabeledGraph> = extra.iter().map(|ls| ring(ls)).collect();
        let wal_bytes = valid_wal(&incoming, db.len() as u32);

        for g in &incoming {
            live.insert_graph_pending(g);
            db.push(g.clone());
        }

        let (mut restored, restored_db) = decode_snapshot(&snapshot).unwrap();
        let replay = wal::replay_bytes(&wal_bytes).unwrap();
        prop_assert_eq!(replay.torn_tail_bytes, 0);
        for (i, (gid, g)) in replay.records.into_iter().enumerate() {
            prop_assert_eq!(gid.index(), restored_db.len() + i);
            restored.insert_graph_pending(&g);
        }

        prop_assert_eq!(fingerprint(&live, &db), fingerprint(&restored, &db));
    }
}
