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

/// A valid snapshot (index + database) for mutation over.
fn valid_snapshot() -> Vec<u8> {
    let db = vec![ring(&[1, 1, 1, 1]), ring(&[1, 2, 1, 2]), ring(&[2, 2, 2, 2])];
    let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
    let index = FragmentIndex::build(
        &db,
        exhaustive_features(&structures, 3),
        IndexDistance::Mutation(MutationDistance::edge_hamming()),
        &IndexConfig::default(),
    );
    encode_snapshot(&index, &db).unwrap()
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

/// A snapshot written when VP-tree classes existed (class tags `1` and
/// `3`) is intact by every checksum and still unreadable: patching the
/// first class tag and refreshing the CLASSES and footer CRCs must
/// decode to a typed corruption error naming the class, not a panic.
#[test]
fn retired_class_tags_are_typed_corruption() {
    for tag in [1u8, 3] {
        let mut bytes = valid_snapshot();
        // CLASSES is the fourth entry of the section table, which
        // follows magic(8) + version(4) + section_count(4); an entry is
        // kind(4) + offset(8) + len(8) + crc(4).
        let entry = 16 + 3 * 24;
        let field = |at: usize| {
            usize::try_from(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())).unwrap()
        };
        let (offset, len) = (field(entry + 4), field(entry + 12));
        // Payload: class count (u32), then the first class's tag.
        assert_eq!(bytes[offset + 4], 0, "the first class is a trie");
        bytes[offset + 4] = tag;
        let section_crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 24].copy_from_slice(&section_crc.to_le_bytes());
        let footer_at = bytes.len() - 4;
        let footer_crc = crc32(&bytes[..footer_at]);
        bytes[footer_at..].copy_from_slice(&footer_crc.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(PersistError::Corrupt { message, .. }) => {
                assert!(message.contains("VP-tree class"), "tag {tag}: {message}");
            }
            other => panic!("tag {tag} must be typed corruption, got {:?}", other.map(|_| ())),
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
