//! Offline fsck ([`pis::check_store`]) against real durable stores:
//! a healthy store passes with the expected per-section tallies, every
//! corruption class comes back as a typed error, and checking never
//! modifies the store (a torn WAL tail is reported, not repaired —
//! unlike `DurableSystem::open`).

mod common;

use std::path::PathBuf;

use common::ring;
use pis::check_store;
use pis::durable::{SNAPSHOT_FILE, WAL_FILE};
use pis::index::PersistError;
use pis::prelude::*;

/// A per-test scratch directory, recreated on entry, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("pis-fsck-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_system() -> PisSystem {
    PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(3)
        .build(vec![ring(&[1, 1, 1, 1]), ring(&[1, 1, 2, 2]), ring(&[2, 2, 2, 2])])
}

#[test]
fn healthy_store_passes_with_expected_tallies() {
    let dir = TempDir::new("healthy");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    store.insert_graph(ring(&[1, 2, 1, 2])).unwrap();
    store.insert_graph(ring(&[2, 1, 1, 1])).unwrap();
    drop(store);

    let report = check_store(&dir.0).expect("healthy store must pass");
    assert_eq!(report.wal_records, 2);
    assert_eq!(report.wal_replayed, 2);
    assert_eq!(report.wal_skipped, 0);
    assert_eq!(report.torn_tail_bytes, 0);
    assert_eq!(report.graphs, 5);
    assert!(report.index.classes > 0);
    assert!(report.index.pending_entries > 0, "WAL replay lands in pending buffers");

    // After compaction the WAL is empty and everything is frozen.
    let mut store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    store.compact().unwrap();
    drop(store);
    let report = check_store(&dir.0).unwrap();
    assert_eq!(report.wal_records, 0);
    assert_eq!(report.index.pending_entries, 0);
    assert_eq!(report.graphs, 5);
}

#[test]
fn snapshot_bit_flip_is_a_typed_error() {
    let dir = TempDir::new("snapflip");
    drop(DurableSystem::create(&dir.0, base_system()).unwrap());
    let snap = dir.0.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(check_store(&dir.0), Err(PersistError::Corrupt { .. })));
}

#[test]
fn torn_wal_tail_is_reported_but_never_repaired() {
    let dir = TempDir::new("torn");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    store.insert_graph(ring(&[1, 2, 1, 2])).unwrap();
    store.insert_graph(ring(&[2, 1, 1, 1])).unwrap();
    drop(store);

    // Shear the last record in half — the shape a kill mid-append
    // leaves behind.
    let wal = dir.0.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    let torn = &bytes[..bytes.len() - 5];
    std::fs::write(&wal, torn).unwrap();

    let report = check_store(&dir.0).expect("a torn tail is survivable, not corruption");
    assert_eq!(report.wal_replayed, 1, "the complete first record still replays");
    assert!(report.torn_tail_bytes > 0);
    assert_eq!(report.graphs, 4);
    // Read-only: the torn bytes are still on disk afterwards.
    assert_eq!(std::fs::read(&wal).unwrap().len(), torn.len());
}

#[test]
fn mid_wal_corruption_and_gapped_records_are_typed_errors() {
    let dir = TempDir::new("midwal");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    store.insert_graph(ring(&[1, 2, 1, 2])).unwrap();
    store.insert_graph(ring(&[2, 1, 1, 1])).unwrap();
    drop(store);
    let wal = dir.0.join(WAL_FILE);
    let pristine = std::fs::read(&wal).unwrap();

    // A flipped byte inside the first (fsynced) record's payload.
    let mut bytes = pristine.clone();
    bytes[8 + 8 + 2] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
    assert!(matches!(check_store(&dir.0), Err(PersistError::Corrupt { .. })));

    // A record naming a graph past the end of the store (gap): rewrite
    // the first record's graph id and refresh its CRC so only the
    // replay-order check can catch it.
    let mut bytes = pristine;
    bytes[8 + 8] = 99;
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = pis::index::codec::crc32(&bytes[16..16 + len]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();
    match check_store(&dir.0) {
        Err(PersistError::Corrupt { message, .. }) => {
            assert!(message.contains("names graph"), "{message}");
        }
        other => panic!("gapped WAL must be typed corruption, got {other:?}"),
    }
}

/// A 4-ring whose every edge carries `weight`.
fn weighted_ring(weight: f64) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs = b.add_vertices(4, VertexAttr::labeled(Label(0)));
    for i in 0..4 {
        b.add_edge(vs[i], vs[(i + 1) % 4], EdgeAttr { label: Label(1), weight }).unwrap();
    }
    b.build()
}

#[test]
fn non_finite_weights_are_refused_before_any_byte_is_written() {
    let dir = TempDir::new("nonfinite");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    store.insert_graph(ring(&[1, 2, 1, 2])).unwrap();
    let wal_len = store.wal_len();
    for weight in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match store.insert_graph(weighted_ring(weight)) {
            Err(PersistError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{weight}: {e}");
            }
            other => panic!("a {weight} weight must be refused, got {other:?}"),
        }
        assert_eq!(store.wal_len(), wal_len, "nothing reaches the WAL");
    }
    assert_eq!(store.system().database().len(), 4);
    drop(store);
    let store = DurableSystem::open(&dir.0, PisConfig::default()).expect("store reopens");
    assert_eq!(store.system().database().len(), 4, "the acknowledged insert replays");
    drop(store);

    // The snapshot writer refuses such a database the same way.
    let other = TempDir::new("nonfinite-snapshot");
    let system = PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(2)
        .build(vec![ring(&[1, 1, 1, 1]), weighted_ring(f64::NAN)]);
    match DurableSystem::create(&other.0, system) {
        Err(PersistError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Err(e) => panic!("expected InvalidInput, got {e}"),
        Ok(_) => panic!("a NaN weight must not reach a snapshot"),
    }
    assert!(!other.0.join(SNAPSHOT_FILE).exists(), "no snapshot written");
}
