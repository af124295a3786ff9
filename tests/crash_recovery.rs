//! Crash-recovery tier (runs only with `--features failpoints`).
//!
//! Deterministic kill-points inside the durability layer — mid WAL
//! append, mid fsync, mid snapshot write, before the snapshot rename,
//! between snapshot rotation and WAL truncation — prove the contract:
//! every *acknowledged* insert is queryable after reopen, an
//! unacknowledged one is cleanly absent, a half-compacted store
//! recovers idempotently, and corruption of either file is a typed
//! error, never a panic.
#![cfg(feature = "failpoints")]

mod common;

use std::path::PathBuf;
use std::sync::Mutex;

use common::ring;
use pis::index::PersistError;
use pis::prelude::*;

/// The failpoint registry is process-global: every test serializes
/// itself behind this lock and disarms on entry and exit.
static SERIAL: Mutex<()> = Mutex::new(());

/// A per-test scratch directory, recreated on entry, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("pis-crash-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn db() -> Vec<LabeledGraph> {
    vec![ring(&[1, 1, 1, 1]), ring(&[1, 1, 2, 2]), ring(&[2, 2, 2, 2])]
}

fn incoming() -> Vec<LabeledGraph> {
    vec![ring(&[1, 2, 1, 2]), ring(&[2, 1, 1, 1]), ring(&[3, 1, 2, 1])]
}

fn base_system() -> PisSystem {
    PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(3)
        .build(db())
}

/// Asserts `graph` (inserted as `gid`) is an answer to its own σ=0
/// query — the "acknowledged ⇒ queryable" half of the contract.
fn assert_queryable(store: &DurableSystem, graph: &LabeledGraph, gid: GraphId, context: &str) {
    let hits = store.system().search(graph, 0.0);
    assert!(hits.answers.contains(&gid), "{context}: acknowledged graph {gid} not queryable");
}

#[test]
fn clean_lifecycle_acknowledged_inserts_survive_reopen() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("clean");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let mut acked = Vec::new();
    for g in incoming() {
        let gid = store.insert_graph(g.clone()).expect("no failpoints armed");
        acked.push((g, gid));
    }
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_replayed, acked.len());
    assert_eq!(store.report().wal_records_skipped, 0);
    assert_eq!(store.report().torn_tail_bytes, 0);
    assert_eq!(store.system().database().len(), db().len() + acked.len());
    for (g, gid) in &acked {
        assert_queryable(&store, g, *gid, "clean reopen");
    }
}

#[test]
fn compaction_empties_the_wal_and_keeps_every_answer() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("compact");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let mut acked = Vec::new();
    for g in incoming() {
        let gid = store.insert_graph(g.clone()).unwrap();
        acked.push((g, gid));
    }
    store.compact().unwrap();
    assert_eq!(store.pending_entries(), 0);
    assert_eq!(store.wal_len(), 8, "a compacted WAL holds only its magic header");
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert!(store.report().clean(), "nothing to replay after compaction: {:?}", store.report());
    for (g, gid) in &acked {
        assert_queryable(&store, g, *gid, "post-compaction reopen");
    }
}

/// Recovery applies the WAL tail as one batch: a 50-record replay
/// re-freezes each class at most once (one insert at a time, the same
/// records cost a merge per class every few graphs), reports the same
/// counts, and serves the same answers as a store that never went down.
#[test]
fn replay_of_a_long_wal_tail_merges_each_class_at_most_once() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    // 150 deterministic 4-rings: 100 in the snapshot, 50 in the WAL, so
    // no class's pending run outgrows its frozen arena mid-replay.
    let mut x = 20060403u64;
    let mut label = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        1 + (x >> 33) as u32 % 3
    };
    let rings: Vec<LabeledGraph> =
        (0..150).map(|_| ring(&[label(), label(), label(), label()])).collect();
    let (base, tail) = rings.split_at(100);
    let build = || {
        PisSystem::builder()
            .mutation_distance(MutationDistance::edge_hamming())
            .exhaustive_features(3)
            .build(base.to_vec())
    };
    let dir = TempDir::new("long-tail");
    let mut store = DurableSystem::create(&dir.0, build()).unwrap();
    let mut live = build();
    for g in tail {
        store.insert_graph(g.clone()).unwrap();
        live.insert_graph(g.clone());
    }
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    let report = store.report();
    assert_eq!(report.wal_records_replayed, tail.len());
    assert_eq!((report.wal_records_skipped, report.torn_tail_bytes), (0, 0));
    let index = store.system().index();
    let merges = index.merge_stats().merges as usize;
    assert!(merges >= 1, "the tail crosses the merge threshold");
    assert!(merges <= index.features().len(), "{merges} merges replaying {} records", tail.len());
    for f in index.features().iter() {
        // The index's merge threshold.
        assert!(index.class_pending_entries(f.id) < 64);
    }
    for q in rings.iter().step_by(7) {
        for sigma in [0.0, 1.0, 2.0] {
            assert_eq!(store.system().search(q, sigma).answers, live.search(q, sigma).answers);
        }
    }
}

/// A kill mid WAL append: the insert errors (never acknowledged), the
/// torn half-frame is truncated on reopen, and the store keeps working
/// — including on the *same* handle, which self-heals its tail.
#[test]
fn crash_mid_wal_append_loses_only_the_unacknowledged_insert() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("wal-append");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let first = store.insert_graph(incoming()[0].clone()).unwrap();

    failpoints::arm("wal-append", 1);
    let torn = store.insert_graph(incoming()[1].clone());
    failpoints::disarm_all();
    assert!(torn.is_err(), "an insert killed mid-append must not be acknowledged");
    assert_eq!(store.system().database().len(), db().len() + 1, "failed insert not applied");

    // The same handle recovers: the next append truncates the torn tail.
    let healed = store.insert_graph(incoming()[2].clone()).unwrap();
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_replayed, 2);
    assert_eq!(store.report().torn_tail_bytes, 0, "the healed append overwrote the torn bytes");
    assert_queryable(&store, &incoming()[0], first, "survivor");
    assert_queryable(&store, &incoming()[2], healed, "post-heal insert");
    assert_eq!(store.system().database().len(), db().len() + 2);
}

/// A kill where the append's bytes reached the file but the fsync never
/// completed (the kernel may drop them): unacknowledged, cleanly absent.
#[test]
fn crash_in_wal_fsync_is_unacknowledged_and_absent() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("wal-fsync");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let first = store.insert_graph(incoming()[0].clone()).unwrap();

    failpoints::arm("wal-fsync", 1);
    let lost = store.insert_graph(incoming()[1].clone());
    failpoints::disarm_all();
    assert!(lost.is_err());
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_replayed, 1, "only the acknowledged insert replays");
    assert_eq!(store.report().torn_tail_bytes, 0, "unsynced bytes never hit the durable file");
    assert_queryable(&store, &incoming()[0], first, "acknowledged survivor");
    assert_eq!(store.system().database().len(), db().len() + 1);
}

/// Kills inside snapshot rotation — mid temp-file write, and after the
/// temp file is complete but before the rename — must both leave the
/// previous snapshot + WAL pair fully intact.
#[test]
fn crash_during_snapshot_rotation_keeps_the_old_store() {
    let _guard = SERIAL.lock().unwrap();
    for site in ["snapshot-write", "snapshot-rename"] {
        failpoints::disarm_all();
        let dir = TempDir::new(site);
        let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
        let mut acked = Vec::new();
        for g in incoming() {
            acked.push((g.clone(), store.insert_graph(g).unwrap()));
        }

        failpoints::arm(site, 1);
        assert!(store.compact().is_err(), "{site}: compaction must surface the crash");
        failpoints::disarm_all();
        drop(store);

        let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
        assert_eq!(
            store.report().wal_records_replayed,
            acked.len(),
            "{site}: the old snapshot still needs every WAL record"
        );
        for (g, gid) in &acked {
            assert_queryable(&store, g, *gid, site);
        }
    }
}

/// A kill *between* snapshot rotation and WAL truncation: the stale WAL
/// records are already covered by the new snapshot and replay
/// idempotently (skipped, not duplicated).
#[test]
fn crash_between_snapshot_and_wal_truncation_replays_idempotently() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("compact-truncate");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let mut acked = Vec::new();
    for g in incoming() {
        acked.push((g.clone(), store.insert_graph(g).unwrap()));
    }

    failpoints::arm("compact-truncate", 1);
    assert!(store.compact().is_err());
    failpoints::disarm_all();
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_skipped, acked.len(), "stale records must be skipped");
    assert_eq!(store.report().wal_records_replayed, 0);
    assert_eq!(store.system().database().len(), db().len() + acked.len(), "no duplicates");
    for (g, gid) in &acked {
        assert_queryable(&store, g, *gid, "idempotent replay");
    }
}

/// A panic at the append failpoint (modeling a crashed thread rather
/// than a killed process) leaves the on-disk pair reopenable.
#[test]
fn append_panic_leaves_the_store_reopenable() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("append-panic");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    let first = store.insert_graph(incoming()[0].clone()).unwrap();

    failpoints::arm_panic("wal-append", 1);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = store.insert_graph(incoming()[1].clone());
    }));
    failpoints::disarm_all();
    assert!(panicked.is_err(), "the armed panic must surface");
    drop(store);

    let store = DurableSystem::open(&dir.0, PisConfig::default()).unwrap();
    assert_eq!(store.report().wal_records_replayed, 1);
    assert_queryable(&store, &incoming()[0], first, "after append panic");
}

/// Bit rot in either on-disk file is a typed [`PersistError::Corrupt`]
/// on open — never a panic, never silent acceptance.
#[test]
fn corruption_of_either_file_is_a_typed_error() {
    let _guard = SERIAL.lock().unwrap();
    failpoints::disarm_all();
    let dir = TempDir::new("bitrot");
    let mut store = DurableSystem::create(&dir.0, base_system()).unwrap();
    for g in incoming() {
        store.insert_graph(g).unwrap();
    }
    drop(store);

    for file in ["wal.log", "snapshot.pis"] {
        let path = dir.0.join(file);
        let pristine = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record / first section — well
        // past the header so the magic stays valid.
        let mut bad = pristine.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        match DurableSystem::open(&dir.0, PisConfig::default()) {
            Err(PersistError::Corrupt { .. }) => {}
            Err(other) => panic!("{file}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{file}: corruption accepted silently"),
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    // Restored byte-for-byte, the store opens again.
    assert!(DurableSystem::open(&dir.0, PisConfig::default()).is_ok());
}
