//! Crash-safe durable deployment: a checksummed binary snapshot plus a
//! write-ahead log, recovered on open.
//!
//! The durability contract:
//!
//! - [`DurableSystem::insert_graph`] returns only after the record is
//!   appended to the WAL **and fsynced** — an acknowledged insert
//!   survives any subsequent crash and is queryable after reopen.
//! - An insert interrupted before the fsync completes is cleanly
//!   absent after reopen (the torn tail is truncated away), never
//!   half-applied.
//! - [`DurableSystem::compact`] merges the pending structures,
//!   rotates a fresh snapshot into place atomically (temp + fsync +
//!   rename) and only then truncates the WAL. A crash between the two
//!   steps merely leaves stale records that replay idempotently.
//! - Corruption anywhere — snapshot or mid-log — surfaces as a typed
//!   [`PersistError`], never a panic; only a *torn tail* (the one
//!   shape a kill can legitimately produce) is repaired silently.

use std::path::{Path, PathBuf};

use pis_core::PisConfig;
use pis_graph::{GraphId, LabeledGraph};
use pis_index::{
    load_snapshot, wal, write_snapshot, FragmentIndex, IndexCheckReport, MergeStats, PersistError,
    Wal, WalReplay,
};

use crate::PisSystem;

/// What [`DurableSystem::open`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records applied on top of the snapshot (inserts acknowledged
    /// after the snapshot was taken).
    pub wal_records_replayed: usize,
    /// WAL records skipped because the snapshot already contained them
    /// (a crash interrupted compaction between snapshot rotation and
    /// WAL truncation).
    pub wal_records_skipped: usize,
    /// Bytes of torn (unacknowledged) tail truncated off the WAL.
    pub torn_tail_bytes: u64,
}

impl RecoveryReport {
    /// Whether open had anything to repair or replay.
    pub fn clean(&self) -> bool {
        self == &RecoveryReport::default()
    }
}

/// What [`check_store`] verified, section by section — the offline
/// fsck's evidence that a durable directory is internally consistent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreCheckReport {
    /// Size of `snapshot.pis` (all section and footer CRCs verified).
    pub snapshot_bytes: u64,
    /// Size of `wal.log` as found on disk.
    pub wal_bytes: u64,
    /// Complete, CRC-valid records in the WAL.
    pub wal_records: usize,
    /// WAL records the snapshot does not yet cover (replayed to verify
    /// they apply cleanly).
    pub wal_replayed: usize,
    /// WAL records already covered by the snapshot (stale but
    /// idempotent — a crash between snapshot rotation and WAL
    /// truncation leaves these).
    pub wal_skipped: usize,
    /// Bytes of torn (unacknowledged) tail past the last valid record.
    /// `check_store` never repairs; it only reports.
    pub torn_tail_bytes: u64,
    /// Graphs in the store after WAL replay.
    pub graphs: usize,
    /// Per-structure tallies from the deep index validation
    /// ([`pis_index::FragmentIndex::validate`]) after WAL replay.
    pub index: IndexCheckReport,
    /// Merge work the WAL replay cost (what `open` would pay too).
    pub merges: MergeStats,
}

/// Offline fsck of a durable directory: verifies every structural
/// invariant [`DurableSystem::open`] relies on, **without modifying the
/// store** (unlike `open`, a torn WAL tail is reported, not truncated).
///
/// Checks, in order: the snapshot's magic/version/section CRCs and
/// footer, the deep index invariants on the decoded structures (trie
/// arena tiling, trie depth against the class width, posting lists, for
/// the frozen and the pending trie alike), WAL framing, that every committed WAL
/// record replays cleanly on top of the snapshot, and the index
/// invariants again on the replayed state. Any violation surfaces as a
/// typed [`PersistError`] — never a panic.
pub fn check_store(dir: &Path) -> Result<StoreCheckReport, PersistError> {
    let invariant =
        |m: String| PersistError::Corrupt { offset: 0, message: format!("index invariant: {m}") };
    let snapshot_bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).map_err(PersistError::Io)?;
    // decode_snapshot validates CRCs and runs the deep index fsck.
    let (mut index, mut database) = pis_index::decode_snapshot(&snapshot_bytes)?;
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).map_err(PersistError::Io)?;
    let replay = wal::replay_bytes(&wal_bytes)?;
    let mut report = StoreCheckReport {
        snapshot_bytes: snapshot_bytes.len() as u64,
        wal_bytes: wal_bytes.len() as u64,
        wal_records: replay.records.len(),
        torn_tail_bytes: replay.torn_tail_bytes,
        ..StoreCheckReport::default()
    };
    (report.wal_replayed, report.wal_skipped) = apply_wal(&mut index, &mut database, replay)?;
    report.index = index.validate().map_err(invariant)?;
    report.merges = index.merge_stats();
    report.graphs = database.len();
    Ok(report)
}

/// Applies a scanned WAL on top of a loaded snapshot — the one replay
/// loop behind [`DurableSystem::open`] and [`check_store`] — and
/// returns how many records were `(replayed, skipped)`.
///
/// Records the snapshot already covers are skipped (compaction crashed
/// after the snapshot rename but before the WAL truncation; replaying
/// them is idempotent by omission). The rest must continue the
/// database without a gap: a record naming a graph past the next id is
/// a [`PersistError::Corrupt`] at `replay.valid_len` — every frame
/// passed its CRC, so the fault is the sequence the scanned prefix
/// holds, not one byte of it — and nothing is applied. The surviving
/// run goes through [`FragmentIndex::insert_graphs_pending`]
/// as one batch, so recovery merges each class at most once.
fn apply_wal(
    index: &mut FragmentIndex,
    database: &mut Vec<LabeledGraph>,
    replay: WalReplay,
) -> Result<(usize, usize), PersistError> {
    let mut run: Vec<LabeledGraph> = Vec::new();
    let mut skipped = 0;
    for (gid, graph) in replay.records {
        let next = database.len() + run.len();
        if gid.index() < next {
            skipped += 1;
        } else if gid.index() > next {
            return Err(PersistError::Corrupt {
                offset: replay.valid_len,
                message: format!(
                    "WAL names graph {} but the store holds {next} graphs",
                    gid.index()
                ),
            });
        } else {
            run.push(graph);
        }
    }
    index.insert_graphs_pending(&run);
    let replayed = run.len();
    database.append(&mut run);
    Ok((replayed, skipped))
}

/// A [`PisSystem`] bound to an on-disk directory (`snapshot.pis` +
/// `wal.log`) with write-ahead-logged inserts.
pub struct DurableSystem {
    system: PisSystem,
    wal: Wal,
    snapshot_path: PathBuf,
    report: RecoveryReport,
}

/// File name of the binary snapshot inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pis";
/// File name of the write-ahead log inside a durable directory.
pub const WAL_FILE: &str = "wal.log";

impl DurableSystem {
    /// Initializes `dir` from an in-memory system: writes the first
    /// snapshot (compacting pending structures first) and an empty WAL.
    pub fn create(dir: &Path, mut system: PisSystem) -> Result<DurableSystem, PersistError> {
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        write_snapshot(&snapshot_path, &mut system.index, &system.database)?;
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE))?;
        // Stale records from a previous deployment in the same
        // directory must not replay over the fresh snapshot.
        wal.reset().map_err(PersistError::Io)?;
        Ok(DurableSystem { system, wal, snapshot_path, report: RecoveryReport::default() })
    }

    /// Opens a directory written by [`DurableSystem::create`]: loads and
    /// validates the snapshot, repairs a torn WAL tail, and replays
    /// every committed WAL record into the pending structures.
    pub fn open(dir: &Path, config: PisConfig) -> Result<DurableSystem, PersistError> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (index, database) = load_snapshot(&snapshot_path)?;
        let mut system = PisSystem { database, index, config };
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let torn_tail_bytes = replay.torn_tail_bytes;
        let (wal_records_replayed, wal_records_skipped) =
            apply_wal(&mut system.index, &mut system.database, replay)?;
        let report = RecoveryReport { wal_records_replayed, wal_records_skipped, torn_tail_bytes };
        Ok(DurableSystem { system, wal, snapshot_path, report })
    }

    /// Durably inserts a graph: the WAL record is fsynced before the
    /// in-memory system is touched, so a returned id is a promise the
    /// insert survives a crash. On error nothing was applied.
    pub fn insert_graph(&mut self, graph: LabeledGraph) -> Result<GraphId, PersistError> {
        let gid = GraphId(self.system.database.len() as u32);
        self.wal.append(gid, &graph)?;
        let applied = self.system.index.insert_graph_pending(&graph);
        debug_assert_eq!(applied, gid);
        self.system.database.push(graph);
        Ok(gid)
    }

    /// Merges pending structures into the frozen ones, rotates a
    /// fresh snapshot into place and truncates the WAL.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        write_snapshot(&self.snapshot_path, &mut self.system.index, &self.system.database)?;
        self.wal.reset().map_err(PersistError::Io)?;
        Ok(())
    }

    /// What recovery found when this store was opened.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The wrapped system (all query entry points).
    pub fn system(&self) -> &PisSystem {
        &self.system
    }

    /// Consumes the store, detaching the in-memory system from disk.
    pub fn into_system(self) -> PisSystem {
        self.system
    }

    /// Entries awaiting a merge in the pending structures.
    pub fn pending_entries(&self) -> usize {
        self.system.index().pending_entries()
    }

    /// Committed WAL bytes (8 when empty — the magic header).
    pub fn wal_len(&self) -> u64 {
        self.wal.committed_len()
    }
}
