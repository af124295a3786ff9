//! Write-ahead log for acknowledged inserts.
//!
//! A snapshot captures the index at a point in time; every insert after
//! it is first appended here — length-prefixed, checksummed, fsynced —
//! and only then acknowledged and applied in memory. On reopen the log
//! is replayed on top of the snapshot, so a crash at any point loses
//! nothing that was acknowledged.
//!
//! Crash semantics at the tail: a final record whose frame extends past
//! end-of-file is a *torn tail* — the process died mid-append before
//! the fsync, so the insert was never acknowledged — and is truncated
//! away with a warning count in the [`WalReplay`] report. A *complete*
//! frame that fails its CRC or does not parse is corruption (bit rot,
//! not a crash) and is rejected with a typed
//! [`PersistError::Corrupt`] — replaying past it could resurrect
//! arbitrary garbage as acknowledged data. One known ambiguity is
//! accepted: a bit flip in the final record's length field that pushes
//! the frame past end-of-file is indistinguishable from a torn append
//! and is treated as one.

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

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use pis_graph::io::{parse_database, write_database};
use pis_graph::{GraphId, LabeledGraph};

use crate::codec::{
    check_finite_weights, crash_point, crc32, len64, open_append, u32_of, ByteReader, ByteWriter,
};
use crate::persist::PersistError;

/// Log magic + version.
/// Magic header opening every WAL file.
pub const MAGIC: &[u8; 8] = b"PISWAL01";

/// Frame header: u32 payload length + u32 payload CRC32.
const FRAME_HEADER: usize = 8;

/// Encodes one insert record frame: `[len][crc32][payload]` where the
/// payload is the little-endian graph id followed by the graph in the
/// text database format (whose float `Display` is shortest-round-trip,
/// hence bit-exact on replay). A graph with a non-finite weight is
/// refused, since its record would not replay.
pub fn encode_record(gid: GraphId, graph: &LabeledGraph) -> Result<Vec<u8>, PersistError> {
    check_finite_weights(graph)?;
    let mut payload = ByteWriter::new();
    payload.u32(gid.0);
    payload.bytes(write_database(std::slice::from_ref(graph)).as_bytes());
    let mut frame = ByteWriter::new();
    frame.u32(u32_of(payload.len(), "record length")?);
    frame.u32(crc32(payload.as_slice()));
    frame.bytes(payload.as_slice());
    Ok(frame.into_bytes())
}

/// Outcome of scanning a log: the decoded records plus what the scan
/// had to do to the tail.
#[derive(Debug)]
pub struct WalReplay {
    /// Acknowledged `(id, graph)` records, in append order.
    pub records: Vec<(GraphId, LabeledGraph)>,
    /// Byte length of the valid prefix (magic + complete records).
    pub valid_len: u64,
    /// Bytes of torn tail past the valid prefix (0 = clean shutdown).
    pub torn_tail_bytes: u64,
}

/// Scans raw log bytes into records, distinguishing a torn tail
/// (tolerated, truncated) from mid-log corruption (typed error).
pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay, PersistError> {
    if bytes.len() < MAGIC.len() {
        // Only a crash during the very first magic write can leave
        // this; nothing was ever acknowledged on top of it.
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            torn_tail_bytes: len64(bytes.len()),
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::Corrupt { offset: 0, message: "bad WAL magic".to_string() });
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER {
            // Partial frame header: torn append.
            break;
        }
        let mut r = ByteReader::new(&bytes[pos..pos + FRAME_HEADER], len64(pos));
        let len = r.u32_usize("record length")?;
        let crc = r.u32("record checksum")?;
        if bytes.len() - pos - FRAME_HEADER < len {
            // Frame extends past end-of-file: torn append (or a length
            // bit-flip in the final record — indistinguishable, see the
            // module docs).
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Err(PersistError::Corrupt {
                offset: len64(pos),
                message: "WAL record checksum mismatch".to_string(),
            });
        }
        records.push(decode_payload(payload, len64(pos + FRAME_HEADER))?);
        pos += FRAME_HEADER + len;
    }
    Ok(WalReplay { records, valid_len: len64(pos), torn_tail_bytes: len64(bytes.len() - pos) })
}

/// Decodes one checksummed payload: graph id + exactly one graph.
fn decode_payload(payload: &[u8], base: u64) -> Result<(GraphId, LabeledGraph), PersistError> {
    let mut r = ByteReader::new(payload, base);
    let gid = GraphId(r.u32("record graph id")?);
    let text = std::str::from_utf8(r.bytes(r.remaining(), "record graph text")?)
        .map_err(|_| r.corrupt("record graph text is not UTF-8"))?;
    let graphs =
        parse_database(text).map_err(|e| r.corrupt(&format!("record graph unparsable: {e}")))?;
    if graphs.len() != 1 {
        return Err(r.corrupt(&format!("record holds {} graphs, expected 1", graphs.len())));
    }
    // `pop` is Some by the length check; let-else keeps the decoder
    // panic-free on untrusted bytes.
    let mut graphs = graphs;
    let Some(graph) = graphs.pop() else {
        return Err(r.corrupt("record holds no graph"));
    };
    Ok((gid, graph))
}

/// An open write-ahead log: an appender positioned after the last
/// durable record.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Length of the durable (fsynced) prefix. Appends first truncate
    /// back to this, so torn bytes from a previously failed append
    /// self-heal instead of corrupting the next record.
    committed_len: u64,
}

impl Wal {
    /// Opens (creating if missing) the log at `path`, replays it, and
    /// truncates any torn tail so the appender starts on a clean
    /// boundary. Mid-log corruption is a typed error, never a panic.
    pub fn open(path: &Path) -> Result<(Wal, WalReplay), PersistError> {
        let mut file = open_append(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(MAGIC)?;
            file.sync_data()?;
            let wal = Wal { file, path: path.to_path_buf(), committed_len: len64(MAGIC.len()) };
            let replay = WalReplay {
                records: Vec::new(),
                valid_len: len64(MAGIC.len()),
                torn_tail_bytes: 0,
            };
            return Ok((wal, replay));
        }
        let mut replay = replay_bytes(&bytes)?;
        if replay.valid_len < len64(MAGIC.len()) {
            // Torn initial magic write: start the log over.
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
            replay.valid_len = len64(MAGIC.len());
        } else if replay.torn_tail_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        let committed_len = replay.valid_len;
        Ok((Wal { file, path: path.to_path_buf(), committed_len }, replay))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the durable prefix.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Appends one insert record and fsyncs it. Only on `Ok` is the
    /// insert durable (and may be acknowledged); on `Err` the on-disk
    /// state may hold a torn frame, which the next append — or the next
    /// reopen — truncates away.
    ///
    /// Failpoints (test tier): `wal-append` tears the frame mid-write
    /// and errors before the fsync; `wal-fsync` errors at the fsync and
    /// drops the un-synced frame bytes, deterministically simulating
    /// the kernel losing them in a crash.
    pub fn append(&mut self, gid: GraphId, graph: &LabeledGraph) -> Result<(), PersistError> {
        let frame = encode_record(gid, graph)?;
        // Self-heal torn bytes from a previously failed append.
        self.file.set_len(self.committed_len)?;
        crash_point("wal-append", Some((&mut self.file, &frame[..frame.len() / 2])))?;
        self.file.write_all(&frame)?;
        self.fsync_crash_point()?;
        self.file.sync_data()?;
        self.committed_len += len64(frame.len());
        Ok(())
    }

    #[cfg(feature = "failpoints")]
    fn fsync_crash_point(&mut self) -> std::io::Result<()> {
        match failpoints::consult("wal-fsync") {
            Some(failpoints::Action::Trip) => {
                // The frame was written but never synced; model the
                // kernel losing it by truncating back to the durable
                // prefix.
                self.file.set_len(self.committed_len)?;
                self.file.sync_data()?;
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "failpoint: simulated crash at wal-fsync",
                ))
            }
            #[expect(
                clippy::panic,
                reason = "fault-injection tier: compiled only under the test-only `failpoints` feature to simulate a crash at the fsync boundary"
            )]
            Some(failpoints::Action::Panic) => panic!("failpoint panic at wal-fsync"),
            None => Ok(()),
        }
    }

    #[cfg(not(feature = "failpoints"))]
    fn fsync_crash_point(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Empties the log back to its magic header — called after a
    /// snapshot has durably captured everything the log held. The
    /// `compact-truncate` failpoint simulates dying just before the
    /// truncation: the stale records survive and must replay
    /// idempotently on the next open.
    pub fn reset(&mut self) -> std::io::Result<()> {
        crash_point("compact-truncate", None)?;
        self.file.set_len(len64(MAGIC.len()))?;
        self.file.sync_data()?;
        self.committed_len = len64(MAGIC.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};

    fn graph(weight: f64) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs = b.add_vertices(2, VertexAttr::labeled(Label(1)));
        b.add_edge(vs[0], vs[1], EdgeAttr { label: Label(2), weight }).unwrap();
        b.build()
    }

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pis-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = temp_log("replay");
        let _ = std::fs::remove_file(&path);
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        wal.append(GraphId(0), &graph(1.25)).unwrap();
        wal.append(GraphId(1), &graph(2.5)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.torn_tail_bytes, 0);
        let ids: Vec<u32> = replay.records.iter().map(|(g, _)| g.0).collect();
        assert_eq!(ids, [0, 1]);
        // Weights round-trip bit-exactly through the text payload.
        let w = replay.records[1].1.edges()[0].attr.weight;
        assert_eq!(w.to_bits(), 2.5f64.to_bits());
    }

    #[test]
    fn torn_tail_is_truncated_not_rejected() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(GraphId(0), &graph(1.0)).unwrap();
        let keep = wal.committed_len();
        drop(wal);
        // Simulate a crash mid-append: half a frame past the durable
        // prefix.
        let frame = encode_record(GraphId(1), &graph(2.0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "acknowledged record survives");
        assert!(replay.torn_tail_bytes > 0, "torn tail is reported");
        assert_eq!(wal.committed_len(), keep);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep, "tail truncated on open");
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = temp_log("corrupt");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(GraphId(0), &graph(1.0)).unwrap();
        wal.append(GraphId(1), &graph(2.0)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the *first* record (past magic +
        // header), leaving both frames structurally complete.
        let i = MAGIC.len() + FRAME_HEADER + 2;
        bytes[i] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&path) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
