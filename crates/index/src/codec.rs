//! Binary persistence primitives shared by the snapshot format and the
//! write-ahead log: a vendored CRC32, little-endian byte cursors with
//! typed error reporting, and crash-safe (temp + fsync + rename) file
//! rotation.
//!
//! Everything read through [`ByteReader`] is treated as untrusted: every
//! cursor step is bounds-checked and reports a byte offset through
//! [`PersistError::Corrupt`](crate::persist::PersistError), never a
//! panic. Floats travel as raw bit patterns and are rejected when
//! non-finite, mirroring the text format's `hex_f64` policy.

// Decodes untrusted bytes: no panics and no bare `as` casts outside
// tests (the checked cast helpers are below).
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

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use pis_graph::LabeledGraph;

use crate::persist::PersistError;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial used by zip/png. Vendored: the workspace builds with no
/// registry access, and 16 lines beat a dependency.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::as_conversions,
            reason = "const-context CRC table build: try_from is not callable in const fn on the 1.82 floor, and i < 256 by the loop bound so the cast is exact"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[idx((c ^ u32::from(b)) & 0xFF)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ── Checked cast helpers ─────────────────────────────────────────────
//
// The codecs (snapshot, WAL) deny `clippy::as_conversions` at the top
// of each module, so a bare `as` cast fails the lint: on untrusted input
// a silent u64 → usize truncation (32-bit targets) or usize → u32 wrap
// maps distinct offsets onto the same slice. Widening conversions go
// through the infallible helpers below; narrowing conversions must use
// the fallible ones and surface `PersistError::Corrupt`.

/// Infallible `u32` → `usize` widening (all supported targets have
/// `usize` ≥ 32 bits; `unwrap_or` keeps the helper panic-free even if
/// that precondition were ever violated).
#[inline]
pub(crate) fn idx(x: u32) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// Infallible `usize` → `u64` widening (all supported targets have
/// `usize` ≤ 64 bits).
#[inline]
pub(crate) fn len64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Widen a trusted in-memory index to `u32`. Callers pass values bounded
/// by arena invariants (label ids, class counts and per-class slots are
/// all `< 2^32` by construction); if that contract were ever broken the
/// helper saturates, turning the bug into a loud length mismatch on
/// decode instead of silent aliasing.
#[inline]
pub(crate) fn u32_idx(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "index {n} exceeds u32");
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Checked `usize` → `u32` narrowing for encode-side lengths, failing
/// typed instead of wrapping.
pub(crate) fn u32_of(n: usize, what: &str) -> Result<u32, PersistError> {
    u32::try_from(n).map_err(|_| PersistError::Corrupt {
        offset: 0,
        message: format!("{what} {n} does not fit in u32"),
    })
}

/// Refuses a graph with a `NaN` or infinite weight. The snapshot's
/// DATABASE section and every WAL record carry graphs as text, which the
/// parser rejects with such a weight, so the writers check first: a
/// write that could never be read back fails before any byte of it.
pub(crate) fn check_finite_weights(graph: &LabeledGraph) -> Result<(), PersistError> {
    let finite = graph.vertex_ids().all(|v| graph.vertex(v).weight.is_finite())
        && graph.edges().iter().all(|e| e.attr.weight.is_finite());
    if finite {
        return Ok(());
    }
    Err(PersistError::Io(io::Error::new(
        io::ErrorKind::InvalidInput,
        "graph has a non-finite weight, which the store cannot read back",
    )))
}

/// Little-endian append-only byte sink (snapshot sections, WAL frames).
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern (bit-exact round trip).
    pub fn f64_bits(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Overwrites 4 bytes at `at` with a little-endian `u32` (section
    /// tables are back-patched after their payloads are sized).
    pub fn patch_u32(&mut self, at: usize, x: u32) {
        self.buf[at..at + 4].copy_from_slice(&x.to_le_bytes());
    }

    /// Overwrites 8 bytes at `at` with a little-endian `u64`.
    pub fn patch_u64(&mut self, at: usize, x: u64) {
        self.buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` in the containing file (error reporting for
    /// section payloads sliced out of a larger stream).
    base: u64,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf`, reporting offsets relative to `base`.
    pub fn new(buf: &'a [u8], base: u64) -> Self {
        ByteReader { buf, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + len64(self.pos)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// A typed corruption error at the current offset.
    pub fn corrupt(&self, message: &str) -> PersistError {
        PersistError::Corrupt { offset: self.offset(), message: message.to_string() }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.corrupt(&format!("truncated: {what} needs {n} bytes")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u64` that must fit a `usize` count; the cap stops a
    /// corrupt count from driving gigabyte pre-allocations (the data
    /// behind it would fail the bounds check anyway, but only after the
    /// `Vec::with_capacity`).
    pub fn count(&mut self, what: &str, cap: usize) -> Result<usize, PersistError> {
        let x = self.u64(what)?;
        if x > len64(cap) {
            return Err(self.corrupt(&format!("{what} {x} exceeds the {cap} cap")));
        }
        // Infallible: x ≤ cap and cap is a usize.
        usize::try_from(x).map_err(|_| self.corrupt(&format!("{what} exceeds usize")))
    }

    /// Reads a little-endian `u32` widened to a `usize` count/index.
    pub fn u32_usize(&mut self, what: &str) -> Result<usize, PersistError> {
        Ok(idx(self.u32(what)?))
    }

    /// Reads a little-endian `u64` that must fit in `usize`, failing
    /// typed on 32-bit-target truncation.
    pub fn u64_usize(&mut self, what: &str) -> Result<usize, PersistError> {
        let x = self.u64(what)?;
        usize::try_from(x).map_err(|_| self.corrupt(&format!("{what} {x} does not fit in usize")))
    }

    /// Reads an `f64` bit pattern, rejecting NaN/∞ (a poisoned stored
    /// float would corrupt every distance downstream).
    pub fn f64_finite(&mut self, what: &str) -> Result<f64, PersistError> {
        let x = f64::from_bits(self.u64(what)?);
        if !x.is_finite() {
            return Err(self.corrupt(&format!("non-finite float in {what}")));
        }
        Ok(x)
    }
}

/// Consults the named failpoint and, when armed to fire, simulates a
/// crash: `partial` bytes of the intended write are flushed (a torn
/// write) and an `Interrupted` error is returned as if the process had
/// been killed mid-call. Compiled out without the `failpoints` feature.
#[cfg(feature = "failpoints")]
pub(crate) fn crash_point(site: &'static str, file: Option<(&mut File, &[u8])>) -> io::Result<()> {
    match failpoints::consult(site) {
        Some(failpoints::Action::Trip) => {
            if let Some((f, partial)) = file {
                f.write_all(partial)?;
                f.flush()?;
            }
            Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("failpoint: simulated crash at {site}"),
            ))
        }
        #[expect(
            clippy::panic,
            reason = "fault-injection tier: compiled only under the test-only `failpoints` feature to simulate a process dying mid-write"
        )]
        Some(failpoints::Action::Panic) => panic!("failpoint panic at {site}"),
        None => Ok(()),
    }
}

#[cfg(not(feature = "failpoints"))]
pub(crate) fn crash_point(
    _site: &'static str,
    _file: Option<(&mut File, &[u8])>,
) -> io::Result<()> {
    Ok(())
}

/// Crash-safe whole-file replacement: write `bytes` to `<path>.tmp`,
/// fsync, rename over `path`, then fsync the directory. A crash at any
/// point leaves either the old file or the new one — never a torn mix.
///
/// Under the `failpoints` feature the sites `snapshot-write` (torn temp
/// file, no rename) and `snapshot-rename` (complete temp file, rename
/// skipped) simulate kills inside the rotation.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    crash_point("snapshot-write", Some((&mut file, &bytes[..bytes.len() / 2])))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    crash_point("snapshot-rename", None)?;
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is best-effort:
    // not every filesystem supports opening a directory for sync.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp-file name `atomic_write` rotates through (exposed so store
/// openers can sweep leftovers from a crashed rotation).
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Opens `path` for appending, creating it if missing.
pub(crate) fn open_append(path: &Path) -> io::Result<File> {
    OpenOptions::new().read(true).create(true).append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 test vectors ("check" values of the catalogue).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64_bits(std::f64::consts::PI);
        w.bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 100);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64_finite("d").unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.bytes(3, "e").unwrap(), b"xyz");
        assert!(r.is_exhausted());
        assert_eq!(r.offset(), 100 + bytes.len() as u64);
    }

    #[test]
    fn reader_rejects_truncation_and_non_finite() {
        let mut r = ByteReader::new(&[1, 2], 0);
        assert!(r.u32("int").is_err());
        let mut w = ByteWriter::new();
        w.f64_bits(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 0);
        assert!(r.f64_finite("nan").is_err());
    }

    #[test]
    fn count_cap_blocks_huge_allocations() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 0);
        assert!(r.count("entries", 1 << 12).is_err());
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("pis-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        assert!(!tmp_path(&path).exists(), "rotation must not leave a temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
