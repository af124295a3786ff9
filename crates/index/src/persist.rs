//! The error type of the persisted store.
//!
//! An index has one persisted form: the checksummed binary snapshot
//! ([`crate::snapshot`]) with the write-ahead log ([`crate::wal`])
//! replayed on top of it. Both report failures as [`PersistError`], as
//! do the byte-level readers in [`crate::codec`] they decode through.

use std::fmt;
use std::io;

/// Errors raised while reading or writing a persisted store.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
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
