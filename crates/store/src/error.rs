//! Typed failure modes for the `LGRS1` artifact store.
//!
//! The contract mirrors `index::IndexError` for the `LGRI1` format: any
//! malformed input — truncation at any byte, flipped magic, unknown
//! version, trailing garbage, a checksum that disagrees with the
//! payload — maps to a variant here. Corruption is never a panic.

use std::fmt;

/// Everything that can go wrong opening, reading, or writing a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (message carries the `std::io::Error` text).
    Io(String),
    /// The entry does not start with the `LGRS` magic bytes.
    BadMagic,
    /// The entry has the right magic but an unknown version byte.
    VersionMismatch {
        /// The version byte actually present in the file.
        found: u8,
    },
    /// The entry ends mid-record.
    Truncated,
    /// Well-formed entry followed by extra bytes.
    TrailingBytes,
    /// The payload checksum does not match the stored one — the file
    /// was corrupted after the header survived.
    ChecksumMismatch,
    /// The kind byte is not a known [`crate::ArtifactKind`], or the
    /// entry's kind disagrees with the directory it was found in.
    BadKind {
        /// The kind byte actually present in the file.
        found: u8,
    },
    /// The entry's embedded key disagrees with its file name, or a
    /// payload codec found structurally invalid data.
    BadRecord,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::BadMagic => write!(f, "not an LGRS artifact (bad magic)"),
            StoreError::VersionMismatch { found } => {
                write!(f, "unsupported LGRS version {:?}", char::from(*found))
            }
            StoreError::Truncated => write!(f, "artifact entry is truncated"),
            StoreError::TrailingBytes => write!(f, "trailing bytes after artifact entry"),
            StoreError::ChecksumMismatch => write!(f, "artifact payload checksum mismatch"),
            StoreError::BadKind { found } => write!(f, "unknown artifact kind {found}"),
            StoreError::BadRecord => write!(f, "artifact record is structurally invalid"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<tensor::codec::DecodeError> for StoreError {
    fn from(e: tensor::codec::DecodeError) -> StoreError {
        use tensor::codec::DecodeError;
        match e {
            DecodeError::Truncated => StoreError::Truncated,
            DecodeError::TrailingBytes => StoreError::TrailingBytes,
            DecodeError::BadRecord => StoreError::BadRecord,
            DecodeError::BadMagic => StoreError::BadMagic,
            DecodeError::VersionMismatch { found } => StoreError::VersionMismatch { found },
        }
    }
}
