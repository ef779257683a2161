//! Typed errors for every index operation. The index is a *service*
//! subsystem: corrupt files, bad query parameters, and mismatched
//! metadata all surface as values a caller can map to a protocol reply —
//! nothing in this crate panics on untrusted input.

/// Everything that can go wrong inserting into, searching, saving, or
/// loading an [`crate::EmbeddingStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A vector's length does not match the store's dimension.
    DimMismatch {
        /// The store's dimension.
        expected: usize,
        /// The offending vector's length.
        found: usize,
    },
    /// A `search` against an index holding no entries.
    EmptyIndex,
    /// `k == 0` asks for zero results — a degenerate query the caller
    /// almost certainly did not mean.
    BadK,
    /// `min_sim` outside `[-1, 1]` can never match a cosine.
    BadMinSim {
        /// The offending threshold.
        value: f32,
    },
    /// The store on disk was written for a different model (fingerprint
    /// mismatch): its vectors are not comparable to freshly served ones.
    FingerprintMismatch {
        /// The fingerprint the index file declares.
        found: String,
        /// The fingerprint the running model expects.
        expected: String,
    },
    /// The file does not start with the `LGRI` magic bytes.
    BadMagic,
    /// The magic matched but the version byte is not the current one.
    VersionMismatch {
        /// The version byte found in the input.
        found: u8,
    },
    /// The input ended in the middle of a record.
    Truncated,
    /// A record carried a non-UTF-8 fingerprint, a duplicate key, or an
    /// element count that overflows.
    BadRecord {
        /// The 0-based entry index (entry count for header problems).
        index: usize,
    },
    /// Bytes remained after the declared records — writer and reader
    /// disagree about the layout; refuse rather than silently ignore.
    TrailingBytes,
    /// Filesystem failure (message only, to keep the error comparable).
    Io(String),
}

impl IndexError {
    /// A stable machine-readable tag for protocol replies
    /// (`{"ok":false,"error":…,"kind":…}`).
    pub fn kind(&self) -> &'static str {
        match self {
            IndexError::DimMismatch { .. } => "dim_mismatch",
            IndexError::EmptyIndex => "empty_index",
            IndexError::BadK => "bad_k",
            IndexError::BadMinSim { .. } => "bad_min_sim",
            IndexError::FingerprintMismatch { .. } => "fingerprint_mismatch",
            IndexError::BadMagic => "bad_magic",
            IndexError::VersionMismatch { .. } => "version_mismatch",
            IndexError::Truncated => "truncated",
            IndexError::BadRecord { .. } => "bad_record",
            IndexError::TrailingBytes => "trailing_bytes",
            IndexError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DimMismatch { expected, found } => {
                write!(f, "vector has {found} dims, the index stores {expected}")
            }
            IndexError::EmptyIndex => write!(f, "the index holds no entries"),
            IndexError::BadK => write!(f, "k must be at least 1"),
            IndexError::BadMinSim { value } => {
                write!(f, "min_sim {value} is outside [-1, 1]")
            }
            IndexError::FingerprintMismatch { found, expected } => write!(
                f,
                "index was built by model {found:?}, this server runs {expected:?}"
            ),
            IndexError::BadMagic => write!(f, "not a LIGER index (bad magic)"),
            IndexError::VersionMismatch { found } => {
                write!(f, "unsupported index version {:?}", char::from(*found))
            }
            IndexError::Truncated => write!(f, "index file ends mid-record"),
            IndexError::BadRecord { index } => write!(f, "malformed record for entry {index}"),
            IndexError::TrailingBytes => write!(f, "trailing bytes after the last record"),
            IndexError::Io(msg) => write!(f, "index I/O error: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<tensor::codec::DecodeError> for IndexError {
    fn from(e: tensor::codec::DecodeError) -> IndexError {
        use tensor::codec::DecodeError;
        match e {
            DecodeError::Truncated => IndexError::Truncated,
            DecodeError::TrailingBytes => IndexError::TrailingBytes,
            DecodeError::BadRecord => IndexError::BadRecord { index: 0 },
            DecodeError::BadMagic => IndexError::BadMagic,
            DecodeError::VersionMismatch { found } => IndexError::VersionMismatch { found },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_messages_render() {
        let cases = [
            (IndexError::DimMismatch { expected: 4, found: 3 }, "dim_mismatch"),
            (IndexError::EmptyIndex, "empty_index"),
            (IndexError::BadK, "bad_k"),
            (IndexError::BadMinSim { value: 2.0 }, "bad_min_sim"),
            (IndexError::BadMagic, "bad_magic"),
            (IndexError::VersionMismatch { found: b'9' }, "version_mismatch"),
            (IndexError::Truncated, "truncated"),
            (IndexError::BadRecord { index: 2 }, "bad_record"),
            (IndexError::TrailingBytes, "trailing_bytes"),
            (IndexError::Io("gone".into()), "io"),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(!err.to_string().is_empty());
        }
    }
}
