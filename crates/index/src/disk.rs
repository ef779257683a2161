//! The `LGRI1` on-disk format: lossless persistence for
//! [`EmbeddingStore`].
//!
//! Grammar (all integers little-endian, read and written through
//! `tensor::codec` like every other on-disk format):
//!
//! ```text
//! file    := magic version fingerprint dim:u32 count:u32 entry*
//! magic   := "LGRI"
//! version := '1'
//! fingerprint := len:u32 bytes[len]        ; UTF-8 model fingerprint
//! entry   := key:u64 vector[dim]:f32 ntok:u32 token[ntok]:u32
//! ```
//!
//! Entries are written in row order and read back into the same rows, so
//! a save/load round trip is bitwise lossless — including insertion
//! order, which keeps `stats` and row-indexed diagnostics stable across
//! restarts. Every malformed input maps to a typed [`IndexError`]
//! (truncation, wrong magic, unknown version, duplicate keys, trailing
//! garbage); corruption is never a panic, and a hostile `dim` or
//! `count` runs out of input rather than memory.

use crate::error::IndexError;
use crate::store::EmbeddingStore;
use std::path::Path;
use tensor::codec::{write_atomic, ByteReader, ByteWriter};

/// The four magic bytes opening every index file.
pub const MAGIC: &[u8; 4] = b"LGRI";
/// The current (only) format version byte.
pub const VERSION: u8 = b'1';

/// Serializes `store` into the `LGRI1` byte format.
pub fn to_bytes(store: &EmbeddingStore) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(store.bytes());
    w.header(MAGIC, VERSION);
    w.str(store.fingerprint());
    w.u32(store.dim() as u32);
    w.u32(store.len() as u32);
    for row in 0..store.len() {
        w.u64(store.keys()[row]);
        for &x in store.row(row) {
            w.f32(x);
        }
        w.seq(store.postings(row), |w, &t| w.u32(t));
    }
    let out = w.into_bytes();
    debug_assert_eq!(out.len(), store.bytes(), "bytes() disagrees with the writer");
    out
}

/// Parses an `LGRI1` byte buffer back into a store.
///
/// # Errors
///
/// [`IndexError::BadMagic`] / [`IndexError::VersionMismatch`] for a file
/// that is not an index, [`IndexError::Truncated`] when the buffer ends
/// mid-record, [`IndexError::BadRecord`] for duplicate keys, and
/// [`IndexError::TrailingBytes`] when data follows the last entry.
pub fn from_bytes(buf: &[u8]) -> Result<EmbeddingStore, IndexError> {
    let mut r = ByteReader::new(buf);
    r.header(MAGIC, VERSION)?;
    let fingerprint = r.str()?;
    let dim = r.u32()? as usize;
    let count = r.u32()? as usize;
    let min_len = dim.saturating_mul(4).saturating_add(12);
    let mut matrix = Vec::with_capacity(r.max_items(count, min_len) * dim);
    let entries = r.repeat(count, min_len, |r| {
        let key = r.u64()?;
        for _ in 0..dim {
            matrix.push(r.f32()?);
        }
        Ok::<_, IndexError>((key, r.seq(4, ByteReader::u32)?))
    })?;
    r.finish()?;
    let (keys, postings) = entries.into_iter().unzip();
    EmbeddingStore::from_parts(dim, fingerprint, keys, matrix, postings)
}

/// Writes `store` to `path` atomically (via a `.tmp` sibling + rename),
/// so a crash mid-save never corrupts an existing index.
///
/// # Errors
///
/// [`IndexError::Io`] on any filesystem failure.
pub fn save_to_path(store: &EmbeddingStore, path: &Path) -> Result<(), IndexError> {
    write_atomic(path, &to_bytes(store)).map_err(|e| IndexError::Io(e.to_string()))
}

/// Reads an `LGRI1` file from `path`.
///
/// # Errors
///
/// [`IndexError::Io`] when the file cannot be read, plus every parse
/// error [`from_bytes`] reports.
pub fn load_from_path(path: &Path) -> Result<EmbeddingStore, IndexError> {
    let bytes = std::fs::read(path).map_err(|e| IndexError::Io(e.to_string()))?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmbeddingStore {
        let mut store = EmbeddingStore::new(3, "demo@16");
        store.insert(0xdead_beef_cafe_f00d, &[1.0, 2.0, 2.0], &[4, 1, 4]).unwrap();
        store.insert(42, &[0.0, 0.0, 0.0], &[]).unwrap();
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample();
        let loaded = from_bytes(&to_bytes(&store)).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.row_of(42), Some(1));
    }

    #[test]
    fn bytes_len_matches_store_accounting() {
        assert_eq!(to_bytes(&sample()).len(), sample().bytes());
        let empty = EmbeddingStore::new(7, "e");
        assert_eq!(to_bytes(&empty).len(), empty.bytes());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes).unwrap_err(), IndexError::BadMagic);
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = b'9';
        assert_eq!(from_bytes(&bytes).unwrap_err(), IndexError::VersionMismatch { found: b'9' });
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert_eq!(
                from_bytes(&bytes[..cut]).unwrap_err(),
                IndexError::Truncated,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert_eq!(from_bytes(&bytes).unwrap_err(), IndexError::TrailingBytes);
    }

    #[test]
    fn path_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("lgri-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.lgri");
        let store = sample();
        save_to_path(&store, &path).unwrap();
        assert_eq!(load_from_path(&path).unwrap(), store);
        assert!(matches!(
            load_from_path(&dir.join("absent.lgri")).unwrap_err(),
            IndexError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
