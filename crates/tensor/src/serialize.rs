//! Checkpoint serialization of parameter stores: the versioned binary
//! `LGR1` format.
//!
//! Trained weights can be saved and reloaded so experiments can be
//! checkpointed, predictions reproduced without retraining, and the
//! `liger-serve` inference service fed from offline training runs.
//!
//! Layout ([`save_store_binary`]/[`load_store_binary`]): magic `LGR` +
//! one version byte (`1`), a little-endian `u32` parameter count, then
//! per parameter: `u32` name length + UTF-8 name bytes, `u32` rows,
//! `u32` cols, and `rows × cols` little-endian `f64` values. `f32 → f64`
//! widening is exact, so the round trip is bitwise lossless while the
//! payload layout stays stable if the tensor element type ever widens.
//! The loader rejects duplicate parameter names — a checkpoint that
//! binds one name twice is corrupt, not "last one wins".
//!
//! The format reads and writes through [`crate::codec`];
//! [`ParamStore::save_to_path`] replaces files atomically
//! ([`crate::codec::write_atomic`]). `LGR1` is the one weight format:
//! any other version byte (such as the retired int8 `LGRq`) is a typed
//! [`LoadError::VersionMismatch`].

use crate::codec::{write_atomic, ByteReader, ByteWriter, DecodeError};
use crate::store::ParamStore;
use crate::tensor::Tensor;
use std::collections::HashSet;
use std::path::Path;

/// The checkpoint magic prefix (followed by one ASCII version byte).
pub const MAGIC: &[u8; 3] = b"LGR";
/// The current binary checkpoint version byte.
pub const VERSION: u8 = b'1';

/// Errors from [`load_store_binary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The input ended in the middle of a record.
    UnexpectedEof,
    /// The input does not start with the `LGR` magic bytes.
    BadMagic,
    /// The magic matched but the version byte is not [`VERSION`].
    VersionMismatch {
        /// The version byte found in the input.
        found: u8,
    },
    /// A parameter name was bound twice in one checkpoint.
    DuplicateParam {
        /// The repeated name.
        name: String,
    },
    /// A binary record carried a non-UTF-8 or oversized name, or a shape
    /// whose element count overflows; `index` equal to the parameter
    /// count flags trailing bytes.
    BadRecord {
        /// The 0-based parameter index.
        index: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::UnexpectedEof => write!(f, "unexpected end of input"),
            LoadError::BadMagic => write!(f, "not a LIGER checkpoint (bad magic)"),
            LoadError::VersionMismatch { found } => {
                write!(f, "unsupported checkpoint version {:?}", char::from(*found))
            }
            LoadError::DuplicateParam { name } => {
                write!(f, "parameter {name:?} bound twice in checkpoint")
            }
            LoadError::BadRecord { index } => write!(f, "malformed record for parameter {index}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<DecodeError> for LoadError {
    fn from(e: DecodeError) -> LoadError {
        match e {
            DecodeError::Truncated => LoadError::UnexpectedEof,
            DecodeError::BadMagic => LoadError::BadMagic,
            DecodeError::VersionMismatch { found } => LoadError::VersionMismatch { found },
            DecodeError::BadRecord | DecodeError::TrailingBytes => {
                LoadError::BadRecord { index: 0 }
            }
        }
    }
}

/// Errors from the path-level checkpoint helpers: either the file could
/// not be read/written or its contents failed to parse.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file's contents are not a valid checkpoint.
    Load(LoadError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Load(e) => write!(f, "checkpoint parse error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<LoadError> for CheckpointError {
    fn from(e: LoadError) -> CheckpointError {
        CheckpointError::Load(e)
    }
}

/// Serializes every parameter's value in the binary `LGR1` format.
pub fn save_store_binary(store: &ParamStore) -> Vec<u8> {
    // Header + per-param records; payload dominates, so reserve for it.
    let payload: usize = store.iter().map(|p| p.value.len() * 8 + 16).sum();
    let mut w = ByteWriter::with_capacity(8 + payload);
    w.header(MAGIC, VERSION);
    w.u32(store.len() as u32);
    for p in store.iter() {
        w.str(&p.name);
        w.u32(p.value.rows() as u32);
        w.u32(p.value.cols() as u32);
        for &v in p.value.data() {
            w.f64(f64::from(v));
        }
    }
    w.into_bytes()
}

/// Reconstructs a parameter store from [`save_store_binary`] output.
///
/// Input too short for the header is not a checkpoint at all, and
/// trailing bytes mean writer and reader disagree about the record
/// layout, so both are refused rather than ignored.
///
/// # Errors
///
/// Returns [`LoadError::BadMagic`] / [`LoadError::VersionMismatch`] for
/// foreign or future inputs, [`LoadError::DuplicateParam`] when a name is
/// bound twice, and [`LoadError::UnexpectedEof`] / [`LoadError::BadRecord`]
/// on truncation or malformed records.
pub fn load_store_binary(bytes: &[u8]) -> Result<ParamStore, LoadError> {
    if bytes.len() < 4 {
        return Err(LoadError::BadMagic);
    }
    let mut r = ByteReader::new(bytes);
    r.header(MAGIC, VERSION)?;
    let count = r.u32()? as usize;
    let mut store = ParamStore::new();
    let mut seen = HashSet::new();
    let mut index = 0;
    // Smallest record: name length, rows and cols, each a `u32`.
    r.repeat(count, 12, |r| {
        let name = r.str().map_err(|e| match e {
            DecodeError::BadRecord => LoadError::BadRecord { index },
            e => e.into(),
        })?;
        if !seen.insert(name.clone()) {
            return Err(LoadError::DuplicateParam { name });
        }
        let (rows, cols) = (r.u32()? as usize, r.u32()? as usize);
        let len = rows.checked_mul(cols).ok_or(LoadError::BadRecord { index })?;
        let values = r.repeat(len, 8, |r| r.f64().map(|v| v as f32))?;
        store.add(name, Tensor::from_vec(rows, cols, values));
        index += 1;
        Ok::<_, LoadError>(())
    })?;
    r.finish().map_err(|_| LoadError::BadRecord { index: count })?;
    Ok(store)
}

impl ParamStore {
    /// Writes this store to `path` in the binary `LGR1` format,
    /// atomically: a crash mid-save leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// Returns the underlying filesystem error.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), &save_store_binary(self))
    }

    /// Reads an `LGR1` checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure or malformed contents.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<ParamStore, CheckpointError> {
        Ok(load_store_binary(&std::fs::read(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(store: &ParamStore) -> Vec<(String, usize, usize, Vec<u32>)> {
        store
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.value.rows(),
                    p.value.cols(),
                    p.value.data().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.add("layer.w", Tensor::from_vec(2, 2, vec![0.1, -2.5e-7, f32::MIN_POSITIVE, 3.0]));
        store.add("odd name %x", Tensor::vector(vec![1.5]));
        store.add("empty", Tensor::from_vec(0, 7, Vec::new()));
        store
    }

    #[test]
    fn binary_roundtrip_is_bitwise_lossless() {
        let store = sample_store();
        let blob = save_store_binary(&store);
        assert_eq!(&blob[..3], MAGIC);
        assert_eq!(blob[3], VERSION);
        let loaded = load_store_binary(&blob).unwrap();
        assert_eq!(bits(&store), bits(&loaded));
        // Zero-element tensors keep their shape.
        assert_eq!(loaded.get(crate::ParamId(2)).value.rows(), 0);
        assert_eq!(loaded.get(crate::ParamId(2)).value.cols(), 7);
    }

    #[test]
    fn empty_store_roundtrips() {
        let loaded = load_store_binary(&save_store_binary(&ParamStore::new())).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut store = ParamStore::new();
        store.add("dup", Tensor::scalar(1.0));
        store.add("dup", Tensor::scalar(2.0));
        assert_eq!(
            load_store_binary(&save_store_binary(&store)).unwrap_err(),
            LoadError::DuplicateParam { name: "dup".into() }
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(load_store_binary(b"NOPE").unwrap_err(), LoadError::BadMagic);
        assert_eq!(load_store_binary(b"LG").unwrap_err(), LoadError::BadMagic);
        let mut blob = save_store_binary(&ParamStore::new());
        blob[3] = b'9';
        assert_eq!(load_store_binary(&blob).unwrap_err(), LoadError::VersionMismatch { found: b'9' });
    }

    #[test]
    fn f32_loader_rejects_lgrq_checkpoints() {
        // The retired int8 format: `LGR` + version byte `q`, then records.
        let mut blob = save_store_binary(&sample_store());
        blob[3] = b'q';
        assert_eq!(load_store_binary(&blob).unwrap_err(), LoadError::VersionMismatch { found: b'q' });
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let blob = save_store_binary(&sample_store());
        for cut in [4, 8, 10, blob.len() - 1] {
            assert_eq!(
                load_store_binary(&blob[..cut]).unwrap_err(),
                LoadError::UnexpectedEof,
                "cut at {cut}"
            );
        }
        let mut padded = blob.clone();
        padded.push(0);
        assert!(matches!(load_store_binary(&padded).unwrap_err(), LoadError::BadRecord { .. }));
    }

    #[test]
    fn path_helpers_roundtrip() {
        let store = sample_store();
        let dir = std::env::temp_dir();
        let bin_path = dir.join(format!("liger_ckpt_test_{}.lgr", std::process::id()));

        store.save_to_path(&bin_path).unwrap();
        let loaded = ParamStore::load_from_path(&bin_path).unwrap();
        assert_eq!(bits(&store), bits(&loaded));

        assert!(ParamStore::load_from_path(dir.join("liger_ckpt_missing")).is_err());
        std::fs::remove_file(&bin_path).ok();
    }
}
