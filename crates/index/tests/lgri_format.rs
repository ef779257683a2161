//! Property tests for the `LGRI1` on-disk format (DESIGN.md §2h):
//! save → load is lossless for arbitrary stores (including the empty
//! index and the degenerate 0-dim store), and every corruption — any
//! truncation, a flipped magic, a bumped version, trailing garbage —
//! surfaces as a *typed* [`IndexError`], never a panic.

use index::disk::{from_bytes, load_from_path, save_to_path, to_bytes};
use index::{EmbeddingStore, IndexError};
use proptest::prelude::*;

/// Builds a store from generated raw parts, deduplicating keys the way
/// a caller would (last write wins is irrelevant here — we skip dups so
/// the roundtrip comparison stays 1:1).
fn store_from(
    dim: usize,
    entries: &[(u64, Vec<f32>, Vec<u32>)],
) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(dim, "test/fp");
    for (key, vector, tokens) in entries {
        if store.row_of(*key).is_none() {
            store.insert(*key, &vector[..dim], tokens).unwrap();
        }
    }
    store
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_lossless(store: &EmbeddingStore) {
    let buf = to_bytes(store);
    assert_eq!(buf.len(), store.bytes(), "bytes() must predict the serialized size");
    let loaded = from_bytes(&buf).unwrap();
    assert_eq!(loaded.dim(), store.dim());
    assert_eq!(loaded.fingerprint(), store.fingerprint());
    assert_eq!(loaded.keys(), store.keys(), "insertion order must survive");
    assert_eq!(bits(loaded.matrix()), bits(store.matrix()), "vectors must be bitwise lossless");
    for row in 0..store.len() {
        assert_eq!(loaded.postings(row), store.postings(row), "row {row} postings diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_is_lossless(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (
                0u64..50,
                proptest::collection::vec(-3.0f32..3.0, 6..=6),
                proptest::collection::vec(0u32..40, 0..=5),
            ),
            0..=12,
        ),
    ) {
        let store = store_from(dim, &entries);
        assert_lossless(&store);
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        entries in proptest::collection::vec(
            (
                0u64..20,
                proptest::collection::vec(-2.0f32..2.0, 3..=3),
                proptest::collection::vec(0u32..10, 0..=3),
            ),
            1..=5,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let store = store_from(3, &entries);
        let buf = to_bytes(&store);
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < buf.len());
        match from_bytes(&buf[..cut]) {
            Err(IndexError::Truncated) | Err(IndexError::BadMagic) => {}
            other => panic!("prefix of {cut} bytes: expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_headers_are_typed_errors(
        flip_at in 0usize..5,
        entries in proptest::collection::vec(
            (
                0u64..20,
                proptest::collection::vec(-2.0f32..2.0, 2..=2),
                proptest::collection::vec(0u32..10, 0..=2),
            ),
            0..=4,
        ),
    ) {
        let store = store_from(2, &entries);
        let mut buf = to_bytes(&store);
        buf[flip_at] ^= 0x5a;
        match from_bytes(&buf) {
            Err(IndexError::BadMagic) | Err(IndexError::VersionMismatch { .. }) => {}
            // Flipping a byte inside `fp_len` instead reshapes the
            // layout; any typed decode error is acceptable — a panic or
            // a silent success is not.
            Err(IndexError::Truncated)
            | Err(IndexError::TrailingBytes)
            | Err(IndexError::BadRecord { .. }) => {
                prop_assert!(flip_at >= 5, "magic/version flips must be BadMagic/VersionMismatch");
            }
            other => panic!("flip at {flip_at}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn empty_store_roundtrips() {
    assert_lossless(&EmbeddingStore::new(4, "empty/fp"));
}

#[test]
fn zero_dim_store_roundtrips() {
    // The 0×N edge: entries exist but carry no components. Normalizing
    // a zero-length vector is a no-op, and the format has no special
    // case — each record is just key + 0 floats + postings.
    let mut store = EmbeddingStore::new(0, "zero/fp");
    store.insert(7, &[], &[1, 2, 3]).unwrap();
    store.insert(9, &[], &[]).unwrap();
    assert_lossless(&store);
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut store = EmbeddingStore::new(2, "fp");
    store.insert(1, &[0.5, -0.25], &[3]).unwrap();
    let mut buf = to_bytes(&store);
    buf.push(0);
    assert!(matches!(from_bytes(&buf), Err(IndexError::TrailingBytes)));
}

#[test]
fn file_roundtrip_and_missing_file_are_typed() {
    let dir = std::env::temp_dir().join(format!("lgri-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.lgri");

    let mut store = EmbeddingStore::new(3, "file/fp");
    store.insert(11, &[1.0, 2.0, 3.0], &[5, 6]).unwrap();
    store.insert(12, &[-1.0, 0.0, 1.0], &[]).unwrap();
    save_to_path(&store, &path).unwrap();
    let loaded = load_from_path(&path).unwrap();
    assert_eq!(loaded.keys(), store.keys());
    assert_eq!(bits(loaded.matrix()), bits(store.matrix()));

    // No stray temp file survives a successful save.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "atomic save leaked temp files");

    assert!(matches!(
        load_from_path(&dir.join("absent.lgri")),
        Err(IndexError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
