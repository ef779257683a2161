//! Property tests for the `LGRS1` artifact entry format: encode →
//! decode is lossless for arbitrary entries, and every corruption —
//! truncation at any byte, a flipped magic or version, trailing
//! garbage, a damaged payload, a crashed writer's leftover `.tmp` —
//! surfaces as a *typed* [`StoreError`], never a panic and never a
//! wrong hit.

use proptest::prelude::*;
use store::{entry_from_bytes, entry_to_bytes, ArtifactKind, Store, StoreError, StoreStats};

fn kind_strategy() -> impl Strategy<Value = ArtifactKind> {
    proptest::sample::select(ArtifactKind::ALL.to_vec())
}

/// Renders generated alphabet indices into a fingerprint string (the
/// vendored proptest shim has no string strategies).
fn fp_from(indices: &[u8]) -> String {
    const ALPHABET: &[u8] = b"abcdefghij0123456789/@.-";
    indices.iter().map(|&i| char::from(ALPHABET[i as usize % ALPHABET.len()])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_is_lossless(
        kind in kind_strategy(),
        key in 0u64..=u64::MAX,
        fp_indices in proptest::collection::vec(0u8..=255, 0..=24),
        payload in proptest::collection::vec(0u8..=255, 0..=64),
    ) {
        let fp = fp_from(&fp_indices);
        let bytes = entry_to_bytes(kind, key, &fp, &payload);
        let entry = entry_from_bytes(&bytes).unwrap();
        prop_assert_eq!(entry.kind, kind);
        prop_assert_eq!(entry.key, key);
        prop_assert_eq!(entry.fingerprint, fp);
        prop_assert_eq!(entry.payload, payload);
    }

    /// Every strict prefix of every entry fails with `Truncated` —
    /// the bounds-checked cursor never reads past the buffer and never
    /// panics.
    #[test]
    fn every_truncation_is_typed(
        kind in kind_strategy(),
        key in 0u64..=u64::MAX,
        fp_indices in proptest::collection::vec(0u8..=255, 0..=12),
        payload in proptest::collection::vec(0u8..=255, 0..=32),
    ) {
        let bytes = entry_to_bytes(kind, key, &fp_from(&fp_indices), &payload);
        for cut in 0..bytes.len() {
            match entry_from_bytes(&bytes[..cut]) {
                Err(StoreError::Truncated) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Flipping any single byte anywhere in the entry is a typed decode
    /// error or a harmless decode — the checksum covers the payload,
    /// the magic/version/kind checks cover the header, and the length
    /// fields reshape into truncation or trailing bytes. Never a
    /// panic; a surviving decode can only differ in key/kind (rejected
    /// by the store's path cross-check at read time) or fingerprint
    /// (reads as a miss, never a wrong hit).
    #[test]
    fn every_single_byte_flip_is_typed(
        kind in kind_strategy(),
        key in 0u64..=u64::MAX,
        fp_indices in proptest::collection::vec(0u8..=255, 1..=8),
        payload in proptest::collection::vec(0u8..=255, 1..=24),
        flip_pos in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let fp = fp_from(&fp_indices);
        let mut bytes = entry_to_bytes(kind, key, &fp, &payload);
        let flip_at = flip_pos % bytes.len();
        bytes[flip_at] ^= flip_bits;
        if let Ok(entry) = entry_from_bytes(&bytes) {
            prop_assert!(
                entry.key != key || entry.kind != kind || entry.fingerprint != fp,
                "flip at {} decoded unchanged", flip_at
            );
            prop_assert_eq!(entry.payload, payload, "a surviving decode must keep the payload");
        }
    }

    #[test]
    fn trailing_bytes_are_typed(
        kind in kind_strategy(),
        payload in proptest::collection::vec(0u8..=255, 0..=16),
        garbage in proptest::collection::vec(0u8..=255, 1..=8),
    ) {
        let mut bytes = entry_to_bytes(kind, 7, "fp", &payload);
        bytes.extend_from_slice(&garbage);
        prop_assert_eq!(entry_from_bytes(&bytes).unwrap_err(), StoreError::TrailingBytes);
    }
}

#[test]
fn flipped_magic_and_version_are_typed() {
    let good = entry_to_bytes(ArtifactKind::TraceGroups, 1, "fp", b"x");
    for i in 0..4 {
        let mut bytes = good.clone();
        bytes[i] ^= 0x20;
        assert_eq!(entry_from_bytes(&bytes).unwrap_err(), StoreError::BadMagic, "magic byte {i}");
    }
    let mut bytes = good.clone();
    bytes[4] = b'2';
    assert_eq!(
        entry_from_bytes(&bytes).unwrap_err(),
        StoreError::VersionMismatch { found: b'2' }
    );
    let mut bytes = good;
    bytes[5] = 0xee;
    assert_eq!(entry_from_bytes(&bytes).unwrap_err(), StoreError::BadKind { found: 0xee });
}

// The obs counters are process-global; the two tests below both drive
// Store traffic and one asserts on counter deltas, so they must not
// interleave.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn mid_write_crash_leaves_store_consistent() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("lgrs-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).unwrap();
    store.put(ArtifactKind::CorpusOutcome, 0xfeed, "fp@1", b"committed").unwrap();

    // A writer that died after creating the temp file but before the
    // rename: the .tmp holds a torn prefix of a real entry.
    let full = entry_to_bytes(ArtifactKind::CorpusOutcome, 0xbeef, "fp@1", b"never-committed");
    let tmp = store.entry_path(ArtifactKind::CorpusOutcome, 0xbeef).with_extension("tmp");
    std::fs::create_dir_all(tmp.parent().unwrap()).unwrap();
    std::fs::write(&tmp, &full[..full.len() / 2]).unwrap();
    drop(store);

    // Reopening sweeps the orphan; the committed entry is intact; the
    // in-flight key reads as a clean miss (it was never committed).
    let store = Store::open(&dir).unwrap();
    assert!(!tmp.exists(), "leftover .tmp must be swept on open");
    assert_eq!(
        store.get(ArtifactKind::CorpusOutcome, 0xfeed, "fp@1").unwrap().as_deref(),
        Some(&b"committed"[..])
    );
    assert_eq!(store.get(ArtifactKind::CorpusOutcome, 0xbeef, "fp@1").unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprint_mismatch_is_a_miss_and_counted() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("lgrs-fpmiss-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).unwrap();
    store.put(ArtifactKind::Embedding, 3, "model@old", b"stale").unwrap();
    let before = StoreStats::snapshot();
    // A changed checkpoint fingerprint must read as a miss, never as
    // the stale payload.
    assert_eq!(store.get(ArtifactKind::Embedding, 3, "model@new").unwrap(), None);
    let delta = StoreStats::snapshot().since(&before);
    assert_eq!(delta.misses, 1);
    assert_eq!(delta.hits, 0);
    std::fs::remove_dir_all(&dir).ok();
}
