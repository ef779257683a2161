//! The content-addressed artifact store and its `LGRS1` entry format.
//!
//! Layout on disk: one file per live artifact,
//!
//! ```text
//! root/<kind>/<xx>/<key:016x>.lgrs
//! ```
//!
//! where `<kind>` is the artifact family directory, `<xx>` the top byte
//! of the key (256-way fan-out so million-program corpora never put a
//! million files in one directory), and the file name the full 64-bit
//! FNV-1a content key. Entry grammar (integers little-endian):
//!
//! ```text
//! entry    := magic version kind:u8 key:u64 fp_len:u32 fp[fp_len]
//!             payload_len:u64 payload[payload_len] checksum:u64
//! magic    := "LGRS"
//! version  := '1'
//! checksum := FNV-1a of payload
//! ```
//!
//! Red-green invalidation falls out of the addressing: keys are content
//! hashes, so editing a program *moves* its artifacts to new keys
//! rather than mutating old entries. The fingerprint guards the other
//! axis — everything that can change an artifact's value without
//! changing the program (model weights, encode knobs, codec versions)
//! is folded into `fp`, and a mismatch reads as a **miss**, never a
//! wrong hit.
//!
//! Entries and payloads are read and written through `tensor::codec`.
//! Writes are atomic ([`write_atomic`]: `.tmp` sibling + `sync_all` +
//! rename), so a crash mid-write leaves either the old entry or a
//! `.tmp` orphan that [`Store::open`] sweeps — never a torn file.

use crate::error::StoreError;
use crate::hash::fnv1a_bytes;
use std::path::{Path, PathBuf};
use tensor::codec::{write_atomic, ByteReader, ByteWriter};

/// The four magic bytes opening every artifact entry.
pub const MAGIC: &[u8; 4] = b"LGRS";
/// The current (only) format version byte.
pub const VERSION: u8 = b'1';

/// The artifact families the pipeline caches, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Blended path groups from `randgen::generate_grouped` (symbolic
    /// trace + concrete executions per path), keyed by source hash.
    TraceGroups = 1,
    /// A full corpus filter outcome (accepted groups or the typed
    /// rejection reason), keyed by the rendered source hash.
    CorpusOutcome = 2,
    /// `analysis::ProgramFacts` (decided guards, reachability), keyed
    /// by source or canon hash.
    Facts = 3,
    /// `analysis::LintReport`, keyed by source hash.
    Lint = 4,
    /// A final embedding vector, keyed by the serve routing
    /// `content_hash` or source hash and fingerprinted by the model.
    Embedding = 5,
}

impl ArtifactKind {
    /// All kinds, for sweeps and tests.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::TraceGroups,
        ArtifactKind::CorpusOutcome,
        ArtifactKind::Facts,
        ArtifactKind::Lint,
        ArtifactKind::Embedding,
    ];

    /// The directory this family lives under.
    #[must_use]
    pub fn dir_name(self) -> &'static str {
        match self {
            ArtifactKind::TraceGroups => "traces",
            ArtifactKind::CorpusOutcome => "corpus",
            ArtifactKind::Facts => "facts",
            ArtifactKind::Lint => "lint",
            ArtifactKind::Embedding => "embed",
        }
    }

    /// Decodes a kind byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadKind`] for an unknown byte.
    pub fn from_u8(b: u8) -> Result<ArtifactKind, StoreError> {
        match b {
            1 => Ok(ArtifactKind::TraceGroups),
            2 => Ok(ArtifactKind::CorpusOutcome),
            3 => Ok(ArtifactKind::Facts),
            4 => Ok(ArtifactKind::Lint),
            5 => Ok(ArtifactKind::Embedding),
            found => Err(StoreError::BadKind { found }),
        }
    }
}

/// Serializes one artifact entry into `LGRS1` bytes.
#[must_use]
pub fn entry_to_bytes(kind: ArtifactKind, key: u64, fingerprint: &str, payload: &[u8]) -> Vec<u8> {
    let mut w =
        ByteWriter::with_capacity(4 + 1 + 1 + 8 + 4 + fingerprint.len() + 8 + payload.len() + 8);
    w.header(MAGIC, VERSION);
    w.u8(kind as u8);
    w.u64(key);
    w.str(fingerprint);
    w.u64(payload.len() as u64);
    w.raw(payload);
    w.u64(fnv1a_bytes(payload));
    w.into_bytes()
}

/// A fully parsed artifact entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The artifact family.
    pub kind: ArtifactKind,
    /// The 64-bit content key.
    pub key: u64,
    /// The producer fingerprint stamped at write time.
    pub fingerprint: String,
    /// The opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Parses an `LGRS1` entry, verifying magic, version, kind, checksum,
/// and exact length.
///
/// # Errors
///
/// Every corruption mode is typed: [`StoreError::BadMagic`],
/// [`StoreError::VersionMismatch`], [`StoreError::BadKind`],
/// [`StoreError::Truncated`], [`StoreError::ChecksumMismatch`],
/// [`StoreError::TrailingBytes`], and [`StoreError::BadRecord`] for a
/// non-UTF-8 fingerprint.
pub fn entry_from_bytes(buf: &[u8]) -> Result<Entry, StoreError> {
    let mut r = ByteReader::new(buf);
    r.header(MAGIC, VERSION)?;
    let kind = ArtifactKind::from_u8(r.u8()?)?;
    let key = r.u64()?;
    let fingerprint = r.str()?;
    let payload_len = usize::try_from(r.u64()?).map_err(|_| StoreError::Truncated)?;
    let payload = r.take(payload_len)?.to_vec();
    let checksum = r.u64()?;
    r.finish()?;
    if checksum != fnv1a_bytes(&payload) {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(Entry { kind, key, fingerprint, payload })
}

/// Serializes an embedding vector as a length-prefixed run of IEEE-754
/// bits — the payload grammar of [`ArtifactKind::Embedding`] entries,
/// shared by serve, quickstart, and the eval pipeline so a vector
/// cached by one consumer loads bitwise-identical in another.
#[must_use]
pub fn embedding_to_bytes(vec: &[f32]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + 4 * vec.len());
    w.seq(vec, |w, &x| w.f32(x));
    w.into_bytes()
}

/// Parses an embedding payload written by [`embedding_to_bytes`].
///
/// # Errors
///
/// [`StoreError::Truncated`] / [`StoreError::TrailingBytes`] when the
/// byte count disagrees with the length prefix.
pub fn embedding_from_bytes(buf: &[u8]) -> Result<Vec<f32>, StoreError> {
    let mut r = ByteReader::new(buf);
    let vec = r.seq(4, ByteReader::f32)?;
    r.finish()?;
    Ok(vec)
}

/// A content-addressed artifact store rooted at one directory.
///
/// Lookups are fingerprint-checked: [`Store::get`] returns the payload
/// only when both the key and the producer fingerprint match, and
/// counts every outcome on the `store.hits` / `store.misses` obs
/// counters. [`Store::put`] is atomic and counts replaced
/// different-fingerprint entries as `store.evictions`.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (or creates) the store rooted at `dir`, creating the kind
    /// directories and sweeping any `.tmp` orphan a crashed writer left
    /// behind — a half-written temp file must never shadow or outlive
    /// the entry it was meant to replace.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directories cannot be created or
    /// swept.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        for kind in ArtifactKind::ALL {
            let d = dir.join(kind.dir_name());
            std::fs::create_dir_all(&d).map_err(io)?;
            for shard in std::fs::read_dir(&d).map_err(io)? {
                let shard = shard.map_err(io)?.path();
                if !shard.is_dir() {
                    continue;
                }
                for f in std::fs::read_dir(&shard).map_err(io)? {
                    let f = f.map_err(io)?.path();
                    if f.extension().is_some_and(|e| e == "tmp") {
                        std::fs::remove_file(&f).map_err(io)?;
                    }
                }
            }
        }
        Ok(Store { root: dir.to_path_buf() })
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an artifact lives at.
    #[must_use]
    pub fn entry_path(&self, kind: ArtifactKind, key: u64) -> PathBuf {
        self.root
            .join(kind.dir_name())
            .join(format!("{:02x}", key >> 56))
            .join(format!("{key:016x}.lgrs"))
    }

    /// Looks up an artifact. `Ok(None)` means a miss — absent entry
    /// *or* present entry stamped with a different fingerprint (a
    /// changed model or flag must read as stale, never as a wrong
    /// hit). Corruption is a typed error, not a miss, so a damaged
    /// store surfaces instead of silently recomputing forever.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, plus every parse error
    /// [`entry_from_bytes`] reports.
    pub fn get(
        &self,
        kind: ArtifactKind,
        key: u64,
        fingerprint: &str,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let _span = obs::span!("store.lookup");
        let path = self.entry_path(kind, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                obs::counter!("store.misses").inc();
                return Ok(None);
            }
            Err(e) => return Err(StoreError::Io(e.to_string())),
        };
        let entry = entry_from_bytes(&bytes)?;
        if entry.kind != kind || entry.key != key {
            return Err(StoreError::BadRecord);
        }
        if entry.fingerprint != fingerprint {
            obs::counter!("store.misses").inc();
            return Ok(None);
        }
        obs::counter!("store.hits").inc();
        Ok(Some(entry.payload))
    }

    /// Writes an artifact atomically (`.tmp` + `sync_all` + rename).
    /// Replacing an entry that carried a different fingerprint counts
    /// one `store.evictions`; `store.bytes` accumulates payload bytes
    /// written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put(
        &self,
        kind: ArtifactKind,
        key: u64,
        fingerprint: &str,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let path = self.entry_path(kind, key);
        if let Ok(old) = std::fs::read(&path) {
            if entry_from_bytes(&old).map(|e| e.fingerprint != fingerprint).unwrap_or(true) {
                obs::counter!("store.evictions").inc();
            }
        }
        let dir = path.parent().expect("entry path has a shard directory");
        std::fs::create_dir_all(dir).map_err(io)?;
        write_atomic(&path, &entry_to_bytes(kind, key, fingerprint, payload)).map_err(io)?;
        obs::counter!("store.bytes").add(payload.len() as u64);
        Ok(())
    }

    /// Removes one artifact if present; `Ok(false)` when absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn remove(&self, kind: ArtifactKind, key: u64) -> Result<bool, StoreError> {
        let path = self.entry_path(kind, key);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    /// Counts live entries of one kind (walks the fan-out directories;
    /// a diagnostics helper, not a hot path).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn len(&self, kind: ArtifactKind) -> Result<usize, StoreError> {
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let mut n = 0;
        let d = self.root.join(kind.dir_name());
        for shard in std::fs::read_dir(&d).map_err(io)? {
            let shard = shard.map_err(io)?.path();
            if !shard.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(&shard).map_err(io)? {
                let f = f.map_err(io)?.path();
                if f.extension().is_some_and(|e| e == "lgrs") {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Whether no entries of `kind` exist.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn is_empty(&self, kind: ArtifactKind) -> Result<bool, StoreError> {
        Ok(self.len(kind)? == 0)
    }
}

/// A snapshot of the store's obs counters, for reporting hit rates at
/// the end of a run (quickstart prints this, the CI warm-rerun gate
/// greps it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Fingerprint-checked lookups that returned a payload.
    pub hits: u64,
    /// Absent or stale-fingerprint lookups.
    pub misses: u64,
    /// Payload bytes written.
    pub bytes: u64,
    /// Entries replaced because their fingerprint changed.
    pub evictions: u64,
}

impl StoreStats {
    /// Reads the current counter values from the obs registry.
    #[must_use]
    pub fn snapshot() -> StoreStats {
        let snap = obs::metrics::registry().snapshot();
        let get = |name: &str| snap.counter(name).unwrap_or(0);
        StoreStats {
            hits: get("store.hits"),
            misses: get("store.misses"),
            bytes: get("store.bytes"),
            evictions: get("store.evictions"),
        }
    }

    /// The delta between two snapshots (`self` taken after `before`).
    #[must_use]
    pub fn since(&self, before: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            bytes: self.bytes - before.bytes,
            evictions: self.evictions - before.evictions,
        }
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} bytes={} evictions={}",
            self.hits, self.misses, self.bytes, self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The obs counters are process-global; tests that assert on their
    // deltas must not interleave with other tests' get/put traffic.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn counter_lock() -> MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("lgrs-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn entry_roundtrip() {
        let bytes = entry_to_bytes(ArtifactKind::Facts, 0xabcd, "fp@1", b"payload");
        let entry = entry_from_bytes(&bytes).unwrap();
        assert_eq!(entry.kind, ArtifactKind::Facts);
        assert_eq!(entry.key, 0xabcd);
        assert_eq!(entry.fingerprint, "fp@1");
        assert_eq!(entry.payload, b"payload");
    }

    #[test]
    fn embedding_payload_roundtrip_is_bitwise() {
        let vec = [1.0f32, -0.0, f32::MIN_POSITIVE, 3.25e-7];
        let bytes = embedding_to_bytes(&vec);
        let back = embedding_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), vec.len());
        for (a, b) in vec.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(embedding_from_bytes(&bytes[..bytes.len() - 1]), Err(StoreError::Truncated));
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(embedding_from_bytes(&long), Err(StoreError::TrailingBytes));
    }

    #[test]
    fn get_put_roundtrip_and_miss_semantics() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("roundtrip");
        let key = 0x1122_3344_5566_7788;
        assert_eq!(store.get(ArtifactKind::TraceGroups, key, "fp").unwrap(), None);
        store.put(ArtifactKind::TraceGroups, key, "fp", b"data").unwrap();
        assert_eq!(
            store.get(ArtifactKind::TraceGroups, key, "fp").unwrap().as_deref(),
            Some(&b"data"[..])
        );
        // Same key, other kind: independent namespace.
        assert_eq!(store.get(ArtifactKind::Embedding, key, "fp").unwrap(), None);
        assert_eq!(store.len(ArtifactKind::TraceGroups).unwrap(), 1);
        assert!(store.is_empty(ArtifactKind::Embedding).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_reads_as_miss_never_wrong_hit() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("fp");
        let key = 42;
        store.put(ArtifactKind::Embedding, key, "model-a", b"vec-a").unwrap();
        // A changed checkpoint/flag must be a miss...
        assert_eq!(store.get(ArtifactKind::Embedding, key, "model-b").unwrap(), None);
        // ...and the matching fingerprint still hits.
        assert_eq!(
            store.get(ArtifactKind::Embedding, key, "model-a").unwrap().as_deref(),
            Some(&b"vec-a"[..])
        );
        // Overwriting with a new fingerprint evicts and the old
        // fingerprint can never resurface.
        let before = StoreStats::snapshot();
        store.put(ArtifactKind::Embedding, key, "model-b", b"vec-b").unwrap();
        assert_eq!(StoreStats::snapshot().since(&before).evictions, 1);
        assert_eq!(store.get(ArtifactKind::Embedding, key, "model-a").unwrap(), None);
        assert_eq!(
            store.get(ArtifactKind::Embedding, key, "model-b").unwrap().as_deref(),
            Some(&b"vec-b"[..])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_leftover_tmp_from_crashed_writer() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("sweep");
        let key = 7;
        store.put(ArtifactKind::Lint, key, "fp", b"good").unwrap();
        // Simulate a crash mid-write: a .tmp sibling with garbage.
        let tmp = store.entry_path(ArtifactKind::Lint, key).with_extension("tmp");
        std::fs::write(&tmp, b"torn half-write").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(!tmp.exists(), "open must sweep the orphan");
        // The committed entry survived untouched.
        assert_eq!(store.get(ArtifactKind::Lint, key, "fp").unwrap().as_deref(), Some(&b"good"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_typed_error_not_miss() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("corrupt");
        let key = 9;
        store.put(ArtifactKind::Facts, key, "fp", b"facts").unwrap();
        let path = store.entry_path(ArtifactKind::Facts, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.get(ArtifactKind::Facts, key, "fp").unwrap_err(),
            StoreError::ChecksumMismatch
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_mismatch_inside_entry_is_bad_record() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("keymove");
        store.put(ArtifactKind::Facts, 1, "fp", b"x").unwrap();
        // Move the entry to a different key's path: content-addressing
        // violated, must be typed.
        let from = store.entry_path(ArtifactKind::Facts, 1);
        let to = store.entry_path(ArtifactKind::Facts, 2);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::rename(&from, &to).unwrap();
        assert_eq!(store.get(ArtifactKind::Facts, 2, "fp").unwrap_err(), StoreError::BadRecord);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_is_red_green_precise() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("remove");
        store.put(ArtifactKind::TraceGroups, 1, "fp", b"a").unwrap();
        store.put(ArtifactKind::TraceGroups, 2, "fp", b"b").unwrap();
        assert!(store.remove(ArtifactKind::TraceGroups, 1).unwrap());
        assert!(!store.remove(ArtifactKind::TraceGroups, 1).unwrap());
        assert_eq!(
            store.get(ArtifactKind::TraceGroups, 2, "fp").unwrap().as_deref(),
            Some(&b"b"[..])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let _guard = counter_lock();
        let (dir, store) = tmp_store("counters");
        let before = StoreStats::snapshot();
        assert!(store.get(ArtifactKind::Embedding, 5, "fp").unwrap().is_none());
        store.put(ArtifactKind::Embedding, 5, "fp", &[1, 2, 3]).unwrap();
        assert!(store.get(ArtifactKind::Embedding, 5, "fp").unwrap().is_some());
        assert!(store.get(ArtifactKind::Embedding, 5, "other").unwrap().is_none());
        let delta = StoreStats::snapshot().since(&before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 2);
        assert_eq!(delta.bytes, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
