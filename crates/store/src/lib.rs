//! Content-addressed on-disk artifact store for the LIGER pipeline.
//!
//! The paper's blended embeddings are expensive by construction: every
//! program is traced, symbolically executed, and encoded before its
//! vector exists. This crate makes that work incremental across process
//! restarts — a corpus pass consults the store before tracing or
//! encoding, and an unchanged program loads bitwise-identical artifacts
//! instead of recomputing them.
//!
//! Two pieces:
//!
//! * [`hash`] — the one FNV-1a implementation every key space shares
//!   (serve routing, index identity, canon memo, store keys), plus the
//!   SplitMix64 seed-derivation used by the incremental corpus
//!   pipeline.
//! * [`Store`] — the content-addressed store itself: `LGRS1` entries,
//!   atomic writes, fingerprint-checked lookups, typed [`StoreError`]
//!   on any corruption, `store.hits`/`store.misses`/`store.bytes`/
//!   `store.evictions` obs counters and a `store.lookup` span.
//!
//! The store holds payloads as opaque bytes. Entries, the embedding
//! payload, and the payload codecs of the artifact-owning crates (trace,
//! analysis, datagen) all read and write through `tensor::codec`, the
//! one byte reader/writer every on-disk format shares; a codec error
//! converts into [`StoreError`]. The store depends only on `tensor` and
//! `obs`, so every layer of the stack — from `randgen` up to
//! `liger-serve` — can reach it without cycles.

mod error;
pub mod hash;
mod store;

pub use error::StoreError;
pub use store::{
    embedding_from_bytes, embedding_to_bytes, entry_from_bytes, entry_to_bytes, ArtifactKind,
    Entry, Store, StoreStats, MAGIC, VERSION,
};
