//! The storage layer: normalized embedding vectors plus token posting
//! lists, keyed by content hash.
//!
//! The store keeps every vector in one contiguous row-major matrix so
//! brute-force search is one [`tensor::cosine_scores`] sweep over it.
//! Vectors are L2-normalized at insert time, turning every similarity
//! into a plain dot product.
//!
//! Keys are the serve routing hash (FNV-1a over program structure), so
//! one program has one entry no matter how often it is re-indexed:
//! re-inserting an existing key overwrites in place ([`InsertOutcome`]
//! reports whether anything actually changed) and never grows the
//! matrix.

use crate::error::IndexError;
use std::collections::HashMap;

/// What [`EmbeddingStore::insert`] did with the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new key: the entry was appended.
    Inserted,
    /// The key existed with different contents: overwritten in place.
    Updated,
    /// The key existed with bitwise-identical contents: nothing changed.
    Unchanged,
}

impl InsertOutcome {
    /// The wire-protocol name of this outcome.
    pub fn name(self) -> &'static str {
        match self {
            InsertOutcome::Inserted => "inserted",
            InsertOutcome::Updated => "updated",
            InsertOutcome::Unchanged => "unchanged",
        }
    }
}

/// A persistent store of `(key, normalized vector, token posting list)`
/// entries with versioned model metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmbeddingStore {
    dim: usize,
    /// Which model produced the vectors. Loading an index whose
    /// fingerprint differs from the serving model is refused: embeddings
    /// from different models are not comparable.
    fingerprint: String,
    keys: Vec<u64>,
    /// `keys.len() × dim`, row-major, each row L2-normalized.
    matrix: Vec<f32>,
    /// Sorted, deduplicated token ids per entry — the lexical half of
    /// hybrid ranking.
    postings: Vec<Vec<u32>>,
    by_key: HashMap<u64, usize>,
}

impl EmbeddingStore {
    /// An empty store for `dim`-dimensional vectors from the model
    /// identified by `fingerprint`.
    pub fn new(dim: usize, fingerprint: impl Into<String>) -> EmbeddingStore {
        EmbeddingStore { dim, fingerprint: fingerprint.into(), ..EmbeddingStore::default() }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The producing model's fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The content-hash keys in row order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The packed row-major vector matrix (`len() × dim()`).
    pub fn matrix(&self) -> &[f32] {
        &self.matrix
    }

    /// Row `row`'s normalized vector.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.matrix[row * self.dim..(row + 1) * self.dim]
    }

    /// Row `row`'s sorted token posting list.
    pub fn postings(&self, row: usize) -> &[u32] {
        &self.postings[row]
    }

    /// The row holding `key`, if present.
    pub fn row_of(&self, key: u64) -> Option<usize> {
        self.by_key.get(&key).copied()
    }

    /// Serialized size of this store in the `LGRI1` format — the
    /// `bytes` figure the stats report.
    pub fn bytes(&self) -> usize {
        // Header: magic+version, fingerprint, dim, count.
        let mut total = 5 + 4 + self.fingerprint.len() + 4 + 4;
        for p in &self.postings {
            total += 8 + self.dim * 4 + 4 + p.len() * 4;
        }
        total
    }

    /// L2-normalizes `v` in place (f64 accumulation; the all-zero vector
    /// stays zero rather than dividing by zero).
    fn normalize(v: &mut [f32]) {
        let norm = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
        if norm > 0.0 {
            let inv = (1.0 / norm) as f32;
            for x in v {
                *x *= inv;
            }
        }
    }

    /// Inserts (or overwrites) the entry for `key`. The vector is
    /// normalized and the token list sorted/deduplicated before storage.
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `vector.len() != dim()`.
    pub fn insert(
        &mut self,
        key: u64,
        vector: &[f32],
        tokens: &[u32],
    ) -> Result<InsertOutcome, IndexError> {
        if vector.len() != self.dim {
            return Err(IndexError::DimMismatch { expected: self.dim, found: vector.len() });
        }
        let mut row_vec = vector.to_vec();
        Self::normalize(&mut row_vec);
        let mut toks = tokens.to_vec();
        toks.sort_unstable();
        toks.dedup();
        match self.by_key.get(&key) {
            Some(&row) => {
                let same_vec = self
                    .row(row)
                    .iter()
                    .zip(&row_vec)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if same_vec && self.postings[row] == toks {
                    return Ok(InsertOutcome::Unchanged);
                }
                self.matrix[row * self.dim..(row + 1) * self.dim].copy_from_slice(&row_vec);
                self.postings[row] = toks;
                Ok(InsertOutcome::Updated)
            }
            None => {
                let row = self.keys.len();
                self.keys.push(key);
                self.matrix.extend_from_slice(&row_vec);
                self.postings.push(toks);
                self.by_key.insert(key, row);
                Ok(InsertOutcome::Inserted)
            }
        }
    }

    /// Rebuilds the key → row map — used by the loader, which fills the
    /// columnar fields directly.
    pub(crate) fn from_parts(
        dim: usize,
        fingerprint: String,
        keys: Vec<u64>,
        matrix: Vec<f32>,
        postings: Vec<Vec<u32>>,
    ) -> Result<EmbeddingStore, IndexError> {
        let mut by_key = HashMap::with_capacity(keys.len());
        for (row, &key) in keys.iter().enumerate() {
            if by_key.insert(key, row).is_some() {
                return Err(IndexError::BadRecord { index: row });
            }
        }
        Ok(EmbeddingStore { dim, fingerprint, keys, matrix, postings, by_key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_normalizes_and_dedups_tokens() {
        let mut store = EmbeddingStore::new(2, "m");
        assert_eq!(store.insert(7, &[3.0, 4.0], &[5, 1, 5, 3]).unwrap(), InsertOutcome::Inserted);
        assert_eq!(store.len(), 1);
        let row = store.row(0);
        assert!((row[0] - 0.6).abs() < 1e-6 && (row[1] - 0.8).abs() < 1e-6);
        assert_eq!(store.postings(0), &[1, 3, 5]);
        assert_eq!(store.row_of(7), Some(0));
    }

    #[test]
    fn reinsert_dedups_instead_of_growing() {
        let mut store = EmbeddingStore::new(2, "m");
        store.insert(7, &[3.0, 4.0], &[1]).unwrap();
        // Same direction ⇒ same normalized vector ⇒ unchanged.
        assert_eq!(store.insert(7, &[6.0, 8.0], &[1]).unwrap(), InsertOutcome::Unchanged);
        assert_eq!(store.insert(7, &[0.0, 1.0], &[1]).unwrap(), InsertOutcome::Updated);
        assert_eq!(store.len(), 1);
        assert_eq!(store.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn dim_mismatch_is_a_typed_error() {
        let mut store = EmbeddingStore::new(3, "m");
        assert_eq!(
            store.insert(1, &[1.0], &[]).unwrap_err(),
            IndexError::DimMismatch { expected: 3, found: 1 }
        );
    }

    #[test]
    fn zero_vector_stays_zero() {
        let mut store = EmbeddingStore::new(2, "m");
        store.insert(1, &[0.0, 0.0], &[]).unwrap();
        assert_eq!(store.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn bytes_tracks_contents() {
        let mut store = EmbeddingStore::new(4, "model-x");
        let empty = store.bytes();
        store.insert(1, &[1.0, 0.0, 0.0, 0.0], &[2, 9]).unwrap();
        assert_eq!(store.bytes(), empty + 8 + 16 + 4 + 8);
    }

    #[test]
    fn duplicate_keys_in_parts_are_rejected() {
        let err = EmbeddingStore::from_parts(
            1,
            String::new(),
            vec![3, 3],
            vec![1.0, 1.0],
            vec![vec![], vec![]],
        )
        .unwrap_err();
        assert_eq!(err, IndexError::BadRecord { index: 1 });
    }
}
