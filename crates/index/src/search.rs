//! Query-side types and the exact brute-force searcher.
//!
//! The [`Searcher`] trait abstracts *candidate generation*: given a
//! normalized query, produce the top rows by cosine similarity. The
//! exact searcher scores every stored row through the
//! [`tensor::cosine_scores`] kernel; the ANN searcher
//! ([`crate::ann::AnnGraph`]) walks a small-world graph and is swapped
//! in above a corpus-size threshold by [`crate::Index`]. Ranking on top
//! of the candidates (min-sim filtering, hybrid RRF fusion) is shared
//! and lives in [`crate::Index::search`].

use crate::error::IndexError;
use crate::store::EmbeddingStore;

/// How `search` ranks its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Pure embedding similarity.
    #[default]
    Cosine,
    /// Reciprocal-rank fusion of cosine ranks with token-overlap ranks.
    Hybrid,
}

impl SearchMode {
    /// The wire-protocol name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            SearchMode::Cosine => "cosine",
            SearchMode::Hybrid => "hybrid",
        }
    }

    /// Parses a wire-protocol mode name.
    pub fn from_name(name: &str) -> Option<SearchMode> {
        match name {
            "cosine" => Some(SearchMode::Cosine),
            "hybrid" => Some(SearchMode::Hybrid),
            _ => None,
        }
    }
}

/// Validated query parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// How many hits to return.
    pub k: usize,
    /// Hits below this cosine similarity are dropped (applies in both
    /// modes; `-1.0` disables the threshold).
    pub min_sim: f32,
    /// Ranking mode.
    pub mode: SearchMode,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions { k: 5, min_sim: -1.0, mode: SearchMode::Cosine }
    }
}

impl SearchOptions {
    /// Rejects degenerate parameters with typed errors.
    ///
    /// # Errors
    ///
    /// [`IndexError::BadK`] for `k == 0`, [`IndexError::BadMinSim`] for
    /// thresholds outside `[-1, 1]` (NaN included).
    pub fn validate(&self) -> Result<(), IndexError> {
        if self.k == 0 {
            return Err(IndexError::BadK);
        }
        if !(-1.0..=1.0).contains(&self.min_sim) {
            return Err(IndexError::BadMinSim { value: self.min_sim });
        }
        Ok(())
    }
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The entry's content-hash key.
    pub key: u64,
    /// Cosine similarity to the query.
    pub cosine: f32,
    /// The ranking score: the cosine itself in cosine mode, the fused
    /// RRF score in hybrid mode.
    pub score: f64,
}

/// Candidate generation: the top `k` rows by cosine similarity, sorted
/// descending, ties broken by key ascending.
pub trait Searcher {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &'static str;

    /// The top-`k` `(row, cosine)` candidates for a normalized query.
    fn top_cosine(&self, store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<(usize, f32)>;
}

/// Sorts `(row, cosine)` pairs by similarity descending with the
/// deterministic key-ascending tie-break, truncating to `k` — the one
/// ordering rule every searcher (and the hybrid ranker) shares, so
/// results never depend on insertion order or shard interleaving.
pub fn rank_candidates(
    store: &EmbeddingStore,
    mut candidates: Vec<(usize, f32)>,
    k: usize,
) -> Vec<(usize, f32)> {
    candidates.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(store.keys()[a.0].cmp(&store.keys()[b.0]))
    });
    candidates.truncate(k);
    candidates
}

/// Exact brute-force search: every stored row scored in one batch-major
/// kernel call, then top-k selected.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSearcher;

impl Searcher for ExactSearcher {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn top_cosine(&self, store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        let n = store.len();
        let mut scores = vec![0.0f32; n];
        if n > 0 && store.dim() > 0 {
            tensor::cosine_scores(store.matrix(), n, store.dim(), query, 1, &mut scores);
        }
        let candidates = scores.into_iter().enumerate().collect();
        rank_candidates(store, candidates, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> EmbeddingStore {
        let mut store = EmbeddingStore::new(2, "m");
        store.insert(10, &[1.0, 0.0], &[1]).unwrap();
        store.insert(20, &[0.0, 1.0], &[2]).unwrap();
        store.insert(30, &[1.0, 1.0], &[3]).unwrap();
        store
    }

    #[test]
    fn exact_search_ranks_by_cosine() {
        let store = store3();
        let hits = ExactSearcher.top_cosine(&store, &[1.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(store.keys()[hits[0].0], 10);
        assert_eq!(hits[0].1, 1.0);
        assert_eq!(store.keys()[hits[1].0], 30);
        assert!((hits[1].1 - (0.5f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn ties_break_by_key_ascending() {
        let mut store = EmbeddingStore::new(2, "m");
        // Inserted in descending key order; identical vectors.
        store.insert(9, &[1.0, 0.0], &[]).unwrap();
        store.insert(4, &[1.0, 0.0], &[]).unwrap();
        let hits = ExactSearcher.top_cosine(&store, &[1.0, 0.0], 2);
        assert_eq!(store.keys()[hits[0].0], 4);
        assert_eq!(store.keys()[hits[1].0], 9);
    }

    #[test]
    fn options_validate() {
        assert_eq!(
            SearchOptions { k: 0, ..SearchOptions::default() }.validate().unwrap_err(),
            IndexError::BadK
        );
        assert_eq!(
            SearchOptions { min_sim: 1.5, ..SearchOptions::default() }.validate().unwrap_err(),
            IndexError::BadMinSim { value: 1.5 }
        );
        assert!(matches!(
            SearchOptions { min_sim: f32::NAN, ..SearchOptions::default() }
                .validate()
                .unwrap_err(),
            IndexError::BadMinSim { .. }
        ));
        assert!(SearchOptions::default().validate().is_ok());
    }

    #[test]
    fn mode_names_roundtrip() {
        for mode in [SearchMode::Cosine, SearchMode::Hybrid] {
            assert_eq!(SearchMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(SearchMode::from_name("dance"), None);
    }
}
