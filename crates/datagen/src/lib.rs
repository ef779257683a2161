//! # datagen — synthetic corpora for both evaluation tasks
//!
//! The paper evaluates on Java-med/Java-large (method-name prediction)
//! and COSET (semantics classification); neither is available offline, so
//! this crate generates laptop-scale equivalents that preserve the
//! *phenomena* the evaluation measures (DESIGN.md §1):
//!
//! - [`templates`] — 27 method behaviours rendered through the
//!   semantics-preserving [`variation`] engine (renaming incl. misleading
//!   identifiers, loop forms, `i += i` vs `i *= 2`, …), with deliberate
//!   confusable pairs (sum/product, max/min, …),
//! - [`coset`] — ten coding problems × several algorithmic strategies
//!   each, labelled by strategy,
//! - [`corpus`] — raw generation (including defective programs), the
//!   Table 1 filter pipeline (compile / executions / timeout / size), and
//!   train/valid/test splits.
//!
//! # Examples
//!
//! ```
//! use datagen::{Behavior, Knobs};
//!
//! let source = Behavior::SumArray.render(&Knobs::plain());
//! let program = minilang::parse(&source).unwrap();
//! assert_eq!(program.function.name, "sumArray");
//! ```

pub mod corpus;
pub mod coset;
pub mod templates;
pub mod variation;

pub use corpus::{
    corpus_fingerprint, filter_source, generate_coset_corpus, generate_method_corpus,
    outcome_from_bytes, outcome_to_bytes, split_indices, Corpus, CorpusConfig, CosetCorpus,
    CosetSample, FilterReason, FilterStats, MethodCorpus, MethodSample, Split, DEFAULT_GEN_SEED,
};
pub use coset::Strategy;
pub use templates::Behavior;
pub use variation::{
    distractor_preamble, with_distractors, with_opaque_distractor, CmpStyle, IncrStyle, Knobs,
    LoopStyle, NameAssignment,
};
