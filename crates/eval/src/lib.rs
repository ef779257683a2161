//! # eval — metrics, dataset pipeline, and experiment drivers
//!
//! Everything §6 of the paper needs to be regenerated:
//!
//! - [`metrics`] — the case-insensitive, order-free sub-token
//!   precision/recall/F1 of §6.1.1, classification accuracy, macro F1,
//! - [`pipeline`] — prepares both corpora for all four models with
//!   train-split vocabularies and min-line-cover path ordering,
//! - [`baseline_train`] — training loops for code2vec/code2seq/DYPRO,
//! - [`experiments`] — one driver per table/figure (Table 1/2/3,
//!   Figures 6–10) at configurable [`Scale`]s, every trained model
//!   memoized per scale in one [`Cells`],
//! - [`report`] — markdown renderers for the regenerated rows.
//!
//! # Examples
//!
//! Run the smallest version of Table 1:
//!
//! ```
//! use eval::{table1, Scale};
//!
//! let stats = table1(&Scale::tiny());
//! assert!(stats.kept > 0);
//! assert_eq!(
//!     stats.original,
//!     stats.kept + stats.no_compile + stats.no_exec + stats.timeout + stats.too_small,
//! );
//! ```

pub mod baseline_train;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod report;

pub use baseline_train::{
    train_code2seq, train_code2vec, train_dypro_classifier, train_dypro_namer,
    BaselineTrainConfig,
};
pub use experiments::{
    build_coset_dataset, build_method_dataset, dypro_coset_scores, dypro_method_scores,
    eval_coset_classifier, eval_method_namer, fig6_concrete, fig6_symbolic, fig7,
    liger_coset_scores, liger_method_scores, load_coset_classifier, load_method_namer,
    symbolic_concrete, symbolic_levels, table1, table2, table3, train_coset_classifier,
    train_method_namer, Cells, ClassScores, ConcreteRow, CosetReductionRow, Model, NameScores,
    PathLevel, Scale, SymbolicRow,
};
pub use metrics::{Accuracy, ClassF1, PrecisionRecallF1};
pub use pipeline::{
    coset_at, method_at_concrete, method_at_paths, prepare_coset_dataset,
    prepare_method_dataset, CosetDataset, MethodDataset, MethodVocabs, PreparedCoset,
    PreparedMethod, PrepareOptions,
};
pub use report::{concrete_markdown, symbolic_markdown, table2_markdown, table3_markdown};
