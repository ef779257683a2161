//! # tensor — a small reverse-mode autodiff engine
//!
//! The paper implements LIGER in TensorFlow; no comparable stack exists
//! offline in Rust, so this crate is the reproduction's deep-learning
//! substrate (DESIGN.md §1):
//!
//! - [`Tensor`] — dense `f32` vectors/matrices with deterministic kernels,
//! - [`ParamStore`] — trainable parameters (values + gradients) shared
//!   across per-example graphs,
//! - [`Graph`] — a define-by-run computation graph with the operators the
//!   paper's architecture needs (affine maps, gates, concat, softmax
//!   attention weighting, max-pooling, cross-entropy) and full
//!   reverse-mode differentiation,
//! - [`gradcheck`] — the numerical-gradient harness every layer is tested
//!   against,
//! - [`codec`] — the bounds-checked byte reader/writer and atomic file
//!   write behind every on-disk format in the workspace.
//!
//! # Examples
//!
//! ```
//! use tensor::{Graph, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(2, 2, vec![0.5, 0.0, 0.0, 0.5]));
//!
//! let mut g = Graph::new();
//! let wv = g.param(&store, w);
//! let x = g.input(Tensor::vector(vec![1.0, -1.0]));
//! let h = g.matvec(wv, x);
//! let h = g.tanh(h);
//! let loss = g.cross_entropy(h, 0);
//!
//! g.backward(loss, &mut store);
//! assert!(store.grad_norm() > 0.0);
//! ```

pub mod codec;
pub mod gradcheck;
pub mod serialize;
pub mod graph;
pub mod pool;
pub mod store;
pub mod tensor;

pub use gradcheck::{assert_grads_close, grad_check, pseudo_tensor, GradCheckReport};
pub use graph::{Act, Graph, VarId};
pub use pool::BufferPool;
pub use serialize::{load_store_binary, save_store_binary, CheckpointError, LoadError};
pub use store::{Param, ParamGrads, ParamId, ParamStore};
pub use tensor::{cosine_scores, gemm_batch, Tensor};
