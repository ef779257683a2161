//! # randgen — feedback-directed random input generation
//!
//! Stands in for Randoop [22] in the paper's pipeline (§6.1) and for the
//! custom "random input generation engine" used for COSET (§6.2):
//!
//! - [`random_inputs`] draws typed random inputs biased toward
//!   branch-relevant small values,
//! - [`generate_grouped`] runs the feedback-directed loop — keep an
//!   execution when it discovers a new path or its path still needs
//!   concrete traces — and returns executions grouped by path. Attempts
//!   run path-only; only kept inputs are traced in full, and
//! - [`min_line_cover`] / [`reduction_order`] implement the
//!   line-coverage-preserving symbolic-trace reduction of §6.1.2.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = minilang::parse(
//!     "fn isPositive(x: int) -> bool {
//!          if (x > 0) { return true; }
//!          return false;
//!      }",
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (groups, stats) =
//!     randgen::generate_grouped(&program, &randgen::GenConfig::default(), &mut rng);
//! assert_eq!(groups.len(), 2);
//! assert!(stats.kept > 0);
//! # Ok(())
//! # }
//! ```

pub mod feedback;
pub mod inputs;
pub mod mincover;

pub use feedback::{generate_grouped, GenConfig, GenStats};
pub use inputs::{check_inputs, random_inputs, random_value, InputConfig, InputError};
pub use mincover::{min_line_cover, reduction_order};
