//! # interp — the tracing interpreter of the LIGER reproduction
//!
//! Plays the role of the paper's instrumented JVM: executes MiniLang
//! programs on concrete inputs and records complete execution traces
//! (Definition 2.1 of the paper) — the statement-event sequence, the
//! program state after every statement, and statement/line coverage.
//!
//! An [`Interpreter`] computes a program's [`VarLayout`] once and keeps
//! variables in one slot per layout entry, so each state snapshot is a
//! vector clone. It runs in two recording modes over one evaluator:
//! [`Interpreter::run`] records the full trace, and
//! [`Interpreter::run_path`] records only the [`PathStep`]s. Both spend
//! the same fuel and fail the same way, so a path-only run tells a
//! caller exactly whether a traced run would succeed and which path it
//! would take, at a fraction of the cost. Input generators use it to
//! discard executions before paying for their states.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use interp::{run, Value, VarLayout};
//!
//! let program = minilang::parse(
//!     "fn sumTo(n: int) -> int {
//!          let s: int = 0;
//!          for (let i: int = 1; i <= n; i += 1) { s += i; }
//!          return s;
//!      }",
//! )?;
//! let result = run(&program, &[Value::Int(4)])?;
//! assert_eq!(result.return_value, Value::Int(10));
//!
//! // Render the final state in the paper's Figure 2 style.
//! let layout = VarLayout::of(&program);
//! let last = result.events.last().unwrap();
//! assert_eq!(last.state.render(&layout.names), "{n:4; s:10; i:⊥}");
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod interpreter;
pub mod trace_event;
pub mod value;

pub use error::RuntimeError;
pub use interpreter::{run, run_with_fuel, Interpreter, RunResult, DEFAULT_FUEL};
pub use trace_event::{EventKind, PathStep, TraceEvent};
pub use value::{State, Value, VarLayout};
