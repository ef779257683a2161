//! # MiniLang — the language substrate of the LIGER reproduction
//!
//! The paper *Blended, Precise Semantic Program Embeddings* (PLDI 2020)
//! evaluates on Java methods parsed with JavaParser and executed under
//! instrumentation. This crate supplies the equivalent front end for the
//! reproduction: a small, typed, imperative, Java-flavoured language with
//!
//! - a lexer ([`lex`]) and recursive-descent parser ([`parse`]),
//! - a typed AST ([`ast`]) where every statement carries a stable id and a
//!   source line (used for line-coverage accounting in §6.1.2),
//! - a pretty printer ([`pretty`]) whose output re-parses to the same tree,
//! - a static type checker ([`typecheck`]) used as the "does it compile?"
//!   filter of Table 1, and
//! - the AST node-type enumeration and labelled-tree view ([`node_type`])
//!   that feed the vocabulary 𝒟ₛ and the fusion layer's TreeLSTM.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), minilang::LangError> {
//! let program = minilang::parse(
//!     "fn double(x: int) -> int { x *= 2; return x; }",
//! )?;
//! minilang::typecheck(&program)?;
//! assert_eq!(program.function.name, "double");
//! let printed = minilang::print_program(&program);
//! assert_eq!(minilang::parse(&printed)?.function.name, "double");
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod ident;
pub mod lexer;
pub mod node_type;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod typeck;

pub use ast::{
    AssignOp, BinOp, Block, Builtin, Expr, ExprKind, Function, LValue, Param, Program, Stmt,
    StmtId, StmtKind, Type, UnOp,
};
pub use error::{LangError, Result};
pub use ident::{join_subtokens, subtokens};
pub use lexer::lex;
pub use node_type::{
    expr_tree, full_stmt_tree, guard_tree, program_tree, stmt_tree, AstNodeType, AstTree,
    NodeLabel,
};
pub use parser::{parse, parse_expr, MAX_DEPTH};
pub use pretty::{print_expr, print_program, print_stmt};
pub use typeck::typecheck;
