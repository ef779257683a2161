//! Recursive-descent parser for MiniLang.
//!
//! Grammar (informal):
//!
//! ```text
//! program  := function
//! function := 'fn' IDENT '(' (param (',' param)*)? ')' '->' type block
//! param    := IDENT ':' type
//! type     := 'int' | 'bool' | 'str' | 'array' '<' 'int' '>'
//! block    := '{' stmt* '}'
//! stmt     := 'let' IDENT ':' type '=' expr ';'
//!           | lvalue ('=' | '+=' | '-=' | '*=') expr ';'
//!           | 'if' '(' expr ')' block ('else' (block | ifstmt))?
//!           | 'while' '(' expr ')' block
//!           | 'for' '(' simple ';' expr ';' simple ')' block
//!           | 'return' expr? ';' | 'break' ';' | 'continue' ';'
//! ```
//!
//! Expression precedence (loosest → tightest): `||`, `&&`, equality,
//! relational, additive, multiplicative, unary, postfix indexing, primary.
//!
//! Nesting is bounded by [`MAX_DEPTH`], so no input can exhaust the stack
//! of the parser or of any pass that later walks the tree.

use crate::ast::*;
use crate::error::{LangError, Result};
use crate::lexer::lex;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The nesting budget of one parse. Blocks, `else if` arms, parentheses,
/// brackets, call arguments and unary operators may nest at most this
/// deep, and no expression tree may be taller — a left-associative chain
/// `a + b + …` or `a[i][j]…` is as tall as it is long. Every pass over
/// the AST recurses, so this bounds their stack use as well as the
/// parser's; deeper input is a [`LangError::Parse`].
pub const MAX_DEPTH: usize = 128;

/// Parses a full program (one function) from source text, with statement
/// ids already assigned.
///
/// # Errors
///
/// Returns [`LangError::Lex`] or [`LangError::Parse`] on malformed input,
/// including input nested deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minilang::LangError> {
/// let program = minilang::parse(
///     "fn addOne(x: int) -> int { return x + 1; }",
/// )?;
/// assert_eq!(program.function.name, "addOne");
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let function = parser.function()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.err("trailing tokens after function"));
    }
    let mut program = Program { function };
    program.assign_ids();
    Ok(program)
}

/// Parses a single expression — used by tests and by the variation engine.
///
/// # Errors
///
/// Returns a lex or parse error on malformed input.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let expr = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.err("trailing tokens after expression"));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth, at most [`MAX_DEPTH`].
    depth: usize,
}

/// An expression and the height of its tree (a leaf is 1 tall).
type Tall = (Expr, usize);

/// The binary operators by precedence level, loosest first; each level
/// is left-associative.
const BINARY_LEVELS: [&[(Punct, BinOp)]; 6] = [
    &[(Punct::OrOr, BinOp::Or)],
    &[(Punct::AndAnd, BinOp::And)],
    &[(Punct::EqEq, BinOp::Eq), (Punct::Ne, BinOp::Ne)],
    &[
        (Punct::Le, BinOp::Le),
        (Punct::Lt, BinOp::Lt),
        (Punct::Ge, BinOp::Ge),
        (Punct::Gt, BinOp::Gt),
    ],
    &[(Punct::Plus, BinOp::Add), (Punct::Minus, BinOp::Sub)],
    &[(Punct::Star, BinOp::Mul), (Punct::Slash, BinOp::Div), (Punct::Percent, BinOp::Mod)],
];

impl Parser {
    fn err(&self, msg: impl Into<String>) -> LangError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line);
        LangError::Parse { line, msg: msg.into() }
    }

    fn too_deep(&self) -> LangError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of a node whose tallest child is `child` tall.
    fn grown(&self, child: usize) -> Result<usize> {
        if child >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.tokens.get(self.pos).map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Result<TokenKind> {
        let t = self.tokens.get(self.pos).ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t.kind.clone())
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&TokenKind::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found {:?}", p.as_str(), self.peek())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == Some(&TokenKind::Keyword(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found {:?}", k.as_str(), self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump()? {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn function(&mut self) -> Result<Function> {
        self.expect_keyword(Keyword::Fn)?;
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::Arrow)?;
        let ret = self.ty()?;
        let body = self.block()?;
        Ok(Function { name, params, ret, body })
    }

    fn ty(&mut self) -> Result<Type> {
        match self.bump()? {
            TokenKind::Keyword(Keyword::Int) => Ok(Type::Int),
            TokenKind::Keyword(Keyword::Bool) => Ok(Type::Bool),
            TokenKind::Keyword(Keyword::Str) => Ok(Type::Str),
            TokenKind::Keyword(Keyword::Array) => {
                self.expect_punct(Punct::Lt)?;
                self.expect_keyword(Keyword::Int)?;
                self.expect_punct(Punct::Gt)?;
                Ok(Type::IntArray)
            }
            other => Err(self.err(format!("expected type, found {other}"))),
        }
    }

    fn block(&mut self) -> Result<Block> {
        self.expect_punct(Punct::LBrace)?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat_punct(Punct::RBrace) {
                stmts.push(p.stmt()?);
            }
            Ok(Block { stmts })
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        let kind = match self.peek() {
            Some(TokenKind::Keyword(Keyword::Let)) => {
                let s = self.simple_stmt()?;
                self.expect_punct(Punct::Semi)?;
                s
            }
            Some(TokenKind::Keyword(Keyword::If)) => self.if_stmt()?,
            Some(TokenKind::Keyword(Keyword::While)) => {
                self.bump()?;
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            Some(TokenKind::Keyword(Keyword::For)) => {
                self.bump()?;
                self.expect_punct(Punct::LParen)?;
                let init_line = self.line();
                let init_kind = self.simple_stmt()?;
                let init = self.stmt_at(init_line, init_kind);
                self.expect_punct(Punct::Semi)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                let update_line = self.line();
                let update_kind = self.simple_stmt()?;
                let update = self.stmt_at(update_line, update_kind);
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                StmtKind::For {
                    init: Box::new(init),
                    cond,
                    update: Box::new(update),
                    body,
                }
            }
            Some(TokenKind::Keyword(Keyword::Return)) => {
                self.bump()?;
                if self.eat_punct(Punct::Semi) {
                    StmtKind::Return(None)
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    StmtKind::Return(Some(e))
                }
            }
            Some(TokenKind::Keyword(Keyword::Break)) => {
                self.bump()?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Break
            }
            Some(TokenKind::Keyword(Keyword::Continue)) => {
                self.bump()?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Continue
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_punct(Punct::Semi)?;
                s
            }
        };
        Ok(Stmt { id: StmtId(0), line, kind })
    }

    fn stmt_at(&self, line: u32, kind: StmtKind) -> Stmt {
        Stmt { id: StmtId(0), line, kind }
    }

    fn if_stmt(&mut self) -> Result<StmtKind> {
        self.expect_keyword(Keyword::If)?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_block = self.block()?;
        let else_block = if self.eat_keyword(Keyword::Else) {
            if self.peek() == Some(&TokenKind::Keyword(Keyword::If)) {
                // `else if`: wrap the nested if in a one-statement block.
                let line = self.line();
                let nested = self.nested(Self::if_stmt)?;
                Some(Block { stmts: vec![self.stmt_at(line, nested)] })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(StmtKind::If { cond, then_block, else_block })
    }

    /// A `let` or assignment statement, *without* consuming the trailing
    /// semicolon (shared between plain statements and `for` headers).
    fn simple_stmt(&mut self) -> Result<StmtKind> {
        if self.eat_keyword(Keyword::Let) {
            let name = self.ident()?;
            self.expect_punct(Punct::Colon)?;
            let ty = self.ty()?;
            self.expect_punct(Punct::Assign)?;
            let init = self.expr()?;
            return Ok(StmtKind::Let { name, ty, init });
        }
        let name = self.ident()?;
        let target = if self.eat_punct(Punct::LBracket) {
            let idx = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            LValue::Index(name, idx)
        } else {
            LValue::Var(name)
        };
        let op = match self.bump()? {
            TokenKind::Punct(Punct::Assign) => AssignOp::Set,
            TokenKind::Punct(Punct::PlusAssign) => AssignOp::Add,
            TokenKind::Punct(Punct::MinusAssign) => AssignOp::Sub,
            TokenKind::Punct(Punct::StarAssign) => AssignOp::Mul,
            other => return Err(self.err(format!("expected assignment operator, found {other}"))),
        };
        let value = self.expr()?;
        Ok(StmtKind::Assign { target, op, value })
    }

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        Ok(self.tall_expr()?.0)
    }

    fn tall_expr(&mut self) -> Result<Tall> {
        self.nested(|p| p.binary_expr(0))
    }

    /// One precedence level of [`BINARY_LEVELS`]; past the last, a unary
    /// expression.
    fn binary_expr(&mut self, level: usize) -> Result<Tall> {
        let Some(ops) = BINARY_LEVELS.get(level) else { return self.unary_expr() };
        let (mut lhs, mut height) = self.binary_expr(level + 1)?;
        while let Some(&(_, op)) = ops.iter().find(|&&(punct, _)| self.eat_punct(punct)) {
            let (rhs, rhs_height) = self.binary_expr(level + 1)?;
            height = self.grown(height.max(rhs_height))?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<Tall> {
        let op = if self.eat_punct(Punct::Minus) {
            UnOp::Neg
        } else if self.eat_punct(Punct::Bang) {
            UnOp::Not
        } else {
            return self.postfix_expr();
        };
        let (inner, height) = self.nested(Self::unary_expr)?;
        // Fold negation of integer literals so `-1` parses as the
        // literal `-1`; this makes pretty-printing round-trip exactly.
        if let (UnOp::Neg, ExprKind::IntLit(v)) = (op, &inner.kind) {
            return Ok((Expr::int(v.wrapping_neg()), height));
        }
        Ok((Expr::new(ExprKind::Unary(op, Box::new(inner))), self.grown(height)?))
    }

    fn postfix_expr(&mut self) -> Result<Tall> {
        let (mut e, mut height) = self.primary_expr()?;
        while self.eat_punct(Punct::LBracket) {
            let (idx, idx_height) = self.tall_expr()?;
            self.expect_punct(Punct::RBracket)?;
            height = self.grown(height.max(idx_height))?;
            e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)));
        }
        Ok((e, height))
    }

    /// A comma-separated expression list up to `close`, and the height of
    /// its tallest element (0 when empty).
    fn tall_list(&mut self, close: Punct) -> Result<(Vec<Expr>, usize)> {
        let (mut items, mut height) = (Vec::new(), 0);
        if !self.eat_punct(close) {
            loop {
                let (item, item_height) = self.tall_expr()?;
                items.push(item);
                height = height.max(item_height);
                if self.eat_punct(close) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        Ok((items, height))
    }

    fn primary_expr(&mut self) -> Result<Tall> {
        let leaf = |kind| Ok((Expr::new(kind), 1));
        match self.bump()? {
            TokenKind::Int(v) => Ok((Expr::int(v), 1)),
            TokenKind::Str(s) => leaf(ExprKind::StrLit(s)),
            TokenKind::Keyword(Keyword::True) => leaf(ExprKind::BoolLit(true)),
            TokenKind::Keyword(Keyword::False) => leaf(ExprKind::BoolLit(false)),
            TokenKind::Punct(Punct::LParen) => {
                let tall = self.tall_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(tall)
            }
            TokenKind::Punct(Punct::LBracket) => {
                let (elems, height) = self.tall_list(Punct::RBracket)?;
                Ok((Expr::new(ExprKind::ArrayLit(elems)), self.grown(height)?))
            }
            TokenKind::Ident(name) => {
                if self.peek() != Some(&TokenKind::Punct(Punct::LParen)) {
                    return Ok((Expr::var(name), 1));
                }
                let builtin = Builtin::from_name(&name)
                    .ok_or_else(|| self.err(format!("unknown function: {name}")))?;
                self.bump()?; // `(`
                let (args, height) = self.tall_list(Punct::RParen)?;
                if args.len() != builtin.arity() {
                    return Err(self.err(format!(
                        "{} expects {} arguments, got {}",
                        builtin.name(),
                        builtin.arity(),
                        args.len()
                    )));
                }
                Ok((Expr::new(ExprKind::Call(builtin, args)), self.grown(height)?))
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bubble_sort() {
        let src = r#"
            fn sortArray(a: array<int>) -> array<int> {
                let left: int = 0;
                let right: int = len(a) - 1;
                for (let i: int = right; i > left; i -= 1) {
                    for (let j: int = left; j < i; j += 1) {
                        if (a[j] > a[j + 1]) {
                            let tmp: int = a[j];
                            a[j] = a[j + 1];
                            a[j + 1] = tmp;
                        }
                    }
                }
                return a;
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.function.name, "sortArray");
        assert_eq!(prog.function.params.len(), 1);
        assert_eq!(prog.function.ret, Type::IntArray);
        // let, let, for+init+update, for+init+update, if, let, assign,
        // assign, return = 13 statements.
        assert_eq!(prog.statements().len(), 13);
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, _, rhs) => match rhs.kind {
                ExprKind::Binary(BinOp::Mul, _, _) => {}
                other => panic!("expected Mul on rhs, got {other:?}"),
            },
            other => panic!("expected Add at top, got {other:?}"),
        }
    }

    #[test]
    fn precedence_comparison_over_and() {
        let e = parse_expr("a < b && c > d").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parses_else_if_chain() {
        let src = "fn f(x: int) -> int { if (x > 0) { return 1; } else if (x < 0) { return 2; } else { return 0; } }";
        let prog = parse(src).unwrap();
        assert_eq!(prog.statements().len(), 5);
    }

    #[test]
    fn parses_compound_assignment() {
        let src = "fn f(x: int) -> int { x += x; x *= 2; return x; }";
        let prog = parse(src).unwrap();
        let stmts = prog.statements();
        assert!(matches!(stmts[0].kind, StmtKind::Assign { op: AssignOp::Add, .. }));
        assert!(matches!(stmts[1].kind, StmtKind::Assign { op: AssignOp::Mul, .. }));
    }

    #[test]
    fn rejects_unknown_call() {
        assert!(parse("fn f() -> int { return foo(1); }").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse("fn f() -> int { return len(); }").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse("fn f() -> int { return 1; } extra").is_err());
    }

    #[test]
    fn parses_array_literal_and_index() {
        let e = parse_expr("[1, 2, 3][0]").unwrap();
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn parses_string_builtin_chain() {
        let src = r#"
            fn isRotation(a: str, b: str) -> bool {
                if (len(a) != len(b)) { return false; }
                for (let i: int = 1; i < len(a); i += 1) {
                    let tail: str = substring(a, i, len(a));
                    let wrap: str = substring(a, 0, i);
                    if (tail + wrap == b) { return true; }
                }
                return false;
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.function.name, "isRotation");
    }

    /// Runs `f` on a thread with a 2 MiB stack, the std default that the
    /// server's threads get, so an overflow aborts the test run instead
    /// of hiding in a larger test-harness stack.
    fn on_server_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap();
        thread.join().unwrap()
    }

    fn returning(expr: &str) -> String {
        format!("fn f(x: int) -> int {{ return {expr}; }}")
    }

    /// The four shapes of deep input, `n` levels each: nested
    /// parentheses, a flat left-associative `+` chain, a chain of unary
    /// `-`, and nested `if` blocks.
    fn deep_inputs(n: usize) -> [String; 4] {
        [
            returning(&format!("{}x{}", "(".repeat(n), ")".repeat(n))),
            returning(&vec!["x"; n].join(" + ")),
            returning(&format!("{}x", "- ".repeat(n))),
            format!(
                "fn f(x: int) -> int {{ {} x += 1; {} return x; }}",
                "if (x > 0) { ".repeat(n),
                "}".repeat(n)
            ),
        ]
    }

    fn assert_too_deep(src: &str) {
        match parse(src) {
            Err(LangError::Parse { msg, .. }) => assert!(msg.contains("nesting deeper than")),
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        on_server_stack(|| {
            let [parens, chain, unary, _] = deep_inputs(100_000);
            let [.., ifs] = deep_inputs(10_000);
            for src in [parens, chain, unary, ifs] {
                assert_too_deep(&src);
            }
        });
    }

    #[test]
    fn the_budget_admits_its_own_depth_and_not_one_more() {
        on_server_stack(|| {
            // A chain of k operands is exactly k tall.
            let at_budget = parse(&returning(&vec!["x"; MAX_DEPTH].join(" + "))).unwrap();
            crate::typecheck(&at_budget).unwrap();
            // The function body and the `return` expression take two
            // levels, so every shape fits at `MAX_DEPTH - 2` levels…
            for src in deep_inputs(MAX_DEPTH - 2) {
                crate::typecheck(&parse(&src).unwrap()).unwrap();
            }
            // …and none a level past the budget.
            for src in deep_inputs(MAX_DEPTH + 1) {
                assert_too_deep(&src);
            }
        });
    }

    #[test]
    fn unary_binds_tighter_than_mul() {
        let e = parse_expr("-a * b").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }
}
