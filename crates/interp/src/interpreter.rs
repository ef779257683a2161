//! The tracing interpreter.
//!
//! Plays the role of the paper's instrumented JVM: executes a MiniLang
//! program on concrete inputs and records the full execution trace
//! (statement events + program states) together with statement and line
//! coverage. Execution is bounded by *fuel* so the dataset filter of
//! Table 1 can discard programs that "take too long".
//!
//! An [`Interpreter`] prepares a program once (its [`VarLayout`]) and runs
//! it in one of two recording modes over the same evaluator:
//! [`Interpreter::run`] records every event with its state snapshot, and
//! [`Interpreter::run_path`] records only the path steps. Both spend fuel
//! and fail identically, so a path-only run predicts exactly whether a
//! full run succeeds and which path it takes.
//!
//! Variables live in one slot per layout entry, so a state snapshot is a
//! clone of the slot vector. Declaring a variable logs the value its slot
//! held; leaving a block replays that log, which restores shadowed names
//! and returns the block's own names to ⊥.

use crate::error::RuntimeError;
use crate::trace_event::{EventKind, PathStep, TraceEvent};
use crate::value::{State, Value, VarLayout};
use minilang::{
    AssignOp, BinOp, Block, Builtin, Expr, ExprKind, LValue, Program, Stmt, StmtKind, UnOp,
};
use std::collections::BTreeSet;

/// Default fuel (maximum number of statement events) for a single run.
pub const DEFAULT_FUEL: u64 = 100_000;

/// The complete result of one traced execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The initial state s₀ (parameters bound, locals ⊥).
    pub initial_state: State,
    /// The event sequence (eᵢ, sᵢ)*.
    pub events: Vec<TraceEvent>,
    /// The function's return value.
    pub return_value: Value,
    /// Statement ids executed at least once.
    pub stmt_coverage: BTreeSet<minilang::StmtId>,
    /// Source lines executed at least once.
    pub line_coverage: BTreeSet<u32>,
}

/// Executes `program` on `inputs` with [`DEFAULT_FUEL`].
///
/// # Errors
///
/// Returns [`RuntimeError`] on arity/type mismatches between `inputs` and
/// the parameter list, division by zero, out-of-bounds access, fuel
/// exhaustion, or falling off the end of the function without `return`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use interp::{run, Value};
/// let program = minilang::parse("fn inc(x: int) -> int { return x + 1; }")?;
/// let result = run(&program, &[Value::Int(41)])?;
/// assert_eq!(result.return_value, Value::Int(42));
/// # Ok(())
/// # }
/// ```
pub fn run(program: &Program, inputs: &[Value]) -> Result<RunResult, RuntimeError> {
    run_with_fuel(program, inputs, DEFAULT_FUEL)
}

/// Executes `program` on `inputs` with an explicit fuel bound.
///
/// # Errors
///
/// See [`run`]; additionally returns [`RuntimeError::OutOfFuel`] once the
/// number of statement events exceeds `fuel`.
pub fn run_with_fuel(
    program: &Program,
    inputs: &[Value],
    fuel: u64,
) -> Result<RunResult, RuntimeError> {
    Interpreter::new(program).run(inputs, fuel)
}

/// A program prepared for repeated execution: the variable layout is
/// computed once and shared by every run.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use interp::{Interpreter, Value};
/// let program = minilang::parse(
///     "fn sign(x: int) -> int { if (x > 0) { return 1; } return 0; }",
/// )?;
/// let interp = Interpreter::new(&program);
/// let mut path = Vec::new();
/// interp.run_path(&[Value::Int(3)], 100, &mut path)?;
/// let full = interp.run(&[Value::Int(3)], 100)?;
/// assert!(full.events.iter().map(|e| e.path_step()).eq(path));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    layout: VarLayout,
}

impl<'p> Interpreter<'p> {
    /// Prepares `program` for execution.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        Interpreter { program, layout: VarLayout::of(program) }
    }

    /// Executes the program on `inputs`, recording every event with the
    /// state after it, plus statement and line coverage.
    ///
    /// # Errors
    ///
    /// See [`run_with_fuel`].
    pub fn run(&self, inputs: &[Value], fuel: u64) -> Result<RunResult, RuntimeError> {
        let _span = obs::span!("interp.run");
        obs::counter!("interp.runs").inc();
        let mut interp = self.start(inputs, fuel, Recording::Full(Vec::new()))?;
        let initial_state = State { values: interp.slots.clone() };
        let return_value = self.finish(&mut interp)?;
        let Recording::Full(events) = interp.recording else {
            unreachable!("a full run records events")
        };
        Ok(RunResult {
            initial_state,
            stmt_coverage: events.iter().map(|e| e.stmt).collect(),
            line_coverage: events.iter().map(|e| e.line).collect(),
            events,
            return_value,
        })
    }

    /// Executes the program on `inputs`, recording only its path: `path`
    /// is cleared, then receives the [`PathStep`] of every event a full
    /// [`Interpreter::run`] would record. Takes no state snapshots and
    /// keeps no coverage; fuel, errors and the return-type check are the
    /// full run's, so this succeeds exactly when `run` does.
    ///
    /// # Errors
    ///
    /// See [`run_with_fuel`]. On error `path` holds the steps recorded so
    /// far.
    pub fn run_path(
        &self,
        inputs: &[Value],
        fuel: u64,
        path: &mut Vec<PathStep>,
    ) -> Result<(), RuntimeError> {
        path.clear();
        let mut interp = self.start(inputs, fuel, Recording::Path(path))?;
        self.finish(&mut interp).map(drop)
    }

    /// Checks `inputs` against the parameter list and binds them.
    fn start<'r>(
        &'r self,
        inputs: &[Value],
        fuel: u64,
        recording: Recording<'r>,
    ) -> Result<Interp<'r>, RuntimeError> {
        let params = &self.program.function.params;
        if inputs.len() != params.len() {
            return Err(RuntimeError::ArityMismatch {
                expected: params.len(),
                actual: inputs.len(),
            });
        }
        for (p, v) in params.iter().zip(inputs) {
            if v.ty() != p.ty {
                return Err(RuntimeError::InputTypeMismatch {
                    param: p.name.clone(),
                    expected: p.ty,
                    actual: v.ty(),
                });
            }
        }
        let mut slots = vec![None; self.layout.len()];
        for (p, v) in params.iter().zip(inputs) {
            let slot = self.layout.slot(&p.name).expect("parameters lead the layout");
            slots[slot] = Some(v.clone());
        }
        Ok(Interp { layout: &self.layout, slots, undo: Vec::new(), fuel, recording })
    }

    /// Runs the body and checks the returned value's type.
    fn finish(&self, interp: &mut Interp<'_>) -> Result<Value, RuntimeError> {
        let f = &self.program.function;
        let return_value = match interp.exec_block(&f.body)? {
            Flow::Return(v) => v,
            _ => return Err(RuntimeError::MissingReturn),
        };
        if return_value.ty() != f.ret {
            return Err(RuntimeError::ReturnTypeMismatch {
                expected: f.ret,
                actual: return_value.ty(),
            });
        }
        Ok(return_value)
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// What a run records per event.
enum Recording<'r> {
    /// Every event with the state after it.
    Full(Vec<TraceEvent>),
    /// The path steps only, into the caller's buffer.
    Path(&'r mut Vec<PathStep>),
}

struct Interp<'r> {
    layout: &'r VarLayout,
    /// The value of every layout slot (`None` = ⊥).
    slots: Vec<Option<Value>>,
    /// `(slot, value before the declaration)` per executed `let`, in
    /// order; a block unwinds its suffix on exit.
    undo: Vec<(usize, Option<Value>)>,
    fuel: u64,
    recording: Recording<'r>,
}

impl Interp<'_> {
    fn record(&mut self, stmt: &Stmt, kind: EventKind) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        match &mut self.recording {
            Recording::Full(events) => {
                let state = State { values: self.slots.clone() };
                events.push(TraceEvent { stmt: stmt.id, line: stmt.line, kind, state });
            }
            Recording::Path(path) => path.push(PathStep { stmt: stmt.id, kind }),
        }
        Ok(())
    }

    /// The bound slot of `name`: its value is the innermost visible
    /// declaration.
    fn bound(&self, name: &str) -> Result<usize, RuntimeError> {
        match self.layout.slot(name) {
            Some(slot) if self.slots[slot].is_some() => Ok(slot),
            _ => Err(RuntimeError::UndefinedVariable(name.to_string())),
        }
    }

    fn lookup(&self, name: &str) -> Result<&Value, RuntimeError> {
        let slot = self.bound(name)?;
        Ok(self.slots[slot].as_ref().expect("bound slots hold a value"))
    }

    fn lookup_mut(&mut self, name: &str) -> Result<&mut Value, RuntimeError> {
        let slot = self.bound(name)?;
        Ok(self.slots[slot].as_mut().expect("bound slots hold a value"))
    }

    fn declare(&mut self, name: &str, value: Value) {
        let slot = self.layout.slot(name).expect("every let-declared name has a slot");
        let shadowed = self.slots[slot].replace(value);
        self.undo.push((slot, shadowed));
    }

    /// Undoes every declaration made since the undo log had length `mark`.
    fn leave(&mut self, mark: usize) {
        for (slot, shadowed) in self.undo.drain(mark..).rev() {
            self.slots[slot] = shadowed;
        }
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, RuntimeError> {
        let mark = self.undo.len();
        let mut flow = Flow::Normal;
        for stmt in &block.stmts {
            flow = self.exec_stmt(stmt)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.leave(mark);
        Ok(flow)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        match &stmt.kind {
            StmtKind::Let { name, init, .. } => {
                let value = self.eval(init)?;
                self.declare(name, value);
                self.record(stmt, EventKind::Exec)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                let rhs = self.eval(value)?;
                match target {
                    LValue::Var(name) => {
                        let slot = self.lookup_mut(name)?;
                        *slot = match op {
                            AssignOp::Set => rhs,
                            _ => apply_compound(*op, slot.clone(), rhs)?,
                        };
                    }
                    LValue::Index(name, idx_expr) => {
                        let idx = self.eval_int(idx_expr)?;
                        let Value::Array(arr) = self.lookup_mut(name)? else {
                            return Err(RuntimeError::TypeMismatch {
                                msg: format!("indexed assignment into non-array {name}"),
                            });
                        };
                        let i = check_index(idx, arr.len())?;
                        let new_elem = match op {
                            AssignOp::Set => rhs,
                            _ => apply_compound(*op, Value::Int(arr[i]), rhs)?,
                        };
                        let Value::Int(elem) = new_elem else {
                            return Err(RuntimeError::TypeMismatch {
                                msg: "array element assignment of non-int".to_string(),
                            });
                        };
                        arr[i] = elem;
                    }
                }
                self.record(stmt, EventKind::Exec)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_block, else_block } => {
                let taken = self.eval_bool(cond)?;
                self.record(stmt, EventKind::Guard { taken })?;
                if taken {
                    self.exec_block(then_block)
                } else if let Some(e) = else_block {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => loop {
                let taken = self.eval_bool(cond)?;
                self.record(stmt, EventKind::Guard { taken })?;
                if !taken {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    r @ Flow::Return(_) => return Ok(r),
                }
            },
            StmtKind::For { init, cond, update, body } => {
                // The header's scope holds the induction variable.
                let mark = self.undo.len();
                let result = (|| {
                    self.exec_stmt(init)?;
                    loop {
                        let taken = self.eval_bool(cond)?;
                        self.record(stmt, EventKind::Guard { taken })?;
                        if !taken {
                            return Ok(Flow::Normal);
                        }
                        match self.exec_block(body)? {
                            Flow::Normal | Flow::Continue => {}
                            Flow::Break => return Ok(Flow::Normal),
                            r @ Flow::Return(_) => return Ok(r),
                        }
                        self.exec_stmt(update)?;
                    }
                })();
                self.leave(mark);
                result
            }
            StmtKind::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                self.record(stmt, EventKind::Exec)?;
                Ok(Flow::Return(value))
            }
            StmtKind::Break => {
                self.record(stmt, EventKind::Exec)?;
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                self.record(stmt, EventKind::Exec)?;
                Ok(Flow::Continue)
            }
        }
    }

    fn eval_int(&mut self, expr: &Expr) -> Result<i64, RuntimeError> {
        match self.eval(expr)? {
            Value::Int(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                msg: format!("expected int, got {}", other.ty()),
            }),
        }
    }

    fn eval_bool(&mut self, expr: &Expr) -> Result<bool, RuntimeError> {
        match self.eval(expr)? {
            Value::Bool(b) => Ok(b),
            other => Err(RuntimeError::TypeMismatch {
                msg: format!("expected bool, got {}", other.ty()),
            }),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, RuntimeError> {
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::StrLit(s) => Ok(Value::Str(s.clone())),
            ExprKind::Var(name) => self.lookup(name).cloned(),
            ExprKind::Unary(UnOp::Neg, inner) => {
                let v = self.eval_int(inner)?;
                Ok(Value::Int(v.checked_neg().ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let b = self.eval_bool(inner)?;
                Ok(Value::Bool(!b))
            }
            ExprKind::Binary(BinOp::And, lhs, rhs) => {
                // Short-circuit.
                if !self.eval_bool(lhs)? {
                    Ok(Value::Bool(false))
                } else {
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
            }
            ExprKind::Binary(BinOp::Or, lhs, rhs) => {
                if self.eval_bool(lhs)? {
                    Ok(Value::Bool(true))
                } else {
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                eval_binop(*op, l, r)
            }
            ExprKind::Index(base, idx) => {
                if let ExprKind::Var(name) = &base.kind {
                    // Index the variable in place instead of cloning it;
                    // the index expression cannot rebind it.
                    self.lookup(name)?;
                    let i = self.eval_int(idx)?;
                    return index_value(self.lookup(name)?, i);
                }
                let b = self.eval(base)?;
                let i = self.eval_int(idx)?;
                index_value(&b, i)
            }
            ExprKind::Call(Builtin::Len, args) if args.len() == 1 => match &args[0].kind {
                // Measure a variable in place instead of cloning it.
                ExprKind::Var(name) => len_of(self.lookup(name)?),
                _ => len_of(&self.eval(&args[0])?),
            },
            ExprKind::Call(builtin, args) => {
                let values: Vec<Value> =
                    args.iter().map(|a| self.eval(a)).collect::<Result<_, _>>()?;
                eval_builtin(*builtin, values)
            }
            ExprKind::ArrayLit(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    out.push(self.eval_int(e)?);
                }
                Ok(Value::Array(out))
            }
        }
    }
}

fn index_value(base: &Value, i: i64) -> Result<Value, RuntimeError> {
    match base {
        Value::Array(arr) => {
            let i = check_index(i, arr.len())?;
            Ok(Value::Int(arr[i]))
        }
        Value::Str(s) => {
            let bytes = s.as_bytes();
            let i = check_index(i, bytes.len())?;
            Ok(Value::Int(i64::from(bytes[i])))
        }
        other => Err(RuntimeError::TypeMismatch { msg: format!("indexing into {}", other.ty()) }),
    }
}

fn len_of(v: &Value) -> Result<Value, RuntimeError> {
    match v {
        Value::Array(a) => Ok(Value::Int(a.len() as i64)),
        Value::Str(s) => Ok(Value::Int(s.len() as i64)),
        _ => Err(RuntimeError::TypeMismatch { msg: "len on non-collection".to_string() }),
    }
}

fn check_index(idx: i64, len: usize) -> Result<usize, RuntimeError> {
    if idx < 0 || (idx as usize) >= len {
        Err(RuntimeError::IndexOutOfBounds { index: idx, len })
    } else {
        Ok(idx as usize)
    }
}

fn apply_compound(op: AssignOp, current: Value, rhs: Value) -> Result<Value, RuntimeError> {
    match op {
        AssignOp::Set => unreachable!("Set handled by caller"),
        AssignOp::Add => eval_binop(BinOp::Add, current, rhs),
        AssignOp::Sub => eval_binop(BinOp::Sub, current, rhs),
        AssignOp::Mul => eval_binop(BinOp::Mul, current, rhs),
    }
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use Value::*;
    let type_err = |l: &Value, r: &Value| RuntimeError::TypeMismatch {
        msg: format!("binary {op:?} on {} and {}", l.ty(), r.ty()),
    };
    match op {
        BinOp::Add => match (&l, &r) {
            (Int(a), Int(b)) => {
                Ok(Int(a.checked_add(*b).ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            (Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Sub => match (&l, &r) {
            (Int(a), Int(b)) => {
                Ok(Int(a.checked_sub(*b).ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Mul => match (&l, &r) {
            (Int(a), Int(b)) => {
                Ok(Int(a.checked_mul(*b).ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Div => match (&l, &r) {
            (Int(_), Int(0)) => Err(RuntimeError::DivisionByZero),
            (Int(a), Int(b)) => {
                Ok(Int(a.checked_div(*b).ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Mod => match (&l, &r) {
            (Int(_), Int(0)) => Err(RuntimeError::DivisionByZero),
            (Int(a), Int(b)) => {
                Ok(Int(a.checked_rem(*b).ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (&l, &r) {
            (Int(a), Int(b)) => Ok(Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                _ => a >= b,
            })),
            _ => Err(type_err(&l, &r)),
        },
        BinOp::Eq => Ok(Bool(l == r)),
        BinOp::Ne => Ok(Bool(l != r)),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by caller"),
    }
}

fn eval_builtin(builtin: Builtin, mut args: Vec<Value>) -> Result<Value, RuntimeError> {
    let type_err = |msg: &str| RuntimeError::TypeMismatch { msg: msg.to_string() };
    match builtin {
        Builtin::Len => len_of(&args[0]),
        Builtin::Substring => {
            let (s, i, j) = match (&args[0], &args[1], &args[2]) {
                (Value::Str(s), Value::Int(i), Value::Int(j)) => (s.clone(), *i, *j),
                _ => return Err(type_err("substring expects (str, int, int)")),
            };
            if i < 0 || j < i || (j as usize) > s.len() {
                return Err(RuntimeError::SubstringOutOfRange {
                    start: i,
                    end: j,
                    len: s.len(),
                });
            }
            Ok(Value::Str(s[i as usize..j as usize].to_string()))
        }
        Builtin::Abs => match &args[0] {
            Value::Int(v) => {
                Ok(Value::Int(v.checked_abs().ok_or(RuntimeError::ArithmeticOverflow)?))
            }
            _ => Err(type_err("abs on non-int")),
        },
        Builtin::Min | Builtin::Max => match (&args[0], &args[1]) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(if builtin == Builtin::Min {
                *a.min(b)
            } else {
                *a.max(b)
            })),
            _ => Err(type_err("min/max on non-ints")),
        },
        Builtin::NewArray => match (&args[0], &args[1]) {
            (Value::Int(n), Value::Int(v)) => {
                if *n < 0 || *n > 1_000_000 {
                    return Err(RuntimeError::InvalidArrayLength(*n));
                }
                Ok(Value::Array(vec![*v; *n as usize]))
            }
            _ => Err(type_err("newArray expects (int, int)")),
        },
        Builtin::Push => {
            let v = match args.pop() {
                Some(Value::Int(v)) => v,
                _ => return Err(type_err("push expects int element")),
            };
            match args.pop() {
                Some(Value::Array(mut a)) => {
                    a.push(v);
                    Ok(Value::Array(a))
                }
                _ => Err(type_err("push expects array")),
            }
        }
        Builtin::CharToStr => match &args[0] {
            Value::Int(c) => {
                let c = u8::try_from(*c & 0x7f).unwrap_or(b'?');
                Ok(Value::Str((c as char).to_string()))
            }
            _ => Err(type_err("charToStr on non-int")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str, inputs: &[Value]) -> Result<RunResult, RuntimeError> {
        let p = minilang::parse(src).unwrap();
        minilang::typecheck(&p).unwrap();
        run(&p, inputs)
    }

    #[test]
    fn runs_bubble_sort() {
        let src = "fn sortArray(a: array<int>) -> array<int> {
            for (let i: int = len(a) - 1; i > 0; i -= 1) {
                for (let j: int = 0; j < i; j += 1) {
                    if (a[j] > a[j + 1]) {
                        let tmp: int = a[j];
                        a[j] = a[j + 1];
                        a[j + 1] = tmp;
                    }
                }
            }
            return a;
        }";
        let r = run_src(src, &[Value::Array(vec![8, 5, 1, 4, 3])]).unwrap();
        assert_eq!(r.return_value, Value::Array(vec![1, 3, 4, 5, 8]));
        assert!(!r.events.is_empty());
    }

    #[test]
    fn i_plus_eq_i_equals_i_times_2_states() {
        // §3's motivating pair: different symbolic statements, identical
        // program states.
        let r1 = run_src("fn f(i: int) -> int { i += i; return i; }", &[Value::Int(21)]).unwrap();
        let r2 = run_src("fn f(i: int) -> int { i *= 2; return i; }", &[Value::Int(21)]).unwrap();
        let states1: Vec<_> = r1.events.iter().map(|e| e.state.clone()).collect();
        let states2: Vec<_> = r2.events.iter().map(|e| e.state.clone()).collect();
        assert_eq!(states1, states2);
    }

    #[test]
    fn guard_events_record_direction() {
        let r = run_src(
            "fn f(x: int) -> int { if (x > 0) { return 1; } return 0; }",
            &[Value::Int(5)],
        )
        .unwrap();
        assert_eq!(r.events[0].kind, EventKind::Guard { taken: true });
        let r = run_src(
            "fn f(x: int) -> int { if (x > 0) { return 1; } return 0; }",
            &[Value::Int(-5)],
        )
        .unwrap();
        assert_eq!(r.events[0].kind, EventKind::Guard { taken: false });
    }

    #[test]
    fn short_circuit_avoids_division_by_zero() {
        let r = run_src(
            "fn f(x: int) -> bool { return x != 0 && 10 / x > 1; }",
            &[Value::Int(0)],
        )
        .unwrap();
        assert_eq!(r.return_value, Value::Bool(false));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = run_src("fn f(x: int) -> int { return 1 / x; }", &[Value::Int(0)]);
        assert_eq!(e.unwrap_err(), RuntimeError::DivisionByZero);
    }

    #[test]
    fn index_out_of_bounds_is_an_error() {
        let e = run_src("fn f(a: array<int>) -> int { return a[5]; }", &[Value::Array(vec![1])]);
        assert!(matches!(e.unwrap_err(), RuntimeError::IndexOutOfBounds { index: 5, len: 1 }));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let p = minilang::parse("fn f() -> int { while (true) { let x: int = 0; } return 0; }")
            .unwrap();
        let e = run_with_fuel(&p, &[], 100);
        assert_eq!(e.unwrap_err(), RuntimeError::OutOfFuel);
    }

    #[test]
    fn missing_return_is_an_error() {
        let e = run_src(
            "fn f(x: int) -> int { if (x > 0) { return 1; } }",
            &[Value::Int(-1)],
        );
        assert_eq!(e.unwrap_err(), RuntimeError::MissingReturn);
    }

    #[test]
    fn arity_and_type_mismatches_are_errors() {
        let src = "fn f(x: int) -> int { return x; }";
        assert!(matches!(
            run_src(src, &[]).unwrap_err(),
            RuntimeError::ArityMismatch { expected: 1, actual: 0 }
        ));
        assert!(matches!(
            run_src(src, &[Value::Bool(true)]).unwrap_err(),
            RuntimeError::InputTypeMismatch { .. }
        ));
    }

    #[test]
    fn break_and_continue() {
        let r = run_src(
            "fn f(n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < n; i += 1) {
                    if (i == 2) { continue; }
                    if (i == 5) { break; }
                    s += i;
                }
                return s;
            }",
            &[Value::Int(10)],
        )
        .unwrap();
        // 0 + 1 + 3 + 4 = 8
        assert_eq!(r.return_value, Value::Int(8));
    }

    #[test]
    fn string_rotation_example_from_paper() {
        let src = r#"fn isStringRotation(a: str, b: str) -> bool {
            if (len(a) != len(b)) { return false; }
            for (let i: int = 1; i < len(a); i += 1) {
                let tail: str = substring(a, i, len(a));
                let wrap: str = substring(a, 0, i);
                if (tail + wrap == b) { return true; }
            }
            return false;
        }"#;
        let yes = run_src(src, &[Value::Str("abc".into()), Value::Str("bca".into())]).unwrap();
        assert_eq!(yes.return_value, Value::Bool(true));
        let no = run_src(src, &[Value::Str("abc".into()), Value::Str("cab".into())]).unwrap();
        assert_eq!(no.return_value, Value::Bool(true));
        let no = run_src(src, &[Value::Str("abc".into()), Value::Str("acb".into())]).unwrap();
        assert_eq!(no.return_value, Value::Bool(false));
    }

    #[test]
    fn coverage_accounts_lines_and_stmts() {
        let src = "fn f(x: int) -> int {\nif (x > 0) {\nreturn 1;\n}\nreturn 0;\n}";
        let r = run_src(src, &[Value::Int(1)]).unwrap();
        // Guard + then-return; the else-path return is uncovered.
        assert_eq!(r.stmt_coverage.len(), 2);
        assert!(r.line_coverage.contains(&2));
        assert!(r.line_coverage.contains(&3));
        assert!(!r.line_coverage.contains(&5));
    }

    #[test]
    fn states_track_scoped_visibility() {
        let src = "fn f(x: int) -> int {\nlet y: int = 1;\nif (x > 0) {\nlet z: int = 2;\nx += z;\n}\nreturn x + y;\n}";
        let r = run_src(src, &[Value::Int(3)]).unwrap();
        // After the if-block ends, z leaves scope: the return event's state
        // must show z as ⊥ again.
        let last = r.events.last().unwrap();
        let layout_names = ["x", "y", "z"];
        assert_eq!(last.state.values[2], None, "z must be ⊥ after its block: {layout_names:?}");
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let e = run_src(
            "fn f(x: int) -> int { return x * x; }",
            &[Value::Int(i64::MAX / 2)],
        );
        assert_eq!(e.unwrap_err(), RuntimeError::ArithmeticOverflow);
    }

    #[test]
    fn initial_state_has_params_bound_and_locals_bottom() {
        let r = run_src(
            "fn f(x: int) -> int { let y: int = x; return y; }",
            &[Value::Int(7)],
        )
        .unwrap();
        assert_eq!(r.initial_state.values[0], Some(Value::Int(7)));
        assert_eq!(r.initial_state.values[1], None);
    }

    /// Runs `inputs` in both recording modes and asserts they agree on the
    /// outcome and the path; returns the full run.
    fn both_modes(src: &str, inputs: &[Value], fuel: u64) -> Result<RunResult, RuntimeError> {
        let p = minilang::parse(src).unwrap();
        let interp = Interpreter::new(&p);
        let mut path = Vec::new();
        let path_only = interp.run_path(inputs, fuel, &mut path);
        let full = interp.run(inputs, fuel);
        match (&path_only, &full) {
            (Ok(()), Ok(run)) => {
                assert!(run.events.iter().map(TraceEvent::path_step).eq(path.iter().copied()));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("modes disagree: {path_only:?} vs {full:?}"),
        }
        full
    }

    #[test]
    fn path_only_mode_matches_full_runs_on_errors() {
        let div = "fn f(x: int) -> int { let y: int = 3; return y / x; }";
        assert_eq!(both_modes(div, &[Value::Int(0)], 100).unwrap_err(), RuntimeError::DivisionByZero);
        assert!(both_modes(div, &[Value::Int(2)], 100).is_ok());
        let looping = "fn f(n: int) -> int { let s: int = 0; while (s < n) { s += 1; } return s; }";
        assert_eq!(both_modes(looping, &[Value::Int(50)], 20).unwrap_err(), RuntimeError::OutOfFuel);
        // Exactly enough fuel: 1 let + 4 guards + 3 bodies + 1 return.
        assert_eq!(both_modes(looping, &[Value::Int(3)], 9).unwrap().return_value, Value::Int(3));
        assert_eq!(both_modes(looping, &[Value::Int(3)], 8).unwrap_err(), RuntimeError::OutOfFuel);
        let wrong_ret = "fn f(x: int) -> int { return x > 0; }";
        assert!(matches!(
            both_modes(wrong_ret, &[Value::Int(1)], 100).unwrap_err(),
            RuntimeError::ReturnTypeMismatch { .. }
        ));
        assert!(matches!(
            both_modes(div, &[Value::Bool(true)], 100).unwrap_err(),
            RuntimeError::InputTypeMismatch { .. }
        ));
    }

    #[test]
    fn shadowed_slots_are_restored_on_block_exit() {
        let src = "fn f(x: int) -> int {
            let y: int = 1;
            if (x > 0) { let y: int = 10; x += y; }
            for (let i: int = 0; i < 2; i += 1) { let y: int = i; x += y; let y: int = 7; }
            return x + y;
        }";
        let r = both_modes(src, &[Value::Int(3)], 100).unwrap();
        assert_eq!(r.return_value, Value::Int(3 + 10 + 1 + 1));
        // Slots: x, y, i. Inside the if, y is the inner 10; after it, the
        // outer 1 is back. After the loop, i is ⊥ again.
        let states: Vec<_> = r.events.iter().map(|e| e.state.values.clone()).collect();
        assert_eq!(states[2][1], Some(Value::Int(10)));
        assert_eq!(states[4][1], Some(Value::Int(1)), "after the if: {:?}", states[4]);
        let last = r.events.last().unwrap();
        assert_eq!(last.state.values, vec![Some(Value::Int(14)), Some(Value::Int(1)), None]);
    }
}
