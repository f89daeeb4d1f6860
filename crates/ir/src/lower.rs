//! Lowering from the AST to the SSA IR, one function at a time.
//!
//! Because the surface language is structured, SSA construction is done
//! directly during lowering: each structured branch is lowered with its own
//! variable environment and φ-instructions are inserted at joins for the
//! variables whose definitions differ between the arms. `while` loops are
//! analysed as a single guarded iteration (`if (c) { body }`), which is the
//! paper's §4.2 soundiness rule of unrolling each loop once and keeps every
//! CFG acyclic.
//!
//! Functions are normalised to have exactly one `return` statement: all
//! source-level returns jump to a dedicated exit block that φ-merges the
//! returned values, matching the paper's assumption ("with no loss of
//! generality, we assume each function has only one return statement").
//!
//! A function is lowered from its own header and body plus the module's
//! `Tables` (global and signature tables, built once); nothing else is
//! shared, so functions lower independently and in any order.

use crate::ast::{BinOpKind, Expr, FnHeader, FuncDef, GlobalDef, Program, Span, Stmt, UnOpKind};
use crate::ir::{
    intrinsics, BinOp, BlockId, Const, Function, GlobalId, Inst, Module, Terminator, UnOp, ValueId,
};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Semantic error raised during lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Human-readable message.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Signature of a callable (user function or intrinsic).
#[derive(Debug, Clone)]
struct Signature {
    /// The parameter types, as a range of [`Tables::param_tys`].
    params: Range<usize>,
    ret: Option<Type>,
    /// Intrinsics with polymorphic parameters skip strict checking.
    polymorphic: bool,
}

/// The module-level names a function body can refer to: the globals and
/// the signature of every callable (intrinsics and functions). Keys are
/// slices of the source text.
#[derive(Debug)]
pub(crate) struct Tables<'src> {
    globals: HashMap<&'src str, (GlobalId, Type)>,
    signatures: HashMap<&'src str, Signature>,
    /// Every signature's parameter types, back to back.
    param_tys: Vec<Type>,
}

impl<'src> Tables<'src> {
    /// Builds the tables of a program from its global declarations and
    /// function headers, both in source order.
    ///
    /// # Errors
    ///
    /// Returns the first duplicate global, or else the first function
    /// that redeclares a function or an intrinsic.
    pub(crate) fn build<'a>(
        globals: &[GlobalDef<'src>],
        funcs: impl ExactSizeIterator<Item = FnHeader<'a, 'src>>,
    ) -> Result<Self, LowerError>
    where
        'src: 'a,
    {
        let mut tables = Tables {
            globals: HashMap::with_capacity(globals.len()),
            signatures: HashMap::with_capacity(INTRINSICS.len() + funcs.len()),
            param_tys: Vec::new(),
        };
        for (i, g) in globals.iter().enumerate() {
            let id = GlobalId(u32::try_from(i).expect("too many globals"));
            if tables.globals.insert(g.name, (id, g.ty)).is_some() {
                return Err(LowerError {
                    message: format!("duplicate global `{}`", g.name),
                    span: g.span,
                });
            }
        }
        for &(name, arity, ret, polymorphic) in INTRINSICS {
            let params = tables.push_params((0..arity).map(|_| Type::Int));
            tables.signatures.insert(
                name,
                Signature {
                    params,
                    ret,
                    polymorphic,
                },
            );
        }
        for f in funcs {
            let sig = Signature {
                params: tables.push_params(f.params.iter().map(|&(_, t)| t)),
                ret: f.ret_ty,
                polymorphic: false,
            };
            if tables.signatures.insert(f.name, sig).is_some() {
                return Err(LowerError {
                    message: format!("duplicate function `{}`", f.name),
                    span: f.span,
                });
            }
        }
        Ok(tables)
    }

    fn push_params(&mut self, tys: impl Iterator<Item = Type>) -> Range<usize> {
        let start = self.param_tys.len();
        self.param_tys.extend(tys);
        start..self.param_tys.len()
    }
}

/// The intrinsics: `(name, parameter count, return type, polymorphic)`.
const INTRINSICS: &[(&str, usize, Option<Type>, bool)] = &[
    (intrinsics::FREE, 1, None, true),
    (intrinsics::PRINT, 1, None, true),
    (intrinsics::NONDET_BOOL, 0, Some(Type::Bool), false),
    (intrinsics::NONDET_INT, 0, Some(Type::Int), false),
    (intrinsics::FGETC, 0, Some(Type::Int), false),
    (intrinsics::RECV, 0, Some(Type::Int), false),
    (intrinsics::GETPASS, 0, Some(Type::Int), false),
    (intrinsics::FOPEN, 1, Some(Type::Int), true),
    (intrinsics::SENDTO, 1, None, true),
];

/// An empty module declaring `globals`, ready for `funcs` functions.
pub(crate) fn module_with_globals(globals: &[GlobalDef<'_>], funcs: usize) -> Module {
    let mut module = Module::with_capacity(funcs);
    for g in globals {
        module.add_global(g.name, g.ty);
    }
    module
}

/// Lowers a parsed program to an SSA module.
///
/// # Errors
///
/// Returns a [`LowerError`] on type errors, unknown names, arity
/// mismatches, or invalid dereferences.
///
/// # Examples
///
/// ```
/// let src = "fn main() { let p: int* = malloc(); free(p); return; }";
/// let program = pinpoint_ir::parser::parse(src).unwrap();
/// let module = pinpoint_ir::lower::lower(&program)?;
/// assert_eq!(module.funcs.len(), 1);
/// # Ok::<(), pinpoint_ir::lower::LowerError>(())
/// ```
pub fn lower(program: &Program<'_>) -> Result<Module, LowerError> {
    let tables = Tables::build(&program.globals, program.funcs.iter().map(FuncDef::header))?;
    let mut module = module_with_globals(&program.globals, program.funcs.len());
    for f in &program.funcs {
        module.add_func(lower_fn(f.header(), &f.body, &tables)?);
    }
    Ok(module)
}

/// Lowers one function, given its header, its parsed body and the
/// module's tables.
///
/// # Errors
///
/// Returns the first [`LowerError`] in the function.
pub(crate) fn lower_fn<'src>(
    header: FnHeader<'_, 'src>,
    body: &[Stmt<'src>],
    tables: &Tables<'src>,
) -> Result<Function, LowerError> {
    FnLowerer::new(header, tables).run(body)
}

/// Variable environment: source name → current SSA value, plus an undo
/// log of the bindings made since the function began. A branch arm is
/// lowered in place and then rolled back ([`Env::end_arm`]), leaving the
/// list of variables it changed: the cost of a branch is what its arms
/// assign, not how many variables are live, and nothing is copied.
#[derive(Debug)]
struct Env<'src> {
    vars: HashMap<&'src str, ValueId>,
    /// `(name, binding it replaced)`, oldest first.
    log: Vec<(&'src str, Option<ValueId>)>,
}

/// What one branch arm did to one variable.
#[derive(Debug, Clone, Copy)]
struct Change<'src> {
    name: &'src str,
    /// The binding when the arm began; `None` if the arm declared it.
    before: Option<ValueId>,
    /// The binding when the arm ended.
    after: ValueId,
}

impl<'src> Env<'src> {
    fn with_capacity(vars: usize) -> Self {
        Env {
            vars: HashMap::with_capacity(vars),
            log: Vec::new(),
        }
    }

    fn get(&self, name: &str) -> Option<ValueId> {
        self.vars.get(name).copied()
    }

    fn bind(&mut self, name: &'src str, v: ValueId) {
        let replaced = self.vars.insert(name, v);
        self.log.push((name, replaced));
    }

    /// Where an arm that starts now begins in the log.
    fn begin_arm(&self) -> usize {
        self.log.len()
    }

    /// Ends the arm begun at `mark`: restores the bindings it started
    /// from and returns what it changed, one entry per variable, in name
    /// order — the one canonical order φ-merges are emitted in (φ
    /// emission order numbers the join block's values, and every content
    /// fingerprint downstream assumes lowering is a pure function of the
    /// source text).
    fn end_arm(&mut self, mark: usize) -> Vec<Change<'src>> {
        let mut changes: Vec<Change<'src>> = Vec::new();
        // Newest first: a variable's first entry carries its final value,
        // its last the binding the arm started from.
        for (name, replaced) in self.log.drain(mark..).rev() {
            let undone = match replaced {
                Some(v) => self.vars.insert(name, v),
                None => self.vars.remove(name),
            };
            changes.push(Change {
                name,
                before: replaced,
                after: undone.expect("a logged variable is bound"),
            });
        }
        changes.sort_by_key(|c| c.name); // stable: newest first per name
        changes.dedup_by(|later, first| {
            let same = later.name == first.name;
            if same {
                first.before = later.before;
            }
            same
        });
        changes
    }
}

struct FnLowerer<'a, 'src> {
    header: FnHeader<'a, 'src>,
    tables: &'a Tables<'src>,
    f: Function,
    cur: BlockId,
    /// Return sites: (predecessor block, returned value).
    ret_sites: Vec<(BlockId, Option<ValueId>)>,
    /// `true` once the current block has been terminated.
    terminated: bool,
}

impl<'a, 'src> FnLowerer<'a, 'src> {
    fn new(header: FnHeader<'a, 'src>, tables: &'a Tables<'src>) -> Self {
        let f = Function::new(header.name);
        let cur = f.entry();
        FnLowerer {
            header,
            tables,
            f,
            cur,
            ret_sites: Vec::new(),
            terminated: false,
        }
    }

    fn run(mut self, body: &[Stmt<'src>]) -> Result<Function, LowerError> {
        // Room for the parameters and the body's own declarations (what
        // nested blocks declare comes and goes): no rehash while lowering.
        let declared = body.iter().filter(|s| matches!(s, Stmt::Let { .. }));
        let mut env = Env::with_capacity(self.header.params.len() + declared.count());
        for &(name, ty) in self.header.params {
            let v = self.f.new_value(name, ty);
            self.f.params.push(v);
            env.bind(name, v);
        }
        if let Some(rt) = self.header.ret_ty {
            self.f.ret_tys.push(rt);
        }
        self.lower_stmts(body, &mut env)?;
        // Implicit `return;` for procedures that fall off the end.
        if !self.terminated {
            if self.header.ret_ty.is_some() {
                return Err(LowerError {
                    message: format!(
                        "function `{}` may fall off the end without returning a value",
                        self.header.name
                    ),
                    span: self.header.span,
                });
            }
            let cur = self.cur;
            self.ret_sites.push((cur, None));
            self.terminated = true; // jump patched below
        }
        // Build the unique exit block.
        let exit = self.f.new_block();
        for &(pred, _) in &self.ret_sites {
            self.f.set_term(pred, Terminator::Jump(exit));
        }
        let ret_vals: Vec<ValueId> = if let Some(rt) = self.header.ret_ty {
            let vals: Vec<(BlockId, ValueId)> = self
                .ret_sites
                .iter()
                .map(|&(b, v)| (b, v.expect("typed return checked per-site")))
                .collect();
            let merged = if vals.len() == 1 {
                vals[0].1
            } else {
                let dst = self.f.new_value("ret", rt);
                self.f.push_inst(
                    exit,
                    Inst::Phi {
                        dst,
                        incomings: vals,
                    },
                );
                dst
            };
            vec![merged]
        } else {
            vec![]
        };
        self.f.set_term(exit, Terminator::Return(ret_vals));
        Ok(self.f)
    }

    fn err(&self, message: impl Into<String>, span: Span) -> LowerError {
        LowerError {
            message: message.into(),
            span,
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt<'src>], env: &mut Env<'src>) -> Result<(), LowerError> {
        for s in stmts {
            if self.terminated {
                break; // unreachable code after return: ignore
            }
            self.lower_stmt(s, env)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt<'src>, env: &mut Env<'src>) -> Result<(), LowerError> {
        match *stmt {
            Stmt::Let {
                name,
                ty,
                ref init,
                span,
            } => {
                let v = self.lower_expr(init, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(ty, vt) {
                    return Err(self.err(
                        format!("type mismatch in `let {name}`: declared {ty}, got {vt}"),
                        span,
                    ));
                }
                let named = self.f.new_value(name, ty);
                self.f
                    .push_inst(self.cur, Inst::Copy { dst: named, src: v });
                env.bind(name, named);
                Ok(())
            }
            Stmt::Assign {
                name,
                ref value,
                span,
            } => {
                let old = env
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), span))?;
                let old_ty = *self.f.ty(old);
                let v = self.lower_expr(value, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(old_ty, vt) {
                    return Err(self.err(
                        format!("type mismatch assigning `{name}`: {old_ty} vs {vt}"),
                        span,
                    ));
                }
                let named = self.f.new_value(name, old_ty);
                self.f
                    .push_inst(self.cur, Inst::Copy { dst: named, src: v });
                env.bind(name, named);
                Ok(())
            }
            Stmt::Store {
                ref ptr,
                depth,
                ref value,
                span,
            } => {
                let p = self.lower_expr(ptr, env)?;
                let pt = *self.f.ty(p);
                let Some(target_ty) = pt.deref(depth as usize) else {
                    return Err(self.err(format!("cannot dereference {pt} {depth} time(s)"), span));
                };
                let v = self.lower_expr(value, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(target_ty, vt) {
                    return Err(self.err(
                        format!("type mismatch in store: cell is {target_ty}, value is {vt}"),
                        span,
                    ));
                }
                self.f.push_inst(
                    self.cur,
                    Inst::Store {
                        ptr: p,
                        depth,
                        src: v,
                    },
                );
                Ok(())
            }
            Stmt::Expr(ref e) => {
                let _ = self.lower_expr_allow_void(e, env)?;
                Ok(())
            }
            Stmt::If {
                ref cond,
                ref then_body,
                ref else_body,
                span,
            } => self.lower_if(cond, then_body, else_body, span, env),
            Stmt::While {
                ref cond,
                ref body,
                span,
            } => {
                // Soundiness: analyse one guarded iteration.
                self.lower_if(cond, body, &[], span, env)
            }
            Stmt::Return(ref e, span) => {
                let v = match (e, self.header.ret_ty) {
                    (Some(e), Some(rt)) => {
                        let v = self.lower_expr(e, env)?;
                        let vt = *self.f.ty(v);
                        if !types_compatible(rt, vt) {
                            return Err(self.err(
                                format!("return type mismatch: expected {rt}, got {vt}"),
                                span,
                            ));
                        }
                        Some(v)
                    }
                    (None, None) => None,
                    (Some(_), None) => {
                        return Err(self.err("returning a value from a procedure", span))
                    }
                    (None, Some(_)) => {
                        return Err(self.err("missing return value", span));
                    }
                };
                self.ret_sites.push((self.cur, v));
                self.terminated = true;
                Ok(())
            }
        }
    }

    /// Lowers one arm of a branch into `bb`, leaving `env` as it found
    /// it; returns what the arm changed and, unless it returned, the
    /// block it falls out of.
    fn lower_arm(
        &mut self,
        bb: BlockId,
        body: &[Stmt<'src>],
        env: &mut Env<'src>,
    ) -> Result<(Vec<Change<'src>>, Option<BlockId>), LowerError> {
        let mark = env.begin_arm();
        self.cur = bb;
        self.terminated = false;
        self.lower_stmts(body, env)?;
        Ok((env.end_arm(mark), (!self.terminated).then_some(self.cur)))
    }

    fn lower_if(
        &mut self,
        cond: &Expr<'src>,
        then_body: &[Stmt<'src>],
        else_body: &[Stmt<'src>],
        span: Span,
        env: &mut Env<'src>,
    ) -> Result<(), LowerError> {
        let c = self.lower_expr(cond, env)?;
        if *self.f.ty(c) != Type::Bool {
            return Err(self.err("branch condition must be bool", span));
        }
        let then_bb = self.f.new_block();
        let else_bb = self.f.new_block();
        self.f.set_term(
            self.cur,
            Terminator::Branch {
                cond: c,
                then_bb,
                else_bb,
            },
        );
        let (then_changes, then_exit) = self.lower_arm(then_bb, then_body, env)?;
        let (else_changes, else_exit) = self.lower_arm(else_bb, else_body, env)?;
        let (tb, eb) = match (then_exit, else_exit) {
            (None, None) => {
                // Both arms returned; the code after the if is unreachable.
                self.terminated = true;
                return Ok(());
            }
            // One arm returned: the variables bound before the branch
            // carry on with the other arm's values, and that arm's own
            // declarations end with it.
            (Some(b), None) | (None, Some(b)) => {
                self.join(&[b]);
                let changes = if then_exit.is_some() {
                    then_changes
                } else {
                    else_changes
                };
                for c in changes.iter().filter(|c| c.before.is_some()) {
                    env.bind(c.name, c.after);
                }
                return Ok(());
            }
            (Some(tb), Some(eb)) => (tb, eb),
        };
        let join = self.join(&[tb, eb]);
        // φ-merge the variables the arms left different, in name order. A
        // variable only one arm knows is out of scope after the branch.
        let mut then_changes = then_changes.iter().peekable();
        let mut else_changes = else_changes.iter().peekable();
        while let Some(name) = match (then_changes.peek(), else_changes.peek()) {
            (Some(t), Some(e)) => Some(t.name.min(e.name)),
            (t, e) => t.or(e).map(|c| c.name),
        } {
            let t = then_changes.next_if(|c| c.name == name);
            let e = else_changes.next_if(|c| c.name == name);
            let before = t.or(e).expect("one arm changed it").before;
            let (Some(tv), Some(ev)) =
                (t.map(|c| c.after).or(before), e.map(|c| c.after).or(before))
            else {
                continue;
            };
            debug_assert_ne!(tv, ev, "an arm binds values of its own making");
            let dst = self.f.new_value(name, *self.f.ty(tv));
            self.f.push_inst(
                join,
                Inst::Phi {
                    dst,
                    incomings: vec![(tb, tv), (eb, ev)],
                },
            );
            env.bind(name, dst);
        }
        Ok(())
    }

    /// Opens the block after a branch, entered from `preds`.
    fn join(&mut self, preds: &[BlockId]) -> BlockId {
        let join = self.f.new_block();
        for &b in preds {
            self.f.set_term(b, Terminator::Jump(join));
        }
        self.cur = join;
        self.terminated = false;
        join
    }

    fn lower_expr(&mut self, e: &Expr<'src>, env: &Env<'src>) -> Result<ValueId, LowerError> {
        match self.lower_expr_allow_void(e, env)? {
            Some(v) => Ok(v),
            None => Err(self.err("void call used as a value", e.span())),
        }
    }

    fn emit_const(&mut self, name: &str, ty: Type, value: Const) -> ValueId {
        let dst = self.f.new_value(name, ty);
        self.f.push_inst(self.cur, Inst::Const { dst, value });
        dst
    }

    fn lower_expr_allow_void(
        &mut self,
        e: &Expr<'src>,
        env: &Env<'src>,
    ) -> Result<Option<ValueId>, LowerError> {
        match *e {
            Expr::Int(v) => Ok(Some(self.emit_const("c", Type::Int, Const::Int(v)))),
            Expr::Bool(b) => Ok(Some(self.emit_const("c", Type::Bool, Const::Bool(b)))),
            Expr::Null => Ok(Some(self.emit_const(
                "null",
                Type::Int.ptr_to(),
                Const::Null,
            ))),
            Expr::Var(name, span) => {
                if let Some(v) = env.get(name) {
                    return Ok(Some(v));
                }
                if let Some(&(global, ty)) = self.tables.globals.get(name) {
                    let dst = self.f.new_value(name, ty.ptr_to());
                    self.f.push_inst(self.cur, Inst::GlobalAddr { dst, global });
                    return Ok(Some(dst));
                }
                Err(self.err(format!("unknown variable `{name}`"), span))
            }
            Expr::Deref(ref inner, span) => {
                let p = self.lower_expr(inner, env)?;
                let pt = *self.f.ty(p);
                let Some(pointee) = pt.pointee() else {
                    return Err(self.err(format!("cannot dereference non-pointer {pt}"), span));
                };
                let dst = self.f.new_value("ld", pointee);
                self.f.push_inst(
                    self.cur,
                    Inst::Load {
                        dst,
                        ptr: p,
                        depth: 1,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Un(op, ref inner, span) => {
                let v = self.lower_expr(inner, env)?;
                let vt = *self.f.ty(v);
                let (irop, want, out) = match op {
                    UnOpKind::Neg => (UnOp::Neg, Type::Int, Type::Int),
                    UnOpKind::Not => (UnOp::Not, Type::Bool, Type::Bool),
                };
                if vt != want {
                    return Err(self.err(format!("operand of `{irop}` must be {want}"), span));
                }
                let dst = self.f.new_value("t", out);
                self.f.push_inst(
                    self.cur,
                    Inst::Un {
                        dst,
                        op: irop,
                        operand: v,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Bin(op, ref l, ref r, span) => {
                let lv = self.lower_expr(l, env)?;
                let rv = self.lower_expr(r, env)?;
                // Gt/Ge lower to swapped Lt/Le.
                let (irop, lv, rv) = match op {
                    BinOpKind::Gt => (BinOp::Lt, rv, lv),
                    BinOpKind::Ge => (BinOp::Le, rv, lv),
                    BinOpKind::Add => (BinOp::Add, lv, rv),
                    BinOpKind::Sub => (BinOp::Sub, lv, rv),
                    BinOpKind::Mul => (BinOp::Mul, lv, rv),
                    BinOpKind::Eq => (BinOp::Eq, lv, rv),
                    BinOpKind::Ne => (BinOp::Ne, lv, rv),
                    BinOpKind::Lt => (BinOp::Lt, lv, rv),
                    BinOpKind::Le => (BinOp::Le, lv, rv),
                    BinOpKind::And => (BinOp::And, lv, rv),
                    BinOpKind::Or => (BinOp::Or, lv, rv),
                };
                let (lt, rt) = (*self.f.ty(lv), *self.f.ty(rv));
                let out_ty = match irop {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(
                                self.err(format!("arithmetic on non-int: {lt} {irop} {rt}"), span)
                            );
                        }
                        Type::Int
                    }
                    BinOp::Lt | BinOp::Le => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(
                                self.err(format!("comparison on non-int: {lt} {irop} {rt}"), span)
                            );
                        }
                        Type::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if !types_compatible(lt, rt) {
                            return Err(self.err(
                                format!("equality between incompatible types {lt} and {rt}"),
                                span,
                            ));
                        }
                        Type::Bool
                    }
                    BinOp::And | BinOp::Or => {
                        if lt != Type::Bool || rt != Type::Bool {
                            return Err(self.err("logical op on non-bool", span));
                        }
                        Type::Bool
                    }
                };
                let dst = self.f.new_value("t", out_ty);
                self.f.push_inst(
                    self.cur,
                    Inst::Bin {
                        dst,
                        op: irop,
                        lhs: lv,
                        rhs: rv,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Malloc(_) => {
                // A fresh cell; its type is inferred from the declaration
                // that consumes it — represented as int* by default and
                // adjusted by `types_compatible`'s malloc rule.
                let dst = self.f.new_value("m", Type::Int.ptr_to());
                self.f.push_inst(self.cur, Inst::Alloc { dst });
                Ok(Some(dst))
            }
            Expr::Call(name, ref args, span) => {
                let tables = self.tables;
                let sig = tables
                    .signatures
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown function `{name}`"), span))?;
                let params = &tables.param_tys[sig.params.clone()];
                if args.len() != params.len() {
                    return Err(self.err(
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            params.len(),
                            args.len()
                        ),
                        span,
                    ));
                }
                let mut argv = Vec::with_capacity(args.len());
                for (a, &pt) in args.iter().zip(params) {
                    let v = self.lower_expr(a, env)?;
                    let vt = *self.f.ty(v);
                    if !sig.polymorphic && !types_compatible(pt, vt) {
                        return Err(self.err(
                            format!("argument type mismatch for `{name}`: expected {pt}, got {vt}"),
                            a.span(),
                        ));
                    }
                    argv.push(v);
                }
                let ret = sig.ret.map(|rt| self.f.new_value("r", rt));
                self.f.push_inst(
                    self.cur,
                    Inst::Call {
                        dsts: ret.into_iter().collect(),
                        callee: name.to_string(),
                        args: argv,
                    },
                );
                Ok(ret)
            }
        }
    }
}

/// Type compatibility: exact match, or a `malloc` cell (`int*`) used at any
/// pointer type, or `null` (`int*`) used at any pointer type.
fn types_compatible(expected: Type, got: Type) -> bool {
    expected == got || (expected.is_ptr() && got == Type::int_ptr(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Module {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn lower_err(src: &str) -> LowerError {
        lower(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn straightline_function() {
        let m = lower_src("fn main() { let p: int* = malloc(); free(p); return; }");
        let f = &m.funcs[0];
        assert_eq!(f.params.len(), 0);
        assert!(f.ret_tys.is_empty());
        // Alloc, Copy (let), Call (free).
        let kinds: Vec<_> = f.iter_insts().map(|(_, i)| i.clone()).collect();
        assert!(matches!(kinds[0], Inst::Alloc { .. }));
        assert!(matches!(kinds[1], Inst::Copy { .. }));
        assert!(matches!(kinds[2], Inst::Call { ref callee, .. } if callee == "free"));
    }

    #[test]
    fn if_inserts_phi_for_divergent_variable() {
        let m = lower_src(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        );
        let f = &m.funcs[0];
        let phis: Vec<_> = f
            .iter_insts()
            .filter(|(_, i)| matches!(i, Inst::Phi { .. }))
            .collect();
        assert_eq!(phis.len(), 1, "one φ for x at the join");
    }

    #[test]
    fn join_phis_are_emitted_in_name_order() {
        // The φ-merge iterates the branch environments; with an
        // unordered map the emission order (and hence ValueId numbering
        // and every content fingerprint downstream) would vary with the
        // per-process hash seed. Declare the variables in an order that
        // is neither sorted nor reverse-sorted to catch both accidents.
        let m = lower_src(
            "fn f(c: bool) -> int {
                let z: int = 0;
                let a: int = 0;
                let m: int = 0;
                if (c) { z = 1; a = 1; m = 1; } else { z = 2; a = 2; m = 2; }
                return z + a + m;
            }",
        );
        let f = &m.funcs[0];
        let phi_names: Vec<&str> = f
            .iter_insts()
            .filter_map(|(_, i)| match i {
                Inst::Phi { dst, .. } => Some(f.value(*dst).name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(phi_names, vec!["a", "m", "z"]);
    }

    #[test]
    fn unchanged_variable_needs_no_phi() {
        let m = lower_src(
            "fn f(c: bool) -> int {
                let x: int = 0;
                let y: int = 0;
                if (c) { y = 1; } else { y = 2; }
                return x;
            }",
        );
        let f = &m.funcs[0];
        let phi_names: Vec<&str> = f
            .iter_insts()
            .filter_map(|(_, i)| match i {
                Inst::Phi { dst, .. } => Some(f.value(*dst).name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(phi_names, vec!["y"]);
    }

    #[test]
    fn multiple_returns_merge_in_exit_block() {
        let m = lower_src(
            "fn f(c: bool) -> int {
                if (c) { return 1; }
                return 2;
            }",
        );
        let f = &m.funcs[0];
        assert_eq!(f.return_values().len(), 1);
        let rb = f.return_block().unwrap();
        // The exit block φ-merges the two returned constants.
        assert!(matches!(f.block(rb).insts.first(), Some(Inst::Phi { .. })));
    }

    #[test]
    fn while_unrolls_to_guarded_iteration() {
        let m = lower_src(
            "fn f(n: int) {
                let i: int = 0;
                while (i < n) { i = i + 1; }
                return;
            }",
        );
        let f = &m.funcs[0];
        // Acyclic CFG — topo_order must not panic.
        let cfg = Cfg::new(f);
        let order = cfg.topo_order(f.entry());
        assert!(order.len() >= 3);
    }

    #[test]
    fn globals_are_addresses() {
        let m = lower_src(
            "global g: int;
             fn f(p: int**) { *p = g; return; }",
        );
        let f = &m.funcs[0];
        assert!(f
            .iter_insts()
            .any(|(_, i)| matches!(i, Inst::GlobalAddr { .. })));
        assert_eq!(m.globals.len(), 1);
    }

    #[test]
    fn figure2_example_lowers() {
        // The paper's Fig. 1/2 program in surface syntax.
        let src = r#"
            global gb: int;
            fn foo(a: int*) {
                let ptr: int** = malloc();
                *ptr = a;
                if (nondet_bool()) { bar(ptr); } else { qux(ptr); }
                let f: int* = *ptr;
                if (nondet_bool()) { print(*f); }
                return;
            }
            fn bar(q: int**) {
                let c: int* = malloc();
                let t3: bool = *q != null;
                if (t3) { *q = c; free(c); }
                else { if (nondet_bool()) { *q = gb; } }
                return;
            }
            fn qux(r: int**) {
                if (nondet_bool()) { *r = null; } else { *r = null; }
                return;
            }
        "#;
        let m = lower_src(src);
        assert_eq!(m.funcs.len(), 3);
        assert!(m.func_by_name("foo").is_some());
        // Each function must have a single return block.
        for (_, f) in m.iter_funcs() {
            assert!(f.return_block().is_some(), "{} has a return", f.name);
        }
    }

    #[test]
    fn type_error_let_mismatch() {
        let e = lower_err("fn f() { let x: int = true; return; }");
        assert!(e.message.contains("type mismatch"), "{}", e.message);
    }

    #[test]
    fn type_error_branch_condition() {
        let e = lower_err("fn f() { if (1) { } return; }");
        assert!(e.message.contains("bool"), "{}", e.message);
    }

    #[test]
    fn error_unknown_variable() {
        let e = lower_err("fn f() { x = 1; return; }");
        assert!(e.message.contains("unknown variable"), "{}", e.message);
    }

    #[test]
    fn error_unknown_function() {
        let e = lower_err("fn f() { g(); return; }");
        assert!(e.message.contains("unknown function"), "{}", e.message);
    }

    #[test]
    fn error_arity_mismatch() {
        let e = lower_err("fn g(x: int) { return; } fn f() { g(); return; }");
        assert!(e.message.contains("argument"), "{}", e.message);
    }

    #[test]
    fn error_missing_return_value() {
        let e = lower_err("fn f() -> int { return; }");
        assert!(e.message.contains("return"), "{}", e.message);
    }

    #[test]
    fn error_fall_off_typed_function() {
        let e = lower_err("fn f(c: bool) -> int { if (c) { return 1; } }");
        assert!(e.message.contains("fall off"), "{}", e.message);
    }

    #[test]
    fn error_deref_non_pointer() {
        let e = lower_err("fn f(x: int) { let y: int = *x; return; }");
        assert!(e.message.contains("dereference"), "{}", e.message);
    }

    #[test]
    fn nested_store_depth_checked() {
        let m = lower_src("fn f(p: int**) { **p = 3; return; }");
        let f = &m.funcs[0];
        assert!(f
            .iter_insts()
            .any(|(_, i)| matches!(i, Inst::Store { depth: 2, .. })));
        let e = lower_err("fn f(p: int*) { **p = 3; return; }");
        assert!(e.message.contains("dereference"), "{}", e.message);
    }

    #[test]
    fn dead_code_after_return_ignored() {
        let m = lower_src("fn f() { return; free(null); }");
        let f = &m.funcs[0];
        assert_eq!(
            f.iter_insts()
                .filter(|(_, i)| matches!(i, Inst::Call { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn arm_declarations_end_with_the_arm() {
        // Also when the other arm returns and nothing is merged.
        for src in [
            "fn f(c: bool) -> int { if (c) { let y: int = 1; } return y; }",
            "fn f(c: bool) -> int { if (c) { let y: int = 1; } else { return 0; } return y; }",
            "fn f(c: bool) -> int { if (c) { return 0; } else { let y: int = 1; } return y; }",
            "fn f(c: bool) -> int { while (c) { let y: int = 1; } return y; }",
        ] {
            let e = lower_err(src);
            assert_eq!(e.message, "unknown variable `y`", "{src}");
        }
        // Variables bound before the branch take the surviving arm's value.
        let m = lower_src(
            "fn f(c: bool) -> int {
                let y: int = 0;
                if (c) { y = 1; } else { return 2; }
                return y;
            }",
        );
        let f = &m.funcs[0];
        let Some(Inst::Phi { incomings, .. }) = f.block(f.return_block().unwrap()).insts.first()
        else {
            panic!("the two returns merge");
        };
        let returned: Vec<&str> = incomings
            .iter()
            .map(|&(_, v)| f.value(v).name.as_str())
            .collect();
        assert_eq!(returned, ["c", "y"], "`return 2` then `return y`");
        let Some(Inst::Copy { dst, .. }) = f.block(BlockId(1)).insts.last() else {
            panic!("`y = 1` ends the then-arm");
        };
        assert_eq!(incomings[1].1, *dst, "the arm's `y`, not the outer one");
    }

    #[test]
    fn both_arms_return_makes_join_unreachable() {
        let m = lower_src(
            "fn f(c: bool) -> int {
                if (c) { return 1; } else { return 2; }
            }",
        );
        let f = &m.funcs[0];
        assert!(f.return_block().is_some());
    }
}
