//! Cleanup optimisations over the SSA IR.
//!
//! The front end is deliberately naive (every `let` emits a `Copy`, every
//! literal a fresh `Const`), which keeps lowering auditable but inflates
//! the value graph the analyses walk. These passes shrink it without
//! changing semantics:
//!
//! * [`propagate_copies`] — rewrites uses of `Copy` destinations to their
//!   sources (pure SSA renaming; copies become dead);
//! * [`fold_constants`] — evaluates `Bin`/`Un` over constant operands
//!   into `Const`s and collapses branches on constant conditions into
//!   jumps;
//! * [`eliminate_dead_code`] — removes side-effect-free instructions
//!   whose results are never used (calls, stores and allocations are
//!   conservatively kept: allocations are leak-checker sources);
//! * [`optimize_module`] — runs the three to a fixpoint.
//!
//! Analyses run unchanged on optimised modules; the SEG just has fewer
//! trivial vertices.

use crate::ir::{BinOp, Const, Function, Inst, Module, Terminator, UnOp, ValueId};
use std::collections::{HashMap, HashSet};

/// Statistics of one optimisation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Uses rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Instructions folded to constants.
    pub constants_folded: usize,
    /// Branches collapsed to jumps.
    pub branches_collapsed: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
}

impl OptStats {
    /// `true` if nothing changed.
    pub fn is_noop(&self) -> bool {
        *self == OptStats::default()
    }

    fn merge(&mut self, other: OptStats) {
        self.copies_propagated += other.copies_propagated;
        self.constants_folded += other.constants_folded;
        self.branches_collapsed += other.branches_collapsed;
        self.dead_removed += other.dead_removed;
    }
}

/// Runs all passes over every function until nothing changes.
pub fn optimize_module(module: &mut Module) -> OptStats {
    let mut total = OptStats::default();
    for f in &mut module.funcs {
        loop {
            let mut round = OptStats::default();
            round.merge(propagate_copies(f));
            round.merge(fold_constants(f));
            round.merge(eliminate_dead_code(f));
            if round.is_noop() {
                break;
            }
            total.merge(round);
        }
    }
    total
}

/// Replaces every use of a `Copy` destination with the copy's source
/// (following chains), leaving the copies dead.
pub fn propagate_copies(f: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    // Resolve copy chains to their roots.
    let mut alias: HashMap<ValueId, ValueId> = HashMap::new();
    for (_, inst) in f.iter_insts() {
        if let Inst::Copy { dst, src } = inst {
            alias.insert(*dst, *src);
        }
    }
    let resolve = |alias: &HashMap<ValueId, ValueId>, mut v: ValueId| -> ValueId {
        let mut hops = 0;
        while let Some(&next) = alias.get(&v) {
            v = next;
            hops += 1;
            if hops > alias.len() {
                break; // cycle guard (cannot happen in valid SSA)
            }
        }
        v
    };
    let rewrite = |v: &mut ValueId, stats: &mut OptStats| {
        let r = resolve(&alias, *v);
        if r != *v {
            *v = r;
            stats.copies_propagated += 1;
        }
    };
    for blk in &mut f.blocks {
        for inst in &mut blk.insts {
            match inst {
                Inst::Copy { src, .. } => rewrite(src, &mut stats),
                Inst::Phi { incomings, .. } => {
                    for (_, v) in incomings {
                        rewrite(v, &mut stats);
                    }
                }
                Inst::Bin { lhs, rhs, .. } => {
                    rewrite(lhs, &mut stats);
                    rewrite(rhs, &mut stats);
                }
                Inst::Un { operand, .. } => rewrite(operand, &mut stats),
                Inst::Load { ptr, .. } => rewrite(ptr, &mut stats),
                Inst::Store { ptr, src, .. } => {
                    rewrite(ptr, &mut stats);
                    rewrite(src, &mut stats);
                }
                Inst::Call {
                    receivers,
                    operands,
                    ..
                } => {
                    for a in &mut operands[usize::from(*receivers)..] {
                        rewrite(a, &mut stats);
                    }
                }
                _ => {}
            }
        }
        match &mut blk.term {
            Terminator::Branch { cond, .. } => rewrite(cond, &mut stats),
            Terminator::Return(vals) => {
                for v in vals {
                    rewrite(v, &mut stats);
                }
            }
            _ => {}
        }
    }
    stats
}

/// Evaluates operations over constants and collapses constant branches.
pub fn fold_constants(f: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    // Collect constants.
    let mut consts: HashMap<ValueId, Const> = HashMap::new();
    for (_, inst) in f.iter_insts() {
        if let Inst::Const { dst, value } = inst {
            consts.insert(*dst, *value);
        }
    }
    for blk in &mut f.blocks {
        for inst in &mut blk.insts {
            let folded: Option<(ValueId, Const)> = match inst {
                Inst::Bin { dst, op, lhs, rhs } => match (consts.get(lhs), consts.get(rhs)) {
                    (Some(&Const::Int(a)), Some(&Const::Int(b))) => {
                        let v = match op {
                            BinOp::Add => Some(Const::Int(a.wrapping_add(b))),
                            BinOp::Sub => Some(Const::Int(a.wrapping_sub(b))),
                            BinOp::Mul => Some(Const::Int(a.wrapping_mul(b))),
                            BinOp::Eq => Some(Const::Bool(a == b)),
                            BinOp::Ne => Some(Const::Bool(a != b)),
                            BinOp::Lt => Some(Const::Bool(a < b)),
                            BinOp::Le => Some(Const::Bool(a <= b)),
                            _ => None,
                        };
                        v.map(|v| (*dst, v))
                    }
                    (Some(&Const::Bool(a)), Some(&Const::Bool(b))) => {
                        let v = match op {
                            BinOp::And => Some(Const::Bool(a && b)),
                            BinOp::Or => Some(Const::Bool(a || b)),
                            BinOp::Eq => Some(Const::Bool(a == b)),
                            BinOp::Ne => Some(Const::Bool(a != b)),
                            _ => None,
                        };
                        v.map(|v| (*dst, v))
                    }
                    _ => None,
                },
                Inst::Un { dst, op, operand } => match (op, consts.get(operand)) {
                    (UnOp::Neg, Some(&Const::Int(a))) => Some((*dst, Const::Int(a.wrapping_neg()))),
                    (UnOp::Not, Some(&Const::Bool(a))) => Some((*dst, Const::Bool(!a))),
                    _ => None,
                },
                _ => None,
            };
            if let Some((dst, value)) = folded {
                *inst = Inst::Const { dst, value };
                consts.insert(dst, value);
                stats.constants_folded += 1;
            }
        }
        // Constant branches become jumps (the dead arm stays as an
        // unreachable block; φs in the live target keep their incoming
        // from this block).
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = blk.term
        {
            if let Some(&Const::Bool(b)) = consts.get(&cond) {
                blk.term = Terminator::Jump(if b { then_bb } else { else_bb });
                stats.branches_collapsed += 1;
            }
        }
    }
    if stats.branches_collapsed > 0 {
        prune_dead_phi_incomings(f);
    }
    stats
}

/// After branch collapsing, φ incomings from no-longer-predecessor blocks
/// must be dropped (the verifier checks this invariant).
fn prune_dead_phi_incomings(f: &mut Function) {
    let cfg = crate::cfg::Cfg::new(f);
    for bi in 0..f.blocks.len() {
        // Only *reachable* predecessors count: a collapsed branch leaves
        // the dead arm in place (with its jump to the join), but control
        // can never arrive through it.
        let preds: HashSet<_> = cfg
            .preds(crate::ir::BlockId(bi as u32))
            .iter()
            .copied()
            .filter(|p| cfg.reachable[p.0 as usize])
            .collect();
        for inst in &mut f.blocks[bi].insts {
            if let Inst::Phi { incomings, .. } = inst {
                if incomings.iter().any(|(p, _)| !preds.contains(p)) {
                    let mut kept = std::mem::take(incomings).into_vec();
                    kept.retain(|(p, _)| preds.contains(p));
                    *incomings = kept.into_boxed_slice();
                }
            }
        }
    }
}

/// Removes instructions with unused results and no side effects.
pub fn eliminate_dead_code(f: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    let mut used: HashSet<ValueId> = HashSet::new();
    let mut mark = |v| {
        used.insert(v);
    };
    for (_, inst) in f.iter_insts() {
        inst.for_each_use(&mut mark);
    }
    for blk in &f.blocks {
        blk.term.for_each_use(&mut mark);
    }
    for blk in &mut f.blocks {
        let before = blk.insts.len();
        blk.insts.retain(|inst| match inst {
            // Side effects (or checker-relevant events): always keep.
            Inst::Store { .. } | Inst::Call { .. } | Inst::Alloc { .. } => true,
            // Loads may trap (null deref) — they are checker sinks; keep.
            Inst::Load { .. } => true,
            other => {
                let mut live = false;
                other.for_each_def(|d| live |= used.contains(&d));
                live
            }
        });
        stats.dead_removed += before - blk.insts.len();
    }
    if stats.dead_removed > 0 {
        f.rebuild_def_sites();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;
    use crate::verify::verify_module;

    fn optimized(src: &str) -> (Module, OptStats) {
        let mut m = compile(src).unwrap();
        let stats = optimize_module(&mut m);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "optimised module verifies: {errs:?}");
        (m, stats)
    }

    #[test]
    fn copy_chains_collapse() {
        let (m, stats) = optimized(
            "fn f(a: int) -> int {
                let b: int = a;
                let c: int = b;
                let d: int = c;
                return d;
            }",
        );
        assert!(stats.copies_propagated > 0);
        assert!(stats.dead_removed >= 3, "the copies die: {stats:?}");
        let f = &m.funcs[0];
        // Return references the parameter directly.
        assert_eq!(f.return_values()[0], f.params[0]);
    }

    #[test]
    fn constants_fold_through_arithmetic() {
        let (m, stats) = optimized("fn f() -> int { return (2 + 3) * 4; }");
        assert!(stats.constants_folded >= 2);
        let f = &m.funcs[0];
        let ret = f.return_values()[0];
        let def = f.value(ret).def.unwrap();
        assert!(
            matches!(
                f.inst(def),
                Inst::Const {
                    value: Const::Int(20),
                    ..
                }
            ),
            "return folds to 20"
        );
    }

    #[test]
    fn constant_branch_collapses() {
        let (m, stats) = optimized(
            "fn f() -> int {
                let x: int = 0;
                if (true) { x = 1; } else { x = 2; }
                return x;
            }",
        );
        assert_eq!(stats.branches_collapsed, 1);
        // The φ lost its dead incoming and the verifier is happy.
        let f = &m.funcs[0];
        for (_, inst) in f.iter_insts() {
            if let Inst::Phi { incomings, .. } = inst {
                assert_eq!(incomings.len(), 1);
            }
        }
        let _ = m;
    }

    #[test]
    fn side_effects_survive_dce() {
        let (m, _stats) = optimized(
            "fn f(p: int*) {
                let unused: int = 1 + 2;
                *p = 3;
                free(p);
                return;
            }",
        );
        let f = &m.funcs[0];
        let kinds: Vec<&Inst> = f.iter_insts().map(|(_, i)| i).collect();
        assert!(kinds.iter().any(|i| matches!(i, Inst::Store { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Inst::Call { .. })));
        assert!(
            !kinds
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. })),
            "the unused addition dies"
        );
    }

    #[test]
    fn loads_survive_dce() {
        // A load's result may be unused but the deref is checker-relevant.
        let (m, _stats) = optimized(
            "fn f(p: int*) {
                let x: int = *p;
                return;
            }",
        );
        let f = &m.funcs[0];
        assert!(f.iter_insts().any(|(_, i)| matches!(i, Inst::Load { .. })));
    }

    #[test]
    fn optimizer_reaches_fixpoint() {
        let (mut m, _first) = optimized(
            "fn f(a: int) -> int {
                let b: int = a;
                let c: int = b + 0;
                return c;
            }",
        );
        let second = optimize_module(&mut m);
        assert!(second.is_noop(), "idempotent: {second:?}");
    }

    #[test]
    fn analysis_agrees_after_optimization() {
        // The UAF verdict must be identical on the optimised module.
        let src = "fn main(c: bool) {
            let p: int* = malloc();
            let alias: int* = p;
            if (c) { free(alias); }
            if (c) { let x: int = *p; print(x); }
            return;
        }";
        let m1 = compile(src).unwrap();
        let mut m2 = compile(src).unwrap();
        optimize_module(&mut m2);
        // Both modules must contain the same free/load/store skeleton.
        let count = |m: &Module, pred: fn(&Inst) -> bool| {
            m.funcs[0].iter_insts().filter(|(_, i)| pred(i)).count()
        };
        for (m, label) in [(&m1, "raw"), (&m2, "optimised")] {
            assert_eq!(
                count(m, |i| matches!(i, Inst::Call { .. })),
                2,
                "{label}: free + print"
            );
            assert_eq!(count(m, |i| matches!(i, Inst::Load { .. })), 1, "{label}");
        }
    }
}
