//! IR well-formedness verification.
//!
//! Run after lowering and after every transforming pass (the Fig. 3
//! connector rewriting mutates functions heavily); catches malformed SSA,
//! dangling references, and type violations early instead of as mystery
//! analysis results.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ir::{Function, Inst, Module, Terminator, ValueId};
use std::collections::HashSet;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in `{}`: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of `module`; returns all violations found.
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for (_, f) in module.iter_funcs() {
        verify_function(module, f, &mut errors);
    }
    errors
}

/// Verifies one function.
pub fn verify_function(module: &Module, f: &Function, errors: &mut Vec<VerifyError>) {
    let err = |errors: &mut Vec<VerifyError>, message: String| {
        errors.push(VerifyError {
            func: f.name.clone(),
            message,
        });
    };
    let valid_value = |v: ValueId| (v.0 as usize) < f.values.len();

    // 1. Single static assignment: every value defined at most once, and
    //    defs match the recorded def sites.
    let mut defined: HashSet<ValueId> = f.params.iter().copied().collect();
    if defined.len() != f.params.len() {
        err(errors, "duplicate parameter value".into());
    }
    for (id, inst) in f.iter_insts() {
        inst.for_each_def(|d| {
            if !valid_value(d) {
                err(
                    errors,
                    format!("instruction {id} defines unknown value {d:?}"),
                );
                return;
            }
            if !defined.insert(d) {
                err(
                    errors,
                    format!("value {d:?} defined more than once (at {id})"),
                );
            }
            if f.value(d).def != Some(id) {
                err(
                    errors,
                    format!(
                        "def-site of {d:?} is stale (recorded {:?}, actual {id})",
                        f.value(d).def
                    ),
                );
            }
        });
    }

    // 2. Terminator targets must be in range before any CFG-based check
    //    (building a CFG over dangling targets would panic).
    let mut targets_ok = true;
    for (bi, blk) in f.blocks.iter().enumerate() {
        for t in blk.term.successors() {
            if t.0 as usize >= f.blocks.len() {
                err(errors, format!("bb{bi} targets unknown bb{}", t.0));
                targets_ok = false;
            }
        }
    }
    if !targets_ok {
        return;
    }

    // 3. Every use references a defined value; uses are dominated by defs
    //    (checked structurally: defs must appear in a block dominating the
    //    use, or earlier in the same block — φ uses checked at preds).
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(f, &cfg);
    for (id, inst) in f.iter_insts() {
        let mut uses: Vec<(ValueId, Option<crate::ir::BlockId>)> = Vec::new();
        match inst {
            Inst::Phi { incomings, .. } => {
                uses.extend(incomings.iter().map(|&(pred, v)| (v, Some(pred))));
            }
            other => other.for_each_use(|v| uses.push((v, None))),
        }
        for (v, phi_pred) in uses {
            if !valid_value(v) {
                err(errors, format!("instruction {id} uses unknown value {v:?}"));
                continue;
            }
            if !defined.contains(&v) {
                err(
                    errors,
                    format!("instruction {id} uses undefined value {v:?}"),
                );
                continue;
            }
            let Some(def) = f.value(v).def else {
                continue; // parameter: defined at entry, dominates all
            };
            if !cfg.reachable[id.block.0 as usize] {
                continue;
            }
            match phi_pred {
                Some(pred) => {
                    // The incoming value must be available at the end of
                    // the predecessor.
                    if !dom.dominates(def.block, pred) {
                        err(
                            errors,
                            format!(
                                "φ at {id}: incoming {v:?} (defined in bb{}) not available from bb{}",
                                def.block.0, pred.0
                            ),
                        );
                    }
                }
                None => {
                    let ok = if def.block == id.block {
                        def.index < id.index
                    } else {
                        dom.dominates(def.block, id.block)
                    };
                    if !ok {
                        err(
                            errors,
                            format!(
                                "use of {v:?} at {id} not dominated by its definition at {def}"
                            ),
                        );
                    }
                }
            }
        }
    }

    // 3. φ-instructions: incoming edges must match CFG predecessors.
    for (id, inst) in f.iter_insts() {
        if let Inst::Phi { incomings, .. } = inst {
            if !cfg.reachable[id.block.0 as usize] {
                continue;
            }
            let preds: HashSet<_> = cfg.preds(id.block).iter().copied().collect();
            for &(pred, _) in incomings {
                if !preds.contains(&pred) {
                    err(
                        errors,
                        format!("φ at {id} has incoming from non-predecessor bb{}", pred.0),
                    );
                }
            }
        }
    }

    // 4. Terminators: exactly one Return; branch targets in range; no
    //    Unreachable in reachable blocks.
    let mut returns = 0;
    for (bi, blk) in f.blocks.iter().enumerate() {
        match &blk.term {
            Terminator::Return(vals) => {
                returns += 1;
                if vals.len() != f.ret_tys.len() {
                    err(
                        errors,
                        format!(
                            "return arity {} does not match signature {}",
                            vals.len(),
                            f.ret_tys.len()
                        ),
                    );
                }
            }
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => {
                if valid_value(*cond) && *f.ty(*cond) != crate::types::Type::Bool {
                    err(errors, format!("bb{bi} branches on non-bool {cond:?}"));
                }
            }
            Terminator::Unreachable => {
                if cfg.reachable[bi] {
                    err(errors, format!("reachable bb{bi} has no terminator"));
                }
            }
        }
    }
    if returns != 1 {
        err(
            errors,
            format!("expected exactly one return, found {returns}"),
        );
    }

    // 5. Calls name functions of the module, with matching arity
    //    (post-transform shapes included).
    for (id, inst) in f.iter_insts() {
        if let Some(call) = inst.as_call() {
            let (args, dsts) = (call.args, call.dsts);
            if let Some(target) = call.callee.as_func() {
                let Some(g) = module.funcs.get(target.0 as usize) else {
                    err(errors, format!("call at {id}: no function {target:?}"));
                    continue;
                };
                let callee = &g.name;
                if args.len() != g.params.len() {
                    err(
                        errors,
                        format!(
                            "call at {id}: `{callee}` takes {} argument(s), got {}",
                            g.params.len(),
                            args.len()
                        ),
                    );
                }
                if dsts.len() > g.ret_tys.len() {
                    err(
                        errors,
                        format!(
                            "call at {id}: `{callee}` returns {} value(s), {} receivers",
                            g.ret_tys.len(),
                            dsts.len()
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;
    use crate::ir::{BlockId, Callee, Const, FuncId};
    use crate::types::Type;

    fn verify_src(src: &str) -> Vec<VerifyError> {
        let m = compile(src).unwrap();
        verify_module(&m)
    }

    #[test]
    fn lowered_programs_verify() {
        let errs = verify_src(
            "global g: int;
             fn helper(q: int**) -> int* { let v: int* = *q; return v; }
             fn main(c: bool) {
                let pp: int** = malloc();
                let p: int* = malloc();
                *pp = p;
                if (c) { let r: int* = helper(pp); free(r); }
                while (c) { print(g); }
                return;
             }",
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn transformed_programs_verify() {
        let mut m = crate::compile(
            "fn set(q: int**, v: int*) { *q = v; return; }
             fn main() {
                let pp: int** = malloc();
                let p: int* = malloc();
                set(pp, p);
                return;
             }",
        )
        .unwrap();
        // The connector transformation must preserve well-formedness.
        pinpoint_verify_after_transform(&mut m);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}");
    }

    /// Applies a minimal version of the connector transformation (the
    /// full pipeline lives in pinpoint-pta, which depends on this crate;
    /// here we just exercise multi-value returns and call rewrites by
    /// hand to keep the dependency direction).
    fn pinpoint_verify_after_transform(m: &mut Module) {
        let set = m.func_by_name("set").unwrap();
        let f = m.func_mut(set);
        // Append an aux return value loaded from *(q,1).
        let q = f.params[0];
        let aux = f.new_value("aux_out_p0d1", Type::Int.ptr_to());
        let rb = f.return_block().unwrap();
        f.blocks[rb.0 as usize].insts.push(Inst::Load {
            dst: aux,
            ptr: q,
            depth: 1,
        });
        if let Terminator::Return(vals) = &mut f.blocks[rb.0 as usize].term {
            vals.push(aux);
        }
        f.ret_tys.push(Type::Int.ptr_to());
        // Fix def sites after surgery.
        f.rebuild_def_sites();
        // Rewrite main's call site to receive it.
        let main = m.func_by_name("main").unwrap();
        let f = m.func_mut(main);
        let recv = f.new_value("aux_recv_p0d1", Type::Int.ptr_to());
        for blk in &mut f.blocks {
            for inst in &mut blk.insts {
                if let Some(call) = inst.as_call().filter(|c| c.callee.as_func() == Some(set)) {
                    let dsts = [call.dsts, &[recv]].concat();
                    let with_recv = Inst::call(call.callee, &dsts, call.args);
                    *inst = with_recv;
                }
            }
        }
        f.rebuild_def_sites();
    }

    #[test]
    fn detects_call_to_a_missing_function() {
        let mut m = compile("fn f() { return; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let entry = f.entry();
        f.push_inst(entry, Inst::call(Callee::func(FuncId(7)), &[], &[]));
        let errors = verify_module(&m);
        assert!(
            errors.iter().any(|e| e.message.contains("no function")),
            "{errors:?}"
        );
    }

    #[test]
    fn detects_double_definition() {
        let mut m = compile("fn f() { return; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let x = f.new_value("x", Type::Int);
        let entry = f.entry();
        f.push_inst(
            entry,
            Inst::Const {
                dst: x,
                value: Const::Int(1),
            },
        );
        f.push_inst(
            entry,
            Inst::Const {
                dst: x,
                value: Const::Int(2),
            },
        );
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("more than once")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_use_before_def() {
        let mut m = compile("fn f() { return; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let x = f.new_value("x", Type::Int);
        let y = f.new_value("y", Type::Int);
        let entry = f.entry();
        // y = x before x is defined.
        f.push_inst(entry, Inst::Copy { dst: y, src: x });
        f.push_inst(
            entry,
            Inst::Const {
                dst: x,
                value: Const::Int(1),
            },
        );
        let errs = verify_module(&m);
        assert!(
            errs.iter()
                .any(|e| e.message.contains("not dominated") || e.message.contains("undefined")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut m = compile("fn f(c: bool) { return; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let c = f.params[0];
        let entry = f.entry();
        f.set_term(
            entry,
            Terminator::Branch {
                cond: c,
                then_bb: BlockId(99),
                else_bb: BlockId(1),
            },
        );
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("unknown bb99")),
            "{errs:?}"
        );
        // Verification stops before CFG-based checks; no panic.
    }

    #[test]
    fn detects_return_arity_mismatch() {
        let mut m = compile("fn f() -> int { return 1; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let rb = f.return_block().unwrap();
        f.set_term(rb, Terminator::Return(vec![]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("arity")), "{errs:?}");
    }

    #[test]
    fn detects_phi_from_non_predecessor() {
        let mut m = compile(
            "fn f(c: bool) -> int {
                    let x: int = 0;
                    if (c) { x = 1; } else { x = 2; }
                    return x;
                }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        // Corrupt the φ's first incoming block.
        let phi_pos = f
            .iter_insts()
            .find_map(|(id, i)| matches!(i, Inst::Phi { .. }).then_some(id))
            .unwrap();
        if let Inst::Phi { incomings, .. } =
            &mut f.blocks[phi_pos.block.0 as usize].insts[phi_pos.index as usize]
        {
            incomings[0].0 = BlockId(0);
        }
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("non-predecessor")),
            "{errs:?}"
        );
    }
}
