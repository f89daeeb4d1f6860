//! Block reach conditions.
//!
//! For the guarded memory updates of the quasi path-sensitive points-to
//! analysis, every store needs the condition under which control reaches
//! its block from the function entry. On the acyclic CFG this is a single
//! forward pass in topological order, disjoining incoming edge conditions
//! at merges; the resulting terms are hash-consed and shared.

use crate::symbols::Symbols;
use pinpoint_ir::{BlockId, Cfg, FuncId, Function, Terminator};
use pinpoint_smt::{TermArena, TermId};

/// Per-block reach conditions, indexed by block id.
#[derive(Debug, Clone)]
pub struct ReachConds {
    conds: Vec<TermId>,
}

impl ReachConds {
    /// Computes reach conditions for every block of `f`.
    pub fn new(
        arena: &mut TermArena,
        symbols: &mut Symbols,
        fid: FuncId,
        f: &Function,
        cfg: &Cfg,
    ) -> Self {
        Self::over(arena, symbols, fid, f, &cfg.topo_order(f.entry()))
    }

    /// [`ReachConds::new`] over an already-computed topological order of
    /// `f`'s reachable blocks.
    pub fn over(
        arena: &mut TermArena,
        symbols: &mut Symbols,
        fid: FuncId,
        f: &Function,
        topo: &[BlockId],
    ) -> Self {
        let fls = arena.fls();
        let mut conds = vec![fls; f.blocks.len()];
        conds[f.entry().0 as usize] = arena.tru();
        for &b in topo {
            let here = conds[b.0 as usize];
            match &f.block(b).term {
                Terminator::Jump(s) => {
                    let prev = conds[s.0 as usize];
                    conds[s.0 as usize] = arena.or2(prev, here);
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = symbols.value_term(arena, fid, f, *cond);
                    let nc = arena.not(c);
                    for (s, edge) in [(then_bb, c), (else_bb, nc)] {
                        let with_edge = arena.and2(here, edge);
                        let prev = conds[s.0 as usize];
                        conds[s.0 as usize] = arena.or2(prev, with_edge);
                    }
                }
                _ => {}
            }
        }
        ReachConds { conds }
    }

    /// Reach condition of `b`.
    pub fn cond(&self, b: BlockId) -> TermId {
        self.conds[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn join_after_diamond_reaches_true() {
        let m = compile(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let rc = ReachConds::new(&mut arena, &mut sym, fid, f, &cfg);
        // Entry reaches trivially.
        assert!(arena.is_true(rc.cond(f.entry())));
        // The join block is c ∨ ¬c = true after simplification.
        let join = f.return_block().unwrap();
        assert!(arena.is_true(rc.cond(join)));
    }

    #[test]
    fn branch_arms_get_polarity() {
        let m = compile(
            "fn f(c: bool) {
                if (c) { free(null); }
                return;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let rc = ReachConds::new(&mut arena, &mut sym, fid, f, &cfg);
        let c_term = sym.value_term(&mut arena, fid, f, f.params[0]);
        let nc = arena.not(c_term);
        // Find the arm containing the free() call.
        let arm = f
            .iter_insts()
            .find_map(|(id, i)| match i {
                pinpoint_ir::Inst::Call { callee, .. } if callee == "free" => Some(id.block),
                _ => None,
            })
            .unwrap();
        assert_eq!(rc.cond(arm), c_term);
        // The empty else arm is ¬c.
        let else_arm = cfg.succs(f.entry())[1];
        assert_eq!(rc.cond(else_arm), nc);
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use pinpoint_ir::compile;
    use pinpoint_smt::{SmtResult, SmtSolver};

    /// Nested guards: the inner block's reach condition is the conjunction
    /// of both branch conditions (checked semantically via the solver).
    #[test]
    fn nested_branch_reach_is_conjunction() {
        let m = compile(
            "fn f(a: bool, b: bool) {
                if (a) {
                    if (b) {
                        free(null);
                    }
                }
                return;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let rc = ReachConds::new(&mut arena, &mut sym, fid, f, &cfg);
        let free_block = f
            .iter_insts()
            .find_map(|(id, i)| match i {
                pinpoint_ir::Inst::Call { callee, .. } if callee == "free" => Some(id.block),
                _ => None,
            })
            .unwrap();
        let reach = rc.cond(free_block);
        let a_term = sym.value_term(&mut arena, fid, f, f.params[0]);
        let b_term = sym.value_term(&mut arena, fid, f, f.params[1]);
        let mut solver = SmtSolver::new();
        // reach ∧ ¬a and reach ∧ ¬b are both unsatisfiable.
        for t in [a_term, b_term] {
            let nt = arena.not(t);
            let q = arena.and2(reach, nt);
            assert_eq!(solver.check(&arena, q), SmtResult::Unsat);
        }
        // reach ∧ a ∧ b is satisfiable.
        let q = arena.and([reach, a_term, b_term]);
        assert_eq!(solver.check(&arena, q), SmtResult::Sat);
    }

    /// Early returns: code after `if (c) { return; }` is reachable only
    /// under ¬c.
    #[test]
    fn early_return_restricts_tail() {
        let m = compile(
            "fn f(c: bool) {
                if (c) { return; }
                free(null);
                return;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let rc = ReachConds::new(&mut arena, &mut sym, fid, f, &cfg);
        let free_block = f
            .iter_insts()
            .find_map(|(id, i)| match i {
                pinpoint_ir::Inst::Call { callee, .. } if callee == "free" => Some(id.block),
                _ => None,
            })
            .unwrap();
        let reach = rc.cond(free_block);
        let c_term = sym.value_term(&mut arena, fid, f, f.params[0]);
        let mut solver = SmtSolver::new();
        let q = arena.and2(reach, c_term);
        assert_eq!(
            solver.check(&arena, q),
            SmtResult::Unsat,
            "the tail requires ¬c"
        );
    }
}
