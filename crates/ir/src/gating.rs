//! Gating conditions for φ-assignments (Tu–Padua style).
//!
//! For each φ-assignment `v ← φ(v₁, v₂, …)` the SEG needs the condition
//! under which each `vᵢ` is selected — the paper's "gated function", which
//! labels the conditional data-dependence edges of the SEG (Example 3.4:
//! the edge `(b, Y)` is labelled `m = ¬θ₃ ∧ θ₄`).
//!
//! On the acyclic CFGs this system produces (loops unrolled once), the
//! gate of the incoming edge from predecessor `P` into join block `B` is
//! the condition of reaching `P` from `idom(B)` conjoined with the edge
//! condition of `P → B`, computed by a forward pass in topological order
//! with disjunction at merges.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ir::{BlockId, Function, Terminator, ValueId};

/// A symbolic gating condition over branch-condition values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Always taken.
    True,
    /// The branch value with a polarity (`Lit(c, false)` means `¬c`).
    Lit(ValueId, bool),
    /// Conjunction.
    And(Vec<Gate>),
    /// Disjunction.
    Or(Vec<Gate>),
}

impl Gate {
    fn and(a: Gate, b: Gate) -> Gate {
        match (a, b) {
            (Gate::True, x) | (x, Gate::True) => x,
            (Gate::And(mut xs), Gate::And(ys)) => {
                xs.extend(ys);
                Gate::And(xs)
            }
            (Gate::And(mut xs), y) => {
                xs.push(y);
                Gate::And(xs)
            }
            (x, Gate::And(mut ys)) => {
                ys.insert(0, x);
                Gate::And(ys)
            }
            (x, y) => Gate::And(vec![x, y]),
        }
    }

    fn or(a: Option<Gate>, b: Gate) -> Gate {
        match a {
            None => b,
            Some(Gate::True) => Gate::True,
            Some(x) if x == b => x,
            Some(Gate::Or(mut xs)) => {
                xs.push(b);
                Gate::Or(xs)
            }
            Some(x) => Gate::Or(vec![x, b]),
        }
    }
}

/// Computes gating conditions for the φ-incomings of a function.
#[derive(Debug)]
pub struct Gating {
    /// Per block: `(predecessor, gate)` for each incoming edge of a join
    /// block, in [`Cfg::preds`] order; empty for every other block.
    gates: Vec<Vec<(BlockId, Gate)>>,
}

impl Gating {
    /// Computes gates for every join block of `f` (blocks with ≥ 2
    /// predecessors).
    pub fn new(f: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let mut gates = vec![Vec::new(); cfg.len()];
        let topo = cfg.topo_order(f.entry());
        let mut topo_pos = vec![usize::MAX; cfg.len()];
        for (i, &b) in topo.iter().enumerate() {
            topo_pos[b.0 as usize] = i;
        }
        // Forward reachability conditions of the join being processed,
        // by block; cleared over the join's window afterwards.
        let mut reach: Vec<Option<Gate>> = vec![None; cfg.len()];
        for &b in &topo {
            if cfg.preds(b).len() < 2 {
                continue;
            }
            let Some(d) = dom.idom(b) else { continue };
            // Forward reachability conditions from d within [d, b].
            reach[d.0 as usize] = Some(Gate::True);
            let lo = topo_pos[d.0 as usize];
            let hi = topo_pos[b.0 as usize];
            for &x in &topo[lo..hi] {
                let Some(gx) = reach[x.0 as usize].clone() else {
                    continue;
                };
                match &f.block(x).term {
                    Terminator::Jump(s) if topo_pos[s.0 as usize] <= hi => {
                        let prev = reach[s.0 as usize].take();
                        reach[s.0 as usize] = Some(Gate::or(prev, gx));
                    }
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        for (s, pol) in [(then_bb, true), (else_bb, false)] {
                            if topo_pos[s.0 as usize] <= hi {
                                let edge = Gate::and(gx.clone(), Gate::Lit(*cond, pol));
                                let prev = reach[s.0 as usize].take();
                                reach[s.0 as usize] = Some(Gate::or(prev, edge));
                            }
                        }
                    }
                    _ => {}
                }
            }
            for &p in cfg.preds(b) {
                let base = reach[p.0 as usize].clone().unwrap_or(Gate::True);
                let edge_cond = match &f.block(p).term {
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        if *then_bb == b && *else_bb == b {
                            Gate::True
                        } else if *then_bb == b {
                            Gate::Lit(*cond, true)
                        } else {
                            Gate::Lit(*cond, false)
                        }
                    }
                    _ => Gate::True,
                };
                gates[b.0 as usize].push((p, Gate::and(base, edge_cond)));
            }
            for &x in &topo[lo..=hi] {
                reach[x.0 as usize] = None;
            }
        }
        Gating { gates }
    }

    /// The gate of the φ-incoming edge from `pred` into join `block`.
    /// `Gate::True` when the edge is unconditional (single-pred blocks).
    pub fn gate(&self, block: BlockId, pred: BlockId) -> &Gate {
        self.gates
            .get(block.0 as usize)
            .and_then(|row| row.iter().find(|(p, _)| *p == pred))
            .map_or(&Gate::True, |(_, g)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;

    fn build(src: &str) -> (Function, Cfg, DomTree) {
        let m = compile(src).unwrap();
        let f = m.funcs.into_iter().next().unwrap();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        (f, cfg, dom)
    }

    /// Finds the φ for variable `name` and returns its gated incomings.
    fn phi_gates(f: &Function, cfg: &Cfg, dom: &DomTree, name: &str) -> Vec<(ValueId, Gate)> {
        let gating = Gating::new(f, cfg, dom);
        for (id, inst) in f.iter_insts() {
            if let crate::ir::Inst::Phi { dst, incomings } = inst {
                if f.value_name(*dst) == name {
                    return incomings
                        .iter()
                        .map(|&(p, v)| (v, gating.gate(id.block, p).clone()))
                        .collect();
                }
            }
        }
        panic!("no φ for {name}");
    }

    #[test]
    fn simple_diamond_gates_are_literals() {
        let (f, cfg, dom) = build(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        );
        let gates = phi_gates(&f, &cfg, &dom, "x");
        assert_eq!(gates.len(), 2);
        let pols: Vec<bool> = gates
            .iter()
            .map(|(_, g)| match g {
                Gate::Lit(_, p) => *p,
                other => panic!("expected literal gate, got {other:?}"),
            })
            .collect();
        assert!(pols.contains(&true) && pols.contains(&false));
    }

    #[test]
    fn nested_branch_gates_conjoin() {
        // The paper's bar-like shape: x = c on θ3; x = b on ¬θ3 ∧ θ4;
        // otherwise unchanged.
        let (f, cfg, dom) = build(
            "fn f(t3: bool, t4: bool) -> int {
                let x: int = 0;
                if (t3) { x = 1; }
                else { if (t4) { x = 2; } }
                return x;
            }",
        );
        // The outer φ merges the then-arm value with the inner join value.
        let gates = phi_gates(&f, &cfg, &dom, "x");
        assert_eq!(gates.len(), 2);
        // At least one gate must be a bare literal on t3.
        assert!(gates.iter().any(|(_, g)| matches!(g, Gate::Lit(_, _))));
    }

    #[test]
    fn single_pred_gate_defaults_to_true() {
        let (f, cfg, dom) = build("fn f() { return; }");
        let gating = Gating::new(&f, &cfg, &dom);
        assert_eq!(
            *gating.gate(f.entry(), f.entry()),
            Gate::True,
            "missing edges are unconditional"
        );
    }

    #[test]
    fn gate_and_flattens() {
        let g = Gate::and(
            Gate::and(Gate::Lit(ValueId(0), true), Gate::Lit(ValueId(1), false)),
            Gate::Lit(ValueId(2), true),
        );
        match g {
            Gate::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn gate_or_merges_duplicates() {
        let a = Gate::Lit(ValueId(0), true);
        assert_eq!(Gate::or(Some(a.clone()), a.clone()), a);
    }
}
