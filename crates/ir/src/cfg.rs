//! Control-flow-graph utilities: predecessors, successors, reverse
//! postorder, reachability.
//!
//! After lowering (which unrolls loops once — the soundiness rule of §4.2),
//! every CFG in this system is acyclic; [`Cfg::topo_order`] asserts this
//! and yields a topological order used by the flow-sensitive points-to
//! analysis and the gating-condition computation.

use crate::ir::{BlockId, Function};

/// Predecessor/successor view over a function's blocks.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors per block.
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors per block.
    pub preds: Vec<Vec<BlockId>>,
    /// Blocks reachable from entry.
    pub reachable: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG view of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (b, blk) in f.blocks.iter().enumerate() {
            blk.term.for_each_successor(|s| {
                succs[b].push(s);
                preds[s.0 as usize].push(BlockId(b as u32));
            });
        }
        let mut reachable = vec![false; n];
        let mut stack = vec![f.entry()];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b.0 as usize], true) {
                continue;
            }
            stack.extend(succs[b.0 as usize].iter().copied());
        }
        Cfg {
            succs,
            preds,
            reachable,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// `true` if the function has no blocks (never happens for built
    /// functions, which always own an entry block).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0 as usize]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Reverse postorder over reachable blocks, starting at entry.
    pub fn reverse_postorder(&self, entry: BlockId) -> Vec<BlockId> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.len()]; // 0 unvisited, 1 open, 2 done
                                               // Iterative DFS with an explicit stack of (block, child cursor).
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        state[entry.0 as usize] = 1;
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            let ss = self.succs(b);
            if *cursor < ss.len() {
                let child = ss[*cursor];
                *cursor += 1;
                if state[child.0 as usize] == 0 {
                    state[child.0 as usize] = 1;
                    stack.push((child, 0));
                }
            } else {
                state[b.0 as usize] = 2;
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Topological order of the acyclic CFG.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (lowering guarantees it does
    /// not — loops are unrolled once).
    pub fn topo_order(&self, entry: BlockId) -> Vec<BlockId> {
        let order = self.reverse_postorder(entry);
        // Verify acyclicity: every edge must go forward in the order.
        let mut pos = vec![usize::MAX; self.len()];
        for (i, &b) in order.iter().enumerate() {
            pos[b.0 as usize] = i;
        }
        for &b in &order {
            for &s in self.succs(b) {
                assert!(
                    pos[s.0 as usize] > pos[b.0 as usize],
                    "CFG contains a cycle through bb{}",
                    b.0
                );
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Function, Terminator, ValueId};
    use crate::types::Type;

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond() -> Function {
        let mut f = Function::new("d");
        let c = f.new_value("c", Type::Bool);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.set_term(
            f.entry(),
            Terminator::Branch {
                cond: c,
                then_bb: b1,
                else_bb: b2,
            },
        );
        f.set_term(b1, Terminator::Jump(b3));
        f.set_term(b2, Terminator::Jump(b3));
        f.set_term(b3, Terminator::Return(vec![]));
        f
    }

    #[test]
    fn preds_succs_of_diamond() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert!(cfg.reachable.iter().all(|&r| r));
    }

    #[test]
    fn rpo_starts_at_entry_ends_at_exit() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let order = cfg.reverse_postorder(f.entry());
        assert_eq!(order.first(), Some(&BlockId(0)));
        assert_eq!(order.last(), Some(&BlockId(3)));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let order = cfg.topo_order(f.entry());
        let pos = |b: BlockId| order.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(0)) < pos(BlockId(1)));
        assert!(pos(BlockId(1)) < pos(BlockId(3)));
        assert!(pos(BlockId(2)) < pos(BlockId(3)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let mut f = Function::new("loop");
        let b1 = f.new_block();
        f.set_term(f.entry(), Terminator::Jump(b1));
        f.set_term(b1, Terminator::Jump(f.entry()));
        let cfg = Cfg::new(&f);
        let _ = cfg.topo_order(f.entry());
    }

    #[test]
    fn unreachable_blocks_flagged() {
        let mut f = Function::new("u");
        let _dead = f.new_block();
        f.set_term(f.entry(), Terminator::Return(vec![ValueId(0); 0]));
        let cfg = Cfg::new(&f);
        assert!(cfg.reachable[0]);
        assert!(!cfg.reachable[1]);
    }
}
