//! Dominator and post-dominator trees.
//!
//! Uses the Cooper–Harvey–Kennedy iterative algorithm over reverse
//! postorder. The post-dominator tree drives control dependence
//! ([`crate::controldep`] walks it from each branch edge's target up to
//! the branch's immediate post-dominator, following Ferrante et al.,
//! which the paper cites for the `Gc` subgraph of the SEG); the dominator
//! tree places φ gates ([`crate::gating`]).

use crate::cfg::Cfg;
use crate::ir::{BlockId, Function, Terminator};

/// A dominator tree over a function's blocks.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`idom[entry] == entry`); `None` for
    /// unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Reverse postorder used during construction.
    pub order: Vec<BlockId>,
}

impl DomTree {
    /// Computes the dominator tree of the forward CFG.
    pub fn dominators(f: &Function, cfg: &Cfg) -> Self {
        let order = cfg.reverse_postorder(f.entry());
        Self::compute(cfg.len(), f.entry(), &order, |b| cfg.preds(b))
    }

    /// Core CHK iteration, parameterised over the edge direction.
    fn compute<'a, P>(n: usize, root: BlockId, order: &[BlockId], preds: P) -> Self
    where
        P: Fn(BlockId) -> &'a [BlockId],
    {
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in order.iter().enumerate() {
            rpo_num[b.0 as usize] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[root.0 as usize] = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds(b) {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, &rpo_num, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree {
            idom,
            order: order.to_vec(),
        }
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_num: &[usize],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while rpo_num[a.0 as usize] > rpo_num[b.0 as usize] {
                a = idom[a.0 as usize].expect("processed block has idom");
            }
            while rpo_num[b.0 as usize] > rpo_num[a.0 as usize] {
                b = idom[b.0 as usize].expect("processed block has idom");
            }
        }
        a
    }

    /// Immediate dominator of `b` (or post-dominator, for a post-dom tree).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.0 as usize]
    }

    /// `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(p) if p != cur => cur = p,
                _ => return false,
            }
        }
    }
}

/// Post-dominator tree, computed on the reverse CFG from a virtual exit.
///
/// Functions in this IR have a unique return statement (the front end
/// guarantees it), so the return block is the post-dominance root.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// The underlying tree (indices are block ids).
    pub tree: DomTree,
    /// The root (unique exit block).
    pub exit: BlockId,
}

impl PostDomTree {
    /// Computes post-dominators.
    ///
    /// # Panics
    ///
    /// Panics if the function has no return block.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let exit = f
            .blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Return(_)))
            .map(|i| BlockId(i as u32))
            .expect("function must have a return block");
        // Reverse postorder on the reverse CFG.
        let n = cfg.len();
        let order = {
            let mut order = Vec::new();
            let mut state = vec![0u8; n];
            let mut stack: Vec<(BlockId, usize)> = vec![(exit, 0)];
            state[exit.0 as usize] = 1;
            while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
                let ss = cfg.preds(b);
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
        };
        let tree = DomTree::compute(n, exit, &order, |b| cfg.succs(b));
        PostDomTree { tree, exit }
    }

    /// Immediate post-dominator of `b`.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.tree.idom(b)
    }

    /// `true` if `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.dominates(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Function, Terminator};
    use crate::types::Type;

    /// 0 → {1, 2}; 1 → 3; 2 → 3; 3 → ret.
    fn diamond() -> (Function, Cfg) {
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
        let cfg = Cfg::new(&f);
        (f, cfg)
    }

    #[test]
    fn diamond_dominators() {
        let (f, cfg) = diamond();
        let dt = DomTree::dominators(&f, &cfg);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
    }

    #[test]
    fn diamond_postdominators() {
        let (f, cfg) = diamond();
        let pdt = PostDomTree::new(&f, &cfg);
        assert_eq!(pdt.exit, BlockId(3));
        assert_eq!(pdt.ipdom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdt.ipdom(BlockId(0)), Some(BlockId(3)));
        assert!(pdt.post_dominates(BlockId(3), BlockId(0)));
        assert!(!pdt.post_dominates(BlockId(1), BlockId(0)));
    }

    /// Nested: 0 → {1, 4}; 1 → {2, 3}; 2 → 3'; … chain to exit.
    #[test]
    fn nested_branch_dominators() {
        let mut f = Function::new("n");
        let c = f.new_value("c", Type::Bool);
        let d = f.new_value("d", Type::Bool);
        let b1 = f.new_block(); // then of outer
        let b2 = f.new_block(); // then of inner
        let b3 = f.new_block(); // inner join
        let b4 = f.new_block(); // outer else
        let b5 = f.new_block(); // outer join / exit
        f.set_term(
            f.entry(),
            Terminator::Branch {
                cond: c,
                then_bb: b1,
                else_bb: b4,
            },
        );
        f.set_term(
            b1,
            Terminator::Branch {
                cond: d,
                then_bb: b2,
                else_bb: b3,
            },
        );
        f.set_term(b2, Terminator::Jump(b3));
        f.set_term(b3, Terminator::Jump(b5));
        f.set_term(b4, Terminator::Jump(b5));
        f.set_term(b5, Terminator::Return(vec![]));
        let cfg = Cfg::new(&f);
        let dt = DomTree::dominators(&f, &cfg);
        assert_eq!(dt.idom(b3), Some(b1));
        assert_eq!(dt.idom(b5), Some(BlockId(0)));
        let pdt = PostDomTree::new(&f, &cfg);
        assert_eq!(pdt.ipdom(b1), Some(b3));
        assert_eq!(pdt.ipdom(BlockId(0)), Some(b5));
    }
}
