//! Abstract memory objects.
//!
//! The intra-procedural points-to analysis names memory with three kinds of
//! abstract objects:
//!
//! * allocation sites (`malloc`) — one object per site (loops are unrolled
//!   once, so a site executes at most once per path);
//! * module globals — one object per global declaration;
//! * *parameter pseudo-objects* `Param{root, depth}` — the non-local
//!   memory reachable from a formal parameter: `Param{j, 1}` is the cell
//!   `*(v_j, 1)`, `Param{j, 2}` the cell `*(v_j, 2)`, and so on. Distinct
//!   parameters are assumed unaliased (the §4.2 soundiness rule), so the
//!   chains are disjoint;
//! * external objects — unknown memory returned by calls whose callee
//!   summary is unavailable (recursive SCC members and some intrinsics);
//!   one object per call-site receiver, so two unknown pointers never
//!   alias spuriously.

use pinpoint_ir::{GlobalId, InstId};
use std::fmt;

/// An abstract memory object (function-local namespace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Obj {
    /// A `malloc` allocation site.
    Alloc(InstId),
    /// A module-level global cell.
    Global(GlobalId),
    /// Non-local memory at `*(param_root, depth)`.
    Param {
        /// Index of the *original* formal parameter rooting the path.
        root: u32,
        /// Dereference depth (`1` = the cell the parameter points to).
        depth: u32,
    },
    /// Unknown memory referenced through a call receiver.
    External(InstId, u32),
}

impl Obj {
    /// For parameter pseudo-objects, the next object down the chain.
    pub fn next_in_chain(self) -> Option<Obj> {
        match self {
            Obj::Param { root, depth } => Some(Obj::Param {
                root,
                depth: depth + 1,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obj::Alloc(site) => write!(f, "alloc@{site}"),
            Obj::Global(g) => write!(f, "global{}", g.0),
            Obj::Param { root, depth } => write!(f, "*(p{root},{depth})"),
            Obj::External(site, i) => write!(f, "ext@{site}#{i}"),
        }
    }
}

/// An access path rooted at a formal parameter: `*(v_root, depth)`.
///
/// These are the units of the Mod/Ref analysis (§3.1.2): a *referenced*
/// path gets an Aux formal parameter, a *modified* path an Aux return
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessPath {
    /// Original parameter index.
    pub root: u32,
    /// Dereference depth (`≥ 1`).
    pub depth: u32,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "*(p{},{})", self.root, self.depth)
    }
}

/// Maximum access-path depth tracked by the analysis (paths deeper than
/// this are dropped; a soundiness bound like the paper's library models).
pub const MAX_PATH_DEPTH: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::BlockId;

    #[test]
    fn param_chain_extends() {
        let p = Obj::Param { root: 0, depth: 1 };
        assert_eq!(p.next_in_chain(), Some(Obj::Param { root: 0, depth: 2 }));
        let a = Obj::Alloc(InstId {
            block: BlockId(0),
            index: 0,
        });
        assert_eq!(a.next_in_chain(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Obj::Param { root: 1, depth: 2 }.to_string(), "*(p1,2)");
        assert_eq!(AccessPath { root: 1, depth: 2 }.to_string(), "*(p1,2)");
    }
}
