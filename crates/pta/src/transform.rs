//! The connector-model transformation of Fig. 3.
//!
//! After the Mod/Ref pass of a function `f` determines which
//! parameter-rooted access paths are referenced and which are modified,
//! `f` is rewritten to expose those side effects on its interface:
//!
//! * for every referenced path `*(v_j, k)` an **Aux formal parameter**
//!   `F_i` is appended to the signature and `*(v_j, k) ← F_i` is inserted
//!   at the entry — the value the caller passes in becomes the initial
//!   content of the cell;
//! * for every modified path `*(v_q, r)` an **Aux return value** `R_p`
//!   is appended to the return: `R_p ← *(v_q, r)` is inserted before the
//!   return — the final content of the cell flows out.
//!
//! Call sites are rewritten to match (Fig. 3(b)): `A_i ← *(u_j, k)` loads
//! feed the Aux actuals, receivers `C_p` catch the Aux returns, and
//! `*(u_q, r) ← C_p` stores write them back into the caller's memory.
//! These inserted loads and stores are ordinary IR instructions, so the
//! caller's own points-to pass routes the callee's side effects through
//! the caller's memory with no further special cases.

use crate::object::AccessPath;
use pinpoint_ir::{BlockId, Function, Inst, InstId, Terminator, Type, ValueId};

/// The connector interface of a transformed function.
#[derive(Debug, Clone, Default)]
pub struct AuxShape {
    /// Aux formal parameters: `(path, F_i value in the callee)`.
    pub aux_params: Vec<(AccessPath, ValueId)>,
    /// Aux return values: `(path, R_p value in the callee)`; the position
    /// of each `R_p` in the return list is `ret_offset + index`.
    pub aux_rets: Vec<(AccessPath, ValueId)>,
    /// Number of original return values (0 or 1) preceding the Aux ones.
    pub ret_offset: usize,
}

impl AuxShape {
    /// `true` if the function has no connectors.
    pub fn is_empty(&self) -> bool {
        self.aux_params.is_empty() && self.aux_rets.is_empty()
    }
}

/// Inserts Aux formal parameters and Aux return values into `f`
/// (Fig. 3(a)) for the given referenced and modified paths.
///
/// Returns the resulting [`AuxShape`]. Paths whose depth exceeds the
/// parameter's static indirection are skipped.
pub fn insert_connectors(f: &mut Function, refs: &[AccessPath], mods: &[AccessPath]) -> AuxShape {
    let mut shape = AuxShape {
        ret_offset: f.ret_tys.len(),
        ..AuxShape::default()
    };
    let path_ty = |f: &Function, p: &AccessPath| -> Option<Type> {
        let root = *f.params.get(p.root as usize)?;
        f.ty(root).deref(p.depth as usize)
    };
    // Aux formal parameters, with entry stores *(v_j, k) ← F_i in
    // increasing depth order (shallow cells must be written first so that
    // deeper stores route through them).
    let mut sorted_refs: Vec<AccessPath> = refs.to_vec();
    sorted_refs.sort_unstable_by_key(|p| (p.depth, p.root));
    let mut entry_stores: Vec<Inst> = Vec::new();
    for path in sorted_refs {
        let Some(ty) = path_ty(f, &path) else {
            continue;
        };
        let name = format!("aux_in_p{}d{}", path.root, path.depth);
        let fi = f.new_value(name, ty);
        f.params.push(fi);
        f.aux_param_count += 1;
        shape.aux_params.push((path, fi));
        entry_stores.push(Inst::Store {
            ptr: f.params[path.root as usize],
            depth: path.depth,
            src: fi,
        });
    }
    // Aux return values, loaded just before the return.
    let mut sorted_mods: Vec<AccessPath> = mods.to_vec();
    sorted_mods.sort_unstable_by_key(|p| (p.depth, p.root));
    let ret_block = f.return_block().expect("functions have a return block");
    let mut exit_loads: Vec<Inst> = Vec::new();
    let mut extra_rets: Vec<ValueId> = Vec::new();
    for path in sorted_mods {
        let Some(ty) = path_ty(f, &path) else {
            continue;
        };
        let name = format!("aux_out_p{}d{}", path.root, path.depth);
        let rp = f.new_value(name, ty);
        f.ret_tys.push(ty);
        shape.aux_rets.push((path, rp));
        exit_loads.push(Inst::Load {
            dst: rp,
            ptr: f.params[path.root as usize],
            depth: path.depth,
        });
        extra_rets.push(rp);
    }
    if entry_stores.is_empty() && exit_loads.is_empty() {
        return shape; // nothing inserted: every def site stands
    }
    // Splice: entry stores at the very beginning of the entry block.
    let entry = f.entry();
    let eb = &mut f.blocks[entry.0 as usize];
    let mut new_insts = entry_stores;
    new_insts.append(&mut eb.insts);
    eb.insts = new_insts;
    // Exit loads before the terminator of the return block.
    f.blocks[ret_block.0 as usize].insts.extend(exit_loads);
    if let Terminator::Return(vals) = &mut f.blocks[ret_block.0 as usize].term {
        vals.extend(extra_rets);
    }
    rebuild_def_sites(f);
    shape
}

/// Rewrites every call site in `caller` whose callee has connectors
/// (Fig. 3(b)). `shape_of` maps a callee name to its [`AuxShape`] (or
/// `None` for intrinsics, unknown callees, and same-SCC recursion).
pub fn rewrite_call_sites<'a, F>(caller: &mut Function, shape_of: F)
where
    F: Fn(&str) -> Option<&'a AuxShape>,
{
    let connected = |inst: &Inst| match inst {
        Inst::Call { callee, .. } => shape_of(callee).filter(|shape| !shape.is_empty()),
        _ => None,
    };
    let mut rewritten = false;
    let mut post_stores: Vec<Inst> = Vec::new();
    for bi in 0..caller.blocks.len() {
        // A block none of whose calls targets a callee with connectors
        // stays as it is.
        let Some(first) = caller.blocks[bi]
            .insts
            .iter()
            .position(|inst| connected(inst).is_some())
        else {
            continue;
        };
        rewritten = true;
        let mut old = std::mem::take(&mut caller.blocks[bi].insts);
        let tail = old.split_off(first);
        let mut new_insts = old;
        new_insts.reserve(tail.len());
        // Staged rewrites: (pre-loads, call, post-stores) per call.
        for inst in tail {
            let Some(shape) = connected(&inst) else {
                new_insts.push(inst);
                continue;
            };
            let Inst::Call {
                mut dsts,
                callee,
                mut args,
            } = inst
            else {
                unreachable!("only calls have connectors");
            };
            let orig_args = args.len();
            // A_i ← *(u_j, k) before the call.
            for (path, _fi) in &shape.aux_params {
                let Some(&uj) = args[..orig_args].get(path.root as usize) else {
                    continue;
                };
                let Some(ty) = caller.ty(uj).deref(path.depth as usize) else {
                    // Should not happen on type-correct programs; pass a
                    // null-equivalent placeholder to keep arity aligned.
                    let placeholder = caller.new_value("aux_arg_null", Type::Int.ptr_to());
                    new_insts.push(Inst::Const {
                        dst: placeholder,
                        value: pinpoint_ir::Const::Null,
                    });
                    args.push(placeholder);
                    continue;
                };
                let ai = caller.new_value(format!("aux_arg_p{}d{}", path.root, path.depth), ty);
                new_insts.push(Inst::Load {
                    dst: ai,
                    ptr: uj,
                    depth: path.depth,
                });
                args.push(ai);
            }
            // Receivers C_p. The original receiver list may be empty even
            // if the callee returns a value (expression statements); pad
            // with a dummy receiver so positions line up.
            while dsts.len() < shape.ret_offset {
                let pad = caller.new_value("unused_ret", Type::Int);
                dsts.push(pad);
            }
            for (path, _rp) in &shape.aux_rets {
                let Some(&uq) = args[..orig_args].get(path.root as usize) else {
                    continue;
                };
                let Some(ty) = caller.ty(uq).deref(path.depth as usize) else {
                    let pad = caller.new_value("aux_recv_dead", Type::Int);
                    dsts.push(pad);
                    continue;
                };
                let cp = caller.new_value(format!("aux_recv_p{}d{}", path.root, path.depth), ty);
                dsts.push(cp);
                post_stores.push(Inst::Store {
                    ptr: uq,
                    depth: path.depth,
                    src: cp,
                });
            }
            new_insts.push(Inst::Call { dsts, callee, args });
            new_insts.append(&mut post_stores);
        }
        caller.blocks[bi].insts = new_insts;
    }
    if rewritten {
        rebuild_def_sites(caller);
    }
}

/// Recomputes every value's defining site after block surgery.
pub fn rebuild_def_sites(f: &mut Function) {
    for v in &mut f.values {
        v.def = None;
    }
    let Function { blocks, values, .. } = f;
    for (b, blk) in blocks.iter().enumerate() {
        for (i, inst) in blk.insts.iter().enumerate() {
            let id = InstId {
                block: BlockId(b as u32),
                index: i as u32,
            };
            inst.for_each_def(|d| values[d.0 as usize].def = Some(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn connectors_for_read_write_param() {
        let mut m = compile(
            "fn bar(q: int**) {
                let c: int* = malloc();
                let t: bool = *q != null;
                if (t) { *q = c; free(c); }
                return;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("bar").unwrap();
        let refs = vec![AccessPath { root: 0, depth: 1 }];
        let mods = vec![AccessPath { root: 0, depth: 1 }];
        let shape = insert_connectors(m.func_mut(fid), &refs, &mods);
        let f = m.func(fid);
        // One aux param (X in the paper) and one aux return (Y).
        assert_eq!(shape.aux_params.len(), 1);
        assert_eq!(shape.aux_rets.len(), 1);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.aux_param_count, 1);
        assert_eq!(f.ret_tys.len(), 1);
        assert_eq!(f.return_values().len(), 1);
        // Entry starts with *(q,1) ← F.
        let entry = f.block(f.entry());
        assert!(
            matches!(entry.insts[0], Inst::Store { depth: 1, .. }),
            "entry store inserted first"
        );
        // Return block ends with R ← *(q,1).
        let rb = f.block(f.return_block().unwrap());
        assert!(matches!(rb.insts.last(), Some(Inst::Load { depth: 1, .. })));
    }

    #[test]
    fn call_site_rewrite_matches_figure2() {
        let mut m = compile(
            "fn bar(q: int**) { *q = null; return; }
             fn foo(a: int*) {
                let ptr: int** = malloc();
                *ptr = a;
                bar(ptr);
                let f: int* = *ptr;
                print(f);
                return;
             }",
        )
        .unwrap();
        let bar = m.func_by_name("bar").unwrap();
        let shape = insert_connectors(
            m.func_mut(bar),
            &[AccessPath { root: 0, depth: 1 }],
            &[AccessPath { root: 0, depth: 1 }],
        );
        let foo = m.func_by_name("foo").unwrap();
        rewrite_call_sites(m.func_mut(foo), |name| (name == "bar").then_some(&shape));
        let f = m.func(foo);
        // Expect: load K=*ptr before the call; call with 2 args and 1
        // receiver; store *ptr = L after.
        let insts: Vec<&Inst> = f.iter_insts().map(|(_, i)| i).collect();
        let call_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Call { callee, .. } if callee == "bar"))
            .unwrap();
        assert!(
            matches!(insts[call_idx - 1], Inst::Load { depth: 1, .. }),
            "K = *ptr inserted before the call"
        );
        if let Inst::Call { dsts, args, .. } = insts[call_idx] {
            assert_eq!(args.len(), 2, "ptr and K");
            assert_eq!(dsts.len(), 1, "receiver L");
        }
        assert!(
            matches!(insts[call_idx + 1], Inst::Store { depth: 1, .. }),
            "*ptr = L inserted after the call"
        );
    }

    #[test]
    fn untouched_callee_leaves_call_alone() {
        let mut m = compile(
            "fn g(x: int) -> int { return x; }
             fn f() { let y: int = g(1); print(y); return; }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let empty = AuxShape::default();
        rewrite_call_sites(m.func_mut(fid), |name| (name == "g").then_some(&empty));
        let f = m.func(fid);
        let call = f
            .iter_insts()
            .find_map(|(_, i)| match i {
                Inst::Call { callee, args, dsts } if callee == "g" => {
                    Some((args.len(), dsts.len()))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(call, (1, 1));
    }

    #[test]
    fn expression_statement_call_gets_padded_receiver() {
        // Callee returns a value that the caller ignores *and* has an aux
        // return: position padding must keep receivers aligned.
        let mut m = compile(
            "fn g(q: int**) -> int { *q = null; return 1; }
             fn f(p: int**) { g(p); return; }",
        )
        .unwrap();
        let g = m.func_by_name("g").unwrap();
        let shape = insert_connectors(m.func_mut(g), &[], &[AccessPath { root: 0, depth: 1 }]);
        assert_eq!(shape.ret_offset, 1);
        let f = m.func_by_name("f").unwrap();
        rewrite_call_sites(m.func_mut(f), |n| (n == "g").then_some(&shape));
        let func = m.func(f);
        let (dsts, args) = func
            .iter_insts()
            .find_map(|(_, i)| match i {
                Inst::Call { dsts, args, .. } => Some((dsts.len(), args.len())),
                _ => None,
            })
            .unwrap();
        assert_eq!(dsts, 2, "padded original receiver + aux receiver");
        assert_eq!(args, 1, "no aux params");
    }

    #[test]
    fn def_sites_valid_after_rewrite() {
        let mut m = compile(
            "fn g(q: int**) { *q = null; return; }
             fn f(p: int**) { g(p); return; }",
        )
        .unwrap();
        let g = m.func_by_name("g").unwrap();
        let shape = insert_connectors(
            m.func_mut(g),
            &[AccessPath { root: 0, depth: 1 }],
            &[AccessPath { root: 0, depth: 1 }],
        );
        let f = m.func_by_name("f").unwrap();
        rewrite_call_sites(m.func_mut(f), |n| (n == "g").then_some(&shape));
        for func in [m.func(f), m.func(g)] {
            for (id, inst) in func.iter_insts() {
                inst.for_each_def(|d| {
                    assert_eq!(
                        func.value(d).def,
                        Some(id),
                        "def site of {d:?} in {}",
                        func.name
                    );
                });
            }
        }
    }
}
