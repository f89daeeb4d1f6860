//! Stable content fingerprints for lowered functions.
//!
//! Function keys (`pinpoint-cache`) — what incremental updates and the
//! query cache compare — start from a structural hash of each function's
//! *pre-transform* SSA body. The hash covers
//! everything the per-function analysis can observe — signature, blocks,
//! instructions, terminators, the values table, and the `(id, name, type)`
//! of every global the body references — and nothing it cannot (block and
//! value ids are function-local indices assigned deterministically by the
//! lowerer, so hashing the raw indices is stable across runs).
//!
//! Names are hashed as text, wherever the IR keeps them: a call's callee
//! by its function's (or intrinsic's) name, a value by its entry in the
//! function's name table. The bytes are those of an IR that stored the
//! strings inline, so fingerprints (and every key built on them) did not
//! move when the strings left the instruction and value tables.
//!
//! The hash is FNV-1a widened to 128 bits: dependency-free, deterministic
//! across platforms, and with a collision probability that is negligible
//! for cache-keying purposes (this is a cache key, not a security
//! boundary).

use crate::ir::{Const, Function, Inst, Module, Terminator};
use crate::types::{Base, Type};

/// 128-bit FNV-1a hasher (offset basis / prime from the reference spec).
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// Creates a hasher seeded with the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u128` (little-endian).
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (prefix prevents ambiguity
    /// between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Returns the accumulated hash.
    pub fn finish(self) -> u128 {
        self.0
    }
}

pub(crate) fn hash_type(h: &mut Fnv128, ty: &Type) {
    // A `Type` is `Int`/`Bool` behind zero or more pointer levels; encode
    // as (indirection depth, base tag).
    h.write_u32(ty.indirection() as u32);
    h.write_u32(match ty.base() {
        Base::Int => 0,
        Base::Bool => 1,
    });
}

fn hash_const(h: &mut Fnv128, c: &Const) {
    match c {
        Const::Int(v) => {
            h.write_u32(0);
            h.write_u64(*v as u64);
        }
        Const::Bool(b) => {
            h.write_u32(1);
            h.write_u32(*b as u32);
        }
        Const::Null => h.write_u32(2),
    }
}

fn hash_inst(h: &mut Fnv128, inst: &Inst, module: &Module) {
    match inst {
        Inst::Const { dst, value } => {
            h.write_u32(0);
            h.write_u32(dst.0);
            hash_const(h, value);
        }
        Inst::Copy { dst, src } => {
            h.write_u32(1);
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Inst::Phi { dst, incomings } => {
            h.write_u32(2);
            h.write_u32(dst.0);
            h.write_u64(incomings.len() as u64);
            for (bb, v) in incomings {
                h.write_u32(bb.0);
                h.write_u32(v.0);
            }
        }
        Inst::Bin { dst, op, lhs, rhs } => {
            h.write_u32(3);
            h.write_u32(dst.0);
            h.write_u32(*op as u32);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Inst::Un { dst, op, operand } => {
            h.write_u32(4);
            h.write_u32(dst.0);
            h.write_u32(*op as u32);
            h.write_u32(operand.0);
        }
        Inst::Load { dst, ptr, depth } => {
            h.write_u32(5);
            h.write_u32(dst.0);
            h.write_u32(ptr.0);
            h.write_u32(*depth);
        }
        Inst::Store { ptr, depth, src } => {
            h.write_u32(6);
            h.write_u32(ptr.0);
            h.write_u32(*depth);
            h.write_u32(src.0);
        }
        Inst::Alloc { dst } => {
            h.write_u32(7);
            h.write_u32(dst.0);
        }
        Inst::GlobalAddr { dst, global } => {
            h.write_u32(8);
            h.write_u32(dst.0);
            h.write_u32(global.0);
            // A raw GlobalId is only meaningful relative to the module's
            // global table; fold in the referenced global's identity so a
            // table reshuffle invalidates exactly the functions touching
            // the shifted globals.
            if let Some(g) = module.globals.get(global.0 as usize) {
                h.write_str(&g.name);
                hash_type(h, &g.ty);
            } else {
                h.write_u32(u32::MAX);
            }
        }
        Inst::Call { .. } => {
            let call = inst.as_call().expect("a call");
            h.write_u32(9);
            h.write_u64(call.dsts.len() as u64);
            for d in call.dsts {
                h.write_u32(d.0);
            }
            h.write_str(module.callee_name(call.callee));
            h.write_u64(call.args.len() as u64);
            for a in call.args {
                h.write_u32(a.0);
            }
        }
    }
}

fn hash_terminator(h: &mut Fnv128, term: &Terminator) {
    match term {
        Terminator::Jump(bb) => {
            h.write_u32(0);
            h.write_u32(bb.0);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            h.write_u32(1);
            h.write_u32(cond.0);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Terminator::Return(vs) => {
            h.write_u32(2);
            h.write_u64(vs.len() as u64);
            for v in vs {
                h.write_u32(v.0);
            }
        }
        Terminator::Unreachable => h.write_u32(3),
    }
}

/// Computes the stable content fingerprint of a lowered function of
/// `module`.
///
/// Two functions have equal fingerprints iff their lowered bodies are
/// structurally identical (modulo FNV collisions): same signature, same
/// blocks/instructions/terminators, same values table, and same
/// identities for any globals they address, same callee names. The
/// fingerprint is independent of where the function sits in the module
/// and of any other function's content.
pub fn func_fingerprint(f: &Function, module: &Module) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(&f.name);
    h.write_u64(f.params.len() as u64);
    for p in &f.params {
        h.write_u32(p.0);
    }
    h.write_u64(f.ret_tys.len() as u64);
    for ty in &f.ret_tys {
        hash_type(&mut h, ty);
    }
    h.write_u64(f.aux_param_count as u64);
    h.write_u64(f.blocks.len() as u64);
    for block in &f.blocks {
        h.write_u64(block.insts.len() as u64);
        for inst in &block.insts {
            hash_inst(&mut h, inst, module);
        }
        hash_terminator(&mut h, &block.term);
    }
    h.write_u64(f.values.len() as u64);
    for info in &f.values {
        h.write_str(f.names.get(info.name));
        hash_type(&mut h, &info.ty);
        match info.def {
            Some(iid) => {
                h.write_u32(1);
                h.write_u32(iid.block.0);
                h.write_u64(iid.index as u64);
            }
            None => h.write_u32(0),
        }
    }
    h.finish()
}

/// Computes [`func_fingerprint`] for every function of `module`, indexed
/// by `FuncId`.
///
/// This is the single dirtying primitive every reuse layer shares: the
/// persistent cache folds these into transitive cache keys
/// (`pinpoint-cache`), and the in-memory incremental paths diff them to
/// discover edited functions automatically instead of trusting a
/// caller-supplied change list.
pub fn module_fingerprints(module: &Module) -> Vec<u128> {
    module
        .funcs
        .iter()
        .map(|f| func_fingerprint(f, module))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn module_fingerprints_index_by_func_id() {
        let m = compile("fn a() { return; } fn b(x: int) -> int { return x; }").unwrap();
        let fps = module_fingerprints(&m);
        assert_eq!(fps.len(), m.funcs.len());
        for (i, f) in m.funcs.iter().enumerate() {
            assert_eq!(fps[i], func_fingerprint(f, &m));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let src_a = "fn f(x: int) -> int { let y: int = x + 1; return y; }";
        let src_b = "fn f(x: int) -> int { let y: int = x + 2; return y; }";
        let ma1 = compile(src_a).unwrap();
        let ma2 = compile(src_a).unwrap();
        let mb = compile(src_b).unwrap();
        let fa1 = func_fingerprint(&ma1.funcs[0], &ma1);
        let fa2 = func_fingerprint(&ma2.funcs[0], &ma2);
        let fb = func_fingerprint(&mb.funcs[0], &mb);
        assert_eq!(fa1, fa2, "same source, same fingerprint");
        assert_ne!(fa1, fb, "edited body, different fingerprint");
    }

    #[test]
    fn fingerprint_independent_of_module_position() {
        let one = "fn f() { return; }";
        let two = "fn g() { return; } fn f() { return; }";
        let m1 = compile(one).unwrap();
        let m2 = compile(two).unwrap();
        let f1 = &m1.funcs[0];
        let f2 = m2.funcs.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(func_fingerprint(f1, &m1), func_fingerprint(f2, &m2));
    }
}
