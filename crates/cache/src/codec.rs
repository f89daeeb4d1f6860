//! Hand-rolled binary codec for persisted analysis artifacts.
//!
//! The format is a flat little-endian byte stream with length-prefixed
//! sequences and one tag byte per enum variant — no self-description, no
//! schema evolution. Compatibility is handled entirely by the cache key:
//! [`crate::store::FORMAT_VERSION`] participates in every key (via
//! [`crate::keys::config_fp`]) and in every file header, so a format
//! change simply misses on everything written by older builds.
//!
//! Decoding is total: every read is bounds-checked and every tag
//! validated, returning [`DecodeError`] rather than panicking, so a
//! corrupt or truncated object degrades to a cache miss.

use pinpoint_ir::ir::{
    Block, BlockId, Const, Function, GlobalId, Inst, InstId, Terminator, ValueId, ValueInfo,
};
use pinpoint_ir::types::Base;
use pinpoint_ir::{BinOp, Type, UnOp};
use pinpoint_pta::intra::{GlobalAccess, MemDep, PointsTo, PtaStats};
use pinpoint_pta::{AccessPath, AuxShape, FuncArtifact, FuncPta, FuncResult, Obj};
use pinpoint_smt::term::{Sort, TermArena, TermId, TermKind};

/// Error raised when a persisted byte stream cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// Append-only little-endian byte stream writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a sequence length prefix.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Bounds-checked reader over a persisted byte stream.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// `true` if every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated stream"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting values other than 0/1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("invalid bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing it from the stream.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError("invalid utf-8"))
    }

    /// Reads a sequence length prefix, sanity-bounded by the remaining
    /// byte count so corrupt lengths fail fast instead of allocating.
    // Not a container length — it consumes a prefix from the stream.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(DecodeError("length prefix exceeds stream"));
        }
        Ok(n as usize)
    }
}

// ---- IR ----------------------------------------------------------------

fn put_type(w: &mut ByteWriter, ty: &Type) {
    w.u32(ty.indirection() as u32);
    w.u8(match ty.base() {
        Base::Int => 0,
        Base::Bool => 1,
    });
}

fn get_type(r: &mut ByteReader) -> Result<Type> {
    let depth = r.u32()?;
    if depth > 64 {
        return Err(DecodeError("absurd pointer depth"));
    }
    let base = match r.u8()? {
        0 => Type::Int,
        1 => Type::Bool,
        _ => return Err(DecodeError("invalid type tag")),
    };
    Ok((0..depth).fold(base, |ty, _| ty.ptr_to()))
}

fn put_inst_id(w: &mut ByteWriter, id: InstId) {
    w.u32(id.block.0);
    w.u32(id.index);
}

fn get_inst_id(r: &mut ByteReader) -> Result<InstId> {
    Ok(InstId {
        block: BlockId(r.u32()?),
        index: r.u32()?,
    })
}

fn put_const(w: &mut ByteWriter, c: &Const) {
    match c {
        Const::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Const::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Const::Null => w.u8(2),
    }
}

fn get_const(r: &mut ByteReader) -> Result<Const> {
    Ok(match r.u8()? {
        0 => Const::Int(r.i64()?),
        1 => Const::Bool(r.bool()?),
        2 => Const::Null,
        _ => return Err(DecodeError("invalid const tag")),
    })
}

const BIN_OPS: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::And,
    BinOp::Or,
];

fn put_bin_op(w: &mut ByteWriter, op: BinOp) {
    w.u8(BIN_OPS.iter().position(|&o| o == op).unwrap() as u8);
}

fn get_bin_op(r: &mut ByteReader) -> Result<BinOp> {
    BIN_OPS
        .get(r.u8()? as usize)
        .copied()
        .ok_or(DecodeError("invalid binop tag"))
}

fn put_inst(w: &mut ByteWriter, inst: &Inst) {
    match inst {
        Inst::Const { dst, value } => {
            w.u8(0);
            w.u32(dst.0);
            put_const(w, value);
        }
        Inst::Copy { dst, src } => {
            w.u8(1);
            w.u32(dst.0);
            w.u32(src.0);
        }
        Inst::Phi { dst, incomings } => {
            w.u8(2);
            w.u32(dst.0);
            w.len(incomings.len());
            for (bb, v) in incomings {
                w.u32(bb.0);
                w.u32(v.0);
            }
        }
        Inst::Bin { dst, op, lhs, rhs } => {
            w.u8(3);
            w.u32(dst.0);
            put_bin_op(w, *op);
            w.u32(lhs.0);
            w.u32(rhs.0);
        }
        Inst::Un { dst, op, operand } => {
            w.u8(4);
            w.u32(dst.0);
            w.u8(match op {
                UnOp::Neg => 0,
                UnOp::Not => 1,
            });
            w.u32(operand.0);
        }
        Inst::Load { dst, ptr, depth } => {
            w.u8(5);
            w.u32(dst.0);
            w.u32(ptr.0);
            w.u32(*depth);
        }
        Inst::Store { ptr, depth, src } => {
            w.u8(6);
            w.u32(ptr.0);
            w.u32(*depth);
            w.u32(src.0);
        }
        Inst::Alloc { dst } => {
            w.u8(7);
            w.u32(dst.0);
        }
        Inst::GlobalAddr { dst, global } => {
            w.u8(8);
            w.u32(dst.0);
            w.u32(global.0);
        }
        Inst::Call { dsts, callee, args } => {
            w.u8(9);
            w.len(dsts.len());
            for d in dsts {
                w.u32(d.0);
            }
            w.str(callee);
            w.len(args.len());
            for a in args {
                w.u32(a.0);
            }
        }
    }
}

fn get_inst(r: &mut ByteReader) -> Result<Inst> {
    Ok(match r.u8()? {
        0 => Inst::Const {
            dst: ValueId(r.u32()?),
            value: get_const(r)?,
        },
        1 => Inst::Copy {
            dst: ValueId(r.u32()?),
            src: ValueId(r.u32()?),
        },
        2 => {
            let dst = ValueId(r.u32()?);
            let n = r.len()?;
            let mut incomings = Vec::with_capacity(n);
            for _ in 0..n {
                incomings.push((BlockId(r.u32()?), ValueId(r.u32()?)));
            }
            Inst::Phi { dst, incomings }
        }
        3 => Inst::Bin {
            dst: ValueId(r.u32()?),
            op: get_bin_op(r)?,
            lhs: ValueId(r.u32()?),
            rhs: ValueId(r.u32()?),
        },
        4 => Inst::Un {
            dst: ValueId(r.u32()?),
            op: match r.u8()? {
                0 => UnOp::Neg,
                1 => UnOp::Not,
                _ => return Err(DecodeError("invalid unop tag")),
            },
            operand: ValueId(r.u32()?),
        },
        5 => Inst::Load {
            dst: ValueId(r.u32()?),
            ptr: ValueId(r.u32()?),
            depth: r.u32()?,
        },
        6 => Inst::Store {
            ptr: ValueId(r.u32()?),
            depth: r.u32()?,
            src: ValueId(r.u32()?),
        },
        7 => Inst::Alloc {
            dst: ValueId(r.u32()?),
        },
        8 => Inst::GlobalAddr {
            dst: ValueId(r.u32()?),
            global: GlobalId(r.u32()?),
        },
        9 => {
            let n = r.len()?;
            let mut dsts = Vec::with_capacity(n);
            for _ in 0..n {
                dsts.push(ValueId(r.u32()?));
            }
            let callee = r.str()?;
            let n = r.len()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(ValueId(r.u32()?));
            }
            Inst::Call { dsts, callee, args }
        }
        _ => return Err(DecodeError("invalid inst tag")),
    })
}

fn put_terminator(w: &mut ByteWriter, term: &Terminator) {
    match term {
        Terminator::Jump(bb) => {
            w.u8(0);
            w.u32(bb.0);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            w.u8(1);
            w.u32(cond.0);
            w.u32(then_bb.0);
            w.u32(else_bb.0);
        }
        Terminator::Return(vs) => {
            w.u8(2);
            w.len(vs.len());
            for v in vs {
                w.u32(v.0);
            }
        }
        Terminator::Unreachable => w.u8(3),
    }
}

fn get_terminator(r: &mut ByteReader) -> Result<Terminator> {
    Ok(match r.u8()? {
        0 => Terminator::Jump(BlockId(r.u32()?)),
        1 => Terminator::Branch {
            cond: ValueId(r.u32()?),
            then_bb: BlockId(r.u32()?),
            else_bb: BlockId(r.u32()?),
        },
        2 => {
            let n = r.len()?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(ValueId(r.u32()?));
            }
            Terminator::Return(vs)
        }
        3 => Terminator::Unreachable,
        _ => return Err(DecodeError("invalid terminator tag")),
    })
}

/// Encodes a lowered function body.
pub fn put_function(w: &mut ByteWriter, f: &Function) {
    w.str(&f.name);
    w.len(f.params.len());
    for p in &f.params {
        w.u32(p.0);
    }
    w.len(f.ret_tys.len());
    for ty in &f.ret_tys {
        put_type(w, ty);
    }
    w.u64(f.aux_param_count as u64);
    w.len(f.blocks.len());
    for block in &f.blocks {
        w.len(block.insts.len());
        for inst in &block.insts {
            put_inst(w, inst);
        }
        put_terminator(w, &block.term);
    }
    w.len(f.values.len());
    for info in &f.values {
        w.str(&info.name);
        put_type(w, &info.ty);
        match info.def {
            Some(iid) => {
                w.u8(1);
                put_inst_id(w, iid);
            }
            None => w.u8(0),
        }
    }
}

/// Decodes a lowered function body.
pub fn get_function(r: &mut ByteReader) -> Result<Function> {
    let name = r.str()?;
    let n = r.len()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(ValueId(r.u32()?));
    }
    let n = r.len()?;
    let mut ret_tys = Vec::with_capacity(n);
    for _ in 0..n {
        ret_tys.push(get_type(r)?);
    }
    let aux_param_count = r.u64()? as usize;
    let n = r.len()?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let ni = r.len()?;
        let mut insts = Vec::with_capacity(ni);
        for _ in 0..ni {
            insts.push(get_inst(r)?);
        }
        let term = get_terminator(r)?;
        blocks.push(Block { insts, term });
    }
    let n = r.len()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let ty = get_type(r)?;
        let def = match r.u8()? {
            0 => None,
            1 => Some(get_inst_id(r)?),
            _ => return Err(DecodeError("invalid def flag")),
        };
        values.push(ValueInfo { name, ty, def });
    }
    Ok(Function {
        name,
        params,
        ret_tys,
        aux_param_count,
        blocks,
        values,
    })
}

// ---- points-to vocabulary ----------------------------------------------

fn put_access_path(w: &mut ByteWriter, p: AccessPath) {
    w.u32(p.root);
    w.u32(p.depth);
}

fn get_access_path(r: &mut ByteReader) -> Result<AccessPath> {
    Ok(AccessPath {
        root: r.u32()?,
        depth: r.u32()?,
    })
}

fn put_obj(w: &mut ByteWriter, o: Obj) {
    match o {
        Obj::Alloc(site) => {
            w.u8(0);
            put_inst_id(w, site);
        }
        Obj::Global(g) => {
            w.u8(1);
            w.u32(g.0);
        }
        Obj::Param { root, depth } => {
            w.u8(2);
            w.u32(root);
            w.u32(depth);
        }
        Obj::External(site, i) => {
            w.u8(3);
            put_inst_id(w, site);
            w.u32(i);
        }
    }
}

fn get_obj(r: &mut ByteReader) -> Result<Obj> {
    Ok(match r.u8()? {
        0 => Obj::Alloc(get_inst_id(r)?),
        1 => Obj::Global(GlobalId(r.u32()?)),
        2 => Obj::Param {
            root: r.u32()?,
            depth: r.u32()?,
        },
        3 => Obj::External(get_inst_id(r)?, r.u32()?),
        _ => return Err(DecodeError("invalid obj tag")),
    })
}

/// Encodes a [`TermId`] as its raw arena index.
pub fn put_term_id(w: &mut ByteWriter, t: TermId) {
    w.u32(t.index() as u32);
}

/// Decodes a [`TermId`], validating it against the arena length
/// `arena_len` it will index into.
pub fn get_term_id(r: &mut ByteReader, arena_len: usize) -> Result<TermId> {
    let raw = r.u32()? as usize;
    if raw >= arena_len {
        return Err(DecodeError("term id out of range"));
    }
    Ok(TermId::from_index(raw))
}

fn put_global_access(w: &mut ByteWriter, g: &GlobalAccess) {
    w.u32(g.global.0);
    w.u32(g.value.0);
    put_term_id(w, g.cond);
    put_inst_id(w, g.site);
}

fn get_global_access(r: &mut ByteReader, arena_len: usize) -> Result<GlobalAccess> {
    Ok(GlobalAccess {
        global: GlobalId(r.u32()?),
        value: ValueId(r.u32()?),
        cond: get_term_id(r, arena_len)?,
        site: get_inst_id(r)?,
    })
}

/// Encodes a [`FuncPta`]; `points_to` entries are written in ascending
/// value order so encoding is deterministic.
pub fn put_func_pta(w: &mut ByteWriter, p: &FuncPta) {
    w.len(p.mem_deps.len());
    for d in &p.mem_deps {
        put_inst_id(w, d.store_site);
        w.u32(d.src.0);
        put_inst_id(w, d.load_site);
        w.u32(d.dst.0);
        put_term_id(w, d.cond);
    }
    w.len(p.points_to.iter().count());
    for (k, set) in p.points_to.iter() {
        w.u32(k.0);
        w.len(set.len());
        for &(o, c) in set {
            put_obj(w, o);
            put_term_id(w, c);
        }
    }
    w.len(p.refs.len());
    for &ap in &p.refs {
        put_access_path(w, ap);
    }
    w.len(p.mods.len());
    for &ap in &p.mods {
        put_access_path(w, ap);
    }
    w.len(p.global_stores.len());
    for g in &p.global_stores {
        put_global_access(w, g);
    }
    w.len(p.global_loads.len());
    for g in &p.global_loads {
        put_global_access(w, g);
    }
    w.u64(p.stats.pruned);
    w.u64(p.stats.kept);
    w.u64(p.stats.linear_checks);
}

/// Decodes the [`FuncPta`] of a function with `values` SSA values, whose
/// conditions index an arena of length `arena_len`.
pub fn get_func_pta(r: &mut ByteReader, arena_len: usize, values: usize) -> Result<FuncPta> {
    let n = r.len()?;
    let mut mem_deps = Vec::with_capacity(n);
    for _ in 0..n {
        mem_deps.push(MemDep {
            store_site: get_inst_id(r)?,
            src: ValueId(r.u32()?),
            load_site: get_inst_id(r)?,
            dst: ValueId(r.u32()?),
            cond: get_term_id(r, arena_len)?,
        });
    }
    let n = r.len()?;
    let mut points_to = PointsTo::new(values);
    let mut set = Vec::new();
    for _ in 0..n {
        let k = ValueId(r.u32()?);
        if k.0 as usize >= values {
            return Err(DecodeError("points-to value out of range"));
        }
        let m = r.len()?;
        set.clear();
        for _ in 0..m {
            set.push((get_obj(r)?, get_term_id(r, arena_len)?));
        }
        points_to.set(k, &set);
    }
    let n = r.len()?;
    let mut refs = Vec::with_capacity(n);
    for _ in 0..n {
        refs.push(get_access_path(r)?);
    }
    let n = r.len()?;
    let mut mods = Vec::with_capacity(n);
    for _ in 0..n {
        mods.push(get_access_path(r)?);
    }
    let n = r.len()?;
    let mut global_stores = Vec::with_capacity(n);
    for _ in 0..n {
        global_stores.push(get_global_access(r, arena_len)?);
    }
    let n = r.len()?;
    let mut global_loads = Vec::with_capacity(n);
    for _ in 0..n {
        global_loads.push(get_global_access(r, arena_len)?);
    }
    let stats = PtaStats {
        pruned: r.u64()?,
        kept: r.u64()?,
        linear_checks: r.u64()?,
    };
    Ok(FuncPta {
        mem_deps,
        points_to,
        refs,
        mods,
        global_stores,
        global_loads,
        stats,
    })
}

/// Encodes a connector shape.
pub fn put_aux_shape(w: &mut ByteWriter, s: &AuxShape) {
    w.len(s.aux_params.len());
    for &(ap, v) in &s.aux_params {
        put_access_path(w, ap);
        w.u32(v.0);
    }
    w.len(s.aux_rets.len());
    for &(ap, v) in &s.aux_rets {
        put_access_path(w, ap);
        w.u32(v.0);
    }
    w.u64(s.ret_offset as u64);
}

/// Decodes a connector shape.
pub fn get_aux_shape(r: &mut ByteReader) -> Result<AuxShape> {
    let n = r.len()?;
    let mut aux_params = Vec::with_capacity(n);
    for _ in 0..n {
        aux_params.push((get_access_path(r)?, ValueId(r.u32()?)));
    }
    let n = r.len()?;
    let mut aux_rets = Vec::with_capacity(n);
    for _ in 0..n {
        aux_rets.push((get_access_path(r)?, ValueId(r.u32()?)));
    }
    let ret_offset = r.u64()? as usize;
    Ok(AuxShape {
        aux_params,
        aux_rets,
        ret_offset,
    })
}

// ---- terms -------------------------------------------------------------

fn put_sort(w: &mut ByteWriter, s: Sort) {
    w.u8(match s {
        Sort::Bool => 0,
        Sort::Int => 1,
    });
}

fn get_sort(r: &mut ByteReader) -> Result<Sort> {
    Ok(match r.u8()? {
        0 => Sort::Bool,
        1 => Sort::Int,
        _ => return Err(DecodeError("invalid sort tag")),
    })
}

fn put_term_ids(w: &mut ByteWriter, ts: &[TermId]) {
    w.len(ts.len());
    for &t in ts {
        put_term_id(w, t);
    }
}

fn get_term_ids(r: &mut ByteReader, limit: usize) -> Result<Vec<TermId>> {
    let n = r.len()?;
    let mut ts = Vec::with_capacity(n);
    for _ in 0..n {
        ts.push(get_term_id(r, limit)?);
    }
    Ok(ts)
}

/// Encodes a [`TermArena`] as its insertion-order `(sort, kind)` stream.
pub fn put_arena(w: &mut ByteWriter, arena: &TermArena) {
    w.len(arena.len());
    for (kind, sort) in arena.kinds() {
        put_sort(w, sort);
        match kind {
            TermKind::BoolConst(b) => {
                w.u8(0);
                w.bool(*b);
            }
            TermKind::IntConst(v) => {
                w.u8(1);
                w.i64(*v);
            }
            TermKind::Var(name, s) => {
                w.u8(2);
                w.str(name);
                put_sort(w, *s);
            }
            TermKind::Not(x) => {
                w.u8(3);
                put_term_id(w, *x);
            }
            TermKind::And(xs) => {
                w.u8(4);
                put_term_ids(w, xs);
            }
            TermKind::Or(xs) => {
                w.u8(5);
                put_term_ids(w, xs);
            }
            TermKind::Ite(c, a, b) => {
                w.u8(6);
                put_term_id(w, *c);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Eq(a, b) => {
                w.u8(7);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Lt(a, b) => {
                w.u8(8);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Le(a, b) => {
                w.u8(9);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Add(xs) => {
                w.u8(10);
                put_term_ids(w, xs);
            }
            TermKind::Sub(a, b) => {
                w.u8(11);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Mul(a, b) => {
                w.u8(12);
                put_term_id(w, *a);
                put_term_id(w, *b);
            }
            TermKind::Neg(a) => {
                w.u8(13);
                put_term_id(w, *a);
            }
        }
    }
}

/// Decodes a [`TermArena`] by replaying the persisted stream through the
/// validating raw constructor; ids come out identical to the encoded
/// arena's.
pub fn get_arena(r: &mut ByteReader) -> Result<TermArena> {
    let n = r.len()?;
    let mut arena = TermArena::new();
    for i in 0..n {
        let sort = get_sort(r)?;
        let kind = match r.u8()? {
            0 => TermKind::BoolConst(r.bool()?),
            1 => TermKind::IntConst(r.i64()?),
            2 => {
                let name = r.str()?;
                let s = get_sort(r)?;
                TermKind::Var(name, s)
            }
            3 => TermKind::Not(get_term_id(r, i)?),
            4 => TermKind::And(get_term_ids(r, i)?),
            5 => TermKind::Or(get_term_ids(r, i)?),
            6 => TermKind::Ite(get_term_id(r, i)?, get_term_id(r, i)?, get_term_id(r, i)?),
            7 => TermKind::Eq(get_term_id(r, i)?, get_term_id(r, i)?),
            8 => TermKind::Lt(get_term_id(r, i)?, get_term_id(r, i)?),
            9 => TermKind::Le(get_term_id(r, i)?, get_term_id(r, i)?),
            10 => TermKind::Add(get_term_ids(r, i)?),
            11 => TermKind::Sub(get_term_id(r, i)?, get_term_id(r, i)?),
            12 => TermKind::Mul(get_term_id(r, i)?, get_term_id(r, i)?),
            13 => TermKind::Neg(get_term_id(r, i)?),
            _ => return Err(DecodeError("invalid term tag")),
        };
        arena
            .push_raw(kind, sort)
            .map_err(|_| DecodeError("non-canonical term stream"))?;
    }
    Ok(arena)
}

// ---- artifact ----------------------------------------------------------

/// Encodes a complete per-function artifact payload.
pub fn encode_artifact(a: &FuncArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let r = &a.result;
    put_arena(&mut w, &r.arena);
    put_function(&mut w, &a.body);
    put_aux_shape(&mut w, &r.shape);
    put_func_pta(&mut w, &r.pta);
    w.len(r.cached_values.len());
    for v in &r.cached_values {
        w.u32(v.0);
    }
    w.u64(r.unsat);
    w.u64(r.unknown);
    w.into_bytes()
}

/// Decodes a complete per-function artifact payload, rejecting trailing
/// garbage.
pub fn decode_artifact(bytes: &[u8]) -> Result<FuncArtifact> {
    let mut r = ByteReader::new(bytes);
    let arena = get_arena(&mut r)?;
    let body = get_function(&mut r)?;
    let shape = get_aux_shape(&mut r)?;
    let pta = get_func_pta(&mut r, arena.len(), body.values.len())?;
    let n = r.len()?;
    let mut cached_values = Vec::with_capacity(n);
    for _ in 0..n {
        cached_values.push(ValueId(r.u32()?));
    }
    let unsat = r.u64()?;
    let unknown = r.u64()?;
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes"));
    }
    Ok(FuncArtifact {
        body,
        result: FuncResult {
            shape,
            pta,
            arena,
            cached_values,
            unsat,
            unknown,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_roundtrips() {
        let m = pinpoint_ir::compile(
            "fn f(p: int**, c: bool) -> int {
                let x: int* = *p;
                if (c) { *p = null; }
                let y: int = 1 + 2;
                return y;
            }",
        )
        .unwrap();
        let mut w = ByteWriter::new();
        put_function(&mut w, &m.funcs[0]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_function(&mut r).unwrap();
        assert!(r.is_at_end());
        assert_eq!(format!("{:?}", m.funcs[0]), format!("{back:?}"));
    }

    #[test]
    fn arena_roundtrips_with_identical_ids() {
        let mut arena = TermArena::new();
        let x = arena.var("x", Sort::Int);
        let zero = arena.int(0);
        let cmp = arena.lt(zero, x);
        let b = arena.var("b", Sort::Bool);
        let both = arena.and2(cmp, b);
        let mut w = ByteWriter::new();
        put_arena(&mut w, &arena);
        let bytes = w.into_bytes();
        let back = get_arena(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.display(both), arena.display(both));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut arena = TermArena::new();
        let x = arena.var("some_variable", Sort::Int);
        let zero = arena.int(0);
        let _ = arena.lt(zero, x);
        let mut w = ByteWriter::new();
        put_arena(&mut w, &arena);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let _ = get_arena(&mut ByteReader::new(&bytes[..cut]));
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut w = ByteWriter::new();
        w.len(1);
        w.u8(0); // sort bool
        w.u8(200); // bogus term tag
        let bytes = w.into_bytes();
        assert!(get_arena(&mut ByteReader::new(&bytes)).is_err());
    }
}
