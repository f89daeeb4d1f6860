//! The SSA intermediate representation.
//!
//! This IR is a direct encoding of the paper's formal language (§3):
//! assignments, φ-assignments, binary/unary operations, k-level loads and
//! stores, branches, calls, and (multi-value) returns. Functions are
//! control-flow graphs of basic blocks in SSA form; values are defined
//! exactly once, so the paper's `v@s` abbreviation — "the variable `v`
//! defined at statement `s`" — is simply a [`ValueId`].
//!
//! Multi-value calls and returns exist so that the §3.1.2 connector
//! transformation (Aux formal parameters / Aux return values, Fig. 3) can
//! be expressed in the IR itself: `{v0, R1, R2} ← call f(...)`.
//!
//! The hot tables hold no strings. A call names its target by
//! [`Callee`] — a [`FuncId`] or an [`Intrinsic`] packed into 4 bytes,
//! resolved once by the lowerer — and a value's name is an index into
//! its function's [`NameTable`], which stores each distinct name once and
//! is read only by printers, witnesses and fingerprints
//! ([`Function::value_name`]). A call keeps its receivers and arguments
//! in one boxed slice and a φ its incomings in another, so an [`Inst`]
//! is 24 bytes and a [`ValueInfo`] 24 (both asserted at compile time).

use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of an SSA value within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// The built-in routines a program may call without declaring them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Intrinsic {
    /// [`intrinsics::FREE`].
    Free,
    /// [`intrinsics::PRINT`].
    Print,
    /// [`intrinsics::NONDET_BOOL`].
    NondetBool,
    /// [`intrinsics::NONDET_INT`].
    NondetInt,
    /// [`intrinsics::FGETC`].
    Fgetc,
    /// [`intrinsics::RECV`].
    Recv,
    /// [`intrinsics::GETPASS`].
    Getpass,
    /// [`intrinsics::FOPEN`].
    Fopen,
    /// [`intrinsics::SENDTO`].
    Sendto,
}

impl Intrinsic {
    /// Every intrinsic, in declaration order.
    pub const ALL: [Intrinsic; 9] = [
        Intrinsic::Free,
        Intrinsic::Print,
        Intrinsic::NondetBool,
        Intrinsic::NondetInt,
        Intrinsic::Fgetc,
        Intrinsic::Recv,
        Intrinsic::Getpass,
        Intrinsic::Fopen,
        Intrinsic::Sendto,
    ];

    /// The name a program calls it by.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Free => intrinsics::FREE,
            Intrinsic::Print => intrinsics::PRINT,
            Intrinsic::NondetBool => intrinsics::NONDET_BOOL,
            Intrinsic::NondetInt => intrinsics::NONDET_INT,
            Intrinsic::Fgetc => intrinsics::FGETC,
            Intrinsic::Recv => intrinsics::RECV,
            Intrinsic::Getpass => intrinsics::GETPASS,
            Intrinsic::Fopen => intrinsics::FOPEN,
            Intrinsic::Sendto => intrinsics::SENDTO,
        }
    }

    /// The intrinsic called `name`, if any.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Intrinsic::ALL.into_iter().find(|i| i.name() == name)
    }
}

/// The target of a call: a user function or an intrinsic, in 4 bytes.
/// The top [`Intrinsic::ALL`]`.len()` ids are the intrinsics; every id
/// below them is a [`FuncId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Callee(u32);

impl Callee {
    const FIRST_INTRINSIC: u32 = u32::MAX - (Intrinsic::ALL.len() as u32 - 1);

    /// A call of user function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` collides with the ids reserved for intrinsics.
    pub fn func(f: FuncId) -> Self {
        assert!(f.0 < Self::FIRST_INTRINSIC, "too many functions");
        Callee(f.0)
    }

    /// A call of intrinsic `i`.
    pub const fn intrinsic(i: Intrinsic) -> Self {
        Callee(Self::FIRST_INTRINSIC + i as u32)
    }

    /// The user function called, or `None` for an intrinsic.
    pub fn as_func(self) -> Option<FuncId> {
        (self.0 < Self::FIRST_INTRINSIC).then_some(FuncId(self.0))
    }

    /// The intrinsic called, or `None` for a user function.
    pub fn as_intrinsic(self) -> Option<Intrinsic> {
        let i = self.0.checked_sub(Self::FIRST_INTRINSIC)?;
        Some(Intrinsic::ALL[i as usize])
    }

    /// `true` if this calls intrinsic `i`.
    pub fn is(self, i: Intrinsic) -> bool {
        self == Callee::intrinsic(i)
    }
}

impl From<FuncId> for Callee {
    fn from(f: FuncId) -> Self {
        Callee::func(f)
    }
}

impl From<Intrinsic> for Callee {
    fn from(i: Intrinsic) -> Self {
        Callee::intrinsic(i)
    }
}

/// Identifier of a global variable within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Position of an instruction: block plus index within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId {
    /// The containing block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub index: u32,
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}:{}", self.block.0, self.index)
    }
}

/// Binary operators of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Equality (any matching sorts), yields bool.
    Eq,
    /// Disequality, yields bool.
    Ne,
    /// Less-than over ints, yields bool.
    Lt,
    /// Less-or-equal over ints, yields bool.
    Le,
    /// Logical and over bools.
    And,
    /// Logical or over bools.
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// Constant operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null pointer.
    Null,
}

/// An instruction (non-terminator statement of the paper's language).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst ← c`.
    Const {
        /// Defined value.
        dst: ValueId,
        /// The constant.
        value: Const,
    },
    /// `dst ← src` (simple assignment).
    Copy {
        /// Defined value.
        dst: ValueId,
        /// Source value.
        src: ValueId,
    },
    /// `dst ← φ(v₁ from bb₁, v₂ from bb₂, …)`.
    Phi {
        /// Defined value.
        dst: ValueId,
        /// Incoming (predecessor block, value) pairs.
        incomings: Box<[(BlockId, ValueId)]>,
    },
    /// `dst ← lhs op rhs`.
    Bin {
        /// Defined value.
        dst: ValueId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `dst ← op operand`.
    Un {
        /// Defined value.
        dst: ValueId,
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: ValueId,
    },
    /// `dst ← *(ptr, k)` — load through `k` levels of indirection.
    Load {
        /// Defined value.
        dst: ValueId,
        /// Pointer operand.
        ptr: ValueId,
        /// Dereference depth `k ≥ 1`.
        depth: u32,
    },
    /// `*(ptr, k) ← src` — store through `k` levels of indirection.
    Store {
        /// Pointer operand.
        ptr: ValueId,
        /// Dereference depth `k ≥ 1`.
        depth: u32,
        /// Stored value.
        src: ValueId,
    },
    /// `dst ← malloc()` — allocates a fresh abstract memory object.
    Alloc {
        /// Defined value (the address).
        dst: ValueId,
    },
    /// `dst ← &global` — the address of a module-level global object.
    GlobalAddr {
        /// Defined value (the address).
        dst: ValueId,
        /// Referenced global.
        global: GlobalId,
    },
    /// `{dst₀, dst₁, …} ← call callee(args…)`; build one with
    /// [`Inst::call`], read one with [`Inst::as_call`].
    ///
    /// The receivers may be none (procedure call), a single one, or —
    /// after the Fig. 3 transformation — the original receiver followed
    /// by the Aux return receivers.
    Call {
        /// The called function or intrinsic.
        callee: Callee,
        /// How many leading `operands` are receivers.
        receivers: u16,
        /// The receivers, then the actual arguments.
        operands: Box<[ValueId]>,
    },
}

const _: () = assert!(std::mem::size_of::<Inst>() <= 24);
const _: () = assert!(std::mem::size_of::<ValueInfo>() <= 24);

/// The parts of an [`Inst::Call`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallParts<'a> {
    /// The called function or intrinsic.
    pub callee: Callee,
    /// Return-value receivers.
    pub dsts: &'a [ValueId],
    /// Actual arguments.
    pub args: &'a [ValueId],
}

impl Inst {
    /// `{dsts…} ← call callee(args…)`.
    ///
    /// # Panics
    ///
    /// Panics on more than `u16::MAX` receivers.
    pub fn call(callee: Callee, dsts: &[ValueId], args: &[ValueId]) -> Inst {
        let receivers = u16::try_from(dsts.len()).expect("too many receivers");
        let mut operands = Vec::with_capacity(dsts.len() + args.len());
        operands.extend_from_slice(dsts);
        operands.extend_from_slice(args);
        Inst::Call {
            callee,
            receivers,
            operands: operands.into_boxed_slice(),
        }
    }

    /// The callee, receivers and arguments of a call; `None` for every
    /// other instruction.
    pub fn as_call(&self) -> Option<CallParts<'_>> {
        match self {
            Inst::Call {
                callee,
                receivers,
                operands,
            } => {
                let (dsts, args) = operands.split_at(usize::from(*receivers));
                Some(CallParts {
                    callee: *callee,
                    dsts,
                    args,
                })
            }
            _ => None,
        }
    }

    /// Calls `f` on each value this instruction defines, in order.
    pub fn for_each_def(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Phi { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Alloc { dst }
            | Inst::GlobalAddr { dst, .. } => f(*dst),
            Inst::Store { .. } => {}
            Inst::Call {
                receivers,
                operands,
                ..
            } => operands[..usize::from(*receivers)]
                .iter()
                .copied()
                .for_each(f),
        }
    }

    /// Calls `f` on each value this instruction uses, in operand order.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Const { .. } | Inst::Alloc { .. } | Inst::GlobalAddr { .. } => {}
            Inst::Copy { src, .. } => f(*src),
            Inst::Phi { incomings, .. } => incomings.iter().for_each(|&(_, v)| f(v)),
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Un { operand, .. } => f(*operand),
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { ptr, src, .. } => {
                f(*ptr);
                f(*src);
            }
            Inst::Call {
                receivers,
                operands,
                ..
            } => operands[usize::from(*receivers)..]
                .iter()
                .copied()
                .for_each(f),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a boolean value.
    Branch {
        /// Branch condition.
        cond: ValueId,
        /// Successor when the condition is true.
        then_bb: BlockId,
        /// Successor when the condition is false.
        else_bb: BlockId,
    },
    /// Function return; possibly multiple values after the Fig. 3
    /// transformation (`return {v0, R1, R2, …}`).
    Return(Vec<ValueId>),
    /// Placeholder used while a block is under construction.
    #[default]
    Unreachable,
}

impl Terminator {
    /// Calls `f` on each successor block of this terminator, in order.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }

    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(|b| out.push(b));
        out
    }

    /// Calls `f` on each value this terminator uses, in order.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::Return(vs) => vs.iter().copied().for_each(f),
            Terminator::Jump(_) | Terminator::Unreachable => {}
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Instructions in execution order (φ-instructions first).
    pub insts: Vec<Inst>,
    /// The terminator. [`Terminator::Unreachable`] while building.
    pub term: Terminator,
}

/// Metadata of one SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInfo {
    /// Static type.
    pub ty: Type,
    /// Defining site: `None` for function parameters, otherwise the
    /// instruction that defines it.
    pub def: Option<InstId>,
    /// Human-readable name hint (source variable, or a temporary's kind),
    /// as an index into the function's [`NameTable`]; read it with
    /// [`Function::value_name`].
    pub name: u32,
}

/// The distinct value names of one function, each stored once, back to
/// back in one string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    text: String,
    /// End of each name in `text`.
    ends: Vec<u32>,
}

impl NameTable {
    /// Name `i`.
    pub fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The index of `name`, adding it if it is new. A linear scan, for
    /// hand-built functions: the lowerer and the connector transform, which
    /// name many values, keep their own maps from name to index and
    /// [`NameTable::push`] what is new.
    pub fn intern(&mut self, name: &str) -> u32 {
        match (0..self.ends.len() as u32).find(|&i| self.get(i) == name) {
            Some(i) => i,
            None => self.push(name),
        }
    }

    /// Adds `name`, which the caller knows not to be in the table, and
    /// returns its index.
    pub fn push(&mut self, name: &str) -> u32 {
        let i = u32::try_from(self.ends.len()).expect("too many names");
        self.text.push_str(name);
        self.ends
            .push(u32::try_from(self.text.len()).expect("names too long"));
        i
    }

    /// Makes room for `names` more names of a few bytes each.
    pub(crate) fn reserve(&mut self, names: usize) {
        self.text.reserve(4 * names);
        self.ends.reserve(names);
    }

    fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// A function: typed parameters, return types, and a CFG in SSA form.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name, unique within the module.
    pub name: String,
    /// Parameter values (defined at entry). After the Fig. 3
    /// transformation the tail of this list holds Aux formal parameters
    /// (see `aux_param_count`).
    pub params: Vec<ValueId>,
    /// Return types; index 0 is the original return (if any), the rest are
    /// Aux return values.
    pub ret_tys: Vec<Type>,
    /// Number of trailing `params` entries that are Aux formal parameters.
    pub aux_param_count: usize,
    /// Basic blocks; `BlockId(0)` is the entry.
    pub blocks: Vec<Block>,
    /// Value table.
    pub values: Vec<ValueInfo>,
    /// The names [`ValueInfo::name`] indexes.
    pub names: NameTable,
}

impl Function {
    /// Creates an empty function with an entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_tys: Vec::new(),
            aux_param_count: 0,
            blocks: vec![Block::default()],
            values: Vec::new(),
            names: NameTable::default(),
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocates a fresh value called `name` (interned by a scan of the
    /// name table; see [`Function::new_named_value`]).
    pub fn new_value(&mut self, name: &str, ty: Type) -> ValueId {
        let name = self.names.intern(name);
        self.new_named_value(name, ty)
    }

    /// Allocates a fresh value whose name is entry `name` of
    /// [`Function::names`].
    pub fn new_named_value(&mut self, name: u32, ty: Type) -> ValueId {
        let id = ValueId(u32::try_from(self.values.len()).expect("too many values"));
        self.values.push(ValueInfo {
            ty,
            def: None,
            name,
        });
        id
    }

    /// The name of value `v`.
    pub fn value_name(&self, v: ValueId) -> &str {
        self.names.get(self.values[v.0 as usize].name)
    }

    /// Allocates a fresh block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(Block::default());
        id
    }

    /// Appends an instruction to `block`, recording def sites.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let idx = self.blocks[block.0 as usize].insts.len();
        let id = InstId {
            block,
            index: u32::try_from(idx).expect("too many instructions"),
        };
        inst.for_each_def(|d| self.values[d.0 as usize].def = Some(id));
        self.blocks[block.0 as usize].insts.push(inst);
        id
    }

    /// Sets the terminator of `block`.
    pub fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.0 as usize].term = term;
    }

    /// Borrow a block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Instruction at `id`.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.blocks[id.block.0 as usize].insts[id.index as usize]
    }

    /// Value metadata.
    pub fn value(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    /// Type of a value.
    pub fn ty(&self, v: ValueId) -> &Type {
        &self.values[v.0 as usize].ty
    }

    /// Iterates over `(InstId, &Inst)` of the whole function.
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.insts.iter().enumerate().map(move |(i, inst)| {
                (
                    InstId {
                        block: BlockId(b as u32),
                        index: i as u32,
                    },
                    inst,
                )
            })
        })
    }

    /// Recomputes every value's defining site after block surgery (dead
    /// code removal, the connector transform).
    pub fn rebuild_def_sites(&mut self) {
        for v in &mut self.values {
            v.def = None;
        }
        let Function { blocks, values, .. } = self;
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

    /// Number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Drops the spare capacity of the block, instruction, value and
    /// parameter tables, for a body that will not grow again.
    pub fn shrink_to_fit(&mut self) {
        for b in &mut self.blocks {
            b.insts.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
        self.values.shrink_to_fit();
        self.names.shrink_to_fit();
        self.params.shrink_to_fit();
    }

    /// The unique return terminator's block, if the function returns.
    pub fn return_block(&self) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| matches!(b.term, Terminator::Return(_)))
            .map(|i| BlockId(i as u32))
    }

    /// Returned values at the unique return statement.
    pub fn return_values(&self) -> &[ValueId] {
        match self.return_block() {
            Some(b) => match &self.block(b).term {
                Terminator::Return(vs) => vs,
                _ => unreachable!(),
            },
            None => &[],
        }
    }
}

/// A module-level global variable (an abstract memory object with a name).
#[derive(Debug, Clone)]
pub struct Global {
    /// Global name.
    pub name: String,
    /// Type of the *content* of the global cell.
    pub ty: Type,
}

/// A whole program: functions plus globals.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// All functions.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
    name_index: HashMap<String, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty module with room for `funcs` functions.
    pub fn with_capacity(funcs: usize) -> Self {
        Module {
            funcs: Vec::with_capacity(funcs),
            globals: Vec::new(),
            name_index: HashMap::with_capacity(funcs),
        }
    }

    /// Adds a function, indexing it by name.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(u32::try_from(self.funcs.len()).expect("too many functions"));
        let prev = self.name_index.insert(f.name.clone(), id);
        assert!(prev.is_none(), "duplicate function {}", f.name);
        self.funcs.push(f);
        id
    }

    /// Adds a global variable.
    pub fn add_global(&mut self, name: impl Into<String>, ty: Type) -> GlobalId {
        let id = GlobalId(u32::try_from(self.globals.len()).expect("too many globals"));
        self.globals.push(Global {
            name: name.into(),
            ty,
        });
        id
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.name_index.get(name).copied()
    }

    /// Resolves a name a program may call: a function of this module, or
    /// else an intrinsic.
    pub fn callee_by_name(&self, name: &str) -> Option<Callee> {
        match self.func_by_name(name) {
            Some(f) => Some(Callee::func(f)),
            None => Intrinsic::from_name(name).map(Callee::intrinsic),
        }
    }

    /// The name of `callee`.
    pub fn callee_name(&self, callee: Callee) -> &str {
        match callee.as_intrinsic() {
            Some(i) => i.name(),
            None => &self.funcs[callee.0 as usize].name,
        }
    }

    /// Borrow a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutably borrow a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Iterates over `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> + '_ {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total instruction count (a proxy for program size).
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }
}

/// Names treated as intrinsics rather than user functions.
pub mod intrinsics {
    /// Releases the memory its pointer argument refers to.
    pub const FREE: &str = "free";
    /// Benign output routine (dereferences nothing by itself).
    pub const PRINT: &str = "print";
    /// Unknown boolean (models unmodelled conditions).
    pub const NONDET_BOOL: &str = "nondet_bool";
    /// Unknown integer.
    pub const NONDET_INT: &str = "nondet_int";
    /// Taint source: user input byte (path-traversal checker).
    pub const FGETC: &str = "fgetc";
    /// Taint source: network receive (path-traversal checker).
    pub const RECV: &str = "recv";
    /// Taint source: secret data (data-transmission checker).
    pub const GETPASS: &str = "getpass";
    /// Taint sink: file open (path-traversal checker).
    pub const FOPEN: &str = "fopen";
    /// Taint sink: network send (data-transmission checker).
    pub const SENDTO: &str = "sendto";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_function() -> Function {
        // fn id(a: int) -> int { return a; }
        let mut f = Function::new("id");
        let a = f.new_value("a", Type::Int);
        f.params.push(a);
        f.ret_tys.push(Type::Int);
        f.set_term(f.entry(), Terminator::Return(vec![a]));
        f
    }

    #[test]
    fn defs_and_uses() {
        let mut f = Function::new("t");
        let x = f.new_value("x", Type::Int);
        let y = f.new_value("y", Type::Int);
        let defs = |i: &Inst| {
            let mut out = Vec::new();
            i.for_each_def(|v| out.push(v));
            out
        };
        let uses = |i: &Inst| {
            let mut out = Vec::new();
            i.for_each_use(|v| out.push(v));
            out
        };
        let inst = Inst::Copy { dst: y, src: x };
        assert_eq!(defs(&inst), vec![y]);
        assert_eq!(uses(&inst), vec![x]);
        let store = Inst::Store {
            ptr: x,
            depth: 1,
            src: y,
        };
        assert!(defs(&store).is_empty());
        assert_eq!(uses(&store), vec![x, y]);
    }

    #[test]
    fn def_sites_recorded() {
        let mut f = Function::new("t");
        let x = f.new_value("x", Type::Int);
        let id = f.push_inst(
            f.entry(),
            Inst::Const {
                dst: x,
                value: Const::Int(3),
            },
        );
        assert_eq!(f.value(x).def, Some(id));
    }

    #[test]
    fn module_name_lookup() {
        let mut m = Module::new();
        let id = m.add_func(tiny_function());
        assert_eq!(m.func_by_name("id"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new();
        m.add_func(tiny_function());
        m.add_func(tiny_function());
    }

    #[test]
    fn return_values_found() {
        let f = tiny_function();
        assert_eq!(f.return_values().len(), 1);
        assert_eq!(f.return_block(), Some(BlockId(0)));
    }

    #[test]
    fn terminator_successors() {
        let mut f = Function::new("t");
        let c = f.new_value("c", Type::Bool);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let t = Terminator::Branch {
            cond: c,
            then_bb: b1,
            else_bb: b2,
        };
        assert_eq!(t.successors(), vec![b1, b2]);
        let mut uses = Vec::new();
        t.for_each_use(|v| uses.push(v));
        assert_eq!(uses, vec![c]);
        assert!(Terminator::Return(vec![]).successors().is_empty());
    }

    #[test]
    fn intrinsics_recognised() {
        assert_eq!(Intrinsic::from_name("free"), Some(Intrinsic::Free));
        assert_eq!(Intrinsic::from_name("fgetc"), Some(Intrinsic::Fgetc));
        assert_eq!(Intrinsic::from_name("main"), None);
        for i in Intrinsic::ALL {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
    }

    #[test]
    fn callees_pack_functions_and_intrinsics() {
        for i in Intrinsic::ALL {
            let c = Callee::intrinsic(i);
            assert_eq!((c.as_intrinsic(), c.as_func()), (Some(i), None));
            assert!(c.is(i));
        }
        let c = Callee::func(FuncId(7));
        assert_eq!((c.as_func(), c.as_intrinsic()), (Some(FuncId(7)), None));
        let mut m = Module::new();
        let id = m.add_func(tiny_function());
        assert_eq!(m.callee_by_name("id"), Some(Callee::func(id)));
        assert_eq!(m.callee_by_name("free"), Some(Intrinsic::Free.into()));
        assert_eq!(m.callee_by_name("missing"), None);
        assert_eq!(m.callee_name(Callee::func(id)), "id");
        assert_eq!(m.callee_name(Intrinsic::Sendto.into()), "sendto");
    }

    #[test]
    fn calls_split_their_operands() {
        let (r, a, b) = (ValueId(0), ValueId(1), ValueId(2));
        let call = Inst::call(Intrinsic::Fopen.into(), &[r], &[a, b]);
        let parts = call.as_call().unwrap();
        assert_eq!(parts.callee, Callee::intrinsic(Intrinsic::Fopen));
        assert_eq!((parts.dsts, parts.args), (&[r][..], &[a, b][..]));
        let mut defs = Vec::new();
        call.for_each_def(|v| defs.push(v));
        let mut uses = Vec::new();
        call.for_each_use(|v| uses.push(v));
        assert_eq!((defs, uses), (vec![r], vec![a, b]));
        assert!(Inst::Alloc { dst: r }.as_call().is_none());
    }

    #[test]
    fn names_are_stored_once() {
        let mut f = Function::new("t");
        let a = f.new_value("x", Type::Int);
        let b = f.new_value("tmp", Type::Int);
        let c = f.new_value("x", Type::Bool);
        assert_eq!(f.names.len(), 2);
        assert_eq!(f.value_name(a), f.value_name(c));
        assert_eq!(
            (f.value_name(a), f.value_name(b), f.value_name(c)),
            ("x", "tmp", "x")
        );
    }
}
