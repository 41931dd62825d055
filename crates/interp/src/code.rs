//! Pre-decoded bytecode: the compact flat execution form of a verified
//! module.
//!
//! [`mir`] functions are tree-shaped — blocks of enum instructions with
//! name-keyed calls and symbolic places — which is the right shape for
//! construction and verification but a poor shape for the interpreter hot
//! loop. [`Program::new`](crate::Program::new) therefore lowers each
//! function once into a [`FuncCode`] built around a *hot/cold split*:
//!
//! - The execution stream is one contiguous array of fixed-size [`HotOp`]
//!   records (≤ 16 bytes each, compile-time asserted — a quarter of the
//!   old enum-of-structs op). A hot op carries only the opcode and small
//!   `u32` operand fields; everything bulky lives in per-function *side
//!   pools* indexed by those fields:
//!   - [`MemRef`] pool: precompiled place descriptors (segment/slot base,
//!     element count, symbol, line, static memory-op id) for loads/stores,
//!   - immediate pool: deduplicated constant [`Value`]s, referenced by
//!     [`Opnd`] operands,
//!   - call-arg pool: argument operand slices for calls.
//! - Block starts are flattened to absolute pcs (block terminators become
//!   explicit [`HotOp::Jump`]/[`HotOp::Branch`]/[`HotOp::Return`] ops, so
//!   one dynamic instruction is exactly one decoded slot, one step and one
//!   dispatch); branch successors are pc *deltas* relative to the
//!   branching op.
//! - Call targets are pre-resolved to function indices
//!   ([`HotOp::CallUser`]) or [`Builtin`] ids ([`HotOp::CallBuiltin`]);
//!   names that resolve to nothing decode to [`HotOp::CallUnknown`] so the
//!   runtime error still surfaces only if the call actually executes.
//!
//! The decode is purely mechanical: [`crate::reference`] interprets the
//! original tree form and must produce a byte-identical event stream
//! (`tests/decode_equivalence.rs` pins this on real workloads).

use crate::program::{word_bits, word_value, MemOpMeta, GLOBAL_BASE, WORD};
use fxhash::FxHashMap;
use mir::{
    BinOp, Function, Module, Operand, Place, RegId, RegionKind, Terminator, Ty, UnOp, Value, VarRef,
};

/// Built-in functions callable from mini-C, pre-resolved at decode time.
///
/// User functions shadow builtins of the same name, matching the resolution
/// order of the original interpreter (module functions first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `print(args…)` — collect output.
    Print,
    /// `sqrt(x)`.
    Sqrt,
    /// `sin(x)`.
    Sin,
    /// `cos(x)`.
    Cos,
    /// `exp(x)`.
    Exp,
    /// `log(x)`.
    Log,
    /// `fabs(x)`.
    Fabs,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `pow(x, y)`.
    Pow,
    /// `fmin(x, y)`.
    Fmin,
    /// `fmax(x, y)`.
    Fmax,
    /// `abs(x)` (integer).
    Abs,
    /// `min(x, y)` (integer).
    Min,
    /// `max(x, y)` (integer).
    Max,
    /// `rand()` — seeded program-visible RNG.
    Rand,
    /// `frand()` — uniform f64 in [0, 1).
    Frand,
    /// `srand(seed)`.
    Srand,
    /// `tid()` — current thread id.
    Tid,
    /// `lock(id)` — may block.
    Lock,
    /// `unlock(id)`.
    Unlock,
    /// `join(tid)` — may block.
    Join,
    /// `spawn(func_index, args…)`.
    Spawn,
    /// `spawn_actor(func_index, args…)` — like `spawn`; the child is an
    /// actor addressable with `send`. (Every thread is an actor; the
    /// distinct name keeps message-passing workloads self-describing.)
    SpawnActor,
    /// `send(actor, value)` — deliver into the target's bounded mailbox;
    /// blocks while the mailbox is full.
    Send,
    /// `receive()` — take the oldest message from the calling actor's
    /// mailbox; blocks while it is empty.
    Receive,
}

impl Builtin {
    /// Resolve a builtin by source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print" => Builtin::Print,
            "sqrt" => Builtin::Sqrt,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "exp" => Builtin::Exp,
            "log" => Builtin::Log,
            "fabs" => Builtin::Fabs,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "pow" => Builtin::Pow,
            "fmin" => Builtin::Fmin,
            "fmax" => Builtin::Fmax,
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "rand" => Builtin::Rand,
            "frand" => Builtin::Frand,
            "srand" => Builtin::Srand,
            "tid" => Builtin::Tid,
            "lock" => Builtin::Lock,
            "unlock" => Builtin::Unlock,
            "join" => Builtin::Join,
            "spawn" => Builtin::Spawn,
            "spawn_actor" => Builtin::SpawnActor,
            "send" => Builtin::Send,
            "receive" => Builtin::Receive,
            _ => return None,
        })
    }

    /// Does this builtin touch a mailbox? Such call sites get a static
    /// memory-op id (appended after the load/store id range) because their
    /// sends/receives are emitted as [`crate::MemEvent`]s over mailbox
    /// addresses — dependence-bearing accesses like any other.
    pub fn is_mailbox_op(self) -> bool {
        matches!(self, Builtin::Send | Builtin::Receive)
    }
}

/// High bit of a packed operand: set for immediates.
const IMM_BIT: u32 = 1 << 31;
/// Second-highest bit: among immediates, set for inline small integers.
const INLINE_BIT: u32 = 1 << 30;
/// Payload mask of an immediate operand.
const IMM_MASK: u32 = INLINE_BIT - 1;
/// Inclusive bound of inline-encodable integers (signed 30-bit payload).
const INLINE_MAX: i64 = (1 << 29) - 1;
const INLINE_MIN: i64 = -(1 << 29);

/// Register-destination sentinel for calls with no result.
pub const DST_NONE: u32 = u32::MAX;

/// A packed instruction operand — one `u32` against the 16-byte
/// [`mir::Operand`]:
///
/// - bit 31 clear: a register index;
/// - bits 31+30 set: an inline signed 30-bit integer constant (the
///   overwhelmingly common immediate — loop bounds, strides, ±1 — pays no
///   pool load);
/// - bit 31 set, bit 30 clear: an index into the function's immediate pool
///   (floats and out-of-range integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opnd(u32);

impl Opnd {
    /// Pack a register operand.
    fn reg(r: RegId) -> Opnd {
        assert!(r.0 < IMM_BIT, "register index exceeds packed-operand range");
        Opnd(r.0)
    }

    /// Pack an immediate-pool reference.
    fn pool(idx: usize) -> Opnd {
        assert!(
            (idx as u64) < IMM_MASK as u64,
            "immediate pool exceeds packed-operand range"
        );
        Opnd(IMM_BIT | idx as u32)
    }

    /// Pack an inline small-integer constant (`INLINE_MIN..=INLINE_MAX`).
    fn inline_int(v: i64) -> Opnd {
        debug_assert!((INLINE_MIN..=INLINE_MAX).contains(&v));
        Opnd(IMM_BIT | INLINE_BIT | (v as u32 & IMM_MASK))
    }

    /// Evaluate against the current register file and the function's
    /// immediate pool. The dispatch-loop equivalent of
    /// `op_val(Operand::Reg | Operand::Const)`.
    ///
    /// A register is read as its (type, bits) scalars and rebuilt, not
    /// copied whole: a load or a bin op writes a register as two 8-byte
    /// stores, and a 16-byte read of it right after cannot be
    /// store-forwarded. Copied whole, that stall on every loaded operand
    /// made the benchmark's `hot_loop` plan replay ~20% slower on x86-64.
    #[inline]
    pub fn value(self, regs: &[Value], imms: &[Value]) -> Value {
        let x = self.0;
        let scalars = |v: Value| (matches!(v, Value::F64(_)), word_bits(v));
        let (float, bits) = if (x as i32) >= 0 {
            scalars(regs[x as usize])
        } else if x & INLINE_BIT != 0 {
            // Sign-extend the 30-bit payload: shift it to the top and
            // arithmetic-shift back down.
            (false, (((x << 2) as i32) >> 2) as i64 as u64)
        } else {
            scalars(imms[(x & IMM_MASK) as usize])
        };
        word_value(bits, float)
    }
}

/// A precompiled memory reference — the cold record behind
/// [`HotOp::Load`]/[`HotOp::Store`]: everything address resolution and
/// event emission need without touching the module.
///
/// The interpreter resolves a global reference as
/// `GLOBAL_BASE + (base + index) * WORD` and a local one as
/// `STACK_BASE + thread * STACK_SPAN + (frame_base + base + index) * WORD`.
/// Kept to 32 bytes (two per cache line), enforced at compile time below:
/// the out-of-bounds error message reconstructs the variable name from the
/// interned symbol, so no variable reference needs to travel here, and the
/// element type travels as the one-byte [`MemRef::float`] flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRef {
    /// Element count (1 for scalars) — the bounds check limit.
    pub elems: u64,
    /// Word slot base: global-segment slot for globals, frame-relative word
    /// offset for locals.
    pub base: u32,
    /// Interned symbol id reported in [`crate::MemEvent::var`].
    pub sym: u32,
    /// Packed index operand; meaningful only when [`MemRef::has_index`].
    pub index: Opnd,
    /// Source line, reported in the memory event.
    pub line: u32,
    /// Static memory-operation id.
    pub op_id: u32,
    /// `false` addresses element 0 (scalar access; `index` is unused).
    pub has_index: bool,
    /// `true` = global data segment, `false` = current frame.
    pub global: bool,
    /// `true` when the variable is declared `float` ([`mir::Ty::F64`]): a
    /// load reads the memory word as `f64` bits, otherwise as `i64`.
    pub float: bool,
}

/// A decoded instruction slot of the flat stream — the fixed-size hot
/// record of the hot/cold split. Exactly one slot per dynamic instruction.
///
/// The 16-byte bound is what makes the dispatch loop walk a dense array —
/// enforced at compile time below and regression-guarded in CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotOp {
    /// `dst = load mems[mem]`, emitting a memory event.
    Load {
        /// Destination register.
        dst: u32,
        /// [`MemRef`] pool index.
        mem: u32,
    },
    /// `store mems[mem], src`, emitting a memory event.
    Store {
        /// [`MemRef`] pool index.
        mem: u32,
        /// Value operand.
        src: Opnd,
    },
    /// `dst = lhs op rhs` for operators that cannot trap.
    Bin {
        /// Operator (never `Div`/`Rem`).
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        lhs: Opnd,
        /// Right operand.
        rhs: Opnd,
    },
    /// `dst = lhs op rhs` for `Div`/`Rem`, which can raise
    /// division-by-zero; the source line for the error is looked up in the
    /// cold [`FuncCode::trap_lines`] table by pc.
    BinChecked {
        /// Operator (`Div` or `Rem`).
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        lhs: Opnd,
        /// Right operand.
        rhs: Opnd,
    },
    /// `dst = op src`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: u32,
        /// Operand.
        src: Opnd,
    },
    /// Call of a user function, target pre-resolved to its index.
    CallUser {
        /// Callee function index.
        target: u32,
        /// Call-arg pool index.
        args: u32,
        /// Register receiving the return value; [`DST_NONE`] if none.
        dst: u32,
    },
    /// Call of a builtin, pre-resolved to its [`Builtin`] id.
    CallBuiltin {
        /// The builtin.
        builtin: Builtin,
        /// Call-arg pool index.
        args: u32,
        /// Register receiving the return value; [`DST_NONE`] if none.
        dst: u32,
        /// Source line (thread/lock events and errors).
        line: u32,
    },
    /// Call of a name that resolved to nothing at decode time; executing it
    /// raises [`crate::RuntimeError::UnknownFunction`], preserving the lazy
    /// failure semantics of name-map resolution.
    CallUnknown {
        /// Index into [`FuncCode::unknown_names`].
        name: u32,
    },
    /// Control enters region `region`; kind and end line pre-resolved.
    RegionEnter {
        /// Region kind.
        kind: RegionKind,
        /// Region id within the function.
        region: u32,
        /// Start line (from the marker instruction).
        line: u32,
        /// Last source line of the region.
        end_line: u32,
    },
    /// Control leaves region `region`.
    RegionExit {
        /// Region id within the function.
        region: u32,
    },
    /// A loop region starts an iteration.
    LoopIter {
        /// Region id within the function.
        region: u32,
    },
    /// The loop body is entered (executed-iteration count).
    LoopBody {
        /// Region id within the function.
        region: u32,
    },
    /// Unconditional jump, encoded as a pc delta from this op.
    Jump {
        /// Target pc minus this op's pc.
        delta: i32,
    },
    /// Two-way branch on a truthy operand, successors as pc deltas.
    Branch {
        /// Condition operand.
        cond: Opnd,
        /// Taken-successor pc delta.
        then_delta: i32,
        /// Not-taken-successor pc delta.
        else_delta: i32,
    },
    /// Return from the function.
    Return {
        /// Return value operand, if any.
        val: Option<Opnd>,
    },
    /// A `Terminator::Unreachable` left in an unverified module; panics if
    /// executed (verified IR never contains one).
    Unreachable,
}

// The whole point of the hot/cold split: growing any variant past the
// 16-byte record is a dispatch-loop dcache regression and fails the build.
const _: () = assert!(
    std::mem::size_of::<HotOp>() <= 16,
    "HotOp exceeds the 16-byte hot-record budget"
);
// Two memory references per cache line; the type flag rides in padding.
const _: () = assert!(
    std::mem::size_of::<MemRef>() <= 32,
    "MemRef exceeds its 32-byte budget"
);

/// An owned-local range of a region: locals that die when the region exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedRange {
    /// Frame-relative word offset of the local.
    pub off: u32,
    /// Size of the local in words.
    pub words: u64,
}

/// Pre-resolved region metadata consulted on region entry/exit.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCode {
    /// Region kind.
    pub kind: RegionKind,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Owned locals as `(frame offset, words)` ranges, in declaration order.
    pub owned: Box<[OwnedRange]>,
}

/// The flat, pre-decoded form of one function: the unit the interpreter
/// executes — the hot stream plus its cold side pools.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncCode {
    /// The hot instruction stream; block 0 starts at pc 0. One slot per
    /// dynamic instruction.
    pub hot: Box<[HotOp]>,
    /// Memory-reference pool behind load/store slots.
    pub mems: Box<[MemRef]>,
    /// Immediate pool: deduplicated constants referenced by [`Opnd`]s.
    pub imms: Box<[Value]>,
    /// Call-argument pool: one operand slice per call site.
    pub call_args: Box<[Box<[Opnd]>]>,
    /// Unresolved callee names ([`HotOp::CallUnknown`]).
    pub unknown_names: Box<[Box<str>]>,
    /// `(pc, source line)` for every [`HotOp::BinChecked`] slot, sorted by
    /// pc — consulted only on the cold division-by-zero path.
    pub trap_lines: Box<[(u32, u32)]>,
    /// Affine skip-tier loop plans ([`crate::synth::LoopPlan`]), compiled
    /// after decode from the static facts; empty when no loop qualifies.
    pub plans: Box<[crate::synth::LoopPlan]>,
    /// `(trigger pc, plan index)` sorted by trigger pc — the
    /// [`HotOp::LoopIter`] slots that own a plan, for [`FuncCode::plan_at`].
    pub plan_idx: Box<[(u32, u32)]>,
    /// `(pc, static op id)` of every `send`/`receive` call slot, sorted by
    /// pc. The ids live past the load/store range (see
    /// [`crate::Program::num_mem_ops`]); consulted off the hot path when
    /// the builtin executes, via [`FuncCode::mailbox_op_at`].
    pub mbox_ops: Box<[(u32, u32)]>,
    /// Pre-resolved region metadata, indexed by region id.
    pub regions: Box<[RegionCode]>,
    /// Absolute pc of each basic block's first op (diagnostics/printing).
    pub block_starts: Box<[u32]>,
    /// Frame word offset of each parameter, in order.
    pub params: Box<[u32]>,
    /// Virtual registers used by the function.
    pub num_regs: u32,
    /// Frame size in words.
    pub frame_words: u32,
    /// First source line (FuncEnter events).
    pub start_line: u32,
    /// Last source line (FuncExit events).
    pub end_line: u32,
}

impl FuncCode {
    /// Source line of the `Div`/`Rem` op at `pc` — the cold path of the
    /// division-by-zero error.
    pub fn trap_line(&self, pc: u32) -> u32 {
        match self.trap_lines.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(i) => self.trap_lines[i].1,
            Err(_) => 0,
        }
    }

    /// The affine skip-tier plan anchored at the [`HotOp::LoopIter`] slot
    /// `pc`, if that loop qualified at compile time. Consulted only when
    /// the skip tier is enabled, off the per-op hot path.
    pub fn plan_at(&self, pc: u32) -> Option<&crate::synth::LoopPlan> {
        match self.plan_idx.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(i) => Some(&self.plans[self.plan_idx[i].1 as usize]),
            Err(_) => None,
        }
    }

    /// The static memory-op id of the `send`/`receive` call at slot `pc`.
    /// Off the hot path: consulted once per executed mailbox builtin.
    pub fn mailbox_op_at(&self, pc: u32) -> Option<u32> {
        match self.mbox_ops.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(i) => Some(self.mbox_ops[i].1),
            Err(_) => None,
        }
    }
}

/// Per-function pools under construction during decode.
#[derive(Default)]
struct FuncBuilder {
    hot: Vec<HotOp>,
    mems: Vec<MemRef>,
    imms: Vec<Value>,
    call_args: Vec<Box<[Opnd]>>,
    unknown_names: Vec<Box<str>>,
    trap_lines: Vec<(u32, u32)>,
    mbox_ops: Vec<(u32, u32)>,
}

impl FuncBuilder {
    /// Pack a constant: small integers encode inline in the operand word;
    /// everything else interns into the pool (bit-exact dedup, so `0.0`
    /// and `-0.0` stay distinct and NaNs don't multiply).
    fn imm(&mut self, v: Value) -> Opnd {
        if let Value::I64(x) = v {
            if (INLINE_MIN..=INLINE_MAX).contains(&x) {
                return Opnd::inline_int(x);
            }
        }
        let bits_eq = |a: &Value, b: &Value| match (a, b) {
            (Value::I64(x), Value::I64(y)) => x == y,
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        };
        if let Some(i) = self.imms.iter().position(|x| bits_eq(x, &v)) {
            return Opnd::pool(i);
        }
        self.imms.push(v);
        Opnd::pool(self.imms.len() - 1)
    }

    /// Pack an operand.
    fn opnd(&mut self, o: &Operand) -> Opnd {
        match o {
            Operand::Reg(r) => Opnd::reg(*r),
            Operand::Const(v) => self.imm(*v),
        }
    }

    fn dst(d: &Option<RegId>) -> u32 {
        match d {
            Some(r) => {
                assert!(r.0 != DST_NONE, "register index collides with DST_NONE");
                r.0
            }
            None => DST_NONE,
        }
    }
}

/// Per-module context shared by all function decodes.
pub(crate) struct DecodeCtx<'m> {
    pub module: &'m Module,
    pub global_addr: &'m [u64],
    pub global_syms: &'m [u32],
    pub local_off: &'m [Vec<u64>],
    pub local_syms: &'m [Vec<u32>],
    pub frame_words: &'m [usize],
    /// Function name → index; user functions shadow builtins.
    pub func_by_name: FxHashMap<&'m str, u32>,
    /// Running static memory-operation id counter.
    pub next_op: u32,
    /// Static metadata per memory op, in id order — what used to be
    /// recovered by re-walking the op stream.
    pub mem_meta: Vec<MemOpMeta>,
    /// Running mailbox-operation ordinal counter (`send`/`receive` call
    /// sites, in program order). Their final op ids are `next_op + ordinal`
    /// — appended past the load/store range by `Program` once `next_op` is
    /// final, so load/store ids keep aligning with the analysis crate's
    /// program-order walk.
    pub next_mbox: u32,
    /// `(line, is_write)` per mailbox op, in ordinal order; `Program`
    /// extends `mem_meta` from this.
    pub mbox_meta: Vec<(u32, bool)>,
}

impl<'m> DecodeCtx<'m> {
    pub fn new(
        module: &'m Module,
        global_addr: &'m [u64],
        global_syms: &'m [u32],
        local_off: &'m [Vec<u64>],
        local_syms: &'m [Vec<u32>],
        frame_words: &'m [usize],
    ) -> Self {
        let mut func_by_name = FxHashMap::default();
        for (i, f) in module.functions.iter().enumerate() {
            // Last definition wins, matching the insert-overwrite name map
            // of the original interpreter (kept in `crate::reference`).
            // Verified modules cannot contain duplicates; unverified
            // hand-built ones must bind identically in both interpreters.
            func_by_name.insert(f.name.as_str(), i as u32);
        }
        DecodeCtx {
            module,
            global_addr,
            global_syms,
            local_off,
            local_syms,
            frame_words,
            func_by_name,
            next_op: 0,
            mem_meta: Vec::new(),
            next_mbox: 0,
            mbox_meta: Vec::new(),
        }
    }

    /// Build a [`MemRef`] for a place, assigning the next static memory-op
    /// id, and return its pool index.
    fn mem_ref(
        &mut self,
        b: &mut FuncBuilder,
        fx: usize,
        p: &Place,
        line: u32,
        is_write: bool,
    ) -> u32 {
        let (has_index, index) = match p.index.as_ref() {
            Some(o) => (true, b.opnd(o)),
            None => (false, Opnd::inline_int(0)),
        };
        let op_id = self.next_op;
        self.next_op += 1;
        let m = match p.var {
            VarRef::Global(g) => MemRef {
                base: ((self.global_addr[g.index()] - GLOBAL_BASE) / WORD) as u32,
                elems: self.module.globals[g.index()].elems,
                float: self.module.globals[g.index()].ty == Ty::F64,
                sym: self.global_syms[g.index()],
                index,
                line,
                op_id,
                has_index,
                global: true,
            },
            VarRef::Local(l) => MemRef {
                base: self.local_off[fx][l.index()] as u32,
                elems: self.module.functions[fx].locals[l.index()].elems,
                float: self.module.functions[fx].locals[l.index()].ty == Ty::F64,
                sym: self.local_syms[fx][l.index()],
                index,
                line,
                op_id,
                has_index,
                global: false,
            },
        };
        self.mem_meta.push(MemOpMeta {
            line,
            var: m.sym,
            is_write,
        });
        b.mems.push(m);
        (b.mems.len() - 1) as u32
    }

    /// Lower one function into its flat form, assigning static memory-op
    /// ids in program order (function → block → instruction, the same order
    /// the side-table scheme used).
    pub fn decode_function(&mut self, fx: usize) -> FuncCode {
        let f: &Function = &self.module.functions[fx];
        // First pass: absolute pc of each block (instrs + 1 terminator op).
        let mut block_starts = Vec::with_capacity(f.blocks.len());
        let mut n = 0u32;
        for b in &f.blocks {
            block_starts.push(n);
            n += b.instrs.len() as u32 + 1;
        }
        let mut fb = FuncBuilder {
            hot: Vec::with_capacity(n as usize),
            ..Default::default()
        };
        for b in &f.blocks {
            for i in &b.instrs {
                let pc = fb.hot.len() as u32;
                let op = self.decode_instr(&mut fb, fx, pc, i);
                fb.hot.push(op);
            }
            let pc = fb.hot.len() as u32;
            let delta = |target: u32| (target as i64 - pc as i64) as i32;
            let term = match &b.term {
                Terminator::Jump(t) => HotOp::Jump {
                    delta: delta(block_starts[t.index()]),
                },
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => HotOp::Branch {
                    cond: fb.opnd(cond),
                    then_delta: delta(block_starts[then_bb.index()]),
                    else_delta: delta(block_starts[else_bb.index()]),
                },
                Terminator::Return(v) => HotOp::Return {
                    val: v.as_ref().map(|o| fb.opnd(o)),
                },
                // Verified IR has none; decode lazily so an unverified
                // module with a dead unterminated block still constructs
                // and only panics if the block actually executes, exactly
                // like the tree-walking interpreter.
                Terminator::Unreachable => HotOp::Unreachable,
            };
            fb.hot.push(term);
        }
        let regions = f
            .regions
            .iter()
            .map(|r| RegionCode {
                kind: r.kind,
                start_line: r.start_line,
                end_line: r.end_line,
                owned: r
                    .owned_locals
                    .iter()
                    .map(|l| OwnedRange {
                        off: self.local_off[fx][l.index()] as u32,
                        words: f.locals[l.index()].elems,
                    })
                    .collect(),
            })
            .collect();
        FuncCode {
            hot: fb.hot.into_boxed_slice(),
            mems: fb.mems.into_boxed_slice(),
            imms: fb.imms.into_boxed_slice(),
            call_args: fb.call_args.into_boxed_slice(),
            unknown_names: fb.unknown_names.into_boxed_slice(),
            trap_lines: fb.trap_lines.into_boxed_slice(),
            mbox_ops: fb.mbox_ops.into_boxed_slice(),
            // Skip-tier plans are compiled after decode (they need the
            // static fact table), in `Program::new`.
            plans: Box::new([]),
            plan_idx: Box::new([]),
            regions,
            block_starts: block_starts.into_boxed_slice(),
            params: (0..f.num_params)
                .map(|i| self.local_off[fx][i] as u32)
                .collect(),
            num_regs: f.num_regs,
            frame_words: self.frame_words[fx] as u32,
            start_line: f.start_line,
            end_line: f.end_line,
        }
    }

    fn decode_instr(&mut self, b: &mut FuncBuilder, fx: usize, pc: u32, i: &mir::Instr) -> HotOp {
        match i {
            mir::Instr::Load { dst, place, line } => HotOp::Load {
                dst: dst.0,
                mem: self.mem_ref(b, fx, place, *line, false),
            },
            mir::Instr::Store { place, src, line } => HotOp::Store {
                mem: self.mem_ref(b, fx, place, *line, true),
                src: b.opnd(src),
            },
            mir::Instr::Bin {
                dst,
                op,
                lhs,
                rhs,
                line,
            } => {
                let (lhs, rhs) = (b.opnd(lhs), b.opnd(rhs));
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    b.trap_lines.push((pc, *line));
                    HotOp::BinChecked {
                        op: *op,
                        dst: dst.0,
                        lhs,
                        rhs,
                    }
                } else {
                    HotOp::Bin {
                        op: *op,
                        dst: dst.0,
                        lhs,
                        rhs,
                    }
                }
            }
            mir::Instr::Un { dst, op, src, .. } => HotOp::Un {
                op: *op,
                dst: dst.0,
                src: b.opnd(src),
            },
            mir::Instr::Call {
                dst,
                func,
                args,
                line,
            } => {
                let packed: Box<[Opnd]> = args.iter().map(|a| b.opnd(a)).collect();
                b.call_args.push(packed);
                let args = (b.call_args.len() - 1) as u32;
                if let Some(target) = self.func_by_name.get(func.as_str()) {
                    HotOp::CallUser {
                        target: *target,
                        args,
                        dst: FuncBuilder::dst(dst),
                    }
                } else if let Some(builtin) = Builtin::from_name(func) {
                    if builtin.is_mailbox_op() {
                        // Assign the mailbox op its program-order ordinal;
                        // `Program` rebases these past the final load/store
                        // id range after all functions decode.
                        b.mbox_ops.push((pc, self.next_mbox));
                        self.next_mbox += 1;
                        self.mbox_meta
                            .push((*line, matches!(builtin, Builtin::Send)));
                    }
                    HotOp::CallBuiltin {
                        builtin,
                        args,
                        dst: FuncBuilder::dst(dst),
                        line: *line,
                    }
                } else {
                    b.unknown_names.push(func.as_str().into());
                    HotOp::CallUnknown {
                        name: (b.unknown_names.len() - 1) as u32,
                    }
                }
            }
            mir::Instr::RegionEnter { region, line } => {
                let r = &self.module.functions[fx].regions[region.index()];
                HotOp::RegionEnter {
                    kind: r.kind,
                    region: region.0,
                    line: *line,
                    end_line: r.end_line,
                }
            }
            mir::Instr::RegionExit { region, .. } => HotOp::RegionExit { region: region.0 },
            mir::Instr::LoopIter { region, .. } => HotOp::LoopIter { region: region.0 },
            mir::Instr::LoopBody { region, .. } => HotOp::LoopBody { region: region.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    #[test]
    fn hot_op_is_a_compact_fixed_size_record() {
        // The dispatch-density guarantee of the hot/cold split; also
        // enforced at compile time by the const assertions above.
        assert!(std::mem::size_of::<HotOp>() <= 16);
        assert!(std::mem::size_of::<MemRef>() <= 32);
    }

    #[test]
    fn decode_flattens_blocks_with_terminators() {
        let p = program("fn main() -> int { int x = 1; if (x > 0) { x = 2; } return x; }");
        let code = &p.code()[0];
        // One slot per instruction plus one per terminator; block starts
        // are absolute and strictly increasing.
        let total: usize = p.module.functions[0]
            .blocks
            .iter()
            .map(|b| b.instrs.len() + 1)
            .sum();
        assert_eq!(code.hot.len(), total);
        assert!(code.block_starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(code.block_starts[0], 0);
        // Every branch/jump delta lands on a block start.
        for (pc, op) in code.hot.iter().enumerate() {
            let check = |d: i32| {
                let t = pc as i64 + d as i64;
                assert!(t >= 0 && (t as usize) < code.hot.len(), "delta {d} @ {pc}");
                assert!(
                    code.block_starts.contains(&(t as u32)),
                    "delta target {t} is not a block start"
                );
            };
            match op {
                HotOp::Jump { delta } => check(*delta),
                HotOp::Branch {
                    then_delta,
                    else_delta,
                    ..
                } => {
                    check(*then_delta);
                    check(*else_delta);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn calls_are_preresolved() {
        let p = program(
            "fn helper(int x) -> int { return x + 1; }
            fn main() -> int { int a = helper(1); return sqrt(4.0) + a; }",
        );
        let main = &p.code()[1];
        let mut saw_user = false;
        let mut saw_builtin = false;
        for op in main.hot.iter() {
            match op {
                HotOp::CallUser { target, .. } => {
                    assert_eq!(*target, 0, "helper is function 0");
                    saw_user = true;
                }
                HotOp::CallBuiltin { builtin, .. } => {
                    assert_eq!(*builtin, Builtin::Sqrt);
                    saw_builtin = true;
                }
                _ => {}
            }
        }
        assert!(saw_user && saw_builtin);
    }

    #[test]
    fn mem_op_ids_match_program_order() {
        let p = program("global int g;\nfn main() { g = 1; int x = g; }");
        let mut ids = Vec::new();
        for f in p.code() {
            for op in f.hot.iter() {
                match op {
                    HotOp::Load { mem, .. } => ids.push(f.mems[*mem as usize].op_id),
                    HotOp::Store { mem, .. } => ids.push(f.mems[*mem as usize].op_id),
                    _ => {}
                }
            }
        }
        assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
        assert_eq!(ids.len() as u32, p.num_mem_ops());
    }

    #[test]
    fn places_carry_layout() {
        let p = program("global int a[8];\nfn main() { a[3] = 7; int y = a[3]; }");
        let main = &p.code()[0];
        let store = main
            .hot
            .iter()
            .find_map(|o| match o {
                HotOp::Store { mem, .. } => Some(&main.mems[*mem as usize]),
                _ => None,
            })
            .unwrap();
        assert!(store.global);
        assert_eq!(store.base, 0, "first global starts at slot 0");
        assert_eq!(store.elems, 8);
        assert_eq!(p.symbol(store.sym), "a");
    }

    #[test]
    fn immediates_encode_inline_or_deduplicate() {
        // Small integers ride inline in the operand word: no pool entries.
        let p = program("fn main() { int a = 7; int b = 7; int c = 0 - 7; }");
        assert!(
            p.code()[0].imms.is_empty(),
            "small ints must not reach the pool: {:?}",
            p.code()[0].imms
        );
        // Floats (and out-of-range ints) intern into the pool, deduplicated.
        let p = program("fn main() { float a = 2.5; float b = 2.5; float c = 2.5; }");
        let imms = &p.code()[0].imms;
        let hits = imms
            .iter()
            .filter(|v| matches!(v, Value::F64(x) if *x == 2.5))
            .count();
        assert_eq!(hits, 1, "identical constants intern to one pool slot");
    }

    #[test]
    fn builtin_names_roundtrip() {
        for name in [
            "print",
            "sqrt",
            "sin",
            "cos",
            "exp",
            "log",
            "fabs",
            "floor",
            "ceil",
            "pow",
            "fmin",
            "fmax",
            "abs",
            "min",
            "max",
            "rand",
            "frand",
            "srand",
            "tid",
            "lock",
            "unlock",
            "join",
            "spawn",
            "spawn_actor",
            "send",
            "receive",
        ] {
            assert!(Builtin::from_name(name).is_some(), "{name}");
        }
        assert!(Builtin::from_name("nope").is_none());
    }
}
