//! Executable program: a verified module plus precomputed memory layout,
//! symbol table, and the pre-decoded instruction streams the interpreter
//! executes (see [`crate::code`]).

use crate::code::{DecodeCtx, FuncCode};
use fxhash::FxHashMap;
use mir::{Module, Ty, Value};

/// Static metadata of one memory operation: everything a [`MemEvent`]
/// carries that is fully determined by the op id alone. The parallel
/// profiler ships accesses over queues with only the op id and resolves
/// line/variable/direction through this table on the consumer side, so the
/// in-transit record stays compact.
///
/// [`MemEvent`]: crate::MemEvent
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOpMeta {
    /// Source line of the operation.
    pub line: u32,
    /// Variable symbol id.
    pub var: u32,
    /// `true` for stores, `false` for loads.
    pub is_write: bool,
}

/// Machine word size in bytes; every IR cell is one word.
pub const WORD: u64 = 8;

/// The bits a value leaves in its word of target memory. Memory holds one
/// untagged `u64` per word; lowering converts every store to its
/// variable's declared type, so [`word_value`] can read the word back as
/// that type.
#[inline(always)]
pub(crate) fn word_bits(v: Value) -> u64 {
    match v {
        Value::I64(x) => x as u64,
        Value::F64(x) => x.to_bits(),
    }
}

/// A word of target memory read as its variable's declared type: `float`
/// words as `f64` bits, `int` words as `i64`. A never-written word is all
/// zero bits, so it reads `0` or `0.0`.
#[inline(always)]
pub(crate) fn word_value(w: u64, float: bool) -> Value {
    if float {
        Value::F64(f64::from_bits(w))
    } else {
        Value::I64(w as i64)
    }
}

/// Base address of the global data segment.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base address of thread 0's stack segment.
pub const STACK_BASE: u64 = 0x5000_0000;
/// Address span reserved per thread stack.
pub const STACK_SPAN: u64 = 0x0100_0000;
/// Base address of actor 0's mailbox segment. Mailbox slots are
/// addressable memory: a `send` is a store to the target's slot
/// `seq % cap`, the matching `receive` a load from the same slot, so
/// message passing surfaces to the profiler as ordinary RAW (and, once a
/// slot is reused, WAR/WAW) dependences. Far above any stack: stacks
/// reach this base only past ~4M actors.
pub const MAILBOX_BASE: u64 = 0x4000_0000_0000;
/// Address span reserved per actor mailbox.
pub const MAILBOX_SPAN: u64 = 0x1_0000;
/// Addressable slots per mailbox (`MAILBOX_SPAN / WORD`); ring addressing
/// wraps within this many slots even if the configured capacity exceeds
/// it.
pub const MAILBOX_SLOTS: u64 = MAILBOX_SPAN / WORD;
/// The variable name every mailbox access reports
/// ([`Program::mailbox_symbol`] is its interned id): no source identifier
/// can spell it, so a dependence on it is message-passing traffic.
pub const MAILBOX_VAR: &str = "<mailbox>";

/// Interned variable names: ids in first-seen order, found through a map.
#[derive(Default)]
struct Symbols<'m> {
    names: Vec<String>,
    ids: FxHashMap<&'m str, u32>,
}

impl<'m> Symbols<'m> {
    fn intern(&mut self, name: &'m str) -> u32 {
        let names = &mut self.names;
        *self.ids.entry(name).or_insert_with(|| {
            names.push(name.to_string());
            (names.len() - 1) as u32
        })
    }
}

/// A program ready for execution: module + layout + symbols.
///
/// The layout mimics a conventional process image: globals live in a data
/// segment, locals in per-thread stacks whose frames are reused as calls
/// return — address reuse is what makes variable-lifetime analysis
/// (dissertation §2.3.5) necessary and is reproduced faithfully here.
#[derive(Debug, Clone)]
pub struct Program {
    /// The underlying module.
    pub module: Module,
    /// Symbol table: variable names referenced by `MemEvent::var`.
    symbols: Vec<String>,
    /// Per-global symbol id.
    pub(crate) global_syms: Vec<u32>,
    /// Per-function, per-local symbol id.
    pub(crate) local_syms: Vec<Vec<u32>>,
    /// Per-global base address.
    pub(crate) global_addr: Vec<u64>,
    /// Total words in the global segment.
    pub(crate) global_words: usize,
    /// Per-function, per-local word offset within the frame.
    pub(crate) local_off: Vec<Vec<u64>>,
    /// Per-function frame size in words.
    pub(crate) frame_words: Vec<usize>,
    /// Per-function pre-decoded instruction streams (the tentpole of the
    /// flattened hot path); built once here, executed by [`crate::machine`].
    pub(crate) code: Vec<FuncCode>,
    /// Total number of static memory operations, including mailbox ops.
    num_mem_ops: u32,
    /// First mailbox op id: loads/stores occupy `0..mbox_op_base`,
    /// `send`/`receive` sites `mbox_op_base..num_mem_ops`.
    mbox_op_base: u32,
    /// Interned symbol every mailbox access reports as its variable;
    /// `u32::MAX` when the program has no mailbox ops.
    mbox_sym: u32,
    /// Static metadata per memory op, in id order — collected during
    /// decode, so it never has to be recovered by re-walking the streams.
    mem_meta: Vec<MemOpMeta>,
    /// The module's transitive call-graph effects, under which the static
    /// pass classified: one packed bit row per function.
    effects: analysis::Effects,
    /// The static pass's report: per-loop coverage, independence claims
    /// and lints.
    statics: analysis::StaticReport,
}

impl Program {
    /// Prepare a module for execution. The module must pass
    /// [`mir::verify_module`]; use `lang::compile` to obtain verified
    /// modules from source.
    pub fn new(module: Module) -> Self {
        // Symbol ids in first-seen order: globals, then each function's
        // locals, then the mailbox.
        let mut symbols = Symbols::default();

        let mut global_syms = Vec::new();
        let mut global_addr = Vec::new();
        let mut next = GLOBAL_BASE;
        for g in &module.globals {
            global_syms.push(symbols.intern(&g.name));
            global_addr.push(next);
            next += g.elems * WORD;
        }
        let global_words = ((next - GLOBAL_BASE) / WORD) as usize;

        let mut local_syms = Vec::new();
        let mut local_off = Vec::new();
        let mut frame_words = Vec::new();
        for f in &module.functions {
            let mut syms = Vec::new();
            let mut offs = Vec::new();
            let mut off = 0u64;
            for v in &f.locals {
                syms.push(symbols.intern(&v.name));
                offs.push(off);
                off += v.elems;
            }
            local_syms.push(syms);
            local_off.push(offs);
            frame_words.push(off as usize);
        }

        // Decode pass: lower every function into its flat instruction
        // stream, assigning static memory-op ids in program order.
        let mut ctx = DecodeCtx::new(
            &module,
            &global_addr,
            &global_syms,
            &local_off,
            &local_syms,
            &frame_words,
        );
        let mut code: Vec<FuncCode> = (0..module.functions.len())
            .map(|fx| ctx.decode_function(fx))
            .collect();
        let mbox_op_base = ctx.next_op;
        let num_mem_ops = ctx.next_op + ctx.next_mbox;
        let mut mem_meta = std::mem::take(&mut ctx.mem_meta);
        let mbox_meta = std::mem::take(&mut ctx.mbox_meta);
        // The one static pass: its classified accesses share decode's
        // program-order op ids over `Load`/`Store` instructions.
        let analysis::ModuleAnalysis {
            loops,
            effects,
            accesses,
            report: statics,
        } = analysis::analyze(&module);
        debug_assert_eq!(
            accesses.len(),
            mbox_op_base as usize,
            "static access list must align with decode-time load/store ids"
        );
        // Mailbox ops (`send`/`receive` sites) extend the op-id space past
        // the load/store range: rebase the decode-time ordinals and extend
        // the meta table, so every consumer indexing by `MemEvent::op` —
        // skip vectors, the parallel transport's meta lookup — covers them
        // without the analysis crate having to know about mailboxes.
        let mbox_sym = if mbox_meta.is_empty() {
            u32::MAX
        } else {
            symbols.intern(MAILBOX_VAR)
        };
        for c in code.iter_mut() {
            for e in c.mbox_ops.iter_mut() {
                e.1 += mbox_op_base;
            }
        }
        for (line, is_write) in &mbox_meta {
            mem_meta.push(MemOpMeta {
                line: *line,
                var: mbox_sym,
                is_write: *is_write,
            });
        }
        // Skip-tier plan compilation: with the classified accesses and trip
        // counts in hand, compile each eligible loop's cycle into a
        // straight-line plan the machine can replay without dispatching
        // (see [`crate::synth`]). Mailbox ops lie past the access list, so
        // they are never affine: their addresses are runtime ring positions.
        for (c, floops) in code.iter_mut().zip(&loops) {
            crate::synth::compile_plans(c, &accesses, floops);
        }

        let Symbols { names: symbols, .. } = symbols;
        Program {
            module,
            symbols,
            global_syms,
            local_syms,
            global_addr,
            global_words,
            local_off,
            frame_words,
            code,
            num_mem_ops,
            mbox_op_base,
            mbox_sym,
            mem_meta,
            effects,
            statics,
        }
    }

    /// The pre-decoded instruction streams, one [`FuncCode`] per function.
    pub fn code(&self) -> &[FuncCode] {
        &self.code
    }

    /// Total decoded op slots across all functions (instructions +
    /// flattened terminators) — the size of the flat execution form.
    pub fn num_decoded_ops(&self) -> usize {
        self.code.iter().map(|c| c.hot.len()).sum()
    }

    /// Static address-footprint upper bound in words: the global segment
    /// plus one frame of every function. Engine auto-selection uses this to
    /// choose between the exact shadow memory and the bounded signature
    /// (recursion can exceed it dynamically; it is a sizing heuristic, not
    /// a guarantee).
    pub fn footprint_words(&self) -> usize {
        self.global_words + self.frame_words.iter().sum::<usize>()
    }

    /// Total number of static memory operations in the program: loads and
    /// stores (`0..mailbox_op_base`) followed by `send`/`receive` sites
    /// (`mailbox_op_base..num_mem_ops`). Per-op tables indexed by
    /// [`crate::MemEvent::op`] must be sized by this total.
    pub fn num_mem_ops(&self) -> u32 {
        self.num_mem_ops
    }

    /// First mailbox op id; equals [`Program::num_mem_ops`] when the
    /// program has no `send`/`receive` sites.
    pub fn mailbox_op_base(&self) -> u32 {
        self.mbox_op_base
    }

    /// The interned symbol mailbox accesses report as their variable
    /// ([`MAILBOX_VAR`]), when the program has mailbox ops. Consumers can use it to separate
    /// message-passing traffic from ordinary variable traffic.
    pub fn mailbox_symbol(&self) -> Option<u32> {
        (self.mbox_sym != u32::MAX).then_some(self.mbox_sym)
    }

    /// Per-memory-operation static metadata, indexed by op id
    /// (`0..num_mem_ops`). Every emitted [`crate::MemEvent`] with op id `i`
    /// has exactly `meta[i].line`/`var`/`is_write`, so consumers that
    /// receive the op id can drop those fields from their wire format.
    pub fn mem_op_meta(&self) -> &[MemOpMeta] {
        &self.mem_meta
    }

    /// Transitive call-graph effects per function: which globals a call
    /// may read or write, which functions it may reach.
    pub fn effects(&self) -> &analysis::Effects {
        &self.effects
    }

    /// The static pass's report, computed once at decode: per-loop affine
    /// coverage, independence claims and lints.
    pub fn static_report(&self) -> &analysis::StaticReport {
        &self.statics
    }

    /// Resolve a symbol id to its variable name.
    pub fn symbol(&self, sym: u32) -> &str {
        &self.symbols[sym as usize]
    }

    /// Number of interned symbols.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The base address of a global.
    pub fn global_address(&self, name: &str) -> Option<u64> {
        let (id, _) = self.module.global(name)?;
        Some(self.global_addr[id.index()])
    }

    /// Element type of the cell at a global address, if it is in the global
    /// segment.
    pub fn global_ty_at(&self, addr: u64) -> Option<Ty> {
        if !(GLOBAL_BASE..GLOBAL_BASE + (self.global_words as u64) * WORD).contains(&addr) {
            return None;
        }
        for (i, g) in self.module.globals.iter().enumerate() {
            let base = self.global_addr[i];
            if (base..base + g.elems * WORD).contains(&addr) {
                return Some(g.ty);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mir::{ModuleBuilder, Ty};

    #[test]
    fn layout_assigns_disjoint_global_addresses() {
        let mut mb = ModuleBuilder::new("m");
        mb.global("a", Ty::I64, 4, 1);
        mb.global("b", Ty::F64, 2, 2);
        let p = Program::new(mb.build());
        let a = p.global_address("a").unwrap();
        let b = p.global_address("b").unwrap();
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 4 * WORD);
        assert_eq!(p.global_words, 6);
        assert_eq!(p.global_ty_at(b), Some(Ty::F64));
        assert_eq!(p.global_ty_at(0), None);
    }

    #[test]
    fn analysis_accesses_align_with_mem_op_meta() {
        let src = "global int a[16];\n\
                   global int s;\n\
                   fn main() {\n\
                       for (int i = 0; i < 16; i = i + 1) {\n\
                           s = s + a[i];\n\
                       }\n\
                   }\n";
        let m = lang::compile(src, "t").unwrap();
        let analysed = analysis::analyze(&m);
        let p = Program::new(m);
        let meta = p.mem_op_meta();
        assert_eq!(meta.len() as u32, p.num_mem_ops());
        // Same program-order walk on both sides: op i has the same line
        // and direction in the analysis access list and the decode table.
        assert_eq!(analysed.accesses.len(), meta.len());
        for (i, a) in analysed.accesses.iter().enumerate() {
            assert_eq!(a.op_id as usize, i);
            assert_eq!(a.line, meta[i].line, "op {i} line");
            assert_eq!(a.is_write, meta[i].is_write, "op {i} direction");
        }
        // The a[i] load is affine with stride 1 along the loop; the s
        // accesses are constant-index scalars.
        let region = analysed.loops[0].loops[0].region;
        let affine = || analysed.accesses.iter().filter_map(|a| a.index.as_ref());
        assert!(affine().any(|x| x.coef(analysis::Term::Iter(region)) == 1));
        assert!(affine().any(|x| x.as_constant() == Some(0)));
        // The program keeps the pass's report.
        assert_eq!(p.static_report().loops.len(), 1);
    }

    #[test]
    fn symbols_are_interned_once() {
        let mut mb = ModuleBuilder::new("m");
        mb.global("x", Ty::I64, 1, 1);
        mb.global("y", Ty::I64, 1, 1);
        let p = Program::new(mb.build());
        assert_eq!(p.num_symbols(), 2);
        assert_eq!(p.symbol(p.global_syms[0]), "x");
    }
}
