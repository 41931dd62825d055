//! The affine access classifier: resolves each memory `Place` in a loop
//! nest to `base + Σ stride_i · iv_i` where provable, `Unknown` otherwise.
//!
//! Classification works by symbolic evaluation of the index expression over
//! the (statically single-assignment) register defs, mapping loads of
//! recognized IVs to `init + step·iter` and loads of loop-invariant scalars
//! to opaque symbols, then validating every term against the access's loop
//! chain.

use crate::affine::{Affine, Term};
use crate::bits::BitRows;
use crate::effects::{Effects, FunctionIndex};
use crate::loops::{def_reg, FuncLoops};
use mir::{
    BinOp, BlockId, FuncId, Function, GlobalId, Instr, LocalId, Module, Operand, Place, RegId, Ty,
    UnOp, Value, VarRef,
};

/// The variable a memory access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarKey {
    /// A module global.
    Global(GlobalId),
    /// A function local (of the access's own function).
    Local(LocalId),
}

/// One static memory operation, in program order. `op_id` equals the
/// position in [`crate::ModuleAnalysis::accesses`] and matches the static
/// op ids the interpreter assigns at decode time.
#[derive(Debug, Clone)]
pub struct AccessInfo {
    /// Program-order static op id.
    pub op_id: u32,
    /// Enclosing function.
    pub func: FuncId,
    /// Block and instruction index of the access.
    pub block: BlockId,
    /// Instruction index within the block.
    pub instr: usize,
    /// Source line.
    pub line: u32,
    /// `true` for stores.
    pub is_write: bool,
    /// Accessed variable.
    pub var: VarKey,
    /// Element count of the variable (1 for scalars).
    pub elems: u64,
    /// Affine element index, when provable (scalar places are the constant
    /// 0); `None` means `Unknown`.
    pub index: Option<Affine>,
    /// Enclosing loop chain (indexes into the function's
    /// [`FuncLoops::loops`]), outermost first.
    pub chain: Vec<usize>,
}

/// Per-function symbolic evaluator over register defs.
pub struct Evaluator<'a> {
    module: &'a Module,
    f: &'a Function,
    func: FuncId,
    loops: &'a FuncLoops,
    /// Single static def site per register; `None` for multi-def or no-def.
    defs: Vec<Option<(BlockId, usize)>>,
    /// Memoized evaluation per register.
    memo: Vec<Option<Option<Affine>>>,
    /// Row `l`, bit `local`: a store to the local occurs within loop `l`.
    stores_in: BitRows,
    /// Row `l`, bit `g`: one execution of loop `l` may store to global `g`,
    /// directly or through a call.
    global_stores_in: BitRows,
    /// Per loop: a call in it may (transitively) reach this function.
    recursive_in: Vec<bool>,
    /// Per loop: a call in it may read or write some global.
    calls_touch_globals: Vec<bool>,
}

impl<'a> Evaluator<'a> {
    /// Build the evaluator for one function; `index` resolves its calls.
    pub fn new(
        module: &'a Module,
        func: FuncId,
        loops: &'a FuncLoops,
        effects: &Effects,
        index: &FunctionIndex<'_>,
    ) -> Self {
        let f = &module.functions[func.index()];
        let mut defs: Vec<Option<(BlockId, usize)>> = vec![None; f.num_regs as usize];
        let mut multi = vec![false; f.num_regs as usize];
        for (bid, b) in f.iter_blocks() {
            for (ii, instr) in b.instrs.iter().enumerate() {
                if let Some(r) = def_reg(instr) {
                    let slot = r.index();
                    if defs[slot].is_some() {
                        multi[slot] = true;
                    }
                    defs[slot] = Some((bid, ii));
                }
            }
        }
        for (slot, m) in multi.iter().enumerate() {
            if *m {
                defs[slot] = None;
            }
        }
        // Per-loop store and call summaries, for invariance checks. A
        // callee's rows are already transitive, so each call site ORs in
        // its own target's rows only.
        let nl = loops.loops.len();
        let mut stores_in = BitRows::new(nl, f.locals.len());
        let mut global_stores_in = BitRows::new(nl, module.globals.len());
        let mut recursive_in = vec![false; nl];
        let mut calls_touch_globals = vec![false; nl];
        for (li, lp) in loops.loops.iter().enumerate() {
            for (bid, b) in f.iter_blocks() {
                if !lp.contains(bid) {
                    continue;
                }
                for instr in &b.instrs {
                    match instr {
                        Instr::Store { place, .. } => match place.var {
                            VarRef::Local(l) => stores_in.set(li, l.index()),
                            VarRef::Global(g) => global_stores_in.set(li, g.index()),
                        },
                        Instr::Call { func: name, .. } => {
                            if let Some(target) = index.get(name) {
                                global_stores_in.or_from(li, effects.writes.row(target));
                                recursive_in[li] |= target == func.index()
                                    || effects.callees.get(target, func.index());
                                calls_touch_globals[li] |=
                                    effects.writes.any(target) || effects.reads.any(target);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Evaluator {
            module,
            f,
            func,
            loops,
            defs,
            memo: vec![None; f.num_regs as usize],
            stores_in,
            global_stores_in,
            recursive_in,
            calls_touch_globals,
        }
    }

    /// Whether any store to local `v` occurs within loop `li`.
    pub fn local_stored_in(&self, li: usize, v: LocalId) -> bool {
        self.stores_in.get(li, v.index())
    }

    /// Whether global `g` may be stored during one execution of loop `li`
    /// (directly or via a call).
    pub fn global_stored_in(&self, li: usize, g: GlobalId) -> bool {
        self.global_stores_in.get(li, g.index())
    }

    /// Whether loop `li` may (transitively) call back into this function.
    pub fn recursive_in(&self, li: usize) -> bool {
        self.recursive_in[li]
    }

    /// Whether loop `li` contains a user call with any global effect.
    pub fn calls_touch_globals_in(&self, li: usize) -> bool {
        self.calls_touch_globals[li]
    }

    fn eval_operand(&mut self, o: &Operand, visiting: &mut Vec<RegId>) -> Option<Affine> {
        match o {
            Operand::Const(Value::I64(c)) => Some(Affine::constant(*c)),
            Operand::Const(Value::F64(_)) => None,
            Operand::Reg(r) => self.eval_reg(*r, visiting),
        }
    }

    fn eval_reg(&mut self, r: RegId, visiting: &mut Vec<RegId>) -> Option<Affine> {
        if let Some(cached) = &self.memo[r.index()] {
            return cached.clone();
        }
        if visiting.contains(&r) {
            return None;
        }
        visiting.push(r);
        let out = self.eval_reg_uncached(r, visiting);
        visiting.pop();
        self.memo[r.index()] = Some(out.clone());
        out
    }

    fn eval_reg_uncached(&mut self, r: RegId, visiting: &mut Vec<RegId>) -> Option<Affine> {
        let (bid, ii) = self.defs[r.index()]?;
        let instr = self.f.blocks[bid.index()].instrs[ii].clone();
        match instr {
            Instr::Load {
                place:
                    Place {
                        var: VarRef::Local(v),
                        index: None,
                    },
                ..
            } => {
                let var = &self.f.locals[v.index()];
                if var.elems != 1 || var.ty != Ty::I64 {
                    return None;
                }
                // A load of a recognized IV inside its loop reads
                // `init + step·iter` — provided it executes before the
                // latch store within the iteration.
                for lp in &self.loops.loops {
                    let Some(iv) = &lp.iv else { continue };
                    if iv.local != v || !lp.contains(bid) {
                        continue;
                    }
                    let (sb, si) = iv.store_at;
                    if bid == sb && ii > si {
                        return None; // post-increment position
                    }
                    let step = Affine::term(Term::Iter(lp.region)).scale(iv.step)?;
                    let base = match iv.init {
                        Some(a) => Affine::constant(a),
                        None => Affine::term(Term::IvBase(lp.region)),
                    };
                    return step.add(&base);
                }
                Some(Affine::term(Term::InvLocal(v)))
            }
            Instr::Load {
                place:
                    Place {
                        var: VarRef::Global(g),
                        index: None,
                    },
                ..
            } => {
                let gv = &self.module.globals[g.index()];
                if gv.elems != 1 || gv.ty != Ty::I64 {
                    return None;
                }
                Some(Affine::term(Term::InvGlobal(g)))
            }
            Instr::Load { .. } => None,
            Instr::Bin { op, lhs, rhs, .. } => {
                let a = self.eval_operand(&lhs, visiting)?;
                let b = self.eval_operand(&rhs, visiting)?;
                match op {
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Mul => {
                        if let Some(k) = a.as_constant() {
                            b.scale(k)
                        } else if let Some(k) = b.as_constant() {
                            a.scale(k)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            Instr::Un { op, src, .. } => match op {
                // Affine operands are integer-valued, so int conversion is
                // the identity.
                UnOp::ToI64 => self.eval_operand(&src, visiting),
                UnOp::Neg => self.eval_operand(&src, visiting)?.scale(-1),
                _ => None,
            },
            _ => None,
        }
    }

    /// Validate an evaluated index against the access's loop chain: every
    /// IV term must belong to a chain loop, and every invariant symbol must
    /// actually be invariant across the outermost chain loop.
    fn validate(&self, aff: &Affine, chain: &[usize]) -> bool {
        let outer = chain.first().copied();
        for term in aff.terms.keys() {
            match *term {
                Term::Iter(r) | Term::IvBase(r) => {
                    let Some(li) = self.loops.of_region(r) else {
                        return false;
                    };
                    if !chain.contains(&li) {
                        return false;
                    }
                }
                Term::InvLocal(v) => {
                    if let Some(l0) = outer {
                        if self.local_stored_in(l0, v) {
                            return false;
                        }
                    }
                }
                Term::InvGlobal(g) => {
                    if let Some(l0) = outer {
                        if self.global_stored_in(l0, g) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Classify one access place; returns the validated affine index
    /// (`Some(const 0)` for scalar places) or `None` for `Unknown`.
    pub fn classify_place(&mut self, place: &Place, chain: &[usize]) -> Option<Affine> {
        match &place.index {
            None => Some(Affine::constant(0)),
            Some(op) => {
                let mut visiting = Vec::new();
                let aff = self.eval_operand(op, &mut visiting)?;
                self.validate(&aff, chain).then_some(aff)
            }
        }
    }
}

/// Append every memory access of the evaluator's function to `out`, in
/// program order (matching the interpreter's static op-id assignment),
/// classified.
pub fn collect_function(ev: &mut Evaluator<'_>, out: &mut Vec<AccessInfo>) {
    let (module, f, func, loops) = (ev.module, ev.f, ev.func, ev.loops);
    for (bid, b) in f.iter_blocks() {
        let chain = loops.chain_of(bid);
        for (ii, instr) in b.instrs.iter().enumerate() {
            let (place, is_write, line) = match instr {
                Instr::Load { place, line, .. } => (place, false, *line),
                Instr::Store { place, line, .. } => (place, true, *line),
                _ => continue,
            };
            let (var, elems) = match place.var {
                VarRef::Global(g) => (VarKey::Global(g), module.globals[g.index()].elems),
                VarRef::Local(l) => (VarKey::Local(l), f.locals[l.index()].elems),
            };
            let index = ev.classify_place(place, &chain);
            out.push(AccessInfo {
                op_id: out.len() as u32,
                func,
                block: bid,
                instr: ii,
                line,
                is_write,
                var,
                elems,
                index,
                chain: chain.clone(),
            });
        }
    }
}

/// The run of `func`'s accesses in a module-wide, program-order access
/// list (which is grouped by function in function order).
pub fn accesses_of(accesses: &[AccessInfo], func: FuncId) -> &[AccessInfo] {
    let lo = accesses.partition_point(|a| a.func < func);
    let hi = lo + accesses[lo..].partition_point(|a| a.func == func);
    &accesses[lo..hi]
}
