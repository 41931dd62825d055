//! The reference interpreter: a direct tree-walking executor over
//! [`mir::Instr`], preserved verbatim from the pre-decode implementation.
//!
//! [`crate::machine`] runs the pre-decoded flat instruction stream built at
//! [`Program::new`]; this module keeps the original slow path — per-step
//! frame/block/pc re-resolution, match dispatch on the tree-shaped IR,
//! name-map call resolution, and the `op_ids` side table (re-derived here) —
//! as an independent oracle. The decode layer is pure lowering, so for any
//! program, sink and configuration the two interpreters must produce
//! **byte-identical event streams** and results;
//! `tests/decode_equivalence.rs` pins this on real workloads. Keep this
//! module dumb and obvious: its value is that it cannot share a bug with
//! the decoder. (The only change since the pre-decode implementation is the
//! [`Sink::WANTS_EVENTS`] gate in `emit`, mirroring the machine so both
//! interpreters elide event work for the same sinks.)

// Same panic policy as `machine`: verified-module invariants make these
// lookups infallible, and the oracle must stay dumb and obvious rather
// than grow error plumbing the machine does not have.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::event::{Event, MemEvent, RegionExitEvent, Sink};
use crate::machine::{bin_eval, ActorStats, RunConfig, RunResult, RuntimeError};
use crate::program::{
    word_bits, word_value, Program, GLOBAL_BASE, MAILBOX_BASE, MAILBOX_SLOTS, MAILBOX_SPAN,
    STACK_BASE, STACK_SPAN, WORD,
};
use crate::sched::{ActorId, Scheduler, WaitReason};
use fxhash::FxHashMap;
use mir::{Instr, Operand, Place, RegId, Terminator, Ty, UnOp, Value, VarRef};
use std::collections::VecDeque;

#[derive(Debug)]
struct RegionState {
    region: u32,
    th_steps_at_enter: u64,
    iters: u64,
}

#[derive(Debug)]
struct Frame {
    func: usize,
    block: usize,
    pc: usize,
    regs: Vec<Value>,
    base: usize,
    ret_dst: Option<RegId>,
    regions: Vec<RegionState>,
}

#[derive(Debug)]
struct Thread {
    /// One untagged word per stack word, as in the machine.
    mem: Vec<u64>,
    sp: usize,
    frames: Vec<Frame>,
    buf: Vec<Event>,
    steps: u64,
    ret: Option<Value>,
    mbox: VecDeque<Value>,
    mbox_in: u64,
    mbox_out: u64,
}

enum Target {
    User(usize),
    Builtin(&'static str),
}

const BUILTINS: &[&str] = &[
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
];

/// The reference interpreter. Use [`run_with_config`]; the struct itself is
/// an implementation detail.
struct RefInterp<'p, S: Sink> {
    prog: &'p Program,
    sink: S,
    cfg: RunConfig,
    /// One untagged word per global word, as in the machine.
    globals: Vec<u64>,
    threads: Vec<Thread>,
    locks: FxHashMap<i64, u32>,
    steps: u64,
    user_rng: u64,
    sched: Scheduler,
    msgs_sent: u64,
    msgs_received: u64,
    channels: FxHashMap<(u32, u32), u64>,
    printed: Vec<String>,
    targets: FxHashMap<String, Target>,
    /// Static memory-op ids re-derived from the module:
    /// `op_ids[func][block][pc]`, `u32::MAX` for non-memory instructions.
    /// Mailbox builtin calls (`send`/`receive` not shadowed by a user
    /// function) carry ids appended after the load/store range, in the
    /// same program order the decoder assigns them.
    op_ids: Vec<Vec<Vec<u32>>>,
    batch: Vec<Event>,
    batching: bool,
}

/// Run a program through the reference (tree-walking) interpreter.
pub fn run_with_config<S: Sink>(
    prog: &Program,
    sink: S,
    cfg: RunConfig,
) -> Result<RunResult, RuntimeError> {
    RefInterp::new(prog, sink, cfg)?.run()
}

impl<'p, S: Sink> RefInterp<'p, S> {
    fn new(prog: &'p Program, sink: S, cfg: RunConfig) -> Result<Self, RuntimeError> {
        let mut targets = FxHashMap::default();
        for (i, f) in prog.module.functions.iter().enumerate() {
            targets.insert(f.name.clone(), Target::User(i));
        }
        for b in BUILTINS {
            targets.entry(b.to_string()).or_insert(Target::Builtin(b));
        }
        // Independent re-derivation of the static memory-op id table.
        // Load/store ids come first in program order; mailbox builtin call
        // ids are appended after that range (second walk patches them once
        // the load/store count is known), matching the decoder's layout.
        let mut op_ids = Vec::new();
        let mut next_op = 0u32;
        let mut mbox_slots: Vec<(usize, usize, usize)> = Vec::new();
        for (fi, f) in prog.module.functions.iter().enumerate() {
            let mut per_block = Vec::new();
            for (bi, b) in f.blocks.iter().enumerate() {
                let mut ids = Vec::with_capacity(b.instrs.len());
                for (pi, i) in b.instrs.iter().enumerate() {
                    if i.is_memory_op() {
                        ids.push(next_op);
                        next_op += 1;
                    } else {
                        if let Instr::Call { func: callee, .. } = i {
                            let is_user =
                                matches!(targets.get(callee.as_str()), Some(Target::User(_)));
                            let is_mbox = crate::code::Builtin::from_name(callee)
                                .map(|b| b.is_mailbox_op())
                                .unwrap_or(false);
                            if !is_user && is_mbox {
                                mbox_slots.push((fi, bi, pi));
                            }
                        }
                        ids.push(u32::MAX);
                    }
                }
                per_block.push(ids);
            }
            op_ids.push(per_block);
        }
        for (ord, (fi, bi, pi)) in mbox_slots.into_iter().enumerate() {
            op_ids[fi][bi][pi] = next_op + ord as u32;
        }
        let (main_id, _) = prog.module.function("main").ok_or(RuntimeError::NoMain)?;
        let batching = !cfg.racy_delivery && cfg.effective_batch_cap() >= 2 && sink.batch_hint();
        let mut it = RefInterp {
            prog,
            sink,
            cfg: cfg.clone(),
            globals: vec![0; prog.global_words],
            threads: Vec::new(),
            locks: FxHashMap::default(),
            steps: 0,
            user_rng: cfg.seed | 1,
            sched: Scheduler::new(cfg.seed),
            msgs_sent: 0,
            msgs_received: 0,
            channels: FxHashMap::default(),
            printed: Vec::new(),
            targets,
            op_ids,
            batch: Vec::with_capacity(if batching { cfg.batch_cap } else { 0 }),
            batching,
        };
        it.spawn_thread(main_id.index(), &[], None, 0);
        Ok(it)
    }

    fn user_next(&mut self) -> u64 {
        let mut x = self.user_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.user_rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn spawn_thread(&mut self, func: usize, args: &[Value], parent: Option<u32>, line: u32) -> u32 {
        let tid = self.threads.len() as u32;
        let mut th = Thread {
            mem: Vec::new(),
            sp: 0,
            frames: Vec::new(),
            buf: Vec::new(),
            steps: 0,
            ret: None,
            mbox: VecDeque::new(),
            mbox_in: 0,
            mbox_out: 0,
        };
        Self::push_frame_raw(self.prog, &mut th, func, args, None);
        self.threads.push(th);
        let aid = self.sched.spawn();
        debug_assert_eq!(aid.0, tid, "scheduler ids track thread ids");
        if let Some(p) = parent {
            self.emit(
                p as usize,
                Event::ThreadSpawn {
                    parent: p,
                    child: tid,
                    line,
                },
            );
            self.flush(p as usize);
        }
        let f = &self.prog.module.functions[func];
        self.emit(
            tid as usize,
            Event::FuncEnter {
                func: func as u32,
                line: f.start_line,
                thread: tid,
            },
        );
        tid
    }

    fn push_frame_raw(
        prog: &Program,
        th: &mut Thread,
        func: usize,
        args: &[Value],
        ret_dst: Option<RegId>,
    ) {
        let f = &prog.module.functions[func];
        let base = th.sp;
        let need = base + prog.frame_words[func];
        if th.mem.len() < need {
            th.mem.resize(need, 0);
        }
        th.sp = need;
        for (i, a) in args.iter().enumerate() {
            let off = prog.local_off[func][i] as usize;
            th.mem[base + off] = word_bits(*a);
        }
        th.frames.push(Frame {
            func,
            block: 0,
            pc: 0,
            regs: vec![Value::I64(0); f.num_regs as usize],
            base,
            ret_dst,
            regions: Vec::new(),
        });
    }

    #[inline]
    fn emit(&mut self, t: usize, ev: Event) {
        if !S::WANTS_EVENTS {
            return;
        }
        if self.batching {
            self.batch.push(ev);
            if self.batch.len() >= self.cfg.batch_cap {
                self.flush_batch();
            }
        } else if self.cfg.racy_delivery {
            self.threads[t].buf.push(ev);
            if self.threads[t].buf.len() >= self.cfg.buffer_cap {
                self.flush(t);
            }
        } else {
            self.sink.event(&ev);
        }
    }

    fn flush_batch(&mut self) {
        if !self.batch.is_empty() {
            self.sink.events(&self.batch);
            self.batch.clear();
        }
    }

    fn flush(&mut self, t: usize) {
        if !self.cfg.racy_delivery {
            return;
        }
        self.sink.events(&self.threads[t].buf);
        self.threads[t].buf.clear();
    }

    fn run(mut self) -> Result<RunResult, RuntimeError> {
        let outcome = self.exec();
        for t in 0..self.threads.len() {
            self.flush(t);
        }
        self.flush_batch();
        outcome?;
        let mut channels: Vec<(u32, u32, u64)> = self
            .channels
            .iter()
            .map(|(&(from, to), &count)| (from, to, count))
            .collect();
        channels.sort_unstable();
        Ok(RunResult {
            ret: self.threads[0].ret,
            printed: self.printed,
            steps: self.steps,
            // The tree-walker dispatches every instruction individually
            // and never skips: each step is one dispatch, no synthesis.
            dispatches: self.steps,
            synth: crate::machine::SynthStats::default(),
            threads: self.threads.len() as u32,
            actors: ActorStats {
                spawned: self.sched.spawned(),
                peak_live: self.sched.peak_live(),
                sent: self.msgs_sent,
                received: self.msgs_received,
                channels,
            },
            interrupted: false,
        })
    }

    /// The scheduler loop, mirroring `machine::Interp::exec` call for
    /// call: same picks, same quantum draws, same park/wake — so the two
    /// interpreters make identical scheduling decisions.
    fn exec(&mut self) -> Result<(), RuntimeError> {
        loop {
            if self.steps > self.cfg.max_steps {
                return Err(RuntimeError::StepLimit);
            }
            let Some(a) = self.sched.pick() else {
                if self.sched.all_dead() {
                    break;
                }
                return Err(RuntimeError::Deadlock {
                    waiting: self.sched.blocked_actors(),
                });
            };
            let t = a.index();
            let q = self.sched.next_quantum(self.cfg.quantum);
            for _ in 0..q {
                if !self.sched.is_ready(a) {
                    break;
                }
                self.step(t)?;
            }
            self.sched.yield_back(a);
        }
        Ok(())
    }

    #[inline]
    fn reg(&self, t: usize, r: RegId) -> Value {
        self.threads[t].frames.last().unwrap().regs[r.index()]
    }

    #[inline]
    fn op_val(&self, t: usize, op: &Operand) -> Value {
        match op {
            Operand::Reg(r) => self.reg(t, *r),
            Operand::Const(v) => *v,
        }
    }

    #[inline]
    fn set_reg(&mut self, t: usize, r: RegId, v: Value) {
        *self.threads[t]
            .frames
            .last_mut()
            .unwrap()
            .regs
            .get_mut(r.index())
            .unwrap() = v;
    }

    /// Resolve a place to `(address, is_global, storage slot, symbol,
    /// declared float)`, checking bounds.
    fn resolve(
        &self,
        t: usize,
        place: &Place,
        line: u32,
    ) -> Result<(u64, bool, usize, u32, bool), RuntimeError> {
        let idx = match &place.index {
            Some(op) => self.op_val(t, op).as_i64(),
            None => 0,
        };
        let fr = self.threads[t].frames.last().unwrap();
        match place.var {
            VarRef::Global(g) => {
                let gv = &self.prog.module.globals[g.index()];
                if idx < 0 || idx as u64 >= gv.elems {
                    return Err(RuntimeError::OutOfBounds {
                        line,
                        var: gv.name.clone(),
                        index: idx,
                    });
                }
                let addr = self.prog.global_addr[g.index()] + idx as u64 * WORD;
                let slot = ((addr - GLOBAL_BASE) / WORD) as usize;
                Ok((
                    addr,
                    true,
                    slot,
                    self.prog.global_syms[g.index()],
                    gv.ty == Ty::F64,
                ))
            }
            VarRef::Local(l) => {
                let lv = &self.prog.module.functions[fr.func].locals[l.index()];
                if idx < 0 || idx as u64 >= lv.elems {
                    return Err(RuntimeError::OutOfBounds {
                        line,
                        var: lv.name.clone(),
                        index: idx,
                    });
                }
                let word = fr.base as u64 + self.prog.local_off[fr.func][l.index()] + idx as u64;
                let addr = STACK_BASE + t as u64 * STACK_SPAN + word * WORD;
                Ok((
                    addr,
                    false,
                    word as usize,
                    self.prog.local_syms[fr.func][l.index()],
                    lv.ty == Ty::F64,
                ))
            }
        }
    }

    fn step(&mut self, t: usize) -> Result<(), RuntimeError> {
        let prog = self.prog;
        let fr = self.threads[t].frames.last().unwrap();
        let func_idx = fr.func;
        let f = &prog.module.functions[func_idx];
        let block_idx = fr.block;
        let block = &f.blocks[block_idx];
        let pc = fr.pc;
        self.steps += 1;
        self.threads[t].steps += 1;

        if pc >= block.instrs.len() {
            return self.terminator(t, func_idx, &block.term);
        }
        let instr = &block.instrs[pc];
        match instr {
            Instr::Load { dst, place, line } => {
                let (addr, is_global, slot, sym, float) = self.resolve(t, place, *line)?;
                let w = if is_global {
                    self.globals[slot]
                } else {
                    self.threads[t].mem[slot]
                };
                let v = word_value(w, float);
                self.set_reg(t, *dst, v);
                let ts = self.steps;
                let op = self.op_ids[func_idx][self.threads[t].frames.last().unwrap().block][pc];
                self.emit(
                    t,
                    Event::Mem(MemEvent {
                        is_write: false,
                        addr,
                        op,
                        line: *line,
                        var: sym,
                        thread: t as u32,
                        ts,
                    }),
                );
                self.advance(t);
            }
            Instr::Store { place, src, line } => {
                let v = self.op_val(t, src);
                let (addr, is_global, slot, sym, _) = self.resolve(t, place, *line)?;
                if is_global {
                    self.globals[slot] = word_bits(v);
                } else {
                    self.threads[t].mem[slot] = word_bits(v);
                }
                let ts = self.steps;
                let op = self.op_ids[func_idx][self.threads[t].frames.last().unwrap().block][pc];
                self.emit(
                    t,
                    Event::Mem(MemEvent {
                        is_write: true,
                        addr,
                        op,
                        line: *line,
                        var: sym,
                        thread: t as u32,
                        ts,
                    }),
                );
                self.advance(t);
            }
            Instr::Bin {
                dst,
                op,
                lhs,
                rhs,
                line,
            } => {
                let a = self.op_val(t, lhs);
                let b = self.op_val(t, rhs);
                let v = bin_eval(*op, a, b, *line)?;
                self.set_reg(t, *dst, v);
                self.advance(t);
            }
            Instr::Un { dst, op, src, .. } => {
                let v = self.op_val(t, src);
                let r = match op {
                    UnOp::Neg => match v {
                        Value::I64(x) => Value::I64(x.wrapping_neg()),
                        Value::F64(x) => Value::F64(-x),
                    },
                    UnOp::Not => Value::I64(i64::from(!v.is_truthy())),
                    UnOp::ToF64 => Value::F64(v.as_f64()),
                    UnOp::ToI64 => Value::I64(v.as_i64()),
                };
                self.set_reg(t, *dst, r);
                self.advance(t);
            }
            Instr::Call {
                dst,
                func: callee,
                args,
                line,
            } => {
                let vals: Vec<Value> = args.iter().map(|a| self.op_val(t, a)).collect();
                match self.targets.get(callee.as_str()) {
                    Some(Target::User(fi)) => {
                        let fi = *fi;
                        self.advance(t);
                        let dst = *dst;
                        let th = &mut self.threads[t];
                        Self::push_frame_raw(prog, th, fi, &vals, dst);
                        let callee_f = &prog.module.functions[fi];
                        let start = callee_f.start_line;
                        self.emit(
                            t,
                            Event::FuncEnter {
                                func: fi as u32,
                                line: start,
                                thread: t as u32,
                            },
                        );
                    }
                    Some(Target::Builtin(name)) => {
                        let name = *name;
                        let dst = *dst;
                        let line = *line;
                        // Mailbox builtins carry their appended static
                        // memory-op id in the same table as loads/stores.
                        let mbox_op = self.op_ids[func_idx][block_idx][pc];
                        self.builtin(t, name, &vals, dst, line, mbox_op)?;
                    }
                    None => return Err(RuntimeError::UnknownFunction(callee.clone())),
                }
            }
            Instr::RegionEnter { region, line } => {
                let r = &f.regions[region.index()];
                let th_steps = self.threads[t].steps;
                self.threads[t]
                    .frames
                    .last_mut()
                    .unwrap()
                    .regions
                    .push(RegionState {
                        region: region.0,
                        th_steps_at_enter: th_steps,
                        iters: 0,
                    });
                self.emit(
                    t,
                    Event::RegionEnter {
                        func: func_idx as u32,
                        region: region.0,
                        kind: r.kind,
                        start_line: *line,
                        end_line: r.end_line,
                        thread: t as u32,
                    },
                );
                self.advance(t);
            }
            Instr::RegionExit { region, .. } => {
                self.pop_regions_through(t, func_idx, region.0);
                self.advance(t);
            }
            Instr::LoopIter { region, .. } => {
                self.pop_regions_above(t, func_idx, region.0);
                self.emit(
                    t,
                    Event::LoopIter {
                        func: func_idx as u32,
                        region: region.0,
                        thread: t as u32,
                    },
                );
                self.advance(t);
            }
            Instr::LoopBody { region, .. } => {
                let fr = self.threads[t].frames.last_mut().unwrap();
                if let Some(top) = fr.regions.last_mut() {
                    if top.region == region.0 {
                        top.iters += 1;
                    }
                }
                self.advance(t);
            }
        }
        Ok(())
    }

    #[inline]
    fn advance(&mut self, t: usize) {
        self.threads[t].frames.last_mut().unwrap().pc += 1;
    }

    fn pop_regions_above(&mut self, t: usize, func_idx: usize, region: u32) {
        loop {
            let fr = self.threads[t].frames.last().unwrap();
            match fr.regions.last() {
                Some(top) if top.region != region => {
                    self.pop_one_region(t, func_idx);
                }
                _ => break,
            }
        }
    }

    fn pop_regions_through(&mut self, t: usize, func_idx: usize, region: u32) {
        self.pop_regions_above(t, func_idx, region);
        let fr = self.threads[t].frames.last().unwrap();
        if fr.regions.last().map(|r| r.region) == Some(region) {
            self.pop_one_region(t, func_idx);
        }
    }

    fn pop_one_region(&mut self, t: usize, func_idx: usize) {
        let th_steps = self.threads[t].steps;
        let fr = self.threads[t].frames.last_mut().unwrap();
        let st = fr.regions.pop().expect("region stack underflow");
        let frame_base = fr.base as u64;
        let rinfo = &self.prog.module.functions[func_idx].regions[st.region as usize];
        let ev = Event::RegionExit(RegionExitEvent {
            func: func_idx as u32,
            region: st.region,
            kind: rinfo.kind,
            start_line: rinfo.start_line,
            end_line: rinfo.end_line,
            iters: st.iters,
            dyn_instrs: th_steps - st.th_steps_at_enter,
            thread: t as u32,
        });
        self.emit(t, ev);
        let owned = rinfo.owned_locals.clone();
        for l in owned {
            let off = self.prog.local_off[func_idx][l.index()];
            let words = self.prog.module.functions[func_idx].locals[l.index()].elems;
            let addr = STACK_BASE + t as u64 * STACK_SPAN + (frame_base + off) * WORD;
            self.emit(
                t,
                Event::VarDealloc {
                    addr,
                    words,
                    thread: t as u32,
                },
            );
        }
    }

    fn terminator(
        &mut self,
        t: usize,
        func_idx: usize,
        term: &Terminator,
    ) -> Result<(), RuntimeError> {
        match term {
            Terminator::Jump(b) => {
                let fr = self.threads[t].frames.last_mut().unwrap();
                fr.block = b.index();
                fr.pc = 0;
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = self.op_val(t, cond);
                let fr = self.threads[t].frames.last_mut().unwrap();
                fr.block = if v.is_truthy() {
                    then_bb.index()
                } else {
                    else_bb.index()
                };
                fr.pc = 0;
            }
            Terminator::Return(v) => {
                let val = v.as_ref().map(|o| self.op_val(t, o));
                while !self.threads[t].frames.last().unwrap().regions.is_empty() {
                    self.pop_one_region(t, func_idx);
                }
                let f = &self.prog.module.functions[func_idx];
                let end_line = f.end_line;
                let fr = self.threads[t].frames.pop().unwrap();
                let words = self.prog.frame_words[func_idx] as u64;
                if words > 0 {
                    let addr = STACK_BASE + t as u64 * STACK_SPAN + fr.base as u64 * WORD;
                    self.emit(
                        t,
                        Event::VarDealloc {
                            addr,
                            words,
                            thread: t as u32,
                        },
                    );
                }
                self.emit(
                    t,
                    Event::FuncExit {
                        func: func_idx as u32,
                        line: end_line,
                        thread: t as u32,
                    },
                );
                self.threads[t].sp = fr.base;
                if self.threads[t].frames.is_empty() {
                    self.sched.actor_died(ActorId(t as u32));
                    self.threads[t].ret = val;
                    self.emit(t, Event::ThreadEnd { thread: t as u32 });
                    self.flush(t);
                } else if let (Some(dst), Some(v)) = (fr.ret_dst, val) {
                    self.set_reg(t, dst, v);
                }
            }
            Terminator::Unreachable => unreachable!("verified IR has no unreachable terminators"),
        }
        Ok(())
    }

    fn builtin(
        &mut self,
        t: usize,
        name: &str,
        args: &[Value],
        dst: Option<RegId>,
        line: u32,
        mbox_op: u32,
    ) -> Result<(), RuntimeError> {
        let mut result: Option<Value> = None;
        match name {
            "print" => {
                let s = args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                self.printed.push(s);
            }
            "sqrt" => result = Some(Value::F64(args[0].as_f64().sqrt())),
            "sin" => result = Some(Value::F64(args[0].as_f64().sin())),
            "cos" => result = Some(Value::F64(args[0].as_f64().cos())),
            "exp" => result = Some(Value::F64(args[0].as_f64().exp())),
            "log" => result = Some(Value::F64(args[0].as_f64().ln())),
            "fabs" => result = Some(Value::F64(args[0].as_f64().abs())),
            "floor" => result = Some(Value::F64(args[0].as_f64().floor())),
            "ceil" => result = Some(Value::F64(args[0].as_f64().ceil())),
            "pow" => result = Some(Value::F64(args[0].as_f64().powf(args[1].as_f64()))),
            "fmin" => result = Some(Value::F64(args[0].as_f64().min(args[1].as_f64()))),
            "fmax" => result = Some(Value::F64(args[0].as_f64().max(args[1].as_f64()))),
            "abs" => result = Some(Value::I64(args[0].as_i64().wrapping_abs())),
            "min" => result = Some(Value::I64(args[0].as_i64().min(args[1].as_i64()))),
            "max" => result = Some(Value::I64(args[0].as_i64().max(args[1].as_i64()))),
            "rand" => {
                let v = (self.user_next() >> 33) as i64;
                result = Some(Value::I64(v));
            }
            "frand" => {
                let v = (self.user_next() >> 11) as f64 / (1u64 << 53) as f64;
                result = Some(Value::F64(v));
            }
            "srand" => {
                self.user_rng = (args[0].as_i64() as u64) | 1;
            }
            "tid" => result = Some(Value::I64(t as i64)),
            "spawn" => {
                let fi = args[0].as_i64() as usize;
                let child = self.spawn_thread(fi, &args[1..], Some(t as u32), line);
                result = Some(Value::I64(child as i64));
            }
            "join" => {
                let target = args[0].as_i64();
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(RuntimeError::BadJoin { line });
                }
                if !self.sched.is_dead(ActorId(target as u32)) {
                    self.sched
                        .park(ActorId(t as u32), WaitReason::Join(ActorId(target as u32)));
                    return Ok(());
                }
                self.emit(
                    t,
                    Event::ThreadJoin {
                        thread: t as u32,
                        target: target as u32,
                        line,
                    },
                );
                self.flush(t);
            }
            "lock" => {
                let id = args[0].as_i64();
                match self.locks.get(&id) {
                    None => {
                        self.locks.insert(id, t as u32);
                        self.emit(
                            t,
                            Event::LockAcquire {
                                id,
                                thread: t as u32,
                                line,
                            },
                        );
                    }
                    Some(holder) if *holder == t as u32 => {
                        return Err(RuntimeError::RecursiveLock { line })
                    }
                    Some(_) => {
                        self.sched.park(ActorId(t as u32), WaitReason::Lock(id));
                        return Ok(());
                    }
                }
            }
            "unlock" => {
                let id = args[0].as_i64();
                if self.locks.get(&id) != Some(&(t as u32)) {
                    return Err(RuntimeError::BadUnlock { line });
                }
                self.emit(
                    t,
                    Event::LockRelease {
                        id,
                        thread: t as u32,
                        line,
                    },
                );
                self.flush(t);
                self.locks.remove(&id);
                self.sched.lock_released(id);
            }
            "spawn_actor" => {
                let fi = args[0].as_i64() as usize;
                let child = self.spawn_thread(fi, &args[1..], Some(t as u32), line);
                result = Some(Value::I64(child as i64));
            }
            "send" => {
                let target = args[0].as_i64();
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(RuntimeError::BadSend { line });
                }
                let tgt = target as usize;
                let cap = self.cfg.mailbox_cap.max(1);
                if self.threads[tgt].mbox.len() >= cap {
                    self.sched
                        .park(ActorId(t as u32), WaitReason::SendCap(ActorId(tgt as u32)));
                    return Ok(());
                }
                let seq = self.threads[tgt].mbox_in;
                self.threads[tgt].mbox_in += 1;
                self.threads[tgt].mbox.push_back(args[1]);
                let slot = (seq % cap as u64) % MAILBOX_SLOTS;
                let addr = MAILBOX_BASE + tgt as u64 * MAILBOX_SPAN + slot * WORD;
                self.emit(
                    t,
                    Event::Mem(MemEvent {
                        is_write: true,
                        addr,
                        op: mbox_op,
                        line,
                        var: self.prog.mailbox_symbol().unwrap_or(0),
                        thread: t as u32,
                        ts: self.steps,
                    }),
                );
                self.flush(t);
                self.msgs_sent += 1;
                *self.channels.entry((t as u32, tgt as u32)).or_insert(0) += 1;
                self.sched.message_arrived(ActorId(tgt as u32));
            }
            "receive" => {
                let Some(val) = self.threads[t].mbox.pop_front() else {
                    self.sched.park(ActorId(t as u32), WaitReason::Receive);
                    return Ok(());
                };
                let seq = self.threads[t].mbox_out;
                self.threads[t].mbox_out += 1;
                let cap = self.cfg.mailbox_cap.max(1);
                let slot = (seq % cap as u64) % MAILBOX_SLOTS;
                let addr = MAILBOX_BASE + t as u64 * MAILBOX_SPAN + slot * WORD;
                self.emit(
                    t,
                    Event::Mem(MemEvent {
                        is_write: false,
                        addr,
                        op: mbox_op,
                        line,
                        var: self.prog.mailbox_symbol().unwrap_or(0),
                        thread: t as u32,
                        ts: self.steps,
                    }),
                );
                self.flush(t);
                self.msgs_received += 1;
                result = Some(val);
                self.sched.mailbox_slot_freed(ActorId(t as u32));
            }
            other => return Err(RuntimeError::UnknownFunction(other.to_string())),
        }
        if let (Some(d), Some(v)) = (dst, result) {
            self.set_reg(t, d, v);
        }
        self.advance(t);
        Ok(())
    }
}
