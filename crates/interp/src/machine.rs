//! The interpreter core: frames, heap, builtins, and the deterministic
//! multi-thread scheduler, executing the pre-decoded instruction stream.
//!
//! The run loop dispatches over [`crate::code::HotOp`] — the compact flat
//! form built at [`Program::new`] — with the current frame's code slice and
//! pc cached in locals for the duration of a scheduler slice. The pc is
//! written back to the frame only when the frame changes (call/return), the
//! thread blocks, or the slice's step budget runs out. Every dispatch
//! executes one slot and charges one step. [`crate::reference`] keeps the
//! original tree-walking loop as an equivalence oracle: both interpreters
//! must emit byte-identical event streams.

// The execution core leans on machine invariants — a ready thread always
// has a frame, decoded operands index in-bounds side pools — established
// by `mir::verify_module` plus the decode pass. A failed lookup here is an
// interpreter bug, not bad input: panicking is correct, and threading
// `Result` through the dispatch loop would tax every step.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::code::{Builtin, FuncCode, HotOp, MemRef, Opnd, DST_NONE};
use crate::event::{Event, MemEvent, PlanRun, RegionExitEvent, RunStream, Sink};
use crate::program::{
    word_bits, word_value, Program, GLOBAL_BASE, MAILBOX_BASE, MAILBOX_SLOTS, MAILBOX_SPAN,
    STACK_BASE, STACK_SPAN, WORD,
};
use crate::sched::{ActorId, Scheduler, WaitReason};
use crate::synth::{LoopPlan, PlanOp};
use fxhash::{FxHashMap, FxHashSet};
use mir::{BinOp, RegId, UnOp, Value};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;

#[cfg(test)]
use std::collections::HashMap;

/// Execution limits and scheduling parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Abort after this many executed instructions.
    pub max_steps: u64,
    /// Base scheduler quantum (instructions per slice).
    pub quantum: u32,
    /// Seed for both the scheduler jitter and the program-visible `rand()`.
    pub seed: u64,
    /// Buffer events per thread and flush only at synchronization points,
    /// reproducing out-of-order event delivery of real threads
    /// (dissertation Fig. 2.4). Off by default for determinism.
    pub racy_delivery: bool,
    /// Per-thread event buffer capacity in racy mode.
    pub buffer_cap: usize,
    /// Events coalesced per [`Sink::events`] delivery when the sink opts in
    /// via [`Sink::batch_hint`] (deterministic mode only; racy mode batches
    /// per thread through `buffer_cap`).
    ///
    /// Values below 2 disable batching: a batch of one event is just a
    /// per-event call with extra buffering, so `0` and `1` are equivalent
    /// and both normalize to `1` (see [`RunConfig::effective_batch_cap`]).
    pub batch_cap: usize,
    /// Cooperative cancellation: checked once per scheduler slice; when set
    /// to `true` the run stops and [`Interp::run`] returns a [`RunResult`]
    /// with [`RunResult::interrupted`] set. Sinks observe the complete
    /// emitted event prefix, so a profiler can still assemble a partial
    /// result. `None` (the default) costs nothing.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Engage the affine skip tier: loops whose cycles compiled to a
    /// [`crate::synth::LoopPlan`] execute through the plan replayer instead
    /// of the dispatch loop. Observationally invisible — same events, same
    /// timestamps, same step accounting — so it defaults to on; the knob
    /// exists for differential testing and for callers that want dispatch
    /// counts of the pure interpreter.
    pub affine_skip: bool,
    /// Fault injection for the skip tier: after this many synthesized
    /// cycles, the tier permanently disables itself mid-run (counted as a
    /// `fallback_fault`), forcing the drop back to full interpretation at a
    /// genuinely mid-loop point. `None` (the default) never trips.
    pub affine_skip_fault: Option<u64>,
    /// Bounded mailbox capacity per actor: `send` to a full mailbox parks
    /// the sender until the receiver drains a slot. Values below 1
    /// normalize to 1.
    pub mailbox_cap: usize,
}

impl RunConfig {
    /// The batch size actually used: `batch_cap`, with the degenerate
    /// values `0` and `1` both normalized to `1` (per-event delivery).
    pub fn effective_batch_cap(&self) -> usize {
        self.batch_cap.max(1)
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 2_000_000_000,
            quantum: 64,
            seed: 0x5eed,
            racy_delivery: false,
            buffer_cap: 64,
            batch_cap: 256,
            stop: None,
            affine_skip: true,
            affine_skip_fault: None,
            mailbox_cap: 64,
        }
    }
}

/// Activity counters of the affine skip tier during one run (see
/// [`crate::synth`]). All zeros when the tier is disabled or no loop
/// qualified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Distinct loops whose plan engaged at least once.
    pub loops: u64,
    /// Full loop cycles replayed through plans.
    pub cycles: u64,
    /// Memory accesses executed by the plan replayer: delivered as events,
    /// or inside a [`PlanRun`] to a sink that takes runs.
    pub accesses: u64,
    /// Plan executions that parked mid-cycle on slice-budget exhaustion and
    /// resumed under full interpretation. Only a contended thread parks; a
    /// lone one re-slices in place.
    pub fallback_budget: u64,
    /// Engagements skipped because a runtime precondition did not hold
    /// (the loop's region was not on top of the region stack).
    pub fallback_precondition: u64,
    /// The injected fault ([`RunConfig::affine_skip_fault`]) tripped and
    /// disabled the tier mid-loop.
    pub fallback_fault: u64,
}

impl SynthStats {
    /// Total fallbacks across all reasons.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_budget + self.fallback_precondition + self.fallback_fault
    }
}

/// Message-passing activity of one run: actor population and per-channel
/// traffic. All zeros/empty for programs that never spawn or send — the
/// main thread alone counts as one spawned actor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActorStats {
    /// Actors that existed, including the main actor (same number as
    /// [`RunResult::threads`]; every thread is an actor).
    pub spawned: u32,
    /// High-water mark of simultaneously live actors.
    pub peak_live: u32,
    /// Messages delivered into mailboxes (`send` completions).
    pub sent: u64,
    /// Messages taken out of mailboxes (`receive` completions).
    pub received: u64,
    /// Per-channel send counts `(from, to, messages)`, sorted by
    /// `(from, to)` — the communication matrix in sparse form.
    pub channels: Vec<(u32, u32, u64)>,
}

/// Result of a successful run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Return value of `main`.
    pub ret: Option<Value>,
    /// Output of `print` calls, in execution order.
    pub printed: Vec<String>,
    /// Total executed instructions across all threads.
    pub steps: u64,
    /// Dispatch-loop iterations: how many times the interpreter actually
    /// dispatched an op — `steps` minus the plan-replayed steps. `steps` is
    /// the architectural count (identical under every skip configuration),
    /// `dispatches` is the work the interpreter did to produce it — the
    /// skip tier's perf claim is measured here.
    pub dispatches: u64,
    /// Affine skip tier activity counters.
    pub synth: SynthStats,
    /// Number of threads that existed (including main).
    pub threads: u32,
    /// Actor population and message-passing traffic.
    pub actors: ActorStats,
    /// The run was cancelled through [`RunConfig::stop`] before completion:
    /// `printed`/`steps` cover the executed prefix and `ret` is `None`.
    /// Cooperative cancellation is not a failure — the caller that set the
    /// flag gets the partial result instead of an error.
    pub interrupted: bool,
}

/// Runtime failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The module has no `main` function.
    NoMain,
    /// A call resolved to nothing.
    UnknownFunction(String),
    /// Array index out of bounds.
    OutOfBounds { line: u32, var: String, index: i64 },
    /// Integer division or remainder by zero.
    DivByZero { line: u32 },
    /// All live actors are blocked. `waiting` lists every parked actor
    /// with the resource it waits on, in actor-id order — the cycle is in
    /// here (each waited-on join target/lock holder/mailbox owner is
    /// itself in the list or dead).
    Deadlock { waiting: Vec<(u32, WaitReason)> },
    /// `max_steps` exceeded.
    StepLimit,
    /// `unlock` of a lock not held by the calling thread.
    BadUnlock { line: u32 },
    /// `lock` re-acquired by its holder.
    RecursiveLock { line: u32 },
    /// `join` of an unknown thread id.
    BadJoin { line: u32 },
    /// `send` to an unknown actor id.
    BadSend { line: u32 },
    /// The run was cancelled through [`RunConfig::stop`]. Internal to the
    /// scheduler loop: [`Interp::run`] converts it into a [`RunResult`]
    /// with [`RunResult::interrupted`] set, so callers see the partial
    /// result rather than this error.
    Interrupted,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoMain => write!(f, "no `main` function"),
            RuntimeError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            RuntimeError::OutOfBounds { line, var, index } => {
                write!(f, "line {line}: `{var}[{index}]` out of bounds")
            }
            RuntimeError::DivByZero { line } => write!(f, "line {line}: division by zero"),
            RuntimeError::Deadlock { waiting } => {
                write!(f, "deadlock: {} actor(s) blocked", waiting.len())?;
                // Keep the report readable at 10k-actor scale.
                for (a, r) in waiting.iter().take(8) {
                    write!(f, "; actor {a} waiting on {r}")?;
                }
                if waiting.len() > 8 {
                    write!(f, "; … {} more", waiting.len() - 8)?;
                }
                Ok(())
            }
            RuntimeError::StepLimit => write!(f, "step limit exceeded"),
            RuntimeError::BadUnlock { line } => write!(f, "line {line}: unlock of unheld lock"),
            RuntimeError::RecursiveLock { line } => {
                write!(f, "line {line}: recursive lock acquisition")
            }
            RuntimeError::BadJoin { line } => write!(f, "line {line}: join of unknown thread"),
            RuntimeError::BadSend { line } => write!(f, "line {line}: send to unknown actor"),
            RuntimeError::Interrupted => write!(f, "run interrupted"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[derive(Debug)]
struct RegionState {
    region: u32,
    th_steps_at_enter: u64,
    iters: u64,
}

#[derive(Debug)]
struct Frame {
    func: usize,
    /// Absolute pc into the function's decoded op stream.
    pc: usize,
    regs: Vec<Value>,
    /// Word offset of this frame in the thread stack.
    base: usize,
    /// Register in the *caller's* frame receiving the return value.
    ret_dst: Option<RegId>,
    regions: Vec<RegionState>,
}

#[derive(Debug)]
struct Thread {
    /// The thread's stack, one untagged word per target word, frames laid
    /// end to end from word 0 (a frame's locals start at its
    /// [`Frame::base`]). It only grows; a returning frame leaves its words
    /// behind for the next call to reuse. [`Interp::access`] reads a word
    /// back as its variable's declared type.
    mem: Vec<u64>,
    sp: usize,
    frames: Vec<Frame>,
    buf: Vec<Event>,
    steps: u64,
    ret: Option<Value>,
    /// Bounded mailbox (capacity [`RunConfig::mailbox_cap`]); lifecycle
    /// state lives in the [`Scheduler`].
    mbox: VecDeque<Value>,
    /// Messages ever delivered into this mailbox (tail ring sequence).
    mbox_in: u64,
    /// Messages ever taken out (head ring sequence).
    mbox_out: u64,
}

/// The interpreter. Construct with [`Interp::new`], execute with
/// [`Interp::run`]; or use the [`run`]/[`run_with_config`] helpers.
pub struct Interp<'p, S: Sink> {
    prog: &'p Program,
    sink: S,
    cfg: RunConfig,
    /// The global data segment, one untagged word per target word
    /// (`Program::global_words` of them, all zero bits at start).
    /// [`Interp::access`] reads a word back as its variable's declared
    /// type.
    globals: Vec<u64>,
    threads: Vec<Thread>,
    /// The run queue: ready/sleeping/dead accounting, typed park/wake,
    /// and the seeded slice jitter (see [`crate::sched`]).
    sched: Scheduler,
    locks: FxHashMap<i64, u32>,
    steps: u64,
    user_rng: u64,
    printed: Vec<String>,
    /// Messages delivered / taken out, and the per-channel send counts.
    msgs_sent: u64,
    msgs_received: u64,
    channels: FxHashMap<(u32, u32), u64>,
    /// Reusable call-argument buffer: evaluating call operands never
    /// allocates in steady state.
    call_buf: Vec<Value>,
    /// Reusable event batch (deterministic mode, batching sinks).
    batch: Vec<Event>,
    /// Resolved once at construction: `batch_hint` of the sink, gated on
    /// the config. Checked on every emit, so it must be a plain bool.
    batching: bool,
    /// Dispatch-loop iterations (see [`RunResult::dispatches`]).
    dispatches: u64,
    /// Affine skip tier counters.
    synth: SynthStats,
    /// Live skip switch: starts at [`RunConfig::affine_skip`], cleared
    /// permanently when the injected fault trips.
    skip_enabled: bool,
    /// `(func, trigger pc)` of every plan that has engaged — distinct-loop
    /// accounting for [`SynthStats::loops`].
    synth_seen: FxHashSet<(u32, u32)>,
    /// The memory steps of the plan engagement being recorded (reused, so
    /// an engagement allocates nothing).
    run_streams: Vec<RunStream>,
}

/// Run a program with the default configuration.
pub fn run<S: Sink>(prog: &Program, sink: S) -> Result<RunResult, RuntimeError> {
    run_with_config(prog, sink, RunConfig::default())
}

/// Run a program with an explicit configuration.
pub fn run_with_config<S: Sink>(
    prog: &Program,
    sink: S,
    cfg: RunConfig,
) -> Result<RunResult, RuntimeError> {
    Interp::new(prog, sink, cfg)?.run()
}

#[inline]
fn jump(pc: usize, delta: i32) -> usize {
    (pc as i64 + delta as i64) as usize
}

/// Evaluate a `Bin` op. Decode routes `Div`/`Rem` to `BinChecked`, so
/// evaluation cannot fail.
#[inline]
fn bin_eval_nontrap(op: BinOp, a: Value, b: Value) -> Value {
    match bin_eval(op, a, b, 0) {
        Ok(v) => v,
        Err(_) => unreachable!("Bin never holds Div/Rem"),
    }
}

/// What a memory step does with its word: load it into a register, or
/// store an operand into it.
#[derive(Clone, Copy)]
enum MemDir {
    Load(u32),
    Store(Opnd),
}

/// The event of one executed memory step.
#[inline(always)]
fn mem_event(m: &MemRef, is_write: bool, addr: u64, t: usize, ts: u64) -> Event {
    Event::Mem(MemEvent {
        is_write,
        addr,
        op: m.op_id,
        line: m.line,
        var: m.sym,
        thread: t as u32,
        ts,
    })
}

impl<'p, S: Sink> Interp<'p, S> {
    /// Prepare a run: call targets are already pre-resolved in the decoded
    /// program, so this only sets up the main thread.
    pub fn new(prog: &'p Program, sink: S, cfg: RunConfig) -> Result<Self, RuntimeError> {
        let (main_id, _) = prog.module.function("main").ok_or(RuntimeError::NoMain)?;
        let batching = !cfg.racy_delivery && cfg.effective_batch_cap() >= 2 && sink.batch_hint();
        let mut it = Interp {
            prog,
            sink,
            cfg: cfg.clone(),
            globals: vec![0; prog.global_words],
            threads: Vec::new(),
            sched: Scheduler::new(cfg.seed),
            locks: FxHashMap::default(),
            steps: 0,
            user_rng: cfg.seed | 1,
            printed: Vec::new(),
            msgs_sent: 0,
            msgs_received: 0,
            channels: FxHashMap::default(),
            call_buf: Vec::new(),
            batch: Vec::with_capacity(if batching { cfg.batch_cap } else { 0 }),
            batching,
            dispatches: 0,
            synth: SynthStats::default(),
            skip_enabled: cfg.affine_skip,
            synth_seen: FxHashSet::default(),
            run_streams: Vec::new(),
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
        self.emit(
            tid as usize,
            Event::FuncEnter {
                func: func as u32,
                line: self.prog.code[func].start_line,
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
        let code = &prog.code[func];
        let base = th.sp;
        let need = base + code.frame_words as usize;
        if th.mem.len() < need {
            th.mem.resize(need, 0);
        }
        th.sp = need;
        // Bind arguments into parameter slots (register-style: no events).
        for (i, a) in args.iter().enumerate() {
            th.mem[base + code.params[i] as usize] = word_bits(*a);
        }
        th.frames.push(Frame {
            func,
            pc: 0,
            regs: vec![Value::I64(0); code.num_regs as usize],
            base,
            ret_dst,
            regions: Vec::new(),
        });
    }

    /// Forced inline so sinks that opted out of events
    /// ([`Sink::WANTS_EVENTS`] = `false`, the native baseline) let the
    /// compiler delete the event construction at every call site.
    #[inline(always)]
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

    /// Deliver and recycle the deterministic-mode batch buffer.
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
        // `sink` and `threads` are disjoint fields, so the delivery borrow
        // and the buffer borrow coexist; clearing recycles the allocation,
        // so steady-state racy profiling never allocates per flush.
        self.sink.events(&self.threads[t].buf);
        self.threads[t].buf.clear();
    }

    /// Execute the program to completion.
    pub fn run(mut self) -> Result<RunResult, RuntimeError> {
        let outcome = self.exec();
        // Deliver everything still buffered — also on failure, so sinks
        // observe the complete emitted prefix of the stream.
        for t in 0..self.threads.len() {
            self.flush(t);
        }
        self.flush_batch();
        let interrupted = matches!(outcome, Err(RuntimeError::Interrupted));
        if !interrupted {
            outcome?;
        }
        let mut channels: Vec<(u32, u32, u64)> = self
            .channels
            .iter()
            .map(|(&(from, to), &count)| (from, to, count))
            .collect();
        channels.sort_unstable();
        Ok(RunResult {
            ret: if interrupted {
                None
            } else {
                self.threads[0].ret
            },
            printed: self.printed,
            steps: self.steps,
            dispatches: self.dispatches,
            synth: self.synth,
            threads: self.threads.len() as u32,
            actors: ActorStats {
                spawned: self.sched.spawned(),
                peak_live: self.sched.peak_live(),
                sent: self.msgs_sent,
                received: self.msgs_received,
                channels,
            },
            interrupted,
        })
    }

    /// The scheduler loop: pop the next runnable actor off the run queue,
    /// execute one jittered slice, and return it to the back if it is
    /// still runnable. Park/wake is event-driven through the
    /// [`Scheduler`]'s typed wait lists — an empty queue means completion
    /// (all actors dead) or a reportable deadlock.
    fn exec(&mut self) -> Result<(), RuntimeError> {
        let stop = self.cfg.stop.clone();
        loop {
            if self.steps > self.cfg.max_steps {
                return Err(RuntimeError::StepLimit);
            }
            if let Some(flag) = &stop {
                if flag.load(Ordering::Relaxed) {
                    return Err(RuntimeError::Interrupted);
                }
            }
            let Some(a) = self.sched.pick() else {
                if self.sched.all_dead() {
                    break;
                }
                return Err(RuntimeError::Deadlock {
                    waiting: self.sched.blocked_actors(),
                });
            };
            let q = self.sched.next_quantum(self.cfg.quantum);
            self.run_slice(a.index(), q)?;
            self.sched.yield_back(a);
        }
        Ok(())
    }

    /// Execute up to `quantum` decoded ops of thread `t` — the flattened
    /// hot loop. Frame state (`func`, `pc`, code slice, *and the register
    /// file*) lives in locals and is written back only on frame switches,
    /// blocking, or budget exhaustion; everything else advances `pc` in
    /// place and indexes the local `regs` slice directly instead of going
    /// through `threads[t].frames.last()` per operand.
    fn run_slice(&mut self, t: usize, quantum: u32) -> Result<(), RuntimeError> {
        let prog = self.prog;
        let mut budget = quantum;
        // Step counters live in locals for the whole slice (two fewer
        // memory read-modify-writes per executed op) and are written back
        // whenever control leaves the straight-line loop: at `park!`, and
        // before any call that can observe them (region bookkeeping reads
        // the thread counter, the scheduler reads the global one).
        let mut steps = self.steps;
        let mut th_steps = self.threads[t].steps;
        let mut dispatches = self.dispatches;
        macro_rules! sync_steps {
            () => {{
                self.steps = steps;
                self.threads[t].steps = th_steps;
                self.dispatches = dispatches;
            }};
        }
        'frame: while budget > 0 && self.sched.is_ready(ActorId(t as u32)) {
            let fr = self.threads[t].frames.last_mut().unwrap();
            let func = fr.func;
            let base = fr.base;
            let mut pc = fr.pc;
            // Move the register file out of the frame for the duration of
            // the slice; `park!` puts it back (with the current pc)
            // whenever control leaves this frame's straight-line execution.
            let mut regs = std::mem::take(&mut fr.regs);
            let code: &FuncCode = &prog.code[func];
            let ops: &[HotOp] = &code.hot;
            let imms: &[Value] = &code.imms;
            macro_rules! park {
                () => {{
                    sync_steps!();
                    let fr = self.threads[t].frames.last_mut().unwrap();
                    fr.pc = pc;
                    fr.regs = regs;
                }};
            }
            // A load; an out-of-bounds trap parks the pc at the load
            // itself. The body is shared ([`Interp::exec_load`]) so the
            // dispatch loop stays compact.
            macro_rules! do_load {
                ($mem:expr, $dst:expr) => {{
                    if let Err(e) = self.exec_load(t, imms, &mut regs, base, $mem, $dst, steps) {
                        park!();
                        return Err(e);
                    }
                }};
            }
            // A store, trapping like a load.
            macro_rules! do_store {
                ($mem:expr, $src:expr) => {{
                    if let Err(e) = self.exec_store(t, imms, &mut regs, base, $mem, $src, steps) {
                        park!();
                        return Err(e);
                    }
                }};
            }
            loop {
                if budget == 0 {
                    park!();
                    break 'frame;
                }
                budget -= 1;
                steps += 1;
                th_steps += 1;
                dispatches += 1;
                match ops[pc] {
                    HotOp::Load { dst, mem } => {
                        do_load!(&code.mems[mem as usize], dst);
                        pc += 1;
                    }
                    HotOp::Store { mem, src } => {
                        do_store!(&code.mems[mem as usize], src);
                        pc += 1;
                    }
                    HotOp::Bin { op, dst, lhs, rhs } => {
                        let a = lhs.value(&regs, imms);
                        let b = rhs.value(&regs, imms);
                        regs[dst as usize] = bin_eval_nontrap(op, a, b);
                        pc += 1;
                    }
                    HotOp::BinChecked { op, dst, lhs, rhs } => {
                        let a = lhs.value(&regs, imms);
                        let b = rhs.value(&regs, imms);
                        // The line travels in the cold table, paid only on
                        // the trap path.
                        let v = match bin_eval(op, a, b, 0) {
                            Ok(v) => v,
                            Err(_) => {
                                park!();
                                return Err(RuntimeError::DivByZero {
                                    line: code.trap_line(pc as u32),
                                });
                            }
                        };
                        regs[dst as usize] = v;
                        pc += 1;
                    }
                    HotOp::Un { op, dst, src } => {
                        let v = src.value(&regs, imms);
                        let r = match op {
                            UnOp::Neg => match v {
                                Value::I64(x) => Value::I64(x.wrapping_neg()),
                                Value::F64(x) => Value::F64(-x),
                            },
                            UnOp::Not => Value::I64(i64::from(!v.is_truthy())),
                            UnOp::ToF64 => Value::F64(v.as_f64()),
                            UnOp::ToI64 => Value::I64(v.as_i64()),
                        };
                        regs[dst as usize] = r;
                        pc += 1;
                    }
                    HotOp::CallUser { target, args, dst } => {
                        let mut vals = std::mem::take(&mut self.call_buf);
                        vals.clear();
                        vals.extend(
                            code.call_args[args as usize]
                                .iter()
                                .map(|a| a.value(&regs, imms)),
                        );
                        // Resume after the call on return.
                        pc += 1;
                        park!();
                        let fi = target as usize;
                        let ret_dst = (dst != DST_NONE).then_some(RegId(dst));
                        Self::push_frame_raw(prog, &mut self.threads[t], fi, &vals, ret_dst);
                        self.recycle_args(vals);
                        self.emit(
                            t,
                            Event::FuncEnter {
                                func: target,
                                line: prog.code[fi].start_line,
                                thread: t as u32,
                            },
                        );
                        continue 'frame;
                    }
                    HotOp::CallBuiltin {
                        builtin,
                        args,
                        dst,
                        line,
                    } => {
                        let mut vals = std::mem::take(&mut self.call_buf);
                        vals.clear();
                        vals.extend(
                            code.call_args[args as usize]
                                .iter()
                                .map(|a| a.value(&regs, imms)),
                        );
                        // Builtins may read or write the current frame's
                        // registers (e.g. a result destination), so the
                        // register file goes back into the frame around the
                        // call and is re-taken afterwards.
                        park!();
                        let ret_dst = (dst != DST_NONE).then_some(RegId(dst));
                        // Mailbox builtins carry a static memory-op id,
                        // pre-resolved at decode time from the call's slot.
                        let mbox_op = if builtin.is_mailbox_op() {
                            code.mailbox_op_at(pc as u32).unwrap_or(u32::MAX)
                        } else {
                            u32::MAX
                        };
                        let completed = self.builtin(t, builtin, &vals, ret_dst, line, mbox_op);
                        self.recycle_args(vals);
                        if completed? {
                            let fr = self.threads[t].frames.last_mut().unwrap();
                            regs = std::mem::take(&mut fr.regs);
                            pc += 1;
                        } else {
                            // Blocked: retry the call op on wake (the pc
                            // parked above points at this op).
                            continue 'frame;
                        }
                    }
                    HotOp::CallUnknown { name } => {
                        park!();
                        return Err(RuntimeError::UnknownFunction(
                            code.unknown_names[name as usize].to_string(),
                        ));
                    }
                    HotOp::RegionEnter {
                        kind,
                        region,
                        line,
                        end_line,
                    } => {
                        self.threads[t]
                            .frames
                            .last_mut()
                            .unwrap()
                            .regions
                            .push(RegionState {
                                region,
                                th_steps_at_enter: th_steps,
                                iters: 0,
                            });
                        self.emit(
                            t,
                            Event::RegionEnter {
                                func: func as u32,
                                region,
                                kind,
                                start_line: line,
                                end_line,
                                thread: t as u32,
                            },
                        );
                        pc += 1;
                    }
                    HotOp::RegionExit { region } => {
                        // Region exits read the thread step counter
                        // (`dyn_instrs`), so write the locals back first.
                        sync_steps!();
                        self.pop_regions_through(t, func, region);
                        pc += 1;
                    }
                    HotOp::LoopIter { region } => {
                        // Abrupt exits (continue) may leave inner branch
                        // regions on the stack; close them before opening
                        // the next iteration (they read the step counter).
                        sync_steps!();
                        self.pop_regions_above(t, func, region);
                        self.emit(
                            t,
                            Event::LoopIter {
                                func: func as u32,
                                region,
                                thread: t as u32,
                            },
                        );
                        pc += 1;
                        // Affine skip tier: when this LoopIter anchors a
                        // compiled plan, replay whole cycles without
                        // dispatching. The iteration just opened (charged
                        // and emitted above) is the plan's first cycle.
                        if self.skip_enabled {
                            if let Some(plan) = code.plan_at((pc - 1) as u32) {
                                // Precondition: the loop's own region must
                                // be on top of the region stack, so the
                                // Body steps bump the right iteration
                                // counter. Abrupt control flow into the
                                // header can violate this; fall back.
                                let top = self.threads[t]
                                    .frames
                                    .last()
                                    .unwrap()
                                    .regions
                                    .last()
                                    .map(|r| r.region);
                                if top == Some(region) {
                                    if self.synth_seen.insert((func as u32, plan.trigger)) {
                                        self.synth.loops += 1;
                                    }
                                    match self.exec_plan(
                                        t,
                                        func,
                                        code,
                                        plan,
                                        base,
                                        &mut regs,
                                        &mut budget,
                                        &mut steps,
                                        &mut th_steps,
                                    ) {
                                        Ok(next) => pc = next,
                                        Err((at, e)) => {
                                            pc = at;
                                            park!();
                                            return Err(e);
                                        }
                                    }
                                } else {
                                    self.synth.fallback_precondition += 1;
                                }
                            }
                        }
                    }
                    HotOp::LoopBody { region } => {
                        let fr = self.threads[t].frames.last_mut().unwrap();
                        if let Some(top) = fr.regions.last_mut() {
                            if top.region == region {
                                top.iters += 1;
                            }
                        }
                        pc += 1;
                    }
                    HotOp::Jump { delta } => pc = jump(pc, delta),
                    HotOp::Branch {
                        cond,
                        then_delta,
                        else_delta,
                    } => {
                        let v = cond.value(&regs, imms);
                        pc = jump(
                            pc,
                            if v.is_truthy() {
                                then_delta
                            } else {
                                else_delta
                            },
                        );
                    }
                    HotOp::Return { val } => {
                        let val = val.map(|o| o.value(&regs, imms));
                        // The frame is about to be popped; its (taken-out)
                        // register file dies with it, so no write-back —
                        // but region exits read the step counter.
                        sync_steps!();
                        self.do_return(t, func, code, val);
                        continue 'frame;
                    }
                    HotOp::Unreachable => {
                        unreachable!("verified IR has no unreachable terminators")
                    }
                }
            }
        }
        Ok(())
    }

    /// Replay full cycles of one compiled loop plan — the affine skip
    /// tier's fast path. Called from the `LoopIter` dispatch arm *after*
    /// that arm charged and emitted the iteration that engages the plan,
    /// so the plan's steps (which start at `trigger + 1`) continue it.
    ///
    /// The replay is observationally identical to interpretation: every
    /// plan step charges exactly one step *before* executing (memory events
    /// carry the post-increment counter as their timestamp, exactly like
    /// the dispatch loop's charge + `do_load!`), the cycle-heading
    /// `LoopIter` is charged and emitted the way its dispatch arm would,
    /// and the exit test runs live every cycle — the statically proven trip
    /// count is eligibility evidence, never trusted at runtime.
    ///
    /// **Slices.** A spent slice budget is refilled in place when no other
    /// actor is runnable ([`Interp::reslice`]); a contended thread parks.
    ///
    /// **Record, check.** For a sink that takes runs ([`Sink::TAKES_RUNS`],
    /// deterministic delivery) nothing is emitted per access: cycle 0
    /// records each memory step's address as its stream's `base`, cycle 1
    /// the delta as its `stride`, and every later cycle *checks*
    /// `addr == base + stride·cycle`, so the record never rests on the
    /// static classifier. A miss closes the run before that access and the
    /// rest of the engagement is emitted per access. Every exit delivers
    /// the open record ([`Interp::deliver_run`]) first.
    ///
    /// **Five exits.** `Ok(pc)` with the pc interpretation resumes at:
    /// 1. the exit target, when the loop's live exit test fails;
    /// 2. the first uncharged step's own slot, when a contended thread's
    ///    budget expires mid-cycle (the op there resumes interpreted);
    /// 3. the trigger slot, when it expires at a cycle boundary —
    ///    interpretation re-dispatches the `LoopIter` there;
    /// 4. the trigger slot, when the injected fault
    ///    ([`RunConfig::affine_skip_fault`]) trips;
    /// 5. `Err((pc, e))` when a step traps: the caller parks at `pc`
    ///    and propagates, identical to `do_load!`/`do_store!`.
    // Out of line: entered once per engagement, and the dispatch loop of
    // `run_slice` should not carry this body around its hot arms.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn exec_plan(
        &mut self,
        t: usize,
        func: usize,
        code: &FuncCode,
        plan: &LoopPlan,
        base: usize,
        regs: &mut [Value],
        budget: &mut u32,
        steps: &mut u64,
        th_steps: &mut u64,
    ) -> Result<usize, (usize, RuntimeError)> {
        let imms: &[Value] = &code.imms;
        let mut recording = S::WANTS_EVENTS && S::TAKES_RUNS && !self.cfg.racy_delivery;
        let first_ts = *steps + 1;
        self.run_streams.clear();
        // Cycles completed in this engagement — the index of the current one.
        let mut cycle = 0u64;
        // Close the open record after `cycle` full cycles and `$partial`
        // steps of a started one (`None` at a cycle boundary).
        macro_rules! close_run {
            ($partial:expr) => {
                if recording {
                    self.deliver_run(t, func, plan, first_ts, cycle, $partial);
                }
            };
        }
        loop {
            if cycle > 0 {
                // Cycle boundary: control is back at the trigger slot.
                // Interpretation would park here on an empty budget (its
                // budget check precedes the charge), and the fault check
                // sits here because a disabled tier resumes by
                // re-dispatching the LoopIter.
                if *budget == 0 && !self.reslice(budget, *steps) {
                    close_run!(None);
                    return Ok(plan.trigger as usize);
                }
                if let Some(limit) = self.cfg.affine_skip_fault {
                    if self.synth.cycles >= limit {
                        self.skip_enabled = false;
                        self.synth.fallback_fault += 1;
                        close_run!(None);
                        return Ok(plan.trigger as usize);
                    }
                }
                // The next cycle's LoopIter: charge and emit exactly as
                // its dispatch arm does. `pop_regions_above` is a no-op by
                // the straight-line invariant (no region ops in the
                // cycle), so the region stack cannot have changed.
                *budget -= 1;
                *steps += 1;
                *th_steps += 1;
                if !recording {
                    self.emit(
                        t,
                        Event::LoopIter {
                            func: func as u32,
                            region: plan.region,
                            thread: t as u32,
                        },
                    );
                }
            }
            // Memory steps seen this cycle: the current one's stream index.
            let mut m = 0usize;
            for (k, step) in plan.steps.iter().enumerate() {
                if *budget == 0 && !self.reslice(budget, *steps) {
                    // Mid-cycle slice expiry: genuine fallback — the rest
                    // of this cycle runs interpreted, re-engaging at the
                    // next LoopIter.
                    self.synth.fallback_budget += 1;
                    close_run!(Some(k as u32));
                    return Ok(step.pc as usize);
                }
                *budget -= 1;
                *steps += 1;
                *th_steps += 1;
                // A plan's memory step: load or store, recorded or emitted.
                macro_rules! mem_step {
                    ($mem:expr, $dir:expr, $is_write:expr) => {{
                        self.synth.accesses += 1;
                        let addr = match self.access(t, imms, regs, base, $mem, $dir) {
                            Ok(addr) => addr,
                            Err(e) => {
                                close_run!(Some(k as u32));
                                return Err((step.pc as usize, e));
                            }
                        };
                        if recording && cycle == 0 {
                            self.run_streams.push(RunStream {
                                op: $mem.op_id,
                                line: $mem.line,
                                var: $mem.sym,
                                is_write: $is_write,
                                step: k as u32,
                                base: addr,
                                stride: 0,
                            });
                        } else if recording {
                            let s = &mut self.run_streams[m];
                            if cycle == 1 {
                                s.stride = addr.wrapping_sub(s.base) as i64;
                            }
                            if s.addr_at(cycle) != addr {
                                close_run!(Some(k as u32));
                                recording = false;
                            }
                        }
                        m += 1;
                        if !recording {
                            self.emit(t, mem_event($mem, $is_write, addr, t, *steps));
                        }
                    }};
                }
                match &step.op {
                    PlanOp::Load { dst, mem } => mem_step!(mem, MemDir::Load(*dst), false),
                    PlanOp::Store { src, mem } => mem_step!(mem, MemDir::Store(*src), true),
                    PlanOp::Bin { op, dst, lhs, rhs } => {
                        let a = lhs.value(regs, imms);
                        let b = rhs.value(regs, imms);
                        regs[*dst as usize] = bin_eval_nontrap(*op, a, b);
                    }
                    PlanOp::Un { op, dst, src } => {
                        let v = src.value(regs, imms);
                        let r = match op {
                            UnOp::Neg => match v {
                                Value::I64(x) => Value::I64(x.wrapping_neg()),
                                Value::F64(x) => Value::F64(-x),
                            },
                            UnOp::Not => Value::I64(i64::from(!v.is_truthy())),
                            UnOp::ToF64 => Value::F64(v.as_f64()),
                            UnOp::ToI64 => Value::I64(v.as_i64()),
                        };
                        regs[*dst as usize] = r;
                    }
                    PlanOp::Body { region } => {
                        let fr = self.threads[t].frames.last_mut().unwrap();
                        if let Some(top) = fr.regions.last_mut() {
                            if top.region == *region {
                                top.iters += 1;
                            }
                        }
                    }
                    PlanOp::Skip => {}
                    PlanOp::Exit {
                        cond,
                        cont_on_true,
                        exit_pc,
                    } => {
                        let v = cond.value(regs, imms);
                        if v.is_truthy() != *cont_on_true {
                            close_run!(Some(k as u32 + 1));
                            return Ok(*exit_pc as usize);
                        }
                    }
                }
            }
            self.synth.cycles += 1;
            cycle += 1;
        }
    }

    /// The slice budget is spent inside a plan. If the holder is the only
    /// runnable actor, do in place what [`Interp::exec`] does between two
    /// of its slices — step-limit check, stop-flag check, the next quantum
    /// from the same RNG sequence — and return `true`. Return `false`,
    /// touching nothing, when `exec` would stop the run or pick another
    /// actor: the plan then parks and `exec` takes it from there.
    #[inline(never)]
    fn reslice(&mut self, budget: &mut u32, steps: u64) -> bool {
        while *budget == 0 {
            if !self.sched.holder_is_alone() || steps > self.cfg.max_steps {
                return false;
            }
            if let Some(flag) = &self.cfg.stop {
                if flag.load(Ordering::Relaxed) {
                    return false;
                }
            }
            *budget = self.sched.next_quantum(self.cfg.quantum);
        }
        true
    }

    /// Hand the sink the recorded engagement — `completed` full cycles and,
    /// with `partial`, that many steps of one more — after everything
    /// emitted before it.
    fn deliver_run(
        &mut self,
        t: usize,
        func: usize,
        plan: &LoopPlan,
        first_ts: u64,
        completed: u64,
        partial: Option<u32>,
    ) {
        self.flush_batch();
        self.sink.plan_run(&PlanRun {
            thread: t as u32,
            func: func as u32,
            region: plan.region,
            first_ts,
            cycle_steps: plan.steps.len() as u32 + 1,
            streams: &self.run_streams,
            started: completed + u64::from(partial.is_some()),
            completed,
            partial_steps: partial.unwrap_or(0),
        });
    }

    /// Return the argument buffer for reuse by the next call.
    #[inline]
    fn recycle_args(&mut self, vals: Vec<Value>) {
        self.call_buf = vals;
    }

    /// Function return: close open regions, emit the frame dealloc and
    /// FuncExit, pop the frame, and deliver the return value.
    fn do_return(&mut self, t: usize, func: usize, code: &FuncCode, val: Option<Value>) {
        // Close any regions still open in this frame (return from inside a
        // loop).
        while !self.threads[t].frames.last().unwrap().regions.is_empty() {
            self.pop_one_region(t, func);
        }
        let fr = self.threads[t].frames.pop().unwrap();
        // The whole frame dies: one dealloc event for its range.
        let words = code.frame_words as u64;
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
                func: func as u32,
                line: code.end_line,
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

    /// Write a register of the current frame. Off-hot-path helper for
    /// builtins and returns; `run_slice` writes its cached `regs` directly.
    #[inline]
    fn set_reg(&mut self, t: usize, r: RegId, v: Value) {
        self.threads[t].frames.last_mut().unwrap().regs[r.index()] = v;
    }

    /// One load step: move the value into `regs[dst]` and emit the memory
    /// event — the body of the `Load` op. `ts` is the slice-local step
    /// counter (the event timestamp).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        t: usize,
        imms: &[Value],
        regs: &mut [Value],
        base: usize,
        m: &MemRef,
        dst: u32,
        ts: u64,
    ) -> Result<(), RuntimeError> {
        let addr = self.access(t, imms, regs, base, m, MemDir::Load(dst))?;
        self.emit(t, mem_event(m, false, addr, t, ts));
        Ok(())
    }

    /// One store step — the body of the `Store` op.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        t: usize,
        imms: &[Value],
        regs: &mut [Value],
        base: usize,
        m: &MemRef,
        src: Opnd,
        ts: u64,
    ) -> Result<(), RuntimeError> {
        let addr = self.access(t, imms, regs, base, m, MemDir::Store(src))?;
        self.emit(t, mem_event(m, true, addr, t, ts));
        Ok(())
    }

    /// A memory step without its event: resolve the reference, move the
    /// value, return the address for the caller to emit or record. The one
    /// place a memory word becomes a [`Value`]: a load reads it as the
    /// reference's declared type ([`MemRef::float`]), a store writes the
    /// value's bits.
    #[inline(always)]
    fn access(
        &mut self,
        t: usize,
        imms: &[Value],
        regs: &mut [Value],
        base: usize,
        m: &MemRef,
        dir: MemDir,
    ) -> Result<u64, RuntimeError> {
        let (addr, is_global, slot) = self.resolve(t, regs, imms, base, m)?;
        let cell = if is_global {
            &mut self.globals[slot]
        } else {
            &mut self.threads[t].mem[slot]
        };
        match dir {
            MemDir::Load(dst) => regs[dst as usize] = word_value(*cell, m.float),
            MemDir::Store(src) => *cell = word_bits(src.value(regs, imms)),
        }
        Ok(addr)
    }

    /// Resolve a precompiled memory reference to `(logical address,
    /// is_global, storage slot)`, checking bounds. `regs`/`imms`/
    /// `base` are the current frame's register file, the function's
    /// immediate pool, and the stack base, cached in `run_slice` locals.
    /// Forced inline: letting this fall out of line puts a 7-argument call
    /// on every memory operation's critical path.
    #[inline(always)]
    fn resolve(
        &self,
        t: usize,
        regs: &[Value],
        imms: &[Value],
        base: usize,
        m: &MemRef,
    ) -> Result<(u64, bool, usize), RuntimeError> {
        let idx = if m.has_index {
            m.index.value(regs, imms).as_i64()
        } else {
            0
        };
        if idx < 0 || idx as u64 >= m.elems {
            return Err(self.out_of_bounds(m, idx));
        }
        if m.global {
            let slot = m.base as usize + idx as usize;
            Ok((GLOBAL_BASE + slot as u64 * WORD, true, slot))
        } else {
            let word = base as u64 + m.base as u64 + idx as u64;
            let addr = STACK_BASE + t as u64 * STACK_SPAN + word * WORD;
            Ok((addr, false, word as usize))
        }
    }

    /// Cold path: reconstruct the variable name for the bounds error. The
    /// interned symbol was created from the variable's name, so it *is* the
    /// name — no module walk needed.
    #[cold]
    fn out_of_bounds(&self, m: &MemRef, index: i64) -> RuntimeError {
        RuntimeError::OutOfBounds {
            line: m.line,
            var: self.prog.symbol(m.sym).to_string(),
            index,
        }
    }

    /// Pop and emit exits for all regions strictly above `region` on the
    /// current frame's region stack.
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

    /// Pop regions up to and including `region`, emitting exit events.
    fn pop_regions_through(&mut self, t: usize, func_idx: usize, region: u32) {
        self.pop_regions_above(t, func_idx, region);
        let fr = self.threads[t].frames.last().unwrap();
        if fr.regions.last().map(|r| r.region) == Some(region) {
            self.pop_one_region(t, func_idx);
        }
    }

    fn pop_one_region(&mut self, t: usize, func_idx: usize) {
        let prog = self.prog;
        let th_steps = self.threads[t].steps;
        let fr = self.threads[t].frames.last_mut().unwrap();
        let st = fr.regions.pop().expect("region stack underflow");
        let frame_base = fr.base as u64;
        let rinfo = &prog.code[func_idx].regions[st.region as usize];
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
        // Region-scoped locals die here (variable lifetime analysis); the
        // ranges were pre-resolved at decode, so no allocation here.
        // `rinfo` borrows `prog` (not `self`), so it stays live across the
        // emit calls.
        for &o in rinfo.owned.iter() {
            let addr = STACK_BASE + t as u64 * STACK_SPAN + (frame_base + o.off as u64) * WORD;
            self.emit(
                t,
                Event::VarDealloc {
                    addr,
                    words: o.words,
                    thread: t as u32,
                },
            );
        }
    }

    /// Execute a builtin call. Returns `Ok(true)` when the call completed
    /// (the caller advances past it) and `Ok(false)` when the actor
    /// parked (the call op is retried on wake). `mbox_op` is the static
    /// memory-op id for mailbox builtins (`u32::MAX` otherwise).
    fn builtin(
        &mut self,
        t: usize,
        builtin: Builtin,
        args: &[Value],
        dst: Option<RegId>,
        line: u32,
        mbox_op: u32,
    ) -> Result<bool, RuntimeError> {
        let mut result: Option<Value> = None;
        match builtin {
            Builtin::Print => {
                let s = args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                self.printed.push(s);
            }
            Builtin::Sqrt => result = Some(Value::F64(args[0].as_f64().sqrt())),
            Builtin::Sin => result = Some(Value::F64(args[0].as_f64().sin())),
            Builtin::Cos => result = Some(Value::F64(args[0].as_f64().cos())),
            Builtin::Exp => result = Some(Value::F64(args[0].as_f64().exp())),
            Builtin::Log => result = Some(Value::F64(args[0].as_f64().ln())),
            Builtin::Fabs => result = Some(Value::F64(args[0].as_f64().abs())),
            Builtin::Floor => result = Some(Value::F64(args[0].as_f64().floor())),
            Builtin::Ceil => result = Some(Value::F64(args[0].as_f64().ceil())),
            Builtin::Pow => result = Some(Value::F64(args[0].as_f64().powf(args[1].as_f64()))),
            Builtin::Fmin => result = Some(Value::F64(args[0].as_f64().min(args[1].as_f64()))),
            Builtin::Fmax => result = Some(Value::F64(args[0].as_f64().max(args[1].as_f64()))),
            Builtin::Abs => result = Some(Value::I64(args[0].as_i64().wrapping_abs())),
            Builtin::Min => result = Some(Value::I64(args[0].as_i64().min(args[1].as_i64()))),
            Builtin::Max => result = Some(Value::I64(args[0].as_i64().max(args[1].as_i64()))),
            Builtin::Rand => {
                let v = (self.user_next() >> 33) as i64;
                result = Some(Value::I64(v));
            }
            Builtin::Frand => {
                let v = (self.user_next() >> 11) as f64 / (1u64 << 53) as f64;
                result = Some(Value::F64(v));
            }
            Builtin::Srand => {
                self.user_rng = (args[0].as_i64() as u64) | 1;
            }
            Builtin::Tid => result = Some(Value::I64(t as i64)),
            Builtin::Spawn => {
                let fi = args[0].as_i64() as usize;
                let child = self.spawn_thread(fi, &args[1..], Some(t as u32), line);
                result = Some(Value::I64(child as i64));
            }
            Builtin::Join => {
                let target = args[0].as_i64();
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(RuntimeError::BadJoin { line });
                }
                if !self.sched.is_dead(ActorId(target as u32)) {
                    self.sched
                        .park(ActorId(t as u32), WaitReason::Join(ActorId(target as u32)));
                    return Ok(false); // do not advance; retried on wake
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
            Builtin::Lock => {
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
                        return Ok(false); // do not advance; retried on wake
                    }
                }
            }
            Builtin::Unlock => {
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
                self.flush(t); // release: make everything visible
                self.locks.remove(&id);
                self.sched.lock_released(id);
            }
            Builtin::SpawnActor => {
                let fi = args[0].as_i64() as usize;
                let child = self.spawn_thread(fi, &args[1..], Some(t as u32), line);
                result = Some(Value::I64(child as i64));
            }
            Builtin::Send => {
                let target = args[0].as_i64();
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(RuntimeError::BadSend { line });
                }
                let tgt = target as usize;
                let cap = self.cfg.mailbox_cap.max(1);
                if self.threads[tgt].mbox.len() >= cap {
                    // Mailbox full: backpressure — park until the receiver
                    // frees a slot, then retry the whole send.
                    self.sched
                        .park(ActorId(t as u32), WaitReason::SendCap(ActorId(tgt as u32)));
                    return Ok(false);
                }
                let seq = self.threads[tgt].mbox_in;
                self.threads[tgt].mbox_in += 1;
                self.threads[tgt].mbox.push_back(args[1]);
                // The send is a store into the target's mailbox slot: an
                // ordinary dependence-bearing access. Slot reuse at the
                // capacity bound yields WAR/WAW coupling with earlier
                // occupants of the same slot.
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
                self.flush(t); // message handoff: make the send visible now
                self.msgs_sent += 1;
                *self.channels.entry((t as u32, tgt as u32)).or_insert(0) += 1;
                self.sched.message_arrived(ActorId(tgt as u32));
            }
            Builtin::Receive => {
                let Some(val) = self.threads[t].mbox.pop_front() else {
                    // Empty mailbox: park until a message arrives.
                    self.sched.park(ActorId(t as u32), WaitReason::Receive);
                    return Ok(false);
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
                // A slot freed: senders parked on our capacity may retry.
                self.sched.mailbox_slot_freed(ActorId(t as u32));
            }
        }
        if let (Some(d), Some(v)) = (dst, result) {
            self.set_reg(t, d, v);
        }
        Ok(true)
    }
}

pub(crate) fn bin_eval(op: BinOp, a: Value, b: Value, line: u32) -> Result<Value, RuntimeError> {
    use BinOp::*;
    let float = matches!(a, Value::F64(_)) || matches!(b, Value::F64(_));
    Ok(match op {
        Add | Sub | Mul | Div if float => {
            let (x, y) = (a.as_f64(), b.as_f64());
            Value::F64(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                _ => unreachable!(),
            })
        }
        Add => Value::I64(a.as_i64().wrapping_add(b.as_i64())),
        Sub => Value::I64(a.as_i64().wrapping_sub(b.as_i64())),
        Mul => Value::I64(a.as_i64().wrapping_mul(b.as_i64())),
        Div => {
            let d = b.as_i64();
            if d == 0 {
                return Err(RuntimeError::DivByZero { line });
            }
            Value::I64(a.as_i64().wrapping_div(d))
        }
        Rem => {
            let d = b.as_i64();
            if d == 0 {
                return Err(RuntimeError::DivByZero { line });
            }
            Value::I64(a.as_i64().wrapping_rem(d))
        }
        And => Value::I64(a.as_i64() & b.as_i64()),
        Or => Value::I64(a.as_i64() | b.as_i64()),
        Xor => Value::I64(a.as_i64() ^ b.as_i64()),
        Shl => Value::I64(a.as_i64().wrapping_shl(b.as_i64() as u32 & 63)),
        Shr => Value::I64(a.as_i64().wrapping_shr(b.as_i64() as u32 & 63)),
        Eq | Ne | Lt | Le | Gt | Ge => {
            let r = if float {
                let (x, y) = (a.as_f64(), b.as_f64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_i64(), b.as_i64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            };
            Value::from(r)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullSink, RecordingSink};

    fn exec(src: &str) -> RunResult {
        let m = lang::compile(src, "t").unwrap();
        let p = Program::new(m);
        run(&p, NullSink).unwrap()
    }

    fn exec_rec(src: &str) -> (RunResult, Vec<Event>) {
        let m = lang::compile(src, "t").unwrap();
        let p = Program::new(m);
        let mut sink = RecordingSink::default();
        let r = run(&p, &mut sink).unwrap();
        (r, sink.events)
    }

    #[test]
    fn actor_ping_pong() {
        let r = exec(
            "fn main() -> int {
                int c = spawn_actor(echo, 0);
                send(c, 41);
                int v = receive();
                join(c);
                return v;
            }
            fn echo(int x) { int v = receive(); send(0, v + 1); }",
        );
        assert_eq!(r.ret, Some(Value::I64(42)));
        assert_eq!(r.actors.spawned, 2);
        assert_eq!(r.actors.peak_live, 2);
        assert_eq!(r.actors.sent, 2);
        assert_eq!(r.actors.received, 2);
        assert_eq!(r.actors.channels, vec![(0, 1, 1), (1, 0, 1)]);
    }

    #[test]
    fn send_backpressure_parks_until_slot_freed() {
        // Mailbox capacity 2: the producer must park on its third send
        // until the consumer drains a slot; everything still completes.
        let m = lang::compile(
            "fn main() -> int {
                int c = spawn_actor(consumer, 0);
                for (int i = 0; i < 6; i = i + 1) { send(c, i); }
                join(c);
                return receive();
            }
            fn consumer(int x) {
                int s = 0;
                for (int i = 0; i < 6; i = i + 1) { s = s + receive(); }
                send(0, s);
            }",
            "t",
        )
        .unwrap();
        let p = Program::new(m);
        let cfg = RunConfig {
            mailbox_cap: 2,
            ..RunConfig::default()
        };
        let r = run_with_config(&p, NullSink, cfg).unwrap();
        assert_eq!(r.ret, Some(Value::I64(15)));
        assert_eq!(r.actors.sent, 7);
        assert_eq!(r.actors.received, 7);
    }

    #[test]
    fn receive_without_sender_is_reported_deadlock() {
        let m = lang::compile("fn main() { int v = receive(); }", "t").unwrap();
        let p = Program::new(m);
        let err = run(&p, NullSink).unwrap_err();
        let RuntimeError::Deadlock { waiting } = err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(waiting, vec![(0, WaitReason::Receive)]);
    }

    #[test]
    fn send_to_unknown_actor_fails() {
        let m = lang::compile("fn main() { send(7, 1); }", "t").unwrap();
        let p = Program::new(m);
        assert!(matches!(
            run(&p, NullSink).unwrap_err(),
            RuntimeError::BadSend { line: 1 }
        ));
    }

    #[test]
    fn mailbox_events_carry_appended_op_ids() {
        let (_, evs) = exec_rec(
            "fn main() -> int {
                int c = spawn_actor(echo, 0);
                send(c, 5);
                join(c);
                return 0;
            }
            fn echo(int x) { int v = receive(); }",
        );
        let m = lang::compile(
            "fn main() -> int {
                int c = spawn_actor(echo, 0);
                send(c, 5);
                join(c);
                return 0;
            }
            fn echo(int x) { int v = receive(); }",
            "t",
        )
        .unwrap();
        let p = Program::new(m);
        let base = p.mailbox_op_base();
        let mbox: Vec<&MemEvent> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Mem(m) if m.addr >= crate::program::MAILBOX_BASE => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(mbox.len(), 2); // one send (write), one receive (read)
        assert!(mbox.iter().all(|m| m.op >= base));
        assert!(mbox[0].is_write && !mbox[1].is_write);
        // Send and receive of the same message target the same slot.
        assert_eq!(mbox[0].addr, mbox[1].addr);
        assert_eq!(p.symbol(mbox[0].var), "<mailbox>");
    }

    #[test]
    fn loop_sum() {
        let r = exec(
            "fn main() -> int {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) { s = s + i; }
                return s;
            }",
        );
        assert_eq!(r.ret, Some(Value::I64(45)));
    }

    #[test]
    fn recursion_factorial() {
        let r = exec(
            "fn fac(int n) -> int {
                if (n <= 1) { return 1; }
                return n * fac(n - 1);
            }
            fn main() -> int { return fac(6); }",
        );
        assert_eq!(r.ret, Some(Value::I64(720)));
    }

    #[test]
    fn global_array_ops() {
        let r = exec(
            "global int a[8];
            fn main() -> int {
                for (int i = 0; i < 8; i = i + 1) { a[i] = i * i; }
                int s = 0;
                for (int i = 0; i < 8; i = i + 1) { s += a[i]; }
                return s;
            }",
        );
        assert_eq!(r.ret, Some(Value::I64(140)));
    }

    #[test]
    fn float_math() {
        let r = exec(
            "fn main() -> float {
                float x = 2.0;
                return sqrt(x * 8.0);
            }",
        );
        assert_eq!(r.ret, Some(Value::F64(4.0)));
    }

    #[test]
    fn print_collects_output() {
        let r = exec("fn main() { print(1, 2); print(3); }");
        assert_eq!(r.printed, vec!["1 2", "3"]);
    }

    #[test]
    fn while_break_continue() {
        let r = exec(
            "fn main() -> int {
                int i = 0; int s = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    s += i;
                }
                return s;
            }",
        );
        assert_eq!(r.ret, Some(Value::I64(25))); // 1+3+5+7+9
    }

    #[test]
    fn spawn_join_with_locks() {
        let r = exec(
            "global int counter;
            fn worker(int n) {
                for (int i = 0; i < n; i = i + 1) {
                    lock(1);
                    counter += 1;
                    unlock(1);
                }
            }
            fn main() -> int {
                int t1 = spawn(worker, 50);
                int t2 = spawn(worker, 50);
                join(t1);
                join(t2);
                return counter;
            }",
        );
        assert_eq!(r.ret, Some(Value::I64(100)));
        assert_eq!(r.threads, 3);
    }

    #[test]
    fn loop_iteration_count_in_region_exit() {
        let (_, evs) = exec_rec(
            "fn main() {
                int s = 0;
                for (int i = 0; i < 7; i = i + 1) { s += i; }
            }",
        );
        let iters = evs
            .iter()
            .find_map(|e| match e {
                Event::RegionExit(x) if x.kind == mir::RegionKind::Loop => Some(x.iters),
                _ => None,
            })
            .unwrap();
        assert_eq!(iters, 7);
    }

    #[test]
    fn mem_events_have_names_and_lines() {
        let m = lang::compile("global int g;\nfn main() { g = 4; int x = g; }", "t").unwrap();
        let p = Program::new(m);
        let mut sink = RecordingSink::default();
        run(&p, &mut sink).unwrap();
        let mems: Vec<&MemEvent> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Mem(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(mems.len(), 3); // store g, load g, store x
        assert!(mems[0].is_write);
        assert_eq!(p.symbol(mems[0].var), "g");
        assert_eq!(mems[0].line, 2);
        assert!(!mems[1].is_write);
        assert_eq!(p.symbol(mems[2].var), "x");
    }

    #[test]
    fn frame_dealloc_reuses_addresses() {
        let (_, evs) = exec_rec(
            "fn leaf() -> int { int local = 3; return local; }
            fn main() { int a = leaf(); int b = leaf(); }",
        );
        // The two calls to leaf() must produce writes to the same address
        // (stack reuse) with a dealloc in between.
        let writes: Vec<u64> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Mem(m) if m.is_write && m.addr >= STACK_BASE => Some(m.addr),
                _ => None,
            })
            .collect();
        let deallocs = evs
            .iter()
            .filter(|e| matches!(e, Event::VarDealloc { .. }))
            .count();
        assert!(deallocs >= 2);
        // `local` written twice at the same stack slot.
        let mut counts = std::collections::HashMap::new();
        for w in writes {
            *counts.entry(w).or_insert(0) += 1;
        }
        assert!(counts.values().any(|&c| c >= 2));
    }

    #[test]
    fn deadlock_detected() {
        let m = lang::compile(
            "fn main() { lock(1); int t = spawn(helper, 0); join(t); }
            fn helper(int x) { lock(1); unlock(1); }",
            "t",
        )
        .unwrap();
        let p = Program::new(m);
        let err = run(&p, NullSink).unwrap_err();
        let RuntimeError::Deadlock { waiting } = err else {
            panic!("expected deadlock, got {err}");
        };
        // Main (actor 0) waits on join(1); helper (actor 1) waits on lock 1.
        assert_eq!(
            waiting,
            vec![(0, WaitReason::Join(ActorId(1))), (1, WaitReason::Lock(1)),]
        );
    }

    #[test]
    fn div_by_zero_detected() {
        let m = lang::compile("fn main() -> int { int z = 0; return 4 / z; }", "t").unwrap();
        let p = Program::new(m);
        assert!(matches!(
            run(&p, NullSink).unwrap_err(),
            RuntimeError::DivByZero { .. }
        ));
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = lang::compile("global int a[4]; fn main() { int i = 9; a[i] = 1; }", "t").unwrap();
        let p = Program::new(m);
        assert!(matches!(
            run(&p, NullSink).unwrap_err(),
            RuntimeError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "global int c;
            fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(0); c += 1; unlock(0); } }
            fn main() -> int { int a = spawn(w, 20); int b = spawn(w, 30); join(a); join(b); return c; }";
        let m = lang::compile(src, "t").unwrap();
        let p = Program::new(m);
        let mut s1 = RecordingSink::default();
        let mut s2 = RecordingSink::default();
        run(&p, &mut s1).unwrap();
        run(&p, &mut s2).unwrap();
        assert_eq!(s1.events, s2.events, "same seed must give identical traces");
    }

    #[test]
    fn racy_delivery_preserves_per_thread_order() {
        let src = "global int c;
            fn w(int n) { for (int i = 0; i < n; i = i + 1) { c += 1; } }
            fn main() { int a = spawn(w, 10); int b = spawn(w, 10); join(a); join(b); }";
        let m = lang::compile(src, "t").unwrap();
        let p = Program::new(m);
        let mut sink = RecordingSink::default();
        let cfg = RunConfig {
            racy_delivery: true,
            buffer_cap: 8,
            ..Default::default()
        };
        run_with_config(&p, &mut sink, cfg).unwrap();
        // Per-thread timestamps must be monotone even if global order is not.
        let mut last: HashMap<u32, u64> = HashMap::new();
        for e in &sink.events {
            if let Event::Mem(m) = e {
                let prev = last.insert(m.thread, m.ts);
                if let Some(p) = prev {
                    assert!(m.ts > p, "per-thread order violated");
                }
            }
        }
    }

    #[test]
    fn batch_cap_below_two_normalizes_to_per_event_delivery() {
        assert_eq!(RunConfig::default().effective_batch_cap(), 256);
        for cap in [0usize, 1] {
            let cfg = RunConfig {
                batch_cap: cap,
                ..Default::default()
            };
            assert_eq!(cfg.effective_batch_cap(), 1, "cap {cap}");
        }

        // 0 and 1 must behave identically: per-event delivery, no batching.
        struct Count {
            singles: usize,
            batches: usize,
        }
        impl Sink for Count {
            fn event(&mut self, _ev: &Event) {
                self.singles += 1;
            }
            fn events(&mut self, _evs: &[Event]) {
                self.batches += 1;
            }
        }
        let p = Program::new(
            lang::compile(
                "fn main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s += i; } }",
                "t",
            )
            .unwrap(),
        );
        let deliver = |cap: usize| {
            let mut c = Count {
                singles: 0,
                batches: 0,
            };
            run_with_config(
                &p,
                &mut c,
                RunConfig {
                    batch_cap: cap,
                    ..Default::default()
                },
            )
            .unwrap();
            (c.singles, c.batches)
        };
        let zero = deliver(0);
        let one = deliver(1);
        assert_eq!(zero, one, "batch_cap 0 and 1 must be equivalent");
        assert!(zero.0 > 0, "per-event path must be used");
        assert_eq!(zero.1, 0, "no batch delivery below cap 2");
        let (singles, batches) = deliver(2);
        assert_eq!(singles, 0, "cap 2 must batch everything");
        assert!(batches > 0);
    }

    /// Takes plan runs: keeps what they stand for in arrival order, their
    /// shapes `(started, completed, partial_steps)`, and how many `LoopIter`
    /// events arrived as events rather than inside a run.
    #[derive(Default)]
    struct RunSink {
        events: Vec<Event>,
        shapes: Vec<(u64, u64, u32)>,
        loop_iters_as_events: usize,
    }

    impl Sink for RunSink {
        const TAKES_RUNS: bool = true;

        fn event(&mut self, ev: &Event) {
            self.loop_iters_as_events += usize::from(matches!(ev, Event::LoopIter { .. }));
            self.events.push(ev.clone());
        }

        fn plan_run(&mut self, run: &PlanRun<'_>) {
            self.shapes
                .push((run.started, run.completed, run.partial_steps));
            run.expand(|ev| self.events.push(ev.clone()));
        }
    }

    /// Execute to the end or the first error without consuming the
    /// interpreter, so the parked pc can be read back.
    fn exec_keeping<S: Sink>(p: &Program, sink: S) -> (Result<(), RuntimeError>, usize, u64, S) {
        let mut it = Interp::new(p, sink, RunConfig::default()).unwrap();
        let outcome = it.exec();
        it.flush_batch();
        let pc = it.threads[0].frames.last().map_or(usize::MAX, |f| f.pc);
        (outcome, pc, it.steps, it.sink)
    }

    #[test]
    fn forged_affine_facts_close_the_run_at_the_first_off_stream_address() {
        // `a[idx[i]]` walks a[0], a[1], a[2], then a[7]: no affine stream.
        // The honest classifier gives the loop no plan; forge one.
        let m = lang::compile(
            "global int idx[8];
            global int a[16];
            global int s;
            fn main() {
                idx[1] = 1; idx[2] = 2; idx[3] = 7; idx[4] = 3;
                idx[5] = 5; idx[6] = 6; idx[7] = 4;
                for (int i = 0; i < 8; i = i + 1) { s = s + a[idx[i]]; }
            }",
            "t",
        )
        .unwrap();
        let mut p = Program::new(m);
        assert!(p.code[0].plans.is_empty(), "the classifier declines");
        let statics = analysis::static_facts(&p.module);
        let forged: Vec<_> = statics
            .access
            .iter()
            .map(|f| analysis::AccessFact { affine: true, ..*f })
            .collect();
        crate::synth::compile_plans(&mut p.code[0], &forged, &statics.trip_counts[0]);
        assert_eq!(p.code[0].plans.len(), 1, "the forged facts compile a plan");

        let (by_events, pc_e, steps_e, recorded) = exec_keeping(&p, RecordingSink::default());
        let (by_runs, pc_r, steps_r, runs) = exec_keeping(&p, RunSink::default());
        assert_eq!((by_events, pc_e, steps_e), (by_runs, pc_r, steps_r));
        assert!(runs.events == recorded.events, "streams differ");
        // Cycles 0–2 were on stream; the check closed the run inside cycle
        // 3, before the off-stream load, and the remaining cycles — their
        // `LoopIter`s included — arrived access by access.
        let &[(started, completed, partial)] = &runs.shapes[..] else {
            panic!("one engagement, one run: {:?}", runs.shapes);
        };
        assert_eq!((started, completed), (4, 3));
        assert!(partial > 0, "the cycle's earlier steps are in the run");
        // Engaging LoopIter + cycles 4..=8 (the last one exits in the header).
        assert_eq!(runs.loop_iters_as_events, 1 + 5);
    }

    #[test]
    fn a_trap_mid_run_delivers_the_run_up_to_the_trap() {
        // The plan is compiled on trip count and affinity; bounds are the
        // runtime's business. Cycle 4 loads a[4] of a[4].
        let m = lang::compile(
            "global int a[4];
            global int s;
            fn main() {
                for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
            }",
            "t",
        )
        .unwrap();
        let p = Program::new(m);
        assert_eq!(p.code[0].plans.len(), 1);

        let (by_events, pc_e, steps_e, recorded) = exec_keeping(&p, RecordingSink::default());
        let (by_runs, pc_r, steps_r, runs) = exec_keeping(&p, RunSink::default());
        assert!(
            matches!(by_events, Err(RuntimeError::OutOfBounds { index: 4, .. })),
            "{by_events:?}"
        );
        assert_eq!(by_events, by_runs, "same error");
        assert_eq!(pc_e, pc_r, "same parked pc");
        assert_eq!(steps_e, steps_r);
        assert!(runs.events == recorded.events, "streams differ");
        let &[(started, completed, partial)] = &runs.shapes[..] else {
            panic!("one engagement, one run: {:?}", runs.shapes);
        };
        assert_eq!((started, completed), (5, 4));
        assert!(partial > 0);
        assert_eq!(runs.loop_iters_as_events, 1, "only the engaging one");
    }

    #[test]
    fn nested_call_in_loop_regions_balanced() {
        let (_, evs) = exec_rec(
            "fn g(int x) -> int { if (x > 0) { return x; } return 0 - x; }
            fn main() {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) { s += g(i - 2); }
            }",
        );
        let enters = evs
            .iter()
            .filter(|e| matches!(e, Event::RegionEnter { .. }))
            .count();
        let exits = evs
            .iter()
            .filter(|e| matches!(e, Event::RegionExit(_)))
            .count();
        assert_eq!(enters, exits, "region events must balance");
    }

    #[test]
    fn unknown_function_fails_only_when_called() {
        // A call to an unresolvable name decodes successfully and fails at
        // execution, exactly like the name-map scheme it replaces — but it
        // cannot be reached through `lang::compile` (the frontend rejects
        // unknown names), so build the module by hand.
        use mir::{FunctionBuilder, ModuleBuilder, Operand, Terminator, Value};
        let mut mb = ModuleBuilder::new("t");
        let mut fb = FunctionBuilder::new("main", None, 1);
        fb.call("no_such_fn", vec![Operand::Const(Value::I64(0))], false, 1);
        fb.terminate(Terminator::Return(None));
        mb.add_function(fb.build(1));
        let p = Program::new(mb.build());
        assert_eq!(
            run(&p, NullSink).unwrap_err(),
            RuntimeError::UnknownFunction("no_such_fn".to_string())
        );
    }
}
