//! `interp` — an instrumenting interpreter for MIR programs.
//!
//! This crate stands in for "compile with the DiscoPoP LLVM pass, link
//! against libDiscoPoP, and run": executing a program through [`run`] with a
//! [`Sink`] produces exactly the instrumentation stream the original system
//! obtains from inserted calls — memory accesses with source line, variable
//! name and thread id; control-region entry/exit with iteration counts;
//! function entry/exit; variable deallocation (for lifetime analysis); and
//! thread/lock events for multi-threaded targets.
//!
//! Multi-threaded mini-C programs (`spawn`/`join`/`lock`/`unlock`) and
//! actor programs (`spawn_actor`/`send`/`receive` over bounded mailboxes)
//! execute under a deterministic, seeded run-queue scheduler
//! ([`sched::Scheduler`]: O(1) park/wake, typed wake reasons, seeded
//! quantum jitter), so every experiment is reproducible — the same seed
//! yields the same schedule, events, and dependences, even with 10k green
//! threads. The optional *racy delivery* mode buffers events per
//! thread and flushes them at synchronization points, reproducing the
//! out-of-order event delivery of real threads that the profiler's
//! timestamp-based race detection is designed to catch (dissertation
//! Fig. 2.4).
//!
//! # Execution pipeline
//!
//! [`Program::new`] lowers the verified module into a compact flat
//! instruction stream ([`code`]): a dense array of fixed-size (≤ 16-byte)
//! [`HotOp`] records backed by cold side pools (memory references,
//! immediates, call arguments), with call targets resolved to indices,
//! and blocks flattened to absolute pcs — one slot per instruction, one
//! dispatch per slot. [`machine`] executes that stream; [`mod@reference`]
//! keeps the original tree-walking interpreter as an equivalence oracle —
//! both emit byte-identical event streams for any program and
//! configuration.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod code;
pub mod event;
pub mod machine;
pub mod program;
pub mod reference;
pub mod sched;
pub mod synth;

pub use code::{Builtin, FuncCode, HotOp, MemRef, Opnd};
pub use event::{
    Event, MemEvent, NullSink, PlanRun, RecordingSink, RegionExitEvent, RunStream, Sink,
};
pub use machine::{
    run, run_with_config, ActorStats, Interp, RunConfig, RunResult, RuntimeError, SynthStats,
};
pub use program::{
    MemOpMeta, Program, GLOBAL_BASE, MAILBOX_BASE, MAILBOX_SPAN, STACK_BASE, STACK_SPAN, WORD,
};
pub use sched::{ActorId, Scheduler, WaitReason};
pub use synth::LoopPlan;
