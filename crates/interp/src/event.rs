//! Instrumentation events and the sink trait consumed by analyses.
//!
//! Events are emitted by the pre-decoded run loop ([`crate::machine`]) and,
//! identically, by the tree-walking oracle ([`crate::reference`]): the
//! decode layer is invisible at this boundary — same events, same order,
//! same field values — so every downstream consumer (profiler engines, PET
//! builder, recorded traces) is unaffected by how dispatch is implemented.
//!
//! # Plan runs
//!
//! While the affine skip tier replays a loop plan ([`crate::synth`]) every
//! memory step's address is `base + stride·cycle`, so a whole engagement
//! fits in a [`PlanRun`]. A sink that sets [`Sink::TAKES_RUNS`] receives
//! one [`Sink::plan_run`] call per engagement in place of its `LoopIter`
//! and `Mem` events; every other sink sees the events. [`PlanRun::expand`]
//! *is* the meaning of a run and the default body of [`Sink::plan_run`].

use mir::RegionKind;

/// A single profiled memory access.
///
/// Carries everything the DiscoPoP dependence representation needs
/// (dissertation §2.3.1): source line, variable name (as a symbol id
/// resolvable through [`crate::Program::symbol`]), thread id, and a
/// monotonically increasing timestamp used for race detection on
/// multi-threaded targets (§2.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// `true` for stores, `false` for loads.
    pub is_write: bool,
    /// The accessed address (word-aligned logical address).
    pub addr: u64,
    /// Static id of the memory *operation* (the load/store instruction in
    /// the IR); distinct from the dynamic memory *instruction* this event
    /// represents. The skip optimization (dissertation §2.4) keys its
    /// per-operation state on this.
    pub op: u32,
    /// Source line of the access.
    pub line: u32,
    /// Symbol id of the accessed variable.
    pub var: u32,
    /// Executing thread.
    pub thread: u32,
    /// Global step counter at the time of the access.
    pub ts: u64,
}

/// Emitted when a control region (loop or branch) exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionExitEvent {
    /// Function containing the region.
    pub func: u32,
    /// Region id within the function.
    pub region: u32,
    /// Loop or branch.
    pub kind: RegionKind,
    /// First source line of the region.
    pub start_line: u32,
    /// Last source line of the region.
    pub end_line: u32,
    /// Iterations executed (loops only; 0 for branches).
    pub iters: u64,
    /// Dynamic instructions executed inside the region (inclusive).
    pub dyn_instrs: u64,
    /// Executing thread.
    pub thread: u32,
}

/// The full instrumentation event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A load or store.
    Mem(MemEvent),
    /// Control enters a region.
    RegionEnter {
        func: u32,
        region: u32,
        kind: RegionKind,
        start_line: u32,
        end_line: u32,
        thread: u32,
    },
    /// Control leaves a region.
    RegionExit(RegionExitEvent),
    /// A loop region starts an iteration.
    LoopIter { func: u32, region: u32, thread: u32 },
    /// A function is entered (after arguments are bound).
    FuncEnter { func: u32, line: u32, thread: u32 },
    /// A function returns.
    FuncExit { func: u32, line: u32, thread: u32 },
    /// A contiguous address range of `words` machine words died (frame pop
    /// or region-scoped local going out of scope). Drives variable-lifetime
    /// analysis (dissertation §2.3.5).
    VarDealloc { addr: u64, words: u64, thread: u32 },
    /// `child` was spawned by `parent`.
    ThreadSpawn { parent: u32, child: u32, line: u32 },
    /// `thread` completed a `join(target)` — a synchronization point: all
    /// of `target`'s events happen before `thread`'s subsequent events.
    ThreadJoin { thread: u32, target: u32, line: u32 },
    /// A thread finished.
    ThreadEnd { thread: u32 },
    /// A lock was acquired.
    LockAcquire { id: i64, thread: u32, line: u32 },
    /// A lock was released.
    LockRelease { id: i64, thread: u32, line: u32 },
}

impl Event {
    /// The thread that produced this event.
    pub fn thread(&self) -> u32 {
        match self {
            Event::Mem(m) => m.thread,
            Event::RegionEnter { thread, .. }
            | Event::RegionExit(RegionExitEvent { thread, .. })
            | Event::LoopIter { thread, .. }
            | Event::FuncEnter { thread, .. }
            | Event::FuncExit { thread, .. }
            | Event::VarDealloc { thread, .. }
            | Event::ThreadJoin { thread, .. }
            | Event::ThreadEnd { thread }
            | Event::LockAcquire { thread, .. }
            | Event::LockRelease { thread, .. } => *thread,
            Event::ThreadSpawn { parent, .. } => *parent,
        }
    }
}

/// One memory step of a [`PlanRun`]: the static identity of the access
/// (the fields of its [`MemEvent`]s) and the affine address sequence it
/// walked, `base + stride·cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStream {
    pub op: u32,
    pub line: u32,
    pub var: u32,
    pub is_write: bool,
    /// Position of the step within a cycle (0-based, the cycle-heading
    /// `LoopIter` not counted).
    pub step: u32,
    /// Address in cycle 0.
    pub base: u64,
    /// Address delta from one cycle to the next, in bytes.
    pub stride: i64,
}

impl RunStream {
    /// The address this stream touches in `cycle`.
    #[inline]
    pub fn addr_at(&self, cycle: u64) -> u64 {
        self.base
            .wrapping_add((self.stride as u64).wrapping_mul(cycle))
    }
}

/// One engagement of a loop plan in closed form: `started` cycles of the
/// loop `(func, region)` on `thread`, each executing the memory steps in
/// `streams`, the first `completed` of them in full and the last — when
/// `started > completed` — only its first `partial_steps` steps.
///
/// The run begins *after* the `LoopIter` that engaged the plan (an ordinary
/// event): cycle 0 has no `LoopIter` of its own, every later started cycle
/// is headed by one. Step `k` of cycle `c` carries timestamp
/// `first_ts + c·cycle_steps + k`.
///
/// Contract for whoever builds one (the plan replayer does): the loop body
/// is straight-line — no call, no region entry or exit — so nothing nests
/// under an instance of it, and no other thread ran during the run.
#[derive(Debug, Clone, Copy)]
pub struct PlanRun<'a> {
    pub thread: u32,
    pub func: u32,
    pub region: u32,
    /// Timestamp of step 0 of cycle 0.
    pub first_ts: u64,
    /// Steps one cycle charges: its plan steps plus the heading `LoopIter`.
    pub cycle_steps: u32,
    /// The cycle's memory steps, in step order.
    pub streams: &'a [RunStream],
    /// Cycles started (by charging their `LoopIter`; cycle 0 by engaging).
    pub started: u64,
    /// Cycles executed in full: `started` or `started - 1`.
    pub completed: u64,
    /// Plan steps executed in the trailing partial cycle, if there is one.
    pub partial_steps: u32,
}

impl PlanRun<'_> {
    /// `LoopIter` events the run stands for.
    pub fn loop_iters(&self) -> u64 {
        self.started.saturating_sub(1)
    }

    /// How many of `streams` (a prefix: they are in step order) executed
    /// in `cycle`.
    pub fn streams_in(&self, cycle: u64) -> usize {
        if cycle < self.completed {
            self.streams.len()
        } else if cycle < self.started {
            let ran = |s: &&RunStream| s.step < self.partial_steps;
            self.streams.iter().take_while(ran).count()
        } else {
            0
        }
    }

    /// The memory event of `stream` in `cycle`.
    #[inline]
    pub fn mem_event(&self, stream: &RunStream, cycle: u64) -> MemEvent {
        MemEvent {
            is_write: stream.is_write,
            addr: stream.addr_at(cycle),
            op: stream.op,
            line: stream.line,
            var: stream.var,
            thread: self.thread,
            ts: self.first_ts + cycle * self.cycle_steps as u64 + stream.step as u64,
        }
    }

    /// The events this run stands for, in emission order — the definition
    /// of a run.
    pub fn expand(&self, mut f: impl FnMut(&Event)) {
        let (func, region, thread) = (self.func, self.region, self.thread);
        for cycle in 0..self.started {
            if cycle > 0 {
                f(&Event::LoopIter {
                    func,
                    region,
                    thread,
                });
            }
            for s in &self.streams[..self.streams_in(cycle)] {
                f(&Event::Mem(self.mem_event(s, cycle)));
            }
        }
    }
}

/// Consumer of the instrumentation stream.
///
/// A sink that ignores every event says so with [`Sink::WANTS_EVENTS`],
/// and the interpreter then builds no events at all: a no-op sink measures
/// "native" execution and any other sink measures instrumented execution —
/// the ratio is the profiling slowdown reported in the experiments.
///
/// # Batched delivery
///
/// The interpreter delivers every event through [`Sink::events`]: in
/// deterministic mode it writes events into a reusable buffer and hands
/// over each full batch of [`crate::RunConfig::batch_cap`] events (and the
/// rest at every point where the stream must be complete — a plan run, the
/// end of the run); in racy mode each thread's buffer at its flush points.
/// Delivery order is exactly emission order, so a sink observes the same
/// stream at every cap — a cap of 1 hands over one event per call.
/// Batching replaces a per-event call + dispatch with a buffer write, and
/// lets sinks run their per-event match loop over a slice.
pub trait Sink {
    /// Compile-time interest flag: `false` promises every event is ignored,
    /// letting the interpreter's emit path — including construction of the
    /// event values themselves — compile away entirely for that sink. This
    /// is what makes the "native" baseline truly uninstrumented dispatch.
    const WANTS_EVENTS: bool = true;

    /// Compile-time opt-in to plan runs: `true` asks the interpreter (in
    /// deterministic delivery) for one [`Sink::plan_run`] call per plan
    /// engagement instead of the engagement's `LoopIter` and `Mem` events,
    /// in stream order with the events around it.
    const TAKES_RUNS: bool = false;

    /// Handle one event.
    fn event(&mut self, ev: &Event);

    /// Handle one plan engagement. The default feeds [`PlanRun::expand`]
    /// through [`Sink::event`]; overriding it is an optimization that must
    /// leave the sink in the state the expansion would have.
    fn plan_run(&mut self, run: &PlanRun<'_>) {
        run.expand(|ev| self.event(ev));
    }

    /// Handle a batch of events, in delivery order. The default forwards to
    /// [`Sink::event`]; hot sinks override this to hoist per-batch work out
    /// of the loop.
    fn events(&mut self, evs: &[Event]) {
        for ev in evs {
            self.event(ev);
        }
    }
}

/// Discards everything: the "uninstrumented run" baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    const WANTS_EVENTS: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: &Event) {}

    #[inline(always)]
    fn events(&mut self, _evs: &[Event]) {}
}

/// Records every event; used by tests and by offline analyses (CU
/// construction) that want the full trace.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// The recorded trace, in delivery order.
    pub events: Vec<Event>,
}

impl Sink for RecordingSink {
    fn event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }

    fn events(&mut self, evs: &[Event]) {
        self.events.extend_from_slice(evs);
    }
}

impl<S: Sink + ?Sized> Sink for &mut S {
    const WANTS_EVENTS: bool = S::WANTS_EVENTS;
    const TAKES_RUNS: bool = S::TAKES_RUNS;

    #[inline(always)]
    fn event(&mut self, ev: &Event) {
        (**self).event(ev);
    }

    fn plan_run(&mut self, run: &PlanRun<'_>) {
        (**self).plan_run(run);
    }

    #[inline(always)]
    fn events(&mut self, evs: &[Event]) {
        (**self).events(evs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_records() {
        let mut s = RecordingSink::default();
        s.event(&Event::ThreadEnd { thread: 0 });
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn event_thread_extraction() {
        let e = Event::ThreadSpawn {
            parent: 2,
            child: 3,
            line: 1,
        };
        assert_eq!(e.thread(), 2);
        let m = Event::Mem(MemEvent {
            is_write: true,
            addr: 8,
            op: 0,
            line: 1,
            var: 0,
            thread: 5,
            ts: 0,
        });
        assert_eq!(m.thread(), 5);
    }
}
