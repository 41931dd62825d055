//! The profiling engine: one front, `N` partitions, `0..=N` workers.
//!
//! The paper's parallel profiler (§2.3.3) is the serial algorithm with the
//! address space dealt out to consumers, and must report "the same data
//! dependences as the serial version". So there is one engine,
//! [`Profiler`], built from one [`ProfileConfig`], and every [`EngineKind`]
//! resolves to a setting of its dials ([`EngineKind::dials`]):
//!
//! - The **front**, written once: the dynamic loop context, the instance
//!   table, the PET builder, and variable-lifetime eviction.
//! - The **back**: `N` partitions, each a `Shadow` (an exact or a
//!   signature dependence builder carrying the degradation ladder). An
//!   access goes to the partition the paper's modulo (Eq. 2.1) names.
//! - The **transport**: none while the producer owns a partition (the front
//!   calls `Shadow::process` directly), or a spawned consumer behind a
//!   queue ([`crate::parallel`]).
//!
//! `serial-perfect` is one exact partition, `serial-signature:S` one
//! signature partition, `parallel:WxC` `W` partitions. Every configuration
//! starts with the producer owning its partitions and moves them into one
//! worker each once the run has shown itself long enough (`Partitions::
//! stay_reason`: [`ProfileConfig::spawn_threshold`] accesses tracked, a
//! second core, no memory ceiling) — for a serial engine, one worker tracks
//! while the producer interprets. One partition processes accesses in
//! delivery order wherever it lives, so the move is invisible in the
//! output; where tracking ran is reported beside it ([`Tracking`]). One
//! `Governor`, on the producer, checkpoints what the producer owns at one
//! cadence; workers never govern. A memory ceiling keeps every partition
//! home whatever the dials say — a spawn threshold of 0 included — so under
//! a ceiling the governor sees the whole footprint, and a run that moved
//! under a deadline alone counts its workers' partitions once, at their
//! final size, when they are joined.
//!
//! Plan runs ([`interp::PlanRun`]): a lone exact partition resolves them in
//! closed form ([`crate::DepBuilder::process_run`]) wherever it lives — on
//! the producer directly (under a budget too, until a degradation leaves
//! the exact tier), in its worker as one `Msg::Run` behind the open chunk.
//! Every other configuration expands them into the per-access path.

use crate::access::{Access, Instance, InstanceTable, LoopContext, PackedAccess, NO_INSTANCE};
use crate::budget::{
    signature_slots_for_budget, Budget, DegradationStep, ResourceStats, ShadowTier,
};
use crate::dep::DepSet;
use crate::engine::{DepBuilder, RunStats, SkipStats};
use crate::maps::{AccessMap, Slot};
use crate::parallel::{
    apply_msg, push_supervised, spawn_worker, Channel, Msg, OwnedRun, WorkerOutcome,
};
use crate::pet::PetBuilder;
use crate::run::{
    Dials, EngineKind, InlineReason, ParallelStats, ProfileConfig, ProfileOutput, Tracking,
};
use crate::shadow::{Finished, Shadow};
use interp::{Event, MemOpMeta, PlanRun, RunConfig, Sink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Events between checkpoints (escalation test, governor). Each checkpoint
/// is a wall-clock read plus a footprint estimate (a handful of `Vec`
/// length sums), so at this cadence governance overhead is far below the
/// cost of processing the same events — the `stress_xl` benchmark row pins
/// it under 2%.
const CHECKPOINT_CADENCE: u64 = 2048;

/// Where annotated accesses and lifetime evictions go: a builder directly,
/// or the routed partitions. Exists so the front's per-event body is
/// written once and compiled per destination.
trait Back {
    fn access(&mut self, a: &Access, table: &InstanceTable);
    fn dealloc(&mut self, addr: u64, words: u64, table: &InstanceTable);
}

impl<M: AccessMap> Back for DepBuilder<M> {
    #[inline]
    fn access(&mut self, a: &Access, table: &InstanceTable) {
        self.process(a, table);
    }

    fn dealloc(&mut self, addr: u64, words: u64, _: &InstanceTable) {
        self.clear_range(addr, words);
    }
}

/// The front half, the same for every engine: what an event means before
/// any shadow is consulted.
struct Front {
    ctx: LoopContext,
    table: InstanceTable,
    pet: PetBuilder,
    lifetime: bool,
}

impl Front {
    #[inline]
    fn feed(&mut self, ev: &Event, back: &mut impl Back) {
        // Memory accesses dominate the event stream and are ignored by the
        // PET builder and the dealloc check — route them straight to the
        // back with a single match.
        if let Event::Mem(m) = ev {
            back.access(&self.ctx.annotate(m), &self.table);
            return;
        }
        self.pet.handle(ev);
        self.ctx.handle(ev, &mut self.table);
        if self.lifetime {
            if let Event::VarDealloc { addr, words, .. } = ev {
                back.dealloc(*addr, *words, &self.table);
            }
        }
    }
}

/// Events in delivery order: a delivered batch, or what a plan run stands
/// for.
trait EventSource {
    fn for_each(self, f: impl FnMut(&Event));
}

impl EventSource for &[Event] {
    #[inline]
    fn for_each(self, f: impl FnMut(&Event)) {
        self.iter().for_each(f);
    }
}

impl EventSource for &PlanRun<'_> {
    fn for_each(self, f: impl FnMut(&Event)) {
        self.expand(f);
    }
}

/// One partition, wherever it currently lives.
// A partition changes variant twice in a run at most; boxing the shadow
// would put a pointer chase on the inline per-access path instead.
#[allow(clippy::large_enum_variant)]
enum Part {
    /// Owned by the producer and processed inline: every partition before
    /// escalation, a recovered one after its worker died.
    Local(Shadow),
    /// Moved into a worker thread.
    Remote {
        chan: Arc<Channel>,
        /// `None` once joined.
        handle: Option<JoinHandle<WorkerOutcome>>,
        /// The chunk being filled for this worker.
        open: Vec<PackedAccess>,
        /// Instances of the producer's table already sent to this worker:
        /// the length of the worker's own copy.
        published: usize,
    },
}

/// Hardware threads of the host, probed once per process and only by a run
/// that has reached its spawn threshold: the probe reads cgroup files, and a
/// sweep builds dozens of short-lived profilers.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The back half: the partitions and, once escalated, their transport.
struct Partitions {
    parts: Vec<Part>,
    /// `parts.len() - 1` when the partition count is a power of two (the
    /// modulo in `route` becomes a mask).
    mask: Option<u64>,
    /// What the engine spec resolved to: how partitions move and are fed.
    dials: Dials,
    /// [`ProfileConfig::spawn_threshold`].
    spawn_threshold: u64,
    /// A memory ceiling is set, so the partitions never leave the producer.
    ceiling: bool,
    /// Accesses the producer had tracked when the partitions moved; `None`
    /// while they have not.
    moved_at: Option<u64>,
    chunks: u64,
    queue_stalls: u64,
    /// Worker panics recovered mid-run or at finish.
    worker_recoveries: u64,
}

impl Partitions {
    /// The partition, when there is exactly one and the producer owns it:
    /// the configuration that needs no routing at all.
    #[inline]
    fn sole(&mut self) -> Option<&mut Shadow> {
        match self.parts.as_mut_slice() {
            [Part::Local(s)] => Some(s),
            _ => None,
        }
    }

    #[inline]
    fn route(&self, addr: u64) -> usize {
        // The paper's modulo distribution (Eq. 2.1) on the word address.
        // The default partition counts are powers of two, and a hardware
        // DIV per routed access is the kind of cost this transport exists
        // to avoid — so the modulo is a mask whenever it can be.
        let word = addr >> 3;
        match self.mask {
            Some(m) => (word & m) as usize,
            None => (word % self.parts.len() as u64) as usize,
        }
    }

    /// Ship partition `w`'s open chunk to its worker, if it holds anything,
    /// behind the instances the worker has not been sent yet: whatever the
    /// chunk's accesses name must be in the worker's table by the time it
    /// reads them.
    fn flush_partition(&mut self, w: usize, table: &InstanceTable) {
        let Part::Remote { chan, open, .. } = &mut self.parts[w] else {
            return;
        };
        if open.is_empty() {
            return;
        }
        let chunk = std::mem::replace(open, chan.fresh_chunk(self.dials.chunk));
        self.publish(w, table);
        self.chunks += 1;
        self.deliver(w, Msg::Chunk(chunk), table);
    }

    /// Send worker `w` the instances of `table` it has not been sent yet.
    fn publish(&mut self, w: usize, table: &InstanceTable) {
        let Part::Remote { published, .. } = &mut self.parts[w] else {
            return;
        };
        let unsent = &table.as_slice()[*published..];
        *published = table.len();
        if !unsent.is_empty() {
            self.deliver(w, Msg::Instances(unsent.to_vec()), table);
        }
    }

    /// Hand a plan run to a lone exact partition in its worker: its open
    /// chunk first, then the instances its table lacks, then the run, whose
    /// cycle 0 ran in `(instance, iter)`. `false`, and nothing sent, for
    /// every other configuration. A moved partition is still at its
    /// starting tier: only a ceiling degrades, and a ceiling keeps every
    /// partition home.
    fn send_run(
        &mut self,
        run: &PlanRun<'_>,
        (instance, iter): (u32, u32),
        table: &InstanceTable,
    ) -> bool {
        let exact = self.dials.tier == ShadowTier::Perfect;
        if !(exact && matches!(self.parts.as_slice(), [Part::Remote { .. }])) {
            return false;
        }
        self.flush_partition(0, table);
        self.publish(0, table);
        let run = Msg::Run(Box::new(OwnedRun::new(run, instance, iter)));
        self.deliver(0, run, table);
        true
    }

    /// Deliver a message to partition `w`: apply it inline when the
    /// producer owns the partition, push it to the worker otherwise — and
    /// if the worker turns out to be dead behind a full queue, recover the
    /// partition and apply it there.
    fn deliver(&mut self, w: usize, mut msg: Msg, table: &InstanceTable) {
        loop {
            match &mut self.parts[w] {
                Part::Local(s) => return apply_msg(s, msg, table),
                Part::Remote {
                    chan,
                    handle: Some(h),
                    ..
                } => match push_supervised(chan, h, msg, &mut self.queue_stalls) {
                    Ok(()) => return,
                    Err(m) => msg = m,
                },
                Part::Remote { handle: None, .. } => return,
            }
            self.recover_worker(w, table);
        }
    }

    /// Supervisor: worker `w` died behind a full queue. Join it, replay its
    /// in-flight message, drain its queue, and take the partition back.
    fn recover_worker(&mut self, w: usize, table: &InstanceTable) {
        let Part::Remote { chan, handle, .. } = &mut self.parts[w] else {
            return;
        };
        let Some(h) = handle.take() else { return };
        let shadow = match h.join() {
            Ok(WorkerOutcome::Panicked(dead)) => dead.recover(&chan.inbox, table),
            // Only a Stop ends a worker cleanly, and only `finish` and
            // `Drop` send one — after the last delivery.
            Ok(WorkerOutcome::Stopped(_)) => unreachable!("a worker stopped mid-run"),
            // A panic that escaped the worker's own catch_unwind: nothing
            // left to recover, surface it.
            Err(e) => std::panic::resume_unwind(e),
        };
        self.parts[w] = Part::Local(shadow);
        self.worker_recoveries += 1;
    }

    /// The partitions the producer owns.
    fn local(&self) -> impl Iterator<Item = &Shadow> {
        self.parts.iter().filter_map(|p| match p {
            Part::Local(s) => Some(s),
            Part::Remote { .. } => None,
        })
    }

    /// Accesses the producer's partitions have tracked.
    fn local_accesses(&self) -> u64 {
        self.local().map(Shadow::accesses).sum()
    }

    /// Why the partitions stay with the producer for now; `None` when it is
    /// time to move them into workers. Each reason keeps the output what it
    /// is inline, or keeps a move from paying:
    ///
    /// - a memory ceiling: inline, the ladder's rungs fall at the same
    ///   access on every run, and the governor sees every partition;
    /// - fewer than [`ProfileConfig::spawn_threshold`] accesses tracked so
    ///   far, those of plan runs included: below that, transport setup
    ///   outweighs the overlap;
    /// - one core: a worker would only take turns with the producer.
    ///
    /// Cheapest first: the core count is probed only past the threshold.
    fn stay_reason(&self) -> Option<InlineReason> {
        if self.ceiling {
            return Some(InlineReason::MemoryCeiling);
        }
        let accesses = self.local_accesses();
        if accesses < self.spawn_threshold {
            return Some(InlineReason::Short { accesses });
        }
        (cores() < 2).then_some(InlineReason::OneCore)
    }

    /// Move every partition into its own worker thread and switch the
    /// transport to queues. The shadow state travels with the partition, so
    /// escalation is invisible in the output.
    fn escalate(&mut self) {
        self.moved_at = Some(self.local_accesses());
        let Dials {
            chunk, queue_cap, ..
        } = self.dials;
        self.parts = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|part| match part {
                Part::Local(shadow) => {
                    let chan = Arc::new(Channel::new(queue_cap));
                    let handle = spawn_worker(Arc::clone(&chan), shadow);
                    Part::Remote {
                        chan,
                        handle: Some(handle),
                        open: Vec::with_capacity(chunk),
                        published: 0,
                    }
                }
                remote => remote,
            })
            .collect();
    }

    /// Bytes the producer itself holds: the partitions it owns (not those
    /// in workers) and the chunks it is filling.
    fn owned_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Local(s) => s.bytes(),
                Part::Remote { open, .. } => open.capacity() * std::mem::size_of::<PackedAccess>(),
            })
            .sum()
    }
}

impl Back for Partitions {
    #[inline]
    fn access(&mut self, a: &Access, table: &InstanceTable) {
        let w = self.route(a.addr);
        match &mut self.parts[w] {
            Part::Local(s) => s.process(a, table),
            Part::Remote { open, .. } => {
                open.push(PackedAccess::pack(a));
                if open.len() >= self.dials.chunk {
                    self.flush_partition(w, table);
                }
            }
        }
    }

    fn dealloc(&mut self, addr: u64, words: u64, table: &InstanceTable) {
        // Determine which partitions own part of the range; consecutive
        // word addresses stripe across partitions, so ranges wider than the
        // partition count touch everyone.
        let n = self.parts.len();
        let affected: Vec<usize> = if words as usize >= n {
            (0..n).collect()
        } else {
            let mut v: Vec<usize> = (0..words).map(|i| self.route(addr + i * 8)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for w in affected {
            // Order matters: accesses already routed must be consumed
            // before the eviction.
            self.flush_partition(w, table);
            self.deliver(w, Msg::Dealloc { addr, words }, table);
        }
    }
}

impl Drop for Partitions {
    /// Shut workers down even when profiling aborts before
    /// [`Profiler::finish`] (e.g. the target program hit a runtime error) —
    /// otherwise the worker threads would spin on their queues forever.
    fn drop(&mut self) {
        for part in &mut self.parts {
            if let Part::Remote {
                chan,
                handle: Some(h),
                ..
            } = part
            {
                // Supervised: a dead worker behind a full queue must not
                // wedge the drop (the join below cannot hang — a returned
                // Stop means the thread already exited).
                let _ = push_supervised(chan, h, Msg::Stop, &mut 0);
            }
        }
        for part in &mut self.parts {
            if let Part::Remote { handle, .. } = part {
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
            }
        }
    }
}

/// The resource governor: enforces a [`Budget`] on what the producer owns —
/// under a memory ceiling, every partition. Every [`CHECKPOINT_CADENCE`]
/// events it checks the deadline (setting the interpreter's stop flag when
/// expired) and the memory ceiling (walking the producer's partitions down
/// the degradation ladder until the footprint fits again), and samples the
/// post-degradation footprint into the peak. The budget invariant — tracked
/// bytes never exceed the ceiling at any checkpoint, ladder permitting — is
/// exactly what the fault-injection suite asserts.
struct Governor {
    budget: Budget,
    /// High-water mark of the sampled footprint.
    peak: usize,
    /// Degradation steps taken, in order.
    steps: Vec<DegradationStep>,
    started: Instant,
    /// Set once the wall-clock deadline has passed; the stop flag is
    /// raised at the same moment.
    deadline_hit: bool,
    /// Interpreter stop flag, installed by [`Profiler::govern_run`] when
    /// the budget carries a deadline.
    stop: Option<Arc<AtomicBool>>,
}

impl Governor {
    fn new(budget: Budget) -> Self {
        Governor {
            budget,
            peak: 0,
            steps: Vec::new(),
            started: Instant::now(),
            deadline_hit: false,
            stop: None,
        }
    }

    #[cold]
    fn checkpoint(&mut self, back: &mut Partitions, table_bytes: usize) {
        if let Some(deadline) = self.budget.deadline {
            if !self.deadline_hit && self.started.elapsed() >= deadline {
                self.deadline_hit = true;
                if let Some(stop) = &self.stop {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        self.enforce_memory(back, table_bytes);
    }

    /// Degrade-then-sample: walk the producer's partitions down the ladder
    /// (fattest first) until the owned bytes fit the ceiling, then sample
    /// them once. The peak recorded at a checkpoint therefore never exceeds
    /// the budget unless every partition bottomed out — the one documented
    /// case, where the footprint is accepted as it stands.
    fn enforce_memory(&mut self, back: &mut Partitions, table_bytes: usize) {
        let mut bytes = back.owned_bytes() + table_bytes;
        if let Some(max) = self.budget.max_memory_bytes {
            let sig_slots = signature_slots_for_budget(max / back.parts.len().max(1));
            while bytes > max {
                let mut owned: Vec<&mut Shadow> = back
                    .parts
                    .iter_mut()
                    .filter_map(|p| match p {
                        Part::Local(s) => Some(s),
                        Part::Remote { .. } => None,
                    })
                    .collect();
                owned.sort_by_key(|s| std::cmp::Reverse(s.bytes()));
                let Some(mut step) = owned.into_iter().find_map(|s| s.degrade(sig_slots)) else {
                    break;
                };
                step.bytes_before = bytes as u64;
                bytes = back.owned_bytes() + table_bytes;
                step.bytes_after = bytes as u64;
                self.steps.push(step);
            }
        }
        self.sample(bytes);
    }

    fn sample(&mut self, bytes: usize) {
        self.peak = self.peak.max(bytes);
    }

    /// The run's resource block. `fill` is the summed signature fill
    /// `(occupied cells, total cells)` of every partition that ended on a
    /// signature: the probability that a probe of a fresh address lands in
    /// an occupied slot — Eq. 2.2 with the address count inferred from
    /// occupancy.
    fn finish(self, (occupied, cells): (usize, usize)) -> ResourceStats {
        let mut res = ResourceStats::for_budget(&self.budget);
        res.peak_tracked_bytes = self.peak as u64;
        res.degradation_steps = self.steps;
        res.fp_rate_estimate = if cells > 0 {
            occupied as f64 / cells as f64
        } else {
            0.0
        };
        res.deadline_hit = self.deadline_hit;
        res
    }
}

/// The dependence profiler. Implements [`Sink`], so it plugs directly into
/// the interpreter; [`crate::profile_program_with`] is the one-call form.
pub struct Profiler {
    front: Front,
    back: Partitions,
    // Boxed: an ungoverned engine carries one null pointer for it.
    gov: Option<Box<Governor>>,
    /// Events since the last checkpoint.
    since_check: u64,
    /// The spec this engine runs: an [`EngineKind::Parallel`] one reports
    /// its transport ([`ProfileOutput::parallel`]), the one thing a spelling
    /// decides beyond its [`Dials`].
    engine: EngineKind,
}

impl Profiler {
    /// The engine `cfg` names (its `run` field aside — that is the
    /// interpreter's), for a target whose static op table is `meta`
    /// ([`interp::Program::mem_op_meta`]) and whose static address footprint
    /// is `footprint_words` ([`interp::Program::footprint_words`]; what
    /// [`EngineKind::dials`] sizes [`EngineKind::Parallel`]'s partitions by).
    pub fn new(meta: &[MemOpMeta], footprint_words: usize, cfg: &ProfileConfig) -> Self {
        let dials = cfg.engine.dials(footprint_words);
        let op_meta: Arc<[MemOpMeta]> = meta.into();
        let nparts = dials.partitions;
        let ceiling = cfg.budget.max_memory_bytes.is_some();
        let mut p = Profiler {
            front: Front {
                ctx: LoopContext::new(),
                table: InstanceTable::new(),
                pet: PetBuilder::new(),
                lifetime: cfg.lifetime,
            },
            back: Partitions {
                parts: (0..nparts)
                    .map(|_| Part::Local(Shadow::new(dials.tier, &op_meta)))
                    .collect(),
                mask: nparts.is_power_of_two().then(|| nparts as u64 - 1),
                dials,
                spawn_threshold: cfg.spawn_threshold,
                ceiling,
                moved_at: None,
                chunks: 0,
                queue_stalls: 0,
                worker_recoveries: 0,
            },
            gov: cfg
                .budget
                .is_active()
                .then(|| Box::new(Governor::new(cfg.budget))),
            since_check: 0,
            engine: cfg.engine,
        };
        // A zero threshold is an explicit "always spawn" request: no volume
        // to wait for, and no core check. A memory ceiling still wins, as
        // it does at every checkpoint: the governor only ever sees
        // partitions the producer owns.
        if cfg.spawn_threshold == 0 && !ceiling {
            p.back.escalate();
        }
        p
    }

    /// Tie the interpreter run to the budget: when it carries a deadline,
    /// share (or install) the run's stop flag, which the governor raises
    /// when the wall clock runs out — the scheduler then stops at the next
    /// slice boundary and the partial output flows through
    /// [`Profiler::finish`] with `resource.deadline_hit` set.
    pub(crate) fn govern_run(&mut self, run: &mut RunConfig) {
        if let Some(g) = self.gov.as_deref_mut() {
            if g.budget.deadline.is_some() {
                let stop = run
                    .stop
                    .get_or_insert_with(|| Arc::new(AtomicBool::new(false)));
                g.stop = Some(Arc::clone(stop));
            }
        }
    }

    /// Tracked bytes the producer holds right now — what the governor
    /// samples at checkpoint cadence.
    pub fn current_bytes(&self) -> usize {
        self.back.owned_bytes() + self.front.table.bytes()
    }

    /// Move the whole exact shadow out of a lone exact partition the
    /// producer owns, leaving it empty ([`DepBuilder::drain_shadow`]) — how
    /// a differential test compares the final shadow state of two
    /// profilers. Empty for any other configuration.
    pub fn drain_shadow(&mut self) -> Vec<(u64, Slot)> {
        match self.back.sole() {
            Some(Shadow::Perfect(b)) => b.drain_shadow(),
            _ => Vec::new(),
        }
    }

    /// Feed events through the front into wherever accesses currently go.
    /// The destination — and with it the shadow tier — is matched once per
    /// source, not per access.
    #[inline]
    fn feed(&mut self, src: impl EventSource) {
        let front = &mut self.front;
        match self.back.sole() {
            Some(Shadow::Perfect(b)) => src.for_each(|ev| front.feed(ev, b)),
            Some(Shadow::Sig(b)) => src.for_each(|ev| front.feed(ev, b)),
            None => {
                let back = &mut self.back;
                src.for_each(|ev| front.feed(ev, back));
            }
        }
    }

    #[inline]
    fn tick(&mut self, events: u64) {
        self.since_check += events;
        if self.since_check >= CHECKPOINT_CADENCE {
            self.since_check = 0;
            self.checkpoint();
        }
    }

    #[cold]
    fn checkpoint(&mut self) {
        if self.back.moved_at.is_none() && self.back.stay_reason().is_none() {
            self.back.escalate();
        }
        if let Some(g) = self.gov.as_deref_mut() {
            g.checkpoint(&mut self.back, self.front.table.bytes());
        }
    }

    /// Finish profiling after `steps` executed target instructions: ship
    /// what is still open, stop any workers, and merge the partitions in
    /// ascending order. Workers that died are recovered here (their
    /// partition drains back inline), so a supervised run always completes
    /// with a full output. The run-level fields — `synth`, `actors`,
    /// `printed` — are the interpreter's to report and are left empty.
    pub fn finish(self, steps: u64) -> ProfileOutput {
        let Profiler {
            front,
            mut back,
            mut gov,
            engine,
            ..
        } = self;
        let table = &front.table;
        for w in 0..back.parts.len() {
            back.flush_partition(w, table);
        }
        // Where tracking ran; a worker recovered below is counted in. A run
        // that crossed its threshold after the last checkpoint stayed short
        // as far as any checkpoint saw.
        let mut tracking = match back.moved_at {
            Some(at_access) => Tracking::Moved {
                at_access,
                recoveries: 0,
            },
            None => Tracking::Inline(back.stay_reason().unwrap_or(InlineReason::Short {
                accesses: back.local_accesses(),
            })),
        };
        // Growth since the previous checkpoint must not outlive the run.
        if let Some(g) = gov.as_deref_mut() {
            g.enforce_memory(&mut back, table.bytes());
        }
        // The last sample: what the producer holds, plus each partition that
        // was in a worker at its final size and the worker's copy of the
        // instance table — nothing a partition allocates is freed, so with
        // no ceiling (the only way to move) that is its peak. For a run that
        // never moved it repeats the sample just taken.
        let mut last_sample = back.owned_bytes() + table.bytes();
        let parts = std::mem::take(&mut back.parts);
        for part in &parts {
            if let Part::Remote {
                chan,
                handle: Some(h),
                ..
            } = part
            {
                // A dead worker behind a full queue hands the Stop back;
                // dropping it is fine — the join below recovers everything
                // the queue still holds.
                let _ = push_supervised(chan, h, Msg::Stop, &mut back.queue_stalls);
            }
        }
        let mut spawned_workers = 0;
        let done: Vec<Finished> = parts
            .into_iter()
            .map(|part| match part {
                Part::Local(shadow) => shadow.finish(),
                Part::Remote {
                    chan,
                    handle,
                    published,
                    ..
                } => {
                    let done = match handle.map(JoinHandle::join) {
                        Some(Ok(WorkerOutcome::Stopped(done))) => {
                            spawned_workers += 1;
                            done
                        }
                        Some(Ok(WorkerOutcome::Panicked(dead))) => {
                            back.worker_recoveries += 1;
                            dead.recover(&chan.inbox, table).finish()
                        }
                        Some(Err(e)) => std::panic::resume_unwind(e),
                        None => unreachable!("a joined worker's partition is taken back at once"),
                    };
                    last_sample += done.bytes + published * std::mem::size_of::<Instance>();
                    done
                }
            })
            .collect();
        if let Some(g) = gov.as_deref_mut() {
            g.sample(last_sample);
        }

        // One partition's set is the output as it stands (its iteration
        // order is its insertion history, which report bytes follow) and
        // only a lone partition resolves runs; several sets merge in
        // ascending partition order.
        let lone = done.len() == 1;
        let (mut deps, mut plan_runs) = (DepSet::new(), RunStats::default());
        let mut skip_stats = SkipStats::default();
        let mut profiler_bytes = table.bytes();
        let mut fill = (0, 0);
        let mut worker_processed = Vec::with_capacity(done.len());
        for d in done {
            skip_stats.absorb(&d.stats);
            profiler_bytes += d.bytes;
            worker_processed.push(d.stats.total_accesses);
            if let Some((occupied, cells)) = d.fill {
                fill = (fill.0 + occupied, fill.1 + cells);
            }
            if lone {
                (deps, plan_runs) = (d.deps, d.runs);
            } else {
                deps.merge(d.deps);
            }
        }
        if let Tracking::Moved { recoveries, .. } = &mut tracking {
            *recoveries = back.worker_recoveries;
        }
        let parallel = matches!(engine, EngineKind::Parallel { .. }).then_some(ParallelStats {
            chunks: back.chunks,
            queue_stalls: back.queue_stalls,
            spawned_workers,
            worker_recoveries: back.worker_recoveries,
            worker_processed,
        });
        ProfileOutput {
            deps,
            pet: front.pet.finish(steps),
            skip_stats,
            synth: Default::default(),
            plan_runs,
            profiler_bytes,
            steps,
            printed: Vec::new(),
            parallel,
            resource: gov.map(|g| g.finish(fill)),
            actors: None,
            tracking,
        }
    }
}

/// `LoopIter` and `Mem` events `run` stands for — what it advances the
/// checkpoint cadence by, so a deadline trips inside a plan-heavy job too.
fn events_in(run: &PlanRun<'_>) -> u64 {
    run.loop_iters()
        + run.completed * run.streams.len() as u64
        + run.streams_in(run.completed) as u64
}

impl Sink for Profiler {
    /// Runs are always taken: the tier that resolves them can be left
    /// mid-run (a degradation, an escalation), so the decision is made per
    /// run in [`Sink::plan_run`] rather than per sink here.
    const TAKES_RUNS: bool = true;

    fn event(&mut self, ev: &Event) {
        self.events(std::slice::from_ref(ev));
    }

    /// Batched delivery: one interpreter→profiler crossing per
    /// [`interp::RunConfig::batch_cap`] events instead of one per event.
    fn events(&mut self, evs: &[Event]) {
        self.feed(evs);
        self.tick(evs.len() as u64);
    }

    /// A plan engagement. A lone exact partition takes it in closed form —
    /// directly when the producer owns it, as one `Msg::Run` when it has
    /// moved to its worker: the loop context supplies what the run's events
    /// would have picked up one by one — the instance the plan runs in and
    /// the iteration of its cycle 0 — and advances by the run's `LoopIter`
    /// count afterwards; the PET and the lifetime analysis see nothing in a
    /// run (no region, call or dealloc event). Signature slots alias and
    /// routed partitions each see only part of a range, so every other
    /// configuration feeds the run's expansion through the per-event path.
    // Inlined into the interpreter's run delivery: out of line, the plan
    // replayer around the call site compiled ~4% slower on `hot_loop`
    // (measured over ten alternating pairs, 0/10 against 1% and 2/8 with).
    #[inline]
    fn plan_run(&mut self, run: &PlanRun<'_>) {
        let at @ (instance, iter) = self.front.ctx.current(run.thread);
        let in_own_loop =
            instance != NO_INSTANCE && self.front.table.loop_of(instance) == (run.func, run.region);
        let taken = in_own_loop
            && match self.back.sole() {
                Some(Shadow::Perfect(b)) => {
                    b.process_run(run, instance, iter, &self.front.table);
                    true
                }
                Some(Shadow::Sig(_)) => false,
                None => self.back.send_run(run, at, &self.front.table),
            };
        if taken {
            self.front.ctx.advance(run.thread, run.loop_iters());
        } else {
            self.feed(run);
        }
        self.tick(events_in(run));
    }
}

#[cfg(test)]
mod tests {
    //! Escalation is invisible: a serial engine's lone partition moved to
    //! its worker (a spawn threshold of 0 moves it at construction, on any
    //! host) reports what the inline partition reports.

    use super::*;
    use crate::dep::Dep;
    use interp::Program;

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").expect("test source compiles"))
    }

    /// Stack reuse and lifetime eviction across calls: dealloc messages
    /// travel the queue between chunks.
    const CALLS: &str = "global int acc;
fn leaf(int x) -> int { int t = x * 2; int u = t + 1; return u; }
fn mid(int n) -> int {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + leaf(i); }
    return s;
}
fn main() {
    for (int r = 0; r < 30; r = r + 1) { acc = acc + mid(40); }
}";

    /// An affine nest: plan runs under the skip tier, carried dependences
    /// on `b` and `s` without it.
    const NEST: &str = "global int a[1024];\nglobal int b[1024];\nglobal int s;\nfn main() {\n\
        for (int r = 0; r < 8; r = r + 1) {\n\
        for (int i = 1; i < 1024; i = i + 1) {\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}\n}\n}";

    /// 3,000 words strided 97 apart: a 1,021-slot signature collides on
    /// them.
    const STRIDED: &str = "global int a[300000];\nglobal int s;\nfn main() {\n\
        for (int i = 0; i < 3000; i = i + 1) { a[i * 97] = i; }\n\
        for (int i = 1; i < 3000; i = i + 1) { s = s + a[i * 97] - a[(i - 1) * 97]; }\n}";

    /// A fill loop the skip tier declines (a checked `%` in the body), then
    /// the plan-eligible nest: the first plan run arrives long after the
    /// first checkpoint.
    const FILL_THEN_NEST: &str = "global int big[8192];\nglobal int a[512];\nglobal int b[512];\nglobal int s;\nfn main() {\n\
        for (int i = 0; i < 8192; i = i + 1) { big[(i * 7) % 8192] = i; }\n\
        for (int r = 0; r < 20; r = r + 1) {\n\
        for (int i = 1; i < 512; i = i + 1) {\nb[i] = a[i - 1] + b[i] + big[i];\ns = s + b[i];\n}\n}\n}";

    fn profile(p: &Program, cfg: &ProfileConfig, spawn_threshold: u64) -> ProfileOutput {
        let cfg = ProfileConfig {
            spawn_threshold,
            ..cfg.clone()
        };
        crate::profile_program_with(p, &cfg).expect("profiles")
    }

    /// `DepSet::iter()` as it comes (counts included), `total_found`, the
    /// skip counters, the PET and the tracked bytes: what the report is
    /// built from.
    fn output(out: &ProfileOutput) -> (Vec<(Dep, u64)>, u64, String, String, usize) {
        (
            out.deps.iter().collect(),
            out.deps.total_found,
            format!("{:?}", out.skip_stats),
            format!("{:?}", out.pet.nodes),
            out.profiler_bytes,
        )
    }

    fn cfg(engine: EngineKind, affine_skip: bool) -> ProfileConfig {
        ProfileConfig {
            engine,
            run: interp::RunConfig {
                affine_skip,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn a_moved_serial_partition_reports_what_the_inline_one_does() {
        let engines = [
            EngineKind::SerialPerfect,
            EngineKind::signature(1 << 18),
            EngineKind::signature(1021),
        ];
        for (name, src) in [("calls", CALLS), ("nest", NEST), ("strided", STRIDED)] {
            let p = program(src);
            for engine in engines {
                let label = format!("{name}: {engine}");
                let cfg = cfg(engine, false);
                let inline = profile(&p, &cfg, u64::MAX);
                let moved = profile(&p, &cfg, 0);
                assert_eq!(output(&moved), output(&inline), "{label}");
                assert_eq!(moved.plan_runs, inline.plan_runs, "{label}");
                assert!(moved.parallel.is_none() && inline.parallel.is_none());
                assert_eq!(
                    moved.tracking,
                    Tracking::Moved {
                        at_access: 0,
                        recoveries: 0
                    },
                    "{label}"
                );
                assert_eq!(
                    inline.tracking,
                    Tracking::Inline(InlineReason::Short {
                        accesses: inline.skip_stats.total_accesses
                    }),
                    "{label}"
                );
            }
        }
        // The small signature did collide: the equality above covers
        // aliasing, not just exact answers.
        let p = program(STRIDED);
        let exact = profile(&p, &cfg(EngineKind::SerialPerfect, false), 0);
        let small = profile(&p, &cfg(EngineKind::signature(1021), false), 0);
        assert_ne!(exact.deps.sorted(), small.deps.sorted());
    }

    #[test]
    fn plan_runs_after_the_move_resolve_as_the_inline_ones() {
        let p = program(NEST);
        let cfg = cfg(EngineKind::SerialPerfect, true);
        let inline = profile(&p, &cfg, u64::MAX);
        assert!(
            inline.plan_runs.cycles_resolved > 0,
            "{:?}",
            inline.plan_runs
        );
        let moved = profile(&p, &cfg, 0);
        assert_eq!(
            moved.tracking,
            Tracking::Moved {
                at_access: 0,
                recoveries: 0
            }
        );
        assert_eq!(moved.plan_runs, inline.plan_runs, "resolved in the worker");
        assert_eq!(output(&moved), output(&inline));
        assert_eq!(moved.synth, inline.synth, "the machine sees no difference");
    }

    #[test]
    fn a_mid_run_move_keeps_the_output() {
        // A real threshold: the partition moves at a checkpoint during the
        // fill, before the first plan run — where a second core exists.
        let p = program(FILL_THEN_NEST);
        let cfg = cfg(EngineKind::SerialPerfect, true);
        let inline = profile(&p, &cfg, u64::MAX);
        assert!(inline.plan_runs.runs > 0);
        let moved = profile(&p, &cfg, 4096);
        if cores() < 2 {
            assert_eq!(moved.tracking, Tracking::Inline(InlineReason::OneCore));
            return;
        }
        let Tracking::Moved { at_access, .. } = moved.tracking else {
            panic!("no move: {:?}", moved.tracking);
        };
        assert!((4096..8192 * 3).contains(&at_access), "{at_access}");
        assert_eq!(moved.plan_runs, inline.plan_runs);
        assert_eq!(output(&moved), output(&inline));
    }

    #[test]
    fn a_memory_ceiling_keeps_the_partition_home_a_resolved_run_does_not() {
        let p = program(FILL_THEN_NEST);
        let mut capped = cfg(EngineKind::SerialPerfect, false);
        capped.budget.max_memory_bytes = Some(1 << 30);
        assert_eq!(
            profile(&p, &capped, 4096).tracking,
            Tracking::Inline(InlineReason::MemoryCeiling)
        );
        // Threshold 0 moves at construction on any host — but not under a
        // ceiling, and the run reports what the inline one does.
        let home = profile(&p, &capped, 0);
        assert_eq!(home.tracking, Tracking::Inline(InlineReason::MemoryCeiling));
        assert_eq!(output(&home), output(&profile(&p, &capped, u64::MAX)));
        // A run resolved before the threshold is reached no longer pins
        // the partition: the nest alone, threshold just past its first run,
        // moves at the next checkpoint and resolves the later runs there.
        let nest = program(NEST);
        let out = profile(&nest, &cfg(EngineKind::SerialPerfect, true), 4096);
        assert!(out.skip_stats.total_accesses > 4096);
        if cores() < 2 {
            assert_eq!(out.tracking, Tracking::Inline(InlineReason::OneCore));
            return;
        }
        let Tracking::Moved { at_access, .. } = out.tracking else {
            panic!("no move: {:?}", out.tracking);
        };
        assert!(at_access >= 4096, "{at_access}");
        assert!(out.plan_runs.cycles_resolved > 0, "{:?}", out.plan_runs);
    }
}
