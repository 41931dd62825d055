//! Engine selection and the one-call profiling entry points.
//!
//! The profiler has three engines for sequential targets — the exact
//! page-table shadow memory, the bounded-memory signature algorithm
//! (§2.3.2), and the producer/consumer parallel pipeline (§2.3.3). They all
//! answer the same question ("which dependences does this program have?"),
//! so selecting one is data, not a separate API: [`EngineKind`] names the
//! engine, [`ProfileConfig`] carries it plus the engine-independent knobs,
//! and [`profile_program_with`] dispatches. Every engine produces the same
//! [`ProfileOutput`]; the parallel engine additionally fills
//! [`ProfileOutput::parallel`] with its transport statistics.

use crate::budget::{
    signature_slots_for_budget, Budget, DegradationStep, GaugeSlot, MemGauge, ProfileError,
    ResourceStats, ShadowTier, LADDER_MIN_SLOTS,
};
use crate::dep::DepSet;
use crate::engine::{EngineConfig, RunStats, SkipStats};
use crate::maps::{PerfectMap, SignatureMap};
use crate::parallel::{profile_parallel, ParallelConfig, QueueKind};
use crate::pet::Pet;
use crate::serial::SerialProfiler;
use interp::{Event, Program, RunConfig, RunResult, Sink};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which dependence-profiling engine to run.
///
/// This is the single engine selector used by the profiler, the `discopop`
/// facade, the CLI, and the benchmarks. All variants produce the same
/// dependence set on collision-free configurations; they differ in memory
/// bounds and throughput (dissertation Table 2.6 / Fig. 2.10).
///
/// ```
/// use profiler::EngineKind;
///
/// let p = interp::Program::new(
///     lang::compile("global int g[8];\nfn main() {\nfor (int i = 0; i < 8; i = i + 1) {\ng[i] = i;\n}\n}", "t").unwrap(),
/// );
/// let exact = profiler::profile_program_with(
///     &p,
///     &profiler::ProfileConfig { engine: EngineKind::SerialPerfect, ..Default::default() },
/// )
/// .unwrap();
/// let sig = profiler::profile_program_with(
///     &p,
///     &profiler::ProfileConfig { engine: EngineKind::SerialSignature { slots: 1 << 16 }, ..Default::default() },
/// )
/// .unwrap();
/// assert_eq!(exact.deps.sorted(), sig.deps.sorted());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum EngineKind {
    /// The exact two-level page-table shadow memory: ground truth, memory
    /// proportional to the touched address space.
    #[default]
    SerialPerfect,
    /// The fixed-size signature algorithm: bounded memory, a measurable
    /// collision rate once `slots` is small relative to the address set.
    SerialSignature {
        /// Signature slots per access map.
        slots: usize,
    },
    /// The producer/consumer parallel pipeline: accesses are routed by
    /// address over `workers` consumer threads in chunks of `chunk`
    /// accesses, each worker running the signature algorithm on its
    /// partition (per-worker slot count:
    /// [`EngineKind::parallel_worker_slots`]; for other slot sizes use
    /// [`crate::profile_parallel`] with an explicit
    /// [`crate::ParallelConfig`]).
    Parallel {
        /// Consumer (worker) threads.
        workers: usize,
        /// Accesses per chunk shipped to a worker.
        chunk: usize,
        /// Queue implementation feeding the workers.
        queue: QueueKind,
    },
}

impl EngineKind {
    /// Total signature-slot budget of the parallel engine, split evenly
    /// across workers — the paper's sizing scheme (per-thread slots =
    /// total / threads). Keeping the *total* fixed means adding workers
    /// does not multiply memory, and the up-front zeroing cost per run
    /// stays flat instead of scaling with the worker count.
    pub const PARALLEL_TOTAL_SLOTS: usize = 1 << 19;

    /// Floor on per-worker signature slots, so very high worker counts
    /// keep a usable per-partition signature.
    pub const PARALLEL_MIN_WORKER_SLOTS: usize = 1 << 14;

    /// Signature slots given to each parallel worker:
    /// `max(PARALLEL_TOTAL_SLOTS / workers, PARALLEL_MIN_WORKER_SLOTS)`.
    /// Partitioning by address means each worker sees only a fraction of
    /// the address set, so a per-worker share collides less than the same
    /// total size serially.
    pub fn parallel_worker_slots(workers: usize) -> usize {
        (Self::PARALLEL_TOTAL_SLOTS / workers.max(1)).max(Self::PARALLEL_MIN_WORKER_SLOTS)
    }

    /// Address-footprint threshold (in words) for [`EngineKind::auto_for`]:
    /// up to this bound the exact shadow memory is both faster and smaller
    /// than a signature; beyond it the signature's bounded memory wins.
    pub const AUTO_PERFECT_MAX_WORDS: usize = 1 << 18;

    /// Signature slots selected by [`EngineKind::auto_for`] for large
    /// footprints.
    pub const AUTO_SIGNATURE_SLOTS: usize = 1 << 18;

    /// Pick an engine from the program's static shape: the exact
    /// page-table shadow for small address sets, and beyond
    /// [`EngineKind::AUTO_PERFECT_MAX_WORDS`] words (globals + one frame
    /// per function — a static proxy for the touched address space) either
    /// `serial-signature` or — for targets that spawn their own threads —
    /// the parallel engine. Spawning targets with big footprints are the
    /// long, access-heavy runs the adaptive transport is built for (it
    /// stays inline until volume and cores justify workers), so routing
    /// them there is now a win rather than the 5–8× regression the fixed
    /// pipeline used to be. Note this selects the single-producer
    /// [`crate::profile_parallel`] engine; the multi-producer replay of
    /// §2.3.4 remains the explicit `profile_threads` facade API. This is
    /// the `discopop` CLI's default engine, so the out-of-the-box
    /// configuration is exact where exactness is cheap and bounded where
    /// it is not.
    pub fn auto_for(prog: &Program) -> EngineKind {
        if prog.footprint_words() <= Self::AUTO_PERFECT_MAX_WORDS {
            EngineKind::SerialPerfect
        } else if prog.spawns_threads() {
            EngineKind::parallel(8)
        } else {
            EngineKind::SerialSignature {
                slots: Self::AUTO_SIGNATURE_SLOTS,
            }
        }
    }

    /// The signature engine with `slots` slots.
    pub fn signature(slots: usize) -> Self {
        EngineKind::SerialSignature { slots }
    }

    /// The parallel engine with `workers` workers and default chunking
    /// (lock-free queues, the DiscoPoP design).
    pub fn parallel(workers: usize) -> Self {
        EngineKind::Parallel {
            workers,
            chunk: 256,
            queue: QueueKind::LockFree,
        }
    }

    /// Parse the textual spec format produced by [`EngineKind::label`]:
    /// `serial-perfect`, `serial-signature[:slots]`, or
    /// `parallel[:[workers=]workers[x chunk][:queue]]` with queue
    /// `lock-free` or `lock-based`. Worker, chunk, and slot counts must be
    /// positive — `parallel:0` and `parallel:4x0` are rejected with an
    /// error, matching `serial-signature:0`, instead of being silently
    /// clamped. This is what `discopop analyze --engine` accepts.
    ///
    /// ```
    /// use profiler::EngineKind;
    /// assert_eq!(EngineKind::parse("serial-perfect"), Ok(EngineKind::SerialPerfect));
    /// assert_eq!(
    ///     EngineKind::parse("serial-signature:4096"),
    ///     Ok(EngineKind::SerialSignature { slots: 4096 })
    /// );
    /// assert_eq!(EngineKind::parse("parallel:4"), Ok(EngineKind::parallel(4)));
    /// assert_eq!(EngineKind::parse("parallel:workers=4"), Ok(EngineKind::parallel(4)));
    /// let roundtrip = EngineKind::parse(&EngineKind::parallel(8).label()).unwrap();
    /// assert_eq!(roundtrip, EngineKind::parallel(8));
    /// ```
    pub fn parse(spec: &str) -> Result<EngineKind, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("");
        let engine = match head {
            "serial-perfect" | "perfect" => {
                if parts.next().is_some() {
                    return Err(format!("`{head}` takes no parameters"));
                }
                EngineKind::SerialPerfect
            }
            "serial-signature" | "signature" => {
                let slots = match parts.next() {
                    None => 1 << 18,
                    Some(s) => s
                        .parse::<usize>()
                        .map_err(|_| format!("bad slot count `{s}`"))?,
                };
                if slots == 0 {
                    return Err("slot count must be positive".to_string());
                }
                EngineKind::SerialSignature { slots }
            }
            "parallel" => {
                let (workers, chunk) = match parts.next() {
                    None => (8, 256),
                    Some(wc) => {
                        // `workers=N` is accepted as an explicit spelling
                        // of the worker count.
                        let wc = wc.strip_prefix("workers=").unwrap_or(wc);
                        match wc.split_once('x') {
                            None => (
                                wc.parse::<usize>()
                                    .map_err(|_| format!("bad worker count `{wc}`"))?,
                                256,
                            ),
                            Some((w, c)) => (
                                w.parse::<usize>()
                                    .map_err(|_| format!("bad worker count `{w}`"))?,
                                c.parse::<usize>()
                                    .map_err(|_| format!("bad chunk size `{c}`"))?,
                            ),
                        }
                    }
                };
                // Zero counts are user errors, rejected like
                // `serial-signature:0` — not silently clamped to 1.
                if workers == 0 {
                    return Err("worker count must be positive".to_string());
                }
                if chunk == 0 {
                    return Err("chunk size must be positive".to_string());
                }
                let queue = match parts.next() {
                    None | Some("lock-free") => QueueKind::LockFree,
                    Some("lock-based") => QueueKind::LockBased,
                    Some(q) => return Err(format!("unknown queue `{q}`")),
                };
                EngineKind::Parallel {
                    workers,
                    chunk,
                    queue,
                }
            }
            other => {
                return Err(format!(
                    "unknown engine `{other}` (expected serial-perfect, serial-signature[:slots], or parallel[:workers[xchunk][:queue]])"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing parameters in `{spec}`"));
        }
        Ok(engine)
    }

    /// A short stable label, used by reports and benchmark output.
    pub fn label(&self) -> String {
        match self {
            EngineKind::SerialPerfect => "serial-perfect".to_string(),
            EngineKind::SerialSignature { slots } => format!("serial-signature:{slots}"),
            EngineKind::Parallel {
                workers,
                chunk,
                queue,
            } => {
                // Execution clamps degenerate counts to 1; the label
                // records what actually runs, so it round-trips through
                // `parse`.
                let (workers, chunk) = ((*workers).max(1), (*chunk).max(1));
                let q = match queue {
                    QueueKind::LockFree => "lock-free",
                    QueueKind::LockBased => "lock-based",
                };
                format!("parallel:{workers}x{chunk}:{q}")
            }
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Options for [`profile_program_with`]: the engine plus the
/// engine-independent knobs.
///
/// ```
/// let cfg = profiler::ProfileConfig {
///     engine: profiler::EngineKind::parallel(4),
///     ..Default::default()
/// };
/// let p = interp::Program::new(lang::compile("fn main() { int x = 1; int y = x; }", "t").unwrap());
/// let out = profiler::profile_program_with(&p, &cfg).unwrap();
/// assert!(out.parallel.is_some(), "parallel engine reports transport stats");
/// ```
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Engine selection.
    pub engine: EngineKind,
    /// Enable the §2.4 skip optimization (serial engines only; the parallel
    /// engine's workers never skip).
    pub skip_loops: bool,
    /// Enable variable-lifetime analysis (§2.3.5).
    pub lifetime: bool,
    /// Resource limits (memory ceiling, wall-clock deadline). The default
    /// is unlimited, which keeps profiling on the ungoverned fast path; an
    /// active budget routes the run through the resource governor (see
    /// [`crate::budget`]).
    pub budget: Budget,
    /// Interpreter configuration.
    pub run: RunConfig,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            engine: EngineKind::SerialPerfect,
            skip_loops: false,
            lifetime: true,
            budget: Budget::unlimited(),
            run: RunConfig::default(),
        }
    }
}

/// Transport statistics of a parallel profiling run, carried in
/// [`ProfileOutput::parallel`].
#[derive(Debug, Clone, Serialize)]
pub struct ParallelStats {
    /// Chunks delivered (inline-processed or shipped to workers).
    pub chunks: u64,
    /// Accesses absorbed by producer-side repeat combining.
    pub combined: u64,
    /// Hot-address rebalance operations performed (§2.3.3 load balancing).
    pub rebalances: u64,
    /// Underloaded-partition merges performed (inline adaptive mode).
    pub merges: u64,
    /// Full-queue retries the producer suffered while pushing.
    pub queue_stalls: u64,
    /// Worker threads actually spawned (`0` = the adaptive transport kept
    /// the whole run inline).
    pub spawned_workers: usize,
    /// Worker panics recovered by the supervision layer: each one drained
    /// the dead worker's partition back into inline processing and the run
    /// completed with the same dependences.
    pub worker_recoveries: u64,
    /// Accesses processed per partition (load distribution).
    pub worker_processed: Vec<u64>,
}

/// Affine skip tier activity of one profiled run — the interpreter's
/// [`interp::SynthStats`] counters plus the dispatch count, mirrored here
/// so it serializes with the rest of the profile (the report's schema-v5
/// `summary` block). All zeros when the tier was off or nothing
/// qualified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SynthSummary {
    /// Distinct loops replayed through compiled plans.
    pub loops_skipped: u64,
    /// Full loop cycles replayed without dispatch.
    pub cycles: u64,
    /// Memory accesses executed by the plan replayer — delivered as the
    /// events interpretation would emit, or inside an [`interp::PlanRun`]
    /// that expands to exactly those events.
    pub synthesized_accesses: u64,
    /// Mid-cycle slice-budget parks that fell back to interpretation (a
    /// thread with no runnable peer re-slices in place and never parks).
    pub fallback_budget: u64,
    /// Engagements declined on a violated runtime precondition.
    pub fallback_precondition: u64,
    /// Injected-fault trips that disabled the tier mid-run.
    pub fallback_fault: u64,
    /// Interpreter dispatch-loop iterations for the whole run — the
    /// denominator of the tier's perf claim (plan-replayed cycles count
    /// zero dispatches).
    pub dispatches: u64,
}

impl SynthSummary {
    /// Extract the summary from an interpreter run.
    pub fn from_run(r: &RunResult) -> Self {
        SynthSummary {
            loops_skipped: r.synth.loops,
            cycles: r.synth.cycles,
            synthesized_accesses: r.synth.accesses,
            fallback_budget: r.synth.fallback_budget,
            fallback_precondition: r.synth.fallback_precondition,
            fallback_fault: r.synth.fallback_fault,
            dispatches: r.dispatches,
        }
    }

    /// Total fallbacks across all reasons.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_budget + self.fallback_precondition + self.fallback_fault
    }
}

/// Actor-tier activity of one profiled run — the interpreter's
/// [`interp::ActorStats`] mirrored into a serializable block (the
/// report's schema-v6 `actors` block). Absent (`None`) for plain
/// sequential targets: present as soon as the run spawned a second
/// actor or passed a message, generalizing the old thread count to
/// full per-actor attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ActorSummary {
    /// Actors ever spawned (main included).
    pub spawned: u32,
    /// Peak simultaneously-live actors.
    pub peak_live: u32,
    /// Messages sent across all mailboxes.
    pub sent: u64,
    /// Messages received across all mailboxes.
    pub received: u64,
    /// Per-channel message counts `(from, to, messages)`, sorted by
    /// `(from, to)` — the communication matrix of the run.
    pub channels: Vec<(u32, u32, u64)>,
}

impl ActorSummary {
    /// Extract the summary from an interpreter run; `None` when the run
    /// was single-actor and message-free.
    pub fn from_run(r: &RunResult) -> Option<Self> {
        let a = &r.actors;
        if a.spawned <= 1 && a.sent == 0 && a.received == 0 {
            return None;
        }
        Some(ActorSummary {
            spawned: a.spawned,
            peak_live: a.peak_live,
            sent: a.sent,
            received: a.received,
            channels: a.channels.clone(),
        })
    }
}

/// Everything a profiling run produces, identical across engines.
#[derive(Debug, Serialize)]
pub struct ProfileOutput {
    /// Merged dependences.
    pub deps: DepSet,
    /// Program execution tree.
    pub pet: Pet,
    /// Skip-optimization statistics.
    pub skip_stats: SkipStats,
    /// Affine skip tier activity (loops replayed, accesses synthesized,
    /// fallbacks, dispatch count).
    pub synth: SynthSummary,
    /// What became of the plan runs the engine was handed (all zeros for
    /// engines that take events only). Diagnostics: not part of the JSON
    /// report.
    pub plan_runs: RunStats,
    /// Estimated profiler memory footprint in bytes.
    pub profiler_bytes: usize,
    /// Executed instructions of the target program.
    pub steps: u64,
    /// Output printed by the target program.
    pub printed: Vec<String>,
    /// Parallel-engine transport statistics; `None` for serial engines.
    pub parallel: Option<ParallelStats>,
    /// Resource accounting of a governed run; `None` when no budget was
    /// set.
    pub resource: Option<ResourceStats>,
    /// Actor-tier activity; `None` for single-actor, message-free runs.
    pub actors: Option<ActorSummary>,
}

/// Profile a program with default options ([`EngineKind::SerialPerfect`],
/// lifetime analysis on).
///
/// ```
/// let p = interp::Program::new(lang::compile("fn main() { int x = 2; int y = x; }", "t").unwrap());
/// let out = profiler::profile_program(&p).unwrap();
/// assert!(out.deps.len() > 0);
/// ```
pub fn profile_program(prog: &Program) -> Result<ProfileOutput, ProfileError> {
    profile_program_with(prog, &ProfileConfig::default())
}

/// Profile a program with an explicit engine and options.
///
/// An active [`ProfileConfig::budget`] routes serial engines through the
/// resource governor (degradation ladder + deadline watchdog); the parallel
/// engine enforces the same budget inside its transport. With the default
/// unlimited budget the ungoverned fast paths run unchanged.
pub fn profile_program_with(
    prog: &Program,
    cfg: &ProfileConfig,
) -> Result<ProfileOutput, ProfileError> {
    let engine_cfg = EngineConfig {
        skip_loops: cfg.skip_loops,
    };
    match cfg.engine {
        EngineKind::SerialPerfect | EngineKind::SerialSignature { .. }
            if cfg.budget.is_active() =>
        {
            profile_governed(prog, cfg, engine_cfg)
        }
        EngineKind::SerialPerfect => {
            let mut p = SerialProfiler::with_perfect(prog.mem_op_meta(), engine_cfg, cfg.lifetime);
            let r = interp::run_with_config(prog, &mut p, cfg.run.clone())?;
            Ok(assemble(p, r))
        }
        EngineKind::SerialSignature { slots } => {
            let mut p =
                SerialProfiler::with_signature(slots, prog.mem_op_meta(), engine_cfg, cfg.lifetime);
            let r = interp::run_with_config(prog, &mut p, cfg.run.clone())?;
            Ok(assemble(p, r))
        }
        EngineKind::Parallel {
            workers,
            chunk,
            queue,
        } => {
            let pcfg = ParallelConfig {
                workers: workers.max(1),
                chunk_size: chunk.max(1),
                sig_slots: EngineKind::parallel_worker_slots(workers),
                queue,
                lifetime: cfg.lifetime,
                budget: cfg.budget,
                ..ParallelConfig::default()
            };
            let out = profile_parallel(prog, pcfg, cfg.run.clone())?.into_profile_output();
            if out.resource.as_ref().is_some_and(|r| r.deadline_hit) {
                return Err(ProfileError::DeadlineExceeded {
                    partial: Box::new(out),
                });
            }
            Ok(out)
        }
    }
}

fn assemble<M: crate::maps::AccessMap>(p: SerialProfiler<M>, r: RunResult) -> ProfileOutput {
    let plan_runs = p.run_stats();
    let (deps, pet, skip_stats, profiler_bytes) = p.finish(r.steps);
    ProfileOutput {
        deps,
        pet,
        skip_stats,
        synth: SynthSummary::from_run(&r),
        plan_runs,
        profiler_bytes,
        steps: r.steps,
        actors: ActorSummary::from_run(&r),
        printed: r.printed,
        parallel: None,
        resource: None,
    }
}

/// Events between governor checkpoints. Each checkpoint is a wall-clock
/// read plus a footprint estimate (a handful of `Vec` length sums), so at
/// this cadence governance overhead is far below the cost of processing
/// the same events — the `stress_xl` benchmark row pins it under 2%.
const GOVERNOR_CADENCE: u64 = 2048;

/// The serial profiler at one of the ladder's accuracy tiers.
// The exact profiler carries two inline page caches; a tier is moved once
// per ladder rung, so the size difference costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
enum Tier {
    Perfect(SerialProfiler<PerfectMap>),
    Sig(SerialProfiler<SignatureMap>),
}

/// [`Sink`] wrapper running a serial profiler under a [`Budget`]: every
/// `GOVERNOR_CADENCE` events it checks the deadline (setting the
/// interpreter's stop flag when expired) and the memory ceiling (walking
/// the degradation ladder until the footprint fits again), and publishes
/// the post-degradation footprint to its gauge. The budget invariant —
/// tracked bytes never exceed the ceiling at any checkpoint, ladder
/// permitting — is exactly what the fault-injection suite asserts.
struct GovernedSerial {
    tier: Option<Tier>,
    budget: Budget,
    gauge: MemGauge,
    slot: GaugeSlot,
    res: ResourceStats,
    started: std::time::Instant,
    stop: Arc<AtomicBool>,
    since_check: u64,
}

impl GovernedSerial {
    fn new(tier: Tier, budget: Budget, stop: Arc<AtomicBool>) -> Self {
        GovernedSerial {
            tier: Some(tier),
            budget,
            gauge: MemGauge::new(),
            slot: GaugeSlot::new(),
            res: ResourceStats::for_budget(&budget),
            started: std::time::Instant::now(),
            stop,
            since_check: 0,
        }
    }

    fn current_bytes(&self) -> usize {
        match &self.tier {
            Some(Tier::Perfect(p)) => p.current_bytes(),
            Some(Tier::Sig(s)) => s.current_bytes(),
            None => 0,
        }
    }

    /// Take one ladder rung. Returns `false` when no rung is left (floor
    /// reached): the governor then accepts the floor footprint.
    fn degrade(&mut self, bytes_before: u64, max: usize) -> bool {
        let Some(tier) = self.tier.take() else {
            return false;
        };
        match tier {
            Tier::Perfect(p) => {
                let slots = signature_slots_for_budget(max);
                let (sp, affected) = p.degrade_to_signature(slots);
                self.res.degradation_steps.push(DegradationStep {
                    from: ShadowTier::Perfect,
                    to: ShadowTier::Signature { slots },
                    bytes_before,
                    bytes_after: sp.current_bytes() as u64,
                    affected,
                    merged_slots: 0,
                });
                self.tier = Some(Tier::Sig(sp));
                true
            }
            Tier::Sig(mut s) => {
                let slots = s.signature_slots();
                if slots <= LADDER_MIN_SLOTS || slots % 2 != 0 {
                    self.tier = Some(Tier::Sig(s));
                    return false;
                }
                let merged = s.halve_signature();
                self.res.degradation_steps.push(DegradationStep {
                    from: ShadowTier::Signature { slots },
                    to: ShadowTier::Signature { slots: slots / 2 },
                    bytes_before,
                    bytes_after: s.current_bytes() as u64,
                    affected: None,
                    merged_slots: merged,
                });
                self.tier = Some(Tier::Sig(s));
                true
            }
        }
    }

    /// Enforce the memory ceiling, then publish the (post-degradation)
    /// footprint. Shared by the periodic checkpoint and the final flush.
    fn enforce_memory(&mut self) {
        let mut bytes = self.current_bytes();
        if let Some(max) = self.budget.max_memory_bytes {
            while bytes > max && self.degrade(bytes as u64, max) {
                bytes = self.current_bytes();
            }
        }
        self.slot.publish(&self.gauge, bytes);
        self.res.peak_tracked_bytes = self.gauge.peak() as u64;
    }

    #[cold]
    fn check(&mut self) {
        if let Some(dl) = self.budget.deadline {
            if !self.res.deadline_hit && self.started.elapsed() >= dl {
                self.res.deadline_hit = true;
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        self.enforce_memory();
    }

    #[inline]
    fn tick(&mut self, n: u64) {
        self.since_check += n;
        if self.since_check >= GOVERNOR_CADENCE {
            self.since_check = 0;
            self.check();
        }
    }

    /// Final flush and assembly: enforce the ceiling one last time (growth
    /// since the previous checkpoint must not outlive the run), compute the
    /// signature false-positive estimate, and attach the resource block.
    fn finish(mut self, r: RunResult) -> ProfileOutput {
        self.enforce_memory();
        self.res.fp_rate_estimate = match &self.tier {
            Some(Tier::Sig(s)) => {
                // Fill factor across both signatures: the probability that
                // a probe of a fresh address lands in an occupied slot —
                // Eq. 2.2 with the address count inferred from occupancy.
                s.signature_occupied() as f64 / (2 * s.signature_slots()) as f64
            }
            _ => 0.0,
        };
        let res = self.res;
        let mut out = match self.tier.take() {
            Some(Tier::Perfect(p)) => assemble(p, r),
            Some(Tier::Sig(s)) => assemble(s, r),
            None => unreachable!("tier is only vacant inside degrade()"),
        };
        out.resource = Some(res);
        out
    }
}

impl Sink for GovernedSerial {
    fn event(&mut self, ev: &Event) {
        match self.tier.as_mut() {
            Some(Tier::Perfect(p)) => p.event(ev),
            Some(Tier::Sig(s)) => s.event(ev),
            None => {}
        }
        self.tick(1);
    }

    fn events(&mut self, evs: &[Event]) {
        match self.tier.as_mut() {
            Some(Tier::Perfect(p)) => p.events(evs),
            Some(Tier::Sig(s)) => s.events(evs),
            None => {}
        }
        self.tick(evs.len() as u64);
    }
}

/// The governed serial path: wrap the profiler in a [`GovernedSerial`],
/// share (or install) the interpreter's stop flag, and translate a
/// governor-initiated interrupt into [`ProfileError::DeadlineExceeded`]
/// carrying the partial output.
fn profile_governed(
    prog: &Program,
    cfg: &ProfileConfig,
    engine_cfg: EngineConfig,
) -> Result<ProfileOutput, ProfileError> {
    let tier = match cfg.engine {
        EngineKind::SerialSignature { slots } => Tier::Sig(SerialProfiler::with_signature(
            slots,
            prog.mem_op_meta(),
            engine_cfg,
            cfg.lifetime,
        )),
        // `SerialPerfect`, the only other engine routed here.
        _ => Tier::Perfect(SerialProfiler::with_perfect(
            prog.mem_op_meta(),
            engine_cfg,
            cfg.lifetime,
        )),
    };
    let mut run = cfg.run.clone();
    let stop = run
        .stop
        .get_or_insert_with(|| Arc::new(AtomicBool::new(false)))
        .clone();
    let mut g = GovernedSerial::new(tier, cfg.budget, stop);
    let r = interp::run_with_config(prog, &mut g, run)?;
    let deadline_hit = g.res.deadline_hit && r.interrupted;
    let out = g.finish(r);
    if deadline_hit {
        Err(ProfileError::DeadlineExceeded {
            partial: Box::new(out),
        })
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    const SRC: &str = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i; }\nfor (int i = 1; i < 64; i = i + 1) { s = s + a[i] - a[i - 1]; }\n}";

    #[test]
    fn every_engine_kind_profiles() {
        let p = program(SRC);
        let perfect = profile_program(&p).unwrap();
        for engine in [
            EngineKind::SerialPerfect,
            EngineKind::signature(1 << 18),
            EngineKind::parallel(4),
            EngineKind::Parallel {
                workers: 2,
                chunk: 16,
                queue: QueueKind::LockBased,
            },
        ] {
            let out = profile_program_with(
                &p,
                &ProfileConfig {
                    engine,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                out.deps.sorted(),
                perfect.deps.sorted(),
                "{engine} diverged from the perfect baseline"
            );
            assert_eq!(
                out.parallel.is_some(),
                matches!(engine, EngineKind::Parallel { .. }),
                "{engine}"
            );
        }
    }

    #[test]
    fn auto_selects_perfect_for_small_footprints() {
        let small = program("global int a[64];\nfn main() { a[0] = 1; }");
        assert_eq!(EngineKind::auto_for(&small), EngineKind::SerialPerfect);
        assert!(small.footprint_words() <= EngineKind::AUTO_PERFECT_MAX_WORDS);
    }

    #[test]
    fn auto_routes_large_multithreaded_targets_to_parallel() {
        // Big footprint + spawn(): the adaptive parallel engine is the
        // auto-selected default.
        let big_mt = program(
            "global int a[300000];\nfn w(int n) { for (int i = 0; i < n; i = i + 1) { a[i] = i; } }\nfn main() { int t = spawn(w, 8); join(t); a[1] = a[0]; }",
        );
        assert!(big_mt.footprint_words() > EngineKind::AUTO_PERFECT_MAX_WORDS);
        assert!(big_mt.spawns_threads());
        assert_eq!(EngineKind::auto_for(&big_mt), EngineKind::parallel(8));
        // Small footprint + spawn(): exactness still wins.
        let small_mt = program(
            "global int c;\nfn w(int n) { c = c + n; }\nfn main() { int t = spawn(w, 3); join(t); }",
        );
        assert!(small_mt.spawns_threads());
        assert_eq!(EngineKind::auto_for(&small_mt), EngineKind::SerialPerfect);
    }

    #[test]
    fn parse_accepts_workers_prefix() {
        assert_eq!(
            EngineKind::parse("parallel:workers=6"),
            Ok(EngineKind::parallel(6))
        );
        assert_eq!(
            EngineKind::parse("parallel:workers=4x128:lock-based"),
            Ok(EngineKind::Parallel {
                workers: 4,
                chunk: 128,
                queue: QueueKind::LockBased,
            })
        );
        assert!(EngineKind::parse("parallel:workers=").is_err());
        assert!(EngineKind::parse("parallel:workers=x8").is_err());
    }

    #[test]
    fn auto_selects_signature_beyond_threshold() {
        // Two 200k-element globals push the static footprint past the
        // perfect-map threshold.
        let big = program(
            "global int a[200000];\nglobal int b[200000];\nfn main() { a[0] = 1; b[0] = a[0]; }",
        );
        assert!(big.footprint_words() > EngineKind::AUTO_PERFECT_MAX_WORDS);
        assert_eq!(
            EngineKind::auto_for(&big),
            EngineKind::SerialSignature {
                slots: EngineKind::AUTO_SIGNATURE_SLOTS
            }
        );
        // The selected engine actually profiles the program.
        let out = profile_program_with(
            &big,
            &ProfileConfig {
                engine: EngineKind::auto_for(&big),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.deps.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EngineKind::SerialPerfect.label(), "serial-perfect");
        assert_eq!(EngineKind::signature(64).label(), "serial-signature:64");
        assert_eq!(EngineKind::parallel(8).label(), "parallel:8x256:lock-free");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "turbo",
            "serial-perfect:3",
            "serial-signature:zero",
            "serial-signature:0",
            "parallel:4x",
            "parallel:4:mutex",
            "parallel:4:lock-free:extra",
        ] {
            assert!(EngineKind::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn parse_rejects_zero_workers_and_chunk() {
        // Zero counts error out like `serial-signature:0` — no silent
        // `.max(1)` clamping on the parse path.
        for (bad, msg) in [
            ("parallel:0", "worker count must be positive"),
            ("parallel:workers=0", "worker count must be positive"),
            ("parallel:0x64", "worker count must be positive"),
            ("parallel:4x0", "chunk size must be positive"),
            ("parallel:workers=4x0", "chunk size must be positive"),
            ("parallel:0x0:lock-based", "worker count must be positive"),
        ] {
            assert_eq!(EngineKind::parse(bad), Err(msg.to_string()), "`{bad}`");
        }
        // Positive counts still parse.
        assert_eq!(
            EngineKind::parse("parallel:1x1"),
            Ok(EngineKind::Parallel {
                workers: 1,
                chunk: 1,
                queue: QueueKind::LockFree,
            })
        );
    }

    #[test]
    fn every_label_parses_back() {
        for e in [
            EngineKind::SerialPerfect,
            EngineKind::signature(1 << 12),
            EngineKind::parallel(3),
            EngineKind::Parallel {
                workers: 2,
                chunk: 64,
                queue: QueueKind::LockBased,
            },
        ] {
            assert_eq!(EngineKind::parse(&e.label()), Ok(e));
        }
        // Degenerate counts clamp to 1 at execution time; the label records
        // the clamped value, so it still round-trips.
        let degenerate = EngineKind::Parallel {
            workers: 0,
            chunk: 0,
            queue: QueueKind::LockFree,
        };
        assert_eq!(degenerate.label(), "parallel:1x1:lock-free");
        assert_eq!(
            EngineKind::parse(&degenerate.label()),
            Ok(EngineKind::Parallel {
                workers: 1,
                chunk: 1,
                queue: QueueKind::LockFree,
            })
        );
    }

    #[test]
    fn worker_slots_follow_fixed_total_budget() {
        assert_eq!(
            EngineKind::parallel_worker_slots(8),
            EngineKind::PARALLEL_TOTAL_SLOTS / 8
        );
        assert_eq!(
            EngineKind::parallel_worker_slots(1),
            EngineKind::PARALLEL_TOTAL_SLOTS
        );
        // Very high worker counts hit the per-worker floor.
        assert_eq!(
            EngineKind::parallel_worker_slots(1024),
            EngineKind::PARALLEL_MIN_WORKER_SLOTS
        );
        assert_eq!(
            EngineKind::parallel_worker_slots(0),
            EngineKind::PARALLEL_TOTAL_SLOTS
        );
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let p = program("fn main() { int x = 1; int y = x + 1; }");
        let out = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::Parallel {
                    workers: 0,
                    chunk: 0,
                    queue: QueueKind::LockFree,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.parallel.unwrap().worker_processed.len(), 1);
    }
}
