//! Engine selection and the one profiling entry point.
//!
//! The profiler offers the exact page-table shadow memory, the
//! bounded-memory signature algorithm (§2.3.2), and the producer/consumer
//! parallel pipeline (§2.3.3). They all answer the same question ("which
//! dependences does this program have?") and are one engine
//! ([`crate::pipeline::Profiler`]) under different settings, so selecting
//! one is data, not a separate API: [`EngineKind`] spells the settings,
//! [`EngineKind::dials`] resolves a spelling for one program — in one place
//! — to a map and a partition count ([`Dials`]), [`ProfileConfig`] carries
//! the spelling plus the engine-independent knobs, and
//! [`profile_program_with`] runs the program under them. Every kind produces
//! the same [`ProfileOutput`]; [`EngineKind::Parallel`] additionally fills
//! [`ProfileOutput::parallel`] with its transport statistics, and every kind
//! says where its accesses were tracked ([`ProfileOutput::tracking`]).

use crate::budget::{Budget, ProfileError, ResourceStats, ShadowTier};
use crate::dep::DepSet;
use crate::engine::{RunStats, SkipStats};
use crate::pet::Pet;
use crate::pipeline::Profiler;
use interp::{Program, RunConfig, RunResult};
use serde::Serialize;

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
    /// proportional to the touched address space. One partition, tracked by
    /// the producer — or by one worker thread once the run is long enough
    /// (see [`Tracking`]).
    #[default]
    SerialPerfect,
    /// The fixed-size signature algorithm: bounded memory, a measurable
    /// collision rate once `slots` is small relative to the address set.
    /// One partition, placed like [`EngineKind::SerialPerfect`]'s.
    SerialSignature {
        /// Signature slots. Each slot is a pair — the last read's and the
        /// last write's status ([`crate::maps::Slot`]), 48 bytes.
        slots: usize,
    },
    /// The producer/consumer parallel pipeline: accesses are routed by
    /// address over `workers` partitions, which start inline and move into
    /// `workers` consumer threads — fed chunks of up to `chunk` accesses
    /// over lock-free queues — once the run is large enough
    /// ([`ProfileConfig::spawn_threshold`]). Partitions are exact up to
    /// [`EngineKind::AUTO_PERFECT_MAX_WORDS`] words of address footprint and
    /// signatures of [`EngineKind::parallel_worker_slots`] slots beyond
    /// ([`EngineKind::dials`]).
    Parallel {
        /// Partitions, i.e. consumer (worker) threads once spawned.
        workers: usize,
        /// Accesses per chunk shipped to a worker.
        chunk: usize,
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

    /// Pick an engine from one rule, the program's static footprint
    /// (globals + one frame per function — a static proxy for the touched
    /// address space): the exact page-table shadow up to
    /// [`EngineKind::AUTO_PERFECT_MAX_WORDS`] words, `serial-signature`
    /// beyond — the rule that sizes [`EngineKind::Parallel`]'s partitions
    /// too. Whether the target spawns threads or actors does not enter: a
    /// multi-threaded target is one more access stream to the engine, and
    /// any long run moves its tracking to a worker thread on its own. This
    /// is the `discopop` CLI's default engine, so the out-of-the-box
    /// configuration is exact where exactness is cheap and bounded where
    /// it is not.
    pub fn auto_for(prog: &Program) -> EngineKind {
        match map_for(prog.footprint_words(), Self::AUTO_SIGNATURE_SLOTS) {
            ShadowTier::Perfect => EngineKind::SerialPerfect,
            ShadowTier::Signature { slots } => EngineKind::SerialSignature { slots },
        }
    }

    /// What this spelling runs for a program of `footprint_words` static
    /// address footprint ([`interp::Program::footprint_words`]) — the one
    /// place an engine spec becomes settings:
    ///
    /// - `serial-perfect` is one exact partition, `serial-signature:S` one
    ///   signature partition of `S` slots;
    /// - `parallel:WxC` is `W` partitions shipping chunks of `C` accesses,
    ///   exact up to [`EngineKind::AUTO_PERFECT_MAX_WORDS`] footprint words
    ///   (the [`EngineKind::auto_for`] rule) and signatures of
    ///   [`EngineKind::parallel_worker_slots`]`(W)` slots beyond; zero
    ///   counts, which only code can construct, run as 1.
    ///
    /// A serial partition that moves is fed over a short queue: at
    /// `parallel`'s 512 queued chunks one worker measured +4.4 MB RSS
    /// against a 33 MB baseline on `sparse_gather`, at 16 chunks of 256
    /// accesses +0.6 MB.
    ///
    /// ```
    /// use profiler::{EngineKind, ShadowTier};
    /// let big = EngineKind::AUTO_PERFECT_MAX_WORDS + 1;
    /// let d = EngineKind::parallel(4).dials(big);
    /// assert_eq!((d.tier, d.partitions), (ShadowTier::Signature { slots: 1 << 17 }, 4));
    /// assert_eq!(d.to_string(), "4 signature partitions of 131072 slots");
    /// assert_eq!(EngineKind::SerialPerfect.dials(big).to_string(), "1 exact partition");
    /// ```
    pub fn dials(&self, footprint_words: usize) -> Dials {
        let serial = |tier| Dials {
            tier,
            partitions: 1,
            chunk: 256,
            queue_cap: 16,
        };
        match *self {
            EngineKind::SerialPerfect => serial(ShadowTier::Perfect),
            EngineKind::SerialSignature { slots } => serial(ShadowTier::Signature { slots }),
            EngineKind::Parallel { workers, chunk } => {
                let partitions = workers.max(1);
                Dials {
                    tier: map_for(footprint_words, Self::parallel_worker_slots(partitions)),
                    partitions,
                    chunk: chunk.max(1),
                    queue_cap: 512,
                }
            }
        }
    }

    /// The signature engine with `slots` slots.
    pub fn signature(slots: usize) -> Self {
        EngineKind::SerialSignature { slots }
    }

    /// The parallel engine with `workers` workers and default chunking.
    pub fn parallel(workers: usize) -> Self {
        EngineKind::Parallel {
            workers,
            chunk: 256,
        }
    }

    /// Parse the textual spec format produced by [`EngineKind::label`]:
    /// `serial-perfect`, `serial-signature[:slots]`, or
    /// `parallel[:[workers=]workers[x chunk]]`. Worker, chunk, and slot
    /// counts must be positive — `parallel:0` and `parallel:4x0` are
    /// rejected with an error, matching `serial-signature:0`, instead of
    /// being silently clamped. A trailing `:lock-free` is accepted and
    /// ignored (labels in saved reports spell it); `:lock-based` is rejected
    /// with an error naming its removal. This is what
    /// `discopop analyze --engine` accepts.
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
                match parts.next() {
                    None | Some("lock-free") => {}
                    Some("lock-based") => return Err(LOCK_BASED_REMOVED.to_string()),
                    Some(q) => return Err(format!("unknown queue `{q}`")),
                }
                EngineKind::Parallel { workers, chunk }
            }
            other => {
                return Err(format!(
                    "unknown engine `{other}` (expected serial-perfect, serial-signature[:slots], or parallel[:workers[xchunk]])"
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
            EngineKind::Parallel { .. } => {
                // The label records what actually runs, degenerate counts
                // clamped, so it round-trips through `parse`.
                let Dials {
                    partitions, chunk, ..
                } = self.dials(0);
                format!("parallel:{partitions}x{chunk}")
            }
        }
    }
}

/// The one footprint rule: exact up to [`EngineKind::AUTO_PERFECT_MAX_WORDS`]
/// words, a signature of `slots` slots beyond.
fn map_for(footprint_words: usize, slots: usize) -> ShadowTier {
    if footprint_words <= EngineKind::AUTO_PERFECT_MAX_WORDS {
        ShadowTier::Perfect
    } else {
        ShadowTier::Signature { slots }
    }
}

/// What an [`EngineKind`] resolves to for one program
/// ([`EngineKind::dials`]): a map and a partition count, and how a moved
/// partition is fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dials {
    /// Every partition's starting map — the top of its degradation ladder.
    pub tier: ShadowTier,
    /// Address partitions, each moved into a worker thread of its own past
    /// [`ProfileConfig::spawn_threshold`].
    pub partitions: usize,
    /// Accesses per chunk shipped to a worker.
    pub chunk: usize,
    /// Capacity in messages of each worker's inbound queue, and in chunks of
    /// its spent-chunk queue.
    pub queue_cap: usize,
}

impl std::fmt::Display for Dials {
    /// `1 exact partition`, `4 signature partitions of 131072 slots`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.partitions;
        let plural = if n == 1 { "" } else { "s" };
        match self.tier {
            ShadowTier::Perfect => write!(f, "{n} exact partition{plural}"),
            ShadowTier::Signature { slots } => {
                write!(f, "{n} signature partition{plural} of {slots} slots")
            }
        }
    }
}

/// What [`EngineKind::parse`] answers to a `:lock-based` queue suffix.
const LOCK_BASED_REMOVED: &str = "the lock-based queue was removed: it was the slower baseline \
     of Fig. 2.9a and nothing selected it (`parallel:WxC` always uses the lock-free queues)";

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
    /// Enable variable-lifetime analysis (§2.3.5).
    pub lifetime: bool,
    /// Resource limits (memory ceiling, wall-clock deadline). The default
    /// is unlimited; an active budget gives the engine a resource governor
    /// (see [`crate::budget`]) and changes nothing else about how it runs.
    pub budget: Budget,
    /// Accesses before the partitions move from the producer into one
    /// worker thread each (given ≥ 2 available cores, no memory ceiling and
    /// no plan run resolved in closed form). `0` moves them at construction,
    /// whatever the host — but a memory ceiling still wins: under one the
    /// partitions never leave the producer. `u64::MAX` never moves them.
    pub spawn_threshold: u64,
    /// Interpreter configuration.
    pub run: RunConfig,
}

impl ProfileConfig {
    /// Default [`ProfileConfig::spawn_threshold`], for every engine kind (a
    /// serial engine's lone partition moves to one worker past it): below
    /// ~1M accesses the pipeline's setup + per-chunk transport costs
    /// outweigh any consumer overlap (programs of 30–50k accesses measured
    /// 5–8× slower through workers spawned up front than serially). Every
    /// catalogue program stays below it (the largest, `c-ray`, makes 215 k
    /// accesses); `sparse_gather`'s 6.3 M move to a worker at the first
    /// checkpoint past it.
    pub const ADAPTIVE_SPAWN_THRESHOLD: u64 = 1 << 20;
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            engine: EngineKind::SerialPerfect,
            lifetime: true,
            budget: Budget::unlimited(),
            spawn_threshold: Self::ADAPTIVE_SPAWN_THRESHOLD,
            run: RunConfig::default(),
        }
    }
}

/// Transport statistics of a parallel profiling run, carried in
/// [`ProfileOutput::parallel`].
#[derive(Debug, Clone, Serialize)]
pub struct ParallelStats {
    /// Chunks shipped to workers (`0` for a run that stayed inline).
    pub chunks: u64,
    /// Full-queue retries the producer suffered while pushing.
    pub queue_stalls: u64,
    /// Worker threads that finished their partition (`0` = the whole run
    /// stayed inline). A worker recovered after a panic no longer counts:
    /// its partition finished under the producer.
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

/// Where a run's accesses were tracked (§2.3.3's consumer side): on the
/// producer thread that interprets the target, or — past
/// [`ProfileConfig::spawn_threshold`] — in worker threads. Decided
/// from access volume, core count, memory ceiling and plan runs alone, and
/// invisible in the output, so it is reported beside the report, not in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracking {
    /// The partitions moved into worker threads once the producer had
    /// tracked `at_access` accesses (`0`: at construction).
    Moved {
        /// Accesses tracked on the producer before the move.
        at_access: u64,
        /// Workers that panicked and whose partition the producer finished.
        recoveries: u64,
    },
    /// Tracked on the producer for the whole run, for this reason.
    Inline(InlineReason),
}

/// Why a run's partitions stayed with the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineReason {
    /// Too few accesses — `accesses` at the end — to pay for a worker as of
    /// the last checkpoint.
    Short {
        /// Accesses tracked.
        accesses: u64,
    },
    /// The host has one core: a worker would only take turns with the
    /// producer.
    OneCore,
    /// A memory ceiling is set: inline, the degradation ladder's rungs fall
    /// at the same access on every run.
    MemoryCeiling,
    /// An exact partition resolved a plan run in closed form, which needs
    /// the shadow on the producer.
    PlanRunResolved,
}

impl std::fmt::Display for Tracking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tracking::Moved {
                at_access,
                recoveries: 0,
            } => write!(f, "tracked on a worker thread from access {at_access}"),
            Tracking::Moved {
                at_access,
                recoveries,
            } => write!(
                f,
                "tracked on a worker thread from access {at_access}, \
                 {recoveries} dead worker(s) finished inline"
            ),
            Tracking::Inline(InlineReason::Short { accesses }) => write!(
                f,
                "tracked inline: {accesses} accesses, too few to move to a worker"
            ),
            Tracking::Inline(InlineReason::OneCore) => f.write_str("tracked inline: one core"),
            Tracking::Inline(InlineReason::MemoryCeiling) => {
                f.write_str("tracked inline: a memory ceiling is set")
            }
            Tracking::Inline(InlineReason::PlanRunResolved) => {
                f.write_str("tracked inline: plan runs resolved in closed form")
            }
        }
    }
}

/// Everything a profiling run produces, identical across engines.
#[derive(Debug, Serialize)]
pub struct ProfileOutput {
    /// Merged dependences.
    pub deps: DepSet,
    /// Program execution tree.
    pub pet: Pet,
    /// §2.4 statistics (Table 2.7, Fig. 2.13).
    pub skip_stats: SkipStats,
    /// Affine skip tier activity (loops replayed, accesses synthesized,
    /// fallbacks, dispatch count).
    pub synth: SynthSummary,
    /// What became of the plan runs the engine resolved in closed form (all
    /// zeros for configurations that expand them). Diagnostics: not part of
    /// the JSON report.
    pub plan_runs: RunStats,
    /// Estimated profiler memory footprint in bytes.
    pub profiler_bytes: usize,
    /// Executed instructions of the target program.
    pub steps: u64,
    /// Output printed by the target program.
    pub printed: Vec<String>,
    /// Transport statistics: `Some` exactly when the engine kind is
    /// [`EngineKind::Parallel`].
    pub parallel: Option<ParallelStats>,
    /// Resource accounting of a governed run; `None` when no budget was
    /// set.
    pub resource: Option<ResourceStats>,
    /// Actor-tier activity; `None` for single-actor, message-free runs.
    pub actors: Option<ActorSummary>,
    /// Where the accesses were tracked, and why. Diagnostics: not part of
    /// the JSON report.
    pub tracking: Tracking,
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
/// One engine runs every [`EngineKind`], and multi-threaded targets too (set
/// [`RunConfig::racy_delivery`] to deliver their threads' accesses as real
/// threads would: race hints, §2.3.4); an active [`ProfileConfig::budget`]
/// adds the resource governor (degradation ladder + deadline watchdog) to
/// it. The one deadline rule: a run fails on its deadline, with
/// [`ProfileError::DeadlineExceeded`] carrying the partial output, iff the
/// governor's stop flag actually interrupted the interpreter (a deadline
/// that passes after the last slice boundary leaves a complete profile).
pub fn profile_program_with(
    prog: &Program,
    cfg: &ProfileConfig,
) -> Result<ProfileOutput, ProfileError> {
    let mut p = Profiler::new(prog.mem_op_meta(), prog.footprint_words(), cfg);
    let mut run = cfg.run.clone();
    p.govern_run(&mut run);
    let r = interp::run_with_config(prog, &mut p, run)?;
    let mut out = p.finish(r.steps);
    out.synth = SynthSummary::from_run(&r);
    out.actors = ActorSummary::from_run(&r);
    out.printed = r.printed;
    let deadline_hit = out.resource.as_ref().is_some_and(|res| res.deadline_hit);
    if deadline_hit && r.interrupted {
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
    use crate::dep::DepType;

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
    fn auto_routes_large_multithreaded_targets_like_any_large_target() {
        // Big footprint + spawn(): the signature, as without the spawn.
        let big_mt = program(
            "global int a[300000];\nfn w(int n) { for (int i = 0; i < n; i = i + 1) { a[i] = i; } }\nfn main() { int t = spawn(w, 8); join(t); a[1] = a[0]; }",
        );
        assert!(big_mt.footprint_words() > EngineKind::AUTO_PERFECT_MAX_WORDS);
        assert_eq!(
            EngineKind::auto_for(&big_mt),
            EngineKind::signature(EngineKind::AUTO_SIGNATURE_SLOTS)
        );
        // Small footprint + spawn(): exact.
        let small_mt = program(
            "global int c;\nfn w(int n) { c = c + n; }\nfn main() { int t = spawn(w, 3); join(t); }",
        );
        assert_eq!(EngineKind::auto_for(&small_mt), EngineKind::SerialPerfect);
    }

    #[test]
    fn parse_accepts_workers_prefix() {
        assert_eq!(
            EngineKind::parse("parallel:workers=6"),
            Ok(EngineKind::parallel(6))
        );
        assert_eq!(
            EngineKind::parse("parallel:workers=4x128:lock-free"),
            Ok(EngineKind::Parallel {
                workers: 4,
                chunk: 128,
            })
        );
        let removed = EngineKind::parse("parallel:workers=4x128:lock-based").unwrap_err();
        assert!(
            removed.contains("lock-based queue was removed"),
            "{removed}"
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
        assert_eq!(EngineKind::parallel(8).label(), "parallel:8x256");
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
            },
        ] {
            assert_eq!(EngineKind::parse(&e.label()), Ok(e));
        }
        // Saved reports spell the queue the parent's labels named.
        assert_eq!(
            EngineKind::parse("parallel:3x256:lock-free"),
            Ok(EngineKind::parallel(3))
        );
        // Degenerate counts clamp to 1 at execution time; the label records
        // the clamped value, so it still round-trips.
        let degenerate = EngineKind::Parallel {
            workers: 0,
            chunk: 0,
        };
        assert_eq!(degenerate.label(), "parallel:1x1");
        assert_eq!(
            EngineKind::parse(&degenerate.label()),
            Ok(EngineKind::Parallel {
                workers: 1,
                chunk: 1,
            })
        );
    }

    /// Every spelling resolves in `dials`, on both sides of the footprint
    /// rule: `(tier, partitions, chunk, queue_cap)`.
    #[test]
    fn every_spelling_resolves_to_its_dials() {
        let (exact, over) = (
            EngineKind::AUTO_PERFECT_MAX_WORDS,
            EngineKind::AUTO_PERFECT_MAX_WORDS + 1,
        );
        assert_eq!((exact, over), (1 << 18, (1 << 18) + 1));
        let sig = |slots| ShadowTier::Signature { slots };
        let perfect = ShadowTier::Perfect;
        let parse = |spec: &str| EngineKind::parse(spec).unwrap();
        let degenerate = EngineKind::Parallel {
            workers: 0,
            chunk: 0,
        };
        for (engine, at_exact, over_it) in [
            (
                parse("serial-perfect"),
                (perfect, 1, 256, 16),
                (perfect, 1, 256, 16),
            ),
            (
                parse("serial-signature"),
                (sig(1 << 18), 1, 256, 16),
                (sig(1 << 18), 1, 256, 16),
            ),
            (
                parse("serial-signature:4096"),
                (sig(4096), 1, 256, 16),
                (sig(4096), 1, 256, 16),
            ),
            (
                parse("parallel"),
                (perfect, 8, 256, 512),
                (sig(1 << 16), 8, 256, 512),
            ),
            (
                parse("parallel:4"),
                (perfect, 4, 256, 512),
                (sig(1 << 17), 4, 256, 512),
            ),
            (
                parse("parallel:2x64"),
                (perfect, 2, 64, 512),
                (sig(1 << 18), 2, 64, 512),
            ),
            (
                parse("parallel:1x1"),
                (perfect, 1, 1, 512),
                (sig(1 << 19), 1, 1, 512),
            ),
            (
                parse("parallel:64"),
                (perfect, 64, 256, 512),
                (sig(1 << 14), 64, 256, 512),
            ),
            (degenerate, (perfect, 1, 1, 512), (sig(1 << 19), 1, 1, 512)),
        ] {
            for (words, want) in [(exact, at_exact), (over, over_it)] {
                let d = engine.dials(words);
                assert_eq!(
                    (d.tier, d.partitions, d.chunk, d.queue_cap),
                    want,
                    "{engine} at {words} words"
                );
            }
        }
        // `auto_for` and the `parallel` spelling switch maps at the same word.
        let sized = |n: usize| program(&format!("global int a[{n}];\nfn main() {{ a[0] = 1; }}"));
        let frame = sized(2).footprint_words() - 2;
        for words in [exact, over] {
            let p = sized(words - frame);
            assert_eq!(p.footprint_words(), words);
            let auto = EngineKind::auto_for(&p).dials(words).tier;
            let parallel = EngineKind::parallel(4).dials(words).tier;
            assert_eq!(
                auto == perfect,
                parallel == perfect,
                "{words} words: {auto} vs {parallel}"
            );
            assert_eq!(auto == perfect, words == exact);
        }
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
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.parallel.unwrap().worker_processed.len(), 1);
    }

    /// Fig. 2.7 / Table 2.2: `while (k > 0) { sum += k * 2; k--; }`.
    ///
    /// Table 2.2 idealizes WAR detection (it lists a WAR from the write of
    /// `k` to *every* preceding read); the signature of Algorithm 2 keeps a
    /// single read slot per address, so the profiler reports the WAR
    /// against the most recent read. All RAW (true) dependences of the
    /// table — the ones parallelism discovery consumes — are reproduced
    /// exactly, including their loop-carried tags.
    #[test]
    fn fig_2_7_dependences() {
        let p = program(
            "fn main() -> int {\nint k = 5; int sum = 0;\nwhile (k > 0) {\nsum += k * 2;\nk = k - 1;\n}\nreturn sum;\n}",
        );
        // line 3 = while header, 4 = sum +=, 5 = k = k - 1
        let out = profile_program(&p).unwrap();
        let deps = out.deps.sorted();
        let has = |sink: u32, ty: DepType, source: u32, var: &str, carried: bool| {
            deps.iter().any(|d| {
                d.sink.line == sink
                    && d.ty == ty
                    && d.source.line == source
                    && d.var != u32::MAX
                    && p.symbol(d.var) == var
                    && d.is_loop_carried() == carried
            })
        };
        // WARs against the most recent read (intra-iteration).
        assert!(
            has(4, DepType::War, 4, "sum", false),
            "WAR sum@4<-4: {deps:?}"
        );
        assert!(has(5, DepType::War, 5, "k", false), "WAR k 5<-5");
        // Loop-carried RAWs (Table 2.2 rows 5-8).
        assert!(has(3, DepType::Raw, 5, "k", true), "RAW k 3<-5 (carried)");
        assert!(
            has(4, DepType::Raw, 4, "sum", true),
            "RAW sum 4<-4 (carried)"
        );
        assert!(has(4, DepType::Raw, 5, "k", true), "RAW k 4<-5 (carried)");
        assert!(has(5, DepType::Raw, 5, "k", true), "RAW k 5<-5 (carried)");
        // Intra-iteration RAWs from the initializers.
        assert!(has(4, DepType::Raw, 2, "sum", false), "RAW sum 4<-2");
        assert_eq!(out.printed.len(), 0);
    }

    #[test]
    fn parallel_loop_has_no_carried_raw() {
        let p = program(
            "global int a[64];\nglobal int b[64];\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nb[i] = a[i] * 2;\n}\n}",
        );
        let out = profile_program(&p).unwrap();
        // The loop at lines 4..6: no RAW carried by it except the induction
        // variable `i`, which is scoped to the loop and treated as private
        // by discovery (§3.2.5).
        let (_, f) = p.module.function("main").unwrap();
        let loop_region = f
            .regions
            .iter()
            .position(|r| r.kind == mir::RegionKind::Loop)
            .unwrap() as u32;
        let fid = p.module.function("main").unwrap().0 .0;
        let carried: Vec<_> = out
            .deps
            .carried_raws((fid, loop_region))
            .into_iter()
            .filter(|d| p.symbol(d.var) != "i")
            .collect();
        assert!(carried.is_empty(), "{carried:?}");
    }

    #[test]
    fn signature_matches_perfect_when_large() {
        let src = "global int a[32];\nfn main() {\nfor (int i = 1; i < 32; i = i + 1) {\na[i] = a[i - 1] + i;\n}\n}";
        let p = program(src);
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 20),
                ..Default::default()
            },
        )
        .unwrap();
        let (fpr, fnr) = sig.deps.accuracy_vs(&perfect.deps);
        assert_eq!((fpr, fnr), (0.0, 0.0), "large signature must be exact");
    }

    #[test]
    fn tiny_signature_introduces_errors() {
        let src = "global int a[512];\nglobal int b[512];\nfn main() {\nfor (int i = 0; i < 512; i = i + 1) { a[i] = i; }\nfor (int i = 1; i < 512; i = i + 1) { b[i] = a[i] + b[i - 1]; }\n}";
        let p = program(src);
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(13),
                ..Default::default()
            },
        )
        .unwrap();
        let (fpr, fnr) = sig.deps.accuracy_vs(&perfect.deps);
        assert!(
            fpr > 0.0 || fnr > 0.0,
            "a 13-slot signature on 1024 addresses must collide"
        );
    }

    #[test]
    fn lifetime_analysis_blocks_stale_stack_deps() {
        // Two functions reuse the same stack slot; without lifetime analysis
        // a false RAW from f's local to g's local appears.
        let src = "fn f() -> int { int x = 1; return x; }\nfn g() -> int { int y; int r = y; return r; }\nfn main() { int a = f(); int b = g(); }";
        let p = program(src);
        let with = profile_program_with(
            &p,
            &ProfileConfig {
                lifetime: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = profile_program_with(
            &p,
            &ProfileConfig {
                lifetime: false,
                ..Default::default()
            },
        )
        .unwrap();
        let cross = |o: &ProfileOutput| {
            o.deps
                .sorted()
                .iter()
                .filter(|d| d.ty == DepType::Raw && p.symbol(d.var) == "y")
                .count()
        };
        assert_eq!(cross(&with), 0, "lifetime analysis must evict x");
        assert!(cross(&without) > 0, "without it the stale dep appears");
    }

    #[test]
    fn pet_contains_main_and_loop() {
        let p =
            program("fn main() {\nint s = 0;\nfor (int i = 0; i < 5; i = i + 1) { s += i; }\n}");
        let out = profile_program(&p).unwrap();
        assert!(out.pet.nodes.len() >= 3); // root + main + loop
        let spans = crate::dep::control_spans(&p, &out.pet);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].iters, 5);
    }

    #[test]
    fn render_text_roundtrip() {
        let p = program(
            "global int g;\nfn main() {\nfor (int i = 0; i < 3; i = i + 1) {\ng = g + i;\n}\n}",
        );
        let out = profile_program(&p).unwrap();
        let spans = crate::dep::control_spans(&p, &out.pet);
        let text = crate::dep::render_text(&out.deps, &|s| p.symbol(s).to_string(), &spans, false);
        assert!(text.contains("BGN loop"));
        assert!(text.contains("END loop 3"));
        assert!(text.contains("RAW"));
    }

    /// A mid-sized signature must agree exactly with the perfect shadow on
    /// this collision-prone mix of global-array and stack addresses.
    #[test]
    fn signature_agrees_with_perfect_on_mixed_addresses() {
        let src = "global int a[32];\nfn main() {\nfor (int i = 1; i < 32; i = i + 1) {\na[i] = a[i - 1] + i;\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 20),
                ..Default::default()
            },
        )
        .unwrap();
        let ps: std::collections::HashSet<_> = perfect.deps.sorted().into_iter().collect();
        let ss: std::collections::HashSet<_> = sig.deps.sorted().into_iter().collect();
        let fp: Vec<_> = ss.difference(&ps).collect();
        let fnn: Vec<_> = ps.difference(&ss).collect();
        assert!(fp.is_empty(), "signature-only deps: {fp:?}");
        assert!(fnn.is_empty(), "missed deps: {fnn:?}");
    }
}
