//! Engine selection and the one-call profiling entry points.
//!
//! For sequential targets the profiler offers the exact page-table shadow
//! memory, the bounded-memory signature algorithm (§2.3.2), and the
//! producer/consumer parallel pipeline (§2.3.3). They all answer the same
//! question ("which dependences does this program have?") and are one
//! engine ([`crate::pipeline::Profiler`]) under different settings, so
//! selecting one is data, not a separate API: [`EngineKind`] names the
//! settings, [`ProfileConfig`] carries them plus the engine-independent
//! knobs, and [`profile_program_with`] runs the program under them. Every
//! kind produces the same [`ProfileOutput`]; [`EngineKind::Parallel`]
//! additionally fills [`ProfileOutput::parallel`] with its transport
//! statistics, and every kind says where its accesses were tracked
//! ([`ProfileOutput::tracking`]).

use crate::budget::{Budget, ProfileError, ResourceStats};
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
    /// ([`crate::ParallelConfig::spawn_threshold`]). Partitions are exact
    /// for small address footprints and signatures beyond (per-worker slot
    /// count: [`EngineKind::parallel_worker_slots`]; for other slot sizes
    /// use [`crate::profile_parallel`] with an explicit
    /// [`crate::ParallelConfig`]).
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
    /// beyond. Whether the target spawns threads or actors does not enter:
    /// a multi-threaded target is one more access stream to the engine, and
    /// any long run moves its tracking to a worker thread on its own. This
    /// is the `discopop` CLI's default engine, so the out-of-the-box
    /// configuration is exact where exactness is cheap and bounded where
    /// it is not.
    pub fn auto_for(prog: &Program) -> EngineKind {
        if prog.footprint_words() <= Self::AUTO_PERFECT_MAX_WORDS {
            EngineKind::SerialPerfect
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
            EngineKind::Parallel { workers, chunk } => {
                // Execution clamps degenerate counts to 1; the label
                // records what actually runs, so it round-trips through
                // `parse`.
                let (workers, chunk) = ((*workers).max(1), (*chunk).max(1));
                format!("parallel:{workers}x{chunk}")
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
    /// Enable the §2.4 skip optimization. Serial engine kinds only: its
    /// state is per memory operation and wants one builder to see all of
    /// an operation's accesses, which [`EngineKind::Parallel`] deals out by
    /// address. With it on, plan runs are fed access by access.
    pub skip_loops: bool,
    /// Enable variable-lifetime analysis (§2.3.5).
    pub lifetime: bool,
    /// Resource limits (memory ceiling, wall-clock deadline). The default
    /// is unlimited; an active budget gives the engine a resource governor
    /// (see [`crate::budget`]) and changes nothing else about how it runs.
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
/// [`crate::ParallelConfig::spawn_threshold`] — in worker threads. Decided
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
    /// Skip-optimization statistics.
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
/// One engine runs every [`EngineKind`]; an active
/// [`ProfileConfig::budget`] adds the resource governor (degradation
/// ladder + deadline watchdog) to it. A run the governor interrupts on an
/// expired deadline returns [`ProfileError::DeadlineExceeded`] carrying the
/// partial output.
pub fn profile_program_with(
    prog: &Program,
    cfg: &ProfileConfig,
) -> Result<ProfileOutput, ProfileError> {
    let p = Profiler::new(prog.mem_op_meta(), prog.footprint_words(), cfg);
    drive(prog, p, cfg.run.clone())
}

/// Run `prog` under `p` and assemble the output. The one deadline rule:
/// the run failed on its deadline iff the governor's stop flag actually
/// interrupted the interpreter (a deadline that passes after the last
/// slice boundary leaves a complete profile).
pub(crate) fn drive(
    prog: &Program,
    mut p: Profiler,
    mut run: RunConfig,
) -> Result<ProfileOutput, ProfileError> {
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
}
