//! `discopop` — Discovery of Potential Parallelism in Sequential Programs.
//!
//! A from-scratch Rust reproduction of the DiscoPoP framework (Li,
//! ICPP 2013 / TU Darmstadt dissertation 2016): an efficient dynamic
//! data-dependence profiler plus computational-unit-based parallelism
//! discovery.
//!
//! This crate is the facade: it re-exports every subsystem and offers the
//! staged [`Analysis`] pipeline mirroring the paper's phases — *compile*
//! (instrument), *profile* (dependences + PET), *discover* (loop classes,
//! tasks, ranking). Each stage yields a typed artifact ([`Compiled`],
//! [`Profiled`], [`Report`]) so callers can reuse a compiled program across
//! engine configurations and inspect dependences before discovery runs.
//! A `discopop` CLI binary wraps the same pipeline.
//!
//! # Quickstart
//!
//! One call for the common case:
//!
//! ```
//! let report = discopop::analyze_source(r#"
//!     global int a[64];
//!     global int total;
//!     fn main() {
//!         for (int i = 0; i < 64; i = i + 1) {
//!             a[i] = i * i;
//!         }
//!         for (int j = 0; j < 64; j = j + 1) {
//!             total = total + a[j];
//!         }
//!     }
//! "#, "demo").unwrap();
//! // The first loop is DOALL, the second a reduction.
//! assert_eq!(report.discovery.loops.len(), 2);
//! assert!(!report.discovery.ranked.is_empty());
//! ```
//!
//! Staged, with an explicit engine:
//!
//! ```
//! use discopop::{Analysis, EngineKind};
//!
//! let mut analysis = Analysis::new().engine(EngineKind::signature(1 << 16));
//! let compiled = analysis
//!     .compile("global int g[16];\nfn main() {\nfor (int i = 0; i < 16; i = i + 1) {\ng[i] = i;\n}\n}", "demo")
//!     .unwrap();
//! let profiled = analysis.profile(&compiled).unwrap();   // inspect deps/PET here
//! assert!(profiled.deps().len() > 0);
//! let report = analysis.discover(&compiled, profiled);
//! assert_eq!(report.discovery.loops.len(), 1);
//! ```
//!
//! # Architecture
//!
//! - [`lang`]: mini-C frontend (the LLVM/Clang substitute)
//! - [`mir`]: three-address IR
//! - [`interp`]: instrumenting interpreter (the instrumentation runtime)
//! - [`profiler`]: the data-dependence profiler (dissertation Ch. 2)
//! - [`cu`]: computational units and CU graphs (Ch. 3)
//! - [`discovery`]: DOALL/DOACROSS/SPMD/MPMD + ranking (Ch. 4)
//! - [`apps`]: ML loop classification, STM sizing, communication patterns
//!   (Ch. 5)
//! - [`report`]: the versioned JSON wire format of a [`Report`]

// The facade runs inside the daemon, on whatever a client sends: library
// code returns typed errors instead of panicking (tests may unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub use analysis;
pub use apps;
pub use cu;
pub use discovery;
pub use interp;
pub use lang;
pub use mir;
pub use profiler;

pub mod protocol;
pub mod report;
pub mod serve;
pub mod submit;

pub use profiler::{Budget, EngineKind, ProfileError, ResourceStats};

use serde::Serialize;

/// Everything one analysis run produces.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Name of the analysed program (module name).
    pub program: String,
    /// Label of the engine that produced the profile
    /// (see [`EngineKind::label`]).
    pub engine: String,
    /// Profiler output: dependences, PET, statistics.
    pub profile: profiler::ProfileOutput,
    /// Discovery results: loop classes, tasks, ranking.
    pub discovery: discovery::Discovery,
    /// Static pre-pass results (affine coverage, independence claims,
    /// lints); present when the pipeline ran with
    /// [`Analysis::with_static`].
    pub statics: Option<StaticReport>,
}

impl Report {
    /// An owned copy of this report as its document (schema
    /// [`report::SCHEMA_VERSION`]), for callers that keep or inspect one;
    /// `to_doc(program).to_json()` is the reference tree every written
    /// report is tested against. Needs the program to resolve symbol and
    /// function names. Writing the report does not go through it.
    pub fn to_doc(&self, program: &interp::Program) -> report::ReportDoc {
        report::ReportDoc::from_report(program, self)
    }

    /// The report as pretty-printed, versioned JSON, written in one pass:
    /// each row is described from this report's own fields, borrowing
    /// names from `program`, straight into the output buffer — no document
    /// and no tree in between. The same bytes as
    /// `to_doc(program).to_json().to_string_pretty()`.
    pub fn to_json_string(&self, program: &interp::Program) -> String {
        self.render(program, jsonio::TextSink::pretty())
    }

    /// [`Report::to_json_string`] into a sink of the caller's layout (the
    /// daemon's replies are compact).
    pub(crate) fn render(&self, program: &interp::Program, mut sink: jsonio::TextSink) -> String {
        report::emit_live(program, self, &mut sink);
        sink.finish()
    }
}

/// Errors of the analysis pipeline.
#[derive(Debug)]
pub enum Error {
    /// Frontend failure.
    Compile(lang::CompileError),
    /// Target program failed at runtime.
    Runtime(interp::RuntimeError),
    /// The configured [`Budget`] deadline expired; the partial profile
    /// (everything up to the interrupt, with `resource.deadline_hit` set)
    /// rides along.
    DeadlineExceeded {
        /// The partial profiler output.
        partial: Box<profiler::ProfileOutput>,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Runtime(e) => write!(f, "runtime error: {e}"),
            Error::DeadlineExceeded { partial } => write!(
                f,
                "deadline exceeded after {} steps ({} dependences profiled)",
                partial.steps,
                partial.deps.len()
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<lang::CompileError> for Error {
    fn from(e: lang::CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<interp::RuntimeError> for Error {
    fn from(e: interp::RuntimeError) -> Self {
        Error::Runtime(e)
    }
}

impl From<ProfileError> for Error {
    fn from(e: ProfileError) -> Self {
        match e {
            ProfileError::Runtime(e) => Error::Runtime(e),
            ProfileError::DeadlineExceeded { partial } => Error::DeadlineExceeded { partial },
        }
    }
}

/// A progress notification emitted at stage boundaries; register a sink
/// with [`Analysis::on_progress`] to observe long workloads.
#[derive(Debug, Clone, Copy)]
pub enum StageEvent<'a> {
    /// The frontend produced an instrumented program, lowered to the
    /// pre-decoded instruction stream the interpreter executes.
    Compiled {
        /// Module name.
        name: &'a str,
        /// Functions in the module.
        functions: usize,
        /// Decoded ops across all functions (flat execution form; see
        /// [`interp::code`]).
        decoded_ops: usize,
    },
    /// The profiler finished executing the target.
    Profiled {
        /// Engine label.
        engine: &'a str,
        /// What the engine spec resolved to for this program: its map and
        /// partition count.
        dials: profiler::Dials,
        /// Executed target instructions.
        steps: u64,
        /// Distinct (merged) dependences.
        dependences: usize,
        /// What became of the plan runs the engine was handed: how many,
        /// and how much of them resolved in closed form (all zeros when the
        /// skip tier was off or the engine takes events only).
        plan_runs: profiler::RunStats,
        /// Where the accesses were tracked: on the interpreting thread, and
        /// why, or on a worker from which access on.
        tracking: profiler::Tracking,
    },
    /// The static pre-pass finished (only with [`Analysis::with_static`]).
    StaticAnalyzed {
        /// Loops examined.
        loops: usize,
        /// Independence claims proven.
        claims: usize,
        /// Lint findings.
        lints: usize,
    },
    /// Parallelism discovery finished.
    Discovered {
        /// Loops classified.
        loops: usize,
        /// SPMD + MPMD task suggestions.
        tasks: usize,
        /// Ranked opportunities.
        ranked: usize,
    },
}

/// Boxed progress sink registered with [`Analysis::on_progress`].
pub type ProgressSink = Box<dyn FnMut(&StageEvent<'_>)>;

/// Results of the static pre-pass ([`analysis`]): per-loop affine coverage,
/// statically-proven independence claims, and lint findings.
#[derive(Debug, Clone, Serialize)]
pub struct StaticReport {
    /// Per-loop affine coverage and independence statistics.
    pub loops: Vec<analysis::LoopReport>,
    /// Proven-independent `(loop, var, line pair)` claims — each one a
    /// falsifiable prediction about the dynamic profile (see
    /// [`cross_check`]).
    pub claims: Vec<analysis::Claim>,
    /// Lint findings (uninitialized reads, out-of-bounds indices, race
    /// hints).
    pub lints: Vec<analysis::Lint>,
    /// The module spawns threads, so claims were suppressed.
    pub spawns_threads: bool,
}

impl StaticReport {
    /// Run the static pipeline over a module.
    pub fn of(module: &mir::Module) -> StaticReport {
        let a = analysis::analyze(module);
        StaticReport {
            loops: a.loop_reports,
            claims: a.claims,
            lints: a.lints,
            spawns_threads: a.spawns_threads,
        }
    }

    /// `(affine_ops, mem_ops)` summed over every loop.
    pub fn coverage(&self) -> (u32, u32) {
        self.loops
            .iter()
            .fold((0, 0), |(a, m), r| (a + r.affine_ops, m + r.mem_ops))
    }

    /// Fraction of in-loop memory ops proven affine (1.0 for loop-free
    /// programs).
    pub fn affine_fraction(&self) -> f64 {
        let (a, m) = self.coverage();
        if m == 0 {
            1.0
        } else {
            f64::from(a) / f64::from(m)
        }
    }

    /// Loops whose cross-iteration conflicts were all statically excluded.
    pub fn doall_candidates(&self) -> impl Iterator<Item = &analysis::LoopReport> {
        self.loops.iter().filter(|l| l.doall_candidate)
    }
}

/// A statically-proven independence contradicted by a dynamically-observed
/// dependence — by construction this must never happen; any instance is a
/// soundness bug in the static analysis (or the profiler).
#[derive(Debug, Clone)]
pub struct CrossCheckViolation {
    /// The static claim.
    pub claim: analysis::Claim,
    /// The observed dependence contradicting it.
    pub dep: profiler::Dep,
}

impl std::fmt::Display for CrossCheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "claim `{}` independent across loop (f{}, r{}) at lines {}-{} \
             contradicted by dynamic {} {} <- {}",
            self.claim.var_name,
            self.claim.func.index(),
            self.claim.region.index(),
            self.claim.line_a,
            self.claim.line_b,
            self.dep.ty,
            self.dep.sink,
            self.dep.source,
        )
    }
}

/// The static-vs-dynamic oracle: find every dynamically-observed dependence
/// that contradicts a static independence claim. A claim covers a
/// `(carrying loop, variable, unordered line pair)`; a dependence
/// contradicts it when it is carried by exactly that loop, names that
/// variable, and connects those lines. INIT entries are bookkeeping, not
/// dependences, and are skipped. An empty result is the expected outcome on
/// every engine.
pub fn cross_check(
    program: &interp::Program,
    statics: &StaticReport,
    deps: &profiler::DepSet,
) -> Vec<CrossCheckViolation> {
    use std::collections::HashMap;
    let mut by_key: HashMap<(u32, u32, &str, u32, u32), &analysis::Claim> = HashMap::new();
    for c in &statics.claims {
        by_key.insert(
            (
                c.func.index() as u32,
                c.region.index() as u32,
                c.var_name.as_str(),
                c.line_a,
                c.line_b,
            ),
            c,
        );
    }
    let mut out = Vec::new();
    for d in deps.sorted() {
        if d.ty == profiler::DepType::Init || d.var == u32::MAX {
            continue;
        }
        let Some((cf, cr)) = d.carried_by else {
            continue;
        };
        let (la, lb) = if d.source.line <= d.sink.line {
            (d.source.line, d.sink.line)
        } else {
            (d.sink.line, d.source.line)
        };
        let var = program.symbol(d.var);
        if let Some(&claim) = by_key.get(&(cf, cr, var, la, lb)) {
            out.push(CrossCheckViolation {
                claim: claim.clone(),
                dep: d,
            });
        }
    }
    out
}

/// The staged analysis pipeline: configure once, then drive
/// compile → profile → discover, or let [`Analysis::analyze`] run all three.
///
/// The builder owns every knob the pipeline has; stage methods borrow the
/// artifacts, so one [`Compiled`] program can be profiled under several
/// engines:
///
/// ```
/// use discopop::{Analysis, EngineKind};
///
/// let src = "global int a[32];\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\na[i] = i;\n}\n}";
/// let mut analysis = Analysis::new();
/// let compiled = analysis.compile(src, "demo").unwrap();
/// let exact = analysis.profile(&compiled).unwrap();
/// let parallel = analysis
///     .engine_mut(EngineKind::parallel(2))
///     .profile(&compiled)
///     .unwrap();
/// assert_eq!(exact.deps().sorted(), parallel.deps().sorted());
/// ```
#[derive(Default)]
pub struct Analysis {
    /// What the engine is handed, the affine skip tier aside: the profiler's
    /// own defaults until a builder method overrides one.
    cfg: profiler::ProfileConfig,
    /// Affine skip tier policy: `None` = auto (on exactly when the static
    /// pre-pass runs), `Some(v)` = forced.
    affine_skip: Option<bool>,
    statics: bool,
    progress: Option<ProgressSink>,
}

impl std::fmt::Debug for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analysis")
            .field("cfg", &self.cfg)
            .field("affine_skip", &self.affine_skip)
            .field("statics", &self.statics)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Analysis {
    /// A pipeline with the profiler's default configuration
    /// ([`EngineKind::SerialPerfect`], lifetime analysis on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the profiling engine (builder style).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Select the profiling engine on an existing pipeline, e.g. to
    /// re-profile the same [`Compiled`] program under another engine.
    pub fn engine_mut(&mut self, engine: EngineKind) -> &mut Self {
        self.cfg.engine = engine;
        self
    }

    /// Force the interpreter's affine skip tier on or off. The tier
    /// replays a precompiled straight-line plan for counted loops whose
    /// in-loop accesses are all statically proven affine, eliminating
    /// per-op dispatch; its access stream is bit-identical to full
    /// interpretation (same events, op ids, timestamps), so only
    /// profiling speed changes. By default (without this call) the tier
    /// is active exactly when the static pre-pass runs
    /// ([`Analysis::with_static`]) — the same affine facts that justify
    /// skipping are then part of the report. The CLI's `--no-skip` maps
    /// to `affine_skip(false)`.
    pub fn affine_skip(mut self, on: bool) -> Self {
        self.affine_skip = Some(on);
        self
    }

    /// Whether the affine skip tier will be active for the next profiling
    /// run (resolves the auto policy against [`Analysis::with_static`]).
    pub fn affine_skip_effective(&self) -> bool {
        self.affine_skip.unwrap_or(self.statics)
    }

    /// Enable variable-lifetime analysis (§2.3.5); on by default.
    pub fn lifetime(mut self, on: bool) -> Self {
        self.cfg.lifetime = on;
        self
    }

    /// Resource budget for profiling runs: a hard memory ceiling triggers
    /// the degradation ladder (exact shadow → signature → halved
    /// signature), a deadline aborts with [`Error::DeadlineExceeded`]
    /// carrying the partial profile. Unlimited by default.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Shorthand: set only the memory ceiling of the [`Budget`].
    pub fn max_memory(mut self, bytes: usize) -> Self {
        self.cfg.budget.max_memory_bytes = Some(bytes);
        self
    }

    /// Shorthand: set only the deadline of the [`Budget`].
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.cfg.budget.deadline = Some(deadline);
        self
    }

    /// Enable the static pre-pass: [`Report::statics`] is populated with
    /// affine coverage, independence claims, and lints, and the
    /// [`StageEvent::StaticAnalyzed`] event fires between profile and
    /// discovery. Off by default.
    pub fn with_static(mut self, on: bool) -> Self {
        self.statics = on;
        self
    }

    /// Register a progress sink invoked at every stage boundary.
    ///
    /// ```
    /// let mut analysis = discopop::Analysis::new()
    ///     .on_progress(|ev| eprintln!("stage done: {ev:?}"));
    /// analysis.analyze("fn main() { int x = 0; x = x + 1; }", "tiny").unwrap();
    /// ```
    pub fn on_progress(mut self, sink: impl FnMut(&StageEvent<'_>) + 'static) -> Self {
        self.progress = Some(Box::new(sink));
        self
    }

    fn notify(&mut self, ev: StageEvent<'_>) {
        if let Some(sink) = &mut self.progress {
            sink(&ev);
        }
    }

    /// The [`profiler::ProfileConfig`] this pipeline profiles with.
    pub fn profile_config(&self) -> profiler::ProfileConfig {
        let mut cfg = self.cfg.clone();
        cfg.run.affine_skip = self.affine_skip_effective();
        cfg
    }

    /// Stage 1: compile and instrument a mini-C source module.
    pub fn compile(&mut self, source: &str, name: &str) -> Result<Compiled, Error> {
        let program = interp::Program::new(lang::compile(source, name)?);
        let compiled = Compiled::new(program);
        self.notify(StageEvent::Compiled {
            name: &compiled.name,
            functions: compiled.program.module.functions.len(),
            decoded_ops: compiled.program.num_decoded_ops(),
        });
        Ok(compiled)
    }

    /// Wrap a finished profiler run as the stage-2 artifact and announce it.
    fn profiled(
        &mut self,
        engine: String,
        dials: profiler::Dials,
        output: profiler::ProfileOutput,
    ) -> Profiled {
        let profiled = Profiled { engine, output };
        self.notify(StageEvent::Profiled {
            engine: &profiled.engine,
            dials,
            steps: profiled.output.steps,
            dependences: profiled.output.deps.len(),
            plan_runs: profiled.output.plan_runs,
            tracking: profiled.output.tracking,
        });
        profiled
    }

    /// Stage 2: execute the program under the configured engine.
    pub fn profile(&mut self, compiled: &Compiled) -> Result<Profiled, Error> {
        self.profile_with(&compiled.program, self.profile_config())
    }

    /// Stage 2, multi-threaded targets: [`Analysis::profile`] with the
    /// interpreter delivering each target thread's accesses as real threads
    /// would ([`interp::RunConfig::racy_delivery`], §2.3.4). Every thread's
    /// events are buffered and flushed at its synchronization points — lock
    /// release, spawn, join, thread end, send, receive — so lock-ordered
    /// accesses and message handoffs arrive in order, and unsynchronized
    /// accesses may not: the engine flags those as race hints through
    /// timestamp inversion. Same engine, budget and options as
    /// [`Analysis::profile`], and as deterministic: a run is repeatable.
    pub fn profile_threads(&mut self, compiled: &Compiled) -> Result<Profiled, Error> {
        let mut cfg = self.profile_config();
        cfg.run.racy_delivery = true;
        self.profile_with(&compiled.program, cfg)
    }

    fn profile_with(
        &mut self,
        program: &interp::Program,
        cfg: profiler::ProfileConfig,
    ) -> Result<Profiled, Error> {
        let output = profiler::profile_program_with(program, &cfg)?;
        let dials = cfg.engine.dials(program.footprint_words());
        Ok(self.profiled(cfg.engine.label(), dials, output))
    }

    /// Stage 3: run parallelism discovery and assemble the [`Report`].
    pub fn discover(&mut self, compiled: &Compiled, profiled: Profiled) -> Report {
        self.discover_program(&compiled.program, &compiled.name, profiled)
    }

    fn discover_program(
        &mut self,
        program: &interp::Program,
        name: &str,
        profiled: Profiled,
    ) -> Report {
        let statics = self.statics.then(|| {
            let s = StaticReport::of(&program.module);
            self.notify(StageEvent::StaticAnalyzed {
                loops: s.loops.len(),
                claims: s.claims.len(),
                lints: s.lints.len(),
            });
            s
        });
        let discovery = discovery::discover(program, &profiled.output.deps, &profiled.output.pet);
        self.notify(StageEvent::Discovered {
            loops: discovery.loops.len(),
            tasks: discovery.spmd.len() + discovery.mpmd.len(),
            ranked: discovery.ranked.len(),
        });
        Report {
            program: name.to_string(),
            engine: profiled.engine,
            profile: profiled.output,
            discovery,
            statics,
        }
    }

    /// All three stages on a source module.
    pub fn analyze(&mut self, source: &str, name: &str) -> Result<Report, Error> {
        let compiled = self.compile(source, name)?;
        self.analyze_compiled(&compiled)
    }

    /// Profile + discover on an already-compiled program.
    pub fn analyze_compiled(&mut self, compiled: &Compiled) -> Result<Report, Error> {
        let profiled = self.profile(compiled)?;
        Ok(self.discover(compiled, profiled))
    }

    /// Profile + discover on a borrowed [`interp::Program`] (e.g. a
    /// `workloads` entry) without wrapping it in a [`Compiled`].
    pub fn analyze_program(&mut self, program: &interp::Program) -> Result<Report, Error> {
        let profiled = self.profile_with(program, self.profile_config())?;
        let name = program.module.name.clone();
        Ok(self.discover_program(program, &name, profiled))
    }
}

/// Stage-1 artifact: an instrumented, executable program — the verified
/// module plus memory layout and the pre-decoded instruction streams
/// ([`interp::code`]) that every later profiling run executes, so decoding
/// is paid once per compile, not per engine. Construct with
/// [`Analysis::compile`], or wrap an existing [`interp::Program`] (e.g. a
/// `workloads` entry) via [`Compiled::new`].
#[derive(Debug)]
pub struct Compiled {
    /// The executable program.
    pub program: interp::Program,
    /// Module name, carried into the report.
    pub name: String,
}

impl Compiled {
    /// Wrap an already-built program.
    pub fn new(program: interp::Program) -> Self {
        let name = program.module.name.clone();
        Compiled { program, name }
    }

    /// The underlying program.
    pub fn program(&self) -> &interp::Program {
        &self.program
    }

    /// Total decoded ops of the flat execution form.
    pub fn decoded_ops(&self) -> usize {
        self.program.num_decoded_ops()
    }
}

impl From<interp::Program> for Compiled {
    fn from(program: interp::Program) -> Self {
        Compiled::new(program)
    }
}

/// Stage-2 artifact: the profiler's output, inspectable before discovery.
#[derive(Debug)]
pub struct Profiled {
    /// Label of the engine that produced this profile.
    pub engine: String,
    /// The full profiler output.
    pub output: profiler::ProfileOutput,
}

impl Profiled {
    /// The merged dependence set.
    pub fn deps(&self) -> &profiler::DepSet {
        &self.output.deps
    }

    /// The program execution tree.
    pub fn pet(&self) -> &profiler::Pet {
        &self.output.pet
    }
}

/// Compile, execute under the profiler, and run parallelism discovery with
/// default options — the one-call convenience over [`Analysis`].
pub fn analyze_source(source: &str, name: &str) -> Result<Report, Error> {
    Analysis::new().analyze(source, name)
}

/// [`analyze_source`] for an already-compiled program.
pub fn analyze_program(program: &interp::Program) -> Result<Report, Error> {
    Analysis::new().analyze_program(program)
}

/// Render the dependence set in the DiscoPoP text format (Fig. 2.1 /
/// Fig. 2.3): `NOM` lines with aggregated dependences, `BGN`/`END` control
/// spans — the original tooling's line-oriented output, as opposed to the
/// JSON report.
pub fn render_dependence_text(program: &interp::Program, report: &Report) -> String {
    let spans = profiler::control_spans(program, &report.profile.pet);
    let multithreaded = report
        .profile
        .deps
        .sorted()
        .iter()
        .any(|d| d.sink_thread != 0 || d.source_thread != 0);
    profiler::render_text(
        &report.profile.deps,
        &|sym| program.symbol(sym).to_string(),
        &spans,
        multithreaded,
    )
}

/// Render a human-readable report of the ranked suggestions.
pub fn render_report(program: &interp::Program, report: &Report) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== DiscoPoP report: {} ==", program.module.name);
    let _ = writeln!(
        out,
        "engine {}; {} instructions executed, {} distinct dependences ({} before merging)",
        report.engine,
        report.profile.steps,
        report.profile.deps.len(),
        report.profile.deps.total_found
    );
    let synth = &report.profile.synth;
    if synth.loops_skipped > 0 {
        let _ = writeln!(
            out,
            "affine skip tier: {} loops plan-replayed ({} cycles, {} accesses synthesized, {} fallbacks)",
            synth.loops_skipped,
            synth.cycles,
            synth.synthesized_accesses,
            synth.fallbacks(),
        );
    }
    if let Some(a) = &report.profile.actors {
        let _ = writeln!(
            out,
            "actors: {} spawned (peak {} live), {} messages sent / {} received over {} channel(s)",
            a.spawned,
            a.peak_live,
            a.sent,
            a.received,
            a.channels.len(),
        );
        let comm = apps::actor_comm(
            &a.channels,
            a.spawned as usize,
            &report.profile.deps,
            program.mailbox_symbol(),
        );
        let _ = writeln!(
            out,
            "mailbox dependences: {} handoffs (RAW), {} capacity couplings (WAR/WAW), {} race hints",
            comm.handoff_deps, comm.capacity_deps, comm.race_hints,
        );
        // The actor×actor matrix reads like the Fig. 5.1 thread matrices;
        // keep it to a screenful for the 10k-actor stress family.
        if a.spawned <= 16 {
            let _ = write!(out, "{}", apps::render_matrix(&comm.matrix));
        } else {
            let _ = writeln!(
                out,
                "channel matrix: {} actors, pattern {} (matrix elided)",
                a.spawned,
                comm.matrix.pattern(),
            );
        }
    }
    let _ = writeln!(out, "\nRanked parallelization opportunities:");
    for (i, r) in report.discovery.ranked.iter().enumerate() {
        match &r.target {
            discovery::ranking::SuggestionTarget::Loop {
                start_line, class, ..
            } => {
                let _ = writeln!(
                    out,
                    "  {}. loop at line {start_line}: {:?} (coverage {:.1}%, local speedup {:.1}x, imbalance {:.2})",
                    i + 1,
                    class,
                    r.ranking.instruction_coverage * 100.0,
                    r.ranking.local_speedup,
                    r.ranking.cu_imbalance,
                );
            }
            discovery::ranking::SuggestionTarget::TaskSet { spans, .. } => {
                let spans: Vec<String> = spans.iter().map(|(a, b)| format!("{a}-{b}")).collect();
                let _ = writeln!(
                    out,
                    "  {}. concurrent tasks at lines {} (coverage {:.1}%, local speedup {:.1}x)",
                    i + 1,
                    spans.join(", "),
                    r.ranking.instruction_coverage * 100.0,
                    r.ranking.local_speedup,
                );
            }
        }
    }
    if !report.discovery.spmd.is_empty() {
        let _ = writeln!(out, "\nTask suggestions:");
        for s in &report.discovery.spmd {
            let _ = writeln!(
                out,
                "  {:?} calling [{}] at lines {:?}",
                s.kind,
                s.callees.join(", "),
                s.lines
            );
        }
    }
    if let Some(s) = &report.statics {
        let (aff, mem) = s.coverage();
        let _ = writeln!(
            out,
            "\nStatic analysis: {aff}/{mem} in-loop memory ops affine ({:.1}%), \
             {} independence claims, {} doall candidates, {} lint findings{}",
            s.affine_fraction() * 100.0,
            s.claims.len(),
            s.doall_candidates().count(),
            s.lints.len(),
            if s.spawns_threads {
                " (threaded module: claims suppressed)"
            } else {
                ""
            }
        );
        for l in &s.loops {
            let _ = writeln!(
                out,
                "  loop at lines {}-{} in {}: {}/{} affine, {}/{} pairs proven{}",
                l.start_line,
                l.end_line,
                l.func_name,
                l.affine_ops,
                l.mem_ops,
                l.proven_pairs,
                l.tested_pairs,
                if l.doall_candidate {
                    " [static doall candidate]"
                } else {
                    ""
                }
            );
        }
        for l in &s.lints {
            let _ = writeln!(out, "  lint [{}]: {}", l.kind.code(), l.message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_pipeline_works() {
        let report = crate::analyze_source(
            "global int g[32];\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\ng[i] = i;\n}\n}",
            "t",
        )
        .unwrap();
        assert_eq!(report.discovery.loops.len(), 1);
        assert_eq!(report.discovery.loops[0].class, discovery::LoopClass::Doall);
        assert_eq!(report.engine, "serial-perfect");
    }

    #[test]
    fn staged_pipeline_reuses_compiled_across_engines() {
        let src = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i; }\nfor (int i = 1; i < 64; i = i + 1) { s = s + a[i]; }\n}";
        let mut analysis = Analysis::new();
        let compiled = analysis.compile(src, "staged").unwrap();
        let perfect = analysis.profile(&compiled).unwrap();
        let signature = analysis
            .engine_mut(EngineKind::signature(1 << 18))
            .profile(&compiled)
            .unwrap();
        let parallel = analysis
            .engine_mut(EngineKind::parallel(4))
            .profile(&compiled)
            .unwrap();
        assert_eq!(perfect.deps().sorted(), signature.deps().sorted());
        assert_eq!(perfect.deps().sorted(), parallel.deps().sorted());
        assert!(parallel.output.parallel.is_some());
        let report = analysis.discover(&compiled, parallel);
        assert_eq!(report.engine, "parallel:4x256");
        assert!(!report.discovery.ranked.is_empty());
    }

    #[test]
    fn progress_sink_sees_every_stage() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut analysis = Analysis::new().with_static(true).on_progress(move |ev| {
            sink.borrow_mut().push(match ev {
                StageEvent::Compiled { .. } => "compiled",
                StageEvent::Profiled { .. } => "profiled",
                StageEvent::StaticAnalyzed { .. } => "static",
                StageEvent::Discovered { .. } => "discovered",
            });
        });
        analysis
            .analyze("global int g;\nfn main() { g = 1; int x = g; }", "progress")
            .unwrap();
        assert_eq!(
            *seen.borrow(),
            vec!["compiled", "profiled", "static", "discovered"]
        );
    }

    #[test]
    fn render_mentions_loops() {
        let src = "global int g[32];\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\ng[i] = i * 3;\n}\n}";
        let mut analysis = Analysis::new();
        let compiled = analysis.compile(src, "demo").unwrap();
        let report = analysis.analyze_compiled(&compiled).unwrap();
        let text = crate::render_report(compiled.program(), &report);
        assert!(text.contains("Ranked parallelization opportunities"));
        assert!(text.contains("Doall"));
        assert!(text.contains("serial-perfect"));
    }

    #[test]
    fn affine_skip_defaults_to_the_static_switch_and_changes_nothing() {
        let src = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i * 2; }\nfor (int i = 0; i < 64; i = i + 1) { s = s + a[i]; }\n}";
        // Auto policy: off without statics, on with them, forcible both ways.
        assert!(!Analysis::new().affine_skip_effective());
        assert!(Analysis::new().with_static(true).affine_skip_effective());
        assert!(Analysis::new().affine_skip(true).affine_skip_effective());
        assert!(!Analysis::new()
            .with_static(true)
            .affine_skip(false)
            .affine_skip_effective());

        let mut on = Analysis::new().with_static(true);
        let compiled = on.compile(src, "skip").unwrap();
        let skipped = on.analyze_compiled(&compiled).unwrap();
        assert!(
            skipped.profile.synth.loops_skipped > 0,
            "fully-affine counted loops engage the tier: {:?}",
            skipped.profile.synth
        );
        let mut off = Analysis::new().with_static(true).affine_skip(false);
        let interpreted = off.analyze_compiled(&compiled).unwrap();
        assert_eq!(interpreted.profile.synth.loops_skipped, 0);
        // Bit-identical dependence output, fewer interpreter dispatches.
        assert_eq!(
            skipped.profile.deps.sorted(),
            interpreted.profile.deps.sorted()
        );
        assert_eq!(skipped.profile.steps, interpreted.profile.steps);
        assert!(skipped.profile.synth.dispatches < interpreted.profile.synth.dispatches);
    }

    #[test]
    fn errors_surface() {
        assert!(matches!(
            crate::analyze_source("fn main() { x = 1; }", "t"),
            Err(crate::Error::Compile(_))
        ));
        assert!(matches!(
            crate::analyze_source("fn main() -> int { int z = 0; return 1 / z; }", "t"),
            Err(crate::Error::Runtime(_))
        ));
    }

    #[test]
    fn multithreaded_facade_path() {
        let src = "global int c;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(1); c = c + 1; unlock(1); } }
fn main() { int a = spawn(w, 20); int b = spawn(w, 20); join(a); join(b); }";
        let mut analysis = Analysis::new();
        let compiled = analysis.compile(src, "mt").unwrap();
        let profiled = analysis.profile_threads(&compiled).unwrap();
        assert!(profiled.deps().sorted().iter().any(|d| d.is_cross_thread()));
        assert!(profiled.deps().race_hints().is_empty());
        let report = analysis.discover(&compiled, profiled);
        assert_eq!(report.engine, "serial-perfect");
    }
}
