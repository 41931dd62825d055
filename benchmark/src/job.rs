//! One job, three ways: through the facade (what end-to-end iterations
//! time), staged by hand with a span around every layer's public function
//! (what the traced run times), and as an ablation ladder over the `Sink`
//! trait for the layers no call boundary separates.

use crate::gen::Truth;
use crate::trace::Tracer;
use crate::workload::Job;
use discopop::interp::{self, Event, NullSink, Program, RunResult, Sink};
use discopop::report::ReportDoc;
use discopop::{cu, discovery, lang, mir, profiler};
use discopop::{Analysis, EngineKind, Report, StaticReport};
use jsonio::Value;
use std::time::Instant;

/// The pipeline `discopop analyze` configures for this job: CLI defaults,
/// `--static` when the job asks for it, engine auto-selected from the
/// program's footprint.
fn analysis_for(job: &Job, program: &Program) -> Analysis {
    Analysis::new()
        .with_static(job.statics)
        .engine(EngineKind::auto_for(program))
}

/// The job through the facade: `compile → analyze_compiled →
/// to_json_string`. No benchmark code runs between entry and return.
pub fn analyze(job: &Job) -> Result<String, String> {
    let compiled = Analysis::new()
        .compile(&job.source, &job.name)
        .map_err(|e| format!("{}: {e}", job.name))?;
    let report = analysis_for(job, compiled.program())
        .analyze_compiled(&compiled)
        .map_err(|e| format!("{}: {e}", job.name))?;
    Ok(report.to_json_string(compiled.program()))
}

/// The expected output of a job and what it says about detection.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The report bytes every later run of the job must reproduce.
    pub json: String,
    /// The same report as a tree, for comparing served responses without
    /// re-rendering each one.
    pub tree: Value,
    pub engine: String,
    /// Ground-truth loops the report classifies correctly, and how many
    /// ground-truth loops there are.
    pub agree: usize,
    pub truths: usize,
}

/// Run the job once through the facade and check what can be checked from
/// one run: the report parses back through `ReportDoc`, and re-rendering
/// the parsed tree gives the same bytes (so tree equality of a served
/// response implies byte equality of its rendering).
pub fn oracle(job: &Job) -> Result<Oracle, String> {
    let json = analyze(job)?;
    let tree = Value::parse(&json).map_err(|e| format!("{}: report is not JSON: {e}", job.name))?;
    let doc = ReportDoc::from_json(&tree)
        .map_err(|e| format!("{}: report violates its schema: {}", job.name, e.0))?;
    if tree.to_string_pretty() != json {
        return Err(format!(
            "{}: report does not survive a parse/render round trip",
            job.name
        ));
    }
    let agree = job.truths.iter().filter(|t| agrees(&doc, t)).count();
    Ok(Oracle {
        json,
        tree,
        engine: doc.engine,
        agree,
        truths: job.truths.len(),
    })
}

/// Does the report's class for the loop at `truth.line` agree with the
/// truth? Parallel truth needs `Doall` or `Reduction` with the reduction
/// flag matching; sequential truth needs neither. A loop the report does
/// not list disagrees.
pub fn agrees(doc: &ReportDoc, truth: &Truth) -> bool {
    let Some(l) = doc
        .discovery
        .loops
        .iter()
        .find(|l| l.start_line == truth.line)
    else {
        return false;
    };
    match (truth.parallel, l.class.as_str()) {
        (true, "Doall") => !truth.reduction,
        (true, "Reduction") => truth.reduction,
        (true, _) => false,
        (false, class) => class != "Doall" && class != "Reduction",
    }
}

/// Is `served` the report `oracle` describes, sent under module name
/// `name`? The module name is the one field a fresh-named request changes.
pub fn same_report(served: &Value, oracle: &Value, name: &str) -> bool {
    match (served, oracle) {
        (Value::Object(a), Value::Object(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
                    ka == kb
                        && if ka == "program" {
                            va.as_str() == Some(name)
                        } else {
                            va == vb
                        }
                })
        }
        _ => false,
    }
}

/// Work done by one job, counted at the layer boundaries. Every field is a
/// function of the inputs alone, so equal seeds must give equal counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub source_bytes: u64,
    pub tokens: u64,
    pub instrs: u64,
    pub decoded_ops: u64,
    pub steps: u64,
    pub dispatches: u64,
    pub synth_loops: u64,
    pub synth_accesses: u64,
    pub actors_spawned: u64,
    pub static_loops: u64,
    pub claims: u64,
    pub accesses: u64,
    pub deps: u64,
    pub deps_found: u64,
    /// Largest tracked profiler state of any one job, in bytes.
    pub tracked_bytes: u64,
    pub cu_nodes: u64,
    pub cu_edges: u64,
    pub loops: u64,
    pub suggestions: u64,
    pub report_bytes: u64,
}

impl Counts {
    /// Fold another job of the same pass in.
    pub fn add(&mut self, o: &Counts) {
        self.source_bytes += o.source_bytes;
        self.tokens += o.tokens;
        self.instrs += o.instrs;
        self.decoded_ops += o.decoded_ops;
        self.steps += o.steps;
        self.dispatches += o.dispatches;
        self.synth_loops += o.synth_loops;
        self.synth_accesses += o.synth_accesses;
        self.actors_spawned += o.actors_spawned;
        self.static_loops += o.static_loops;
        self.claims += o.claims;
        self.accesses += o.accesses;
        self.deps += o.deps;
        self.deps_found += o.deps_found;
        self.tracked_bytes = self.tracked_bytes.max(o.tracked_bytes);
        self.cu_nodes += o.cu_nodes;
        self.cu_edges += o.cu_edges;
        self.loops += o.loops;
        self.suggestions += o.suggestions;
        self.report_bytes += o.report_bytes;
    }
}

/// The job staged by hand, one span per layer under a `job` span, then two
/// probes outside it: `cu.build` (discovery builds its CU graph inside
/// `discover`, so the split needs one extra build) and `jsonio.parse` (the
/// read side of the renderer, which a client pays, not the job).
pub fn analyze_staged(job: &Job, t: &mut Tracer, id: u64) -> Result<(String, Counts), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", job.name);
    let mut c = Counts {
        source_bytes: job.source.len() as u64,
        ..Counts::default()
    };

    let root = t.enter("job", id);
    let tokens = t
        .span("lang.lex", id, || lang::lexer::lex(&job.source))
        .map_err(|e| fail("lex", &e))?;
    c.tokens = tokens.len() as u64;
    let ast = t
        .span("lang.parse", id, || lang::parser::parse(tokens))
        .map_err(|e| fail("parse", &e))?;
    let module = t
        .span("lang.lower", id, || lang::lower::lower(&ast, &job.name))
        .map_err(|e| fail("lower", &e))?;
    let errs = t.span("mir.verify", id, || mir::verify_module(&module));
    if let Some(e) = errs.first() {
        return Err(fail("verify", e));
    }
    c.instrs = module.num_instrs() as u64;
    let program = t.span("interp.decode", id, || Program::new(module));
    c.decoded_ops = program.num_decoded_ops() as u64;

    let cfg = analysis_for(job, &program).profile_config();
    let profile = t
        .span("profiler.profile", id, || {
            profiler::profile_program_with(&program, &cfg)
        })
        .map_err(|e| fail("profile", &e))?;
    c.steps = profile.steps;
    c.dispatches = profile.synth.dispatches;
    c.synth_loops = profile.synth.loops_skipped;
    c.synth_accesses = profile.synth.synthesized_accesses;
    c.actors_spawned = profile.actors.as_ref().map_or(0, |a| u64::from(a.spawned));
    c.accesses = profile.skip_stats.total_accesses;
    c.deps = profile.deps.len() as u64;
    c.deps_found = profile.deps.total_found;
    c.tracked_bytes = profile.profiler_bytes as u64;

    let statics = job
        .statics
        .then(|| t.span("analysis.static", id, || StaticReport::of(&program.module)));
    if let Some(s) = &statics {
        c.static_loops = s.loops.len() as u64;
        c.claims = s.claims.len() as u64;
    }
    let found = t.span("discovery.discover", id, || {
        discovery::discover(&program, &profile.deps, &profile.pet)
    });
    c.loops = found.loops.len() as u64;
    c.suggestions = found.ranked.len() as u64;
    let report = Report {
        program: job.name.clone(),
        engine: cfg.engine.label(),
        profile,
        discovery: found,
        statics,
    };
    let doc = t.span("report.doc", id, || {
        ReportDoc::from_report(&program, &report)
    });
    let json = t.span("jsonio.render", id, || doc.to_json().to_string_pretty());
    c.report_bytes = json.len() as u64;
    // The facade frees its report before returning, so the job span does
    // too — all but the profile, which the `cu.build` probe still needs.
    t.span("job.release", id, || {
        drop((doc, report.discovery, report.statics))
    });
    t.exit(root);

    let graph = t.span("cu.build", id, || {
        cu::build_cu_graph_fine(&cu::CuBuildInput {
            program: &program,
            deps: &report.profile.deps,
            pet: Some(&report.profile.pet),
        })
    });
    c.cu_nodes = graph.cus.len() as u64;
    c.cu_edges = graph.edges.len() as u64;
    t.span("jsonio.parse", id, || {
        Value::parse(&json)
            .map_err(|e| e.to_string())
            .and_then(|v| ReportDoc::from_json(&v).map_err(|e| e.0))
    })
    .map_err(|e| fail("parse-back", &e))?;
    Ok((json, c))
}

/// Counts events; opts into batched delivery like a real profiler, so the
/// interpreter pays event construction and buffering but the sink does
/// next to nothing with them.
#[derive(Default)]
struct CountingSink {
    events: u64,
}

impl Sink for CountingSink {
    fn event(&mut self, _ev: &Event) {
        self.events += 1;
    }
    fn events(&mut self, evs: &[Event]) {
        self.events += evs.len() as u64;
    }
}

/// [`CountingSink`] plus the PET builder: the profiler's control-structure
/// half without its shadow memory.
struct PetSink {
    events: u64,
    pet: profiler::PetBuilder,
}

impl Sink for PetSink {
    fn event(&mut self, ev: &Event) {
        self.events += 1;
        self.pet.handle(ev);
    }
    fn events(&mut self, evs: &[Event]) {
        self.events += evs.len() as u64;
        for ev in evs {
            self.pet.handle(ev);
        }
    }
}

/// A compiled job, ready for the ladder's full runs.
pub struct Prepared {
    program: Program,
    cfg: profiler::ProfileConfig,
}

pub fn prepare(job: &Job) -> Result<Prepared, String> {
    let module = lang::compile(&job.source, &job.name).map_err(|e| format!("{}: {e}", job.name))?;
    let program = Program::new(module);
    let cfg = analysis_for(job, &program).profile_config();
    Ok(Prepared { program, cfg })
}

/// One rung of the ablation ladder; each is a full run of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `NullSink`: uninstrumented execution.
    Native,
    /// Counting sink: + event construction and batch delivery.
    Emit,
    /// PET sink: + the profiler's execution-tree half.
    Pet,
    /// The real engine under `parallel:<nproc>`.
    Parallel,
}

/// What a rung's run reports besides its wall time.
#[derive(Debug, Clone, Default)]
pub struct RungFacts {
    pub events: u64,
    pub spawned_workers: u64,
    pub queue_stalls: u64,
}

impl Prepared {
    fn run(&self, sink: impl Sink) -> Result<RunResult, String> {
        interp::run_with_config(&self.program, sink, self.cfg.run.clone())
            .map_err(|e| format!("{}: {e}", self.program.module.name))
    }

    /// Run one rung; returns wall seconds and the rung's facts.
    pub fn rung(&self, rung: Rung, nproc: usize) -> Result<(f64, RungFacts), String> {
        let mut facts = RungFacts::default();
        let t0 = Instant::now();
        match rung {
            Rung::Native => {
                self.run(NullSink)?;
            }
            Rung::Emit => {
                let mut sink = CountingSink::default();
                self.run(&mut sink)?;
                facts.events = sink.events;
            }
            Rung::Pet => {
                let mut sink = PetSink {
                    events: 0,
                    pet: profiler::PetBuilder::new(),
                };
                let r = self.run(&mut sink)?;
                facts.events = sink.events;
                std::hint::black_box(sink.pet.finish(r.steps));
            }
            Rung::Parallel => {
                let engine = EngineKind::parse(&format!("parallel:{nproc}"))?;
                let cfg = profiler::ProfileConfig {
                    engine,
                    ..self.cfg.clone()
                };
                let out = profiler::profile_program_with(&self.program, &cfg)
                    .map_err(|e| format!("{}: {e}", self.program.module.name))?;
                let stats = out.parallel.as_ref();
                facts.spawned_workers = stats.map_or(0, |p| p.spawned_workers as u64);
                facts.queue_stalls = stats.map_or(0, |p| p.queue_stalls);
            }
        }
        Ok((t0.elapsed().as_secs_f64(), facts))
    }

    /// The in-process equivalent of what a daemon worker does with a cached
    /// program: analyze, build the report document tree.
    pub fn serve_directly(&self, job: &Job) -> Result<Value, String> {
        let report = analysis_for(job, &self.program)
            .analyze_program(&self.program)
            .map_err(|e| format!("{}: {e}", job.name))?;
        Ok(report.to_doc(&self.program).to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, LoopKind};
    use crate::workload::{build, WORKLOADS};
    use std::time::Instant;

    /// Kinds the detector is known to get wrong today. A kind listed here
    /// must really be missed, and a kind not listed must be right, so the
    /// list can neither rot nor hide a new miss.
    const KNOWN_MISSES: [LoopKind; 1] = [LoopKind::RunningMax];

    #[test]
    fn generated_wide_program_truths_match_todays_verdicts_or_are_known_misses() {
        let (source, truths) = gen::wide_program(3);
        let job = Job {
            name: "wide".to_string(),
            source,
            statics: true,
            truths: Vec::new(),
        };
        let o = oracle(&job).expect("wide_program compiles, runs and reports");
        assert_eq!(o.engine, "serial-perfect");
        let doc = ReportDoc::from_json(&o.tree).unwrap();
        for (kind, truth) in truths {
            assert_eq!(
                agrees(&doc, &truth),
                !KNOWN_MISSES.contains(&kind),
                "{kind:?} loop at line {}",
                truth.line
            );
        }
    }

    #[test]
    fn sparse_gather_runs_on_the_signature_engine_without_the_skip_tier() {
        let w = build("sparse_gather", 5).unwrap();
        let mut t = Tracer::new(Instant::now());
        let (json, c) = analyze_staged(&w.jobs[0], &mut t, 0).expect("sparse_gather runs");
        let doc = ReportDoc::from_json_str(&json).unwrap();
        assert_eq!(doc.engine, "serial-signature:262144");
        assert_eq!(c.synth_loops, 0);
        assert!(c.accesses > 5_000_000, "{} accesses", c.accesses);
    }

    #[test]
    fn staged_and_facade_paths_render_the_same_bytes() {
        // Every job of every workload but the two heavy single-job ones
        // (`actors_10k` needs 825 MB; the traced run checks both anyway).
        for (name, _) in WORKLOADS {
            if matches!(name, "actors_10k" | "sparse_gather" | "service_mix") {
                continue;
            }
            let w = build(name, 2).unwrap();
            let mut t = Tracer::new(Instant::now());
            for (i, job) in w.jobs.iter().enumerate() {
                let facade = analyze(job).expect("facade path");
                let (staged, c) = analyze_staged(job, &mut t, i as u64).expect("staged path");
                assert!(facade == staged, "{name}/{}: staged bytes differ", job.name);
                assert_eq!(c.report_bytes, facade.len() as u64);
            }
        }
    }

    #[test]
    fn a_fresh_module_name_changes_the_program_field_and_nothing_else() {
        let w = build("suite_sweep", 1).unwrap();
        for job in &w.jobs {
            let base = oracle(job).unwrap();
            let renamed = Job {
                name: format!("{}~17", job.name),
                ..job.clone()
            };
            let other = oracle(&renamed).unwrap();
            assert!(
                same_report(&other.tree, &base.tree, &renamed.name),
                "{}: renaming changed more than `program`",
                job.name
            );
            assert!(!same_report(&other.tree, &base.tree, &job.name));
        }
    }

    #[test]
    fn ladder_rungs_see_one_event_stream() {
        let w = build("suite_sweep", 1).unwrap();
        let job = w.jobs.iter().find(|j| j.name == "dotprod").unwrap();
        let p = prepare(job).unwrap();
        let (_, native) = p.rung(Rung::Native, 2).unwrap();
        let (_, emit) = p.rung(Rung::Emit, 2).unwrap();
        let (_, pet) = p.rung(Rung::Pet, 2).unwrap();
        assert_eq!(native.events, 0);
        assert!(emit.events > 0);
        assert_eq!(emit.events, pet.events);
        p.rung(Rung::Parallel, 2).unwrap();
        let served = p.serve_directly(job).unwrap();
        assert!(same_report(&served, &oracle(job).unwrap().tree, &job.name));
    }
}
