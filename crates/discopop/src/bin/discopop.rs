//! `discopop` — the command-line front end of the analysis pipeline.
//!
//! ```text
//! discopop analyze <file> [--engine SPEC] [--no-lifetime] [--static]
//!                         [--json PATH] [--quiet] ...
//! discopop report <report.json>
//! discopop engines
//! discopop serve [--addr HOST:PORT] [--workers N] ...
//! discopop submit <file> --addr HOST:PORT [options]
//! discopop status|shutdown --addr HOST:PORT
//! ```
//!
//! `analyze` compiles a mini-C source file, profiles it under the selected
//! engine, runs parallelism discovery, prints the human-readable report,
//! and (with `--json`) writes the versioned JSON report — the
//! machine-readable dependence output downstream tools consume.
//! `report` renders a previously written JSON report without re-running
//! anything. `engines` lists the accepted `--engine` specs. `serve` runs
//! the pipeline as a long-lived fault-isolated daemon (see
//! [`discopop::serve`]); `submit`, `status`, and `shutdown` are its
//! clients (see [`discopop::submit`]).

use discopop::protocol::{ErrorKind, JobOptions, Request, Response};
use discopop::report::ReportDoc;
use discopop::serve::ServeConfig;
use discopop::submit::{submit, SubmitConfig};
use discopop::{Analysis, EngineKind, StageEvent};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  discopop analyze <file> [options]   compile, profile, discover, report
  discopop lint <file>                static lints only (no execution)
  discopop report <report.json>       render a saved JSON report
  discopop engines                    list --engine specs
  discopop serve [options]            run the analysis daemon
  discopop submit <file> [options]    send one job to a running daemon
  discopop status [--addr A]          query daemon health counters
  discopop shutdown [--addr A]        ask the daemon to drain and exit

analyze options:
  --engine SPEC     profiling engine (default: auto-selected from the
                    program's address footprint); see `discopop engines`
  --no-lifetime     disable variable-lifetime analysis
  --max-memory SIZE hard ceiling on tracked profiler bytes; accepts K/M/G
                    suffixes (e.g. 64M). Crossing it degrades the shadow
                    (perfect -> signature -> halved signature) instead of
                    growing; the JSON report records what was sacrificed
  --deadline SECS   wall-clock limit for the profiling run (fractions ok);
                    exceeding it aborts with a partial-profile diagnostic
  --static          run the static pre-pass (affine classification,
                    independence proofs, lints); adds the `static` block to
                    the JSON report and cross-checks every proven claim
                    against the dynamic dependences (a contradiction is an
                    analysis failure). Also arms the affine skip tier: loops
                    whose accesses are all proven affine are plan-replayed
                    instead of interpreted (same output, less dispatch)
  --no-skip         keep full interpretation even with --static: disables
                    the affine skip tier. Dependence output is bit-identical
                    either way; only profiling speed changes
  --text            also print the dependences in the line-oriented
                    DiscoPoP text format (NOM/BGN/END lines)
  --json PATH       write the versioned JSON report to PATH (`-` = stdout)
  --quiet           suppress the human-readable report and progress lines

serve options:
  --addr HOST:PORT  bind address (default 127.0.0.1:7077; port 0 = ephemeral)
  --workers N       worker pool size (default 2)
  --queue-cap N     bounded job queue; jobs beyond it are shed with a typed
                    `overloaded` response + retry hint (default 16)
  --max-request-bytes SIZE   per-request size cap, K/M/G ok (default 4M)
  --io-timeout SECS per-connection read/write timeout (default 10)
  --deadline SECS   default per-job deadline (jobs may override)
  --max-memory SIZE total job-memory pool; each worker gets an equal slice
                    as its per-job budget ceiling
  --cache-bytes SIZE compiled-program cache ceiling, LRU-evicted (default 64M)
  --drain-deadline SECS  grace period for in-flight jobs on shutdown (default 5)
  --port-file PATH  write the resolved listen address to PATH (for scripts
                    binding port 0)

submit options:
  --addr HOST:PORT  daemon address (default 127.0.0.1:7077)
  --name NAME       module name (default: file stem)
  --id N            correlation id echoed in the response (default 1)
  --engine SPEC / --static / --no-skip / --deadline SECS / --max-memory SIZE
                    forwarded as per-job options
  --attempts N      total attempts on overloaded/connect failure, with
                    exponential backoff + jitter (default 5)
  --json PATH       write the returned report JSON to PATH (`-` = stdout)
  --quiet           suppress the summary line

exit codes: 0 success, 1 analysis/usage failure (including lint findings
and cross-check violations), 2 unreadable input, 3 typed partial result
(--deadline expired; the partial profile diagnostic is on stderr)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("report") => render_saved(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("submit") => submit_cmd(&args[1..]),
        Some("status") => status_cmd(&args[1..]),
        Some("shutdown") => shutdown_cmd(&args[1..]),
        Some("engines") => {
            println!("engine specs accepted by --engine:");
            println!("  serial-perfect                    exact page-table shadow memory");
            println!(
                "  serial-signature[:slots]          bounded-memory signature (default 2^18 slots;"
            );
            println!("                                    a slot pairs an address's read and write status)");
            println!("  parallel[:[workers=]N[xchunk]]    producer/consumer pipeline: N partitions, inline");
            println!(
                "                                    until the run is big enough for N workers"
            );
            println!("                                    N and chunk must be positive (parallel:0 is an error)");
            println!(
                "parallel:N partitions are exact up to {} footprint words and signatures \
                 beyond, of max({} / N, {}) slots each (parallel:4: {} slots per partition)",
                EngineKind::AUTO_PERFECT_MAX_WORDS,
                EngineKind::PARALLEL_TOTAL_SLOTS,
                EngineKind::PARALLEL_MIN_WORKER_SLOTS,
                EngineKind::parallel_worker_slots(4)
            );
            println!(
                "a serial engine is one partition: past 2^20 accesses it moves to one worker \
                 thread while the interpreter runs on, unless the host has one core or a plan \
                 run was resolved in closed form; the report is the same either way, and the \
                 [2/3] progress line names the partitions and says where tracking ran"
            );
            println!(
                "--max-memory keeps every partition of every engine on the producer, which \
                 governs the budget alone (parallel:N tracks inline under it too)"
            );
            println!(
                "without --engine, the engine is auto-selected (EngineKind::auto_for) \
                 by one rule, the program's static address footprint: serial-perfect \
                 for small footprints, serial-signature beyond them"
            );
            println!(
                "examples: serial-signature:1048576   parallel:8   parallel:workers=4   \
                 parallel:4x128"
            );
            println!(
                "every engine reads the same interpreter access stream; with --static \
                 the affine skip tier synthesizes it for proven-affine loops \
                 (disable with --no-skip; the stream is identical either way)"
            );
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("discopop: unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct AnalyzeArgs {
    file: String,
    /// `None` = auto-select from the compiled program's address footprint.
    engine: Option<EngineKind>,
    lifetime: bool,
    max_memory: Option<usize>,
    deadline: Option<std::time::Duration>,
    statics: bool,
    no_skip: bool,
    text: bool,
    json: Option<String>,
    quiet: bool,
}

/// Parse a byte size with an optional `K`/`M`/`G` suffix (case-insensitive,
/// powers of 1024): `65536`, `64K`, `16M`, `2G`.
fn parse_size(s: &str) -> Result<usize, String> {
    let bad = || format!("bad size `{s}` (expected e.g. 65536, 64K, 16M, 2G)");
    let (digits, shift) = match s.trim().to_ascii_uppercase() {
        ref t if t.ends_with('K') => (t[..t.len() - 1].to_string(), 10u32),
        ref t if t.ends_with('M') => (t[..t.len() - 1].to_string(), 20),
        ref t if t.ends_with('G') => (t[..t.len() - 1].to_string(), 30),
        t => (t, 0),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(bad)
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut parsed = AnalyzeArgs {
        file: String::new(),
        engine: None,
        lifetime: true,
        max_memory: None,
        deadline: None,
        statics: false,
        no_skip: false,
        text: false,
        json: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--engine" => parsed.engine = Some(EngineKind::parse(&value_of("--engine")?)?),
            "--no-lifetime" => parsed.lifetime = false,
            "--max-memory" => parsed.max_memory = Some(parse_size(&value_of("--max-memory")?)?),
            "--deadline" => {
                let v = value_of("--deadline")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --deadline `{v}`"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("bad --deadline `{v}`"));
                }
                parsed.deadline = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--static" => parsed.statics = true,
            "--no-skip" => parsed.no_skip = true,
            "--text" => parsed.text = true,
            "--json" => parsed.json = Some(value_of("--json")?),
            "--quiet" => parsed.quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file if parsed.file.is_empty() => parsed.file = file.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if parsed.file.is_empty() {
        return Err("no input file".to_string());
    }
    Ok(parsed)
}

fn analyze(args: &[String]) -> ExitCode {
    let args = match parse_analyze_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("discopop analyze: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Unreadable input (missing file, permission denied, invalid UTF-8) is
    // an environment problem, not an analysis failure: exit 2, one line.
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("discopop: cannot read `{}`: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let name = std::path::Path::new(&args.file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module")
        .to_string();

    let mut analysis = Analysis::new()
        .lifetime(args.lifetime)
        .with_static(args.statics);
    if args.no_skip {
        analysis = analysis.affine_skip(false);
    }
    if let Some(bytes) = args.max_memory {
        analysis = analysis.max_memory(bytes);
    }
    if let Some(d) = args.deadline {
        analysis = analysis.deadline(d);
    }
    if !args.quiet {
        analysis = analysis.on_progress(|ev| match ev {
            StageEvent::Compiled {
                name,
                functions,
                decoded_ops,
            } => {
                eprintln!("[1/3] compiled `{name}` ({functions} functions, {decoded_ops} decoded ops)");
            }
            StageEvent::Profiled {
                engine,
                dials,
                steps,
                dependences,
                plan_runs,
                tracking,
            } => {
                // Why a loop was or was not fast: how many engagements of
                // the skip tier reached the engine as runs, and how much of
                // them it resolved without touching every access.
                let runs = if plan_runs.runs == 0 {
                    String::new()
                } else {
                    // Truncated, so "100.0%" means every cycle.
                    format!(
                        "; {} plan runs, {:.1}% of cycles resolved",
                        plan_runs.runs,
                        (plan_runs.resolved_pct() * 10.0).floor() / 10.0
                    )
                };
                eprintln!("[2/3] profiled with {engine} ({dials}): {steps} instructions, {dependences} distinct dependences{runs}; {tracking}");
            }
            StageEvent::StaticAnalyzed {
                loops,
                claims,
                lints,
            } => {
                eprintln!("[2.5/3] static pre-pass: {loops} loops, {claims} independence claims, {lints} lints");
            }
            StageEvent::Discovered {
                loops,
                tasks,
                ranked,
            } => {
                eprintln!("[3/3] discovery: {loops} loops, {tasks} task suggestions, {ranked} ranked");
            }
        });
    }

    let compiled = match analysis.compile(&source, &name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("discopop: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Engine selection needs the compiled program: without an explicit
    // --engine, pick from the address footprint so the default is exact on
    // small programs and bounded-memory on large ones.
    let engine = args
        .engine
        .unwrap_or_else(|| EngineKind::auto_for(compiled.program()));
    analysis.engine_mut(engine);
    if args.engine.is_none() && !args.quiet {
        eprintln!(
            "auto-selected engine {engine} ({} footprint words)",
            compiled.program().footprint_words()
        );
    }
    let report = match analysis.analyze_compiled(&compiled) {
        Ok(r) => r,
        // A blown --deadline is a *typed partial result* — the budget did
        // its job — not an unreadable input (2) or a pipeline failure (1).
        Err(e @ discopop::Error::DeadlineExceeded { .. }) => {
            eprintln!("discopop: {e}");
            eprintln!("discopop: partial result — profiling stopped at the configured deadline");
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("discopop: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The static-vs-dynamic oracle: a statically-proven independence
    // contradicted by an observed dependence is a soundness failure and
    // must abort the run visibly.
    if let Some(statics) = &report.statics {
        let violations = discopop::cross_check(compiled.program(), statics, &report.profile.deps);
        if violations.is_empty() {
            if !args.quiet {
                eprintln!(
                    "cross-check: {} independence claims, 0 contradicted",
                    statics.claims.len()
                );
            }
        } else {
            for v in &violations {
                eprintln!("discopop: cross-check violation: {v}");
            }
            return ExitCode::FAILURE;
        }
    }

    // `--json -` owns stdout: the JSON document must stay machine-parseable,
    // so the human-readable report is suppressed as if --quiet were given.
    let json_on_stdout = args.json.as_deref() == Some("-");
    if !args.quiet && !json_on_stdout {
        print!("{}", discopop::render_report(compiled.program(), &report));
    }
    if args.text && !json_on_stdout {
        print!(
            "{}",
            discopop::render_dependence_text(compiled.program(), &report)
        );
    }
    if let Some(path) = &args.json {
        let json = report.to_json_string(compiled.program());
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("discopop: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        } else if !args.quiet {
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

/// `discopop lint <file>`: compile and run the static lints, nothing else.
/// Exit 0 when clean, 1 when findings (or compile failure), 2 on
/// unreadable input.
fn lint(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("discopop lint: no input file\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("discopop: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module");
    let module = match discopop::lang::compile(&source, name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("discopop: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let statics = discopop::StaticReport::of(&module);
    if statics.lints.is_empty() {
        println!("{name}: no lint findings");
        return ExitCode::SUCCESS;
    }
    for l in &statics.lints {
        if l.line > 0 {
            println!("{path}:{}: [{}] {}", l.line, l.kind.code(), l.message);
        } else {
            println!("{path}: [{}] {}", l.kind.code(), l.message);
        }
    }
    println!("{} finding(s)", statics.lints.len());
    ExitCode::FAILURE
}

fn render_saved(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("discopop report: no input file\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("discopop: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match ReportDoc::from_json_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("discopop: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== DiscoPoP report: {} == (schema v{}, engine {})",
        doc.program, doc.schema_version, doc.engine
    );
    println!(
        "{} instructions, {} accesses, {} distinct dependences ({} before merging)",
        doc.profile.steps,
        doc.profile.accesses,
        doc.profile.dependences.len(),
        doc.profile.dependences_found,
    );
    if let Some(s) = &doc.profile.summary {
        if s.loops_skipped > 0 {
            println!(
                "affine skip tier: {} loops plan-replayed, {} accesses synthesized, {} dispatches",
                s.loops_skipped, s.synthesized_accesses, s.dispatches
            );
        }
    }
    if let Some(a) = &doc.profile.actors {
        println!(
            "actors: {} spawned (peak {} live), {} sent / {} received, {} channel(s), digest {:016x}",
            a.spawned,
            a.peak_live,
            a.sent,
            a.received,
            a.channels.len(),
            a.channel_digest,
        );
    }
    if let Some(res) = &doc.profile.resource {
        println!(
            "resource: peak {} tracked bytes, {} degradation step(s), est. FP rate {:.4}{}",
            res.peak_tracked_bytes,
            res.degradation_steps.len(),
            res.fp_rate_estimate,
            if res.deadline_hit {
                " [deadline hit — partial profile]"
            } else {
                ""
            }
        );
    }
    println!("\nLoops:");
    for l in &doc.discovery.loops {
        let extra = if !l.reduction_vars.is_empty() {
            format!(" reduction({})", l.reduction_vars.join(", "))
        } else if l.pipeline_stages > 0 {
            format!(" {} pipeline stages", l.pipeline_stages)
        } else {
            String::new()
        };
        println!(
            "  line {:>4} ({} iters, {} instrs): {}{extra}",
            l.start_line, l.iters, l.dyn_instrs, l.class
        );
    }
    println!("\nRanked opportunities:");
    for (i, r) in doc.discovery.ranked.iter().enumerate() {
        let what = match &r.target {
            discopop::report::TargetDoc::Loop {
                start_line, class, ..
            } => format!("loop at line {start_line} ({class})"),
            discopop::report::TargetDoc::TaskSet { spans, .. } => {
                let spans: Vec<String> = spans.iter().map(|(a, b)| format!("{a}-{b}")).collect();
                format!("task set at lines {}", spans.join(", "))
            }
        };
        println!(
            "  {}. {what} — coverage {:.1}%, local speedup {:.1}x, score {:.2}",
            i + 1,
            r.instruction_coverage * 100.0,
            r.local_speedup,
            r.score
        );
    }
    ExitCode::SUCCESS
}

/// SIGTERM/SIGINT → a flag the serve loop polls, so ctrl-c and service
/// managers get the same graceful drain as a protocol `shutdown` request.
/// Registered through libc's `signal` directly (std links libc on every
/// unix target; no new dependency).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag, nothing else.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn parse_secs(flag: &str, v: &str) -> Result<Duration, String> {
    let secs: f64 = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad {flag} `{v}`"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_serve_args(args: &[String]) -> Result<(ServeConfig, Option<String>), String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7077".to_string(),
        ..ServeConfig::default()
    };
    let mut port_file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value_of("--addr")?,
            "--workers" => {
                let v = value_of("--workers")?;
                cfg.workers = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
            }
            "--queue-cap" => {
                let v = value_of("--queue-cap")?;
                cfg.queue_cap = v.parse().map_err(|_| format!("bad --queue-cap `{v}`"))?;
            }
            "--max-request-bytes" => {
                cfg.max_request_bytes = parse_size(&value_of("--max-request-bytes")?)?;
            }
            "--io-timeout" => {
                cfg.io_timeout = parse_secs("--io-timeout", &value_of("--io-timeout")?)?
            }
            "--deadline" => {
                cfg.default_deadline = Some(parse_secs("--deadline", &value_of("--deadline")?)?);
            }
            "--max-memory" => cfg.max_memory = Some(parse_size(&value_of("--max-memory")?)?),
            "--cache-bytes" => cfg.cache_bytes = parse_size(&value_of("--cache-bytes")?)?,
            "--drain-deadline" => {
                cfg.drain_deadline =
                    parse_secs("--drain-deadline", &value_of("--drain-deadline")?)?;
            }
            "--port-file" => port_file = Some(value_of("--port-file")?),
            other => return Err(format!("unknown serve argument `{other}`")),
        }
    }
    if cfg.workers == 0 {
        return Err("--workers must be positive".to_string());
    }
    Ok((cfg, port_file))
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let (cfg, port_file) = match parse_serve_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("discopop serve: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();
    let server = match discopop::serve::serve(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("discopop serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("discopop serve: listening on {}", server.local_addr());
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, server.local_addr().to_string()) {
            eprintln!("discopop serve: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    while !sig::requested() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("discopop serve: shutdown requested, draining");
    let report = server.shutdown();
    eprintln!(
        "discopop serve: drained={} completed={} abandoned_queued={} abandoned_in_flight={}",
        report.drained, report.completed, report.abandoned_queued, report.abandoned_in_flight
    );
    if report.drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct SubmitArgs {
    file: String,
    addr: String,
    id: u64,
    name: Option<String>,
    options: JobOptions,
    attempts: u32,
    json: Option<String>,
    quiet: bool,
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut parsed = SubmitArgs {
        file: String::new(),
        addr: "127.0.0.1:7077".to_string(),
        id: 1,
        name: None,
        options: JobOptions::default(),
        attempts: 5,
        json: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => parsed.addr = value_of("--addr")?,
            "--id" => {
                let v = value_of("--id")?;
                parsed.id = v.parse().map_err(|_| format!("bad --id `{v}`"))?;
            }
            "--name" => parsed.name = Some(value_of("--name")?),
            "--engine" => {
                let spec = value_of("--engine")?;
                EngineKind::parse(&spec)?; // validate locally, ship the spec
                parsed.options.engine = Some(spec);
            }
            "--static" => parsed.options.statics = true,
            "--no-skip" => parsed.options.no_skip = true,
            "--deadline" => {
                let d = parse_secs("--deadline", &value_of("--deadline")?)?;
                parsed.options.deadline_ms = Some(d.as_millis() as u64);
            }
            "--max-memory" => {
                parsed.options.max_memory = Some(parse_size(&value_of("--max-memory")?)? as u64);
            }
            "--attempts" => {
                let v = value_of("--attempts")?;
                parsed.attempts = v.parse().map_err(|_| format!("bad --attempts `{v}`"))?;
            }
            "--json" => parsed.json = Some(value_of("--json")?),
            "--quiet" => parsed.quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file if parsed.file.is_empty() => parsed.file = file.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if parsed.file.is_empty() {
        return Err("no input file".to_string());
    }
    Ok(parsed)
}

fn submit_cfg(addr: &str, attempts: u32) -> SubmitConfig {
    SubmitConfig {
        addr: addr.to_string(),
        attempts,
        ..SubmitConfig::default()
    }
}

fn submit_cmd(args: &[String]) -> ExitCode {
    let args = match parse_submit_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("discopop submit: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("discopop: cannot read `{}`: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let name = args.name.clone().unwrap_or_else(|| {
        std::path::Path::new(&args.file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("module")
            .to_string()
    });
    let req = Request::Analyze {
        id: args.id,
        name,
        source,
        options: args.options.clone(),
    };
    match submit(&submit_cfg(&args.addr, args.attempts), &req) {
        Ok(Response::Report {
            id,
            cached,
            elapsed_ms,
            report,
        }) => {
            if !args.quiet {
                eprintln!(
                    "discopop submit: job {id} done in {elapsed_ms} ms{}",
                    if cached { " (cached program)" } else { "" }
                );
            }
            if let Some(path) = &args.json {
                let json = report.to_string_pretty();
                if path == "-" {
                    print!("{json}");
                } else if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("discopop: cannot write `{path}`: {e}");
                    return ExitCode::FAILURE;
                } else if !args.quiet {
                    eprintln!("wrote {path}");
                }
            }
            ExitCode::SUCCESS
        }
        Ok(Response::Error(e)) => {
            eprintln!("discopop submit: [{}] {}", e.kind, e.message);
            if let Some(p) = &e.partial {
                eprintln!(
                    "discopop submit: partial progress: {} steps, {} dependences",
                    p.steps, p.dependences
                );
            }
            // Mirror `analyze`: a typed deadline partial is exit 3.
            if e.kind == ErrorKind::Deadline {
                ExitCode::from(3)
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(other) => {
            eprintln!(
                "discopop submit: unexpected response: {}",
                other.to_json().to_string()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("discopop submit: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `[--addr HOST:PORT]` for the status/shutdown one-shots.
fn parse_addr_only(cmd: &str, args: &[String]) -> Result<String, String> {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("discopop {cmd}: --addr needs a value"))?;
            }
            other => return Err(format!("discopop {cmd}: unknown argument `{other}`")),
        }
    }
    Ok(addr)
}

fn status_cmd(args: &[String]) -> ExitCode {
    let addr = match parse_addr_only("status", args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match submit(&submit_cfg(&addr, 3), &Request::Status { id: 1 }) {
        Ok(Response::Status { status, .. }) => {
            println!("daemon at {addr} (protocol v{})", status.protocol);
            println!(
                "  accepting: {}  uptime: {} ms  workers: {}",
                status.accepting, status.uptime_ms, status.workers
            );
            println!(
                "  queue: {}/{}  in-flight: {}",
                status.queue_depth, status.queue_cap, status.in_flight
            );
            println!(
                "  jobs: {} done, {} failed, {} shed",
                status.jobs_done, status.jobs_failed, status.jobs_shed
            );
            println!(
                "  recoveries: {} worker, {} connection",
                status.worker_recoveries, status.conn_recoveries
            );
            println!(
                "  cache: {} entries, {} bytes, {} hits, {} misses, {} evictions",
                status.cache_entries,
                status.cache_bytes,
                status.cache_hits,
                status.cache_misses,
                status.cache_evictions
            );
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!(
                "discopop status: unexpected response: {}",
                other.to_json().to_string()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("discopop status: {e}");
            ExitCode::FAILURE
        }
    }
}

fn shutdown_cmd(args: &[String]) -> ExitCode {
    let addr = match parse_addr_only("shutdown", args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match submit(&submit_cfg(&addr, 1), &Request::Shutdown { id: 1 }) {
        Ok(Response::ShutdownAck { .. }) => {
            eprintln!("discopop shutdown: daemon at {addr} is draining");
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!(
                "discopop shutdown: unexpected response: {}",
                other.to_json().to_string()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("discopop shutdown: {e}");
            ExitCode::FAILURE
        }
    }
}
