//! The traced run of one workload: where the time of a job goes, layer by
//! layer, measured from outside the layers.
//!
//! Four parts, each over the workload's whole job set, every time in them
//! normalised to the host's speed while it was measured (see `pace`):
//! 1. facade passes and hand-staged passes, alternating, for half the
//!    requested seconds — spans around every layer's public function, and
//!    the facade beside them so the cost of tracing is itself measured;
//! 2. the ablation ladder (`NullSink` → counting sink → PET sink, and one
//!    run under `parallel:<nproc>`) for what no call boundary separates;
//! 3. the same jobs through the daemon with a client that has a span per
//!    step, and once more in-process, so service overhead is a difference;
//! 4. the spans, written to `out/trace-<workload>.json`.

use crate::e2e::Options;
use crate::job::{
    analyze, analyze_staged, oracle, prepare, same_report, Counts, Oracle, Prepared, Rung,
};
use crate::metrics::{Outcome, PER_LAYER};
use crate::pace::Pace;
use crate::service::{
    cache_hit_share, client_threads, closed_loop, status_floor_ms, Client, Daemon,
};
use crate::stats::median;
use crate::trace::{self, self_times, Tracer};
use crate::workload::{self, Job, Mode, RequestStream, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Where trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const LADDER_REPS: usize = 3;

pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let w = workload::build(name, opts.seed)?;
    let oracles = w.jobs.iter().map(oracle).collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::default();
    out.notes
        .push(("inputs_hash", format!("{:016x}", w.inputs_hash())));

    let mut pace = Pace::start();
    let mut staged = Tracer::new(Instant::now());
    let (facade_ms, factors, counts) =
        staged_passes(&w, &oracles, opts, &mut pace, &mut staged, &mut out)?;
    let pass = w.order.len() as u64;

    // Per staged pass, the summed time of the spans called `name`, at that
    // pass's host speed; median over the passes.
    let layer_ms = |name: &str| -> f64 {
        let mut per_rep = vec![0.0; factors.len()];
        for s in staged.spans.iter().filter(|s| s.name == name) {
            let rep = (s.job / pass) as usize;
            per_rep[rep] += s.ns() as f64 / 1e6 * factors[rep];
        }
        median(&per_rep)
    };
    let job_ms = layer_ms("job");
    let own = self_times(&staged.spans);
    let (job_total, job_own) = staged
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "job")
        .fold((0u64, 0u64), |(t, o), (s, &own)| (t + s.ns(), o + own));

    out.set("lang.lex_ms", layer_ms("lang.lex"));
    out.set("lang.parse_ms", layer_ms("lang.parse"));
    out.set("lang.lower_ms", layer_ms("lang.lower"));
    out.set("lang.source_bytes", counts.source_bytes as f64);
    out.set("lang.tokens", counts.tokens as f64);
    out.set("mir.verify_ms", layer_ms("mir.verify"));
    out.set("mir.instrs", counts.instrs as f64);
    out.set("interp.decode_ms", layer_ms("interp.decode"));
    out.set("interp.decoded_ops", counts.decoded_ops as f64);
    out.set("interp.steps", counts.steps as f64);
    out.set("interp.dispatches", counts.dispatches as f64);
    out.set("interp.synth_loops", counts.synth_loops as f64);
    out.set(
        "interp.synth_access_share",
        counts.synth_accesses as f64 / counts.accesses.max(1) as f64,
    );
    out.set("interp.actors_spawned", counts.actors_spawned as f64);
    out.set("analysis.static_ms", layer_ms("analysis.static"));
    out.set("analysis.loops", counts.static_loops as f64);
    out.set("analysis.claims", counts.claims as f64);
    out.set("profiler.accesses", counts.accesses as f64);
    out.set("profiler.deps", counts.deps as f64);
    out.set(
        "profiler.merge_ratio",
        counts.deps_found as f64 / counts.deps.max(1) as f64,
    );
    out.set(
        "profiler.tracked_mb",
        counts.tracked_bytes as f64 / (1u64 << 20) as f64,
    );
    let cu_ms = layer_ms("cu.build");
    out.set("cu.build_ms", cu_ms);
    out.set("cu.nodes", counts.cu_nodes as f64);
    out.set("cu.edges", counts.cu_edges as f64);
    out.set("discovery.self_ms", layer_ms("discovery.discover") - cu_ms);
    out.set("discovery.loops", counts.loops as f64);
    out.set("discovery.suggestions", counts.suggestions as f64);
    out.set("report.doc_ms", layer_ms("report.doc"));
    out.set("report.bytes", counts.report_bytes as f64);
    out.set("jsonio.render_ms", layer_ms("jsonio.render"));
    out.set("jsonio.parse_ms", layer_ms("jsonio.parse"));
    out.set("trace.overhead_share", job_ms / median(&facade_ms) - 1.0);
    out.set(
        "trace.accounted_share",
        1.0 - job_own as f64 / job_total as f64,
    );

    let prepared = w.jobs.iter().map(prepare).collect::<Result<Vec<_>, _>>()?;
    let engine_ms = layer_ms("profiler.profile");
    ladder(
        &w,
        &prepared,
        opts,
        &mut pace,
        engine_ms,
        counts.accesses,
        &mut out,
    )?;

    out.notes.push((
        "shares",
        format!(
            "of the traced job: interp+profiler {:.1}%, discovery+cu {:.1}%, report+render {:.1}%, frontend {:.1}%",
            100.0 * engine_ms / job_ms,
            100.0 * layer_ms("discovery.discover") / job_ms,
            100.0 * (layer_ms("report.doc") + layer_ms("jsonio.render")) / job_ms,
            100.0
                * ["lang.lex", "lang.parse", "lang.lower", "mir.verify", "interp.decode", "analysis.static"]
                    .iter()
                    .map(|n| layer_ms(n))
                    .sum::<f64>()
                / job_ms,
        ),
    ));

    let service_tracers = through_the_daemon(&w, &oracles, &prepared, opts, &mut pace, &mut out)?;

    let mut tracers = vec![staged];
    tracers.extend(service_tracers);
    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace::to_json(name, opts.seed, &tracers).to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.notes.push(("trace", path.display().to_string()));
    Ok(out.finish(PER_LAYER.iter().map(|m| m.0)))
}

/// Alternate facade and staged passes until half the time is spent. Every
/// staged report must equal the facade's bytes, and every pass must count
/// the same work. Returns the facade passes' normalised milliseconds, the
/// staged passes' host-speed factors, and the counts of one pass.
fn staged_passes(
    w: &Workload,
    oracles: &[Oracle],
    opts: &Options,
    pace: &mut Pace,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<f64>, Counts), String> {
    let start = Instant::now();
    let mut facade_ms = Vec::new();
    let mut factors = Vec::new();
    let mut counts: Option<Counts> = None;
    pace.lap();
    loop {
        let rep = facade_ms.len() as u64;
        let mut facade = 0.0;
        for &j in &w.order {
            let t0 = Instant::now();
            let json = analyze(&w.jobs[j])?;
            facade += t0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            if json != oracles[j].json {
                out.failed += 1;
                eprintln!("{}: facade report differs between runs", w.jobs[j].name);
            }
        }
        facade_ms.push(facade * pace.lap());

        let mut pass = Counts::default();
        for (pos, &j) in w.order.iter().enumerate() {
            let id = rep * w.order.len() as u64 + pos as u64;
            let (json, c) = analyze_staged(&w.jobs[j], tracer, id)?;
            out.attempted += 1;
            if json != oracles[j].json {
                out.failed += 1;
                eprintln!(
                    "{}: hand-staged report differs from the facade's",
                    w.jobs[j].name
                );
            }
            pass.add(&c);
        }
        factors.push(pace.lap());
        match &counts {
            None => counts = Some(pass),
            Some(first) if *first == pass => {}
            Some(first) => {
                return Err(format!(
                    "counts differ between passes over the same inputs:\n{first:?}\n{pass:?}"
                ))
            }
        }
        let done = if opts.smoke {
            true
        } else {
            facade_ms.len() >= 2 && start.elapsed().as_secs_f64() >= opts.seconds / 2.0
        };
        if done {
            return Ok((facade_ms, factors, counts.expect("one pass ran")));
        }
    }
}

/// The ablation ladder: each rung a full pass, `LADDER_REPS` times, rungs
/// interleaved; medians are subtracted.
fn ladder(
    w: &Workload,
    prepared: &[Prepared],
    opts: &Options,
    pace: &mut Pace,
    engine_ms: f64,
    accesses: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    const RUNGS: [Rung; 4] = [Rung::Native, Rung::Emit, Rung::Pet, Rung::Parallel];
    let mut ms = [const { Vec::new() }; 4];
    let (mut events, mut spawned, mut stalls) = (0, 0, 0);
    pace.lap();
    for _ in 0..if opts.smoke { 1 } else { LADDER_REPS } {
        for (r, &rung) in RUNGS.iter().enumerate() {
            let mut pass = 0.0;
            let (mut pass_events, mut pass_stalls) = (0, 0);
            for &j in &w.order {
                let (secs, facts) = prepared[j].rung(rung, opts.nproc)?;
                pass += secs * 1e3;
                pass_events += facts.events;
                pass_stalls += facts.queue_stalls;
                spawned = spawned.max(facts.spawned_workers);
            }
            ms[r].push(pass * pace.lap());
            match rung {
                Rung::Emit if events == 0 => events = pass_events,
                Rung::Emit | Rung::Pet if events != pass_events => {
                    return Err(format!(
                        "the event stream changed between runs: {events} then {pass_events} events"
                    ))
                }
                Rung::Parallel => stalls = pass_stalls,
                _ => {}
            }
        }
    }
    let [native, emit, pet, parallel] = ms.map(|v| median(&v));
    out.set("interp.native_ms", native);
    out.set("interp.emit_ms", emit - native);
    out.set("interp.events", events as f64);
    out.set("profiler.pet_ms", pet - emit);
    out.set("profiler.track_ms", engine_ms - emit);
    out.set("profiler.slowdown_x", engine_ms / native);
    out.set(
        "profiler.accesses_per_s",
        accesses as f64 / (engine_ms / 1e3),
    );
    out.set("profiler.parallel_ms", parallel);
    out.set("profiler.spawned_workers", spawned as f64);
    out.set("profiler.queue_stalls", stalls as f64);
    Ok(())
}

/// Requests the traced service pass sends: enough for a p50 of every
/// client step on the service workload, five per job on the batch ones
/// (so every workload sends one fresh-named request in five).
fn service_requests(w: &Workload, smoke: bool) -> u64 {
    match (w.mode, smoke) {
        (Mode::Service, false) => 1000,
        (Mode::Service, true) => 100,
        (Mode::Batch, false) => 5 * w.order.len() as u64,
        (Mode::Batch, true) => 2,
    }
}

fn through_the_daemon(
    w: &Workload,
    oracles: &[Oracle],
    prepared: &[Prepared],
    opts: &Options,
    pace: &mut Pace,
    out: &mut Outcome,
) -> Result<Vec<Tracer>, String> {
    let daemon = Daemon::boot()?;
    pace.lap();
    let floor = status_floor_ms(&daemon, if opts.smoke { 20 } else { 200 })?;
    out.set("serve.floor_p50_ms", floor * pace.lap());
    daemon.warm(w, oracles)?;

    let stream = RequestStream::new(w, opts.seed);
    let n = service_requests(w, opts.smoke);
    let (clients, chunk) = match w.mode {
        Mode::Service => (
            client_threads(opts.nproc),
            if opts.smoke { 50 } else { 250 },
        ),
        Mode::Batch => (1, w.order.len() as u64),
    };
    // Chunk by chunk — the requests through the daemon, then the same
    // requests in process (what a worker does on a cache hit, plus compile
    // and decode on a fresh name) — each chunk at its own host speed.
    let before = daemon.status();
    let (mut served_ms, mut direct_ms) = (Vec::new(), Vec::new());
    let (mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new());
    let (mut response_bytes, mut queue_depth_max) = (Vec::new(), 0);
    let mut tracers = Vec::new();
    pace.lap();
    for from in (0..n).step_by(chunk as usize) {
        let positions = from..(from + chunk).min(n);
        let l = closed_loop(
            &daemon,
            w,
            &stream,
            oracles,
            clients,
            positions.clone(),
            Client::Traced,
        );
        let factor = pace.lap();
        out.attempted += l.attempted;
        out.failed += l.failed;
        served_ms.extend(l.latencies_ms.iter().map(|ms| ms * factor));
        for span in l.tracers.iter().flat_map(|t| &t.spans) {
            match span.name {
                "protocol.encode" => encode_ms.push(span.ns() as f64 / 1e6 * factor),
                "protocol.decode" => decode_ms.push(span.ns() as f64 / 1e6 * factor),
                _ => {}
            }
        }
        response_bytes.extend(l.response_bytes);
        queue_depth_max = queue_depth_max.max(l.queue_depth_max);
        tracers.extend(l.tracers);

        let mut chunk_ms = Vec::new();
        for i in positions {
            let draw = stream.at(i);
            let job = &w.jobs[draw.job];
            let name = stream.name(i);
            let renamed = draw.fresh_name.then(|| Job {
                name: name.clone(),
                ..job.clone()
            });
            let t0 = Instant::now();
            let served = match &renamed {
                Some(renamed) => prepare(renamed)?.serve_directly(renamed)?,
                None => prepared[draw.job].serve_directly(job)?,
            };
            chunk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if !same_report(&served, &oracles[draw.job].tree, &name) {
                out.failed += 1;
                eprintln!("{name}: direct in-process report differs from the facade's");
            }
        }
        let factor = pace.lap();
        direct_ms.extend(chunk_ms.iter().map(|ms| ms * factor));
    }
    let after = daemon.status();
    daemon.shutdown()?;
    if served_ms.is_empty() {
        return Err("no traced request completed".to_string());
    }

    out.set("serve.cache_hit_share", cache_hit_share(&before, &after));
    out.set("serve.shed", (after.jobs_shed - before.jobs_shed) as f64);
    out.set(
        "serve.failed",
        (after.jobs_failed - before.jobs_failed) as f64,
    );
    out.set(
        "serve.worker_recoveries",
        (after.worker_recoveries - before.worker_recoveries) as f64,
    );
    out.set("serve.queue_depth_max", queue_depth_max as f64);
    out.set("protocol.encode_ms", median(&encode_ms));
    out.set("protocol.decode_ms", median(&decode_ms));
    out.set("protocol.response_bytes_p50", median(&response_bytes));
    let direct = median(&direct_ms);
    let served = median(&served_ms);
    out.set("serve.direct_p50_ms", direct);
    out.set("serve.overhead_p50_ms", served - direct);
    out.notes.push((
        "service",
        format!(
            "{n} traced requests from {clients} client(s): p50 {served:.3} ms, direct p50 {direct:.3} ms"
        ),
    ));
    Ok(tracers)
}
