//! The untraced run of one workload: set up, time iterations for the
//! requested seconds, check every output, report what a user would see.

use crate::job::{analyze, oracle, Oracle};
use crate::metrics::{Outcome, END_TO_END};
use crate::pace::Pace;
use crate::service::{cache_hit_share, client_threads, closed_loop, Client, Daemon};
use crate::stats::{median, summarize, tail};
use crate::workload::{self, Mode, RequestStream, Workload};
use std::time::Instant;

/// How one invocation is to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// 2 rounds (service rounds of 50 requests), one set-up, no warm-up:
    /// correctness checks at full strength, timings meaningless.
    pub smoke: bool,
    pub nproc: usize,
}

/// Set-ups per run; `setup_s` is their median, so one slow page-in does
/// not read as a set-up regression.
const SETUPS: usize = 3;
/// Timed rounds a run makes at the very least.
const MIN_ROUNDS: usize = 3;

/// Everything that exists before the first timed round.
struct Ready {
    workload: Workload,
    oracles: Vec<Oracle>,
    daemon: Option<Daemon>,
}

/// Generate the inputs, compute and check every job's oracle report, boot
/// the daemon for service workloads, and warm up: one untimed pass (batch)
/// or one request per program, which also fills the daemon's cache.
fn set_up(name: &str, opts: &Options) -> Result<Ready, String> {
    let workload = workload::build(name, opts.seed)?;
    let oracles = workload
        .jobs
        .iter()
        .map(oracle)
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = match workload.mode {
        Mode::Batch => {
            if !opts.smoke {
                for &j in &workload.order {
                    if analyze(&workload.jobs[j])? != oracles[j].json {
                        return Err(format!("{}: warm-up report differs", workload.jobs[j].name));
                    }
                }
            }
            None
        }
        Mode::Service => {
            let daemon = Daemon::boot()?;
            daemon.warm(&workload, &oracles)?;
            Some(daemon)
        }
    };
    Ok(Ready {
        workload,
        oracles,
        daemon,
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let mut pace = Pace::start();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        // One set-up alive at a time: the previous daemon is gone before
        // the next boots.
        if let Some(Ready {
            daemon: Some(d), ..
        }) = ready.take()
        {
            d.shutdown()?;
        }
        pace.lap();
        let t0 = Instant::now();
        ready = Some(set_up(name, opts)?);
        let raw = t0.elapsed().as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw * pace.lap());
    }
    let Ready {
        workload,
        oracles,
        daemon,
    } = ready.expect("at least one set-up ran");

    let mut out = Outcome::default();
    out.notes
        .push(("inputs_hash", format!("{:016x}", workload.inputs_hash())));
    out.notes.push(("engine", engines(&oracles)));
    out.set_rounds("setup_s", median(&setup_s), &setup_s, median(&setup_raw_s));

    let (rounds, peak_rss_mb) = match &daemon {
        None => timed_rounds(opts, pace, |_| pass(&workload, &oracles, &mut out))?,
        Some(daemon) => {
            let clients = client_threads(opts.nproc);
            let block = if opts.smoke { 50 } else { BLOCK };
            let stream = RequestStream::new(&workload, opts.seed);
            let before = daemon.status();
            // Each block continues the request stream where the last stopped.
            let timed = timed_rounds(opts, pace, |round| {
                let from = round as u64 * block;
                let positions = from..from + block;
                let l = closed_loop(
                    daemon,
                    &workload,
                    &stream,
                    &oracles,
                    clients,
                    positions,
                    Client::Submit,
                );
                out.attempted += l.attempted;
                out.failed += l.failed;
                (l.wall_s * 1e3, l.latencies_ms)
            })?;
            let after = daemon.status();
            out.notes.push((
                "service",
                format!(
                    "{clients} closed-loop clients, cache hit share {:.3}, {} shed",
                    cache_hit_share(&before, &after),
                    after.jobs_shed - before.jobs_shed
                ),
            ));
            timed
        }
    };
    if let Some(daemon) = daemon {
        daemon.shutdown()?;
    }
    if rounds.iter().all(|r| r.job_ms.is_empty()) {
        return Err("no job completed".to_string());
    }

    let raw_wall_ms: Vec<f64> = rounds.iter().map(|r| r.wall_ms).collect();
    let wall_ms: Vec<f64> = rounds.iter().map(|r| r.wall_ms * r.factor).collect();
    match workload.mode {
        // A pass is the unit: its wall time, and its slowest job.
        Mode::Batch => {
            out.set_rounds(
                "analyze_ms",
                median(&wall_ms),
                &wall_ms,
                median(&raw_wall_ms),
            );
            let raw: Vec<f64> = rounds
                .iter()
                .map(|r| r.job_ms.iter().copied().fold(0.0, f64::max))
                .collect();
            let slowest: Vec<f64> = raw
                .iter()
                .zip(&rounds)
                .map(|(ms, r)| ms * r.factor)
                .collect();
            out.set_rounds("latency_p99_ms", median(&slowest), &slowest, median(&raw));
        }
        // A request is the unit: the distribution of its round trip,
        // pooled over the rounds, each sample at its round's host speed.
        Mode::Service => {
            let raw: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.job_ms.iter().copied())
                .collect();
            let pooled: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.job_ms.iter().map(|ms| ms * r.factor))
                .collect();
            let per_round: Vec<f64> = rounds
                .iter()
                .filter(|r| !r.job_ms.is_empty())
                .map(|r| median(&r.job_ms) * r.factor)
                .collect();
            out.set_rounds("analyze_ms", median(&pooled), &per_round, median(&raw));
            out.set("latency_p99_ms", tail(&pooled));
        }
    }
    let jobs: usize = rounds.iter().map(|r| r.job_ms.len()).sum();
    out.set(
        "req_per_s",
        jobs as f64 / (wall_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("peak_rss_mb", peak_rss_mb);
    let (agree, truths) = oracles
        .iter()
        .fold((0, 0), |(a, t), o| (a + o.agree, t + o.truths));
    out.set("detection_accuracy", agree as f64 / truths as f64);
    out.notes.push((
        "detection",
        format!("{agree} of {truths} ground-truth loops"),
    ));
    let factors: Vec<f64> = rounds.iter().map(|r| r.factor).collect();
    let f = summarize(&factors);
    out.notes.push((
        "samples",
        format!(
            "{} rounds, {} jobs, {} set-ups; host speed factor median {:.3} (quartiles {:.3} .. {:.3})",
            rounds.len(),
            jobs,
            setup_s.len(),
            f.median,
            f.q1,
            f.q3
        ),
    ));
    Ok(out.finish(END_TO_END.iter().map(|m| m.0)))
}

/// One round of the timed section; `factor` says how fast the host was
/// while it ran (see `pace`).
#[derive(Debug, Clone)]
struct Round {
    factor: f64,
    /// Batch: the pass, i.e. the sum of its jobs. Service: the closed
    /// loop's wall time over the block.
    wall_ms: f64,
    /// Wall time of each job, or client-observed round trip of each request.
    job_ms: Vec<f64>,
}

/// The engines the jobs ran on, e.g. `serial-perfect` or, for a mixed set,
/// `serial-perfect x53, parallel:8x256:lock-free x1`.
fn engines(oracles: &[Oracle]) -> String {
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for o in oracles {
        match seen.iter_mut().find(|(e, _)| *e == o.engine) {
            Some((_, n)) => *n += 1,
            None => seen.push((&o.engine, 1)),
        }
    }
    match seen.as_slice() {
        [(engine, _)] => engine.to_string(),
        many => many
            .iter()
            .map(|(e, n)| format!("{e} x{n}"))
            .collect::<Vec<_>>()
            .join(", "),
    }
}

/// Rounds every run makes, and after which `peak_rss_mb` is read: a fixed
/// amount of work, so that a faster run — more rounds, more programs in the
/// daemon's cache — does not read as a fatter one.
fn min_rounds(opts: &Options) -> usize {
    if opts.smoke {
        2
    } else {
        MIN_ROUNDS
    }
}

/// Rounds until the time is up, each closed by a host-speed sample.
/// `round` runs one and returns its wall time and per-job times in ms.
/// Also returns `VmHWM` as it stood after the first few rounds.
fn timed_rounds(
    opts: &Options,
    mut pace: Pace,
    mut round: impl FnMut(usize) -> (f64, Vec<f64>),
) -> Result<(Vec<Round>, f64), String> {
    let mut rounds = Vec::new();
    let mut rss_mb = None;
    let start = Instant::now();
    loop {
        let (wall_ms, job_ms) = round(rounds.len());
        // A round in which nothing got through will not be followed by a
        // better one.
        let stuck = job_ms.is_empty();
        rounds.push(Round {
            factor: pace.lap(),
            wall_ms,
            job_ms,
        });
        if rounds.len() == min_rounds(opts) {
            rss_mb = Some(peak_rss_mb()?);
        }
        let time_is_up = opts.smoke || start.elapsed().as_secs_f64() >= opts.seconds;
        if stuck || (rss_mb.is_some() && time_is_up) {
            let rss_mb = match rss_mb {
                Some(mb) => mb,
                None => peak_rss_mb()?,
            };
            return Ok((rounds, rss_mb));
        }
    }
}

/// One pass over the job set. A job's clock covers the facade call and
/// nothing else; comparing its output and dropping it happen off the clock.
fn pass(workload: &Workload, oracles: &[Oracle], out: &mut Outcome) -> (f64, Vec<f64>) {
    let mut job_ms = Vec::with_capacity(workload.order.len());
    for &j in &workload.order {
        let job = &workload.jobs[j];
        let t0 = Instant::now();
        let result = analyze(job);
        job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(json) if json == oracles[j].json => {}
            Ok(_) => {
                out.failed += 1;
                eprintln!("{}: report differs from the first run's", job.name);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("{e}");
            }
        }
    }
    (job_ms.iter().sum(), job_ms)
}

/// Requests per service round: short enough that the host's speed at the
/// round's two ends describes its middle.
const BLOCK: u64 = 250;
