//! The daemon under load: an in-process `serve()` with its default
//! configuration (2 workers), driven over real loopback TCP by closed-loop
//! clients. Callers that each wait for their reply before sending the next
//! request are a closed loop: a slower daemon receives less load.

use crate::job::{same_report, Oracle};
use crate::trace::Tracer;
use crate::workload::{Job, RequestStream, Workload};
use discopop::protocol::{JobOptions, Request, Response, StatusBody};
use discopop::serve::{serve, ServeConfig, Server};
use discopop::submit::{submit, SubmitConfig};
use jsonio::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client threads of the service workload: as many as fit beside the
/// daemon's two workers without oversubscribing the cores we have.
pub fn client_threads(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

pub struct Daemon {
    server: Server,
    cfg: SubmitConfig,
}

impl Daemon {
    pub fn boot() -> Result<Daemon, String> {
        let server =
            serve(ServeConfig::default()).map_err(|e| format!("daemon cannot bind: {e}"))?;
        let cfg = SubmitConfig {
            addr: server.local_addr().to_string(),
            ..SubmitConfig::default()
        };
        Ok(Daemon { server, cfg })
    }

    pub fn status(&self) -> StatusBody {
        self.server.status()
    }

    /// One request through the CLI's client.
    pub fn submit(&self, req: &Request) -> Result<Response, String> {
        submit(&self.cfg, req).map_err(|e| e.to_string())
    }

    /// One request per program under its own name: afterwards only
    /// fresh-named requests miss the compiled-program cache.
    pub fn warm(&self, workload: &Workload, oracles: &[Oracle]) -> Result<(), String> {
        for (job, oracle) in workload.jobs.iter().zip(oracles) {
            match self.submit(&analyze_request(0, &job.name, job))? {
                Response::Report { report, .. }
                    if same_report(&report, &oracle.tree, &job.name) => {}
                other => {
                    return Err(format!(
                        "{}: warm-up request failed: {}",
                        job.name,
                        describe(&Ok(other))
                    ))
                }
            }
        }
        Ok(())
    }

    /// Stop the daemon and wait for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        let drained = self.server.shutdown();
        if drained.drained {
            Ok(())
        } else {
            Err(format!("daemon did not drain: {drained:?}"))
        }
    }
}

/// Share of program look-ups between two status readings that hit the
/// daemon's compiled-program cache.
pub fn cache_hit_share(before: &StatusBody, after: &StatusBody) -> f64 {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    hits as f64 / (hits + misses).max(1) as f64
}

fn analyze_request(id: u64, name: &str, job: &Job) -> Request {
    Request::Analyze {
        id,
        name: name.to_string(),
        source: job.source.clone(),
        options: JobOptions {
            statics: job.statics,
            ..JobOptions::default()
        },
    }
}

/// Which client the loop's threads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// `discopop::submit::submit` — the CLI's client, untimed inside.
    Submit,
    /// The minimal client below, one span per step.
    Traced,
}

#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Client-observed round trip of every completed request, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests that errored or whose report was not the oracle's.
    pub failed: u64,
    pub wall_s: f64,
    /// Traced client only: one tracer per client thread.
    pub tracers: Vec<Tracer>,
    /// Traced client only: response line lengths in bytes.
    pub response_bytes: Vec<f64>,
    /// Traced client only: deepest admission queue seen by the status
    /// poll every 50th completion.
    pub queue_depth_max: u64,
}

/// Drive the daemon with `clients` closed-loop threads claiming the
/// `positions` of the request stream from a shared counter.
pub fn closed_loop(
    daemon: &Daemon,
    workload: &Workload,
    stream: &RequestStream<'_>,
    oracles: &[Oracle],
    clients: usize,
    positions: std::ops::Range<u64>,
    client: Client,
) -> LoopOutcome {
    let next = AtomicU64::new(positions.start);
    let completions = AtomicU64::new(0);
    let queue_depth_max = AtomicU64::new(0);
    let epoch = Instant::now();
    let per_thread: Vec<LoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = LoopOutcome::default();
                    let mut tracer = Tracer::new(epoch);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= positions.end {
                            break;
                        }
                        let draw = stream.at(i);
                        let job = &workload.jobs[draw.job];
                        let name = stream.name(i);
                        let req = analyze_request(i, &name, job);
                        out.attempted += 1;
                        let t0 = Instant::now();
                        let resp = match client {
                            Client::Submit => daemon.submit(&req),
                            Client::Traced => {
                                exchange_traced(&daemon.cfg.addr, &req, &mut tracer, i).map(
                                    |(resp, bytes)| {
                                        out.response_bytes.push(bytes as f64);
                                        resp
                                    },
                                )
                            }
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match resp {
                            Ok(Response::Report { report, .. })
                                if same_report(&report, &oracles[draw.job].tree, &name) =>
                            {
                                out.latencies_ms.push(ms);
                            }
                            other => {
                                out.failed += 1;
                                eprintln!("request {i} ({name}) failed: {}", describe(&other));
                            }
                        }
                        if client == Client::Traced
                            && completions
                                .fetch_add(1, Ordering::Relaxed)
                                .is_multiple_of(50)
                        {
                            queue_depth_max
                                .fetch_max(daemon.status().queue_depth, Ordering::Relaxed);
                        }
                    }
                    out.tracers.push(tracer);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopOutcome {
        wall_s: epoch.elapsed().as_secs_f64(),
        queue_depth_max: queue_depth_max.into_inner(),
        ..LoopOutcome::default()
    };
    for t in per_thread {
        total.latencies_ms.extend(t.latencies_ms);
        total.attempted += t.attempted;
        total.failed += t.failed;
        total.tracers.extend(t.tracers);
        total.response_bytes.extend(t.response_bytes);
    }
    total
}

fn describe(resp: &Result<Response, String>) -> String {
    match resp {
        Ok(Response::Report { .. }) => {
            "report differs from the direct in-process report".to_string()
        }
        Ok(Response::Error(e)) => format!("[{}] {}", e.kind, e.message),
        Ok(other) => format!("unexpected response {}", other.to_json().to_string()),
        Err(e) => e.clone(),
    }
}

/// One connect → write → read exchange over `protocol::{Request,
/// Response}`, with a span per step. No retries: a shed or failed request
/// is a failed request.
fn exchange_traced(
    addr: &str,
    req: &Request,
    t: &mut Tracer,
    id: u64,
) -> Result<(Response, usize), String> {
    let root = t.enter("request", id);
    let result = exchange_steps(addr, req, t, id);
    t.exit(root);
    result
}

fn exchange_steps(
    addr: &str,
    req: &Request,
    t: &mut Tracer,
    id: u64,
) -> Result<(Response, usize), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = t
        .span("client.connect", id, || TcpStream::connect(addr))
        .map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let line = t.span("protocol.encode", id, || {
        let mut line = req.to_json().to_string();
        line.push('\n');
        line
    });
    t.span("client.write", id, || {
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush())
    })
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    // The first byte back marks the end of the daemon's work on the job.
    t.span("client.wait", id, || reader.fill_buf().map(|_| ()))
        .map_err(io)?;
    let mut reply = String::new();
    let n = t
        .span("client.read", id, || reader.read_line(&mut reply))
        .map_err(io)?;
    if n == 0 {
        return Err("connection closed before a response arrived".to_string());
    }
    let resp = t.span("protocol.decode", id, || {
        Value::parse(reply.trim_end())
            .map_err(|e| e.to_string())
            .and_then(|v| Response::from_json(&v))
    })?;
    Ok((resp, n))
}

/// Median round trip of `n` `Request::Status` exchanges: connect, protocol
/// and the acceptor, with no job behind them — the floor under every
/// request's latency.
pub fn status_floor_ms(daemon: &Daemon, n: usize) -> Result<f64, String> {
    let mut t = Tracer::new(Instant::now());
    let mut ms = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let t0 = Instant::now();
        match exchange_traced(&daemon.cfg.addr, &Request::Status { id: i }, &mut t, i)? {
            (Response::Status { .. }, _) => ms.push(t0.elapsed().as_secs_f64() * 1e3),
            (other, _) => {
                return Err(format!(
                    "status answered with {}",
                    other.to_json().to_string()
                ))
            }
        }
    }
    Ok(crate::stats::median(&ms))
}
