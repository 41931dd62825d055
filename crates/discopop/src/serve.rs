//! The analysis daemon behind `discopop serve`: a supervised, admission-
//! controlled TCP service running the compile → profile → discover
//! pipeline on behalf of many clients.
//!
//! Robustness is the design driver, end to end:
//!
//! - **Job isolation.** Every job runs on a worker under
//!   [`std::panic::catch_unwind`] with its own [`Budget`] (a per-worker
//!   slice of the configured memory pool plus an optional deadline). A
//!   panicking or budget-blown job turns into a typed
//!   [`ErrorBody`]; every other in-flight job completes
//!   untouched and the worker survives to take the next job.
//! - **Admission control.** The job queue is bounded
//!   ([`ServeConfig::queue_cap`]); beyond it the daemon sheds load with a
//!   typed `overloaded` response carrying a `retry_after_ms` hint instead
//!   of queueing unboundedly.
//! - **Hostile clients.** Per-connection read/write timeouts and a
//!   max-request-size cap (enforced *while reading*, before any parse)
//!   mean a stalled or malicious client can wedge at most its own
//!   connection thread, never the acceptor or a worker. Request JSON is
//!   parsed under [`jsonio::ParseLimits`] (size + nesting depth).
//! - **Graceful degradation.** Compiled programs are cached by their
//!   (name, source), compared in full on every hit. Beside its program an
//!   entry keeps the compact report text of each option set (`statics`,
//!   the engine as parsed, the effective memory ceiling) it was
//!   rendered under, so a repeat is answered with those bytes and skips
//!   profiling, discovery and rendering. A report is stored only when it
//!   is a function of that key — no deadline in force, no `parallel`
//!   block (its `queue_stalls` is a timing count), never an error — and
//!   only on a program-cache hit, so one-shot submissions store none. The
//!   cache counts program and report bytes together under the lock that
//!   guards its entries and evicts whole entries LRU under pressure —
//!   overflow costs cache misses, never memory, and a program or report
//!   that cannot fit under the whole ceiling is simply not cached.
//! - **Graceful shutdown.** [`Server::shutdown`] stops accepting, drains
//!   queued + in-flight work up to [`ServeConfig::drain_deadline`],
//!   answers whatever must be abandoned with a typed `shutting_down`
//!   error, and reports the triage in a [`DrainReport`]. The self-
//!   connection that wakes the acceptor is served and joined before it
//!   returns, so no thread of a retired server is left running into a
//!   fault point.
//!
//! Fault-injection sites (`serve:accept`, `serve:decode`,
//! `serve:job-start`, `serve:mid-job`, `serve:respond`) are compiled in
//! via [`profiler::fault`] and drive the server fault-injection suite in
//! `tests/serve.rs`.

use crate::protocol::{
    self, ErrorBody, ErrorKind, JobOptions, PartialStats, Request, Response, StatusBody,
    PROTOCOL_VERSION,
};
use crate::{Analysis, Error, StageEvent};
use jsonio::{ParseErrorKind, ParseLimits, TextSink, Value};
use profiler::{Budget, EngineKind};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of one daemon instance. `Default` binds an ephemeral
/// loopback port with two workers — the test/CI configuration; production
/// callers override per deployment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker pool size (each worker runs one job at a time).
    pub workers: usize,
    /// Bounded job-queue capacity; admission control sheds beyond it.
    pub queue_cap: usize,
    /// Hard cap on one request line, enforced while reading.
    pub max_request_bytes: usize,
    /// Max JSON nesting depth accepted from clients.
    pub max_json_depth: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Default per-job deadline when the request doesn't set one.
    pub default_deadline: Option<Duration>,
    /// Total tracked-memory pool for jobs; each worker gets an equal
    /// slice as its per-job [`Budget`] ceiling. `None` = unlimited.
    pub max_memory: Option<usize>,
    /// Ceiling for the compiled-program cache, in (estimated) bytes.
    pub cache_bytes: usize,
    /// How long [`Server::shutdown`] waits for queued + in-flight jobs
    /// before abandoning the rest.
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            max_request_bytes: 4 << 20,
            max_json_depth: 64,
            io_timeout: Duration::from_secs(10),
            default_deadline: None,
            max_memory: None,
            cache_bytes: 64 << 20,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What [`Server::shutdown`] managed to save.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Everything queued/in-flight finished inside the drain deadline.
    pub drained: bool,
    /// Total jobs answered with a report over the daemon's lifetime.
    pub completed: u64,
    /// Queued jobs abandoned at the deadline (each was answered with a
    /// typed `shutting_down` error).
    pub abandoned_queued: u64,
    /// Jobs still executing when the deadline expired (their workers are
    /// left to finish; the process usually exits shortly after).
    pub abandoned_in_flight: u64,
}

struct Job {
    id: u64,
    name: String,
    source: String,
    options: JobOptions,
    reply: mpsc::Sender<Reply>,
}

/// What a connection is answered with: a protocol message, or a finished
/// job's report as the worker rendered it — compact JSON text, written once
/// from the live report and spliced into the `report` envelope as it
/// stands. The wire bytes are those of the [`Response::Report`] a client
/// parses them into.
enum Reply {
    Message(Response),
    Report {
        id: u64,
        cached: bool,
        elapsed_ms: u64,
        report: Arc<str>,
    },
}

impl Reply {
    fn to_wire(&self) -> String {
        match self {
            Reply::Message(resp) => resp.to_wire(),
            Reply::Report {
                id,
                cached,
                elapsed_ms,
                report,
            } => {
                let mut text = TextSink::compact();
                protocol::emit_report(&mut text, *id, *cached, *elapsed_ms, |s| s.raw(report));
                text.finish()
            }
        }
    }
}

/// The options a rendered report is a function of, beside its entry's
/// (name, source) — read off the job as [`run_job`] runs it.
#[derive(PartialEq, Eq)]
struct ReportKey {
    statics: bool,
    /// The engine as parsed, so every spelling of one engine shares one
    /// report and the key stays fixed-size; `None` is
    /// [`EngineKind::auto_for`], which is deterministic.
    engine: Option<EngineKind>,
    /// The effective ceiling from [`job_budget`].
    max_memory: Option<usize>,
}

struct CacheEntry {
    /// `cache_key(name, source)`: a filter only — a hit also compares the
    /// name and source themselves.
    key: u64,
    name: String,
    source: String,
    program: Arc<interp::Program>,
    /// Compact report text, one per option set it was rendered under.
    reports: Vec<(ReportKey, Arc<str>)>,
    /// The program's estimate plus the reports' lengths.
    bytes: usize,
    last_use: u64,
}

impl CacheEntry {
    fn report(&self, key: &ReportKey) -> Option<&Arc<str>> {
        self.reports.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }
}

#[derive(Default)]
struct ProgramCache {
    entries: Vec<CacheEntry>,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    tick: u64,
}

impl ProgramCache {
    fn position(&self, name: &str, source: &str) -> Option<usize> {
        let key = cache_key(name, source);
        self.entries
            .iter()
            .position(|e| e.key == key && e.name == name && e.source == source)
    }

    /// Insert `entry` as the most recently used, evicting whole entries
    /// LRU until its bytes fit under `cap` (the caller has checked they fit
    /// in an empty cache). Returns the number of entries evicted.
    fn insert(&mut self, mut entry: CacheEntry, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + entry.bytes > cap {
            let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
            else {
                break; // not reached: an empty cache holds no bytes, so it fits
            };
            let gone = self.entries.remove(lru);
            self.bytes -= gone.bytes;
            evicted += 1;
        }
        self.tick += 1;
        entry.last_use = self.tick;
        self.bytes += entry.bytes;
        self.entries.push(entry);
        evicted
    }
}

struct Shared {
    cfg: ServeConfig,
    local_addr: SocketAddr,
    started: Instant,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// `true` until drain begins; gates both the acceptor and admission.
    accepting: AtomicBool,
    /// Set by a protocol `shutdown` request; the daemon owner polls it.
    shutdown_requested: AtomicBool,
    /// Local address of the self-connection that wakes the acceptor for
    /// the drain. Held locked from the flip to draining until it is set,
    /// so the acceptor reads it only once it is final.
    poke: Mutex<Option<SocketAddr>>,
    in_flight: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_shed: AtomicU64,
    worker_recoveries: AtomicU64,
    conn_recoveries: AtomicU64,
    cache: Mutex<ProgramCache>,
    cache_hits: AtomicU64,
    cache_report_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

/// Take a mutex even when a panicking holder poisoned it — the supervised
/// server must keep serving; the guarded state (queue, cache) is kept
/// valid at every await-free step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn draining(&self) -> bool {
        !self.accepting.load(Ordering::Acquire)
    }

    /// Flip to draining and wake every blocked thread: workers via the
    /// condvar, the acceptor via a throwaway self-connection (its
    /// `accept` is a plain blocking call).
    fn begin_drain(&self) {
        let mut poke = lock(&self.poke);
        if self.accepting.swap(false, Ordering::AcqRel) {
            *poke = TcpStream::connect(self.local_addr)
                .and_then(|s| s.local_addr())
                .ok();
        }
        drop(poke);
        self.queue_cv.notify_all();
    }

    fn status(&self) -> StatusBody {
        let queue_depth = lock(&self.queue).len() as u64;
        let (cache_entries, cache_bytes) = {
            let c = lock(&self.cache);
            (c.entries.len() as u64, c.bytes as u64)
        };
        StatusBody {
            protocol: PROTOCOL_VERSION as u64,
            accepting: !self.draining(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers: self.cfg.workers as u64,
            queue_depth,
            queue_cap: self.cfg.queue_cap as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            worker_recoveries: self.worker_recoveries.load(Ordering::Relaxed),
            conn_recoveries: self.conn_recoveries.load(Ordering::Relaxed),
            cache_entries,
            cache_bytes,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_report_hits: self.cache_report_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Backoff hint for shed jobs: scale with how far behind the pool is.
    fn retry_after_ms(&self) -> u64 {
        let backlog = lock(&self.queue).len() as u64 + self.in_flight.load(Ordering::Relaxed);
        (50 * backlog.max(1)).min(2_000)
    }
}

/// A running daemon. Bind with [`serve`]; the handle owns the acceptor
/// and worker threads and must be retired with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Bind `cfg.addr` and start the acceptor + worker pool.
pub fn serve(cfg: ServeConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        local_addr,
        started: Instant::now(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        accepting: AtomicBool::new(true),
        shutdown_requested: AtomicBool::new(false),
        poke: Mutex::new(None),
        in_flight: AtomicU64::new(0),
        jobs_done: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        jobs_shed: AtomicU64::new(0),
        worker_recoveries: AtomicU64::new(0),
        conn_recoveries: AtomicU64::new(0),
        cache: Mutex::new(ProgramCache::default()),
        cache_hits: AtomicU64::new(0),
        cache_report_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        cache_evictions: AtomicU64::new(0),
        cfg,
    });

    let workers = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("discopop-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    let acceptor = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("discopop-acceptor".to_string())
            .spawn(move || acceptor_loop(&shared, listener))?
    };

    Ok(Server {
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl Server {
    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A client asked the daemon to shut down; the owner should call
    /// [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Current health/queue/cache/recovery counters (same data a
    /// protocol `status` request returns).
    pub fn status(&self) -> StatusBody {
        self.shared.status()
    }

    /// Stop accepting, drain queued + in-flight jobs up to the drain
    /// deadline, answer abandoned queued jobs with `shutting_down`, and
    /// report the triage.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.begin_drain();
        let deadline = Instant::now() + self.shared.cfg.drain_deadline;
        loop {
            let backlog = !lock(&self.shared.queue).is_empty()
                || self.shared.in_flight.load(Ordering::Acquire) > 0;
            if !backlog || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let abandoned_queued = {
            let mut q = lock(&self.shared.queue);
            let jobs: Vec<Job> = q.drain(..).collect();
            drop(q);
            for job in &jobs {
                let _ = job.reply.send(error_reply(
                    job.id,
                    ErrorKind::ShuttingDown,
                    "daemon shut down before the job started",
                ));
            }
            jobs.len() as u64
        };
        let abandoned_in_flight = self.shared.in_flight.load(Ordering::Acquire);
        self.shared.queue_cv.notify_all();

        // Workers park on a timed condvar wait, so they notice the drain
        // flag promptly — but a worker wedged in an undeadlined job can't
        // be joined without hanging the shutdown; leave those to the
        // process exit.
        if abandoned_in_flight == 0 {
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }

        DrainReport {
            drained: abandoned_queued == 0 && abandoned_in_flight == 0,
            completed: self.shared.jobs_done.load(Ordering::Relaxed),
            abandoned_queued,
            abandoned_in_flight,
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor + connection handling
// ---------------------------------------------------------------------------

/// Most connections the acceptor takes from the backlog while draining
/// (Linux caps a listen backlog at `somaxconn`, 4096 by default).
const DRAIN_ACCEPT_MAX: usize = 4096;

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    // The poke's connection thread, once the drain has accepted it.
    let mut poke_conn = None;
    let mut serve_draining = |stream: TcpStream| {
        let peer = stream.peer_addr().ok();
        let conn = spawn_conn(shared, stream);
        if peer.is_some() && peer == *lock(&shared.poke) {
            poke_conn = conn;
        }
    };
    for stream in listener.incoming() {
        // The stream that wakes a draining acceptor may be a client's, not
        // the self-connect poke: it is answered like any other.
        if let Ok(stream) = stream {
            if shared.draining() {
                serve_draining(stream);
            } else {
                spawn_conn(shared, stream);
            }
        }
        if shared.draining() {
            break;
        }
    }
    // Draining. Connections that completed their handshake before the
    // listener closes sit in the accept backlog; dropping the listener now
    // would reset them. Hand each to a connection thread instead — every
    // request it then reads gets the typed `shutting_down` answer from
    // `submit_job` — and close once the backlog reads empty. The bound
    // keeps a client that reconnects in a tight loop from holding the
    // shutdown open: no backlog is deeper than it.
    if listener.set_nonblocking(true).is_ok() {
        for _ in 0..DRAIN_ACCEPT_MAX {
            let Ok((stream, _)) = listener.accept() else {
                break; // `WouldBlock`: the backlog is empty
            };
            // An accepted socket may inherit the listener's mode; the
            // connection handler relies on blocking reads with a timeout.
            if stream.set_nonblocking(false).is_ok() {
                serve_draining(stream);
            }
        }
    }
    // The poke closed its end at once, so its handler ends at its first
    // read. Joining it means no thread of a retired server is left to
    // reach a fault point after `Server::shutdown` returns.
    if let Some(conn) = poke_conn {
        let _ = conn.join();
    }
}

/// Serve one accepted connection on a thread of its own; `None` when the
/// thread could not be started.
fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) -> Option<std::thread::JoinHandle<()>> {
    let shared = shared.clone();
    let spawned = std::thread::Builder::new()
        .name("discopop-conn".to_string())
        .spawn(move || {
            // A panicking connection handler (e.g. an armed
            // `serve:accept`/`serve:respond` faultpoint) takes down
            // only its own connection; the acceptor and every worker
            // keep going.
            if catch_unwind(AssertUnwindSafe(|| handle_conn(&shared, stream))).is_err() {
                shared.conn_recoveries.fetch_add(1, Ordering::Relaxed);
            }
        });
    // Spawn failure (thread exhaustion) drops the connection — the
    // client sees a reset and retries; the daemon stays up.
    spawned.ok()
}

enum LineRead {
    /// One complete request line (without the trailing `\n`).
    Line,
    /// Clean end of stream.
    Eof,
    /// Stream ended mid-line: the client vanished mid-request.
    Truncated,
    /// The line exceeded the size cap. The rest of the line was read and
    /// discarded, so framing is intact and the session can continue —
    /// and the client keeps getting its bytes drained instead of a TCP
    /// reset that would eat the typed error response.
    TooLarge,
}

/// Read one `\n`-terminated line, enforcing the size cap *while reading*
/// so an oversized request never accumulates more than `max` buffered
/// bytes — the overflow is discarded up to the next newline, not stored.
/// Read timeouts surface as `Err`.
fn read_line_bounded(
    r: &mut impl BufRead,
    max: usize,
    out: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    out.clear();
    let mut overflowed = false;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() && !overflowed {
                LineRead::Eof
            } else {
                LineRead::Truncated
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let too_big = overflowed || out.len() + i > max;
                if !too_big {
                    out.extend_from_slice(&buf[..i]);
                }
                r.consume(i + 1);
                return Ok(if too_big {
                    LineRead::TooLarge
                } else {
                    LineRead::Line
                });
            }
            None => {
                let n = buf.len();
                if overflowed || out.len() + n > max {
                    overflowed = true;
                    out.clear();
                } else {
                    out.extend_from_slice(buf);
                }
                r.consume(n);
            }
        }
    }
}

fn send_reply(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    profiler::faultpoint!("serve:respond");
    let mut line = reply.to_wire();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn error_reply(id: u64, kind: ErrorKind, message: impl Into<String>) -> Reply {
    Reply::Message(Response::Error(ErrorBody {
        id,
        kind,
        message: message.into(),
        retry_after_ms: None,
        partial: None,
    }))
}

/// Serve one connection: read request lines, answer each in order.
/// `status`/`shutdown` are answered inline (they must work under
/// overload); `analyze` goes through admission control and blocks this
/// connection — not the daemon — until its worker replies.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    profiler::faultpoint!("serve:accept");
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        match read_line_bounded(&mut reader, shared.cfg.max_request_bytes, &mut line) {
            Ok(LineRead::Line) => {
                if !handle_request_line(shared, &mut stream, &line) {
                    break;
                }
            }
            Ok(LineRead::TooLarge) => {
                // The oversized line was drained to its newline, so the
                // session survives the typed rejection.
                if send_reply(
                    &mut stream,
                    &error_reply(
                        0,
                        ErrorKind::TooLarge,
                        format!("request exceeds {} bytes", shared.cfg.max_request_bytes),
                    ),
                )
                .is_err()
                {
                    break;
                }
            }
            // Clean EOF, death mid-request, read timeout, reset: this
            // connection is done either way.
            Ok(LineRead::Eof) | Ok(LineRead::Truncated) | Err(_) => break,
        }
    }
}

/// Decode and dispatch one request line. Returns `false` when the
/// connection should close.
fn handle_request_line(shared: &Arc<Shared>, stream: &mut TcpStream, line: &[u8]) -> bool {
    profiler::faultpoint!("serve:decode");
    if line.iter().all(|b| b.is_ascii_whitespace()) {
        return true; // tolerate blank keep-alive lines
    }
    let Ok(text) = std::str::from_utf8(line) else {
        return send_reply(
            stream,
            &error_reply(0, ErrorKind::Malformed, "request is not UTF-8"),
        )
        .is_ok();
    };
    let limits = ParseLimits {
        max_bytes: shared.cfg.max_request_bytes,
        max_depth: shared.cfg.max_json_depth,
    };
    let value = match Value::parse_with_limits(text, &limits) {
        Ok(v) => v,
        Err(e) => {
            let kind = match e.kind {
                ParseErrorKind::TooLarge => ErrorKind::TooLarge,
                ParseErrorKind::TooDeep | ParseErrorKind::Syntax => ErrorKind::Malformed,
            };
            return send_reply(stream, &error_reply(0, kind, e.to_string())).is_ok();
        }
    };
    // Salvage the correlation id even from requests that fail validation,
    // so clients can match the error to the job they sent.
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    let req = match Request::from_json(&value) {
        Ok(r) => r,
        Err(msg) => return send_reply(stream, &error_reply(id, ErrorKind::Malformed, msg)).is_ok(),
    };
    match req {
        Request::Status { id } => send_reply(
            stream,
            &Reply::Message(Response::Status {
                id,
                status: shared.status(),
            }),
        )
        .is_ok(),
        Request::Shutdown { id } => {
            shared.shutdown_requested.store(true, Ordering::Release);
            shared.begin_drain();
            let _ = send_reply(stream, &Reply::Message(Response::ShutdownAck { id }));
            false
        }
        Request::Analyze {
            id,
            name,
            source,
            options,
        } => {
            let resp = submit_job(shared, id, name, source, options);
            send_reply(stream, &resp).is_ok()
        }
    }
}

/// Admission control + the wait for the job's worker to answer.
fn submit_job(
    shared: &Arc<Shared>,
    id: u64,
    name: String,
    source: String,
    options: JobOptions,
) -> Reply {
    if shared.draining() {
        return error_reply(
            id,
            ErrorKind::ShuttingDown,
            "daemon is draining and accepts no new work",
        );
    }
    let (reply, result) = mpsc::channel();
    {
        let mut q = lock(&shared.queue);
        if q.len() >= shared.cfg.queue_cap {
            drop(q);
            shared.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return Reply::Message(Response::Error(ErrorBody {
                id,
                kind: ErrorKind::Overloaded,
                message: format!("job queue is full ({} jobs)", shared.cfg.queue_cap),
                retry_after_ms: Some(shared.retry_after_ms()),
                partial: None,
            }));
        }
        q.push_back(Job {
            id,
            name,
            source,
            options,
            reply,
        });
    }
    shared.queue_cv.notify_one();
    // The worker (or the drain purge) always answers; a dropped sender
    // without an answer means the job was lost to a defect we did not
    // model, which still must not take the connection down silently.
    result
        .recv()
        .unwrap_or_else(|_| error_reply(id, ErrorKind::Panic, "job was lost by the worker pool"))
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.draining() {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let id = job.id;
        let reply = job.reply.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, job)));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(payload) => {
                // The job crashed inside the pipeline; the worker absorbs
                // it and stays in the pool.
                shared.worker_recoveries.fetch_add(1, Ordering::Relaxed);
                error_reply(id, ErrorKind::Panic, panic_message(payload.as_ref()))
            }
        };
        match &resp {
            Reply::Report { .. } => shared.jobs_done.fetch_add(1, Ordering::Relaxed),
            Reply::Message(_) => shared.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        let _ = reply.send(resp);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Run one job through the staged pipeline — or, for a repeat of a
/// cacheable request, answer it with the report rendered the first time.
/// Everything here executes under the worker's `catch_unwind`.
fn run_job(shared: &Arc<Shared>, job: Job) -> Reply {
    profiler::faultpoint!("serve:job-start");
    let t0 = Instant::now();

    let engine = match &job.options.engine {
        Some(spec) => match EngineKind::parse(spec) {
            Ok(e) => Some(e),
            Err(msg) => return error_reply(job.id, ErrorKind::Malformed, msg),
        },
        None => None,
    };
    let budget = job_budget(shared, &job.options);
    // A deadline makes the report a function of the clock, not the request.
    let report_key = budget.deadline.is_none().then_some(ReportKey {
        statics: job.options.statics,
        engine,
        max_memory: budget.max_memory_bytes,
    });

    let (program, cached) = match lookup(shared, &job.name, &job.source, report_key.as_ref()) {
        Ok(Found::Report(report)) => {
            return Reply::Report {
                id: job.id,
                cached: true,
                elapsed_ms: t0.elapsed().as_millis() as u64,
                report,
            }
        }
        Ok(Found::Program(program, cached)) => (program, cached),
        Err(e) => return error_reply(job.id, ErrorKind::Compile, e.to_string()),
    };

    let mut analysis = Analysis::new()
        .with_static(job.options.statics)
        .engine(engine.unwrap_or_else(|| EngineKind::auto_for(&program)))
        .on_progress(|ev| {
            if matches!(ev, StageEvent::Profiled { .. }) {
                profiler::faultpoint!("serve:mid-job");
            }
        })
        .budget(budget);

    match analysis.analyze_program(&program) {
        Ok(report) => {
            // `parallel:N` reports count queue stalls, a timing.
            let timed = report.profile.parallel.is_some();
            let text: Arc<str> = report.render(&program, TextSink::compact()).into();
            // Admission: only a program requested before gets its report
            // kept, so one-shot submissions never fill the cache.
            if let (true, Some(key), false) = (cached, report_key, timed) {
                admit_report(shared, &job.name, &job.source, key, text.clone());
            }
            Reply::Report {
                id: job.id,
                cached,
                elapsed_ms: t0.elapsed().as_millis() as u64,
                report: text,
            }
        }
        Err(Error::Compile(e)) => error_reply(job.id, ErrorKind::Compile, e.to_string()),
        Err(Error::Runtime(e)) => error_reply(job.id, ErrorKind::Runtime, e.to_string()),
        Err(Error::DeadlineExceeded { partial }) => Reply::Message(Response::Error(ErrorBody {
            id: job.id,
            kind: ErrorKind::Deadline,
            message: format!(
                "deadline exceeded after {} steps ({} dependences profiled)",
                partial.steps,
                partial.deps.len()
            ),
            retry_after_ms: None,
            partial: Some(PartialStats {
                steps: partial.steps,
                dependences: partial.deps.len() as u64,
            }),
        })),
    }
}

/// Per-job [`Budget`]: the request's own limits, defaulting to an equal
/// slice of the configured memory pool and the configured deadline.
fn job_budget(shared: &Arc<Shared>, options: &JobOptions) -> Budget {
    let slice = shared
        .cfg
        .max_memory
        .map(|total| (total / shared.cfg.workers.max(1)).max(1));
    Budget {
        max_memory_bytes: options.max_memory.map(|m| m as usize).or(slice),
        deadline: options
            .deadline_ms
            .map(Duration::from_millis)
            .or(shared.cfg.default_deadline),
    }
}

// ---------------------------------------------------------------------------
// Compiled-program and report cache
// ---------------------------------------------------------------------------

fn cache_key(name: &str, source: &str) -> u64 {
    let mut h = fxhash::FxHasher::default();
    h.write(name.as_bytes());
    h.write_u8(0);
    h.write(source.as_bytes());
    h.finish()
}

/// Rough resident-size estimate of a compiled program: name and source
/// text plus the decoded instruction streams, static memory layout,
/// call-graph effect table and static report. Only has to be consistent,
/// not exact — it is what the cache admits against.
fn program_bytes(name: &str, source: &str, program: &interp::Program) -> usize {
    name.len()
        + source.len()
        + program.num_decoded_ops() * 16
        + program.footprint_words() * 8
        + program.effects().heap_bytes()
        + program.static_report().heap_bytes()
        + std::mem::size_of::<interp::Program>()
}

/// What the cache holds for a job.
enum Found {
    /// The report rendered under the job's options: the job is done.
    Report(Arc<str>),
    /// The compiled program, and whether it came from the cache.
    Program(Arc<interp::Program>, bool),
}

/// Fetch the report for `report_key` (`None`: not cacheable) or the
/// program for (`name`, `source`); compile and cache the program on a miss.
fn lookup(
    shared: &Arc<Shared>,
    name: &str,
    source: &str,
    report_key: Option<&ReportKey>,
) -> Result<Found, lang::CompileError> {
    {
        let mut c = lock(&shared.cache);
        c.tick += 1;
        let tick = c.tick;
        if let Some(i) = c.position(name, source) {
            let e = &mut c.entries[i];
            e.last_use = tick;
            let found = match report_key.and_then(|k| e.report(k)) {
                Some(report) => Found::Report(report.clone()),
                None => Found::Program(e.program.clone(), true),
            };
            drop(c);
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            if matches!(found, Found::Report(_)) {
                shared.cache_report_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(found);
        }
    }
    shared.cache_misses.fetch_add(1, Ordering::Relaxed);
    let program = Arc::new(interp::Program::new(lang::compile(source, name)?));
    let bytes = program_bytes(name, source, &program);
    admit_program(shared, name, source, program.clone(), bytes);
    Ok(Found::Program(program, false))
}

/// Admit a freshly compiled program into the cache, evicting LRU entries
/// until it fits. A program too large for the whole cache is simply not
/// cached and evicts nothing (graceful degradation: misses, never OOM).
fn admit_program(
    shared: &Arc<Shared>,
    name: &str,
    source: &str,
    program: Arc<interp::Program>,
    bytes: usize,
) {
    let cap = shared.cfg.cache_bytes;
    let mut c = lock(&shared.cache);
    if bytes > cap || c.position(name, source).is_some() {
        return; // oversized, or a concurrent miss beat us to it
    }
    let entry = CacheEntry {
        key: cache_key(name, source),
        name: name.to_string(),
        source: source.to_string(),
        program,
        reports: Vec::new(),
        bytes,
        last_use: 0,
    };
    let evicted = c.insert(entry, cap);
    shared.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
}

/// Keep `report` beside its program, evicting other entries LRU until it
/// fits. Nothing is stored when the program has left the cache since the
/// lookup, when a concurrent job stored the same report, or when the entry
/// with the report would not fit under the whole ceiling.
fn admit_report(shared: &Arc<Shared>, name: &str, source: &str, key: ReportKey, report: Arc<str>) {
    let cap = shared.cfg.cache_bytes;
    let mut c = lock(&shared.cache);
    let Some(i) = c.position(name, source) else {
        return;
    };
    let e = &c.entries[i];
    if e.bytes + report.len() > cap || e.report(&key).is_some() {
        return;
    }
    let mut entry = c.entries.remove(i);
    c.bytes -= entry.bytes;
    entry.bytes += report.len();
    entry.reports.push((key, report));
    let evicted = c.insert(entry, cap);
    shared.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reader_enforces_the_cap_and_framing() {
        let mut out = Vec::new();
        let mut r = BufReader::new(&b"{\"a\":1}\nrest\n"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"{\"a\":1}");
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"rest");
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Eof
        ));

        // An oversized line is discarded through its newline, so the
        // next request on the same session still parses.
        let mut r = BufReader::new(&b"0123456789\nafter\n"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 4, &mut out).unwrap(),
            LineRead::TooLarge
        ));
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"after");

        // Oversized *and* truncated: not a clean EOF.
        let mut r = BufReader::new(&b"0123456789"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 4, &mut out).unwrap(),
            LineRead::Truncated
        ));

        let mut r = BufReader::new(&b"no newline"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Truncated
        ));
    }

    fn shared_with(cfg: ServeConfig) -> Arc<Shared> {
        Arc::new(Shared {
            local_addr: "127.0.0.1:1".parse().unwrap(),
            started: Instant::now(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            shutdown_requested: AtomicBool::new(false),
            poke: Mutex::new(None),
            in_flight: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            worker_recoveries: AtomicU64::new(0),
            conn_recoveries: AtomicU64::new(0),
            cache: Mutex::new(ProgramCache::default()),
            cache_hits: AtomicU64::new(0),
            cache_report_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cfg,
        })
    }

    /// Names in the cache, in insertion order, with the byte count checked
    /// against the entries.
    fn names(shared: &Shared) -> Vec<String> {
        let c = lock(&shared.cache);
        assert_eq!(c.bytes, c.entries.iter().map(|e| e.bytes).sum::<usize>());
        assert!(c.bytes <= shared.cfg.cache_bytes);
        c.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Run one job as a worker does, and return its report text.
    fn run(shared: &Arc<Shared>, name: &str, source: &str, options: JobOptions) -> Arc<str> {
        let (reply, _) = mpsc::channel();
        let job = Job {
            id: 1,
            name: name.to_string(),
            source: source.to_string(),
            options,
            reply,
        };
        match run_job(shared, job) {
            Reply::Report { report, .. } => report,
            Reply::Message(m) => panic!("job failed: {}", m.to_wire()),
        }
    }

    #[test]
    fn cache_evicts_lru_under_pressure_and_skips_oversized() {
        let shared = shared_with(ServeConfig {
            cache_bytes: 10_000,
            ..ServeConfig::default()
        });
        let src = "fn main() { int x = 0; x = x + 1; }";
        let program = Arc::new(interp::Program::new(lang::compile(src, "m").unwrap()));
        let evictions = || shared.cache_evictions.load(Ordering::Relaxed);
        let admit = |name: &str, bytes| admit_program(&shared, name, src, program.clone(), bytes);

        admit("1", 6_000);
        assert_eq!(names(&shared), ["1"]);
        admit("2", 3_000);
        assert_eq!(names(&shared), ["1", "2"]);
        assert_eq!(evictions(), 0);
        admit("3", 6_000);
        // Entry 1 is LRU and must go to make room.
        assert_eq!(evictions(), 1);
        assert_eq!(names(&shared), ["2", "3"]);

        // Larger than the whole cache: not cached, and nothing evicted.
        admit("4", 100_000);
        assert_eq!(names(&shared), ["2", "3"]);
        assert_eq!(evictions(), 1);

        // And the cache still works afterwards.
        admit("5", 6_000);
        assert_eq!(evictions(), 3);
        assert_eq!(names(&shared), ["5"]);
    }

    #[test]
    fn a_report_hit_hands_out_the_kept_bytes_and_each_option_set_has_its_own() {
        let shared = shared_with(ServeConfig::default());
        let src = "fn main() { int a[8]; for (int i = 0; i < 8; i = i + 1) { a[i] = i; } }";
        let reports = || lock(&shared.cache).entries[0].reports.len();

        run(&shared, "m", src, JobOptions::default());
        let kept = run(&shared, "m", src, JobOptions::default());
        let hit = run(&shared, "m", src, JobOptions::default());
        assert!(Arc::ptr_eq(&hit, &kept), "the kept bytes themselves");
        assert_eq!(reports(), 1);

        // Other options are another report of the same entry.
        let statics = JobOptions {
            statics: true,
            ..JobOptions::default()
        };
        run(&shared, "m", src, statics.clone());
        assert_eq!(reports(), 2);
        let hit = run(&shared, "m", src, statics);
        assert_ne!(hit, kept);
        assert_eq!(shared.cache_report_hits.load(Ordering::Relaxed), 2);
        names(&shared);
    }
}
