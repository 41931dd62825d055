//! Server fault-injection suite: the daemon must isolate every failure to
//! the job (or connection) that caused it. Worker panics, client
//! disconnects, malformed/oversized/truncated requests, deadline trips,
//! overload shedding, and shutdown-while-draining all run against live
//! in-process daemons, and every test with concurrent healthy jobs
//! asserts their reports are **byte-identical** to direct [`Analysis`]
//! runs — fault isolation means neighbors are not merely "still
//! answered" but answered *exactly* as if the fault never happened.
//!
//! Fault-point state is process-global and injected unwinds would spam
//! the test log, so every test runs under [`session`] (suite lock +
//! silent panic hook + disarm on exit), mirroring the profiler's
//! `fault_injection` suite.

use discopop::protocol::{ErrorKind, JobOptions, Request, Response};
use discopop::serve::{serve, ServeConfig, Server};
use discopop::submit::{submit, SubmitConfig, SubmitError};
use discopop::{Analysis, EngineKind};
use profiler::fault;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Small deterministic workload: auto-selects the serial-perfect engine,
/// so repeated runs produce identical reports.
const HEALTHY_SRC: &str = "\
fn main() {
    int a[256];
    for (int i = 0; i < 256; i = i + 1) {
        a[i] = i * 2;
    }
    int s = 0;
    for (int i = 0; i < 256; i = i + 1) {
        s = s + a[i];
    }
}
";

/// A second distinct workload, so cache keys differ.
const OTHER_SRC: &str = "\
fn main() {
    int b[128];
    for (int i = 1; i < 128; i = i + 1) {
        b[i] = b[i - 1] + i;
    }
}
";

/// Loop-heavy enough (~65k accesses) to keep a worker busy for a visible
/// window and to guarantee a 1 ms deadline trips mid-run.
const SLOW_SRC: &str = "\
global int a[4096];
fn main() {
    for (int r = 0; r < 8; r = r + 1) {
        for (int i = 0; i < 4096; i = i + 1) {
            a[i] = a[i] + i;
        }
    }
}
";

fn suite_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Serialize the suite, silence the panic hook (injected faults and
/// supervised worker panics unwind by design), and disarm every fault
/// point on the way out; assertion failures are re-raised with their
/// message reprinted.
fn session<T>(body: impl FnOnce() -> T) -> T {
    let _guard: MutexGuard<'_, ()> = suite_lock()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fault::disarm_all();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(AssertUnwindSafe(body));
    std::panic::set_hook(prev);
    fault::disarm_all();
    match out {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            eprintln!("serve session body panicked: {msg}");
            std::panic::resume_unwind(payload)
        }
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

fn client(addr: SocketAddr) -> SubmitConfig {
    SubmitConfig {
        addr: addr.to_string(),
        attempts: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        io_timeout: Duration::from_secs(30),
    }
}

fn analyze_req(id: u64, name: &str, source: &str) -> Request {
    Request::Analyze {
        id,
        name: name.to_string(),
        source: source.to_string(),
        options: JobOptions::default(),
    }
}

/// The report JSON a direct (in-process, no daemon) run of the default
/// pipeline produces for this module — the byte-identity oracle.
fn direct_report_json(name: &str, source: &str) -> String {
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(source, name).expect("oracle compiles");
    analysis.engine_mut(EngineKind::auto_for(compiled.program()));
    let report = analysis
        .analyze_compiled(&compiled)
        .expect("oracle analysis succeeds");
    report.to_doc(compiled.program()).to_json().to_string()
}

/// Submit one healthy job and return the report JSON exactly as rendered
/// from the wire value.
fn report_json_via(server_addr: SocketAddr, id: u64, name: &str, source: &str) -> String {
    match submit(&client(server_addr), &analyze_req(id, name, source)) {
        Ok(Response::Report {
            id: rid, report, ..
        }) => {
            assert_eq!(rid, id, "correlation id must echo");
            report.to_string()
        }
        other => panic!("healthy job {id} must return a report, got {other:?}"),
    }
}

/// Write one raw line and read one raw response line (None on EOF or a
/// connection the server already tore down).
fn raw_roundtrip(addr: SocketAddr, line: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    if stream
        .write_all(line)
        .and_then(|()| stream.write_all(b"\n"))
        .is_err()
    {
        return None;
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => None,
        Ok(_) => Some(reply.trim_end().to_string()),
        Err(_) => None,
    }
}

fn error_kind_of(reply: &str) -> (u64, ErrorKind, String) {
    let v = jsonio::Value::parse(reply).expect("reply parses");
    match Response::from_json(&v).expect("reply is a protocol response") {
        Response::Error(e) => (e.id, e.kind, e.message),
        other => panic!("expected an error response, got {other:?}"),
    }
}

fn status_of(server: &Server) -> discopop::protocol::StatusBody {
    server.status()
}

/// Poll until the daemon settles (no queued or in-flight jobs).
fn wait_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = status_of(server);
        if s.queue_depth == 0 && s.in_flight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never settled: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Healthy-path sanity + cache behavior
// ---------------------------------------------------------------------------

#[test]
fn healthy_jobs_match_direct_runs_and_hit_the_cache() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();
        let direct = direct_report_json("demo", HEALTHY_SRC);

        let first = report_json_via(addr, 1, "demo", HEALTHY_SRC);
        let second = report_json_via(addr, 2, "demo", HEALTHY_SRC);
        assert_eq!(first, direct, "served report must be byte-identical");
        assert_eq!(
            second, direct,
            "cached-program report must be byte-identical"
        );

        let s = status_of(&server);
        assert_eq!(s.jobs_done, 2);
        assert_eq!(s.cache_misses, 1, "first job compiles");
        assert_eq!(s.cache_hits, 1, "second job reuses the compiled program");
        assert_eq!(s.cache_entries, 1);

        let report = server.shutdown();
        assert!(report.drained);
        assert_eq!(report.completed, 2);
    });
}

#[test]
fn cache_evicts_under_pressure_and_keeps_serving() {
    session(|| {
        let server = serve(ServeConfig {
            // Far too small for two programs: every insert evicts.
            cache_bytes: 3_000,
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        assert_eq!(
            report_json_via(addr, 1, "a", HEALTHY_SRC),
            direct_report_json("a", HEALTHY_SRC)
        );
        assert_eq!(
            report_json_via(addr, 2, "b", OTHER_SRC),
            direct_report_json("b", OTHER_SRC)
        );
        assert_eq!(
            report_json_via(addr, 3, "a", HEALTHY_SRC),
            direct_report_json("a", HEALTHY_SRC)
        );

        let s = status_of(&server);
        assert_eq!(s.jobs_done, 3, "degradation costs misses, never jobs");
        assert!(s.cache_evictions >= 1, "pressure must evict, got {s:?}");
        assert!(s.cache_bytes <= 3_000, "gauge must respect the ceiling");
        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// Request hardening: malformed / oversized / truncated / deep input
// ---------------------------------------------------------------------------

#[test]
fn malformed_requests_get_typed_errors_and_the_daemon_keeps_serving() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        let (_, kind, _) = error_kind_of(&raw_roundtrip(addr, b"this is not json").unwrap());
        assert_eq!(kind, ErrorKind::Malformed);

        // Valid JSON, invalid request — and the id must still be echoed.
        let (id, kind, msg) =
            error_kind_of(&raw_roundtrip(addr, br#"{"type":"analyze","id":9}"#).unwrap());
        assert_eq!((id, kind), (9, ErrorKind::Malformed), "{msg}");

        // Unknown request type.
        let (_, kind, _) =
            error_kind_of(&raw_roundtrip(addr, br#"{"type":"conquer","id":1}"#).unwrap());
        assert_eq!(kind, ErrorKind::Malformed);

        // Nesting past the depth cap: rejected by the parser limits, not
        // by a stack overflow.
        let deep = "[".repeat(500) + &"]".repeat(500);
        let (_, kind, msg) = error_kind_of(&raw_roundtrip(addr, deep.as_bytes()).unwrap());
        assert_eq!(kind, ErrorKind::Malformed, "{msg}");
        assert!(msg.contains("nesting"), "should cite the depth cap: {msg}");

        // The daemon is unharmed.
        assert_eq!(
            report_json_via(addr, 10, "demo", HEALTHY_SRC),
            direct_report_json("demo", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

#[test]
fn hostile_source_nesting_is_a_typed_compile_error_and_the_daemon_keeps_serving() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        // 40 KB of source nesting 20,000 parentheses used to overflow a
        // worker's stack and abort the process with every queued job.
        let deep = format!(
            "fn main() {{ int x = {}1{}; }}",
            "(".repeat(20_000),
            ")".repeat(20_000)
        );
        match submit(&client(addr), &analyze_req(1, "deep", &deep)) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.kind, ErrorKind::Compile, "{}", e.message);
                assert!(
                    e.message.contains(&lang::MAX_NESTING.to_string()),
                    "names the limit: {}",
                    e.message
                );
            }
            other => panic!("expected a typed compile error, got {other:?}"),
        }

        assert_eq!(
            report_json_via(addr, 2, "demo", HEALTHY_SRC),
            direct_report_json("demo", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

#[test]
fn oversized_requests_are_rejected_while_reading() {
    session(|| {
        let server = serve(ServeConfig {
            max_request_bytes: 4_096,
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        // 64 KiB of garbage against a 4 KiB cap: the typed rejection must
        // arrive from the bounded reader, long before a parser sees it.
        let big = vec![b'x'; 64 * 1024];
        let (_, kind, msg) = error_kind_of(&raw_roundtrip(addr, &big).unwrap());
        assert_eq!(kind, ErrorKind::TooLarge, "{msg}");

        // Oversized-but-valid JSON meets the same cap.
        let padded = format!(
            r#"{{"type":"analyze","id":1,"source":"fn main() {{}}","pad":"{}"}}"#,
            "y".repeat(8_192)
        );
        let (_, kind, _) = error_kind_of(&raw_roundtrip(addr, padded.as_bytes()).unwrap());
        assert_eq!(kind, ErrorKind::TooLarge);

        assert_eq!(
            report_json_via(addr, 2, "demo", HEALTHY_SRC),
            direct_report_json("demo", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

#[test]
fn truncated_requests_and_silent_clients_cannot_wedge_the_daemon() {
    session(|| {
        let server = serve(ServeConfig {
            io_timeout: Duration::from_millis(200),
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        // Half a request, then the client dies: no response owed.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(br#"{"type":"analyze","id":1,"sour"#)
                .expect("write");
        } // dropped here — connection reset mid-request

        // A connected client that never sends anything: the read timeout
        // must close it rather than hold the handler hostage.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut buf = [0u8; 16];
            let t0 = Instant::now();
            let n = stream.read(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "server must close the stalled connection");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "close must come from the server's timeout, not ours"
            );
        }

        assert_eq!(
            report_json_via(addr, 2, "demo", HEALTHY_SRC),
            direct_report_json("demo", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// Job isolation: panic, deadline, disconnect
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_mid_job_is_isolated_and_typed() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        fault::arm("serve:mid-job", 0);
        match submit(&client(addr), &analyze_req(1, "victim", HEALTHY_SRC)) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.kind, ErrorKind::Panic);
                assert!(
                    e.message.contains("serve:mid-job"),
                    "panic message should carry the payload: {}",
                    e.message
                );
            }
            other => panic!("armed job must fail typed, got {other:?}"),
        }

        // The worker that absorbed the panic is still in the pool.
        let s = status_of(&server);
        assert_eq!(s.worker_recoveries, 1);
        assert_eq!(s.jobs_failed, 1);

        // Same source, same daemon, no fault: pristine result.
        assert_eq!(
            report_json_via(addr, 2, "victim", HEALTHY_SRC),
            direct_report_json("victim", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

#[test]
fn deadline_trip_mid_job_returns_partial_and_spares_neighbors() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        // Healthy neighbor in flight on the other worker while the
        // doomed job trips its 1 ms deadline.
        let neighbor = std::thread::spawn(move || report_json_via(addr, 7, "demo", HEALTHY_SRC));
        let doomed = Request::Analyze {
            id: 6,
            name: "slow".to_string(),
            source: SLOW_SRC.to_string(),
            options: JobOptions {
                deadline_ms: Some(1),
                ..JobOptions::default()
            },
        };
        match submit(&client(addr), &doomed) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.kind, ErrorKind::Deadline);
                let partial = e.partial.expect("deadline errors carry partial progress");
                assert!(partial.steps > 0, "the job ran before the trip");
            }
            other => panic!("deadlined job must fail typed, got {other:?}"),
        }
        let neighbor_json = neighbor.join().expect("neighbor thread");
        assert_eq!(neighbor_json, direct_report_json("demo", HEALTHY_SRC));

        let s = status_of(&server);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.jobs_done, 1);
        assert_eq!(s.worker_recoveries, 0, "a deadline is not a crash");
        server.shutdown();
    });
}

#[test]
fn client_disconnect_mid_response_only_loses_that_client() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        // Send a job and vanish before the response can be written.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut line = analyze_req(1, "demo", SLOW_SRC).to_json().to_string();
            line.push('\n');
            stream.write_all(line.as_bytes()).expect("write");
        } // dropped — the worker will finish and fail to respond

        // The job still completes (and counts); the daemon stays healthy.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = status_of(&server);
            if s.jobs_done >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "abandoned job never completed: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        assert_eq!(
            report_json_via(addr, 2, "demo", HEALTHY_SRC),
            direct_report_json("demo", HEALTHY_SRC)
        );
        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// Admission control + shutdown
// ---------------------------------------------------------------------------

#[test]
fn overload_is_shed_with_a_typed_response_and_retry_hint() {
    session(|| {
        let server = serve(ServeConfig {
            workers: 1,
            queue_cap: 0, // every job must go straight to a worker or be shed
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        match submit(&client(addr), &analyze_req(1, "demo", HEALTHY_SRC)) {
            Err(SubmitError::Shed { last, .. }) => {
                assert_eq!(last.kind, ErrorKind::Overloaded);
                let hint = last.retry_after_ms.expect("shed responses carry a hint");
                assert!(hint > 0, "retry hint must be usable");
            }
            other => panic!("zero-capacity queue must shed, got {other:?}"),
        }
        assert_eq!(status_of(&server).jobs_shed, 1);

        // `status` keeps answering under overload — it never queues.
        let s = status_of(&server);
        assert_eq!(s.queue_cap, 0);
        assert!(s.accepting);
        server.shutdown();
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    session(|| {
        let server = serve(ServeConfig {
            workers: 2,
            drain_deadline: Duration::from_secs(30),
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        let jobs: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || report_json_via(addr, 100 + i, "demo", HEALTHY_SRC))
            })
            .collect();
        for j in jobs {
            assert_eq!(
                j.join().expect("job thread"),
                direct_report_json("demo", HEALTHY_SRC)
            );
        }
        wait_idle(&server);
        let report = server.shutdown();
        assert!(report.drained);
        assert_eq!(report.completed, 3);
        assert_eq!(report.abandoned_queued, 0);
        assert_eq!(report.abandoned_in_flight, 0);
    });
}

#[test]
fn shutdown_with_a_spent_drain_deadline_abandons_queued_jobs_typed() {
    session(|| {
        let server = serve(ServeConfig {
            workers: 1,
            queue_cap: 16,
            drain_deadline: Duration::ZERO,
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();

        // One slow job occupies the only worker; more pile up queued.
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    submit(&client(addr), &analyze_req(200 + i, "slow", SLOW_SRC))
                })
            })
            .collect();
        // Wait until the backlog is real: one in flight, at least one queued.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = status_of(&server);
            if s.in_flight >= 1 && s.queue_depth >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "backlog never formed: {s:?}");
            std::thread::sleep(Duration::from_millis(5));
        }

        let report = server.shutdown();
        assert!(!report.drained);
        assert!(
            report.abandoned_queued >= 1,
            "queued jobs must be abandoned at the deadline: {report:?}"
        );

        // Every client got either a real report or the typed
        // shutting_down error — never a hang, never a raw disconnect.
        let mut typed_abandons = 0;
        for t in threads {
            match t.join().expect("client thread") {
                Ok(Response::Report { .. }) => {}
                Err(SubmitError::Shed { last, .. }) if last.kind == ErrorKind::ShuttingDown => {
                    typed_abandons += 1;
                }
                other => panic!("unexpected client outcome: {other:?}"),
            }
        }
        assert_eq!(typed_abandons as u64, report.abandoned_queued);
    });
}

#[test]
fn connections_open_when_the_drain_begins_each_get_a_typed_answer() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        // Connect first, speak later: when the drain begins, some of these
        // already have a connection thread and the rest still sit in the
        // accept backlog, ahead of the acceptor's wake-up poke. Closing the
        // listener over them would answer a reset.
        const N: u64 = 64;
        let mut streams: Vec<TcpStream> = (0..N)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let report = server.shutdown();
        assert!(report.drained, "nothing was queued: {report:?}");

        for (id, stream) in (300..).zip(&mut streams) {
            let mut line = analyze_req(id, "demo", HEALTHY_SRC).to_json().to_string();
            line.push('\n');
            stream
                .write_all(line.as_bytes())
                .unwrap_or_else(|e| panic!("connection {id} was reset: {e}"));
            let mut reply = String::new();
            BufReader::new(&*stream)
                .read_line(&mut reply)
                .unwrap_or_else(|e| panic!("connection {id} was reset: {e}"));
            assert!(!reply.is_empty(), "connection {id} was closed unanswered");
            let (got, kind, _) = error_kind_of(reply.trim_end());
            assert_eq!((got, kind), (id, ErrorKind::ShuttingDown));
        }
    });
}

#[test]
fn protocol_shutdown_request_acks_and_flags_the_owner() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();
        assert!(!server.shutdown_requested());

        match submit(&client(addr), &Request::Shutdown { id: 42 }) {
            Ok(Response::ShutdownAck { id }) => assert_eq!(id, 42),
            other => panic!("expected a shutdown ack, got {other:?}"),
        }
        assert!(server.shutdown_requested());

        // New work is refused, typed.
        match submit(&client(addr), &analyze_req(1, "demo", HEALTHY_SRC)) {
            Err(SubmitError::Shed { last, .. }) => {
                assert_eq!(last.kind, ErrorKind::ShuttingDown)
            }
            // The listener may already be gone — equally acceptable.
            Err(SubmitError::Transport { .. }) => {}
            other => panic!("draining daemon must refuse work, got {other:?}"),
        }
        let report = server.shutdown();
        assert!(report.drained);
    });
}

// ---------------------------------------------------------------------------
// The acceptance scenario: one serving session, three faults, byte-equal
// neighbors, daemon keeps accepting
// ---------------------------------------------------------------------------

#[test]
fn fault_matrix_in_one_session_leaves_healthy_jobs_byte_identical() {
    session(|| {
        let server = serve(ServeConfig {
            workers: 2,
            max_request_bytes: 64 * 1024,
            ..test_config()
        })
        .expect("bind");
        let addr = server.local_addr();
        let direct_demo = direct_report_json("demo", HEALTHY_SRC);
        let direct_other = direct_report_json("other", OTHER_SRC);

        // Fault 1 — worker killed mid-job (run alone so the armed point
        // deterministically lands on the victim).
        fault::arm("serve:mid-job", 0);
        match submit(&client(addr), &analyze_req(1, "victim", SLOW_SRC)) {
            Ok(Response::Error(e)) => assert_eq!(e.kind, ErrorKind::Panic),
            other => panic!("victim must die typed, got {other:?}"),
        }

        // Healthy concurrent traffic starts now and keeps flowing while
        // the remaining faults hit.
        let healthy: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    if i % 2 == 0 {
                        (i, report_json_via(addr, 300 + i, "demo", HEALTHY_SRC))
                    } else {
                        (i, report_json_via(addr, 300 + i, "other", OTHER_SRC))
                    }
                })
            })
            .collect();

        // Fault 2 — client disconnects mid-response.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut line = analyze_req(2, "demo", SLOW_SRC).to_json().to_string();
            line.push('\n');
            stream.write_all(line.as_bytes()).expect("write");
        }

        // Fault 3 — oversized request.
        let big = vec![b'z'; 256 * 1024];
        let (_, kind, _) = error_kind_of(&raw_roundtrip(addr, &big).unwrap());
        assert_eq!(kind, ErrorKind::TooLarge);

        // Every healthy job: byte-identical to its direct run.
        for h in healthy {
            let (i, json) = h.join().expect("healthy thread");
            let want = if i % 2 == 0 {
                &direct_demo
            } else {
                &direct_other
            };
            assert_eq!(&json, want, "healthy job {i} diverged");
        }

        // And the daemon keeps accepting afterward.
        wait_idle(&server);
        assert_eq!(report_json_via(addr, 400, "demo", HEALTHY_SRC), direct_demo);
        let s = status_of(&server);
        assert_eq!(s.worker_recoveries, 1);
        assert!(s.accepting);
        assert!(s.jobs_done >= 6, "healthy + follow-up + abandoned: {s:?}");

        let report = server.shutdown();
        assert!(report.drained);
    });
}

// ---------------------------------------------------------------------------
// Connection-layer fault points
// ---------------------------------------------------------------------------

#[test]
fn accept_decode_and_respond_faults_cost_one_connection_each() {
    session(|| {
        let server = serve(test_config()).expect("bind");
        let addr = server.local_addr();

        for (point, expect_before_close) in [
            ("serve:accept", false),
            ("serve:decode", false),
            ("serve:respond", false),
        ] {
            fault::arm(point, 0);
            // The faulted connection just dies; no protocol response owed.
            let reply = raw_roundtrip(addr, br#"{"type":"status","id":1}"#);
            assert_eq!(
                reply.is_some(),
                expect_before_close,
                "faulted {point} connection must close without a reply"
            );
            fault::disarm_all();
            // The next connection is served normally.
            let reply = raw_roundtrip(addr, br#"{"type":"status","id":2}"#).unwrap();
            let v = jsonio::Value::parse(&reply).unwrap();
            assert!(matches!(
                Response::from_json(&v).unwrap(),
                Response::Status { id: 2, .. }
            ));
        }
        // The recovery counter is bumped after the handler's unwind, a
        // hair later than the client-visible close: poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = status_of(&server);
            if s.conn_recoveries == 3 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "expected 3 connection recoveries: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    });
}
