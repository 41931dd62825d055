//! What `Report::to_json_string` writes in one pass, straight from the live
//! report, must be byte-identical to the reference rendering through the
//! owned document and the whole tree
//! (`to_doc().to_json().to_string_pretty()`), and must be the document:
//! parsed back it gives that tree and re-renders to the same bytes.
//! The daemon's reply — the same rows written compactly and spliced into
//! the envelope as text — must be, on the wire, the `Response::Report`
//! built around the reference tree. On every catalogue program, with and
//! without the static block, and on runs that fill the optional `resource`
//! and `parallel` blocks. And the human-readable report a parsed document
//! prints is the one its live report prints.

use discopop::protocol::{JobOptions, Request, Response};
use discopop::report::ReportDoc;
use discopop::serve::{serve, ServeConfig};
use discopop::{Analysis, EngineKind, Report};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// The three renderings agree; returns the owned document.
fn assert_written_equals_reference(
    what: &str,
    program: &interp::Program,
    report: &Report,
) -> ReportDoc {
    let written = report.to_json_string(program);
    let doc = report.to_doc(program);
    let tree = doc.to_json();
    assert!(
        written == tree.to_string_pretty(),
        "{what}: written bytes differ from the tree's"
    );
    assert!(
        written == doc.to_json_string(),
        "{what}: the owned document writes other bytes than the live report"
    );
    // And the written text is the document: it parses back to the tree.
    let parsed = ReportDoc::from_json_str(&written).unwrap();
    assert_eq!(parsed.to_json(), tree, "{what}");
    assert!(
        parsed.to_json().to_string_pretty() == written,
        "{what}: the parsed document re-renders other bytes"
    );
    doc
}

/// One `analyze` request over a fresh connection; the reply line as it
/// came off the wire.
fn served_line(addr: std::net::SocketAddr, request: &Request) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut line = request.to_json().to_string();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "reply is one whole line");
    reply.pop();
    reply
}

/// `"elapsed_ms":<digits>` replaced by `"elapsed_ms":0` — the one field of
/// a reply that a second run does not reproduce.
fn without_elapsed(wire: &str) -> String {
    let key = "\"elapsed_ms\":";
    let at = wire.find(key).expect("a report reply") + key.len();
    let digits = wire[at..].bytes().take_while(u8::is_ascii_digit).count();
    assert!(digits > 0);
    format!("{}0{}", &wire[..at], &wire[at + digits..])
}

#[test]
fn every_catalogue_program_streams_the_bytes_its_tree_renders() {
    let server = serve(ServeConfig::default()).unwrap();
    let all = workloads::all();
    assert_eq!(all.len(), 55);
    assert!(all.iter().any(|w| w.name == "actors_10k"));
    for w in all {
        let program = w.program().unwrap();
        for statics in [false, true] {
            let what = format!("{} (static: {statics})", w.name);
            let report = Analysis::new()
                .with_static(statics)
                .engine(EngineKind::auto_for(&program))
                .analyze_program(&program)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(report.statics.is_some(), statics);
            let doc = assert_written_equals_reference(&what, &program, &report);
            // The human-readable report has one renderer: the live report
            // and the document its JSON parses into print the same text.
            let saved = ReportDoc::from_json_str(&report.to_json_string(&program)).unwrap();
            assert!(
                discopop::render_report(&program, &report) == saved.render(),
                "{what}: the saved report prints other text than the live one"
            );
            drop(report);

            // The daemon runs the same job; the second request for a
            // program finds it compiled.
            let expected = Response::Report {
                id: 7,
                cached: statics,
                elapsed_ms: 0,
                report: doc.to_json(),
            };
            let line = served_line(
                server.local_addr(),
                &Request::Analyze {
                    id: 7,
                    name: w.name.to_string(),
                    source: w.source.to_string(),
                    options: JobOptions {
                        statics,
                        ..JobOptions::default()
                    },
                },
            );
            assert!(
                without_elapsed(&line) == expected.to_wire(),
                "{what}: served wire bytes differ from the tree form's"
            );
        }
    }
    assert!(server.shutdown().drained);
}

#[test]
fn governed_and_parallel_runs_stream_their_optional_blocks() {
    let program = workloads::by_name("matmul").unwrap().program().unwrap();

    let governed = Analysis::new()
        .max_memory(16 << 10)
        .analyze_program(&program)
        .unwrap();
    let resource = governed.profile.resource.as_ref().expect("governed run");
    assert!(!resource.degradation_steps.is_empty(), "the ladder fired");
    assert_written_equals_reference("matmul under 16K", &program, &governed);

    let parallel = Analysis::new()
        .engine(EngineKind::parallel(2))
        .analyze_program(&program)
        .unwrap();
    assert!(parallel.profile.parallel.is_some());
    let doc = assert_written_equals_reference("matmul on parallel:2", &program, &parallel);

    // `profile.parallel` holds exactly the transport statistics the engine
    // keeps; the three reserved zero keys are gone.
    let tree = doc.to_json();
    let block = tree
        .get("profile")
        .and_then(|p| p.get("parallel"))
        .expect("parallel block")
        .to_string();
    // Every value in the block is a number or an array of numbers, so the
    // compact rendering's quoted strings are its keys, in order.
    let keys: Vec<&str> = block.split('"').skip(1).step_by(2).collect();
    assert_eq!(
        keys,
        [
            "chunks",
            "queue_stalls",
            "spawned_workers",
            "worker_recoveries",
            "worker_processed"
        ]
    );
}
