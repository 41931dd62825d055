//! JSON round-trip tests for the versioned report schema: a full report —
//! dependences, PET, loop classes, tasks, ranking, patterns — must survive
//! serialize → parse → serialize bit-for-bit.

use discopop::report::{ReportDoc, SCHEMA_VERSION};
use discopop::{Analysis, EngineKind};

/// A program that exercises every report section: a DOALL loop, a
/// reduction, a recurrence (blocking deps), printing, and a call.
const SRC: &str = r#"
global int a[64];
global int b[64];
global int total;
fn scale(int k) -> int { return k * 3; }
fn main() {
    for (int i = 0; i < 64; i = i + 1) {
        a[i] = scale(i);
    }
    for (int j = 1; j < 64; j = j + 1) {
        b[j] = b[j - 1] + a[j];
    }
    for (int k = 0; k < 64; k = k + 1) {
        total = total + a[k];
    }
    print(total);
}
"#;

fn full_report(engine: EngineKind) -> (discopop::Compiled, discopop::Report) {
    let mut analysis = Analysis::new().engine(engine);
    let compiled = analysis.compile(SRC, "roundtrip").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    (compiled, report)
}

#[test]
fn full_report_roundtrips_through_json() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());
    assert_eq!(doc.schema_version, SCHEMA_VERSION);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );
}

#[test]
fn report_covers_every_section() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());

    assert_eq!(doc.program, "roundtrip");
    assert_eq!(doc.engine, "serial-perfect");
    assert!(doc.profile.steps > 0);
    assert!(doc.profile.accesses > 0);
    assert!(!doc.profile.dependences.is_empty());
    assert!(doc.profile.pet.len() >= 3, "root + main + loops");
    assert_eq!(doc.profile.pet[0].kind, "root");
    assert!(doc.profile.parallel.is_none());
    assert_eq!(doc.profile.printed.len(), 1);

    // Names must be resolved, not ids.
    assert!(doc
        .profile
        .dependences
        .iter()
        .any(|d| d.var == "total" && d.ty == profiler::DepType::Raw));
    assert!(doc
        .profile
        .pet
        .iter()
        .any(|n| n.kind == "function" && n.name == "main"));

    assert_eq!(doc.discovery.loops.len(), 3);
    let classes = doc.loop_classes();
    assert!(classes.contains(&"Doall"), "{classes:?}");
    assert!(classes.contains(&"Reduction"), "{classes:?}");
    // The recurrence loop carries blocking dependences into the doc.
    assert!(doc
        .discovery
        .loops
        .iter()
        .any(|l| !l.blocking.is_empty() && l.blocking.iter().all(|d| d.count > 0)));
    assert!(!doc.discovery.ranked.is_empty());
    assert!(!doc.discovery.patterns.is_empty());
}

#[test]
fn parallel_engine_report_carries_parallel_stats() {
    let (compiled, report) = full_report(EngineKind::parallel(4));
    let doc = report.to_doc(compiled.program());
    assert_eq!(doc.engine, "parallel:4x256");
    let par = doc.profile.parallel.as_ref().expect("parallel stats");
    assert!(par.worker_processed.iter().sum::<u64>() > 0);
    assert_eq!(par.worker_processed.len(), 4);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).unwrap();
    assert_eq!(parsed, doc);
}

#[test]
fn schema_version_is_enforced() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let json = report.to_json_string(compiled.program());
    let bumped = json.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 999",
        1,
    );
    assert_ne!(json, bumped, "version stamp must be present");
    let err = ReportDoc::from_json_str(&bumped).unwrap_err();
    assert!(err.0.contains("schema version"), "{err}");
}

/// Version 8 is the only schema read: a v8 document round-trips, and
/// stamped with another version — v7, the last unfolded one, included — it
/// is rejected with an error naming that version (versions 1, 3, 4 and 5
/// have tests of their own below). `parallel` and `resource` are required
/// keys, even where they may be `null`.
#[test]
fn only_schema_v8_documents_parse() {
    assert_eq!(SCHEMA_VERSION, 8);
    let (compiled, report) = full_report(EngineKind::parallel(2));
    let json = report.to_json_string(compiled.program());
    let doc = ReportDoc::from_json_str(&json).expect("v8 documents parse");
    assert_eq!(doc.to_json().to_string_pretty(), json, "and round-trip");

    for version in [2, 6, 7, 9] {
        assert_rejected_as_version(&doc.to_json(), version);
    }
    for key in ["parallel", "resource"] {
        let mut tree = doc.to_json();
        profile_fields(&mut tree).retain(|(k, _)| k != key);
        assert_rejected_for_missing(&tree, key);
    }
}

/// The top-level fields of a report document.
fn fields(tree: &mut jsonio::Value) -> &mut Vec<(String, jsonio::Value)> {
    let jsonio::Value::Object(fields) = tree else {
        panic!("document must be an object");
    };
    fields
}

/// The fields of a report document's `profile` section.
fn profile_fields(tree: &mut jsonio::Value) -> &mut Vec<(String, jsonio::Value)> {
    let profile = fields(tree)
        .iter_mut()
        .find(|(k, _)| k == "profile")
        .expect("profile section present");
    let jsonio::Value::Object(pfields) = &mut profile.1 else {
        panic!("profile must be an object");
    };
    pfields
}

/// Restamps `tree` with `version` and checks the reader rejects it by name.
fn assert_rejected_as_version(tree: &jsonio::Value, version: u32) {
    let mut tree = tree.clone();
    fields(&mut tree)
        .iter_mut()
        .find(|(k, _)| k == "schema_version")
        .expect("version stamp present")
        .1 = jsonio::Value::from(version);
    let err = ReportDoc::from_json(&tree).unwrap_err();
    assert!(
        err.0.contains(&format!("schema version {version} ")),
        "v{version}: {err}"
    );
}

/// Checks the reader rejects the v8 document `tree` for lacking `key`.
fn assert_rejected_for_missing(tree: &jsonio::Value, key: &str) {
    let err = ReportDoc::from_json(tree).unwrap_err();
    assert!(err.0.contains(&format!("`{key}`")), "{key}: {err}");
}

/// A version-1 document — no adaptive-transport fields in
/// `profile.parallel` — is rejected by its version; a v8 parallel block
/// no longer carries the reserved `combined`, `merges` and `rebalances`.
#[test]
fn schema_v1_documents_are_rejected() {
    let (compiled, report) = full_report(EngineKind::parallel(2));
    let json = report.to_json_string(compiled.program());
    for reserved in ["combined", "merges", "rebalances"] {
        assert!(!json.contains(&format!("\"{reserved}\":")), "{reserved}");
    }
    let mut tree = ReportDoc::from_json_str(&json).unwrap().to_json();
    let parallel = profile_fields(&mut tree)
        .iter_mut()
        .find(|(k, _)| k == "parallel")
        .expect("parallel stats present");
    let jsonio::Value::Object(par_fields) = &mut parallel.1 else {
        panic!("parallel stats must be an object");
    };
    par_fields.retain(|(k, _)| k != "queue_stalls" && k != "spawned_workers");
    assert_rejected_as_version(&tree, 1);
}

/// A version-3 document — no top-level `static` block — is rejected by
/// its version; stamped v8, it is rejected for the missing key.
#[test]
fn schema_v3_documents_are_rejected() {
    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(SRC, "v3compat").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    assert!(report.statics.is_some(), "static pre-pass ran");

    let mut tree = report.to_doc(compiled.program()).to_json();
    fields(&mut tree).retain(|(k, _)| k != "static");
    assert_rejected_as_version(&tree, 3);
    assert_rejected_for_missing(&tree, "static");
}

/// A version-4 document — no `profile.summary` block — is rejected by its
/// version; stamped v8, it is rejected for the missing key.
#[test]
fn schema_v4_documents_are_rejected() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let mut tree = report.to_doc(compiled.program()).to_json();
    profile_fields(&mut tree).retain(|(k, _)| k != "summary");
    assert_rejected_as_version(&tree, 4);
    assert_rejected_for_missing(&tree, "summary");
}

/// A version-5 document — no `profile.actors` block — is rejected by its
/// version; stamped v8, it is rejected for the missing key.
#[test]
fn schema_v5_documents_are_rejected() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let mut tree = report.to_doc(compiled.program()).to_json();
    profile_fields(&mut tree).retain(|(k, _)| k != "actors");
    assert_rejected_as_version(&tree, 5);
    assert_rejected_for_missing(&tree, "actors");
}

/// A message-passing program that exercises the scheduler and mailboxes.
const ACTOR_SRC: &str = r#"
fn main() -> int {
    int c = spawn_actor(stage, 0);
    for (int i = 0; i < 8; i = i + 1) { send(c, i); }
    join(c);
    return receive();
}
fn stage(int x) {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) { s = s + receive(); }
    send(0, s);
}
"#;

/// The `actors` block is emitted for message-passing programs,
/// carries the channel matrix and its digest, and round-trips byte-for-byte.
#[test]
fn actors_block_roundtrips_for_message_passing_programs() {
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(ACTOR_SRC, "actors-rt").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());

    let a = doc.profile.actors.as_ref().expect("actors block present");
    assert_eq!(a.spawned, 2);
    assert_eq!(a.peak_live, 2);
    assert_eq!(a.sent, 9, "8 pipeline messages + 1 reply");
    assert_eq!(a.received, 9);
    assert_eq!(a.channels, vec![(0, 1, 8), (1, 0, 1)]);
    assert_eq!(
        a.channel_digest,
        discopop::report::ActorsDoc::digest_channels(&a.channels)
    );

    let json = doc.to_json().to_string_pretty();
    assert!(json.contains("\"actors\""), "{json}");
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );

    // Single-actor programs never emit the block.
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());
    assert!(doc.profile.actors.is_none());
}

/// The `summary` block reports plan replay when `--static` arms the affine
/// skip tier, and zeroes (but still round-trips) without it.
#[test]
fn summary_block_reflects_the_affine_skip_tier() {
    let mut on = Analysis::new().with_static(true);
    let compiled = on.compile(SRC, "summary").unwrap();
    let report = on.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());
    let s = &doc.profile.summary;
    // The recurrence and reduction loops are fully affine and counted; the
    // call-bearing first loop is not eligible.
    assert!(s.loops_skipped > 0, "{s:?}");
    assert!(s.synthesized_accesses > 0, "{s:?}");
    assert!(s.dispatches > 0);

    let report_off = Analysis::new().analyze_compiled(&compiled).unwrap();
    let doc_off = report_off.to_doc(compiled.program());
    let s_off = &doc_off.profile.summary;
    assert_eq!(s_off.loops_skipped, 0);
    assert_eq!(s_off.synthesized_accesses, 0);
    assert!(
        s.dispatches < s_off.dispatches,
        "plan replay must eliminate dispatches: {} vs {}",
        s.dispatches,
        s_off.dispatches
    );
    // Identical dependences either way.
    assert_eq!(doc.profile.dependences, doc_off.profile.dependences);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "summary round-trips");
}

/// The `static` block survives a full JSON round trip and
/// reports sensible numbers for the roundtrip program.
#[test]
fn static_block_roundtrips_and_reports_coverage() {
    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(SRC, "static-rt").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());

    let st = doc.statics.as_ref().expect("static block present");
    assert!(!st.spawns_threads);
    assert_eq!(st.loops.len(), 3, "one entry per source loop");
    assert!(st.mem_ops > 0);
    assert!(
        st.affine_ops * 2 >= st.mem_ops,
        "at least half the in-loop ops classify affine: {}/{}",
        st.affine_ops,
        st.mem_ops
    );
    assert!(
        st.loops.iter().any(|l| l.doall_candidate),
        "the a[i] = scale(i) loop is a static doall candidate"
    );
    assert!(
        st.claims.iter().any(|c| c.var == "a"),
        "independent a[i] accesses are claimed: {:?}",
        st.claims
    );

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in ["", "{}", "[1,2,3]", "{\"schema_version\": 1}"] {
        assert!(ReportDoc::from_json_str(bad).is_err(), "`{bad}`");
    }
}

/// The actor program's report as a tree, with the first dependence row's
/// `threads` and `count` replaced.
fn with_threads(threads: &str, count: u64) -> jsonio::Value {
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(ACTOR_SRC, "hostile").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let mut tree = jsonio::Value::parse(&report.to_json_string(compiled.program())).unwrap();
    let deps = profile_fields(&mut tree)
        .iter_mut()
        .find(|(k, _)| k == "dependences")
        .expect("dependences present");
    let jsonio::Value::Array(rows) = &mut deps.1 else {
        panic!("dependences must be an array");
    };
    let jsonio::Value::Object(row) = &mut rows[0] else {
        panic!("a dependence row must be an object");
    };
    for (k, v) in row.iter_mut() {
        match k.as_str() {
            "threads" => *v = jsonio::Value::parse(threads).unwrap(),
            "count" => *v = jsonio::Value::from(count),
            _ => {}
        }
    }
    tree
}

/// Checks the reader rejects `tree` with an error that says `what`.
fn assert_rejected(tree: &jsonio::Value, what: &str) {
    let err = ReportDoc::from_json(tree).unwrap_err();
    assert!(err.0.contains(what), "expected `{what}`: {err}");
}

/// The doctored row itself is fine: a well-formed run reads back as its
/// pairs.
#[test]
fn a_doctored_row_with_well_formed_runs_unfolds_into_its_pairs() {
    let tree = with_threads("[[3, 9, 2, -4, 3, 5], [0, 0, 0, 0, 1, 1]]", 16);
    let doc = ReportDoc::from_json(&tree).expect("well-formed runs read");
    let pairs: Vec<(u32, u32, u64)> = doc.profile.dependences[..4]
        .iter()
        .map(|d| (d.sink_thread, d.source_thread, d.count))
        .collect();
    assert_eq!(pairs, [(3, 9, 5), (5, 5, 5), (7, 1, 5), (0, 0, 1)]);
}

#[test]
fn a_run_of_zero_pairs_is_a_schema_error() {
    assert_rejected(&with_threads("[[1, 0, 1, 0, 0, 4]]", 0), "zero pairs");
}

#[test]
fn a_run_past_the_u32_thread_ids_is_a_schema_error() {
    // The last sink id is 4294967295 + 1.
    let tree = with_threads("[[4294967294, 0, 1, 0, 3, 1]]", 3);
    assert_rejected(&tree, "leaves the u32 thread ids");
    // The last source id is 4 - 2·3 < 0.
    assert_rejected(&with_threads("[[0, 4, 1, -3, 3, 1]]", 3), "leaves the u32");
    // A first id past u32 is out of range as it stands.
    assert_rejected(
        &with_threads("[[4294967296, 0, 0, 0, 1, 1]]", 1),
        "six integers",
    );
}

#[test]
fn runs_that_do_not_add_up_to_the_count_are_a_schema_error() {
    let tree = with_threads("[[1, 0, 1, 0, 4, 3], [9, 9, 0, 0, 1, 2]]", 13);
    assert_rejected(&tree, "not the sum of its thread runs, 14");
    // A product past u64 cannot add up either.
    let tree = with_threads("[[1, 0, 0, 0, 2, 9223372036854775807]]", 1);
    assert_rejected(&tree, "not the sum");
}

#[test]
fn the_lone_pair_0_0_written_as_a_run_is_not_canonical() {
    assert_rejected(&with_threads("[[0, 0, 0, 0, 1, 7]]", 7), "must be null");
    assert_rejected(&with_threads("[[0, 0, 5, 1, 1, 7]]", 7), "must be null");
    assert_rejected(&with_threads("[]", 0), "at least one run");
    // Beside another run, (0, 0) is a run like any other.
    assert!(
        ReportDoc::from_json(&with_threads("[[0, 0, 0, 0, 1, 7], [1, 0, 0, 0, 1, 1]]", 8)).is_ok()
    );
}

#[test]
fn a_document_that_unfolds_past_the_row_ceiling_is_a_schema_error() {
    // 2^24 + 1 pairs in one run, and u32::MAX pairs: both rejected before
    // a row is built.
    let tree = with_threads("[[0, 1, 0, 0, 16777217, 1]]", 16_777_217);
    assert_rejected(&tree, "past the ceiling");
    let tree = with_threads("[[0, 1, 0, 0, 4294967295, 1]]", 4_294_967_295);
    assert_rejected(&tree, "past the ceiling");
    // Two runs under the ceiling each, over it together.
    let tree = with_threads(
        "[[0, 1, 0, 0, 9000000, 1], [1, 1, 0, 0, 9000000, 1]]",
        18_000_000,
    );
    assert_rejected(&tree, "past the ceiling");
}

/// The channel runs are read with the same checks as the thread runs.
#[test]
fn hostile_channel_runs_are_schema_errors() {
    let (compiled, report) = {
        let mut analysis = Analysis::new();
        let compiled = analysis.compile(ACTOR_SRC, "channels").unwrap();
        let report = analysis.analyze_compiled(&compiled).unwrap();
        (compiled, report)
    };
    let json = report.to_json_string(compiled.program());
    assert!(json.contains("\"channels\": ["), "{json}");
    for (runs, what) in [
        ("[[0, 1, 0, 0, 0, 8]]", "zero pairs"),
        ("[[0, 1, 0, -1, 3, 8]]", "leaves the u32"),
        ("[[0, 1, 0, 0, 4294967295, 8]]", "past the ceiling"),
        (
            "[{\"from\": 0, \"to\": 1, \"messages\": 8}]",
            "six integers",
        ),
    ] {
        let mut tree = jsonio::Value::parse(&json).unwrap();
        let actors = profile_fields(&mut tree)
            .iter_mut()
            .find(|(k, _)| k == "actors")
            .expect("actors block present");
        let jsonio::Value::Object(fields) = &mut actors.1 else {
            panic!("actors must be an object");
        };
        for (k, v) in fields.iter_mut() {
            if k == "channels" {
                *v = jsonio::Value::parse(runs).unwrap();
            }
        }
        assert_rejected(&tree, what);
    }
}
