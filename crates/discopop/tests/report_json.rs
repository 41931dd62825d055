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

/// Version 7 is the only schema read: a v7 document round-trips, and
/// stamped with another version it is rejected with an error naming that
/// version (versions 1, 3, 4 and 5 have tests of their own below).
/// `parallel` and `resource` are required keys, even where they may be
/// `null`.
#[test]
fn only_schema_v7_documents_parse() {
    assert_eq!(SCHEMA_VERSION, 7);
    let (compiled, report) = full_report(EngineKind::parallel(2));
    let json = report.to_json_string(compiled.program());
    let doc = ReportDoc::from_json_str(&json).expect("v7 documents parse");
    assert_eq!(doc.to_json().to_string_pretty(), json, "and round-trip");

    for version in [2, 6, 8] {
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

/// Checks the reader rejects the v7 document `tree` for lacking `key`.
fn assert_rejected_for_missing(tree: &jsonio::Value, key: &str) {
    let err = ReportDoc::from_json(tree).unwrap_err();
    assert!(err.0.contains(&format!("`{key}`")), "{key}: {err}");
}

/// A version-1 document — no adaptive-transport fields in
/// `profile.parallel` — is rejected by its version; a v7 parallel block
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
/// its version; stamped v7, it is rejected for the missing key.
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
/// version; stamped v7, it is rejected for the missing key.
#[test]
fn schema_v4_documents_are_rejected() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let mut tree = report.to_doc(compiled.program()).to_json();
    profile_fields(&mut tree).retain(|(k, _)| k != "summary");
    assert_rejected_as_version(&tree, 4);
    assert_rejected_for_missing(&tree, "summary");
}

/// A version-5 document — no `profile.actors` block — is rejected by its
/// version; stamped v7, it is rejected for the missing key.
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
