//! The streamed report (`Report::to_json_string`, which writes each array
//! element as it is built) must be byte-identical to the reference
//! rendering through the whole document tree
//! (`to_doc().to_json().to_string_pretty()`) — on every catalogue program,
//! with and without the static block, and on runs that fill the optional
//! `resource` and `parallel` blocks.

use discopop::{Analysis, EngineKind, Report};

fn assert_streamed_equals_tree(what: &str, program: &interp::Program, report: &Report) {
    let streamed = report.to_json_string(program);
    let tree = report.to_doc(program).to_json();
    assert!(
        streamed == tree.to_string_pretty(),
        "{what}: streamed bytes differ from the tree's"
    );
    // And the streamed text is the document: it parses back to the tree.
    let parsed = discopop::report::ReportDoc::from_json_str(&streamed).unwrap();
    assert_eq!(parsed.to_json(), tree, "{what}");
}

#[test]
fn every_catalogue_program_streams_the_bytes_its_tree_renders() {
    let all = workloads::all();
    assert_eq!(all.len(), 55);
    assert!(all.iter().any(|w| w.name == "actors_10k"));
    for w in all {
        let program = w.program().unwrap();
        for statics in [false, true] {
            let report = Analysis::new()
                .with_static(statics)
                .engine(EngineKind::auto_for(&program))
                .analyze_program(&program)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(report.statics.is_some(), statics);
            assert_streamed_equals_tree(
                &format!("{} (static: {statics})", w.name),
                &program,
                &report,
            );
        }
    }
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
    assert_streamed_equals_tree("matmul under 16K", &program, &governed);

    let parallel = Analysis::new()
        .engine(EngineKind::parallel(2))
        .analyze_program(&program)
        .unwrap();
    assert!(parallel.profile.parallel.is_some());
    assert_streamed_equals_tree("matmul on parallel:2", &program, &parallel);
}
