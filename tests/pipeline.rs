//! End-to-end integration tests spanning every crate: compile → interpret →
//! profile (serial and parallel engines) → CUs → discovery → report, driven
//! through the staged `discopop::Analysis` API.

use discopop::{render_report, Analysis, Compiled, EngineKind};

#[test]
fn full_pipeline_on_mixed_program() {
    let src = r#"
global float a[128];
global float b[128];
global float acc;
fn main() {
    for (int i = 0; i < 128; i = i + 1) {
        a[i] = i * 0.5;
    }
    for (int j = 1; j < 128; j = j + 1) {
        b[j] = b[j - 1] + a[j];
    }
    acc = 0.0;
    for (int k = 0; k < 128; k = k + 1) {
        acc += a[k] * b[k];
    }
    print(acc);
}
"#;
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(src, "mixed").unwrap();
    let profiled = analysis.profile(&compiled).unwrap();
    // The staged API exposes the profile before discovery runs.
    assert!(!profiled.deps().is_empty());
    assert!(profiled.pet().nodes.len() >= 4, "root + main + loops");
    let report = analysis.discover(&compiled, profiled);
    assert_eq!(report.discovery.loops.len(), 3);

    let class_of = |line: u32| {
        report
            .discovery
            .loops
            .iter()
            .find(|l| l.info.start_line == line)
            .map(|l| l.class)
            .unwrap()
    };
    assert_eq!(class_of(6), discovery::LoopClass::Doall, "init loop");
    assert!(
        matches!(
            class_of(9),
            discovery::LoopClass::Doacross | discovery::LoopClass::Sequential
        ),
        "prefix recurrence must not be parallel"
    );
    assert_eq!(class_of(13), discovery::LoopClass::Reduction, "dot product");

    // The recurrence must not appear among ranked suggestions; the DOALL
    // and reduction loops must.
    let ranked_lines: Vec<u32> = report
        .discovery
        .ranked
        .iter()
        .filter_map(|r| match &r.target {
            discovery::ranking::SuggestionTarget::Loop { start_line, .. } => Some(*start_line),
            _ => None,
        })
        .collect();
    assert!(ranked_lines.contains(&6));
    assert!(ranked_lines.contains(&13));
}

#[test]
fn serial_and_parallel_profilers_agree_end_to_end() {
    // With address-partitioned per-worker signatures
    // (EngineKind::parallel_worker_slots each) the parallel engine must be
    // exact against the perfect-shadow baseline on CG: partitioning spreads
    // the address set, so per-worker collisions vanish at sizes where one
    // serial table still collides.
    let w = workloads::by_name("CG").unwrap();
    let compiled = Compiled::new(w.program().unwrap());
    let mut analysis = Analysis::new();
    let perfect = analysis.profile(&compiled).unwrap();
    let parallel = analysis
        .engine_mut(EngineKind::parallel(8))
        .profile(&compiled)
        .unwrap();
    assert_eq!(perfect.deps().sorted(), parallel.deps().sorted());
    assert!(parallel.output.parallel.is_some());
}

#[test]
fn signature_accuracy_high_on_real_workload() {
    let w = workloads::by_name("kmeans").unwrap();
    let compiled = Compiled::new(w.program().unwrap());
    let mut analysis = Analysis::new();
    let perfect = analysis.profile(&compiled).unwrap();
    let sig = analysis
        .engine_mut(EngineKind::signature(1_000_000))
        .profile(&compiled)
        .unwrap();
    let (fpr, fnr) = sig.deps().accuracy_vs(perfect.deps());
    assert!(fpr < 0.01, "false positive rate {fpr}");
    assert!(fnr < 0.01, "false negative rate {fnr}");
}

#[test]
fn skip_optimization_is_output_transparent_across_suites() {
    for name in ["MG", "dotprod", "histogram"] {
        let w = workloads::by_name(name).unwrap();
        let compiled = Compiled::new(w.program().unwrap());
        let plain = Analysis::new().profile(&compiled).unwrap();
        let skip = Analysis::new().skip_loops(true).profile(&compiled).unwrap();
        assert_eq!(
            plain.deps().sorted(),
            skip.deps().sorted(),
            "{name}: skipping changed the output"
        );
        assert!(
            skip.output.skip_stats.total_skipped > 0,
            "{name}: nothing was skipped"
        );
    }
}

#[test]
fn report_renders_for_every_textbook_program() {
    for w in workloads::suite(workloads::Suite::Textbook) {
        let program = w.program().unwrap();
        let report = discopop::analyze_program(&program).unwrap();
        let text = render_report(&program, &report);
        assert!(
            text.contains("Ranked parallelization opportunities"),
            "{}",
            w.name
        );
    }
}

#[test]
fn json_report_of_workload_is_schema_valid() {
    let w = workloads::by_name("matmul").unwrap();
    let compiled = Compiled::new(w.program().unwrap());
    let mut analysis = Analysis::new();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let json = report.to_json_string(compiled.program());
    let doc = discopop::report::ReportDoc::from_json_str(&json).unwrap();
    assert_eq!(doc.schema_version, discopop::report::SCHEMA_VERSION);
    assert!(!doc.profile.dependences.is_empty());
    assert!(!doc.discovery.ranked.is_empty());
}

#[test]
fn multithreaded_pipeline_with_locks_is_exact_on_locked_var() {
    let src = r#"
global int shared;
fn w(int n) {
    for (int i = 0; i < n; i = i + 1) {
        lock(7);
        shared = shared + 1;
        unlock(7);
    }
}
fn main() {
    int a = spawn(w, 30);
    int b = spawn(w, 30);
    join(a);
    join(b);
    print(shared);
}
"#;
    let mut analysis = Analysis::new().engine(EngineKind::Parallel {
        workers: 4,
        chunk: 256,
    });
    let compiled = analysis.compile(src, "locked").unwrap();
    let profiled = analysis.profile_threads(&compiled).unwrap();
    let program = compiled.program();
    // Lock-ordered accesses must not be flagged as races.
    let shared_races: Vec<_> = profiled
        .deps()
        .race_hints()
        .into_iter()
        .filter(|d| program.symbol(d.var) == "shared")
        .collect();
    assert!(
        shared_races.is_empty(),
        "lock-protected accesses flagged: {shared_races:?}"
    );
    // But cross-thread flow on the counter must be visible.
    assert!(profiled
        .deps()
        .sorted()
        .iter()
        .any(|d| d.is_cross_thread() && program.symbol(d.var) == "shared"));
}

#[test]
fn a_message_handoff_is_not_a_race() {
    // A receive is ordered after its send by the scheduler, so delivering
    // each actor's accesses as real threads would must neither lose the
    // send→receive flow nor flag it: the threaded profile is the plain one.
    for name in ["actor_pipeline", "actor_fanout", "actor_ring"] {
        let compiled = Compiled::new(workloads::by_name(name).unwrap().program().unwrap());
        let mut analysis = Analysis::new();
        let plain = analysis.profile(&compiled).unwrap();
        let threaded = analysis.profile_threads(&compiled).unwrap();
        assert_eq!(
            threaded.deps().sorted(),
            plain.deps().sorted(),
            "{name}: racy delivery changed the dependences"
        );
        assert!(
            threaded.deps().race_hints().is_empty(),
            "{name}: a handoff was flagged as a race: {:?}",
            threaded.deps().race_hints()
        );
        assert_eq!(threaded.engine, plain.engine);
    }
}
