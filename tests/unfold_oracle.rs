//! The lossless oracle of schema v8: a written report, read back through
//! `ReportDoc::from_json` (which unfolds every run of thread pairs), holds
//! exactly the profiler's dependences — `DepSet::iter()`, thread pairs and
//! counts included — in `profile.dependences`, each loop's blocking
//! dependences with their counts in `blocking`, and
//! `ActorSummary::channels` in `actors.channels`. Over the catalogue
//! (`actors_10k` among it), the 11 spawning programs under racy delivery,
//! and `matmul` on `parallel:4`.

use discopop::report::{DepDoc, ReportDoc};
use discopop::{Analysis, Compiled, EngineKind, Report};
use profiler::{Dep, DepType, SrcLoc};

/// A dependence as the document can say it: names, not symbol ids.
type Row = (
    SrcLoc,
    DepType,
    SrcLoc,
    String,
    u32,
    u32,
    Option<(u32, u32)>,
    bool,
    u64,
);

fn of_dep(program: &interp::Program, d: &Dep, count: u64) -> Row {
    let var = if d.var == u32::MAX {
        "*".to_string()
    } else {
        program.symbol(d.var).to_string()
    };
    (
        d.sink,
        d.ty,
        d.source,
        var,
        d.sink_thread,
        d.source_thread,
        d.carried_by,
        d.race_hint,
        count,
    )
}

fn of_doc(d: &DepDoc<'_>) -> Row {
    (
        d.sink,
        d.ty,
        d.source,
        d.var.to_string(),
        d.sink_thread,
        d.source_thread,
        d.carried_by,
        d.race_hint,
        d.count,
    )
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The written report, unfolded, is the report's own rows. Returns the
/// number of dependences.
fn assert_lossless(what: &str, program: &interp::Program, report: &Report) -> usize {
    let doc = ReportDoc::from_json_str(&report.to_json_string(program))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let deps = &report.profile.deps;
    assert_eq!(
        sorted(doc.profile.dependences.iter().map(of_doc).collect()),
        sorted(deps.iter().map(|(d, c)| of_dep(program, &d, c)).collect()),
        "{what}: dependences"
    );
    assert_eq!(
        doc.discovery.loops.len(),
        report.discovery.loops.len(),
        "{what}"
    );
    for (got, want) in doc.discovery.loops.iter().zip(&report.discovery.loops) {
        assert_eq!(
            sorted(got.blocking.iter().map(of_doc).collect()),
            sorted(
                want.blocking
                    .iter()
                    .map(|d| of_dep(program, d, deps.count(d)))
                    .collect()
            ),
            "{what}: blocking of the loop at line {}",
            got.start_line
        );
    }
    assert_eq!(
        doc.profile.actors.map(|a| a.channels),
        report.profile.actors.as_ref().map(|a| a.channels.clone()),
        "{what}: channels"
    );
    deps.len()
}

#[test]
fn every_catalogue_report_unfolds_to_its_dependences_and_channels() {
    let all = workloads::all();
    assert_eq!(all.len(), 55);
    for w in all {
        let program = w.program().unwrap();
        let report = Analysis::new()
            .engine(EngineKind::auto_for(&program))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let deps = assert_lossless(w.name, &program, &report);
        if w.name == "actors_10k" {
            assert_eq!(deps, 50_042);
        }
    }
}

#[test]
fn spawning_programs_under_racy_delivery_unfold_to_their_dependences() {
    let spawning: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.parallel_target)
        .collect();
    assert_eq!(spawning.len(), 11, "the parallel-target catalogue changed");
    for w in spawning {
        let compiled = Compiled::new(w.program().unwrap());
        let mut analysis = Analysis::new().engine(EngineKind::auto_for(compiled.program()));
        let profiled = analysis.profile_threads(&compiled).unwrap();
        let report = analysis.discover(&compiled, profiled);
        assert!(
            report
                .profile
                .deps
                .iter()
                .any(|(d, _)| d.sink_thread != 0 || d.source_thread != 0),
            "{}: no dependence off thread 0",
            w.name
        );
        assert_lossless(&format!("{} (racy)", w.name), compiled.program(), &report);
    }
}

#[test]
fn matmul_on_parallel_4_unfolds_to_its_dependences() {
    let program = workloads::by_name("matmul").unwrap().program().unwrap();
    let report = Analysis::new()
        .engine(EngineKind::parallel(4))
        .analyze_program(&program)
        .unwrap();
    assert_eq!(report.engine, "parallel:4x256");
    assert_lossless("matmul on parallel:4", &program, &report);
}
