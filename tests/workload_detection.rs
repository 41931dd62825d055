//! Detection-quality integration test: run discovery over every annotated
//! workload loop and check the verdicts against ground truth — the
//! mechanism behind the Table 4.1 recall numbers.

use discopop::{Analysis, EngineKind};
use discovery::LoopClass;

/// Classify one annotated loop of a workload.
fn verdict(w: &workloads::Workload, marker: &str) -> (LoopClass, bool) {
    let program = w.program().unwrap();
    let out = profiler::profile_program(&program).unwrap();
    let d = discovery::discover(&program, &out.deps, &out.pet);
    let line = w.line_of(marker).unwrap();
    let l = d
        .loops
        .iter()
        .find(|l| l.info.start_line == line)
        .unwrap_or_else(|| panic!("{}: loop at line {line} not analysed", w.name));
    let parallel = matches!(l.class, LoopClass::Doall | LoopClass::Reduction);
    (l.class, parallel)
}

#[test]
fn nas_detection_recall_is_high() {
    // Table 4.1: DiscoPoP identifies 92.5% of the parallelizable NAS
    // loops. Our stand-ins must reach at least that recall, with no
    // false positives on annotated sequential loops.
    let mut total_parallel = 0;
    let mut found_parallel = 0;
    let mut false_positives = Vec::new();
    for w in workloads::suite(workloads::Suite::Nas) {
        let program = w.program().unwrap();
        let out = profiler::profile_program(&program).unwrap();
        let d = discovery::discover(&program, &out.deps, &out.pet);
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            let l = d
                .loops
                .iter()
                .find(|l| l.info.start_line == line)
                .unwrap_or_else(|| panic!("{}: loop `{}` missing", w.name, t.marker));
            let detected = matches!(l.class, LoopClass::Doall | LoopClass::Reduction);
            if t.parallel {
                total_parallel += 1;
                if detected {
                    found_parallel += 1;
                }
            } else if detected {
                false_positives.push(format!("{}:{} ({})", w.name, line, t.note));
            }
        }
    }
    let recall = found_parallel as f64 / total_parallel as f64;
    assert!(
        recall >= 0.925,
        "NAS recall {recall:.3} below the paper's 92.5% ({found_parallel}/{total_parallel})"
    );
    assert!(
        false_positives.is_empty(),
        "sequential loops wrongly declared parallel: {false_positives:?}"
    );
}

#[test]
fn reduction_flags_match_annotations() {
    for w in workloads::suite(workloads::Suite::Textbook) {
        for t in w.truths.iter().filter(|t| t.parallel && t.reduction) {
            let (class, _) = verdict(&w, t.marker);
            assert_eq!(
                class,
                LoopClass::Reduction,
                "{}: `{}` should be a reduction",
                w.name,
                t.note
            );
        }
    }
}

#[test]
fn sequential_truths_never_doall_anywhere() {
    for w in workloads::all() {
        if w.parallel_target {
            continue;
        }
        for t in w.truths.iter().filter(|t| !t.parallel) {
            let (class, parallel) = verdict(&w, t.marker);
            assert!(
                !parallel,
                "{}: `{}` ({}) wrongly {class:?}",
                w.name, t.marker, t.note
            );
        }
    }
}

#[test]
fn starbench_verdicts_match_annotations() {
    // The Starbench remainder (kmeans, md5, tinyjpeg, bodytrack, h264dec,
    // the rotate/ray family, …): every annotated loop verdict on the
    // sequential stand-ins matches its ground truth.
    let mut checked = 0;
    for w in workloads::suite(workloads::Suite::Starbench) {
        if w.parallel_target {
            continue;
        }
        for t in w.truths {
            let (class, parallel) = verdict(&w, t.marker);
            assert_eq!(
                parallel, t.parallel,
                "{}: `{}` ({}) got {class:?}",
                w.name, t.marker, t.note
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 25,
        "too few annotated Starbench loops: {checked}"
    );
}

#[test]
fn full_corpus_verdicts_match_annotations() {
    // Every sequential workload in every suite — NAS, Starbench, BOTS,
    // Apps, PARSEC, Textbook — gets the correct parallel/sequential
    // decision on every annotated loop. The detection suite covers the
    // whole corpus, not a per-suite sample.
    let mut checked = 0;
    for w in workloads::all() {
        if w.parallel_target {
            continue;
        }
        for t in w.truths {
            let (class, parallel) = verdict(&w, t.marker);
            assert_eq!(
                parallel, t.parallel,
                "{}: `{}` ({}) got {class:?}",
                w.name, t.marker, t.note
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 80,
        "corpus shrank: only {checked} annotated loops"
    );
}

#[test]
fn actor_workloads_report_communication_patterns() {
    // The actor family is judged on communication structure rather than
    // loop classes: the profiler's `actors` block and the mailbox
    // dependence view must reproduce each topology.
    let run = |name: &str| {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let actors = out.actors.clone().expect("actors block present");
        let mailbox = p.mailbox_symbol();
        let comm = apps::actor_comm(
            &actors.channels,
            actors.spawned as usize,
            out.deps
                .iter()
                .filter(|(d, _)| Some(d.var) == mailbox)
                .map(|(d, n)| (d.ty, d.is_cross_thread(), d.race_hint, n)),
        );
        (actors, comm)
    };

    let (actors, comm) = run("actor_pipeline");
    assert_eq!(actors.spawned, 3);
    assert_eq!(actors.channels, vec![(0, 2, 65), (1, 0, 1), (2, 1, 65)]);
    assert!(comm.handoff_deps > 0, "pipeline handoffs are RAW deps");

    let (actors, comm) = run("actor_ring");
    assert_eq!(actors.spawned, 9);
    assert_eq!(comm.matrix.pattern(), "nearest-neighbour");

    let (actors, comm) = run("actor_fanout");
    assert_eq!(actors.spawned, 9);
    // 8 workers × (16 items + sentinel) out, 8 partials back.
    assert_eq!(actors.sent, 8 * 17 + 8);
    assert!(comm.capacity_deps > 0 || comm.handoff_deps > 0);
}

#[test]
fn bots_hot_spots_all_get_correct_decisions() {
    // §4.4.3: "correct parallelization decisions on all the 20 hot spots
    // from the Barcelona OpenMP Task Suite". Here: every annotated BOTS
    // loop verdict matches its truth.
    let mut checked = 0;
    for w in workloads::suite(workloads::Suite::Bots) {
        for t in w.truths {
            let (class, parallel) = verdict(&w, t.marker);
            assert_eq!(
                parallel, t.parallel,
                "{}: `{}` ({}) got {class:?}",
                w.name, t.marker, t.note
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "too few annotated BOTS hot spots: {checked}");
}

/// Truths the detector is known to get wrong today, as `(program, marker)`.
/// A listed truth must really miss and an unlisted one must agree, so the
/// list can neither rot nor hide a new miss.
const KNOWN_MISSES: [(&str, &str); 4] = [
    // Recursion: the RAW on the frame-local `total` is carried by no loop.
    ("uts", "c < children"),
    // The mailbox cursor is interpreter state, not memory: a send loop
    // reads as `Doall`.
    ("actor_pipeline", "i < 64"),
    ("actors_10k", "k < 10000"),
    // The marker sits on a body line, not on a loop header.
    ("actor_fanout", "total + receive"),
];

#[test]
fn every_catalogue_truth_agrees_or_is_a_known_miss() {
    // The benchmark's `agrees` rule, under `suite_sweep`'s pipeline (the
    // auto-selected engine, no static pre-pass): a parallel truth needs
    // `Doall` without the reduction flag or `Reduction` with it, a
    // sequential truth neither, and a marker on no loop header disagrees.
    let mut checked = 0;
    let mut wrong = Vec::new();
    for w in workloads::all() {
        let program = w.program().unwrap();
        let report = Analysis::new()
            .engine(EngineKind::auto_for(&program))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            let class = report
                .discovery
                .loops
                .iter()
                .find(|l| l.info.start_line == line)
                .map(|l| l.class);
            let agrees = match class {
                None => false,
                Some(LoopClass::Doall) => t.parallel && !t.reduction,
                Some(LoopClass::Reduction) => t.parallel && t.reduction,
                Some(_) => !t.parallel,
            };
            if agrees == KNOWN_MISSES.contains(&(w.name, t.marker)) {
                wrong.push(format!("{}: `{}` got {class:?}", w.name, t.marker));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 122, "the catalogue's truths");
    assert!(
        wrong.is_empty(),
        "verdicts off the known-miss list (a listed truth that agrees, or an unlisted one that misses): {wrong:#?}"
    );
}
