//! CLI smoke tests: drive the `discopop` binary end to end through
//! `std::process::Command` — analyze a source file with every engine,
//! check the emitted JSON, and re-render it with `discopop report`.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_discopop");

const SRC: &str = "global int a[48];
global int s;
fn main() {
    for (int i = 0; i < 48; i = i + 1) {
        a[i] = i * 2;
    }
    for (int j = 0; j < 48; j = j + 1) {
        s = s + a[j];
    }
}
";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("discopop-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn analyze_emits_versioned_json_with_all_sections() {
    let dir = scratch("analyze");
    let src = dir.join("demo.dp");
    let out = dir.join("report.json");
    std::fs::write(&src, SRC).unwrap();

    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("Ranked parallelization opportunities"));

    let json = std::fs::read_to_string(&out).unwrap();
    let doc = discopop::report::ReportDoc::from_json_str(&json).expect("valid schema");
    assert_eq!(doc.schema_version, discopop::report::SCHEMA_VERSION);
    assert_eq!(doc.program, "demo");
    assert_eq!(doc.engine, "serial-perfect");
    assert!(!doc.profile.dependences.is_empty(), "dependences present");
    assert!(
        doc.loop_classes().contains(&"Doall"),
        "loop classes present"
    );
    assert!(!doc.discovery.ranked.is_empty(), "ranking present");
}

#[test]
fn static_arms_the_skip_tier_and_changes_nothing_else() {
    let dir = scratch("skip");
    let src = dir.join("skip.dp");
    std::fs::write(&src, SRC).unwrap();

    let run = |extra: &[&str], out: &PathBuf| {
        let mut args = vec!["analyze", src.to_str().unwrap(), "--quiet", "--json"];
        args.push(out.to_str().unwrap());
        args.extend_from_slice(extra);
        let res = Command::new(BIN).args(&args).output().expect("binary runs");
        assert!(
            res.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&res.stderr)
        );
        discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(out).unwrap()).unwrap()
    };

    // Without --static the tier stays off even though plans exist.
    let plain = run(&[], &dir.join("plain.json"));
    let p = &plain.profile.summary;
    assert_eq!(p.loops_skipped, 0);

    // --static arms it; both SRC loops are fully affine and counted.
    let skipped = run(&["--static"], &dir.join("skip.json"));
    let s = &skipped.profile.summary;
    assert!(s.loops_skipped > 0, "{s:?}");
    assert!(s.synthesized_accesses > 0, "{s:?}");
    assert!(
        s.dispatches < p.dispatches,
        "plan replay must reduce dispatches: {} vs {}",
        s.dispatches,
        p.dispatches
    );

    // The profile is bit-identical either way.
    assert_eq!(skipped.profile.dependences, plain.profile.dependences);
    assert_eq!(skipped.profile.steps, plain.profile.steps);
    assert_eq!(skipped.profile.pet, plain.profile.pet);
}

/// `--static` is the one switch of the skip tier: the flag that used to
/// override it is unknown to `analyze` and `submit`, and neither `--help`
/// nor `engines` mentions it.
#[test]
fn no_skip_is_an_unknown_flag() {
    let flag = "--no-skip";
    for cmd in ["analyze", "submit"] {
        let res = Command::new(BIN)
            .args([cmd, "x.dp", flag])
            .output()
            .unwrap();
        assert_eq!(res.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{cmd}: {stderr}"
        );
    }
    for arg in ["--help", "engines"] {
        let out = Command::new(BIN).arg(arg).output().unwrap();
        assert!(out.status.success());
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains(flag),
            "{arg}"
        );
    }
}

#[test]
fn help_and_engines_mention_the_skip_tier() {
    let help = Command::new(BIN).arg("--help").output().unwrap();
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("affine skip tier"), "{text}");

    let engines = Command::new(BIN).arg("engines").output().unwrap();
    assert!(engines.status.success());
    let text = String::from_utf8_lossy(&engines.stdout);
    assert!(text.contains("affine skip tier"), "{text}");
}

/// Auto-selection has one rule, and the help lists only flags that exist.
#[test]
fn engines_names_the_footprint_rule_only() {
    let engines = Command::new(BIN).arg("engines").output().unwrap();
    assert!(engines.status.success());
    let text = String::from_utf8_lossy(&engines.stdout);
    assert!(
        text.contains("by one rule, the program's static address footprint"),
        "{text}"
    );
    assert!(!text.contains("scheduler-driven"), "{text}");

    let help = Command::new(BIN).arg("--help").output().unwrap();
    assert!(!String::from_utf8_lossy(&help.stdout).contains("--batch-cap"));
    let res = Command::new(BIN)
        .args(["analyze", "x.dp", "--batch-cap", "8"])
        .output()
        .unwrap();
    assert!(!res.status.success());
    assert!(String::from_utf8_lossy(&res.stderr).contains("unknown flag `--batch-cap`"));
}

/// §2.4 is the per-op memo, always on: no flag selects it. (The flag is
/// spelled in two halves so that a search for it finds no user.)
#[test]
fn the_loop_skipping_flag_is_gone() {
    let flag = ["--skip", "-loops"].concat();
    let help = Command::new(BIN).arg("--help").output().unwrap();
    assert!(help.status.success());
    assert!(!String::from_utf8_lossy(&help.stdout).contains(&flag));
    let res = Command::new(BIN)
        .args(["analyze", "x.dp", &flag])
        .output()
        .unwrap();
    assert!(!res.status.success());
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "{stderr}"
    );
}

#[test]
fn parallel_engine_selectable_from_cli() {
    let dir = scratch("parallel");
    let src = dir.join("par.dp");
    std::fs::write(&src, SRC).unwrap();

    let run = |engine: &str, out: &PathBuf| {
        let res = Command::new(BIN)
            .args([
                "analyze",
                src.to_str().unwrap(),
                "--engine",
                engine,
                "--quiet",
                "--json",
                out.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            res.status.success(),
            "{engine} stderr: {}",
            String::from_utf8_lossy(&res.stderr)
        );
        discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(out).unwrap()).unwrap()
    };

    let perfect = run("serial-perfect", &dir.join("perfect.json"));
    let parallel = run("parallel:4x64", &dir.join("parallel.json"));
    assert_eq!(parallel.engine, "parallel:4x64");
    assert!(parallel.profile.parallel.is_some());
    // The parallel engine's dependences must match the exact baseline.
    assert_eq!(parallel.profile.dependences, perfect.profile.dependences);

    // The `parallel:N` shorthand selects the same engine shape.
    let spelled = run("parallel:4", &dir.join("spelled.json"));
    assert_eq!(spelled.engine, "parallel:4x256");
    let stats = spelled.profile.parallel.expect("transport stats");
    assert_eq!(stats.worker_processed.len(), 4);
    assert!(stats.worker_processed.iter().sum::<u64>() > 0);
    assert_eq!(spelled.profile.dependences, perfect.profile.dependences);
}

#[test]
fn default_engine_is_auto_selected() {
    // Without --engine, the CLI picks from the address footprint: small
    // program → serial-perfect, huge globals → serial-signature.
    let dir = scratch("auto");
    let small = dir.join("small.dp");
    std::fs::write(&small, SRC).unwrap();
    let out = dir.join("small.json");
    let res = Command::new(BIN)
        .args([
            "analyze",
            small.to_str().unwrap(),
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(
        stderr.contains("auto-selected engine serial-perfect"),
        "{stderr}"
    );
    let doc = discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    assert_eq!(doc.engine, "serial-perfect");

    let big = dir.join("big.dp");
    std::fs::write(
        &big,
        "global int a[300000];\nfn main() {\nfor (int i = 0; i < 8; i = i + 1) {\na[i] = i;\n}\n}\n",
    )
    .unwrap();
    let out = dir.join("big.json");
    let res = Command::new(BIN)
        .args([
            "analyze",
            big.to_str().unwrap(),
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(
        stderr.contains("auto-selected engine serial-signature"),
        "{stderr}"
    );
    let doc = discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    assert!(
        doc.engine.starts_with("serial-signature:"),
        "{}",
        doc.engine
    );
}

/// Analyze `src` and return the `[2/3] profiled …` line and the report.
fn profiled_line(dir: &Path, src: &str, extra: &[&str]) -> (String, discopop::report::ReportDoc) {
    let file = dir.join("prog.dp");
    let out = dir.join("prog.json");
    std::fs::write(&file, src).unwrap();
    let mut args = vec!["analyze", file.to_str().unwrap(), "--json"];
    args.push(out.to_str().unwrap());
    args.extend_from_slice(extra);
    let res = Command::new(BIN).args(&args).output().unwrap();
    let stderr = String::from_utf8_lossy(&res.stderr).to_string();
    assert!(res.status.success(), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("[2/3] profiled"))
        .unwrap_or_else(|| panic!("no profiled line: {stderr}"))
        .to_string();
    let doc = discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    (line, doc)
}

#[test]
fn the_profiled_line_says_where_tracking_ran() {
    // A short run stays on the interpreting thread, and says how short.
    let dir = scratch("tracking");
    let (line, doc) = profiled_line(&dir, SRC, &[]);
    assert!(
        line.ends_with(&format!(
            "; tracked inline: {} accesses, too few to move to a worker",
            doc.profile.accesses
        )),
        "{line}"
    );
    // A memory ceiling keeps any run inline, and says so.
    let (line, _) = profiled_line(&dir, SRC, &["--max-memory", "1G"]);
    assert!(
        line.ends_with("; tracked inline: a memory ceiling is set"),
        "{line}"
    );
}

/// `engines` states the `parallel` map rule from the constants, and the
/// `[2/3]` line names what the spec resolved to; the report keeps the spec's
/// label alone.
#[test]
fn the_cli_names_the_parallel_map_and_the_resolved_dials() {
    let engines = Command::new(BIN).arg("engines").output().unwrap();
    let text = String::from_utf8_lossy(&engines.stdout);
    assert!(
        text.contains(
            "parallel:N partitions are exact up to 262144 footprint words and signatures \
             beyond, of max(524288 / N, 16384) slots each (parallel:4: 131072 slots per partition)"
        ),
        "{text}"
    );

    let dir = scratch("dials");
    let big = "global int a[300000];\nfn main() {\nfor (int i = 0; i < 8; i = i + 1) {\na[i] = i;\n}\n}\n";
    for (src, extra, dials, label) in [
        (
            SRC,
            &[][..],
            "serial-perfect (1 exact partition)",
            "serial-perfect",
        ),
        (
            SRC,
            &["--engine", "parallel:4"][..],
            "parallel:4x256 (4 exact partitions)",
            "parallel:4x256",
        ),
        (
            big,
            &[][..],
            "serial-signature:262144 (1 signature partition of 262144 slots)",
            "serial-signature:262144",
        ),
        (
            big,
            &["--engine", "parallel:4"][..],
            "parallel:4x256 (4 signature partitions of 131072 slots)",
            "parallel:4x256",
        ),
    ] {
        let (line, doc) = profiled_line(&dir, src, extra);
        assert!(
            line.starts_with(&format!("[2/3] profiled with {dials}: ")),
            "{line}"
        );
        assert_eq!(doc.engine, label);
    }
}

/// 2.1 M accesses, all delivered one by one: past the 2^20 at which a
/// serial engine's partition moves to a worker thread.
const LONG_SRC: &str = "global int a[4096];
fn main() {
    for (int r = 0; r < 64; r = r + 1) {
        for (int i = 0; i < 4096; i = i + 1) {
            a[i] = a[i] + i;
        }
    }
}
";

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 2.1 M accesses")]
fn a_long_run_moves_to_a_worker_and_says_from_which_access() {
    let dir = scratch("moved");
    let (line, moved) = profiled_line(&dir, LONG_SRC, &[]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        assert!(line.ends_with("; tracked inline: one core"), "{line}");
        return;
    }
    let at: u64 = line
        .split("; tracked on a worker thread from access ")
        .nth(1)
        .unwrap_or_else(|| panic!("not moved: {line}"))
        .parse()
        .unwrap_or_else(|e| panic!("{e}: {line}"));
    // Moved at the first checkpoint past 2^20 accesses.
    assert!((1 << 20..(1 << 20) + 4096).contains(&at), "{line}");
    assert!(moved.profile.accesses > at);
    // The move is invisible in the report.
    let (line, inline) = profiled_line(&dir, LONG_SRC, &["--max-memory", "1G"]);
    assert!(line.ends_with("a memory ceiling is set"), "{line}");
    assert_eq!(moved.profile.dependences, inline.profile.dependences);
    assert_eq!(moved.profile.profiler_bytes, inline.profile.profiler_bytes);
    assert_eq!(moved.discovery, inline.discovery);
}

#[test]
fn json_to_stdout_is_pure_json() {
    // `--json -` must own stdout even without --quiet: no human-readable
    // report interleaved with the document.
    let dir = scratch("stdout");
    let src = dir.join("s.dp");
    std::fs::write(&src, SRC).unwrap();
    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap(), "--json", "-"])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    discopop::report::ReportDoc::from_json_str(&stdout)
        .expect("stdout must be exactly one parseable JSON document");
}

#[test]
fn report_subcommand_renders_saved_json() {
    let dir = scratch("report");
    let src = dir.join("r.dp");
    let out = dir.join("r.json");
    std::fs::write(&src, SRC).unwrap();

    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--quiet",
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(res.status.success());

    let res = Command::new(BIN)
        .args(["report", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("schema v8"), "{stdout}");
    // A single-threaded report folds into nothing: no shape to report.
    assert!(!stdout.contains("thread runs"), "{stdout}");
    assert!(stdout.contains("Doall"), "{stdout}");
    assert!(
        stdout.contains("Ranked parallelization opportunities"),
        "{stdout}"
    );
}

/// `report` prints a saved report as `analyze` printed the run that wrote
/// it, byte for byte: an actor program small enough for its channel
/// matrix, one too large for it (and folded into thread runs), a governed
/// run (the `resource:` line) and a static one (the static lines).
#[test]
fn report_of_the_saved_json_prints_what_analyze_printed() {
    let dir = scratch("one-renderer");
    for (name, extra) in [
        ("actor_ring", &[][..]),
        ("actors_10k", &[][..]),
        ("matmul", &["--max-memory", "16K"][..]),
        ("matmul", &["--static"][..]),
    ] {
        let src = catalogue_source(&dir, name);
        let json = dir.join(format!("{name}.json"));
        let analyze = |more: &[&str]| {
            let res = Command::new(BIN)
                .arg("analyze")
                .arg(&src)
                .args(extra)
                .args(more)
                .output()
                .unwrap();
            assert!(
                res.status.success(),
                "{name} {extra:?}: {}",
                String::from_utf8_lossy(&res.stderr)
            );
            res.stdout
        };
        let printed = analyze(&[]);
        analyze(&["--quiet", "--json", json.to_str().unwrap()]);
        let res = Command::new(BIN).arg("report").arg(&json).output().unwrap();
        assert!(res.status.success(), "{name} {extra:?}");
        let text = String::from_utf8_lossy(&printed);
        assert!(
            res.stdout == printed,
            "{name} {extra:?}: analyze printed\n{text}\nreport printed\n{}",
            String::from_utf8_lossy(&res.stdout)
        );
        let expect: &[&str] = match (name, extra.first()) {
            ("actor_ring", _) => &["producer\\consumer", "mailbox dependences: "],
            ("actors_10k", _) => &[
                "50042 distinct dependences in 48 rows and 21 thread runs",
                "(matrix elided)",
            ],
            (_, Some(&"--max-memory")) => &["resource: peak ", "degradation step(s)"],
            _ => &["Static analysis: ", "  loop at lines "],
        };
        for line in expect {
            assert!(
                text.contains(line),
                "{name} {extra:?}: no `{line}` in\n{text}"
            );
        }
    }
}

/// FNV-1a 64 over the bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Writes the catalogue program `name`'s source into `dir`.
fn catalogue_source(dir: &Path, name: &str) -> PathBuf {
    let src = dir.join(format!("{name}.dp"));
    std::fs::write(&src, workloads::by_name(name).unwrap().source).unwrap();
    src
}

/// `analyze --quiet --text` of the eleven catalogue programs that spawn
/// threads or actors: the DiscoPoP text listing, one line per thread pair,
/// hashed. Recorded from the CLI before schema v8 folded the JSON report's
/// thread pairs, which must leave the text format as it was; six of them
/// re-recorded when a sink line's entries came to be sorted by the whole
/// dependence (source thread included) rather than left in hash order.
const PINNED_TEXT: &[(&str, u64)] = &[
    ("c-ray-par", 0x876876927ca8476a),
    ("kmeans-par", 0x8f8eaa013b0f652d),
    ("md5-par", 0x52fe19be9a7dcadb),
    ("rotate-par", 0x15c630c49f5a2daf),
    ("barnes-par", 0x79637e736411e31e),
    ("radix-par", 0xe1f72ab1ce172f6d),
    ("ocean-par", 0x70779cb18e74129f),
    ("actor_pipeline", 0x9a60af0868eb085b),
    ("actor_fanout", 0x091a0041cf840c29),
    ("actor_ring", 0x775a9f844255872e),
    ("actors_10k", 0x2f405ebc79a4b310),
];

#[test]
fn the_text_listing_of_every_spawning_program_is_unchanged() {
    let dir = scratch("text-pinned");
    let spawning: Vec<&str> = workloads::all()
        .into_iter()
        .filter(|w| w.parallel_target)
        .map(|w| w.name)
        .collect();
    assert_eq!(
        spawning,
        PINNED_TEXT.iter().map(|&(n, _)| n).collect::<Vec<_>>()
    );
    for &(name, pinned) in PINNED_TEXT {
        let src = catalogue_source(&dir, name);
        let res = Command::new(BIN)
            .args(["analyze", src.to_str().unwrap(), "--quiet", "--text"])
            .output()
            .unwrap();
        assert!(res.status.success(), "{name}");
        let got = fnv1a(&res.stdout);
        assert_eq!(got, pinned, "{name}: --text digest {got:#018x}");
    }
}

#[test]
fn report_says_what_a_multi_threaded_report_folds_into() {
    let dir = scratch("folded");
    let src = catalogue_source(&dir, "actors_10k");
    let out = dir.join("a.json");
    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap(), "--quiet", "--json"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(res.status.success());
    let res = Command::new(BIN).arg("report").arg(&out).output().unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(
        stdout.contains("50042 distinct dependences in 48 rows and 21 thread runs"),
        "{stdout}"
    );
}

#[test]
fn report_on_a_run_of_u32_max_pairs_exits_1_with_a_diagnostic() {
    let dir = scratch("hostile-run");
    let src = dir.join("h.dp");
    let out = dir.join("h.json");
    std::fs::write(&src, SRC).unwrap();
    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap(), "--quiet", "--json"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(res.status.success());
    let json = std::fs::read_to_string(&out).unwrap();
    let hostile = json.replacen(
        "\"threads\": null",
        "\"threads\": [[0, 1, 0, 0, 4294967295, 1]]",
        1,
    );
    assert_ne!(hostile, json, "a dependence row to doctor");
    std::fs::write(&out, hostile).unwrap();
    let res = Command::new(BIN).arg("report").arg(&out).output().unwrap();
    assert_eq!(res.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(
        stderr.starts_with("discopop: report schema error:") && stderr.contains("past the ceiling"),
        "{stderr}"
    );
}

#[test]
fn text_flag_renders_dependence_listing() {
    // `--text` appends the raw line-level dependence listing (the
    // profiler's render_text path) after the structured report.
    let dir = scratch("text");
    let src = dir.join("t.dp");
    std::fs::write(&src, SRC).unwrap();

    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap(), "--quiet", "--text"])
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let stdout = String::from_utf8_lossy(&res.stdout);
    // The reduction loop's s-accumulation is a RAW on s; render_text
    // writes `NOM` lines with `RAW` entries between `BGN`/`END` loop
    // markers.
    assert!(stdout.contains("NOM"), "{stdout}");
    assert!(stdout.contains("RAW"), "{stdout}");
    assert!(stdout.contains("BGN loop"), "{stdout}");
    assert!(stdout.contains("END loop"), "{stdout}");
}

/// A signature's false dependences can contradict a static claim: on a
/// signature engine, and after a memory ceiling's ladder rung, each
/// contradiction is a warning naming why it is not binding and the run
/// exits 0. On `matmul` both runs contradict the claims on `A` and `B`;
/// the exact run contradicts none.
#[test]
fn static_contradictions_on_an_approximate_profile_are_warnings() {
    let dir = scratch("approximate-cross-check");
    let src = catalogue_source(&dir, "matmul");
    for (extra, why) in [
        (
            &["--max-memory", "16K"][..],
            "the memory ceiling degraded the shadow",
        ),
        (
            &["--engine", "serial-signature:64"][..],
            "the engine tracks on signatures of 64 slots",
        ),
        (&[][..], ""),
    ] {
        let res = Command::new(BIN)
            .arg("analyze")
            .arg(&src)
            .arg("--static")
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert!(res.status.success(), "{extra:?}: {stderr}");
        assert!(
            !stderr.contains("cross-check violation"),
            "{extra:?}: {stderr}"
        );
        let warnings: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("discopop: warning: cross-check contradiction"))
            .collect();
        if why.is_empty() {
            assert!(warnings.is_empty(), "{stderr}");
            assert!(
                stderr.contains("4 independence claims, 0 contradicted"),
                "{stderr}"
            );
            continue;
        }
        assert_eq!(warnings.len(), 2, "{extra:?}: {stderr}");
        for w in &warnings {
            assert!(w.contains(&format!("not binding: {why}")), "{w}");
        }
        for line in ["WAW 1:6 <- 1:6", "WAW 1:7 <- 1:7"] {
            assert!(warnings.iter().any(|w| w.ends_with(line)), "{stderr}");
        }
    }
}

#[test]
fn static_flag_adds_block_and_cross_check_passes() {
    let dir = scratch("static");
    let src = dir.join("st.dp");
    let out = dir.join("st.json");
    std::fs::write(&src, SRC).unwrap();

    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--static",
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("static pre-pass"), "{stderr}");
    assert!(stderr.contains("0 contradicted"), "{stderr}");

    let doc = discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    let st = doc.statics.expect("static block present with --static");
    assert!(st.mem_ops > 0);
    assert!(
        st.affine_ops * 2 >= st.mem_ops,
        "affine coverage ≥ 50%: {}/{}",
        st.affine_ops,
        st.mem_ops
    );
    assert!(st.loops.iter().any(|l| l.doall_candidate));
}

#[test]
fn lint_subcommand_reports_findings_and_exit_code() {
    let dir = scratch("lint");

    // Clean program: exit 0, no findings.
    let clean = dir.join("clean.dp");
    std::fs::write(&clean, SRC).unwrap();
    let res = Command::new(BIN)
        .args(["lint", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "clean program lints clean: {}",
        String::from_utf8_lossy(&res.stdout)
    );

    // Uninitialized read + constant out-of-bounds store: nonzero exit,
    // one diagnostic line per finding.
    let dirty = dir.join("dirty.dp");
    std::fs::write(
        &dirty,
        "global int a[4];\nfn main() {\n    int x;\n    int y = x + 1;\n    a[9] = y;\n}\n",
    )
    .unwrap();
    let res = Command::new(BIN)
        .args(["lint", dirty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!res.status.success(), "findings must fail the lint run");
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("[uninit-read]"), "{stdout}");
    assert!(stdout.contains("[const-oob]"), "{stdout}");
}

#[test]
fn zero_worker_and_chunk_specs_are_rejected() {
    // `parallel:0` / `parallel:Nx0` must fail loudly — the parser no
    // longer clamps them to 1 — matching `serial-signature:0`.
    for (spec, msg) in [
        ("parallel:0", "worker count must be positive"),
        ("parallel:0x64", "worker count must be positive"),
        ("parallel:4x0", "chunk size must be positive"),
        ("serial-signature:0", "slot count must be positive"),
    ] {
        let res = Command::new(BIN)
            .args(["analyze", "x.dp", "--engine", spec])
            .output()
            .unwrap();
        assert!(!res.status.success(), "`{spec}` must fail");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert!(stderr.contains(msg), "`{spec}`: {stderr}");
    }
    // The help lists the constraint.
    let res = Command::new(BIN).args(["engines"]).output().unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("must be positive"), "{stdout}");
}

#[test]
fn bad_inputs_fail_with_diagnostics() {
    // Unknown engine spec.
    let res = Command::new(BIN)
        .args(["analyze", "x.dp", "--engine", "warp-drive"])
        .output()
        .unwrap();
    assert!(!res.status.success());
    assert!(String::from_utf8_lossy(&res.stderr).contains("unknown engine"));

    // Compile error surfaces with a non-zero exit.
    let dir = scratch("bad");
    let src = dir.join("bad.dp");
    std::fs::write(&src, "fn main() { undeclared = 1; }").unwrap();
    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!res.status.success());
    assert!(String::from_utf8_lossy(&res.stderr).contains("compile error"));
    // Analysis failures are exit 1, distinct from unreadable input (2).
    assert_eq!(res.status.code(), Some(1));
}

#[test]
fn hostile_nesting_exits_1_with_a_one_line_diagnostic_not_a_stack_overflow() {
    let dir = scratch("nesting");
    let limit = lang::MAX_NESTING.to_string();
    for (name, src) in [
        // 100,000 terms, 200 KB: a left-deep chain the parser builds in a
        // loop, which lowering and `Drop` would recurse on.
        (
            "chain",
            format!("fn main() {{ int x = 1{}; }}", "+1".repeat(99_999)),
        ),
        (
            "unary",
            format!("fn main() {{ int x = {}1; }}", "-".repeat(100_000)),
        ),
        (
            "if",
            format!(
                "fn main() {{ int x = 0; {} x = 1; {} }}",
                "if (x < 1) {".repeat(20_000),
                "}".repeat(20_000)
            ),
        ),
    ] {
        let path = dir.join(format!("{name}.dp"));
        std::fs::write(&path, src).unwrap();
        let res = Command::new(BIN)
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("compile error"), "{name}: {stderr}");
        assert!(stderr.contains(&limit), "{name}: names the limit: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{name}: {stderr}");
    }
}

#[test]
fn unreadable_input_exits_code_2_with_one_line_diagnostic() {
    let dir = scratch("unreadable");

    // Nonexistent file.
    let res = Command::new(BIN)
        .args(["analyze", "/nonexistent/input.dp"])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line: {stderr}");

    // A directory is unreadable as source.
    let res = Command::new(BIN)
        .args(["analyze", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&res.stderr).contains("cannot read"));

    // Invalid UTF-8 bytes.
    let bin_src = dir.join("binary.dp");
    std::fs::write(&bin_src, [0xffu8, 0xfe, 0x00, 0x80]).unwrap();
    let res = Command::new(BIN)
        .args(["analyze", bin_src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line: {stderr}");

    // `report` reads its input the same way: a missing saved report and
    // one that is not UTF-8 are unreadable input too.
    for saved in [Path::new("/nonexistent/r.json"), bin_src.as_path()] {
        let res = Command::new(BIN).arg("report").arg(saved).output().unwrap();
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(2), "{}: {stderr}", saved.display());
        assert!(stderr.contains("cannot read"), "{stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "one line: {stderr}");
    }
}

#[test]
fn governed_run_reports_resources_and_degradation() {
    // A memory ceiling far below the perfect shadow's footprint must
    // complete via the degradation ladder and record what was sacrificed
    // in the `resource` block. The wide array spreads accesses
    // over many shadow pages, so the exact shadow's footprint (megabytes)
    // dwarfs the 256K ceiling while the signature floor fits under it.
    let dir = scratch("governed");
    let src = dir.join("gov.dp");
    let out = dir.join("gov.json");
    std::fs::write(
        &src,
        "global int a[100000];\nfn main() {\n\
         for (int i = 0; i < 100000; i = i + 1) { a[i] = i; }\n\
         for (int j = 1; j < 100000; j = j + 1) { a[j] = a[j] + a[j - 1]; }\n\
         }\n",
    )
    .unwrap();

    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--engine",
            "serial-perfect",
            "--max-memory",
            "256K",
            "--quiet",
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let doc = discopop::report::ReportDoc::from_json_str(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    assert_eq!(doc.schema_version, discopop::report::SCHEMA_VERSION);
    let res_block = doc.profile.resource.expect("resource block present");
    assert_eq!(res_block.budget_bytes, Some(256 * 1024));
    assert!(res_block.peak_tracked_bytes <= 256 * 1024, "{res_block:?}");
    assert!(
        !res_block.degradation_steps.is_empty(),
        "perfect shadow exceeds 256K, the ladder must have fired"
    );
    assert!(res_block.fp_rate_estimate > 0.0, "{res_block:?}");
    assert!(!res_block.deadline_hit);

    // `discopop report` renders the resource line.
    let res = Command::new(BIN)
        .args(["report", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("resource: peak"), "{stdout}");
}

#[test]
fn bad_budget_flags_are_rejected() {
    for args in [
        ["--max-memory", "lots"],
        ["--max-memory", "-4"],
        ["--deadline", "soon"],
        ["--deadline", "-1"],
    ] {
        let res = Command::new(BIN)
            .args(["analyze", "x.dp", args[0], args[1]])
            .output()
            .unwrap();
        assert_eq!(res.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert!(stderr.contains("bad"), "{args:?}: {stderr}");
    }
}

#[test]
fn deadline_partial_exits_code_3_and_says_so() {
    // A 1 ms deadline against a ~100k-step run must trip mid-profile; the
    // typed partial result is exit 3 (vs 1 for failures, 2 for unreadable
    // input), and stderr says the result is partial.
    let dir = scratch("deadline3");
    let src = dir.join("slow.dp");
    std::fs::write(
        &src,
        "global int a[4096];\nfn main() {\n\
         for (int r = 0; r < 8; r = r + 1) {\n\
         for (int i = 0; i < 4096; i = i + 1) { a[i] = a[i] + i; }\n\
         }\n}\n",
    )
    .unwrap();

    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--deadline",
            "0.001",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert_eq!(
        res.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
    assert!(stderr.contains("partial result"), "{stderr}");
}

/// A spawned `discopop serve` that cannot outlive its test: killed on
/// drop (so a failed assertion never leaks a daemon), with stdio routed
/// to /dev/null (so a leaked process can never hold libtest's output
/// pipe open and hang the harness).
struct Daemon(Option<std::process::Child>);

impl Daemon {
    /// Consume the guard and assert the daemon drained to a clean exit.
    fn wait_clean(mut self) {
        let mut child = self.0.take().unwrap();
        let status = child.wait().expect("daemon exits");
        assert!(status.success(), "daemon must drain cleanly on shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawn `discopop serve` on an ephemeral port and resolve the address
/// through `--port-file` (the race-free pattern CI uses too).
fn spawn_daemon(dir: &Path, env: &[(&str, &str)]) -> (Daemon, String) {
    let port_file = dir.join("daemon.port");
    let mut cmd = Command::new(BIN);
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--workers",
        "2",
    ]);
    cmd.stdin(std::process::Stdio::null());
    cmd.stdout(std::process::Stdio::null());
    cmd.stderr(std::process::Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let daemon = Daemon(Some(cmd.spawn().expect("daemon starts")));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    (daemon, addr)
}

#[test]
fn serve_submit_roundtrip_with_faultpoint_isolation() {
    let dir = scratch("serve-roundtrip");
    let src = dir.join("job.dp");
    let out = dir.join("served.json");
    std::fs::write(&src, SRC).unwrap();

    // The daemon starts with one armed faultpoint: the first job dies
    // mid-profile, and only that job.
    let (daemon, addr) = spawn_daemon(&dir, &[("DISCOPOP_FAULTPOINT", "serve:mid-job")]);

    // Job 1 trips the armed fault: typed error, distinct exit code 1.
    let res = Command::new(BIN)
        .args(["submit", src.to_str().unwrap(), "--addr", &addr])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("[panic]"), "typed panic error: {stderr}");

    // Job 2 on the same daemon: healthy, and its report matches a direct
    // `analyze` run byte for byte.
    let res = Command::new(BIN)
        .args([
            "submit",
            src.to_str().unwrap(),
            "--addr",
            &addr,
            "--json",
            out.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let direct = dir.join("direct.json");
    let res = Command::new(BIN)
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--quiet",
            "--json",
            direct.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(res.status.success());
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        std::fs::read_to_string(&direct).unwrap(),
        "served report must be byte-identical to the direct run"
    );

    // Status shows the recovery; shutdown drains cleanly.
    let res = Command::new(BIN)
        .args(["status", "--addr", &addr])
        .output()
        .unwrap();
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("recoveries: 1 worker"), "{stdout}");

    let res = Command::new(BIN)
        .args(["shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(res.status.success());
    daemon.wait_clean();
}

#[test]
fn submit_deadline_partial_exits_code_3_too() {
    let dir = scratch("submit-deadline");
    let src = dir.join("slow.dp");
    std::fs::write(
        &src,
        "global int a[4096];\nfn main() {\n\
         for (int r = 0; r < 8; r = r + 1) {\n\
         for (int i = 0; i < 4096; i = i + 1) { a[i] = a[i] + i; }\n\
         }\n}\n",
    )
    .unwrap();

    let (daemon, addr) = spawn_daemon(&dir, &[]);
    let res = Command::new(BIN)
        .args([
            "submit",
            src.to_str().unwrap(),
            "--addr",
            &addr,
            "--deadline",
            "0.001",
        ])
        .output()
        .unwrap();
    assert_eq!(
        res.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("[deadline]"), "{stderr}");
    assert!(stderr.contains("partial progress"), "{stderr}");

    let res = Command::new(BIN)
        .args(["shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(res.status.success());
    daemon.wait_clean();
}

#[test]
fn hostile_module_names_round_trip_through_analyze_and_the_daemon() {
    // A module name is the caller's: a file stem for `analyze`, `--name`
    // for `submit`. Quotes, backslashes and control characters must reach
    // the report escaped, and come back out as they went in.
    const NAME: &str = "a\"b\\c\n";
    let dir = scratch("hostile-name");
    let src = dir.join(format!("{NAME}.dp"));
    let plain = dir.join("plain.dp");
    std::fs::write(&src, SRC).unwrap();
    std::fs::write(&plain, SRC).unwrap();

    let direct = dir.join("direct.json");
    let res = Command::new(BIN)
        .args(["analyze", src.to_str().unwrap(), "--quiet", "--json"])
        .arg(&direct)
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    let direct = std::fs::read_to_string(&direct).unwrap();
    let doc = discopop::report::ReportDoc::from_json_str(&direct).expect("report parses");
    assert_eq!(doc.program, NAME);
    assert!(
        direct.contains(r#""program": "a\"b\\c\n","#),
        "escaped once"
    );

    let (daemon, addr) = spawn_daemon(&dir, &[]);
    let served = dir.join("served.json");
    let res = Command::new(BIN)
        .args(["submit", plain.to_str().unwrap(), "--name", NAME])
        .args(["--addr", &addr, "--quiet", "--json"])
        .arg(&served)
        .output()
        .unwrap();
    assert!(
        res.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&served).unwrap(),
        direct,
        "the daemon's raw-spliced report must be the direct report"
    );
    let res = Command::new(BIN)
        .args(["shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(res.status.success());
    daemon.wait_clean();
}
