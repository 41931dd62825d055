//! Width guard: discovery must cost what the program is wide. A program of
//! `n` one-loop functions called from `main` has `n` loops, a few
//! dependences per function and `n` sibling call sites; sibling calls are
//! reported as fork–join groups, and a DOACROSS loop's stages are read from
//! the one CU graph `discover` builds, so every part of `discover`, its
//! output included, is linear in `n`. The per-pair dependence scan this
//! guard was first written against took 1.6 s at 600 functions (growing 8x
//! per doubling), and the pairwise output that replaced it 25 ms (179,700
//! suggestions). Grouped, `discover` measured 2.9–4.1 ms on either sibling
//! program below (release build, 2-core x86-64 host, both tests running at
//! once); the ceiling is 5x the slowest of those runs. The DOACROSS program
//! (five CUs and 21 dependences per function) measured 8.8–9.6 ms on the
//! same host, and 14.4–14.8 ms while the host was loaded; the tests now run
//! one at a time.

use discovery::{discover, Discovery, LoopClass, SpmdKind, SpmdSuggestion};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const FUNCTIONS: usize = 600;

const CEILING: Duration = Duration::from_millis(20);

/// `FUNCTIONS` functions, each filling its own global in one DOALL loop,
/// and a `main` that calls every one. With `chained`, every tenth function
/// after the first also reads the global the function before it wrote, so
/// its call depends on the call before it.
fn sibling_call_program(chained: bool) -> String {
    let mut src = String::new();
    for i in 0..FUNCTIONS {
        src.push_str(&format!("global int g{i}[16];\n"));
    }
    for i in 0..FUNCTIONS {
        let rhs = if chained && i % 10 == 0 && i > 0 {
            format!("g{}[i] + {i}", i - 1)
        } else {
            format!("i + {i}")
        };
        src.push_str(&format!(
            "fn f{i}() {{\n    for (int i = 0; i < 16; i = i + 1) {{\n        g{i}[i] = {rhs};\n    }}\n}}\n"
        ));
    }
    src.push_str("fn main() {\n");
    for i in 0..FUNCTIONS {
        src.push_str(&format!("    f{i}();\n"));
    }
    src.push_str("}\n");
    src
}

/// `FUNCTIONS` functions, each running a three-stage DOACROSS loop over
/// its own global, and a `main` that calls every one.
fn doacross_program() -> String {
    let mut src = String::new();
    for i in 0..FUNCTIONS {
        src.push_str(&format!("global int a{i}[64];\n"));
    }
    for i in 0..FUNCTIONS {
        src.push_str(&format!(
            "fn f{i}() {{\n    int s = 1;\n    int t = 0;\n    int u = 0;\n    int w = 0;\n    \
             for (int i = 0; i < 64; i = i + 1) {{\n        t = a{i}[i] * 2;\n        \
             u = t + 1;\n        w = t * 3;\n        s = (s * 3 + u + w) % 1000;\n    }}\n}}\n"
        ));
    }
    src.push_str("fn main() {\n");
    for i in 0..FUNCTIONS {
        src.push_str(&format!("    f{i}();\n"));
    }
    src.push_str("}\n");
    src
}

/// Held by each test for its whole run, so that the tests of this file run
/// one at a time and no test's profiling shares the cores with another's
/// timed `discover`.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Discover `src` under the ceiling, with one loop per function.
fn discover_wide(src: &str) -> Discovery {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let program = interp::Program::new(lang::compile(src, "wide").unwrap());
    let out = profiler::profile_program(&program).unwrap();

    let t0 = Instant::now();
    let found = discover(&program, &out.deps, &out.pet);
    let elapsed = t0.elapsed();

    assert_eq!(found.loops.len(), FUNCTIONS);
    // Unoptimised builds check the answer only.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < CEILING,
            "discover took {elapsed:?} on {FUNCTIONS} functions"
        );
    }
    found
}

/// Discover `src`, check its loops are DOALL, and return the sibling groups.
fn sibling_groups(src: &str) -> Vec<SpmdSuggestion> {
    let found = discover_wide(src);
    assert!(found.loops.iter().all(|l| l.class == LoopClass::Doall));
    found
        .spmd
        .into_iter()
        .filter(|s| s.kind == SpmdKind::SiblingCalls)
        .collect()
}

#[test]
fn discovery_of_600_sibling_functions_finds_one_group_in_linear_time() {
    let groups = sibling_groups(&sibling_call_program(false));
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].lines.len(), FUNCTIONS);
    assert_eq!(groups[0].callees.len(), FUNCTIONS);
}

#[test]
fn every_tenth_call_reading_its_predecessor_starts_a_new_group() {
    let groups = sibling_groups(&sibling_call_program(true));
    assert_eq!(groups.len(), FUNCTIONS / 10);
    for (k, g) in groups.iter().enumerate() {
        let first = 10 * k;
        let callees: Vec<String> = (first..first + 10).map(|i| format!("f{i}")).collect();
        let mut sorted = callees.clone();
        sorted.sort();
        assert_eq!(g.lines.len(), 10, "group {k}: {g:?}");
        assert_eq!(g.callees, sorted, "group {k}");
    }
}

#[test]
fn every_doacross_loop_of_600_functions_reads_three_stages() {
    let found = discover_wide(&doacross_program());
    for l in &found.loops {
        assert_eq!(
            (l.class, l.pipeline_stages),
            (LoopClass::Doacross, 3),
            "{l:?}"
        );
    }
}
