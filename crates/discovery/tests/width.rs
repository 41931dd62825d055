//! Width guard: discovery must cost what the program is wide. A program of
//! `n` one-loop functions called from `main` has `n` loops, about `8n`
//! dependences and `n` sibling call sites; sibling calls are reported as
//! fork–join groups, so every part of `discover`, its output included, is
//! linear in `n`. The per-pair dependence scan this guard was first written
//! against took 1.6 s at 600 functions (growing 8x per doubling), and the
//! pairwise output that replaced it 25 ms (179,700 suggestions). Grouped,
//! `discover` measured 2.9–4.1 ms on either program below (release build,
//! 2-core x86-64 host, both tests running at once); the ceiling is 5x the
//! slowest of those runs.

use discovery::{discover, LoopClass, SpmdKind, SpmdSuggestion};
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

/// Discover `src`, check its loops, and return the sibling groups.
fn sibling_groups(src: &str) -> Vec<SpmdSuggestion> {
    let program = interp::Program::new(lang::compile(src, "wide").unwrap());
    let out = profiler::profile_program(&program).unwrap();

    let t0 = Instant::now();
    let found = discover(&program, &out.deps, &out.pet);
    let elapsed = t0.elapsed();

    assert_eq!(found.loops.len(), FUNCTIONS);
    assert!(found.loops.iter().all(|l| l.class == LoopClass::Doall));
    // Unoptimised builds check the answer only.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < CEILING,
            "discover took {elapsed:?} on {FUNCTIONS} functions"
        );
    }
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
