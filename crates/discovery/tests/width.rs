//! Width guard: discovery must cost what the program is wide. A program of
//! `n` one-loop functions called from `main` has `n` loops, about `8n`
//! dependences and `n(n-1)/2` sibling-call pairs; everything but emitting
//! those pairs is linear in `n`. The ceiling below is missed threefold by
//! the per-pair dependence scan this guard was written against (1.6 s at
//! 600 functions, growing 8x per doubling) and cleared sixfold without it.

use discovery::{discover, LoopClass, SpmdKind};
use std::time::{Duration, Instant};

const FUNCTIONS: usize = 600;

/// `FUNCTIONS` functions, each filling its own global in one DOALL loop,
/// and a `main` that calls every one.
fn sibling_call_program() -> String {
    let mut src = String::new();
    for i in 0..FUNCTIONS {
        src.push_str(&format!("global int g{i}[16];\n"));
    }
    for i in 0..FUNCTIONS {
        src.push_str(&format!(
            "fn f{i}() {{\n    for (int i = 0; i < 16; i = i + 1) {{\n        g{i}[i] = i + {i};\n    }}\n}}\n"
        ));
    }
    src.push_str("fn main() {\n");
    for i in 0..FUNCTIONS {
        src.push_str(&format!("    f{i}();\n"));
    }
    src.push_str("}\n");
    src
}

#[test]
fn discovery_of_600_sibling_functions_finds_every_pair_in_linear_time() {
    let program = interp::Program::new(lang::compile(&sibling_call_program(), "wide").unwrap());
    let out = profiler::profile_program(&program).unwrap();

    let t0 = Instant::now();
    let found = discover(&program, &out.deps, &out.pet);
    let elapsed = t0.elapsed();

    assert_eq!(found.loops.len(), FUNCTIONS);
    assert!(found.loops.iter().all(|l| l.class == LoopClass::Doall));
    let pairs = found
        .spmd
        .iter()
        .filter(|s| s.kind == SpmdKind::SiblingCalls)
        .count();
    assert_eq!(pairs, FUNCTIONS * (FUNCTIONS - 1) / 2);
    assert_eq!(pairs, 179_700);
    // Unoptimised builds check the answer only.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_millis(500),
            "discover took {elapsed:?} on {FUNCTIONS} functions"
        );
    }
}
