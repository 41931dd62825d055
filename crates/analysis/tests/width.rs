//! Width guard: the static pre-pass must cost what the module is wide. A
//! program of `n` one-loop functions over `n` globals has `n` loops, `n`
//! rows in each effect table and about `7n` static accesses, so `analyze`
//! and `Program::new` (which runs `analyze` once and interns every name)
//! are both linear in `n`.
//!
//! At 2,000 functions the pass these ceilings were set against — effect
//! sets as `Vec<Vec<bool>>` closed a bit at a time, callees found by a
//! linear scan of the functions, every function filtering the whole access
//! list, names interned by a linear scan — took 72–108 ms in `analyze` and
//! 52–78 ms in a `Program::new` that ran only the pass's front half (loops,
//! effects, classification; release build, 2-core x86-64 host, the fastest
//! of five runs, one test at a time). With packed bit rows, one name table
//! and per-function slices they took 10.5–17.3 ms and 9.5–14.0 ms. Each
//! ceiling is under half the old pass's fastest run; `Program::new` now runs
//! the whole pass under the same ceiling.

use analysis::{analyze, Effects, Term};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const FUNCTIONS: usize = 2000;

const ANALYZE_CEILING: Duration = Duration::from_millis(35);
const PROGRAM_CEILING: Duration = Duration::from_millis(25);

/// `FUNCTIONS` functions `f0..`, each filling its own global in one loop.
/// Every tenth function after the first also reads the global of the one
/// before it and calls that function in its loop, so callee rows chain.
/// `ping` and `pong` recurse into each other, and `guarded` updates `g0`
/// under a lock; `main` calls everything once.
fn wide_module() -> mir::Module {
    let mut src = String::new();
    for i in 0..FUNCTIONS {
        src.push_str(&format!("global int g{i}[16];\n"));
    }
    for i in 0..FUNCTIONS {
        let body = if i % 10 == 0 && i > 0 {
            format!("g{i}[i] = g{}[i] + {i};\n        f{}();", i - 1, i - 1)
        } else {
            format!("g{i}[i] = i + {i};")
        };
        src.push_str(&format!(
            "fn f{i}() {{\n    for (int i = 0; i < 16; i = i + 1) {{\n        {body}\n    }}\n}}\n"
        ));
    }
    src.push_str(
        "fn ping(int n) {\n    if (n > 0) { g1[n] = n; pong(n - 1); }\n}\n\
         fn pong(int n) {\n    if (n > 0) { g2[n] = g1[n]; ping(n - 1); }\n}\n\
         fn guarded() {\n    lock(0);\n    g0[0] = g0[0] + 1;\n    unlock(0);\n}\n\
         fn main() {\n    ping(8);\n    guarded();\n",
    );
    for i in 0..FUNCTIONS {
        src.push_str(&format!("    f{i}();\n"));
    }
    src.push_str("}\n");
    lang::compile(&src, "wide").unwrap()
}

/// Held for the whole of each test, so a timed section never shares the
/// cores with another test.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The wide module, built while holding [`ONE_AT_A_TIME`].
fn exclusive_wide_module() -> (MutexGuard<'static, ()>, mir::Module) {
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    (guard, wide_module())
}

/// The fastest of five runs of `f` on `input`, and the last result.
fn fastest<I: Clone, T>(input: &I, mut f: impl FnMut(I) -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..5 {
        let input = input.clone();
        let t0 = Instant::now();
        let r = f(input);
        best = best.min(t0.elapsed());
        out = Some(r);
    }
    (best, out.unwrap())
}

/// Unoptimised builds check the answers only.
fn under(what: &str, took: Duration, ceiling: Duration) {
    if !cfg!(debug_assertions) {
        assert!(
            took < ceiling,
            "{what} took {took:?} on {FUNCTIONS} functions (ceiling {ceiling:?})"
        );
    }
}

fn index(m: &mir::Module, name: &str) -> usize {
    m.function(name).unwrap().0.index()
}

/// Every kind of effect row is exercised: chained callee rows, a recursion
/// cycle, a lock site.
fn check_effects(m: &mir::Module, e: &Effects) {
    let (f9, f10, f20) = (index(m, "f9"), index(m, "f10"), index(m, "f20"));
    let (ping, pong) = (index(m, "ping"), index(m, "pong"));
    let (guarded, main) = (index(m, "guarded"), index(m, "main"));
    assert!(e.callees.get(f10, f9) && !e.callees.get(f20, f9));
    assert!(e.reads.get(f10, 9) && e.writes.get(f10, 9) && !e.writes.get(f20, 9));
    assert!(e.callees.get(ping, ping) && e.callees.get(pong, pong));
    assert!(e.writes.get(ping, 2) && e.writes.get(pong, 1));
    assert!(e.locks[guarded] && e.locks[main] && !e.locks[ping]);
    assert_eq!(e.callees.ones(main).count(), m.functions.len() - 1);
    assert_eq!(e.writes.ones(main).count(), FUNCTIONS);
}

/// The facts later passes read — trip counts, stride-1 accesses, call-graph
/// effects — come out of `analyze` within the same ceiling.
#[test]
fn static_facts_of_2000_functions_take_linear_time() {
    let (_alone, m) = exclusive_wide_module();
    let (took, a) = fastest(&&m, analyze);
    let counted = a.loops.iter().flat_map(|fl| &fl.loops);
    let counted = counted.filter(|l| l.iv.as_ref().is_some_and(|iv| iv.trip_count.is_some()));
    assert_eq!(counted.count(), FUNCTIONS, "one counted loop per function");
    let stride_one = a.accesses.iter().filter(|x| {
        let (Some(index), Some(&li)) = (&x.index, x.chain.last()) else {
            return false;
        };
        index.coef(Term::Iter(a.loops[x.func.index()].loops[li].region)) == 1
    });
    assert!(stride_one.count() >= FUNCTIONS);
    check_effects(&m, &a.effects);
    under("analyze", took, ANALYZE_CEILING);
}

#[test]
fn analysis_of_2000_functions_takes_linear_time() {
    let (_alone, m) = exclusive_wide_module();
    let (took, a) = fastest(&&m, analyze);
    let report = &a.report;
    assert_eq!(report.loops.len(), FUNCTIONS);
    assert!(report.loops.iter().all(|r| r.has_iv));
    // A loop calling a function with global effects is no DOALL call.
    let doall = report.loops.iter().filter(|r| r.doall_candidate).count();
    assert_eq!(doall, FUNCTIONS - (FUNCTIONS - 1) / 10);
    assert!(report.claims.len() >= FUNCTIONS);
    check_effects(&m, &a.effects);
    under("analyze", took, ANALYZE_CEILING);
}

#[test]
fn decoding_2000_functions_takes_linear_time() {
    let (_alone, m) = exclusive_wide_module();
    let (took, p) = fastest(&m, interp::Program::new);
    // Globals, the loop counters (one symbol, `i`), `ping`/`pong`'s `n`.
    assert_eq!(p.num_symbols(), FUNCTIONS + 2);
    assert_eq!(p.mem_op_meta().len(), p.num_mem_ops() as usize);
    // Decode ran the whole pass and kept its report.
    assert_eq!(p.static_report().loops.len(), FUNCTIONS);
    assert!(p.static_report().claims.len() >= FUNCTIONS);
    check_effects(&m, p.effects());
    under("Program::new", took, PROGRAM_CEILING);
}
