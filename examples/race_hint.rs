//! Profile a multi-threaded target program through the facade and show
//! cross-thread dependences and race hints (§2.3.4).
//!
//! `Analysis::profile_threads` runs the configured engine with the
//! interpreter delivering each thread's accesses as real threads would:
//! buffered, and flushed at lock release, spawn, join and thread end. The
//! locked counter's accesses therefore arrive in order; the unsynchronized
//! one's may not, and the engine flags the inversions as race hints. The
//! delivery is deterministic, so the hint count is the same on every run.
//!
//! Run with: `cargo run --example race_hint`

use discopop::{Analysis, Compiled, EngineKind};

fn main() {
    // A racy program: two threads bump an unsynchronized shared counter.
    let source = r#"
global int counter;
global int safe_counter;
fn worker(int n) {
    for (int i = 0; i < n; i = i + 1) {
        counter = counter + 1;
        lock(1);
        safe_counter = safe_counter + 1;
        unlock(1);
    }
}
fn main() {
    int a = spawn(worker, 500);
    int b = spawn(worker, 500);
    join(a);
    join(b);
    print(counter, safe_counter);
}
"#;
    let mut analysis = Analysis::new().engine(EngineKind::parallel(4));
    let compiled: Compiled = analysis.compile(source, "racy").expect("compiles");
    let profiled = analysis.profile_threads(&compiled).expect("profiles");
    let program = compiled.program();

    println!(
        "{} distinct dependences from {} accesses (engine {})",
        profiled.deps().len(),
        profiled.output.skip_stats.total_accesses,
        profiled.engine,
    );

    let cross: Vec<_> = profiled
        .deps()
        .sorted()
        .into_iter()
        .filter(|d| d.is_cross_thread())
        .collect();
    println!("\ncross-thread dependences:");
    for d in &cross {
        println!(
            "  {:?} {} (thread {} -> {}) var {}{}",
            d.ty,
            d.sink,
            d.source_thread,
            d.sink_thread,
            program.symbol(d.var.min(program.num_symbols() as u32 - 1)),
            if d.race_hint { "  [RACE HINT]" } else { "" }
        );
    }

    let hints = profiled.deps().race_hints();
    println!(
        "\n{} dependence(s) carry race hints (unsynchronized access order observed)",
        hints.len()
    );
}
