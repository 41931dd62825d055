//! Quickstart: the staged analysis pipeline end to end — compile, profile,
//! discover, render, and emit the versioned JSON report.
//!
//! Run with: `cargo run --example quickstart`

use discopop::{Analysis, EngineKind, StageEvent};

fn main() {
    let source = r#"
global float field[256];
global float total;

fn smooth() {
    for (int i = 1; i < 255; i = i + 1) {
        field[i] = 0.5 * field[i] + 0.25 * (field[i - 1] + field[i + 1]);
    }
}

fn main() {
    for (int i = 0; i < 256; i = i + 1) {
        field[i] = (i % 16) * 0.125;
    }
    smooth();
    total = 0.0;
    for (int j = 0; j < 256; j = j + 1) {
        total = total + field[j];
    }
    print(total);
}
"#;

    // Configure once; the progress sink narrates the stages.
    let mut analysis = Analysis::new()
        .engine(EngineKind::SerialPerfect)
        .with_static(true)
        .on_progress(|ev| match ev {
            StageEvent::Compiled {
                name,
                functions,
                decoded_ops,
            } => eprintln!("compiled `{name}` ({functions} functions, {decoded_ops} decoded ops)"),
            StageEvent::Profiled {
                engine,
                steps,
                dependences,
                ..
            } => eprintln!("profiled with {engine}: {steps} steps, {dependences} dependences"),
            StageEvent::StaticAnalyzed {
                loops,
                claims,
                lints,
            } => eprintln!(
                "static pre-pass: {loops} loops, {claims} independence claims, {lints} lints"
            ),
            StageEvent::Discovered { loops, ranked, .. } => {
                eprintln!("discovered {loops} loops, {ranked} ranked suggestions")
            }
        });

    // Stage 1+2+3, with the intermediate artifacts in hand.
    let compiled = analysis.compile(source, "quickstart").expect("compiles");
    let profiled = analysis.profile(&compiled).expect("profiles");
    eprintln!(
        "inspectable between stages: {} distinct dependences before discovery",
        profiled.deps().len()
    );
    let report = analysis.discover(&compiled, profiled);

    println!("{}", discopop::render_report(compiled.program(), &report));

    println!("Per-loop classification:");
    for l in &report.discovery.loops {
        println!(
            "  line {:>3}: {:?} ({} iterations, {} instructions)",
            l.info.start_line, l.class, l.info.iters, l.info.dyn_instrs
        );
        if !l.reduction_vars.is_empty() {
            println!("      reduction variables: {:?}", l.reduction_vars);
        }
    }

    // The same report as machine-readable, versioned JSON (what
    // `discopop analyze --json` writes).
    let json = report.to_json_string(compiled.program());
    println!(
        "\nJSON report: {} bytes, schema v{}",
        json.len(),
        discopop::report::SCHEMA_VERSION
    );
}
