//! `benchmark run`: every workload, untraced then traced, each in a child
//! process of its own (so `peak_rss_mb` is that workload's and nobody
//! else's), printed by name with units and written out for `compare`.

use crate::e2e::Options;
use crate::layers::out_dir;
use crate::workload::WORKLOADS;
use jsonio::Value;
use std::process::{Command, Stdio};

/// One child: `--workload name --trace t`. Returns its result and detail
/// objects. The child's notes pass through to our stdout.
fn child(name: &str, traced: bool, opts: &Options) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects its stdout; stderr is ours.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parse = |line: Option<&str>| line.and_then(|l| Value::parse(l).ok());
    let result = parse(lines.pop());
    let detail = parse(lines.pop());
    for l in lines {
        println!("  {l}");
    }
    match (result, detail, output.status.code()) {
        (Some(r), Some(d), Some(0 | 1)) => Ok((r, d)),
        (_, _, code) => Err(format!(
            "the {name} child (trace {}) ended with {code:?} and no result",
            u8::from(traced)
        )),
    }
}

/// Merge a child's result and detail objects into one row per metric:
/// `{value, unit[, q1, q3, n]}`.
fn metric_rows(result: &Value, detail: &Value) -> Value {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Value::Object(Vec::new());
    };
    Value::Object(
        metrics
            .iter()
            .map(|(name, m)| {
                let Value::Object(mut row) = m.clone() else {
                    return (name.clone(), m.clone());
                };
                if let Some(Value::Object(s)) = detail.get("spreads").and_then(|s| s.get(name)) {
                    row.extend(s.iter().cloned());
                }
                (name.clone(), Value::Object(row))
            })
            .collect(),
    )
}

fn print_rows(title: &str, rows: &Value) {
    println!("  {title}");
    let Value::Object(rows) = rows else { return };
    for (name, row) in rows {
        let num = |k: &str| row.get(k).and_then(Value::as_f64);
        let unit = row.get("unit").and_then(Value::as_str).unwrap_or("");
        let value = num("value").unwrap_or(f64::NAN);
        match (num("q1"), num("q3"), num("n"), num("raw")) {
            (Some(q1), Some(q3), Some(n), Some(raw)) => println!(
                "    {name:<28} {value:>16.4} {unit:<9} rounds: quartiles {q1:.4} .. {q3:.4}, n {n}; before normalisation {raw:.4}"
            ),
            _ => println!("    {name:<28} {value:>16.4} {unit}"),
        }
    }
}

/// Run everything. `Ok(false)` when any workload's outputs were wrong.
pub fn run_all(opts: &Options, out: Option<&str>) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut all_correct = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let (e2e, e2e_detail) = child(name, false, opts)?;
        let (layers, layers_detail) = child(name, true, opts)?;
        let end_to_end = metric_rows(&e2e, &e2e_detail);
        let per_layer = metric_rows(&layers, &layers_detail);
        print_rows("end to end (untraced child)", &end_to_end);
        print_rows("per layer (traced child)", &per_layer);
        let count = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let attempted = count(&e2e, "attempted") + count(&layers, "attempted");
        let failed = count(&e2e, "failed") + count(&layers, "failed");
        println!(
            "  {failed} of {attempted} jobs failed (failed_share {:.6})",
            failed as f64 / attempted.max(1) as f64
        );
        all_correct &= failed == 0 && attempted > 0;
        rows.push(Value::object([
            ("name", Value::from(name)),
            ("attempted", Value::from(attempted)),
            ("failed", Value::from(failed)),
            (
                "notes",
                e2e_detail.get("notes").cloned().unwrap_or(Value::Null),
            ),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ]));
    }
    let doc = Value::object([
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("smoke", Value::from(opts.smoke)),
        ("nproc", Value::from(opts.nproc)),
        ("workloads", Value::Array(rows)),
    ]);
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => out_dir().join(format!("run-seed{}.json", opts.seed)),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if opts.smoke {
        println!("smoke run: outputs were checked, timings mean nothing");
    }
    Ok(all_correct)
}
