//! The repo's benchmark. Three ways in:
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of stdout is the result
//!     object BENCHMARK.json's contract describes
//! benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload, untraced then traced, each in a child process of
//!     its own; prints every metric and writes FILE for `compare`
//! benchmark compare A.json B.json
//!     per workload and metric: both medians, the ratio with its base,
//!     the bound, a verdict; then which layer moved
//! ```
//!
//! See README.md for why these workloads and these metrics.

mod compare;
mod e2e;
mod gen;
mod job;
mod layers;
mod metrics;
mod pace;
mod run;
mod service;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// The seed `run` uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seconds each timed section lasts; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
  benchmark compare A.json B.json
  benchmark list";

/// Flags shared by the single-workload form and `run`.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{a} needs a value"))
                .map(String::as_str)
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                f.seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds `{v}`"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                })
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(f)
}

fn options(f: &Flags) -> e2e::Options {
    e2e::Options {
        seed: f.seed.unwrap_or(DEFAULT_SEED),
        seconds: f.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: f.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// One workload, in this process. Prints notes, then the detail line, then
/// the result line.
fn one_workload(f: &Flags) -> Result<bool, String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let traced = f.trace.ok_or("--trace is required (0 or 1)")?;
    let opts = options(f);
    let outcome = if traced {
        layers::run(name, &opts)?
    } else {
        e2e::run(name, &opts)?
    };
    for (k, v) in &outcome.notes {
        println!("{name}: {k}: {v}");
    }
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("list") => {
            for (name, why) in workload::WORKLOADS {
                println!("{name}: {why}");
            }
            return ExitCode::SUCCESS;
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        // Timings from an unoptimised build describe nothing a user runs.
        Some(_) if cfg!(debug_assertions) => {
            Err("built with debug assertions; build with --release to measure".to_string())
        }
        Some("run") => {
            parse_flags(&args[1..]).and_then(|f| run::run_all(&options(&f), f.out.as_deref()))
        }
        Some(_) => parse_flags(&args).and_then(|f| one_workload(&f)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs were wrong: the result line already says so.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let f = flags(&[
            "--workload",
            "hot_loop",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("hot_loop"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert!(!f.smoke);
        assert!(flags(&["--trace", "2"]).is_err());
        assert!(flags(&["--seconds", "0"]).is_err());
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["--wat"]).is_err());
    }

    #[test]
    fn defaults_match_benchmark_json() {
        let doc = jsonio::Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(jsonio::Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
