//! Regenerate every table and figure of the evaluation, and check the
//! paper's claims against them.
//!
//! Usage: `cargo run --release -p bench --bin tables -- [experiment|all]`
//!
//! An experiment prints its table and the claims it checks (Table 2.6,
//! Table 2.7, Figs 2.12/2.13, Table 4.1 and Eq 2.2 check the ones computed
//! from deterministic counts). A claim the reproduction does not meet for a
//! known reason is a documented deviation, printed with that reason. Any
//! other failed claim is printed again at the end and the exit code is 1.
//!
//! Experiments, each with the table or figure it reproduces:
//!   dep-tables           Tables 2.2-2.5 (worked examples)
//!   fpr-fnr              Table 2.6 (signature accuracy)
//!   profiler-slowdown    Fig 2.9a (serial vs lock-free; see the note it prints)
//!   profiler-memory      Fig 2.9b (memory consumption)
//!   parallel-target      Fig 2.10/2.11 (multi-threaded targets, racy delivery)
//!   skip-slowdown        Fig 2.12 (plan runs expanded vs resolved)
//!   skip-stats           Table 2.7 (skipped instruction statistics)
//!   skip-dep-types       Fig 2.13 (skip distribution by dep type)
//!   cu-graphs            Figs 3.6/3.7 (CU graph DOT export)
//!   doall-nas            Table 4.1 (NAS loop detection)
//!   textbook-speedup     Table 4.2 (measured suggestion speedups)
//!   histogram-suggestions Table 4.3
//!   doacross             Table 4.4
//!   gzip-bzip2           Table 4.5
//!   bots-spmd            Table 4.6
//!   mpmd                 Table 4.7
//!   facedetection-speedup Fig 4.11
//!   ranking              §4.4.5
//!   ml-doall             Tables 5.1-5.3
//!   stm                  Table 5.4
//!   comm-pattern         Fig 5.1
//!   cu-ablation          §3.2.3/§3.3 (top-down vs bottom-up granularity)
//!   fp-model             Eq 2.2 (estimated vs measured signature FPR)

use bench::{check_report, count_addresses, fmt_pct, fmt_x, native_time, time_median, Claim};
use interp::RunConfig;
use profiler::{EngineKind, ProfileConfig, Profiler};
use workloads::Suite;

/// An experiment prints its table or figure and returns the claims it
/// checked.
type Experiment = fn() -> Vec<Claim>;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let experiments: Vec<(&str, Experiment)> = vec![
        ("dep-tables", dep_tables),
        ("fpr-fnr", fpr_fnr),
        ("profiler-slowdown", profiler_slowdown),
        ("profiler-memory", profiler_memory),
        ("parallel-target", parallel_target),
        ("skip-slowdown", skip_slowdown),
        ("skip-stats", skip_stats),
        ("skip-dep-types", skip_dep_types),
        ("cu-graphs", cu_graphs),
        ("doall-nas", doall_nas),
        ("textbook-speedup", textbook_speedup),
        ("histogram-suggestions", histogram_suggestions),
        ("doacross", doacross),
        ("gzip-bzip2", gzip_bzip2),
        ("bots-spmd", bots_spmd),
        ("mpmd", mpmd),
        ("facedetection-speedup", facedetection_speedup),
        ("ranking", ranking),
        ("ml-doall", ml_doall),
        ("stm", stm),
        ("comm-pattern", comm_pattern),
        ("cu-ablation", cu_ablation),
        ("fp-model", fp_model),
    ];
    let chosen: Vec<_> = experiments
        .into_iter()
        .filter(|(n, _)| arg == "all" || *n == arg)
        .collect();
    if chosen.is_empty() {
        eprintln!("unknown experiment `{arg}`");
        std::process::exit(1);
    }
    let mut claims = Vec::new();
    for (name, f) in chosen {
        eprintln!(">>> {name}");
        let checked = f();
        if !checked.is_empty() {
            println!("\nClaims checked:\n");
        }
        for c in &checked {
            println!("- {c}");
        }
        claims.extend(checked);
    }
    let failed = check_report(&claims);
    eprintln!("\n{} claims checked, {} failed", claims.len(), failed.len());
    for line in &failed {
        eprintln!("{line}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

fn profile(p: &interp::Program) -> profiler::ProfileOutput {
    profiler::profile_program(p).expect("profiles")
}

fn sequential_workloads(suites: &[Suite]) -> Vec<workloads::Workload> {
    workloads::all()
        .into_iter()
        .filter(|w| suites.contains(&w.suite) && !w.parallel_target)
        .collect()
}

// ---- E1/E2: Tables 2.2-2.5 ----
fn dep_tables() -> Vec<Claim> {
    println!("\n## Tables 2.2/2.3 — worked-example dependences\n");
    let src = "fn main() -> int {\nint k = 5; int sum = 0;\nwhile (k > 0) {\nsum += k * 2;\nk = k - 1;\n}\nreturn sum;\n}";
    let p = interp::Program::new(lang::compile(src, "fig2_7").unwrap());
    let out = profile(&p);
    println!("Fig 2.7 loop (`sum += k * 2; k--`):\n");
    println!("| sink | type | source | variable | loop-carried |");
    println!("|---|---|---|---|---|");
    for d in out.deps.sorted() {
        if d.ty == profiler::DepType::Init {
            continue;
        }
        println!(
            "| {} | {} | {} | {} | {} |",
            d.sink,
            d.ty,
            d.source,
            p.symbol(d.var),
            if d.is_loop_carried() { "yes" } else { "no" }
        );
    }
    Vec::new()
}

// ---- E3: Table 2.6 ----
fn fpr_fnr() -> Vec<Claim> {
    println!("\n## Table 2.6 — signature accuracy on Starbench (FPR/FNR %)\n");
    let sizes = [256usize, 4096, 65536];
    println!("| program | #addresses | #accesses | #deps | FPR@{} | FNR@{} | FPR@{} | FNR@{} | FPR@{} | FNR@{} |",
        sizes[0], sizes[0], sizes[1], sizes[1], sizes[2], sizes[2]);
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut avg = vec![(0.0, 0.0); sizes.len()];
    let ws = sequential_workloads(&[Suite::Starbench]);
    let mut monotone = 0;
    for w in &ws {
        let p = w.program().unwrap();
        let (addrs, accesses) = count_addresses(&p);
        let perfect = profile(&p);
        let mut row = format!(
            "| {} | {} | {} | {} |",
            w.name,
            addrs,
            accesses,
            perfect.deps.len()
        );
        let mut fprs = Vec::with_capacity(sizes.len());
        for (i, &slots) in sizes.iter().enumerate() {
            let sig = profiler::profile_program_with(
                &p,
                &ProfileConfig {
                    engine: profiler::EngineKind::signature(slots),
                    ..Default::default()
                },
            )
            .unwrap();
            let (fpr, fnr) = sig.deps.accuracy_vs(&perfect.deps);
            fprs.push(fpr);
            avg[i].0 += fpr;
            avg[i].1 += fnr;
            row.push_str(&format!(" {:.2} | {:.2} |", fpr * 100.0, fnr * 100.0));
        }
        monotone += usize::from(fprs.windows(2).all(|f| f[1] <= f[0]));
        println!("{row}");
    }
    let n = ws.len() as f64;
    let mut row = "| **average** | | | |".to_string();
    for (fpr, fnr) in &avg {
        row.push_str(&format!(
            " {:.2} | {:.2} |",
            fpr / n * 100.0,
            fnr / n * 100.0
        ));
    }
    println!("{row}");
    println!("\n(paper: 24.47/5.42 at 1e6 slots, 4.71/0.71 at 1e7, 0.35/0.04 at 1e8 —");
    println!("our address counts are ~1e3, so sizes scale down by 1e3 to match load factors)");
    vec![Claim::check(
        format!(
            "Table 2.6: FPR does not increase as slots grow ({monotone} of {} rows)",
            ws.len()
        ),
        monotone == ws.len(),
    )]
}

/// The pipeline of Fig 2.9/2.10: `workers` consumers spawned before the
/// first access, whatever the host and the run's size.
fn spawned_up_front(workers: usize) -> ProfileConfig {
    ProfileConfig {
        engine: EngineKind::parallel(workers),
        spawn_threshold: 0,
        ..Default::default()
    }
}

/// How Fig 2.10/2.11 and Fig 5.1 deliver a multi-threaded target: each
/// target thread's events buffered and flushed at its synchronization
/// points, as real threads would deliver them (§2.3.4).
fn racy() -> RunConfig {
    RunConfig {
        racy_delivery: true,
        ..Default::default()
    }
}

// ---- E4: Fig 2.9a ----
fn profiler_slowdown() -> Vec<Claim> {
    println!("\n## Fig 2.9a — profiler slowdowns (NAS + Starbench)\n");
    println!("| program | serial | 8T lock-free | 16T lock-free |");
    println!("|---|---|---|---|");
    let mut sums = [0.0f64; 3];
    let ws = sequential_workloads(&[Suite::Nas, Suite::Starbench]);
    for w in &ws {
        let p = w.program().unwrap();
        let base = native_time(&p, 3).max(1e-7);
        let serial = time_median(3, || {
            profile(&p);
        });
        let par = |workers: usize| {
            time_median(3, || {
                profiler::profile_program_with(&p, &spawned_up_front(workers)).unwrap();
            })
        };
        let slows = [serial / base, par(8) / base, par(16) / base];
        for (s, v) in sums.iter_mut().zip(slows) {
            *s += v;
        }
        println!(
            "| {} | {} | {} | {} |",
            w.name,
            fmt_x(slows[0]),
            fmt_x(slows[1]),
            fmt_x(slows[2])
        );
    }
    let n = ws.len() as f64;
    println!(
        "| **average** | {} | {} | {} |",
        fmt_x(sums[0] / n),
        fmt_x(sums[1] / n),
        fmt_x(sums[2] / n)
    );
    println!("\n(paper averages: serial 190×, 8T lock-free ~97-101×, 16T lock-free 78-93×,");
    println!("lock-based ~1.3-1.6× slower than lock-free)");
    println!("\nThe figure's 8T lock-based column is not reproduced: the mutex-guarded queue was");
    println!("the slower baseline by construction and no engine selected it, so PR 23 removed it.");
    println!("The serial column is `profile_program`: the engine `auto_for` picks, an exact");
    println!("page-table shadow below 2^18 words of footprint, a signature above (Fig 2.9b");
    println!("counts which). The parallel columns' partitions follow the same footprint rule.");
    Vec::new()
}

// ---- E5: Fig 2.9b ----
fn profiler_memory() -> Vec<Claim> {
    println!("\n## Fig 2.9b — profiler memory consumption (MB)\n");
    println!("| program | serial (perfect) | 8T lock-free | 16T lock-free |");
    println!("|---|---|---|---|");
    let ws = sequential_workloads(&[Suite::Nas, Suite::Starbench]);
    let mut exact = 0;
    for w in &ws {
        let p = w.program().unwrap();
        let serial = profile(&p);
        let mb = |b: usize| b as f64 / 1e6;
        let par = |workers| profiler::profile_program_with(&p, &spawned_up_front(workers)).unwrap();
        let (par8, par16) = (par(8), par(16));
        exact += usize::from(
            EngineKind::parallel(16).dials(p.footprint_words()).tier
                == profiler::ShadowTier::Perfect,
        );
        println!(
            "| {} | {:.1} | {:.1} | {:.1} |",
            w.name,
            mb(serial.profiler_bytes),
            mb(par8.profiler_bytes),
            mb(par16.profiler_bytes)
        );
    }
    println!(
        "\n(tracked bytes at the end of each run: shadow maps, dependence sets and the instance"
    );
    println!(
        "table. {exact} of {} programs fit {} footprint words, so their partitions are exact",
        ws.len(),
        EngineKind::AUTO_PERFECT_MAX_WORDS
    );
    println!("page-table shadows: memory follows the pages each partition touches, not worker");
    println!("count × signature size as with the paper's signature partitions)");
    Vec::new()
}

// ---- E6: Fig 2.10/2.11 ----
fn parallel_target() -> Vec<Claim> {
    println!("\n## Fig 2.10/2.11 — profiling multi-threaded targets (4-thread pthread-style)\n");
    println!("| program | slowdown 8T | slowdown 16T | memory 8T (MB) | memory 16T (MB) | cross-thread deps | race hints |");
    println!("|---|---|---|---|---|---|---|");
    for w in workloads::all().into_iter().filter(|w| w.parallel_target) {
        let p = w.program().unwrap();
        let base = native_time(&p, 3).max(1e-7);
        let run = |workers: usize| {
            let cfg = ProfileConfig {
                run: racy(),
                ..spawned_up_front(workers)
            };
            let t = time_median(3, || {
                profiler::profile_program_with(&p, &cfg).unwrap();
            });
            (t, profiler::profile_program_with(&p, &cfg).unwrap())
        };
        let (t8, o8) = run(8);
        let (t16, o16) = run(16);
        let cross = o8
            .deps
            .sorted()
            .iter()
            .filter(|d| d.is_cross_thread())
            .count();
        println!(
            "| {} | {} | {} | {:.1} | {:.1} | {} | {} |",
            w.name,
            fmt_x(t8 / base),
            fmt_x(t16 / base),
            o8.profiler_bytes as f64 / 1e6,
            o16.profiler_bytes as f64 / 1e6,
            cross,
            o8.deps.race_hints().len()
        );
    }
    println!(
        "\n(paper: 346× at 8T, 261× at 16T; higher than sequential targets due to contention)"
    );
    println!("Here the target's threads run on the interpreter's one thread, which delivers");
    println!("their accesses racily into the 8 or 16 workers: one producer, so no producer");
    println!("contention, and the same dependences and race hints on every run.");
    Vec::new()
}

// ---- E7: Fig 2.12 ----
/// The default profiler with every plan run expanded access by access:
/// §2.4 as the per-op memo alone, without resolving runs in closed form.
fn expanded_profile(p: &interp::Program) -> profiler::ProfileOutput {
    let cfg = ProfileConfig::default();
    let mut sink = bench::Expanding(Profiler::new(p.mem_op_meta(), p.footprint_words(), &cfg));
    let r = interp::run_with_config(p, &mut sink, cfg.run).expect("runs");
    sink.0.finish(r.steps)
}

fn skip_slowdown() -> Vec<Claim> {
    println!("\n## Fig 2.12 — skipping repeatedly-executed memory operations\n");
    println!("| program | DiscoPoP | DiscoPoP+opt | time reduction | cycles resolved |");
    println!("|---|---|---|---|---|");
    let ws = sequential_workloads(&[Suite::Nas, Suite::Starbench]);
    let (mut reds, mut same) = (Vec::new(), 0);
    for w in &ws {
        let p = w.program().unwrap();
        let base = native_time(&p, 3).max(1e-7);
        let mut plain_out = None;
        let plain = time_median(3, || plain_out = Some(expanded_profile(&p)));
        let mut opt_out = None;
        let opt = time_median(3, || opt_out = Some(profile(&p)));
        let (plain_out, opt_out) = (plain_out.unwrap(), opt_out.unwrap());
        same += usize::from(plain_out.deps.iter().eq(opt_out.deps.iter()));
        let red = 1.0 - opt / plain;
        reds.push(red);
        println!(
            "| {} | {} | {} | {} | {:.1}% |",
            w.name,
            fmt_x(plain / base),
            fmt_x(opt / base),
            fmt_pct(red),
            opt_out.plan_runs.resolved_pct()
        );
    }
    let avg = reds.iter().sum::<f64>() / reds.len() as f64;
    println!("| **average reduction** | | | {} | |", fmt_pct(avg));
    println!("\n(paper: 31.1%-52.0% reduction, 41.3% on average)");
    println!("DiscoPoP is the default profiler with every plan run expanded access by access;");
    println!("DiscoPoP+opt resolves the runs in closed form (`profile_program`). Both skip");
    println!("through the per-op memo. Programs whose loops yield no plan runs read noise.");
    vec![
        Claim::check(
            format!(
                "Fig 2.12: both sides build identical DepSet::iter() sequences ({same} of {} programs)",
                ws.len()
            ),
            same == ws.len(),
        ),
        Claim::check(
            format!("Fig 2.12: the optimization reduces profiling time ({} on average)", fmt_pct(avg)),
            avg > 0.0,
        )
        .or_deviation(
            "wall time on runs of milliseconds; per-program rows are noise-level, so timing never gates",
        ),
    ]
}

// ---- E8: Table 2.7 ----
/// The per-op memo's repeats (§2.4's skips) of the default profile of every
/// sequential NAS and Starbench program.
fn skip_counts() -> Vec<(&'static str, profiler::SkipStats)> {
    sequential_workloads(&[Suite::Nas, Suite::Starbench])
        .into_iter()
        .map(|w| (w.name, profile(&w.program().unwrap()).skip_stats))
        .collect()
}

fn skip_stats() -> Vec<Claim> {
    println!("\n## Table 2.7 — skipped dependence-leading memory instructions\n");
    println!("| program | read total | read skip % | write total | write skip % | total skip % |");
    println!("|---|---|---|---|---|---|");
    let (mut rs, mut ws, mut ts) = (Vec::new(), Vec::new(), Vec::new());
    for (name, s) in skip_counts() {
        rs.push(s.read_skip_pct());
        ws.push(s.write_skip_pct());
        ts.push(s.total_skip_pct());
        println!(
            "| {} | {} | {:.2} | {} | {:.2} | {:.2} |",
            name,
            s.read_dep_total,
            s.read_skip_pct(),
            s.write_dep_total,
            s.write_skip_pct(),
            s.total_skip_pct()
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "| **average** | | {:.2} | | {:.2} | {:.2} |",
        avg(&rs),
        avg(&ws),
        avg(&ts)
    );
    println!("\n(paper averages: reads 82.08%, writes 66.56%, total 80.06%)");
    println!("A skip here is a repeat of the op's memo entry: the access built the very merged");
    println!("dependence its op built last time. The paper matches an op's address and shadow");
    println!("status instead, so an op sweeping an array skips here and not there.");
    vec![Claim::check(
        format!("Table 2.7: at least 70% of dependence-leading instructions are skipped on average ({:.2}%)", avg(&ts)),
        avg(&ts) >= 70.0,
    )]
}

// ---- E9: Fig 2.13 ----
fn skip_dep_types() -> Vec<Claim> {
    println!("\n## Fig 2.13 — skipped instructions by dependence type (%)\n");
    println!("| program | RAW_skip | WAR_skip | WAW_skip |");
    println!("|---|---|---|---|");
    let rows = skip_counts();
    let (mut raw_first, mut ft_waw) = (0, None);
    for (name, s) in &rows {
        let total = (s.skipped_raw + s.skipped_war + s.skipped_waw).max(1) as f64;
        let share = |n: u64| n as f64 / total * 100.0;
        raw_first += usize::from(s.skipped_raw >= s.skipped_war.max(s.skipped_waw));
        if *name == "FT" {
            ft_waw = Some(share(s.skipped_waw));
        }
        println!(
            "| {} | {:.2} | {:.2} | {:.2} |",
            name,
            share(s.skipped_raw),
            share(s.skipped_war),
            share(s.skipped_waw)
        );
    }
    println!("\n(paper: RAW dominates everywhere; FT shows >10% WAW due to the dummy variable)");
    let ft_waw = ft_waw.unwrap_or(0.0);
    vec![
        Claim::check(
            format!(
                "Fig 2.13: RAW is the largest share ({raw_first} of {} rows)",
                rows.len()
            ),
            raw_first == rows.len(),
        ),
        Claim::check(
            format!("Fig 2.13: FT's WAW share is at least 10% ({ft_waw:.2}%)"),
            ft_waw >= 10.0,
        ),
    ]
}

// ---- E22: Figs 3.6/3.7 ----
fn cu_graphs() -> Vec<Claim> {
    println!("\n## Figs 3.6/3.7 — CU graphs (DOT)\n");
    std::fs::create_dir_all("target/cu-graphs").ok();
    for name in ["rot-cc", "CG"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profile(&p);
        let g = cu::build_cu_graph_fine(&cu::CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: Some(&out.pet),
        });
        let dot = cu::graph::to_dot(&g, name, &|i, c: &cu::Cu| {
            format!("CU{i} {}..{}", c.start_line, c.end_line)
        });
        let path = format!("target/cu-graphs/{name}.dot");
        std::fs::write(&path, &dot).unwrap();
        println!(
            "- `{name}`: {} CUs, {} edges → {path}",
            g.len(),
            g.edges.len()
        );
    }
    Vec::new()
}

// ---- E10: Table 4.1 ----
fn doall_nas() -> Vec<Claim> {
    println!("\n## Table 4.1 — detection of parallelizable loops in NAS\n");
    println!("| program | annotated parallel | detected | missed | false positives |");
    println!("|---|---|---|---|---|");
    let mut tot = (0, 0, 0);
    for w in workloads::suite(Suite::Nas) {
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let mut row = (0, 0, 0);
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            let l = d.loops.iter().find(|l| l.info.start_line == line).unwrap();
            let det = matches!(
                l.class,
                discovery::LoopClass::Doall | discovery::LoopClass::Reduction
            );
            if t.parallel {
                row.0 += 1;
                if det {
                    row.1 += 1;
                }
            } else if det {
                row.2 += 1;
            }
        }
        tot.0 += row.0;
        tot.1 += row.1;
        tot.2 += row.2;
        println!(
            "| {} | {} | {} | {} | {} |",
            w.name,
            row.0,
            row.1,
            row.0 - row.1,
            row.2
        );
    }
    println!(
        "| **total** | {} | {} ({:.1}%) | {} | {} |",
        tot.0,
        tot.1,
        tot.1 as f64 / tot.0 as f64 * 100.0,
        tot.0 - tot.1,
        tot.2
    );
    println!("\n(paper: 92.5% of the parallelized NAS loops identified)");
    let recall = tot.1 as f64 / tot.0 as f64 * 100.0;
    vec![Claim::check(
        format!(
            "Table 4.1: at least 92.5% of the annotated parallel loops are detected ({recall:.1}%)"
        ),
        recall >= 92.5,
    )]
}

// ---- E11: Table 4.2 ----
fn textbook_speedup() -> Vec<Claim> {
    println!("\n## Table 4.2 — measured speedups of suggested parallelizations (4 threads)\n");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    println!("| program | sequential (ms) | parallel (ms) | speedup |");
    println!("|---|---|---|---|");
    use workloads::native::*;
    type Case = (&'static str, Box<dyn Fn() + Sync>, Box<dyn Fn() + Sync>);
    let cases: Vec<Case> = vec![
        (
            "mandelbrot",
            Box::new(|| {
                std::hint::black_box(mandelbrot_seq(640, 480, 256));
            }),
            Box::new(|| {
                std::hint::black_box(mandelbrot_par(640, 480, 256));
            }),
        ),
        (
            "matmul",
            Box::new(|| {
                let n = 320;
                let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
                let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64).collect();
                std::hint::black_box(matmul_seq(&a, &b, n));
            }),
            Box::new(|| {
                let n = 320;
                let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
                let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64).collect();
                std::hint::black_box(matmul_par(&a, &b, n));
            }),
        ),
        (
            "histogram",
            Box::new(|| {
                let data: Vec<u8> = (0..8_000_000u64).map(|i| (i * 31 % 251) as u8).collect();
                std::hint::black_box(histogram_seq(&data));
            }),
            Box::new(|| {
                let data: Vec<u8> = (0..8_000_000u64).map(|i| (i * 31 % 251) as u8).collect();
                std::hint::black_box(histogram_par(&data));
            }),
        ),
        (
            "mergesort",
            Box::new(|| {
                let mut v: Vec<i64> = (0..2_000_000)
                    .map(|i| (i * 7919 % 1_000_003) as i64)
                    .collect();
                mergesort_seq(&mut v);
                std::hint::black_box(v);
            }),
            Box::new(|| {
                let mut v: Vec<i64> = (0..2_000_000)
                    .map(|i| (i * 7919 % 1_000_003) as i64)
                    .collect();
                mergesort_par(&mut v);
                std::hint::black_box(v);
            }),
        ),
        (
            "pi",
            Box::new(|| {
                std::hint::black_box(pi_seq(20_000_000));
            }),
            Box::new(|| {
                std::hint::black_box(pi_par(20_000_000));
            }),
        ),
        (
            "nbody",
            Box::new(|| {
                let n = 2000;
                let mut p: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
                let mut v = vec![0.0; n];
                nbody_seq(&mut p, &mut v, 10);
                std::hint::black_box(p);
            }),
            Box::new(|| {
                let n = 2000;
                let mut p: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
                let mut v = vec![0.0; n];
                nbody_par(&mut p, &mut v, 10);
                std::hint::black_box(p);
            }),
        ),
    ];
    for (name, seq, par) in cases {
        let t_seq = time_median(3, seq);
        let t_par = pool.install(|| time_median(3, par));
        println!(
            "| {} | {:.1} | {:.1} | {} |",
            name,
            t_seq * 1e3,
            t_par * 1e3,
            fmt_x(t_seq / t_par)
        );
    }
    println!("\n(paper Table 4.2: speedups between ~1.5× and ~3.9× with four threads)");
    Vec::new()
}

// ---- E12: Table 4.3 ----
fn histogram_suggestions() -> Vec<Claim> {
    println!("\n## Table 4.3 — suggestions for the histogram program\n");
    let w = workloads::by_name("histogram").unwrap();
    let p = w.program().unwrap();
    let out = profile(&p);
    let d = discovery::discover(&p, &out.deps, &out.pet);
    println!("| loop line | classification | reduction vars | privatization | blocking deps |");
    println!("|---|---|---|---|---|");
    for l in &d.loops {
        let privs = discovery::doall::privatization_candidates(&p, &out.deps, &l.info);
        println!(
            "| {} | {:?} | {} | {} | {} |",
            l.info.start_line,
            l.class,
            l.reduction_vars.join(", "),
            privs.join(", "),
            l.blocking.len()
        );
    }
    Vec::new()
}

// ---- E13: Table 4.4 ----
fn doacross() -> Vec<Claim> {
    println!("\n## Table 4.4 — hottest-loop classification (Starbench + NAS)\n");
    println!("| program | hot loop line | iterations | class | pipeline stages |");
    println!("|---|---|---|---|---|");
    for w in sequential_workloads(&[Suite::Starbench, Suite::Nas]) {
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        if let Some(l) = d.loops.first() {
            println!(
                "| {} | {} | {} | {:?} | {} |",
                w.name, l.info.start_line, l.info.iters, l.class, l.pipeline_stages
            );
        }
    }
    Vec::new()
}

// ---- E14: Table 4.5 ----
fn gzip_bzip2() -> Vec<Claim> {
    println!("\n## Table 4.5 — gzip / bzip2 parallelization opportunities\n");
    for name in ["gzip", "bzip2"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let suggestions = d
            .loops
            .iter()
            .filter(|l| {
                matches!(
                    l.class,
                    discovery::LoopClass::Doall | discovery::LoopClass::Reduction
                )
            })
            .count()
            + d.spmd.len()
            + d.mpmd.len();
        let key = d.ranked.first();
        println!("### {name}");
        println!("- suggestions: {suggestions}");
        if let Some(k) = key {
            println!("- top-ranked: {:?} (score {:.3})", k.target, k.score);
        }
        let block_loop = w
            .line_of(if name == "gzip" { "b < 8" } else { "b < 4" })
            .unwrap();
        let l = d
            .loops
            .iter()
            .find(|l| l.info.start_line == block_loop)
            .unwrap();
        println!(
            "- per-block loop at line {block_loop}: {:?} — the pigz/bzip2smp-style key opportunity\n",
            l.class
        );
    }
    Vec::new()
}

// ---- E15: Table 4.6 ----
fn bots_spmd() -> Vec<Claim> {
    println!("\n## Table 4.6 — SPMD task detection in BOTS\n");
    println!("| program | loop tasks | sibling tasks | annotated verdicts correct |");
    println!("|---|---|---|---|");
    for w in workloads::suite(Suite::Bots) {
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let loops = d
            .spmd
            .iter()
            .filter(|s| s.kind == discovery::SpmdKind::LoopTask)
            .count();
        let sib = d
            .spmd
            .iter()
            .filter(|s| s.kind == discovery::SpmdKind::SiblingCalls)
            .count();
        let mut correct = 0;
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            if let Some(l) = d.loops.iter().find(|l| l.info.start_line == line) {
                let par = matches!(
                    l.class,
                    discovery::LoopClass::Doall | discovery::LoopClass::Reduction
                );
                if par == t.parallel {
                    correct += 1;
                }
            }
        }
        println!(
            "| {} | {} | {} | {}/{} |",
            w.name,
            loops,
            sib,
            correct,
            w.truths.len()
        );
    }
    println!("\n(paper: correct decisions on all 20 BOTS hot spots)");
    Vec::new()
}

// ---- E16: Table 4.7 ----
fn mpmd() -> Vec<Claim> {
    println!("\n## Table 4.7 — MPMD task detection (PARSEC, libVorbis, FaceDetection)\n");
    println!("| program | MPMD task sets | largest set | sibling-call tasks |");
    println!("|---|---|---|---|");
    let names = [
        "blackscholes",
        "swaptions",
        "dedup",
        "ferret",
        "libvorbis",
        "facedetection",
    ];
    for name in names {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let largest = d.mpmd.iter().map(|m| m.tasks.len()).max().unwrap_or(0);
        let sib = d
            .spmd
            .iter()
            .filter(|s| s.kind == discovery::SpmdKind::SiblingCalls)
            .count();
        println!("| {} | {} | {} | {} |", name, d.mpmd.len(), largest, sib);
    }
    Vec::new()
}

// ---- E17: Fig 4.11 ----
fn facedetection_speedup() -> Vec<Claim> {
    println!("\n## Fig 4.11 — FaceDetection task-graph speedups\n");
    use workloads::native::{face_detection_pipeline, FaceDetectInput};
    let input = FaceDetectInput {
        frames: 64,
        side: 256,
        scales: 16,
    };
    let t1 = time_median(3, || {
        std::hint::black_box(face_detection_pipeline(input, 1));
    });
    println!("| threads | time (ms) | speedup |");
    println!("|---|---|---|");
    println!("| 1 | {:.1} | 1.0× |", t1 * 1e3);
    for threads in [2usize, 4, 8, 16, 32] {
        let t = time_median(3, || {
            std::hint::black_box(face_detection_pipeline(input, threads));
        });
        println!("| {threads} | {:.1} | {} |", t * 1e3, fmt_x(t1 / t));
    }
    println!("\n(paper: speedup 9.92 at 32 threads on a 32-core machine; shape depends on cores available)");
    Vec::new()
}

// ---- E18: §4.4.5 ----
fn ranking() -> Vec<Claim> {
    println!("\n## §4.4.5 — ranking of parallelization targets\n");
    for name in ["CG", "MG", "kmeans"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profile(&p);
        let d = discovery::discover(&p, &out.deps, &out.pet);
        println!("### {name}");
        println!("| rank | target | coverage | local speedup | imbalance | score |");
        println!("|---|---|---|---|---|---|");
        for (i, r) in d.ranked.iter().take(5).enumerate() {
            let target = match &r.target {
                discovery::ranking::SuggestionTarget::Loop {
                    start_line, class, ..
                } => {
                    format!("loop@{start_line} {class:?}")
                }
                discovery::ranking::SuggestionTarget::TaskSet { spans, .. } => {
                    format!("tasks {spans:?}")
                }
            };
            println!(
                "| {} | {} | {} | {:.1} | {:.2} | {:.4} |",
                i + 1,
                target,
                fmt_pct(r.ranking.instruction_coverage),
                r.ranking.local_speedup,
                r.ranking.cu_imbalance,
                r.score
            );
        }
        println!();
    }
    Vec::new()
}

// ---- E19: Tables 5.1-5.3 ----
fn ml_doall() -> Vec<Claim> {
    println!("\n## Tables 5.1-5.3 — ML classification of DOALL loops\n");
    // Dataset: every annotated loop across all sequential suites.
    let mut data = apps::Dataset::default();
    for w in workloads::all().into_iter().filter(|w| !w.parallel_target) {
        let p = w.program().unwrap();
        let out = profile(&p);
        let loops = discovery::hot_loops(&p, &out.pet);
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            if let Some(info) = loops.iter().find(|l| l.start_line == line) {
                if info.iters == 0 {
                    continue;
                }
                data.samples.push(apps::Sample {
                    x: apps::ml::extract(&p, &out.deps, info),
                    y: t.parallel,
                });
            }
        }
    }
    println!(
        "dataset: {} labelled loops (Table 5.1 features)\n",
        data.samples.len()
    );
    let (train, test) = data.split(4);
    let model = apps::AdaBoost::train(&train, 20);
    println!("### Table 5.2 — feature importance\n");
    println!("| feature | importance |");
    println!("|---|---|");
    let imp = model.feature_importance();
    let mut order: Vec<usize> = (0..apps::ml::NUM_FEATURES).collect();
    order.sort_by(|&a, &b| imp[b].total_cmp(&imp[a]));
    for f in order {
        println!("| {} | {:.3} |", apps::ml::FEATURE_NAMES[f], imp[f]);
    }
    println!("\n### Table 5.3 — held-out classification scores\n");
    let s_train = model.evaluate(&train);
    let s_test = model.evaluate(&test);
    println!("| split | accuracy | precision | recall | F1 |");
    println!("|---|---|---|---|---|");
    println!(
        "| train | {:.3} | {:.3} | {:.3} | {:.3} |",
        s_train.accuracy, s_train.precision, s_train.recall, s_train.f1
    );
    println!(
        "| test | {:.3} | {:.3} | {:.3} | {:.3} |",
        s_test.accuracy, s_test.precision, s_test.recall, s_test.f1
    );
    Vec::new()
}

// ---- E20: Table 5.4 ----
fn stm() -> Vec<Claim> {
    println!("\n## Table 5.4 — transaction candidates in NAS\n");
    println!("| program | transactions | total atomic lines | largest write set |");
    println!("|---|---|---|---|");
    for w in workloads::suite(Suite::Nas) {
        let p = w.program().unwrap();
        let out = profile(&p);
        let loops: Vec<discovery::LoopResult> = discovery::hot_loops(&p, &out.pet)
            .into_iter()
            .map(|l| discovery::analyze_loop(&p, &out.deps, &l))
            .collect();
        let txs = apps::transactions_for(&p, &out.deps, &loops);
        let lines: usize = txs.iter().map(|t| t.lines.len()).sum();
        let maxw = txs.iter().map(|t| t.write_set).max().unwrap_or(0);
        println!("| {} | {} | {} | {} |", w.name, txs.len(), lines, maxw);
    }
    Vec::new()
}

// ---- E21: Fig 5.1 ----
fn comm_pattern() -> Vec<Claim> {
    println!("\n## Fig 5.1 — communication patterns (splash2x-style)\n");
    for name in ["barnes-par", "radix-par", "ocean-par"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let cfg = ProfileConfig {
            run: racy(),
            ..spawned_up_front(4)
        };
        let out = profiler::profile_program_with(&p, &cfg).unwrap();
        let m = apps::comm_matrix(&out.deps, 5);
        println!("### {name}\n```");
        print!("{}", apps::render_matrix(&m));
        println!("```");
    }
    Vec::new()
}

// ---- Ablation: §3.2.3/§3.3 — top-down vs bottom-up CU granularity ----
fn cu_ablation() -> Vec<Claim> {
    println!("\n## §3.2.3/§3.3 ablation — CU construction granularity\n");
    println!("| program | top-down CUs | fine top-down CUs | bottom-up CUs (hot loop) |");
    println!("|---|---|---|---|");
    for name in ["rot-cc", "CG", "kmeans", "histogram"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let out = profile(&p);
        let input = cu::CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: Some(&out.pet),
        };
        let coarse = cu::build_cu_graph(&input);
        let fine = cu::build_cu_graph_fine(&input);
        let hot = discovery::hot_loops(&p, &out.pet);
        let bu = hot
            .first()
            .map(|l| cu::build_cus_bottom_up(&p, &out.deps, l.func, l.start_line, l.end_line).len())
            .unwrap_or(0);
        println!("| {} | {} | {} | {} |", name, coarse.len(), fine.len(), bu);
    }
    println!("\n(the dissertation's finding: bottom-up CUs are \"too fine to discover");
    println!("coarse-grained parallel tasks\"; the top-down approach stays coarse and");
    println!("only refines where read-compute-write is violated)");
    Vec::new()
}

// ---- Eq 2.2 — estimated vs measured false-positive probability ----
fn fp_model() -> Vec<Claim> {
    println!("\n## Eq 2.2 — signature false-positive model vs measurement\n");
    println!(
        "| program | #addresses n | slots m | predicted P_fp | measured slot-collision rate |"
    );
    println!("|---|---|---|---|---|");
    let (mut rows, mut bounded) = (0, 0);
    for name in ["kmeans", "c-ray", "rotate"] {
        let w = workloads::by_name(name).unwrap();
        let p = w.program().unwrap();
        let (n, _) = count_addresses(&p);
        for m in [512usize, 4096, 32768] {
            let predicted = profiler::estimated_fp_rate(m, n);
            // Measured: fraction of addresses whose slot is shared.
            struct AddrSink(std::collections::HashSet<u64>);
            impl interp::Sink for AddrSink {
                fn event(&mut self, ev: &interp::Event) {
                    if let interp::Event::Mem(mv) = ev {
                        self.0.insert(mv.addr);
                    }
                }
            }
            let mut sink = AddrSink(Default::default());
            interp::run(&p, &mut sink).unwrap();
            let mut sig = profiler::SignatureMap::new(m);
            for &a in &sink.0 {
                use profiler::AccessMap;
                sig.entry(a).write = profiler::Cell {
                    ts: 0,
                    op: 0,
                    instance: u32::MAX,
                    iter: 0,
                    thread: 0,
                };
            }
            let occupied = sig.occupied();
            let collided = sink.0.len().saturating_sub(occupied);
            let measured = collided as f64 / sink.0.len().max(1) as f64;
            rows += 1;
            bounded += usize::from(measured <= predicted);
            println!(
                "| {} | {} | {} | {:.3} | {:.3} |",
                name, n, m, predicted, measured
            );
        }
    }
    println!("\n(Eq 2.2: P = 1 - (1 - 1/m)^n; the measured rate tracks the prediction)");
    vec![Claim::check(
        format!("Eq 2.2: the measured collision rate is at most the predicted P_fp ({bounded} of {rows} rows)"),
        bounded == rows,
    )]
}
