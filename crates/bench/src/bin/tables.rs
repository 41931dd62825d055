//! Regenerate the tables and figures of the evaluation that check a claim
//! of the paper, and check those claims.
//!
//! Usage: `cargo run --release -p bench --bin tables -- [experiment|all]`
//!
//! An experiment prints its table and returns the claims it checks, each
//! computed from deterministic counts except Fig 2.12's timing. A claim the
//! reproduction does not meet for a known reason is a documented deviation,
//! printed with that reason. Any other failed claim is printed again at the
//! end and the exit code is 1; so is an experiment that checked no claim.
//!
//! Experiments, each with the table or figure it reproduces and its claims:
//!   dep-tables           Tables 2.2/2.3: the worked example's carried deps
//!   fpr-fnr              Table 2.6: signature FPR falls as slots grow
//!   profiler-slowdown    Fig 2.9a: 8T and 16T find the serial deps, counted
//!   profiler-memory      Fig 2.9b: memory serial <= 8T <= 16T
//!   parallel-target      Fig 2.10/2.11: racy 8T = 16T = serial; race hints
//!   skip-slowdown        Fig 2.12: plan runs expanded vs resolved agree
//!   skip-stats           Table 2.7: >= 70% of dep-leading ops skipped
//!   skip-dep-types       Fig 2.13: RAW skips dominate; FT >= 10% WAW
//!   doall-nas            Table 4.1: >= 92.5% of NAS parallel loops found
//!   histogram-suggestions Table 4.3: loop verdicts; reduction on `hist`
//!   doacross             Table 4.4: hottest-loop verdicts; stages
//!   gzip-bzip2           Table 4.5: the per-block loop is DOALL
//!   bots-spmd            Table 4.6: every annotated BOTS verdict right
//!   mpmd                 Table 4.7: an MPMD task set in every program
//!   ranking              §4.4.5: the top-ranked target is parallel
//!   comm-pattern         Fig 5.1: cross-thread traffic; radix gathers
//!   fp-model             Eq 2.2: measured collisions <= predicted P_fp

use bench::{check_report, count_addresses, fmt_pct, fmt_x, native_time, time_median, Claim};
use discovery::ranking::SuggestionTarget;
use discovery::{Discovery, LoopClass, LoopResult};
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
        ("doall-nas", doall_nas),
        ("histogram-suggestions", histogram_suggestions),
        ("doacross", doacross),
        ("gzip-bzip2", gzip_bzip2),
        ("bots-spmd", bots_spmd),
        ("mpmd", mpmd),
        ("ranking", ranking),
        ("comm-pattern", comm_pattern),
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
    let (mut claims, mut silent) = (Vec::new(), Vec::new());
    for (name, f) in chosen {
        eprintln!(">>> {name}");
        let checked = f();
        if checked.is_empty() {
            silent.push(name);
        }
        println!("\nClaims checked:\n");
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
    for name in &silent {
        eprintln!("experiment `{name}` checked no claim");
    }
    if !failed.is_empty() || !silent.is_empty() {
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

/// Discovery's verdict for a loop: parallelizable as it stands or with a
/// reduction clause, the question a `LoopTruth` answers.
fn is_parallel(class: LoopClass) -> bool {
    matches!(class, LoopClass::Doall | LoopClass::Reduction)
}

/// Discovery on a workload's default profile.
fn discovered(w: &workloads::Workload) -> Discovery {
    let p = w.program().unwrap();
    let out = profile(&p);
    discovery::discover(&p, &out.deps, &out.pet)
}

/// The loop of `d` that starts on `marker`'s line of `w`.
fn loop_at<'d>(w: &workloads::Workload, d: &'d Discovery, marker: &str) -> &'d LoopResult {
    let line = w.line_of(marker).unwrap();
    d.loops.iter().find(|l| l.info.start_line == line).unwrap()
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
    let mut carried = Vec::new();
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
        if d.is_loop_carried() {
            carried.push(format!(
                "{} {} {}←{}",
                d.ty,
                p.symbol(d.var),
                d.sink.line,
                d.source.line
            ));
        }
    }
    carried.sort();
    let expected = ["RAW k 3←5", "RAW k 4←5", "RAW k 5←5", "RAW sum 4←4"];
    vec![Claim::check(
        format!(
            "Tables 2.2/2.3: the loop-carried dependences are exactly {} (found: {})",
            expected.join(", "),
            carried.join(", ")
        ),
        carried == expected,
    )]
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
        let (addrs, accesses) = count_addresses(&p).expect("runs");
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
    let (mut sums, mut same) = ([0.0f64; 3], 0);
    let ws = sequential_workloads(&[Suite::Nas, Suite::Starbench]);
    for w in &ws {
        let p = w.program().unwrap();
        let base = native_time(&p, 3).expect("runs").max(1e-7);
        let mut serial_out = None;
        let serial = time_median(3, || serial_out = Some(profile(&p)));
        let par = |workers: usize| {
            let mut out = None;
            let t = time_median(3, || {
                out = Some(profiler::profile_program_with(&p, &spawned_up_front(workers)).unwrap());
            });
            (t, out.unwrap())
        };
        let ((par8, out8), (par16, out16)) = (par(8), par(16));
        let serial_deps = serial_out.unwrap().deps.in_fold_order();
        same += usize::from(
            out8.deps.in_fold_order() == serial_deps && out16.deps.in_fold_order() == serial_deps,
        );
        let slows = [serial / base, par8 / base, par16 / base];
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
    vec![Claim::check(
        format!(
            "Fig 2.9a: the 8T and 16T runs find the serial run's dependences, with their counts ({same} of {} programs)",
            ws.len()
        ),
        same == ws.len(),
    )]
}

// ---- E5: Fig 2.9b ----
fn profiler_memory() -> Vec<Claim> {
    println!("\n## Fig 2.9b — profiler memory consumption (MB)\n");
    println!("| program | serial (perfect) | 8T lock-free | 16T lock-free |");
    println!("|---|---|---|---|");
    let ws = sequential_workloads(&[Suite::Nas, Suite::Starbench]);
    let (mut exact, mut monotone) = (0, 0);
    for w in &ws {
        let p = w.program().unwrap();
        let serial = profile(&p);
        let mb = |b: usize| b as f64 / 1e6;
        let par = |workers| profiler::profile_program_with(&p, &spawned_up_front(workers)).unwrap();
        let (par8, par16) = (par(8), par(16));
        monotone += usize::from(
            serial.profiler_bytes <= par8.profiler_bytes
                && par8.profiler_bytes <= par16.profiler_bytes,
        );
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
    vec![Claim::check(
        format!(
            "Fig 2.9b: memory grows with the worker count, serial <= 8T <= 16T ({monotone} of {} programs)",
            ws.len()
        ),
        monotone == ws.len(),
    )]
}

// ---- E6: Fig 2.10/2.11 ----
fn parallel_target() -> Vec<Claim> {
    println!("\n## Fig 2.10/2.11 — profiling multi-threaded targets (4-thread pthread-style)\n");
    println!("| program | slowdown 8T | slowdown 16T | memory 8T (MB) | memory 16T (MB) | cross-thread deps | race hints |");
    println!("|---|---|---|---|---|---|---|");
    let ws: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.parallel_target)
        .collect();
    let (mut same, mut hinted) = (0, Vec::new());
    for w in &ws {
        let p = w.program().unwrap();
        let base = native_time(&p, 3).expect("runs").max(1e-7);
        let run = |workers: usize| {
            let cfg = ProfileConfig {
                run: racy(),
                ..spawned_up_front(workers)
            };
            let mut out = None;
            let t = time_median(3, || {
                out = Some(profiler::profile_program_with(&p, &cfg).unwrap());
            });
            (t, out.unwrap())
        };
        let (t8, o8) = run(8);
        let (t16, o16) = run(16);
        let serial = profiler::profile_program_with(
            &p,
            &ProfileConfig {
                run: racy(),
                ..Default::default()
            },
        )
        .unwrap();
        let serial_deps = serial.deps.in_fold_order();
        same += usize::from(
            o8.deps.in_fold_order() == serial_deps && o16.deps.in_fold_order() == serial_deps,
        );
        let hints = o8.deps.race_hints().len();
        if hints > 0 {
            hinted.push(format!("{} ({hints})", w.name));
        }
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
            hints
        );
    }
    println!(
        "\n(paper: 346× at 8T, 261× at 16T; higher than sequential targets due to contention)"
    );
    println!("Here the target's threads run on the interpreter's one thread, which delivers");
    println!("their accesses racily into the 8 or 16 workers: one producer, so no producer");
    println!("contention, and the same dependences and race hints on every run.");
    vec![
        Claim::check(
            format!(
                "Fig 2.10/2.11: the 8T, 16T and serial runs under racy delivery find the same dependences, with their counts ({same} of {} programs)",
                ws.len()
            ),
            same == ws.len(),
        ),
        Claim::check(
            format!(
                "Fig 2.10/2.11: racy delivery reports race hints (in {})",
                hinted.join(", ")
            ),
            !hinted.is_empty(),
        ),
    ]
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
        let base = native_time(&p, 3).expect("runs").max(1e-7);
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

// ---- E10: Table 4.1 ----
fn doall_nas() -> Vec<Claim> {
    println!("\n## Table 4.1 — detection of parallelizable loops in NAS\n");
    println!("| program | annotated parallel | detected | missed | false positives |");
    println!("|---|---|---|---|---|");
    let mut tot = (0, 0, 0);
    for w in workloads::suite(Suite::Nas) {
        let d = discovered(&w);
        let mut row = (0, 0, 0);
        for t in w.truths {
            let det = is_parallel(loop_at(&w, &d, t.marker).class);
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
    let right = w
        .truths
        .iter()
        .filter(|t| is_parallel(loop_at(&w, &d, t.marker).class) == t.parallel)
        .count();
    let accumulation = loop_at(&w, &d, "i < 1024");
    vec![
        Claim::check(
            format!(
                "Table 4.3: every histogram loop's verdict matches its annotation ({right}/{})",
                w.truths.len()
            ),
            right == w.truths.len(),
        ),
        Claim::check(
            format!(
                "Table 4.3: the accumulation loop (line {}) is a reduction on `hist` ({:?} on [{}])",
                accumulation.info.start_line,
                accumulation.class,
                accumulation.reduction_vars.join(", ")
            ),
            accumulation.class == LoopClass::Reduction
                && accumulation.reduction_vars == ["hist"],
        ),
    ]
}

// ---- E13: Table 4.4 ----
fn doacross() -> Vec<Claim> {
    println!("\n## Table 4.4 — hottest-loop classification (Starbench + NAS)\n");
    println!("| program | hot loop line | iterations | class | pipeline stages |");
    println!("|---|---|---|---|---|");
    let ws = sequential_workloads(&[Suite::Starbench, Suite::Nas]);
    let (mut right, mut doacross, mut staged) = (0, 0, 0);
    for w in &ws {
        let d = discovered(w);
        if let Some(l) = d.loops.first() {
            println!(
                "| {} | {} | {} | {:?} | {} |",
                w.name, l.info.start_line, l.info.iters, l.class, l.pipeline_stages
            );
            let truth = w
                .truths
                .iter()
                .find(|t| w.line_of(t.marker) == Some(l.info.start_line));
            right += usize::from(truth.is_some_and(|t| is_parallel(l.class) == t.parallel));
            if l.class == LoopClass::Doacross {
                doacross += 1;
                staged += usize::from(l.pipeline_stages >= 1);
            }
        }
    }
    vec![
        Claim::check(
            format!(
                "Table 4.4: each hottest loop's verdict matches its annotation ({right}/{})",
                ws.len()
            ),
            right == ws.len(),
        ),
        Claim::check(
            format!(
                "Table 4.4: each DOACROSS hottest loop has at least one pipeline stage ({staged}/{doacross})"
            ),
            staged == doacross,
        ),
    ]
}

// ---- E14: Table 4.5 ----
fn gzip_bzip2() -> Vec<Claim> {
    println!("\n## Table 4.5 — gzip / bzip2 parallelization opportunities\n");
    let names = ["gzip", "bzip2"];
    let mut doall = 0;
    for name in names {
        let w = workloads::by_name(name).unwrap();
        let d = discovered(&w);
        let suggestions =
            d.loops.iter().filter(|l| is_parallel(l.class)).count() + d.spmd.len() + d.mpmd.len();
        let key = d.ranked.first();
        println!("### {name}");
        println!("- suggestions: {suggestions}");
        if let Some(k) = key {
            println!("- top-ranked: {:?} (score {:.3})", k.target, k.score);
        }
        let l = loop_at(&w, &d, if name == "gzip" { "b < 8" } else { "b < 4" });
        println!(
            "- per-block loop at line {}: {:?} — the pigz/bzip2smp-style key opportunity\n",
            l.info.start_line, l.class
        );
        doall += usize::from(l.class == LoopClass::Doall);
    }
    vec![Claim::check(
        format!(
            "Table 4.5: the per-block loop is DOALL in gzip and bzip2 ({doall}/{})",
            names.len()
        ),
        doall == names.len(),
    )]
}

// ---- E15: Table 4.6 ----
/// Call sites in sibling-call groups: each is one task of a fork–join.
fn sibling_tasks(d: &discovery::Discovery) -> usize {
    d.spmd
        .iter()
        .filter(|s| s.kind == discovery::SpmdKind::SiblingCalls)
        .map(|s| s.lines.len())
        .sum()
}

fn bots_spmd() -> Vec<Claim> {
    println!("\n## Table 4.6 — SPMD task detection in BOTS\n");
    println!("| program | loop tasks | sibling tasks | annotated verdicts correct |");
    println!("|---|---|---|---|");
    let (mut correct, mut annotated) = (0, 0);
    for w in workloads::suite(Suite::Bots) {
        let d = discovered(&w);
        let loops = d
            .spmd
            .iter()
            .filter(|s| s.kind == discovery::SpmdKind::LoopTask)
            .count();
        let mut right = 0;
        for t in w.truths {
            let line = w.line_of(t.marker).unwrap();
            if let Some(l) = d.loops.iter().find(|l| l.info.start_line == line) {
                right += usize::from(is_parallel(l.class) == t.parallel);
            }
        }
        println!(
            "| {} | {} | {} | {}/{} |",
            w.name,
            loops,
            sibling_tasks(&d),
            right,
            w.truths.len()
        );
        correct += right;
        annotated += w.truths.len();
    }
    println!("\n(paper: correct decisions on all 20 BOTS hot spots)");
    vec![Claim::check(
        format!("Table 4.6: every annotated BOTS verdict is correct ({correct}/{annotated})"),
        correct == annotated,
    )]
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
    let mut with_sets = 0;
    for name in names {
        let d = discovered(&workloads::by_name(name).unwrap());
        let largest = d.mpmd.iter().map(|m| m.tasks.len()).max().unwrap_or(0);
        println!(
            "| {} | {} | {} | {} |",
            name,
            d.mpmd.len(),
            largest,
            sibling_tasks(&d)
        );
        with_sets += usize::from(!d.mpmd.is_empty());
    }
    vec![Claim::check(
        format!(
            "Table 4.7: every listed program yields an MPMD task set ({with_sets}/{})",
            names.len()
        ),
        with_sets == names.len(),
    )]
}

// ---- E18: §4.4.5 ----
fn ranking() -> Vec<Claim> {
    println!("\n## §4.4.5 — ranking of parallelization targets\n");
    let names = ["CG", "MG", "kmeans"];
    let mut parallel_top = 0;
    for name in names {
        let d = discovered(&workloads::by_name(name).unwrap());
        parallel_top += usize::from(matches!(
            d.ranked.first().map(|r| &r.target),
            Some(SuggestionTarget::Loop { class, .. }) if is_parallel(*class)
        ));
        println!("### {name}");
        println!("| rank | target | coverage | local speedup | imbalance | score |");
        println!("|---|---|---|---|---|---|");
        for (i, r) in d.ranked.iter().take(5).enumerate() {
            let target = match &r.target {
                SuggestionTarget::Loop {
                    start_line, class, ..
                } => {
                    format!("loop@{start_line} {class:?}")
                }
                SuggestionTarget::TaskSet { spans, .. } => {
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
    vec![Claim::check(
        format!(
            "§4.4.5: the top-ranked target of CG, MG and kmeans is a DOALL or reduction loop ({parallel_top}/{})",
            names.len()
        ),
        parallel_top == names.len(),
    )]
}

// ---- E21: Fig 5.1 ----
fn comm_pattern() -> Vec<Claim> {
    println!("\n## Fig 5.1 — communication patterns (splash2x-style)\n");
    let names = ["barnes-par", "radix-par", "ocean-par"];
    let (mut communicating, mut radix) = (0, "");
    for name in names {
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
        communicating += usize::from(m.total() > 0);
        if name == "radix-par" {
            radix = m.pattern();
        }
    }
    vec![
        Claim::check(
            format!(
                "Fig 5.1: every matrix shows cross-thread communication ({communicating}/{})",
                names.len()
            ),
            communicating == names.len(),
        ),
        Claim::check(
            format!("Fig 5.1: radix-par's threads gather into thread 0 ({radix})"),
            radix == "gather",
        ),
    ]
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
        let (n, _) = count_addresses(&p).expect("runs");
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
