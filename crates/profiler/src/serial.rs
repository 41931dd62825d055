//! The serial engine kinds — one partition, no workers — as the reference
//! all parallel variants must agree with (§2.3.3 "the same data dependences
//! as the serial version"): their end-to-end tests, and the control spans
//! the text renderer needs.

use crate::dep::ControlSpan;
use crate::pet::Pet;
use interp::Program;

/// Build `BGN`/`END` control spans for the text renderer from a program's
/// loop regions and the PET's iteration counts.
pub fn control_spans(prog: &Program, pet: &Pet) -> Vec<ControlSpan> {
    let agg = pet.loops_aggregated();
    let mut spans = Vec::new();
    for (fi, f) in prog.module.functions.iter().enumerate() {
        for (ri, r) in f.regions.iter().enumerate() {
            if r.kind == mir::RegionKind::Loop {
                let iters = agg
                    .get(&(fi as u32, ri as u32))
                    .map(|(_, it, _)| *it)
                    .unwrap_or(0);
                spans.push(ControlSpan {
                    kind: "loop",
                    start: r.start_line,
                    end: r.end_line,
                    iters,
                });
            }
        }
    }
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::DepType;
    use crate::run::{
        profile_program, profile_program_with, EngineKind, ProfileConfig, ProfileOutput,
    };

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    /// Fig. 2.7 / Table 2.2: `while (k > 0) { sum += k * 2; k--; }`.
    ///
    /// Table 2.2 idealizes WAR detection (it lists a WAR from the write of
    /// `k` to *every* preceding read); the signature of Algorithm 2 keeps a
    /// single read slot per address, so the profiler reports the WAR
    /// against the most recent read. All RAW (true) dependences of the
    /// table — the ones parallelism discovery consumes — are reproduced
    /// exactly, including their loop-carried tags.
    #[test]
    fn fig_2_7_dependences() {
        let p = program(
            "fn main() -> int {\nint k = 5; int sum = 0;\nwhile (k > 0) {\nsum += k * 2;\nk = k - 1;\n}\nreturn sum;\n}",
        );
        // line 3 = while header, 4 = sum +=, 5 = k = k - 1
        let out = profile_program(&p).unwrap();
        let deps = out.deps.sorted();
        let has = |sink: u32, ty: DepType, source: u32, var: &str, carried: bool| {
            deps.iter().any(|d| {
                d.sink.line == sink
                    && d.ty == ty
                    && d.source.line == source
                    && d.var != u32::MAX
                    && p.symbol(d.var) == var
                    && d.is_loop_carried() == carried
            })
        };
        // WARs against the most recent read (intra-iteration).
        assert!(
            has(4, DepType::War, 4, "sum", false),
            "WAR sum@4<-4: {deps:?}"
        );
        assert!(has(5, DepType::War, 5, "k", false), "WAR k 5<-5");
        // Loop-carried RAWs (Table 2.2 rows 5-8).
        assert!(has(3, DepType::Raw, 5, "k", true), "RAW k 3<-5 (carried)");
        assert!(
            has(4, DepType::Raw, 4, "sum", true),
            "RAW sum 4<-4 (carried)"
        );
        assert!(has(4, DepType::Raw, 5, "k", true), "RAW k 4<-5 (carried)");
        assert!(has(5, DepType::Raw, 5, "k", true), "RAW k 5<-5 (carried)");
        // Intra-iteration RAWs from the initializers.
        assert!(has(4, DepType::Raw, 2, "sum", false), "RAW sum 4<-2");
        assert_eq!(out.printed.len(), 0);
    }

    #[test]
    fn parallel_loop_has_no_carried_raw() {
        let p = program(
            "global int a[64];\nglobal int b[64];\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nb[i] = a[i] * 2;\n}\n}",
        );
        let out = profile_program(&p).unwrap();
        // The loop at lines 4..6: no RAW carried by it except the induction
        // variable `i`, which is scoped to the loop and treated as private
        // by discovery (§3.2.5).
        let (_, f) = p.module.function("main").unwrap();
        let loop_region = f
            .regions
            .iter()
            .position(|r| r.kind == mir::RegionKind::Loop)
            .unwrap() as u32;
        let fid = p.module.function("main").unwrap().0 .0;
        let carried: Vec<_> = out
            .deps
            .carried_raws((fid, loop_region))
            .into_iter()
            .filter(|d| p.symbol(d.var) != "i")
            .collect();
        assert!(carried.is_empty(), "{carried:?}");
    }

    #[test]
    fn signature_matches_perfect_when_large() {
        let src = "global int a[32];\nfn main() {\nfor (int i = 1; i < 32; i = i + 1) {\na[i] = a[i - 1] + i;\n}\n}";
        let p = program(src);
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 20),
                ..Default::default()
            },
        )
        .unwrap();
        let (fpr, fnr) = sig.deps.accuracy_vs(&perfect.deps);
        assert_eq!((fpr, fnr), (0.0, 0.0), "large signature must be exact");
    }

    #[test]
    fn tiny_signature_introduces_errors() {
        let src = "global int a[512];\nglobal int b[512];\nfn main() {\nfor (int i = 0; i < 512; i = i + 1) { a[i] = i; }\nfor (int i = 1; i < 512; i = i + 1) { b[i] = a[i] + b[i - 1]; }\n}";
        let p = program(src);
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(13),
                ..Default::default()
            },
        )
        .unwrap();
        let (fpr, fnr) = sig.deps.accuracy_vs(&perfect.deps);
        assert!(
            fpr > 0.0 || fnr > 0.0,
            "a 13-slot signature on 1024 addresses must collide"
        );
    }

    #[test]
    fn skip_opt_output_identical_on_workload() {
        let src = "global int a[16];\nglobal int s;\nfn main() {\nfor (int r = 0; r < 8; r = r + 1) {\nfor (int i = 0; i < 16; i = i + 1) {\ns = s + a[i];\na[i] = s - 1;\n}\n}\n}";
        let p = program(src);
        let plain = profile_program(&p).unwrap();
        let skip = profile_program_with(
            &p,
            &ProfileConfig {
                skip_loops: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.deps.sorted(), skip.deps.sorted());
        assert!(skip.skip_stats.total_skipped > 0);
    }

    #[test]
    fn lifetime_analysis_blocks_stale_stack_deps() {
        // Two functions reuse the same stack slot; without lifetime analysis
        // a false RAW from f's local to g's local appears.
        let src = "fn f() -> int { int x = 1; return x; }\nfn g() -> int { int y; int r = y; return r; }\nfn main() { int a = f(); int b = g(); }";
        let p = program(src);
        let with = profile_program_with(
            &p,
            &ProfileConfig {
                lifetime: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = profile_program_with(
            &p,
            &ProfileConfig {
                lifetime: false,
                ..Default::default()
            },
        )
        .unwrap();
        let cross = |o: &ProfileOutput| {
            o.deps
                .sorted()
                .iter()
                .filter(|d| d.ty == DepType::Raw && p.symbol(d.var) == "y")
                .count()
        };
        assert_eq!(cross(&with), 0, "lifetime analysis must evict x");
        assert!(cross(&without) > 0, "without it the stale dep appears");
    }

    #[test]
    fn pet_contains_main_and_loop() {
        let p =
            program("fn main() {\nint s = 0;\nfor (int i = 0; i < 5; i = i + 1) { s += i; }\n}");
        let out = profile_program(&p).unwrap();
        assert!(out.pet.nodes.len() >= 3); // root + main + loop
        let spans = control_spans(&p, &out.pet);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].iters, 5);
    }

    #[test]
    fn render_text_roundtrip() {
        let p = program(
            "global int g;\nfn main() {\nfor (int i = 0; i < 3; i = i + 1) {\ng = g + i;\n}\n}",
        );
        let out = profile_program(&p).unwrap();
        let spans = control_spans(&p, &out.pet);
        let text = crate::dep::render_text(&out.deps, &|s| p.symbol(s).to_string(), &spans, false);
        assert!(text.contains("BGN loop"));
        assert!(text.contains("END loop 3"));
        assert!(text.contains("RAW"));
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::run::{profile_program, profile_program_with, EngineKind, ProfileConfig};
    /// A mid-sized signature must agree exactly with the perfect shadow on
    /// this collision-prone mix of global-array and stack addresses.
    #[test]
    fn signature_agrees_with_perfect_on_mixed_addresses() {
        let src = "global int a[32];\nfn main() {\nfor (int i = 1; i < 32; i = i + 1) {\na[i] = a[i - 1] + i;\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let perfect = profile_program(&p).unwrap();
        let sig = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 20),
                ..Default::default()
            },
        )
        .unwrap();
        let ps: std::collections::HashSet<_> = perfect.deps.sorted().into_iter().collect();
        let ss: std::collections::HashSet<_> = sig.deps.sorted().into_iter().collect();
        let fp: Vec<_> = ss.difference(&ps).collect();
        let fnn: Vec<_> = ps.difference(&ss).collect();
        assert!(fp.is_empty(), "signature-only deps: {fp:?}");
        assert!(fnn.is_empty(), "missed deps: {fnn:?}");
    }
}
