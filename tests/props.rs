//! Property-based tests over core invariants, using generated mini-C
//! programs and generated access traces.

use profiler::{
    Access, AccessMap, Cell, DepBuilder, HashShadowMap, InstanceTable, PerfectMap, SignatureMap,
    NO_INSTANCE,
};
use proptest::prelude::*;

/// The static op table [`traces`] draws from: op `i` sits on line `i + 1`,
/// names variable `i % 5`, and is a store iff `i` is odd.
fn trace_meta() -> Vec<interp::MemOpMeta> {
    (0..24u32)
        .map(|op| interp::MemOpMeta {
            line: op + 1,
            var: op % 5,
            is_write: op % 2 == 1,
        })
        .collect()
}

/// Strategy: a random access trace over a small address set.
fn traces() -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec((0u64..24, 0u32..12, any::<bool>()), 1..200).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (slot, op, is_write))| {
                // A static memory operation has a fixed access type
                // ("accessType … does not change over time", §2.4), so
                // loads and stores draw from disjoint op-id ranges.
                let op = op * 2 + is_write as u32;
                Access {
                    addr: 0x1000 + slot * 8,
                    op,
                    line: op + 1,
                    var: op % 5,
                    thread: 0,
                    ts: i as u64 + 1,
                    is_write,
                    instance: NO_INSTANCE,
                    iter: 0,
                }
            })
            .collect()
    })
}

proptest! {
    /// A sufficiently large signature must agree exactly with the perfect
    /// shadow on any trace (no collisions → no approximation error).
    #[test]
    fn large_signature_equals_perfect(trace in traces()) {
        let t = InstanceTable::new();
        let mut sig = DepBuilder::new(SignatureMap::new(1 << 16), trace_meta());
        let mut per = DepBuilder::new(PerfectMap::new(), trace_meta());
        for a in &trace {
            sig.process(a, &t);
            per.process(a, &t);
        }
        prop_assert_eq!(sig.deps().sorted(), per.deps().sorted());
    }

    /// The page-table shadow memory agrees with the legacy `HashMap`
    /// shadow on any trace — the engines are interchangeable bit for bit.
    #[test]
    fn page_table_equals_hash_shadow(trace in traces()) {
        let t = InstanceTable::new();
        let mut page = DepBuilder::new(PerfectMap::new(), trace_meta());
        let mut hash = DepBuilder::new(HashShadowMap::new(), trace_meta());
        for a in &trace {
            page.process(a, &t);
            hash.process(a, &t);
        }
        prop_assert_eq!(page.deps().sorted(), hash.deps().sorted());
        prop_assert_eq!(page.deps().total_found, hash.deps().total_found);
    }

    /// Merging is idempotent in the merged size: processing a trace twice
    /// must not add new *distinct* dependences beyond the union semantics
    /// of merged output (counts grow, set may only grow by deps created at
    /// the replay boundary).
    #[test]
    fn dep_counts_accumulate(trace in traces()) {
        let t = InstanceTable::new();
        let mut e = DepBuilder::new(PerfectMap::new(), trace_meta());
        for a in &trace {
            e.process(a, &t);
        }
        let first_total = e.deps().total_found;
        let first_merged = e.deps().len() as u64;
        prop_assert!(first_merged <= first_total.max(1));
    }

    /// Signature membership: after storing into an address's slot, `get`
    /// on a collision-free table returns exactly what was stored, in the
    /// half it was stored in.
    #[test]
    fn signature_roundtrip(addrs in prop::collection::btree_set(0u64..512, 1..64)) {
        let mut m = SignatureMap::new(1 << 16);
        let cell = |i: usize| Cell {
            ts: i as u64,
            op: i as u32,
            instance: NO_INSTANCE,
            iter: 0,
            thread: 0,
        };
        for (i, &a) in addrs.iter().enumerate() {
            let slot = m.entry(0x4000 + a * 8);
            if i % 2 == 0 {
                slot.write = cell(i);
            } else {
                slot.read = cell(i);
            }
        }
        for (i, &a) in addrs.iter().enumerate() {
            let slot = m.get(0x4000 + a * 8);
            let (stored, other) = if i % 2 == 0 { (slot.write, slot.read) } else { (slot.read, slot.write) };
            prop_assert_eq!(stored.status().map(|c| c.op), Some(i as u32));
            prop_assert!(other.is_empty());
        }
    }

    /// The carried-by relation is symmetric in its verdict (a dep between
    /// two contexts is carried by the same loop regardless of argument
    /// order).
    #[test]
    fn carried_by_symmetric(
        depth_a in 0usize..4,
        depth_b in 0usize..4,
        iters in prop::collection::vec(1u32..5, 8),
    ) {
        let mut t = InstanceTable::new();
        // Build one nested chain of instances.
        let mut chain = vec![];
        let mut parent = NO_INSTANCE;
        for d in 0..4u32 {
            let inst = t.enter((0, d + 1), parent, iters[d as usize]);
            chain.push(inst);
            parent = inst;
        }
        let (ia, ib) = (chain[depth_a], chain[depth_b]);
        let (ua, ub) = (iters[4 + depth_a % 4], iters[(5 + depth_b) % 8]);
        let ab = t.carried_by(ia, ua, ib, ub);
        let ba = t.carried_by(ib, ub, ia, ua);
        prop_assert_eq!(ab, ba);
    }
}

mod program_props {
    use super::*;

    /// Strategy: generate a random but well-formed mini-C loop nest over
    /// two global arrays.
    fn programs() -> impl Strategy<Value = String> {
        (
            1u32..5,            // outer trip count divisor
            prop::bool::ANY,    // reduction?
            prop::bool::ANY,    // recurrence?
            2u32..6,            // work lines
        )
            .prop_map(|(div, reduction, recurrence, work)| {
                let n = 64 / div;
                let mut body = String::new();
                for w in 0..work {
                    body.push_str(&format!("        b[i] = a[i] * {w} + b[i];\n"));
                }
                if reduction {
                    body.push_str("        s = s + a[i];\n");
                }
                if recurrence {
                    body.push_str("        c[i + 1] = c[i] + 1;\n");
                }
                format!(
                    "global int a[70];\nglobal int b[70];\nglobal int c[70];\nglobal int s;\nfn main() {{\n    for (int i = 0; i < {n}; i = i + 1) {{\n{body}    }}\n}}\n"
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Generated programs always compile, run, and profile; the
        /// discovery verdict matches the generated structure: a recurrence
        /// forces non-DOALL, otherwise the loop is parallel.
        #[test]
        fn discovery_matches_generated_structure(src in programs()) {
            let program = interp::Program::new(
                lang::compile(&src, "gen").expect("generated program compiles"),
            );
            let report = discopop::analyze_program(&program).expect("analyzes");
            let has_recurrence = src.contains("c[i + 1]");
            let l = &report.discovery.loops[0];
            if has_recurrence {
                prop_assert!(
                    matches!(
                        l.class,
                        discovery::LoopClass::Doacross | discovery::LoopClass::Sequential
                    ),
                    "recurrence mis-detected: {:?}\n{}",
                    l,
                    src
                );
            } else {
                prop_assert!(
                    matches!(
                        l.class,
                        discovery::LoopClass::Doall | discovery::LoopClass::Reduction
                    ),
                    "parallel loop mis-detected: {:?}\n{}",
                    l,
                    src
                );
            }
        }

        /// Every line with a memory access is covered by exactly one CU of
        /// the fine-grained decomposition (partition property).
        #[test]
        fn cus_partition_accessed_lines(src in programs()) {
            let program = interp::Program::new(
                lang::compile(&src, "gen").expect("compiles"),
            );
            let out = profiler::profile_program(&program).expect("profiles");
            let graph = cu::build_cu_graph_fine(&cu::CuBuildInput {
                program: &program,
                deps: &out.deps,
                pet: Some(&out.pet),
            });
            // Fragment CUs must never overlap each other's lines.
            let mut seen = std::collections::BTreeSet::new();
            for c in &graph.cus {
                if c.kind == cu::CuKind::Fragment {
                    for l in &c.lines {
                        prop_assert!(
                            seen.insert(*l),
                            "line {l} in two fragment CUs\n{src}"
                        );
                    }
                }
            }
        }
    }
}

mod robustness_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The frontend never panics: arbitrary byte soup either compiles
        /// or returns a structured error with a line number.
        #[test]
        fn compiler_never_panics(src in "[ -~\\n]{0,200}") {
            match lang::compile(&src, "fuzz") {
                Ok(m) => {
                    // Whatever compiles must verify.
                    prop_assert!(mir::verify_module(&m).is_empty());
                }
                Err(e) => prop_assert!(!e.message.is_empty()),
            }
        }

        /// Token-plausible soup built from language fragments also never
        /// panics (hits deeper parser paths than raw bytes).
        #[test]
        fn parser_never_panics_on_fragment_soup(
            parts in prop::collection::vec(
                prop::sample::select(vec![
                    "fn", "main", "(", ")", "{", "}", "int", "float", "for",
                    "while", "if", "else", "return", ";", "=", "+", "x",
                    "42", "1.5", "[", "]", ",", "<", "global", "break",
                ]),
                0..40,
            ),
        ) {
            let src = parts.join(" ");
            let _ = lang::compile(&src, "fuzz");
        }
    }
}

mod governance_props {
    use super::*;
    use profiler::estimated_fp_rate;
    use std::collections::BTreeSet;

    /// The signature slot counts the degradation ladder moves through at
    /// test scale: collision-free at the top, heavily colliding at the
    /// bottom (the trace strategy touches up to 24 distinct addresses).
    const TIERS: [usize; 4] = [1 << 16, 1 << 12, 256, 64];

    fn marker(i: usize) -> Cell {
        Cell {
            ts: i as u64 + 1,
            op: i as u32,
            instance: NO_INSTANCE,
            iter: 0,
            thread: 0,
        }
    }

    /// Distinct addresses of a trace.
    fn addrs_of(trace: &[Access]) -> Vec<u64> {
        trace
            .iter()
            .map(|a| a.addr)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// Store `c` as the write status of `addr`'s slot.
    fn set_write(m: &mut impl AccessMap, addr: u64, c: Cell) {
        m.entry(addr).write = c;
    }

    /// Detect collision-freedom differentially: write one distinct marker
    /// per address, then check every marker reads back intact.
    fn collision_free(slots: usize, addrs: &[u64]) -> bool {
        let mut m = SignatureMap::new(slots);
        for (i, &a) in addrs.iter().enumerate() {
            set_write(&mut m, a, marker(i));
        }
        addrs
            .iter()
            .enumerate()
            .all(|(i, &a)| m.get(a).write.status().map(|c| c.op) == Some(i as u32))
    }

    /// Two distinct addresses share a slot at this size (detected
    /// differentially: plant a marker under `a`, probe through `b`).
    fn same_slot(slots: usize, a: u64, b: u64) -> bool {
        let mut m = SignatureMap::new(slots);
        set_write(&mut m, a, marker(0));
        !m.get(b).is_empty()
    }

    /// Addresses of the set whose slot is shared with a *different*
    /// address — the only places a signature can mis-report.
    fn colliding_addrs(slots: usize, addrs: &[u64]) -> BTreeSet<u64> {
        addrs
            .iter()
            .copied()
            .filter(|&a| addrs.iter().any(|&b| b != a && same_slot(slots, a, b)))
            .collect()
    }

    proptest! {
        /// The degradation ladder's accuracy contract, tier by tier
        /// against the perfect oracle: a collision-free signature is
        /// *exact*, and a colliding one only mis-reports where the
        /// published false-positive estimate (Eq. 2.2) admits error —
        /// extras stay bounded by the estimate taken over the probes that
        /// could produce them.
        #[test]
        fn signature_tiers_against_perfect_oracle(trace in traces()) {
            let t = InstanceTable::new();
            let mut per = DepBuilder::new(PerfectMap::new(), trace_meta());
            for a in &trace {
                per.process(a, &t);
            }
            let oracle: BTreeSet<_> = per.deps().sorted().into_iter().collect();
            let addrs = addrs_of(&trace);

            for tier in TIERS {
                let mut sig = DepBuilder::new(SignatureMap::new(tier), trace_meta());
                for a in &trace {
                    sig.process(a, &t);
                }
                let got: BTreeSet<_> = sig.deps().sorted().into_iter().collect();
                if collision_free(tier, &addrs) {
                    prop_assert_eq!(&got, &oracle, "collision-free tier {} must be exact", tier);
                } else {
                    let fp = estimated_fp_rate(tier, addrs.len());
                    prop_assert!(fp > 0.0, "colliding tier {} must publish a nonzero FP estimate", tier);
                    // Hard bound: a signature only mis-reports through a
                    // probe on a slot-sharing address, and one probe adds
                    // at most two dependence edges (vs last read and last
                    // write), so distinct extras cannot exceed twice the
                    // colliding probe count.
                    let colliding = colliding_addrs(tier, &addrs);
                    let colliding_probes =
                        trace.iter().filter(|p| colliding.contains(&p.addr)).count();
                    let extras = got.difference(&oracle).count();
                    let missing = oracle.difference(&got).count();
                    prop_assert!(
                        extras + missing <= 2 * colliding_probes,
                        "tier {}: {} extras + {} missing exceed 2×{} colliding probes",
                        tier, extras, missing, colliding_probes
                    );
                }
            }
        }

        /// Halving re-keys exactly (the ladder's slot-level exactness
        /// claim): inserting a stream into `m` slots and halving `k` times
        /// leaves precisely the state of a fresh `m/2^k`-slot signature
        /// fed the same stream, in both halves of every slot. Timestamps
        /// grow with insertion order, so the halving merge (newest wins)
        /// and direct insertion (last store wins) must pick identical
        /// survivors.
        #[test]
        fn halving_matches_directly_built_signature(
            raw in prop::collection::vec((0u64..4096, any::<bool>()), 1..128),
            halvings in 1usize..4,
        ) {
            let store = |m: &mut SignatureMap, i: usize, (a, write): (u64, bool)| {
                let slot = m.entry(0x2000 + a * 8);
                if write {
                    slot.write = marker(i);
                } else {
                    slot.read = marker(i);
                }
            };
            let start = 1usize << 10;
            let mut halved = SignatureMap::new(start);
            for (i, &r) in raw.iter().enumerate() {
                store(&mut halved, i, r);
            }
            for _ in 0..halvings {
                halved.halve();
            }
            let finals = start >> halvings;
            prop_assert_eq!(halved.num_slots(), finals);

            let mut direct = SignatureMap::new(finals);
            for (i, &r) in raw.iter().enumerate() {
                store(&mut direct, i, r);
            }
            for &(a, _) in &raw {
                let addr = 0x2000 + a * 8;
                prop_assert_eq!(
                    halved.get(addr),
                    direct.get(addr),
                    "address {:#x} diverges after {} halvings", addr, halvings
                );
            }
            prop_assert_eq!(halved.occupied(), direct.occupied());
        }

        /// `from_perfect` (the ladder's first rung) preserves exactly the
        /// newest cell per slot: on a collision-free address set the
        /// signature answers every address identically to the shadow it
        /// was built from.
        #[test]
        fn perfect_to_signature_rung_is_faithful(
            raw in prop::collection::vec(0u64..512, 1..64),
        ) {
            let mut per = PerfectMap::new();
            for (i, &a) in raw.iter().enumerate() {
                let slot = per.entry(0x3000 + a * 8);
                if i % 3 == 0 {
                    slot.read = marker(i);
                } else {
                    slot.write = marker(i);
                }
            }
            let addrs: Vec<u64> = raw.iter().map(|&a| 0x3000 + a * 8).collect::<BTreeSet<_>>().into_iter().collect();
            let sig = SignatureMap::from_perfect(&per, 1 << 16);
            if collision_free(1 << 16, &addrs) {
                for &addr in &addrs {
                    prop_assert_eq!(sig.get(addr), per.get(addr));
                }
            }
        }
    }
}

mod failure_injection {
    /// An infinite loop hits the step limit instead of hanging.
    #[test]
    fn step_limit_enforced() {
        let m = lang::compile("fn main() { while (1) { } }", "t").unwrap();
        let p = interp::Program::new(m);
        let cfg = interp::RunConfig {
            max_steps: 10_000,
            ..Default::default()
        };
        assert_eq!(
            interp::run_with_config(&p, interp::NullSink, cfg).unwrap_err(),
            interp::RuntimeError::StepLimit
        );
    }

    /// The profiler surfaces target-program failures instead of producing
    /// partial garbage silently.
    #[test]
    fn profiler_propagates_runtime_errors() {
        let m = lang::compile("global int a[4];\nfn main() { int i = 7; a[i] = 1; }", "t").unwrap();
        let p = interp::Program::new(m);
        assert!(matches!(
            profiler::profile_program(&p),
            Err(profiler::ProfileError::Runtime(
                interp::RuntimeError::OutOfBounds { .. }
            ))
        ));
    }

    /// The parallel profiler shuts its workers down cleanly even when the
    /// target program fails mid-run: four workers spawned at construction,
    /// and a division by zero on the first iteration (`z * z + z - 30` is 0
    /// at `z = 5`). `Drop` stops and joins them; a leaked worker would spin
    /// on its queue forever.
    #[test]
    fn parallel_profiler_cleans_up_on_error() {
        let m = lang::compile(
            "fn main() { for (int i = 0; i < 10; i = i + 1) { int z = 5 - i; int q = 10 / (z * z + z - 30); } }",
            "t",
        )
        .unwrap();
        let p = interp::Program::new(m);
        let out = profiler::profile_program_with(
            &p,
            &profiler::ProfileConfig {
                engine: profiler::EngineKind::parallel(4),
                spawn_threshold: 0,
                ..Default::default()
            },
        );
        assert!(
            matches!(
                out,
                Err(profiler::ProfileError::Runtime(
                    interp::RuntimeError::DivByZero { .. }
                ))
            ),
            "{:?}",
            out.map(|o| o.steps)
        );
    }

    /// Deadlocked targets are detected, not spun on.
    #[test]
    fn deadlock_surfaces_through_profiler() {
        let m = lang::compile(
            "fn h(int x) { lock(2); unlock(2); }\nfn main() { lock(2); int t = spawn(h, 0); join(t); }",
            "t",
        )
        .unwrap();
        let p = interp::Program::new(m);
        assert!(matches!(
            profiler::profile_program(&p),
            Err(profiler::ProfileError::Runtime(
                interp::RuntimeError::Deadlock { .. }
            ))
        ));
    }
}
