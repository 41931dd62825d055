//! Differential gate for the actor scheduler tier.
//!
//! The run-queue scheduler and mailbox builtins live in two independent
//! implementations: `interp::machine` (pre-decoded dispatch) and
//! `interp::reference` (tree-walking oracle). Both share `interp::sched`
//! policy but derive mailbox op ids, timestamps, and park/wake points
//! independently — so their event streams must stay **byte-identical**
//! across seeds, batch caps, and delivery modes, and every profiler engine
//! must produce the same dependence set over those streams. The 10k-actor
//! stress workload additionally pins determinism at scale: same seed →
//! same dependence set, step count, and channel matrix.

use interp::{Program, RecordingSink, RunConfig};
use profiler::EngineKind;

fn actor_programs() -> Vec<(&'static str, Program)> {
    ["actor_pipeline", "actor_fanout", "actor_ring"]
        .into_iter()
        .map(|name| (name, workloads::by_name(name).unwrap().program().unwrap()))
        .collect()
}

fn record(p: &Program, cfg: RunConfig) -> (interp::RunResult, Vec<interp::Event>) {
    let mut sink = RecordingSink::default();
    let r = interp::run_with_config(p, &mut sink, cfg).unwrap();
    (r, sink.events)
}

fn record_reference(p: &Program, cfg: RunConfig) -> (interp::RunResult, Vec<interp::Event>) {
    let mut sink = RecordingSink::default();
    let r = interp::reference::run_with_config(p, &mut sink, cfg).unwrap();
    (r, sink.events)
}

#[test]
fn actor_streams_identical_to_reference_across_seeds_and_batch_caps() {
    for (name, p) in actor_programs() {
        for seed in [1u64, 0x5eed, u64::MAX / 3] {
            for batch_cap in [0usize, 7, 256] {
                let cfg = || RunConfig {
                    seed,
                    batch_cap,
                    ..Default::default()
                };
                let (nr, nev) = record(&p, cfg());
                let (rr, rev) = record_reference(&p, cfg());
                assert_eq!(
                    nev.len(),
                    rev.len(),
                    "{name} seed {seed} cap {batch_cap}: stream lengths differ"
                );
                if let Some(i) = (0..nev.len()).find(|&i| nev[i] != rev[i]) {
                    panic!(
                        "{name} seed {seed} cap {batch_cap}: first divergence at event {i}:\n  \
                         machine:   {:?}\n  reference: {:?}",
                        nev[i], rev[i]
                    );
                }
                assert_eq!(nr.ret, rr.ret, "{name}: return values differ");
                assert_eq!(nr.steps, rr.steps, "{name}: step counts differ");
                assert_eq!(nr.printed, rr.printed, "{name}: printed output differs");
                assert_eq!(nr.actors, rr.actors, "{name}: actor stats differ");
                assert!(!nev.is_empty(), "{name}: empty stream proves nothing");
            }
        }
    }
}

#[test]
fn actor_streams_identical_under_racy_delivery() {
    for (name, p) in actor_programs() {
        let cfg = || RunConfig {
            racy_delivery: true,
            buffer_cap: 8,
            ..Default::default()
        };
        let (_, nev) = record(&p, cfg());
        let (_, rev) = record_reference(&p, cfg());
        assert_eq!(nev, rev, "{name}: racy-mode streams differ");
    }
}

#[test]
fn engines_agree_on_actor_workloads() {
    // Every selectable engine consumes the same scheduler-interleaved
    // event stream, so the dependence sets must match bit-for-bit —
    // including the mailbox-slot RAW/WAR/WAW dependences the actor tier
    // introduces.
    for (name, p) in actor_programs() {
        let perfect = profiler::profile_program_with(
            &p,
            &profiler::ProfileConfig {
                engine: EngineKind::SerialPerfect,
                ..Default::default()
            },
        )
        .unwrap();
        let mbox = p.mailbox_symbol().expect("actor programs have mailboxes");
        assert!(
            perfect
                .deps
                .sorted()
                .iter()
                .any(|d| d.var == mbox && d.is_cross_thread()),
            "{name}: no cross-actor mailbox dependences observed"
        );
        for engine in [EngineKind::signature(1 << 20), EngineKind::parallel(4)] {
            let out = profiler::profile_program_with(
                &p,
                &profiler::ProfileConfig {
                    engine,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                out.deps.sorted(),
                perfect.deps.sorted(),
                "{name}: {engine} diverged from SerialPerfect"
            );
            assert_eq!(
                out.actors, perfect.actors,
                "{name}: {engine} reported different actor stats"
            );
        }
    }
}

#[test]
fn actors_10k_deterministic_under_budget() {
    // The tier's acceptance pin: 10k actors complete under a 256M budget,
    // and two runs with the same scheduler seed reproduce the dependence
    // set, step count, and schedule (channel matrix) exactly.
    let p = workloads::by_name("actors_10k").unwrap().program().unwrap();
    let cfg = || profiler::ProfileConfig {
        engine: EngineKind::auto_for(&p),
        budget: profiler::Budget {
            max_memory_bytes: Some(256 << 20),
            deadline: None,
        },
        ..Default::default()
    };
    let a = profiler::profile_program_with(&p, &cfg()).unwrap();
    let b = profiler::profile_program_with(&p, &cfg()).unwrap();
    assert_eq!(
        a.deps.sorted(),
        b.deps.sorted(),
        "dependences not seed-stable"
    );
    assert_eq!(a.steps, b.steps, "schedule not seed-stable");
    assert_eq!(a.actors, b.actors, "channel matrix not seed-stable");
    let actors = a.actors.as_ref().expect("actors block present");
    assert_eq!(actors.spawned, 10_002);
    assert_eq!(actors.peak_live, 10_001, "all echoes live before draining");
}

/// FNV-1a 64 over every `(dependence, count)` pair in sorted order.
fn dependence_digest(deps: &profiler::DepSet) -> u64 {
    let mut pairs: Vec<_> = deps.iter().collect();
    pairs.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (d, n) in pairs {
        for b in format!("{d:?}x{n};").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn actors_10k_shadow_costs_what_it_touches() {
    // 10,002 stacks 16 MiB apart and as many mailboxes 64 KiB apart, a few
    // words touched in each: the exact shadow must cost per touched region,
    // not per 4 KiB of address space (it was 66.8 MB with 64-slot pages of
    // 48-byte slots, and 825 MB with 512-slot pages of 40-byte cells; 13.0
    // MB until `DepKey` packed thread ids past 4095, 10.2 MB since). The
    // digest was taken from the 512-slot representation, so the saving is
    // shown to change no dependence and no count.
    let p = workloads::by_name("actors_10k").unwrap().program().unwrap();
    let out = profiler::profile_program_with(
        &p,
        &profiler::ProfileConfig {
            engine: EngineKind::auto_for(&p),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.resource.is_none(), "ungoverned run");
    assert!(
        out.profiler_bytes <= 12 << 20,
        "{} tracked bytes",
        out.profiler_bytes
    );
    assert_eq!(out.deps.len(), 50_042);
    assert_eq!(
        dependence_digest(&out.deps),
        0x4B36_CB76_E781_0AC4,
        "dependences moved"
    );
}

#[test]
fn actors_10k_machine_matches_reference() {
    // The oracle holds at production task counts, not just on the small
    // topologies: byte-identical streams over ~10k park/wake cycles.
    let p = workloads::by_name("actors_10k").unwrap().program().unwrap();
    let (nr, nev) = record(&p, RunConfig::default());
    let (rr, rev) = record_reference(&p, RunConfig::default());
    assert_eq!(nev.len(), rev.len(), "stream lengths differ");
    if let Some(i) = (0..nev.len()).find(|&i| nev[i] != rev[i]) {
        panic!(
            "first divergence at event {i}:\n  machine:   {:?}\n  reference: {:?}",
            nev[i], rev[i]
        );
    }
    assert_eq!(nr.steps, rr.steps);
    assert_eq!(nr.printed, rr.printed);
    assert_eq!(nr.actors, rr.actors);
}
