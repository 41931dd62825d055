//! Answers pinned across the cu/discovery/report rewrite of PR 18: the
//! rendered `discovery` block of every catalogue program, and the whole
//! `--static` report of a generated wide program, must hash to the digest
//! recorded at the parent commit (cf1b80f). So must five whole reports
//! across the one-pass report writer of PR 24, recorded at its parent
//! (df901ad). A change that alters any of them on purpose re-records the
//! table from the failing test's output.

mod common;

use common::wide_program;
use discopop::{Analysis, EngineKind};

/// FNV-1a 64 over the rendered bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(program, digest)` at the parent commit; `wide_40` is the whole
/// `--static` report, every other row the `discovery` block alone.
const PINNED: &[(&str, u64)] = &[
    ("BT", 0x123e62c00ba07b21),
    ("CG", 0x627791dc574386b4),
    ("EP", 0x2e3ca0da4bbfffb4),
    ("FT", 0x2fce721036c6797a),
    ("IS", 0x34f3f46d819fbacc),
    ("LU", 0xa0ba25d435c6c350),
    ("MG", 0x24987dcfa59ab910),
    ("SP", 0x1a66f450b72d5ef7),
    ("c-ray", 0x488a8541d6740e60),
    ("kmeans", 0x1fb9b7f6004976f6),
    ("md5", 0x2e2489aaa33171a7),
    ("ray-rot", 0x1c3b3599f2577bd4),
    ("rgbyuv", 0x0656e6dc3f8fd9b3),
    ("rotate", 0x8ec284b95bdc186a),
    ("rot-cc", 0x0934b1cf5fc0435b),
    ("streamcluster", 0xb159aeeaf7928963),
    ("tinyjpeg", 0xfea1a58e4ac86586),
    ("bodytrack", 0x38203e359285b27e),
    ("h264dec", 0x4370e3c56b0ced7c),
    ("c-ray-par", 0x3ccb99118902f51f),
    ("kmeans-par", 0x8e62c2eedc894ca1),
    ("md5-par", 0x78c0a3bece4e1c24),
    ("rotate-par", 0x121032432891d1b1),
    ("fib", 0x476bd05cfea2028f),
    ("nqueens", 0x26f58d9ee80722eb),
    ("sort", 0xcac7169540e6e2b9),
    ("fft-bots", 0x01312d022acf28ff),
    ("strassen", 0xd26e7493e9c29972),
    ("sparselu", 0xf444f88d8bab7b55),
    ("health", 0x99ddc428cb81de9e),
    ("floorplan", 0x8946909a8b4469ec),
    ("alignment", 0xf2988c76d9f90766),
    ("uts", 0xe701e22721a49f12),
    ("gzip", 0x2f1003c7b5419eb0),
    ("bzip2", 0xe078fc455dab17a9),
    ("histogram", 0xc8b76654aae69310),
    ("libvorbis", 0x388249c21a0f4cb6),
    ("facedetection", 0x8dcd5fa0299f2c8b),
    ("blackscholes", 0x2ef418228b0d8708),
    ("swaptions", 0x2c2091f2fa6328af),
    ("dedup", 0x3bb64544e044c4aa),
    ("ferret", 0x212fcb55825a6df3),
    ("barnes-par", 0x5700b064ceef5b52),
    ("radix-par", 0x176385bee708a0ac),
    ("ocean-par", 0xfd1685db1bcba9ee),
    ("mandelbrot", 0xcc7b27c3a9333b51),
    ("matmul", 0x5797810311672b8b),
    ("pi", 0x657c602696e842c8),
    ("nbody", 0xaca50d3b8e2a99d1),
    ("primes", 0x11fa9f4bbc92efa3),
    ("dotprod", 0xaca6c6c7e70599fd),
    ("actor_pipeline", 0xe8177eed9a60250b),
    ("actor_fanout", 0xa355fa726776ee82),
    ("actor_ring", 0x2de73590fcb54933),
    ("actors_10k", 0xdc21f61d04663ff0),
    // Re-recorded in PR 21 (was 0x3f5d9e14fb7d63f0). Diffed against the
    // parent's report first: four lines of `profile.summary` change and
    // nothing else — `cycles` 400 → 470, `synthesized_accesses` 2,897 →
    // 3,160, `fallback_reasons.budget` 72 → 0, `dispatches` 2,351 → 1,972 —
    // because a lone thread's plan engagement is no longer cut at slice
    // boundaries. Re-recorded in PR 25 (was 0x02eb94bc693ea702): with the
    // superinstruction peephole gone one line changes, `dispatches`
    // 1,972 → 3,111 — the parent's digest is the parent CLI's report, and
    // the two reports differ in that line only.
    ("wide_40", 0x464c8041a218ba2b),
];

#[test]
fn discovery_blocks_match_the_digests_taken_before_the_rewrite() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for w in workloads::all() {
        let program = w.program().unwrap();
        let report = Analysis::new()
            .engine(EngineKind::auto_for(&program))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let doc = report.to_doc(&program).to_json();
        let block = doc.get("discovery").expect("discovery block");
        got.push((
            w.name.to_string(),
            fnv1a(block.to_string_pretty().as_bytes()),
        ));
    }

    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(&wide_program(40), "wide_40").unwrap();
    let report = analysis
        .engine_mut(EngineKind::auto_for(compiled.program()))
        .analyze_compiled(&compiled)
        .unwrap();
    assert_eq!(report.discovery.loops.len(), 40);
    assert_eq!(report.discovery.spmd.len(), 40 * 39 / 2);
    let json = report.to_json_string(compiled.program());
    got.push(("wide_40".to_string(), fnv1a(json.as_bytes())));

    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), 56, "55 catalogue programs and the wide one");
    for ((name, h), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert!(
            name == pinned_name && h == pinned,
            "{name}: digest {h:#018x}, pinned {pinned_name} {pinned:#018x}; measured table:\n{table}"
        );
    }
    assert_eq!(got.len(), PINNED.len(), "measured table:\n{table}");
}

/// Whole reports, `Report::to_json_string` to the byte, recorded at the
/// parent of the one-pass writer (df901ad) — before any code changed.
/// Re-recorded in PR 25, whose reports differ from its parent's in the
/// `profile.summary.dispatches` line alone (one op per dispatch); the
/// digests before were 0xcf003d54efabffc4, 0x4a4e0aa67f01712d,
/// 0x3dcdad8ca11dae5b, 0x9956da7adf99341e and 0x42c1c01adfc402a6.
const PINNED_WHOLE: &[(&str, u64)] = &[
    ("actors_10k", 0x3973a8345c0cb2f5),
    ("matmul on parallel:2", 0x13743fc01c7d04f2),
    ("CG", 0xa28d511d88675e18),
    ("fib", 0x1c3ea69d3da363db),
    ("actor_ring", 0x4ffda0f858d0454e),
];

#[test]
fn whole_reports_match_the_digests_taken_before_the_one_pass_writer() {
    let whole = |name: &str, engine: Option<EngineKind>| {
        let program = workloads::by_name(name).unwrap().program().unwrap();
        let report = Analysis::new()
            .engine(engine.unwrap_or_else(|| EngineKind::auto_for(&program)))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        fnv1a(report.to_json_string(&program).as_bytes())
    };
    // `matmul` is too small to spawn workers, so its `parallel` block is
    // the same on every host.
    let got = [
        ("actors_10k", whole("actors_10k", None)),
        (
            "matmul on parallel:2",
            whole("matmul", Some(EngineKind::parallel(2))),
        ),
        ("CG", whole("CG", None)),
        ("fib", whole("fib", None)),
        ("actor_ring", whole("actor_ring", None)),
    ];
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(got == PINNED_WHOLE, "measured table:\n{table}");
}
